"""A run file that sets only the required keys takes every other setting
from `RunConfig`, with the default paths under the run file's directory."""

from hmpsearch.cli import RunConfig, load_run_config


def test_unset_keys_take_the_defaults_with_paths_under_the_run_file(tmp_path):
    run = tmp_path / "runs" / "run.cfg"
    run.parent.mkdir()
    run.write_text("[run]\nmanifest = images.tsv\narchitecture = /elsewhere/arch.cfg\n")
    base = run.parent
    want = RunConfig(
        manifest=str(base / "images.tsv"),
        architecture="/elsewhere/arch.cfg",
        dictionary_dir=str(base / "dicts"),
        descriptor_dir=str(base / "descriptors"),
        index_path=str(base / "index.hmpi"),
    )
    assert load_run_config(run) == want
