"""A run file that sets only the required keys takes every other setting
from `RunConfig`, with the default paths under the run file's directory; a
number that is not an integer is an error naming the file, section and key."""

import pytest

from hmpsearch import ConfigError
from hmpsearch.cli import _RUN_MINIMUMS, RunConfig, load_run_config


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


@pytest.mark.parametrize("key", sorted(_RUN_MINIMUMS))
def test_non_integer_names_file_section_and_key(tmp_path, key):
    run = tmp_path / "run.cfg"
    run.write_text(f"[run]\nmanifest = images.tsv\narchitecture = arch.cfg\n{key} = 1e3\n")
    with pytest.raises(ConfigError) as err:
        load_run_config(run)
    assert str(err.value) == f"{run}: [run] {key}: '1e3' is not an integer"
