"""The README's library example runs, its config examples load as
written, it documents the run keys and flags the CLI has, and the
paper-scale script it names still loads."""

import argparse
import logging
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from hmpsearch import cli, load_architecture
from hmpsearch.cli import build_parser, load_run_config

README = Path(__file__).resolve().parent.parent / "README.md"


def ini_blocks():
    return re.findall(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def parser_options(parser) -> set[str]:
    """Every option string of `parser` and of its subcommands."""
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= parser_options(sub)
    return options


def test_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    pixels = np.random.default_rng(0).integers(0, 256, (32, 32), dtype=np.uint8)
    (tmp_path / "photo.pgm").write_bytes(b"P5\n32 32\n255\n" + pixels.tobytes())
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_config_blocks_load_without_warnings(tmp_path, caplog):
    run_block, arch_block = ini_blocks()
    (tmp_path / "run.cfg").write_text(run_block)
    (tmp_path / "arch.cfg").write_text(arch_block)
    caplog.set_level(logging.DEBUG)
    cfg = load_run_config(tmp_path / "run.cfg")
    arch = load_architecture(cfg.architecture)
    assert cfg.seed == 0
    assert [layer.codebook_size for layer in arch.layers] == [128, 1000]
    assert caplog.records == []


def test_run_keys_and_flags_match_the_cli(tmp_path, monkeypatch):
    run_block, _ = ini_blocks()
    (tmp_path / "run.cfg").write_text(run_block)
    read_keys = set()
    read_config = cli.read_config

    def spy(path, what, readers):
        read_keys.update(readers["run"])
        return read_config(path, what, readers)

    monkeypatch.setattr(cli, "read_config", spy)
    load_run_config(tmp_path / "run.cfg")
    assert set(re.findall(r"^(\w+) =", run_block, re.M)) == read_keys
    text = README.read_text(encoding="utf-8")
    cli_section = text[text.index("\n## CLI\n") : text.index("\n## Benchmark\n")]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", cli_section))
    assert named and named <= parser_options(build_parser())


def test_paper_scale_script_loads():
    # pytest does not collect the script, so a rename in `src` or in the
    # modules it imports would otherwise break it unseen. It is loaded as
    # `python3 tests/paper_scale.py` loads it, with `tests` first on the
    # path, in a process of its own so that its imports stay out of this one.
    script = README.parent / "tests" / "paper_scale.py"
    code = f"import runpy; print(callable(runpy.run_path({str(script)!r}, run_name='paper_scale')['main']))"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=script.parent, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"
