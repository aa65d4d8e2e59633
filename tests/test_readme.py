"""The README's library example runs and its config examples load as
written."""

import logging
import re
from pathlib import Path

import numpy as np

from hmpsearch import load_architecture
from hmpsearch.cli import load_run_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    pixels = np.random.default_rng(0).integers(0, 256, (32, 32), dtype=np.uint8)
    (tmp_path / "photo.pgm").write_bytes(b"P5\n32 32\n255\n" + pixels.tobytes())
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_config_blocks_load_without_warnings(tmp_path, caplog):
    run_block, arch_block = re.findall(
        r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S
    )
    (tmp_path / "run.cfg").write_text(run_block)
    (tmp_path / "arch.cfg").write_text(arch_block)
    caplog.set_level(logging.DEBUG)
    cfg = load_run_config(tmp_path / "run.cfg")
    arch = load_architecture(cfg.architecture)
    assert cfg.seed == 0
    assert [layer.codebook_size for layer in arch.layers] == [128, 1000]
    assert caplog.records == []
