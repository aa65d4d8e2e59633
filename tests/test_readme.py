"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    pixels = np.random.default_rng(0).integers(0, 256, (32, 32), dtype=np.uint8)
    (tmp_path / "photo.pgm").write_bytes(b"P5\n32 32\n255\n" + pixels.tobytes())
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
