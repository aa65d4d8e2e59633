"""A config value out of range is an error that names the file, the section
and the key, as `<path>: [section] key ...`, whichever object checks it."""

import pytest

from hmpsearch import ConfigError, load_architecture
from hmpsearch.cli import load_run_config

RUN = "[run]\nmanifest = images.tsv\narchitecture = arch.cfg\n"
LAYER1 = "[layer1]\ncodebook_size = 8\n"


@pytest.mark.parametrize(
    "load, text, message",
    [
        (
            load_architecture,
            LAYER1 + "[layer2]\ncodebook_size = 8\nsparsity = 0\n",
            "[layer2] sparsity must be >= 1, got 0",
        ),
        (
            load_architecture,
            LAYER1 + "[layer2]\ncodebook_size = 1\n",
            "[layer2] codebook_size must be >= 2, got 1",
        ),
        (
            load_architecture,
            LAYER1 + "unit_size = 9\ncell_grid = 2\n[layer2]\ncodebook_size = 8\n",
            "[layer1] unit_size 9 is not divisible by cell_grid 2",
        ),
        (load_architecture, LAYER1 + "patch_size = 0\n", "[layer1] patch_size and stride must be >= 1"),
        (
            load_architecture,
            LAYER1 + "[pyramid]\ngrids = 1, 4\n",
            "[pyramid] grids must be distinct values from {1, 2, 3}, got [1, 4]",
        ),
        (
            load_architecture,
            LAYER1 + "[layer2]\nsparsity = 2\n",
            "[layer2] codebook_size is required",
        ),
        (load_run_config, RUN + "seed = -1\n", "[run] seed must be >= 0, got -1"),
        (load_run_config, RUN + "sample_cap = 0\n", "[run] sample_cap must be >= 1, got 0"),
    ],
    ids=[
        "layer2-sparsity",
        "layer2-codebook-size",
        "layer1-indivisible-unit",
        "layer1-patch-size",
        "pyramid-grids",
        "layer2-missing-codebook-size",
        "run-seed",
        "run-sample-cap",
    ],
)
def test_range_error_names_file_section_and_key(tmp_path, load, text, message):
    path = tmp_path / "a.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load(path)
    assert str(err.value) == f"{path}: {message}"
