"""Fuzzing of the three binary decoders.

Whatever the bytes, a decoder either returns a value or raises DecodeError;
any other exception escaping is a bug.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hmpsearch import (
    DecodeError,
    ImageDescriptor,
    apply_idf,
    build_index,
    l2_normalize,
    load_descriptor,
    load_dictionary,
    load_index,
    save_descriptor,
    save_dictionary,
    save_index,
)
from conftest import random_dictionary

# no numeric warning escapes a decoder, not even on the way to a DecodeError
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def descriptor(image_id, dims, values):
    return ImageDescriptor(image_id, 40, np.array(dims), l2_normalize(np.array(values)))


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One well-formed file per format, keyed by its loader."""
    root = tmp_path_factory.mktemp("valid")
    desc_path = root / "valid.hmpv"
    save_descriptor(descriptor("img-7", [1, 8, 12, 30, 39], [0.5, -1.0, 2.0, 0.25, 1.0]), desc_path)
    idx = build_index(40, [
        descriptor("a", [1, 8], [1.0, 2.0]),
        descriptor("b", [8, 30], [-1.0, 0.5]),
        descriptor("c", [1, 39], [3.0, 1.0]),
    ])
    index_path = root / "valid.hmpi"
    save_index(apply_idf(idx), index_path)
    dict_path = root / "valid.hmpd"
    save_dictionary(random_dictionary(np.random.default_rng(0), 3, 4), dict_path)
    return {
        load_descriptor: desc_path.read_bytes(),
        load_index: index_path.read_bytes(),
        load_dictionary: dict_path.read_bytes(),
    }


LOADERS = [load_descriptor, load_index, load_dictionary]
MAGIC = {load_descriptor: b"HMPV\x01", load_index: b"HMPI\x01", load_dictionary: b"HMPD\x01"}


def load_or_decode_error(loader, path, raw):
    path.write_bytes(raw)
    try:
        loader(path)
    except DecodeError as exc:
        assert path.name in str(exc)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda f: f.__name__)
@FUZZ
@given(data=st.binary(max_size=120), magic=st.booleans())
def test_arbitrary_bytes(tmp_path, loader, data, magic):
    raw = MAGIC[loader] + data if magic else data
    load_or_decode_error(loader, tmp_path / "fuzz.bin", raw)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda f: f.__name__)
@FUZZ
@given(
    cut=st.integers(0, 10**6),
    flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=3),
)
def test_truncated_or_flipped_valid_file(tmp_path, valid_files, loader, cut, flips):
    raw = bytearray(valid_files[loader])
    for position, value in flips:
        raw[position % len(raw)] = value
    if cut % 2:
        raw = raw[: cut % len(raw)]
    load_or_decode_error(loader, tmp_path / "fuzz.bin", bytes(raw))
