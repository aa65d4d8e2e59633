"""Fuzzing of the three binary decoders, the netpbm parser and the four
text readers.

Whatever the bytes, a decoder either returns a value or raises DecodeError,
and a text reader either returns or raises an HmpError naming the file; any
other exception escaping is a bug.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hmpsearch import (
    DecodeError,
    HmpError,
    ImageDescriptor,
    apply_idf,
    build_index,
    l2_normalize,
    load_architecture,
    load_descriptor,
    load_dictionary,
    load_ground_truth,
    load_image,
    load_index,
    read_manifest,
    save_descriptor,
    save_dictionary,
    save_index,
)
from hmpsearch.cli import load_run_config
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
MAGIC = {load_descriptor: b"HMPV\x01", load_index: b"HMPI\x02", load_dictionary: b"HMPD\x01"}


def load_or_error(loader, path, raw, error=DecodeError):
    path.write_bytes(raw)
    try:
        loader(path)
    except error as exc:
        assert path.name in str(exc)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda f: f.__name__)
@FUZZ
@given(data=st.binary(max_size=120), magic=st.booleans())
# a u32 dimension or size of 2^32 - 1 with nothing after it
@example(data=b"\xff" * 4 + bytes(9), magic=True)
# dimension 2^32 - 1, id "a" with one posting at 2^32 - 2, no weights
@example(
    data=struct.pack("<3I1s4IdB", 2**32 - 1, 1, 1, b"a", 1, 2**32 - 2, 1, 0, 1.0, 0), magic=True
)
def test_arbitrary_bytes(tmp_path, loader, data, magic):
    raw = MAGIC[loader] + data if magic else data
    load_or_error(loader, tmp_path / "fuzz.bin", raw)


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
    load_or_error(loader, tmp_path / "fuzz.bin", bytes(raw))


@FUZZ
@given(magic=st.sampled_from([b"P5", b"P6"]), data=st.binary(max_size=120))
# a width past the 4300 digits that int() converts
@example(magic=b"P5", data=b" " + b"9" * 5000 + b" 1 255\n\x00")
def test_netpbm_arbitrary_bytes(tmp_path, magic, data):
    load_or_error(load_image, tmp_path / "fuzz.pgm", magic + data)


# header fields: small sizes so bodies stay short, the maxval edges, and
# tokens that are not decimal digits
NETPBM_SIZE = st.one_of(
    st.sampled_from([b"1", b"2", b"3"]),
    st.sampled_from([b"0", b"100000", b"x", b"-1", b"2a", b"4#c", b"\xb2"]),
)
NETPBM_MAXVAL = st.sampled_from([b"0", b"1", b"255", b"256", b"65535", b"65536", b"ff"])
NETPBM_GAP = st.one_of(
    st.sampled_from([b" ", b"\n", b"\t\r\n"]),
    st.sampled_from([b"\n# note\n", b"#\n", b" # 12 34", b""]),
)


@FUZZ
@given(data=st.data())
def test_netpbm_structured_header(tmp_path, data):
    magic = data.draw(st.sampled_from([b"P5", b"P6"]))
    fields = [data.draw(NETPBM_SIZE), data.draw(NETPBM_SIZE), data.draw(NETPBM_MAXVAL)]
    header = magic + b"".join(data.draw(NETPBM_GAP) + f for f in fields) + b"\n"
    if all(f.isdigit() for f in fields):
        width, height, maxval = (int(f) for f in fields)
        need = width * height * (3 if magic == b"P6" else 1) * (2 if maxval > 255 else 1)
    else:
        need = 0
    body = data.draw(st.binary(min_size=min(need, 80), max_size=min(need, 80)))
    # whole bodies, and bodies cut short
    cut = data.draw(st.one_of(st.just(0), st.integers(0, len(body))))
    load_or_error(load_image, tmp_path / "fuzz.pgm", header + body[cut:])


# one valid file per text reader
TEXT_FILES = {
    read_manifest: b"a\timages/a.pgm\nb c\t/abs/b.pgm\n",
    load_ground_truth: b"q1\ta,b\nq2\tc\n",
    load_run_config: b"[run]\nmanifest = m.tsv\narchitecture = arch.cfg\nseed = 3\n",
    load_architecture: (
        b"[layer1]\npatch_size = 5\nunit_size = 16\ncodebook_size = 8\n"
        b"[layer2]\ncodebook_size = 4\n[pyramid]\ngrids = 1, 2\n"
    ),
}
# bytes that mean something to one of the formats, or to UTF-8
TEXT_TOKENS = st.sampled_from([
    b"\xff", b"\xc3", b"\x00", b"\t", b"\n", b"\r", b"%", b"%(x)s", b"[", b"]", b"=", b":", b",",
    b"abc", b"-1", b"0", b"[layer2]", b"[DEFAULT]", b"patch_size = 3",
])


@pytest.mark.parametrize("reader", list(TEXT_FILES), ids=lambda f: f.__name__)
@FUZZ
@given(
    start=st.integers(0, 10**6),
    cut=st.integers(0, 10**6),
    pieces=st.lists(st.one_of(TEXT_TOKENS, st.binary(max_size=4)), max_size=6),
)
def test_spliced_text_file(tmp_path, reader, start, cut, pieces):
    valid = TEXT_FILES[reader]
    start %= len(valid) + 1
    end = start + cut % (len(valid) - start + 1)
    raw = valid[:start] + b"".join(pieces) + valid[end:]
    load_or_error(reader, tmp_path / "fuzz.txt", raw, error=HmpError)
