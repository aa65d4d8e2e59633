"""End-to-end command-line pipeline tests on a small synthetic corpus."""

import logging
import os
import resource
import struct
import subprocess
import sys
import urllib.parse
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hmpsearch
from hmpsearch import (
    ImageDescriptor,
    cli,
    encode_image,
    load_architecture,
    load_descriptor,
    load_dictionary,
    load_image,
    load_index,
    resize_max_side,
    save_descriptor,
    save_dictionary,
)
from hmpsearch.cli import load_run_config, main
from conftest import outputs_under_blas_threads, random_dictionary, texture_image
from test_index import index_bytes

ARCH_ONE_LAYER = """\
[layer1]
patch_size = 5
stride = 2
codebook_size = 16
sparsity = 3

[pyramid]
grids = 1
"""

ARCH_TWO_LAYER = """\
[layer1]
patch_size = 5
stride = 2
unit_size = 16
cell_grid = 2
codebook_size = 8
sparsity = 2

[layer2]
codebook_size = 8
sparsity = 2
"""

# a third layer whose 36 px units need larger images than the first layer's
ARCH_THREE_LAYER = ARCH_TWO_LAYER + """\
unit_size = 36
cell_grid = 2

[layer3]
codebook_size = 8
sparsity = 2
"""

RUN_TEMPLATE = """\
[run]
manifest = manifest.tsv
architecture = arch.cfg
dictionary_dir = dicts
descriptor_dir = descriptors
index_path = corpus.hmpi
ground_truth = gt.tsv
seed = {seed}
train_iterations = 3
sample_cap = 1200
"""


def write_p5(path, pixels):
    data = np.clip(np.round(pixels * 255), 0, 255).astype(np.uint8)
    header = f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode()
    path.write_bytes(header + data.tobytes())


def make_workspace(tmp_path, groups=5, members=2, side=40, seed=0, arch=ARCH_ONE_LAYER):
    """Corpus of `groups` textures, each stored under `members` ids; group
    mates are each other's relevant set."""
    (tmp_path / "images").mkdir()
    manifest_lines = []
    gt_lines = []
    for g in range(groups):
        pixels = texture_image(seed=100 + g, side=side)
        ids = [f"g{g}m{m}" for m in range(members)]
        for image_id in ids:
            write_p5(tmp_path / "images" / f"{image_id}.pgm", pixels)
            manifest_lines.append(f"{image_id}\timages/{image_id}.pgm")
        for image_id in ids:
            others = ",".join(i for i in ids if i != image_id)
            gt_lines.append(f"{image_id}\t{others}")
    (tmp_path / "manifest.tsv").write_text("\n".join(manifest_lines) + "\n")
    (tmp_path / "gt.tsv").write_text("\n".join(gt_lines) + "\n")
    (tmp_path / "arch.cfg").write_text(arch)
    (tmp_path / "run.cfg").write_text(RUN_TEMPLATE.format(seed=seed))
    return tmp_path / "run.cfg"


def run_cli(cfg, *args):
    return main(["--config", str(cfg), *args])


def set_run_key(cfg, key, value):
    """Set `key` in the [run] section of the run config file `cfg`."""
    lines = [line for line in cfg.read_text().splitlines() if not line.startswith(f"{key} =")]
    cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")


def report_fingerprint(root):
    header = (root / "corpus.hmpi.report.txt").read_text().splitlines()[0]
    assert header.startswith("# config ")
    return header.split()[-1]


class TestRunConfig:
    @pytest.mark.parametrize("key", ["threads", "incoherence_weight", "baseline", "use_idf"])
    def test_retired_key_still_loads(self, tmp_path, caplog, key):
        cfg = make_workspace(tmp_path)
        cfg.write_text(cfg.read_text() + f"{key} = yes\n")
        loaded = load_run_config(cfg)
        # only the --baseline flag sets `baseline`
        assert loaded.seed == 0 and getattr(loaded, key, False) is False
        [warning] = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert str(cfg) in warning and repr(key) in warning

    def test_missing_run_section_exits_2_naming_the_file(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        cfg.write_text(cfg.read_text().replace("[run]", "[other]"))
        assert run_cli(cfg, "train-dict") == 2
        err = capsys.readouterr().err
        assert f"{cfg}: missing [run] section" in err

    @pytest.mark.parametrize(
        "key, value, flags",
        [
            ("seed", "-1", []),
            ("seed", "-1", ["--baseline"]),
            ("sample_cap", "-5", []),
            ("sample_cap", "0", []),
            ("train_iterations", "0", []),
            ("resize_max_side", "-1", []),
        ],
        ids=[
            "negative-seed",
            "negative-seed-baseline",
            "negative-sample-cap",
            "zero-sample-cap",
            "zero-iterations",
            "negative-resize",
        ],
    )
    def test_bad_number_rejected_before_any_work(self, tmp_path, capsys, key, value, flags):
        cfg = make_workspace(tmp_path)
        set_run_key(cfg, key, value)
        assert run_cli(cfg, *flags, "train-dict") == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and key in err
        assert not (tmp_path / "dicts").exists()


class TestInputFiles:
    """A malformed input file exits 2 naming the file, never with a traceback."""

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("run.cfg", lambda raw: raw + b"# caf\xff\n"),
            ("manifest.tsv", lambda raw: raw + b"g\xff\timages/g0m0.pgm\n"),
            ("arch.cfg", lambda raw: raw.replace(b"codebook_size = 16", b"codebook_size = abc")),
        ],
        ids=["run-config-not-utf8", "manifest-not-utf8", "codebook-size-not-a-number"],
    )
    def test_malformed_file_exits_2_naming_it(self, tmp_path, capsys, name, edit):
        cfg = make_workspace(tmp_path)
        path = tmp_path / name
        path.write_bytes(edit(path.read_bytes()))
        assert run_cli(cfg, "train-dict") == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    def test_manifest_id_holding_a_comma_exits_2_naming_the_line(self, tmp_path, capsys):
        # the ground truth splits relevant ids on commas, so it could never name this one
        cfg = make_workspace(tmp_path)
        manifest = tmp_path / "manifest.tsv"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines + ["a,b\timages/g0m0.pgm"]) + "\n")
        assert run_cli(cfg, "train-dict") == 2
        err = capsys.readouterr().err
        assert f"{manifest}:{len(lines) + 1}: id 'a,b' holds a comma" in err and "Traceback" not in err
        assert not (tmp_path / "dicts").exists()

    def test_percent_in_a_value_is_literal(self, tmp_path):
        cfg = make_workspace(tmp_path)
        (tmp_path / "manifest.tsv").rename(tmp_path / "50%.tsv")
        set_run_key(cfg, "manifest", "50%.tsv")
        assert load_run_config(cfg).manifest == str(tmp_path / "50%.tsv")
        assert run_cli(cfg, "train-dict") == 0


class TestTrainDict:
    def test_trains_one_codebook_with_unit_atoms(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        assert run_cli(cfg, "train-dict") == 0
        dictionary = load_dictionary(tmp_path / "dicts" / "layer1.hmpd")
        assert dictionary.size == 16
        np.testing.assert_allclose(np.linalg.norm(dictionary.atoms, axis=0), 1.0, atol=1e-9)
        assert (tmp_path / "dicts" / "training.log").exists()

    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        cfg = make_workspace(tmp_path)
        run_cli(cfg, "train-dict")
        first = (tmp_path / "dicts" / "layer1.hmpd").read_bytes()
        run_cli(cfg, "train-dict")
        assert (tmp_path / "dicts" / "layer1.hmpd").read_bytes() == first

    def test_failure_in_a_later_layer_keeps_the_previous_codebook_set(self, tmp_path, monkeypatch):
        cfg = make_workspace(tmp_path, groups=3, members=1, side=36, arch=ARCH_TWO_LAYER)
        assert run_cli(cfg, "train-dict") == 0
        paths = [tmp_path / "dicts" / f"layer{d}.hmpd" for d in (1, 2)]
        before = [path.read_bytes() for path in paths]
        trained = []

        def train_then_fail(*args):
            trained.append(args)
            if len(trained) == 2:
                raise hmpsearch.HmpError("layer 2 could not be trained")
            return cli_train(*args)

        cli_train = cli.train
        monkeypatch.setattr(cli, "train", train_then_fail)
        set_run_key(cfg, "seed", 5)
        assert run_cli(cfg, "train-dict") == 2
        assert len(trained) == 2
        assert [path.read_bytes() for path in paths] == before

    def test_empty_manifest_fails_fast(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        (tmp_path / "manifest.tsv").write_text("\n")
        assert run_cli(cfg, "train-dict") == 2
        assert not (tmp_path / "dicts").exists()

    def test_codebook_too_large_for_memory_exits_2_naming_the_stage(self, tmp_path):
        # 2^40 atoms: sampling the initial codebook asks numpy for 8 TiB.
        # The stage runs in a process whose address space is capped at 2 GB
        # (or the lower limit already set), so the request fails at once
        arch = ARCH_ONE_LAYER.replace("codebook_size = 16", "codebook_size = 1099511627776")
        cfg = make_workspace(tmp_path, groups=2, arch=arch)

        def cap_address_space():
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            cap = 2 * 1024**3 if hard == resource.RLIM_INFINITY else min(2 * 1024**3, hard)
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

        src = os.path.dirname(os.path.dirname(hmpsearch.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "hmpsearch.cli", "--config", str(cfg), "train-dict"],
            capture_output=True, text=True, timeout=300, preexec_fn=cap_address_space,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        [error] = [line for line in done.stderr.splitlines() if line.startswith("error: ")]
        assert "train-dict" in error and "memory" in error

    def test_unreadable_minority_skipped_majority_aborts(self, tmp_path):
        cfg = make_workspace(tmp_path, groups=2, members=2)
        (tmp_path / "images" / "g0m0.pgm").write_bytes(b"P5\n4 ")
        assert run_cli(cfg, "train-dict") == 0
        for name in ("g0m1", "g1m0", "g1m1"):
            (tmp_path / "images" / f"{name}.pgm").write_bytes(b"P5\n4 ")
        assert run_cli(cfg, "train-dict") == 2


    def test_image_neither_netpbm_nor_readable_without_pillow_is_skipped(self, tmp_path, caplog, monkeypatch):
        cfg = make_workspace(tmp_path)
        photo = tmp_path / "images" / "g0m0.pgm"
        photo.write_bytes(b"\xff\xd8\xff\xe0 not really a jpeg")
        monkeypatch.setitem(sys.modules, "PIL", None)
        assert run_cli(cfg, "train-dict") == 0
        [skip] = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert skip == f"skipping g0m0: {photo}: not a P5/P6 netpbm file and Pillow is not installed"

    def test_header_field_beyond_int_digit_limit_skipped(self, tmp_path, caplog):
        cfg = make_workspace(tmp_path)
        bad = tmp_path / "images" / "g0m0.pgm"
        bad.write_bytes(b"P5 " + b"9" * 5000 + b" 1 255\n\x00")
        assert run_cli(cfg, "train-dict") == 0
        [skip] = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert skip.startswith("skipping g0m0:") and str(bad) in skip


class TestTooSmallImages:
    # each image below the pipeline's minimum side: 12 px fits the 5 px
    # patches but not the 16 px unit; 4 px fits no patch at all; 20 px fits
    # a 16 px layer-1 unit but no 36 px layer-2 unit
    CASES = [
        ([], ARCH_TWO_LAYER, 12),
        (["--baseline"], ARCH_ONE_LAYER, 4),
        ([], ARCH_THREE_LAYER, 20),
    ]

    @pytest.mark.parametrize(
        "flags, arch, side", CASES, ids=["unit", "baseline-patch", "deeper-unit"]
    )
    def test_small_minority_skipped_by_every_stage(self, tmp_path, capsys, caplog, flags, arch, side):
        cfg = make_workspace(tmp_path, arch=arch)
        write_p5(tmp_path / "images" / "g0m0.pgm", texture_image(seed=7, side=side))
        assert run_cli(cfg, *flags, "train-dict") == 0
        assert run_cli(cfg, *flags, "encode") == 0
        assert "encoded 9 descriptors" in capsys.readouterr().out
        assert not (tmp_path / "descriptors" / "g0m0.hmpv").exists()
        skips = [r.getMessage() for r in caplog.records if "skipping g0m0" in r.getMessage()]
        assert len(skips) == 2 and all(f"{side}x{side}" in m for m in skips)

    def test_small_majority_aborts(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        for name in ("g0m0", "g0m1", "g1m0", "g1m1", "g2m0", "g2m1"):
            write_p5(tmp_path / "images" / f"{name}.pgm", texture_image(seed=7, side=4))
        assert run_cli(cfg, "train-dict") == 2
        assert "6 of 10" in capsys.readouterr().err
        assert not (tmp_path / "dicts").exists()


class TestStreaming:
    """Each stage decodes an admitted image when it uses it and drops it
    before decoding the next, so at most one decoded image is alive."""

    @pytest.mark.parametrize(
        "flags, arch, stage",
        [
            (["--baseline"], ARCH_ONE_LAYER, "train-dict"),
            ([], ARCH_TWO_LAYER, "train-dict"),
            ([], ARCH_TWO_LAYER, "encode"),
        ],
        ids=["train-baseline", "train-two-layer", "encode"],
    )
    def test_one_decoded_image_alive_at_a_time(self, tmp_path, monkeypatch, flags, arch, stage):
        cfg = make_workspace(tmp_path, arch=arch)
        if stage == "encode":
            assert run_cli(cfg, *flags, "train-dict") == 0
        decoded, alive = [], []
        load_image = cli.load_image

        def spy(path):
            img = load_image(path)
            decoded.append(weakref.ref(img))
            alive.append(sum(ref() is not None for ref in decoded))
            return img

        monkeypatch.setattr(cli, "load_image", spy)
        assert run_cli(cfg, *flags, stage) == 0
        assert len(decoded) >= 20 and max(alive) == 1


class TestEncode:
    def test_descriptor_lengths_follow_length_law(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        run_cli(cfg, "train-dict")
        assert run_cli(cfg, "encode") == 0
        out = capsys.readouterr().out
        assert "encoded 10 descriptors" in out
        for path in sorted((tmp_path / "descriptors").glob("*.hmpv")):
            desc = load_descriptor(path)
            assert desc.length == 2 * 16

    def test_baseline_descriptors_have_codebook_length(self, tmp_path):
        cfg = make_workspace(tmp_path)
        assert run_cli(cfg, "--baseline", "train-dict") == 0
        assert run_cli(cfg, "--baseline", "encode") == 0
        for path in sorted((tmp_path / "descriptors").glob("*.hmpv")):
            assert load_descriptor(path).length == 16

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = make_workspace(tmp_path)
        run_cli(cfg, "train-dict")
        run_cli(cfg, "encode")
        sample = tmp_path / "descriptors" / "g0m0.hmpv"
        first = sample.read_bytes()
        run_cli(cfg, "encode")
        assert sample.read_bytes() == first

    def test_resize_shrinks_images_before_coding(self, tmp_path):
        cfg = make_workspace(tmp_path)
        set_run_key(cfg, "resize_max_side", "24")
        assert run_cli(cfg, "train-dict") == 0
        assert run_cli(cfg, "encode") == 0
        arch = load_architecture(tmp_path / "arch.cfg")
        codebook = load_dictionary(tmp_path / "dicts" / "layer1.hmpd")
        for image_id in ("g0m0", "g3m1"):
            img = resize_max_side(load_image(tmp_path / "images" / f"{image_id}.pgm"), 24)
            assert img.height == 24
            want = encode_image(img, arch, [codebook], image_id)
            got = load_descriptor(tmp_path / "descriptors" / f"{image_id}.hmpv")
            assert got.indices.tolist() == want.indices.tolist()
            assert got.values.tobytes() == want.values.tobytes()

    def test_ids_once_sharing_a_descriptor_file_name_each_get_one(self, tmp_path, capsys):
        # `_` for every other byte would give the first three one file, and
        # a case-insensitive file system does not tell the last two apart
        cfg = make_workspace(tmp_path)
        names = {"a/b": "a%2Fb", "a_b": "a_b", "a b": "a%20b", "Img": "%49mg", "img": "img"}
        groups = [[f"g{g}m0", f"g{g}m1", image_id] for g, image_id in enumerate(names)]
        with open(tmp_path / "manifest.tsv", "a") as fh:
            fh.writelines(f"{ids[2]}\timages/{ids[0]}.pgm\n" for ids in groups)
        (tmp_path / "gt.tsv").write_text(
            "".join(f"{q}\t{','.join(i for i in ids if i != q)}\n" for ids in groups for q in ids)
        )
        for stage in ("train-dict", "encode", "build-index", "evaluate"):
            assert run_cli(cfg, stage) == 0
        for image_id, name in names.items():
            assert cli.safe_filename(image_id) == name
            assert load_descriptor(tmp_path / "descriptors" / f"{name}.hmpv").image_id == image_id
        assert len(os.listdir(tmp_path / "descriptors")) == load_index(tmp_path / "corpus.hmpi").doc_count == 15
        assert capsys.readouterr().out.strip().splitlines()[-1] == "mAP 1.000000"

    def test_descriptor_file_name_from_before_escaping_stops_build_index(self, tmp_path, capsys):
        # a directory encoded when "x y" was written to x_y.hmpv, encoded again
        cfg = make_workspace(tmp_path)
        with open(tmp_path / "manifest.tsv", "a") as fh:
            fh.write("x y\timages/g0m0.pgm\n")
        assert run_cli(cfg, "train-dict") == 0
        assert run_cli(cfg, "encode") == 0
        new, old = tmp_path / "descriptors" / "x%20y.hmpv", tmp_path / "descriptors" / "x_y.hmpv"
        old.write_bytes(new.read_bytes())
        assert run_cli(cfg, "build-index") == 2
        assert f"{old} repeats image id 'x y' of {new}" in capsys.readouterr().err

    def test_id_too_long_for_a_descriptor_file_name_stops_encode_at_it(self, tmp_path, capsys):
        # 100 two-byte characters make a 600-byte name, past the 255 of
        # common file systems
        cfg = make_workspace(tmp_path)
        with open(tmp_path / "manifest.tsv", "a") as fh:
            fh.write("é" * 100 + "\timages/g0m0.pgm\n")
        assert run_cli(cfg, "train-dict") == 0
        assert run_cli(cfg, "encode") == 2
        err = capsys.readouterr().err
        assert f"cannot write descriptor file {tmp_path / 'descriptors' / '%C3%A9'}" in err
        assert len(os.listdir(tmp_path / "descriptors")) == 10

    def test_missing_dictionary_is_config_error(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        assert run_cli(cfg, "encode") == 2
        assert "train-dict" in capsys.readouterr().err
        assert not (tmp_path / "descriptors").exists()


@given(
    ids=st.lists(
        # ids come from manifests read as strict UTF-8, so none holds a lone surrogate
        st.text(st.sampled_from("/%_ .Aaé") | st.characters(codec="utf-8"), min_size=1),
        min_size=2,
        max_size=2,
        unique=True,
    )
)
def test_descriptor_file_names_are_lossless_and_case_safe(ids):
    names = [cli.safe_filename(image_id) for image_id in ids]
    assert names[0].casefold() != names[1].casefold()
    for image_id, name in zip(ids, names):
        assert urllib.parse.unquote_to_bytes(name) == image_id.encode("utf-8")


class TestStaleCodebooks:
    """encode checks every codebook against the architecture before it
    decodes any image; a stale one exits 2 naming its file."""

    @pytest.mark.parametrize(
        "flags, edit, name",
        [
            (["--baseline"], ("codebook_size = 16", "codebook_size = 12"), "baseline.hmpd"),
            (["--baseline"], ("patch_size = 5", "patch_size = 3"), "baseline.hmpd"),
            ([], ("patch_size = 5", "patch_size = 3"), "layer1.hmpd"),
        ],
        ids=["baseline-atoms", "baseline-patch", "layer1-patch"],
    )
    def test_stale_codebook_exits_2_naming_it(self, tmp_path, capsys, monkeypatch, flags, edit, name):
        cfg = make_workspace(tmp_path)
        assert run_cli(cfg, *flags, "train-dict") == 0
        arch = tmp_path / "arch.cfg"
        arch.write_text(arch.read_text().replace(*edit))
        decoded = []
        load_image = cli.load_image
        monkeypatch.setattr(cli, "load_image", lambda path: decoded.append(path) or load_image(path))
        assert run_cli(cfg, *flags, "encode") == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "dicts" / name) in err and "Traceback" not in err
        assert decoded == [] and not (tmp_path / "descriptors").exists()

    def test_query_checks_codebooks_before_the_index(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        assert run_cli(cfg, "train-dict") == 0
        (tmp_path / "corpus.hmpi").write_bytes(b"HMPI\x01 not an index")
        arch = tmp_path / "arch.cfg"
        arch.write_text(arch.read_text().replace("patch_size = 5", "patch_size = 3"))
        assert run_cli(cfg, "query", str(tmp_path / "images" / "g0m0.pgm")) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "dicts" / "layer1.hmpd") in err and "corpus.hmpi" not in err


class TestIndexAndQuery:
    @pytest.fixture()
    def pipeline(self, tmp_path):
        cfg = make_workspace(tmp_path)
        run_cli(cfg, "train-dict")
        run_cli(cfg, "encode")
        run_cli(cfg, "build-index")
        return cfg, tmp_path

    def test_index_file_written(self, pipeline):
        cfg, root = pipeline
        idx = load_index(root / "corpus.hmpi")
        assert idx.doc_count == 10
        assert idx.dimension == 32

    @pytest.mark.parametrize("empty", [False, True], ids=["missing", "empty"])
    def test_build_index_without_descriptors_exits_2(self, tmp_path, capsys, empty):
        cfg = make_workspace(tmp_path)
        if empty:
            (tmp_path / "descriptors").mkdir()
        assert run_cli(cfg, "build-index") == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "descriptors") in err and "run encode first" in err
        assert not (tmp_path / "corpus.hmpi").exists()

    @pytest.mark.parametrize("stage", ["build-index", "evaluate"])
    def test_descriptor_of_another_length_exits_2_naming_both_files(self, pipeline, capsys, stage):
        cfg, root = pipeline
        stray = root / "descriptors" / "zz.hmpv"
        save_descriptor(ImageDescriptor("zz", 16, np.array([3]), np.array([1.0])), stray)
        assert run_cli(cfg, stage) == 2
        err = capsys.readouterr().err
        assert f"{stray} has length 16, {root / 'descriptors' / 'g0m0.hmpv'} 32" in err

    def test_zero_length_descriptor_exits_2_naming_the_file(self, tmp_path, capsys):
        # HMPV version 1, id "a" or "b", then length 0 and no entries
        cfg = make_workspace(tmp_path)
        (tmp_path / "descriptors").mkdir()
        for name in "ab":
            header = b"HMPV\x01" + struct.pack("<I", 1) + name.encode()
            (tmp_path / "descriptors" / f"{name}.hmpv").write_bytes(header + struct.pack("<II", 0, 0))
        assert run_cli(cfg, "build-index") == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'descriptors' / 'a.hmpv'}: truncated or corrupt descriptor" in err
        assert "length must be >= 1, got 0" in err
        assert not (tmp_path / "corpus.hmpi").exists()

    @pytest.mark.parametrize("stage", ["build-index", "evaluate"])
    def test_repeated_image_id_exits_2_naming_both_files(self, pipeline, capsys, stage):
        cfg, root = pipeline
        first = root / "descriptors" / "copy.hmpv"
        first.write_bytes((root / "descriptors" / "g0m0.hmpv").read_bytes())
        assert run_cli(cfg, stage) == 2
        err = capsys.readouterr().err
        assert f"{root / 'descriptors' / 'g0m0.hmpv'} repeats image id 'g0m0' of {first}" in err

    def test_query_before_index_fails_fast(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        run_cli(cfg, "train-dict")
        assert run_cli(cfg, "query", str(tmp_path / "images" / "g0m0.pgm")) == 2
        assert "build-index" in capsys.readouterr().err

    def test_index_claiming_a_huge_dimension_exits_2(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        assert run_cli(cfg, "train-dict") == 0
        # 43 bytes: dimension 2^32 - 1, id "a" with one posting at 2^32 - 2
        (tmp_path / "corpus.hmpi").write_bytes(index_bytes(2**32 - 1, ["a"], {2**32 - 2: [(0, 1.0)]}))
        assert run_cli(cfg, "query", str(tmp_path / "images" / "g0m0.pgm")) == 2
        err = capsys.readouterr().err
        assert "does not match index dimension 4294967295" in err and "Traceback" not in err

    @pytest.mark.parametrize("stage", ["evaluate", "query"])
    def test_index_file_of_version_1_exits_2_naming_it(self, pipeline, capsys, stage):
        cfg, root = pipeline
        # the version 1 layout: one (dimension, length, entries) block a row
        body = struct.pack("<3I4s3IIdB", 32, 1, 4, b"g0m0", 1, 5, 1, 0, 1.0, 0)
        (root / "corpus.hmpi").write_bytes(b"HMPI\x01" + body)
        capsys.readouterr()
        args = [str(root / "images" / "g0m0.pgm")] if stage == "query" else []
        assert run_cli(cfg, stage, *args) == 2
        err = capsys.readouterr().err
        assert f"{root / 'corpus.hmpi'}: unsupported index file version 1" in err and "Traceback" not in err

    def test_ground_truth_query_id_holding_a_comma_exits_2_naming_the_line(self, pipeline, capsys):
        cfg, root = pipeline
        gt = root / "gt.tsv"
        lines = gt.read_text().splitlines()
        gt.write_text("\n".join(lines + ["g0m0,g0m1\tg1m0"]) + "\n")
        capsys.readouterr()
        assert run_cli(cfg, "evaluate") == 2
        err = capsys.readouterr().err
        assert f"{gt}:{len(lines) + 1}: id 'g0m0,g0m1' holds a comma" in err and "Traceback" not in err

    def test_query_without_a_descriptor_exits_2_listing_the_ids(self, pipeline, capsys):
        cfg, root = pipeline
        for name in ("g3m1", "g0m0"):
            (root / "descriptors" / f"{name}.hmpv").unlink()
        capsys.readouterr()
        assert run_cli(cfg, "evaluate") == 2
        err = capsys.readouterr().err
        assert "error: no descriptor for 2 query id(s): g0m0, g3m1" in err and "Traceback" not in err

    def test_query_ranks_itself_first_without_exclusion(self, pipeline, capsys):
        cfg, root = pipeline
        capsys.readouterr()
        code = run_cli(
            cfg, "query", str(root / "images" / "g1m0.pgm"), "--top-k", "3", "--no-self-exclude"
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rank, image_id, score = lines[0].split("\t")
        assert rank == "1"
        assert image_id == "g1m0"
        assert float(score) == pytest.approx(1.0, abs=1e-9)

    def test_top_k_beyond_corpus_returns_all_candidates(self, pipeline, capsys):
        cfg, root = pipeline
        capsys.readouterr()
        assert run_cli(cfg, "query", str(root / "images" / "g0m0.pgm"), "--top-k", "999") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert 1 <= len(lines) <= 10

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_top_k_below_one_exits_2_before_any_codebook(self, tmp_path, capsys, top_k):
        cfg = make_workspace(tmp_path)
        assert run_cli(cfg, "query", str(tmp_path / "images" / "g0m0.pgm"), "--top-k", top_k) == 2
        assert f"--top-k must be >= 1, got {top_k}" in capsys.readouterr().err

    def test_undecodable_query_exits_nonzero(self, pipeline, tmp_path, capsys):
        cfg, root = pipeline
        bad = tmp_path / "broken.pgm"
        bad.write_bytes(b"P5\nnot a header")
        assert run_cli(cfg, "query", str(bad)) == 2
        assert "broken.pgm" in capsys.readouterr().err


class TestEvaluate:
    def test_identical_group_members_give_perfect_map(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        run_cli(cfg, "train-dict")
        run_cli(cfg, "encode")
        run_cli(cfg, "build-index")
        capsys.readouterr()
        assert run_cli(cfg, "evaluate") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1] == "mAP 1.000000"
        report = (tmp_path / "corpus.hmpi.report.txt").read_text().splitlines()
        assert report[-1] == "mAP 1.000000"
        # one line per query plus fingerprint header and summary
        assert len(report) == 10 + 2

    def test_manifest_and_ground_truth_saved_with_a_byte_order_mark(self, tmp_path, capsys):
        # the mAP and report of test_identical_group_members_give_perfect_map
        cfg = make_workspace(tmp_path)
        for name in ("manifest.tsv", "gt.tsv"):
            path = tmp_path / name
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        for stage in ("train-dict", "encode", "build-index", "evaluate"):
            assert run_cli(cfg, stage) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "mAP 1.000000"
        assert (tmp_path / "descriptors" / "g0m0.hmpv").exists()
        report = (tmp_path / "corpus.hmpi.report.txt").read_text().splitlines()
        assert [line.split("\t")[0] for line in report[1:3]] == ["g0m0", "g0m1"]

    def test_full_pipeline_deterministic_across_directories(self, tmp_path, capsys):
        reports = []
        for sub in ("one", "two"):
            root = tmp_path / sub
            root.mkdir()
            cfg = make_workspace(root)
            run_cli(cfg, "train-dict")
            run_cli(cfg, "encode")
            run_cli(cfg, "build-index")
            run_cli(cfg, "evaluate")
            lines = (root / "corpus.hmpi.report.txt").read_text().splitlines()
            # timing column varies run to run; compare ids, APs, and the mean
            reports.append([line.split("\t")[:2] for line in lines[1:]])
        assert reports[0] == reports[1]

    def test_codebooks_and_descriptors_do_not_depend_on_blas_threads(self, tmp_path):
        cfg = make_workspace(tmp_path, groups=3, members=1, side=36, arch=ARCH_TWO_LAYER)
        code = """
import hashlib, pathlib, sys
from hmpsearch.cli import main
cfg = pathlib.Path(sys.argv[1])
assert main(["--config", str(cfg), "train-dict"]) == 0
assert main(["--config", str(cfg), "encode"]) == 0
written = [*cfg.parent.glob("dicts/*.hmpd"), *cfg.parent.glob("descriptors/*.hmpv")]
for path in sorted(written):
    print(path.name, hashlib.sha256(path.read_bytes()).hexdigest())
"""
        outputs = outputs_under_blas_threads(code, str(cfg))
        assert "layer2.hmpd" in outputs[0] and "g2m0.hmpv" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_empty_ground_truth_exits_with_message(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        run_cli(cfg, "train-dict")
        run_cli(cfg, "encode")
        run_cli(cfg, "build-index")
        (tmp_path / "gt.tsv").write_text("\n")
        capsys.readouterr()
        assert run_cli(cfg, "evaluate") == 2
        assert "ground truth" in capsys.readouterr().err

    def test_evaluate_needs_ground_truth_and_an_index(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        set_run_key(cfg, "ground_truth", "")
        assert run_cli(cfg, "evaluate") == 2
        assert "[run] ground_truth is required for evaluate" in capsys.readouterr().err
        set_run_key(cfg, "ground_truth", "gt.tsv")
        assert run_cli(cfg, "evaluate") == 2
        err = capsys.readouterr().err
        assert f"index {tmp_path / 'corpus.hmpi'} not found" in err and "build-index" in err

    def test_unreadable_architecture_still_gives_a_report(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        for stage in ("train-dict", "encode", "build-index"):
            assert run_cli(cfg, stage) == 0
        (tmp_path / "arch.cfg").unlink()
        capsys.readouterr()
        assert run_cli(cfg, "evaluate") == 0
        assert capsys.readouterr().out.strip() == "mAP 1.000000"
        assert len(report_fingerprint(tmp_path)) == 16

    @pytest.mark.parametrize("change", ["idf", "codebook", "codebook-missing", "resize"])
    def test_fingerprint_follows_what_was_evaluated(self, tmp_path, capsys, change):
        cfg = make_workspace(tmp_path)
        for stage in ("train-dict", "encode", "build-index", "evaluate"):
            assert run_cli(cfg, stage) == 0
        before = report_fingerprint(tmp_path)
        assert run_cli(cfg, "evaluate") == 0
        assert report_fingerprint(tmp_path) == before
        codebook = tmp_path / "dicts" / "layer1.hmpd"
        if change == "idf":
            assert run_cli(cfg, "build-index", "--idf") == 0
        elif change == "codebook":
            swapped = random_dictionary(np.random.default_rng(5), 25, 16)
            save_dictionary(swapped, codebook)
        elif change == "codebook-missing":
            codebook.unlink()
        else:
            set_run_key(cfg, "resize_max_side", "64")
        assert run_cli(cfg, "evaluate") == 0
        assert report_fingerprint(tmp_path) != before


class TestOutputPaths:
    """Each stage makes the directory of every file it writes; an output
    that cannot be written stops the stage at that write with exit 2
    naming the path."""

    def test_dictionary_dir_naming_a_file_exits_2(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        set_run_key(cfg, "dictionary_dir", "manifest.tsv")
        assert run_cli(cfg, "train-dict") == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "manifest.tsv") in err and "Traceback" not in err

    def test_index_path_naming_a_directory_exits_2(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        assert run_cli(cfg, "train-dict") == 0
        assert run_cli(cfg, "encode") == 0
        (tmp_path / "taken").mkdir()
        set_run_key(cfg, "index_path", "taken")
        assert run_cli(cfg, "build-index") == 2
        assert str(tmp_path / "taken") in capsys.readouterr().err

    def test_descriptor_dir_naming_a_file_stops_after_one_image(self, tmp_path, capsys, monkeypatch):
        cfg = make_workspace(tmp_path)
        assert run_cli(cfg, "train-dict") == 0
        set_run_key(cfg, "descriptor_dir", "manifest.tsv")
        calls = []
        encode_image = cli.encode_image
        monkeypatch.setattr(
            cli, "encode_image", lambda *args: calls.append(args) or encode_image(*args)
        )
        assert run_cli(cfg, "encode") == 2
        assert str(tmp_path / "manifest.tsv") in capsys.readouterr().err
        assert len(calls) == 1

    def test_missing_report_directory_is_made(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        set_run_key(cfg, "report", "reports/run1/report.txt")
        for stage in ("train-dict", "encode", "build-index", "evaluate"):
            assert run_cli(cfg, stage) == 0
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        report = (tmp_path / "reports" / "run1" / "report.txt").read_text().splitlines()
        assert printed.startswith("mAP ") and report[-1] == printed


@pytest.mark.parametrize("name", ["basic_format", "warnnig"])
def test_log_setting_that_names_no_level_falls_back_to_warning(tmp_path, capsys, monkeypatch, name):
    # logging.BASIC_FORMAT is a string: handed to basicConfig as a level it raised
    monkeypatch.setenv("HMPSEARCH_LOG", name)
    monkeypatch.setattr(logging.root, "handlers", [])  # so basicConfig applies the level
    monkeypatch.setattr(logging.root, "level", logging.root.level)
    assert main(["--config", str(tmp_path / "absent.cfg"), "train-dict"]) == 2
    assert logging.root.level == logging.WARNING
    assert "absent.cfg" in capsys.readouterr().err
