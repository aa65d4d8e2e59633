"""Raster decoding and patch geometry tests."""

import sys
import types

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmpsearch import (
    DecodeError,
    IntensityImage,
    InvalidInputError,
    extract_patches,
    load_image,
    read_manifest,
    resize_max_side,
)
from hmpsearch.images import unit_cells


def write_p5(path, width, height, samples, maxval=255):
    header = f"P5\n{width} {height}\n{maxval}\n".encode()
    path.write_bytes(header + bytes(samples))


def write_p6(path, width, height, samples, maxval=255):
    header = f"P6\n{width} {height}\n{maxval}\n".encode()
    path.write_bytes(header + bytes(samples))


class StubImage:
    """What a stub Pillow's `Image.open` returns: `samples` in `mode`, shaped
    as (height, width) or (height, width, 3); `convert("RGB")` keeps them."""

    def __init__(self, mode, samples, shape):
        self.mode, self.samples, self.shape = mode, samples, shape

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def convert(self, mode):
        assert mode == "RGB"
        return self

    def __array__(self, dtype=None, copy=None):
        return np.array(self.samples, dtype=dtype).reshape(self.shape)


def stub_pillow(monkeypatch, open_image):
    """Install a stub Pillow whose `Image.open` is `open_image`."""
    pil = types.ModuleType("PIL")
    pil.Image = types.SimpleNamespace(open=open_image)
    monkeypatch.setitem(sys.modules, "PIL", pil)


class TestLoadImage:
    def test_p5_scales_to_unit_range(self, tmp_path):
        path = tmp_path / "gray.pgm"
        write_p5(path, 2, 2, [0, 255, 128, 64])
        img = load_image(path)
        assert (img.height, img.width) == (2, 2)
        npt.assert_allclose(
            img.pixels, [[0.0, 1.0], [128 / 255, 64 / 255]], atol=1e-15
        )

    def test_p6_white_pixel_is_full_luminance(self, tmp_path):
        path = tmp_path / "white.ppm"
        write_p6(path, 1, 1, [255, 255, 255])
        img = load_image(path)
        assert img.pixels[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_p6_luminance_weights(self, tmp_path):
        path = tmp_path / "rgb.ppm"
        write_p6(path, 3, 1, [255, 0, 0, 0, 255, 0, 0, 0, 255])
        img = load_image(path)
        npt.assert_allclose(img.pixels[0], [0.299, 0.587, 0.114], atol=1e-12)

    def test_p5_with_comments_and_sixteen_bit(self, tmp_path):
        path = tmp_path / "wide.pgm"
        header = b"P5\n# a comment\n2 1\n65535\n"
        path.write_bytes(header + (30000).to_bytes(2, "big") + (65535).to_bytes(2, "big"))
        img = load_image(path)
        npt.assert_allclose(img.pixels[0], [30000 / 65535, 1.0], atol=1e-12)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n4 ")
        with pytest.raises(DecodeError) as err:
            load_image(path)
        assert "bad.pgm" in str(err.value)

    def test_truncated_pixels_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        write_p5(path, 4, 4, [7] * 10)
        with pytest.raises(DecodeError):
            load_image(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DecodeError):
            load_image(tmp_path / "absent.pgm")

    def test_garbage_bytes_rejected(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(bytes(range(64)))
        with pytest.raises(DecodeError):
            load_image(path)

    def test_unsupported_without_pillow(self, tmp_path, monkeypatch):
        path = tmp_path / "photo.jpg"
        path.write_bytes(b"\xff\xd8\xff\xe0 not really a jpeg")
        monkeypatch.setitem(sys.modules, "PIL", None)
        monkeypatch.setitem(sys.modules, "PIL.Image", None)
        with pytest.raises(DecodeError, match="photo.jpg: not a P5/P6 netpbm file and Pillow is not installed$"):
            load_image(path)

    @pytest.mark.parametrize(
        "mode, samples, maxval",
        [
            ("I;16", [0, 3, 200, 255, 0, 17], 65535),
            ("I", [0, 3, 200, 255, 0, 17], 65535),
            ("I;16", [0, 40000, 65535, 1, 2, 3], 65535),
            ("L", [0, 3, 200, 255, 0, 17], 255),
        ],
        ids=["dark-16-bit", "dark-32-bit", "bright-16-bit", "8-bit"],
    )
    def test_pillow_gray_scales_by_mode_as_netpbm_by_maxval(
        self, tmp_path, monkeypatch, mode, samples, maxval
    ):
        # a stub Pillow that decodes any file to `samples` in `mode`
        stub_pillow(monkeypatch, lambda path: StubImage(mode, samples, (2, 3)))
        png = tmp_path / "photo.png"
        png.write_bytes(b"\x89PNG not decoded by the stub")
        pgm = tmp_path / "photo.pgm"
        width = 2 if maxval > 255 else 1
        write_p5(pgm, 3, 2, b"".join(v.to_bytes(width, "big") for v in samples), maxval)
        assert load_image(png).pixels.tobytes() == load_image(pgm).pixels.tobytes()

    def test_pillow_rgb_weighs_channels_as_p6(self, tmp_path, monkeypatch):
        samples = [0, 10, 255, 200, 3, 17, 90, 90, 90, 255, 0, 128, 7, 250, 64, 1, 2, 3]
        stub_pillow(monkeypatch, lambda path: StubImage("RGB", samples, (2, 3, 3)))
        png = tmp_path / "photo.png"
        png.write_bytes(b"\x89PNG not decoded by the stub")
        ppm = tmp_path / "photo.ppm"
        write_p6(ppm, 3, 2, samples)
        assert load_image(png).pixels.tobytes() == load_image(ppm).pixels.tobytes()

    def test_pillow_error_names_path(self, tmp_path, monkeypatch):
        def refuse(path):
            raise OSError("cannot identify image file")

        stub_pillow(monkeypatch, refuse)
        png = tmp_path / "photo.png"
        png.write_bytes(b"\x89PNG not decoded by the stub")
        with pytest.raises(DecodeError, match=r"photo\.png: cannot decode image: cannot identify"):
            load_image(png)

    def test_determinism(self, tmp_path):
        path = tmp_path / "img.pgm"
        rng = np.random.default_rng(0)
        write_p5(path, 6, 5, list(rng.integers(0, 256, size=30)))
        a = load_image(path)
        b = load_image(path)
        assert a.pixels.tobytes() == b.pixels.tobytes()


class TestIntensityImage:
    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            IntensityImage(np.array([[0.0, 1.5]]))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            IntensityImage(np.empty((0, 3)))


class TestExtractPatches:
    def test_six_by_six_window_count(self):
        img = IntensityImage(np.linspace(0, 1, 36).reshape(6, 6))
        grid = extract_patches(img, 5, 1)
        assert grid.count == 4
        assert grid.extent == (6, 6)
        # a 2 x 2 grid of windows, row-major
        assert grid.centers.tolist() == [[2.0, 2.0], [2.0, 3.0], [3.0, 2.0], [3.0, 3.0]]

    def test_constant_image_gives_zero_patches(self):
        img = IntensityImage(np.full((8, 8), 0.37))
        grid = extract_patches(img, 5, 1)
        npt.assert_allclose(grid.vectors, 0.0, atol=1e-12)

    def test_strided_count_matches_formula(self):
        rng = np.random.default_rng(1)
        img = IntensityImage(rng.uniform(size=(36, 36)))
        grid = extract_patches(img, 5, 2)
        assert grid.count == 16 * 16

    def test_patch_means_are_zero(self):
        rng = np.random.default_rng(2)
        img = IntensityImage(rng.uniform(size=(12, 10)))
        grid = extract_patches(img, 3, 2)
        npt.assert_allclose(grid.vectors.mean(axis=1), 0.0, atol=1e-9)

    def test_patches_are_window_copies_up_to_mean(self):
        rng = np.random.default_rng(3)
        pixels = rng.uniform(size=(7, 7))
        grid = extract_patches(IntensityImage(pixels), 3, 2)
        window = pixels[2:5, 4:7].ravel()
        # patch at grid row 1, col 2 with stride 2 starts at pixel (2, 4);
        # a row of the grid holds 3 windows
        idx = 1 * 3 + 2
        assert grid.centers[idx].tolist() == [3.0, 5.0]
        npt.assert_allclose(grid.vectors[idx], window - window.mean(), atol=1e-12)

    def test_centers_in_pixel_coordinates(self):
        img = IntensityImage(np.zeros((6, 6)) + 0.5)
        grid = extract_patches(img, 5, 1)
        npt.assert_allclose(grid.centers[0], [2.0, 2.0])
        npt.assert_allclose(grid.centers[-1], [3.0, 3.0])

    @settings(max_examples=100, deadline=None)
    @given(
        height=st.integers(1, 40),
        width=st.integers(1, 40),
        patch=st.integers(1, 40),
        stride=st.integers(1, 9),
    )
    def test_centers_equal_the_meshgrid_formula(self, height, width, patch, stride):
        patch = min(patch, height, width)
        grid = extract_patches(IntensityImage(np.full((height, width), 0.5)), patch, stride)
        rows, cols = (height - patch) // stride + 1, (width - patch) // stride + 1
        half = (patch - 1) / 2.0
        rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        want = np.stack([rr.ravel() * stride + half, cc.ravel() * stride + half], axis=1)
        assert grid.centers.dtype == np.float64 and grid.centers.shape == (rows * cols, 2)
        assert grid.centers.tobytes() == want.astype(np.float64).tobytes()

    def test_patch_size_below_one_rejected(self):
        img = IntensityImage(np.full((4, 4), 0.5))
        with pytest.raises(InvalidInputError, match="patch_size and stride must be >= 1"):
            extract_patches(img, 0)

    def test_oversized_patch_rejected(self):
        img = IntensityImage(np.full((4, 4), 0.5))
        with pytest.raises(InvalidInputError):
            extract_patches(img, 5, 1)


class TestGroupIntoCells:
    """`unit_cells` labels each patch center with its unit and row-major cell."""

    def test_two_by_two_split_of_sixteen(self):
        rng = np.random.default_rng(4)
        img = IntensityImage(rng.uniform(size=(16, 16)))
        grid = extract_patches(img, 1, 1)
        inside, labels = unit_cells(grid.centers, (16, 16), 16, 2)
        assert inside.all()
        assert labels.shape == (grid.count,)
        assert set(labels.tolist()) == {0, 1, 2, 3}
        # the patch centered at (3, 3) is index 3*16+3 and lands in cell 0
        assert labels[3 * 16 + 3] == 0
        for idx in np.flatnonzero(labels == 0):
            assert grid.centers[idx, 0] < 8 and grid.centers[idx, 1] < 8

    def test_single_cell_holds_everything(self):
        rng = np.random.default_rng(5)
        img = IntensityImage(rng.uniform(size=(10, 10)))
        grid = extract_patches(img, 3, 1)
        inside, labels = unit_cells(grid.centers, (10, 10), 10, 1)
        assert inside.all()
        npt.assert_array_equal(labels, np.zeros(grid.count))

    def test_three_by_three_partition_is_complete(self):
        rng = np.random.default_rng(6)
        img = IntensityImage(rng.uniform(size=(36, 36)))
        grid = extract_patches(img, 5, 1)
        inside, labels = unit_cells(grid.centers, (36, 36), 36, 3)
        assert inside.all()
        cells = [np.flatnonzero(labels == c).tolist() for c in range(9)]
        assert all(cells)
        assert sorted(idx for cell in cells for idx in cell) == list(range(grid.count))

    def test_indivisible_geometry_rejected(self):
        rng = np.random.default_rng(7)
        img = IntensityImage(rng.uniform(size=(10, 10)))
        grid = extract_patches(img, 3, 1)
        with pytest.raises(InvalidInputError) as err:
            unit_cells(grid.centers, (10, 10), 10, 3)
        assert "10" in str(err.value) and "3" in str(err.value)

    @pytest.mark.parametrize(
        "unit_size, cell_grid, message",
        [(0, 1, "region size 0 is not divisible"), (4, 0, "cell_grid must be >= 1, got 0")],
    )
    def test_size_or_grid_below_one_rejected(self, unit_size, cell_grid, message):
        with pytest.raises(InvalidInputError, match=message):
            unit_cells(np.zeros((1, 2)), (8, 8), unit_size, cell_grid)

    def test_point_outside_region_is_not_inside(self):
        for point in ([9.0, 1.0], [1.0, 8.0], [-0.5, 1.0], [np.nan, 1.0]):
            inside, labels = unit_cells(np.array([[1.0, 1.0], point]), (8, 8), 8, 2)
            assert inside.tolist() == [True, False]
            assert labels.tolist() == [0]

    def test_labels_name_the_unit_then_the_cell(self):
        # 20 x 30 holds 2 x 3 whole units of 8 px; rows 16-19 and columns
        # 24-29 lie in no whole unit
        centers = np.array([[1.0, 1.0], [5.0, 9.0], [12.0, 20.0], [17.0, 1.0], [1.0, 25.0]])
        inside, labels = unit_cells(centers, (20, 30), 8, 2)
        assert inside.tolist() == [True, True, True, False, False]
        # unit 0 cell 0; unit 1 cell 2; unit 5 cell 3
        assert labels.tolist() == [0, 1 * 4 + 2, 5 * 4 + 3]


class TestManifest:
    def test_parses_and_resolves_paths(self, tmp_path):
        manifest = tmp_path / "data.tsv"
        manifest.write_text("a\timgs/a.pgm\nb\t/abs/b.pgm\n\n")
        records = read_manifest(manifest)
        assert records[0][0] == "a"
        assert records[0][1] == str(tmp_path / "imgs/a.pgm")
        assert records[1][1] == "/abs/b.pgm"

    def test_byte_order_mark_is_not_part_of_the_first_id(self, tmp_path):
        manifest = tmp_path / "data.tsv"
        manifest.write_bytes(b"\xef\xbb\xbfimg1\ta.pgm\nimg2\tb.pgm\n")
        assert [image_id for image_id, _ in read_manifest(manifest)] == ["img1", "img2"]

    def test_rejects_duplicate_ids(self, tmp_path):
        manifest = tmp_path / "data.tsv"
        manifest.write_text("a\tx.pgm\na\ty.pgm\n")
        with pytest.raises(InvalidInputError):
            read_manifest(manifest)

    def test_rejects_missing_tab(self, tmp_path):
        manifest = tmp_path / "data.tsv"
        manifest.write_text("just-one-field\n")
        with pytest.raises(InvalidInputError):
            read_manifest(manifest)

    def test_rejects_blank_field_after_the_tab(self, tmp_path):
        manifest = tmp_path / "data.tsv"
        manifest.write_text("a\t   \n")
        with pytest.raises(InvalidInputError, match="empty id or empty field") as err:
            read_manifest(manifest)
        assert f"{manifest}:1" in str(err.value)


class TestResize:
    def test_no_op_when_small_enough(self):
        img = IntensityImage(np.full((8, 6), 0.25))
        assert resize_max_side(img, 10) is img

    def test_longest_side_capped(self):
        rng = np.random.default_rng(8)
        img = IntensityImage(rng.uniform(size=(40, 20)))
        out = resize_max_side(img, 10)
        assert max(out.height, out.width) == 10
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0

    def test_max_side_below_one_rejected(self):
        with pytest.raises(InvalidInputError, match="max_side must be >= 1, got 0"):
            resize_max_side(IntensityImage(np.full((4, 4), 0.5)), 0)

    def test_constant_image_stays_constant(self):
        img = IntensityImage(np.full((30, 30), 0.6))
        out = resize_max_side(img, 7)
        npt.assert_allclose(out.pixels, 0.6, atol=1e-12)
