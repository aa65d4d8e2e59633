"""Layered encoder tests: pooling rules, geometry, and the length law."""

import logging
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from hmpsearch import (
    ArchitectureConfig,
    ConfigError,
    FeatureGrid,
    ImageDescriptor,
    ImageTooSmallError,
    IntensityImage,
    InvalidInputError,
    LayerConfig,
    baseline_architecture,
    encode_image,
    encode_image_bof,
    encode_layer,
    extract_patches,
    l2_normalize,
    load_architecture,
    load_descriptor,
    omp_encode_batch,
    pyramid_pool,
    save_descriptor,
    signed_max_pool,
)
from hmpsearch import encoder
from hmpsearch.encoder import minimum_image_side
from hmpsearch.errors import DecodeError
from conftest import random_dictionary, texture_image
import oracles


def pool_dense(codes, labels, count: int) -> np.ndarray:
    """`signed_max_pool` of dense code rows, through their slots."""
    codes = np.asarray(codes, dtype=float)
    return signed_max_pool(*oracles.slots(codes), np.asarray(labels), count, codes.shape[1])


def pool_one(codes) -> np.ndarray:
    """Pool every row of `codes` into one group."""
    codes = np.asarray(codes, dtype=float)
    return pool_dense(codes, np.zeros(codes.shape[0], dtype=np.int64), 1)[0]


def pyramid_of(grid: FeatureGrid, pyramid, image_id: str = "img"):
    """`pyramid_pool` of a grid whose rows are dense codes, through their slots."""
    codes = grid.vectors
    return pyramid_pool(grid, *oracles.slots(codes), codes.shape[1], pyramid, image_id)


class TestSignedMaxPool:
    def test_single_code(self):
        npt.assert_array_equal(pool_one([[1.0, -2.0]]), [1.0, 0.0, 0.0, 2.0])

    def test_two_codes(self):
        npt.assert_array_equal(pool_one([[1.0, -2.0], [-3.0, 4.0]]), [1.0, 4.0, 3.0, 2.0])

    def test_all_zero_codes(self):
        npt.assert_array_equal(pool_one(np.zeros((2, 3))), np.zeros(6))

    def test_empty_list_pools_to_zero(self):
        npt.assert_array_equal(pool_one(np.zeros((0, 4))), np.zeros(8))
        # groups without codes pool to zero too
        pooled = pool_dense([[1.0, -1.0]], [2], 3)
        npt.assert_array_equal(pooled, [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]])

    def test_mismatched_labels_rejected(self):
        support, coef = oracles.slots(np.ones((2, 3)))
        for labels, count in (([0], 1), ([0, 1, 0], 2), ([0, 2], 2), ([-1, 0], 2)):
            with pytest.raises(InvalidInputError):
                signed_max_pool(support, coef, np.array(labels), count, 3)
        # the atoms and the coefficients of the slots must pair up, and
        # every atom must lie in the codebook: atom 3 of 2 would otherwise
        # pool into the negative half of atom 1
        with pytest.raises(InvalidInputError):
            signed_max_pool(support[:, :2], coef, np.array([0, 0]), 1, 3)
        for atom in (-1, 2, 3):
            with pytest.raises(InvalidInputError, match="atoms must lie in"):
                signed_max_pool(np.array([[atom]]), np.array([[1.0]]), np.array([0]), 1, 2)

    def test_no_negative_zero_in_output(self):
        pooled = pool_one([[0.0, -0.0, 2.0], [-0.0, 0.0, -1.0]])
        assert not np.any(np.signbit(pooled))
        # slots that hold -0.0 or +0.0 pool to nothing
        support = np.array([[0, 1, 2], [2, 0, 1]])
        coef = np.array([[0.0, -0.0, 2.0], [-0.0, 0.0, -1.0]])
        pooled = signed_max_pool(support, coef, np.zeros(2, dtype=np.int64), 1, 3)[0]
        assert pooled.tobytes() == np.array([0.0, 0.0, 2.0, 0.0, 1.0, 0.0]).tobytes()

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            codes = rng.standard_normal((6, 5)) * (rng.uniform(size=(6, 5)) > 0.4)
            labels = rng.integers(0, 3, size=6)
            base = pool_dense(codes, labels, 3)
            perm = rng.permutation(6)
            npt.assert_array_equal(pool_dense(codes[perm], labels[perm], 3), base)

    def test_adding_a_code_never_decreases_coordinates(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            codes = rng.standard_normal((4, 4)) * (rng.uniform(size=(4, 4)) > 0.3)
            extra = rng.standard_normal((1, 4))
            before = pool_one(codes)
            after = pool_one(np.vstack([codes, extra]))
            assert np.all(after >= before - 1e-15)


def feature_grid_from_image(pixels, patch_size=3, stride=1):
    return extract_patches(IntensityImage(pixels), patch_size, stride)


class TestEncodeLayer:
    def test_whole_grid_unit_with_single_cell_collapses(self):
        rng = np.random.default_rng(3)
        d = random_dictionary(rng, 9, 12)
        grid = feature_grid_from_image(rng.uniform(size=(8, 8)))
        layer = LayerConfig(codebook_size=12, sparsity=3, unit_size=8, cell_grid=1)
        out = encode_layer(grid, layer, d)
        assert out.count == 1
        codes = [oracles.omp_one(d, grid.vectors[i], 3) for i in range(grid.count)]
        expected = l2_normalize(oracles.signed_max_pool(codes, 12))
        npt.assert_array_equal(out.vectors[0], expected)
        support, coef = omp_encode_batch(d, grid.vectors.T, 3)
        pooled = signed_max_pool(support, coef, np.zeros(grid.count, dtype=np.int64), 1, 12)[0]
        npt.assert_array_equal(out.vectors[0], l2_normalize(pooled))

    def test_zero_inputs_give_zero_outputs(self):
        rng = np.random.default_rng(4)
        d = random_dictionary(rng, 9, 8)
        grid = feature_grid_from_image(np.full((16, 16), 0.5))
        layer = LayerConfig(codebook_size=8, sparsity=2, unit_size=8, cell_grid=2)
        out = encode_layer(grid, layer, d)
        assert out.count == 4
        npt.assert_array_equal(out.vectors, 0.0)

    def test_output_feature_length_and_unit_norm(self):
        rng = np.random.default_rng(5)
        d = random_dictionary(rng, 9, 10)
        grid = feature_grid_from_image(rng.uniform(size=(16, 16)))
        layer = LayerConfig(codebook_size=10, sparsity=2, unit_size=8, cell_grid=2)
        out = encode_layer(grid, layer, d)
        assert out.vectors.shape == (4, 2 * 10 * 4)
        norms = np.linalg.norm(out.vectors, axis=1)
        npt.assert_allclose(norms, 1.0, atol=1e-9)

    def test_unit_centers_feed_next_layer(self):
        rng = np.random.default_rng(6)
        d = random_dictionary(rng, 9, 8)
        grid = feature_grid_from_image(rng.uniform(size=(16, 16)))
        layer = LayerConfig(codebook_size=8, sparsity=2, unit_size=8, cell_grid=2)
        out = encode_layer(grid, layer, d)
        npt.assert_allclose(out.centers, [[4, 4], [4, 12], [12, 4], [12, 12]])

    def test_permuting_features_within_cell_is_invariant(self):
        rng = np.random.default_rng(7)
        d = random_dictionary(rng, 4, 6)
        # two units of 4x4 pixels side by side, patches of size 2 stride 2:
        # each unit holds a 2x2 block of patch centers, one per cell
        pixels = rng.uniform(size=(4, 8))
        grid = feature_grid_from_image(pixels, patch_size=2, stride=2)
        layer = LayerConfig(codebook_size=6, sparsity=2, unit_size=4, cell_grid=1)
        out = encode_layer(grid, layer, d)
        # permute the two features inside unit 0 (centers in columns < 4)
        members = [i for i in range(grid.count) if grid.centers[i][1] < 4]
        swapped = grid.vectors.copy()
        swapped[[members[0], members[1]]] = swapped[[members[1], members[0]]]
        out2 = encode_layer(FeatureGrid(grid.centers, swapped, grid.extent), layer, d)
        npt.assert_allclose(out2.vectors[0], out.vectors[0], atol=1e-12)

    def test_codes_only_the_features_of_whole_units(self, monkeypatch):
        # a 60 px image has 56 x 56 patch centers; the 46 x 46 of them below
        # 48 px lie in the 2 x 2 whole units of 24 px
        rng = np.random.default_rng(9)
        d = random_dictionary(rng, 25, 8)
        grid = extract_patches(IntensityImage(texture_image(9, side=60)), 5, 1)
        coded = []

        def spy(dictionary, signals, sparsity):
            coded.append(signals.shape[1])
            return omp_encode_batch(dictionary, signals, sparsity)

        monkeypatch.setattr(encoder, "omp_encode_batch", spy)
        layer = LayerConfig(codebook_size=8, sparsity=2, unit_size=24, cell_grid=2)
        out = encode_layer(grid, layer, d)
        assert grid.count == 3136 and out.count == 4
        assert coded == [2116]

    def test_dimension_mismatch_reports_shapes(self):
        rng = np.random.default_rng(8)
        d = random_dictionary(rng, 5, 6)
        grid = feature_grid_from_image(rng.uniform(size=(8, 8)))  # 9-dim patches
        layer = LayerConfig(codebook_size=6, sparsity=2, unit_size=8, cell_grid=2)
        with pytest.raises(InvalidInputError) as err:
            encode_layer(grid, layer, d)
        assert "9" in str(err.value) and "5" in str(err.value)


def code_grid(rng, k, centers, extent, density=0.6):
    codes = rng.standard_normal((len(centers), k)) * (rng.uniform(size=(len(centers), k)) < density)
    return FeatureGrid(np.asarray(centers, dtype=float), codes, extent)


class TestPyramidPool:
    def test_single_grid_length_is_twice_codebook(self):
        rng = np.random.default_rng(9)
        grid = code_grid(rng, 1000, [[4.0, 4.0], [10.0, 3.0]], (16, 16))
        desc = pyramid_of(grid, [1])
        assert desc.length == 2000

    def test_combined_pyramid_length(self):
        rng = np.random.default_rng(10)
        grid = code_grid(rng, 1000, [[4.0, 4.0]], (16, 16))
        desc = pyramid_of(grid, [1, 2, 3])
        assert desc.length == 2 * 1000 * (1 + 4 + 9)

    def test_single_code_single_grid(self):
        rng = np.random.default_rng(11)
        grid = code_grid(rng, 6, [[2.0, 2.0]], (8, 8), density=1.0)
        desc = pyramid_of(grid, [1])
        expected = l2_normalize(pool_one(grid.vectors))
        npt.assert_allclose(oracles.to_dense(desc), expected, atol=1e-12)

    def test_regions_partition_by_center_with_remainder_to_last(self):
        # extent 10 with g=3 gives region edges at 3 and 6; the last region
        # keeps the remainder rows and columns
        rng = np.random.default_rng(12)
        k = 3
        centers = [[0.0, 0.0], [4.0, 1.0], [9.0, 9.0]]
        grid = code_grid(rng, k, centers, (10, 10), density=1.0)
        desc = oracles.to_dense(pyramid_of(grid, [3]))
        blocks = desc.reshape(9, 2 * k)
        raw = [pool_one(c[None, :]) for c in grid.vectors]
        stacked = np.concatenate(
            [
                raw[0],
                np.zeros(2 * k),
                np.zeros(2 * k),
                raw[1],
                np.zeros(2 * k),
                np.zeros(2 * k),
                np.zeros(2 * k),
                np.zeros(2 * k),
                raw[2],
            ]
        )
        npt.assert_allclose(desc, l2_normalize(stacked), atol=1e-12)
        assert np.any(blocks[0] != 0) and np.any(blocks[3] != 0) and np.any(blocks[8] != 0)

    def test_empty_grid_warns_and_zeroes(self, caplog):
        grid = FeatureGrid(np.empty((0, 2)), np.zeros((0, 5)), (8, 8))
        desc = pyramid_of(grid, [1, 2], "blank")
        assert [r.levelno for r in caplog.records if r.name == "hmpsearch"] == [logging.WARNING]
        assert desc.length == 2 * 5 * 5
        assert desc.nnz == 0


def two_layer_architecture(rng, k_final=16, pyramid=(1,)):
    d1 = random_dictionary(rng, 25, 12)
    layer1 = LayerConfig(codebook_size=12, sparsity=3, unit_size=16, cell_grid=4)
    d2 = random_dictionary(rng, 2 * 12 * 16, k_final)
    layer2 = LayerConfig(codebook_size=k_final, sparsity=4)
    return ArchitectureConfig([layer1, layer2], list(pyramid), patch_size=5, stride=1), [d1, d2]


class TestArchitectureConfig:
    def test_pyramid_must_be_distinct_small_grids(self):
        layer = LayerConfig(codebook_size=4, sparsity=1)
        with pytest.raises(InvalidInputError):
            ArchitectureConfig([layer], [])
        with pytest.raises(InvalidInputError):
            ArchitectureConfig([layer], [1, 1])
        with pytest.raises(InvalidInputError):
            ArchitectureConfig([layer], [4])

    def test_at_most_three_layers(self):
        layers = [LayerConfig(codebook_size=4, sparsity=1) for _ in range(4)]
        with pytest.raises(InvalidInputError):
            ArchitectureConfig(layers, [1])

    @pytest.mark.parametrize("geometry", [dict(patch_size=0), dict(stride=0)])
    def test_patch_geometry_must_be_positive(self, geometry):
        with pytest.raises(InvalidInputError, match="patch_size and stride"):
            ArchitectureConfig([LayerConfig(codebook_size=4, sparsity=1)], [1], **geometry)

    def test_unit_size_must_be_positive(self):
        with pytest.raises(InvalidInputError, match="unit_size and cell_grid must be >= 1"):
            LayerConfig(codebook_size=4, sparsity=1, unit_size=0)

    def test_interior_cells_must_divide_unit(self):
        l1 = LayerConfig(codebook_size=4, sparsity=1, unit_size=10, cell_grid=3)
        l2 = LayerConfig(codebook_size=4, sparsity=1)
        with pytest.raises(InvalidInputError):
            ArchitectureConfig([l1, l2], [1])

    def test_dimension_chain_validated(self):
        rng = np.random.default_rng(13)
        arch, (d1, d2) = two_layer_architecture(rng)
        img = IntensityImage(np.full((16, 16), 0.5))
        bad = random_dictionary(rng, 100, 16)
        cases = [
            (encode_image, arch, [d1, d2], 32),
            (encode_image_bof, baseline_architecture(arch), [random_dictionary(rng, 25, 16)], 16),
        ]
        for encode, layers, codebooks, length in cases:
            assert encode(img, layers, codebooks).length == length
            # a wrong dimension in the last codebook, then the last one missing
            with pytest.raises(ConfigError, match=f"layer {len(codebooks)} codebook"):
                encode(img, layers, [*codebooks[:-1], bad])
            with pytest.raises(ConfigError):
                encode(img, layers, codebooks[:-1])

    def test_descriptor_length_formula(self):
        rng = np.random.default_rng(14)
        arch, _ = two_layer_architecture(rng, k_final=7, pyramid=(1, 2))
        assert arch.descriptor_length() == 2 * 7 * 5


class TestEncodeImage:
    def test_blank_image_gives_zero_descriptor(self):
        rng = np.random.default_rng(15)
        arch, codebooks = two_layer_architecture(rng)
        desc = encode_image(IntensityImage(np.full((72, 72), 0.5)), arch, codebooks, "blank")
        assert desc.nnz == 0
        assert desc.length == 32

    def test_two_layer_length_and_unit_norm(self):
        rng = np.random.default_rng(16)
        arch, codebooks = two_layer_architecture(rng, k_final=16, pyramid=(1,))
        img = IntensityImage(texture_image(5, side=72))
        desc = encode_image(img, arch, codebooks, "synthetic")
        assert desc.length == 2 * 16
        npt.assert_allclose(np.linalg.norm(desc.values), 1.0, atol=1e-9)

    def test_deterministic_bit_for_bit(self):
        rng = np.random.default_rng(17)
        arch, codebooks = two_layer_architecture(rng)
        img = IntensityImage(texture_image(6, side=48))
        a = encode_image(img, arch, codebooks, "x")
        b = encode_image(img, arch, codebooks, "x")
        assert a.indices.tolist() == b.indices.tolist()
        assert a.values.tobytes() == b.values.tobytes()

    def test_too_small_image_names_minimum(self):
        rng = np.random.default_rng(18)
        arch, codebooks = two_layer_architecture(rng)
        bof_books = [random_dictionary(rng, 25, 16)]
        cases = [
            (encode_image, arch, codebooks, 12, "16x16"),
            (encode_image_bof, baseline_architecture(arch), bof_books, 4, "5x5"),
        ]
        for encode, layers, books, side, need in cases:
            with pytest.raises(ImageTooSmallError, match=need):
                encode(IntensityImage(np.full((side, side), 0.5)), layers, books, "tiny")

    def test_too_small_for_a_deeper_unit_names_its_minimum(self):
        # 20 px holds one 16 px layer-1 unit but no 36 px layer-2 unit
        rng = np.random.default_rng(24)
        two, codebooks = two_layer_architecture(rng, k_final=4)
        layer1, layer2 = two.layers
        layer2 = replace(layer2, unit_size=36, cell_grid=2)
        codebooks.append(random_dictionary(rng, 2 * 4 * 4, 4))
        layer3 = LayerConfig(codebook_size=4, sparsity=2)
        arch = ArchitectureConfig([layer1, layer2, layer3], [1])
        assert minimum_image_side(arch) == 36
        with pytest.raises(ImageTooSmallError, match="36x36"):
            encode_image(IntensityImage(texture_image(8, side=20)), arch, codebooks, "tiny")
        desc = encode_image(IntensityImage(texture_image(8, side=36)), arch, codebooks, "fits")
        assert desc.nnz > 0

    def test_single_layer_pipeline(self):
        rng = np.random.default_rng(19)
        d = random_dictionary(rng, 25, 10)
        layer = LayerConfig(codebook_size=10, sparsity=3)
        arch = ArchitectureConfig([layer], [1, 2], patch_size=5, stride=2)
        img = IntensityImage(texture_image(7, side=32))
        desc = encode_image(img, arch, [d], "one-layer")
        assert desc.length == 2 * 10 * 5
        npt.assert_allclose(np.linalg.norm(desc.values), 1.0, atol=1e-9)


class TestBofBaseline:
    def test_baseline_architecture_is_one_nearest_atom_layer(self):
        arch, _ = two_layer_architecture(np.random.default_rng(22), k_final=7)
        baseline = baseline_architecture(replace(arch, stride=2))
        [layer] = baseline.layers
        assert (layer.codebook_size, layer.sparsity) == (7, 1)
        assert (baseline.patch_size, baseline.stride) == (5, 2)

    def test_histogram_length_equals_codebook(self):
        rng = np.random.default_rng(20)
        d = random_dictionary(rng, 25, 16)
        img = IntensityImage(texture_image(8, side=24))
        arch = ArchitectureConfig([LayerConfig(codebook_size=16, sparsity=1)], patch_size=5)
        desc = encode_image_bof(img, arch, [d], "bof")
        assert desc.length == 16
        npt.assert_allclose(np.linalg.norm(desc.values), 1.0, atol=1e-9)

    def test_matches_manual_histogram(self):
        rng = np.random.default_rng(21)
        d = random_dictionary(rng, 9, 6)
        img = IntensityImage(texture_image(9, side=8))
        arch = ArchitectureConfig([LayerConfig(codebook_size=6, sparsity=1)], patch_size=3)
        desc = encode_image_bof(img, arch, [d], "bof")
        grid = extract_patches(img, 3, 1)
        hist = np.zeros(6)
        for i in range(grid.count):
            hist[oracles.vq_one(d, grid.vectors[i])] += 1.0
        hist /= grid.count
        npt.assert_allclose(oracles.to_dense(desc), l2_normalize(hist), atol=1e-12)


class TestImageDescriptor:
    def test_two_dimensional_indices_rejected(self):
        with pytest.raises(InvalidInputError, match="1-D and parallel"):
            ImageDescriptor("x", 8, np.array([[1], [2]]), np.array([[0.6], [0.8]]))

    def test_nan_value_rejected(self):
        with pytest.raises(InvalidInputError, match="nonzero and finite"):
            ImageDescriptor("x", 8, np.array([1, 2]), np.array([1.0, np.nan]))


class TestDescriptorFile:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(22)
        values = l2_normalize(rng.standard_normal(5))
        desc = ImageDescriptor("img-7", 40, np.array([1, 8, 12, 30, 39]), values)
        path = tmp_path / "img.hmpv"
        save_descriptor(desc, path)
        loaded = load_descriptor(path)
        assert loaded.image_id == "img-7"
        assert loaded.length == 40
        assert loaded.indices.tolist() == desc.indices.tolist()
        assert loaded.values.tobytes() == desc.values.tobytes()

    def test_header_layout(self, tmp_path):
        desc = ImageDescriptor("ab", 4, np.array([2]), np.array([1.0]))
        path = tmp_path / "d.hmpv"
        save_descriptor(desc, path)
        raw = path.read_bytes()
        assert raw[:4] == b"HMPV"
        assert raw[4] == 1
        assert int.from_bytes(raw[5:9], "little") == 2
        assert raw[9:11] == b"ab"
        assert int.from_bytes(raw[11:15], "little") == 4
        assert int.from_bytes(raw[15:19], "little") == 1

    def test_truncated_rejected(self, tmp_path):
        desc = ImageDescriptor("x", 4, np.array([1]), np.array([1.0]))
        path = tmp_path / "d.hmpv"
        save_descriptor(desc, path)
        path.write_bytes(path.read_bytes()[:-6])
        with pytest.raises(DecodeError):
            load_descriptor(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda raw: raw[:14],
            lambda raw: raw[:9] + b"\xff\xfe" + raw[11:],
            lambda raw: raw + b"\x00",
            lambda raw: raw[:-8] + np.array([2.0]).tobytes(),
            lambda raw: raw[:-12] + (9).to_bytes(4, "little") + raw[-8:],
            lambda raw: raw[:-8] + np.array([1e300]).tobytes(),
            lambda raw: raw[:11] + (0).to_bytes(4, "little") + (0).to_bytes(4, "little"),
        ],
        ids=[
            "header-cut",
            "id-not-utf8",
            "trailing-byte",
            "not-unit-norm",
            "index-out-of-range",
            "norm-overflows",
            "length-0",
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_malformed_file_names_path(self, tmp_path, edit):
        path = tmp_path / "d.hmpv"
        save_descriptor(ImageDescriptor("ab", 4, np.array([2]), np.array([1.0])), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DecodeError, match="d.hmpv"):
            load_descriptor(path)


# every integer key of a [layerN] section
LAYER_INTEGERS = ("codebook_size", "sparsity", "unit_size", "cell_grid", "patch_size", "stride")


class TestArchitectureFile:
    def test_parse_two_layers(self, tmp_path):
        cfg = tmp_path / "arch.cfg"
        cfg.write_text(
            "[layer1]\n"
            "patch_size = 5\n"
            "stride = 2\n"
            "unit_size = 16\n"
            "cell_grid = 4\n"
            "codebook_size = 64\n"
            "sparsity = 3\n"
            "[layer2]\n"
            "codebook_size = 32\n"
            "[pyramid]\n"
            "grids = 1, 2\n"
        )
        arch = load_architecture(cfg)
        assert len(arch.layers) == 2
        assert (arch.patch_size, arch.stride) == (5, 2)
        assert arch.layers[1].codebook_size == 32
        assert arch.layers[1].sparsity == 10  # final-layer default
        assert arch.pyramid == [1, 2]

    @pytest.mark.parametrize(
        "text, warned",
        [
            ("[layer1]\ncodebook_size = 8\nsparsty = 2\n", "[layer1] key 'sparsty'"),
            ("[layer1]\ncodebook_size = 8\n[pyramid]\ngrid = 2\n", "[pyramid] key 'grid'"),
            ("[layer1]\ncodebook_size = 8\n[pyrmid]\ngrids = 2\n", "section [pyrmid]"),
            ("[layer1]\ncodebook_size = 8\n[layers]\ncount = 2\n", "section [layers]"),
            (
                "[DEFAULT]\nsparsity = 10\n[layer1]\ncodebook_size = 8\nsparsty = 2\n[pyramid]\n",
                "[layer1] key 'sparsty'",
            ),
            ("[layer1]\ncodebook_size = 8\ndictionary = my.hmpd\n", "[layer1] key 'dictionary'"),
            ("[DEFAULT]\nsparsty = 2\n[layer1]\ncodebook_size = 8\n", "[DEFAULT] key 'sparsty'"),
            ("[layer1]\ncodebook_size = 8\nunit_size = 8\n", "[layer1] key 'unit_size'"),
            (
                "[layer1]\ncodebook_size = 8\nsparsity = 10\nunit_size = 8\ncell_grid = 2\n"
                "[layer2]\ncodebook_size = 8\ncell_grid = 2\n",
                "[layer2] key 'cell_grid'",
            ),
        ],
        ids=[
            "layer-key",
            "pyramid-key",
            "section",
            "section-named-like-a-layer",
            "default-key-read-by-a-layer",
            "retired-dictionary-key",
            "default-key-no-section-reads",
            "final-layer-unit-size",
            "final-layer-cell-grid",
        ],
    )
    def test_unread_key_or_section_warns(self, tmp_path, caplog, text, warned):
        cfg = tmp_path / "arch.cfg"
        cfg.write_text(text)
        arch = load_architecture(cfg)
        assert arch.layers[0].sparsity == 10 and arch.pyramid == [1]
        [warning] = [r.getMessage() for r in caplog.records if r.name == "hmpsearch"]
        assert str(cfg) in warning and warned in warning

    def test_higher_layer_may_repeat_a_patch_geometry_of_1(self, tmp_path, caplog):
        cfg = tmp_path / "arch.cfg"
        cfg.write_text(
            "[layer1]\ncodebook_size = 8\npatch_size = 3\nstride = 2\nunit_size = 8\n"
            "cell_grid = 2\n[layer2]\ncodebook_size = 8\npatch_size = 1\nstride = 1\n"
        )
        arch = load_architecture(cfg)
        assert (arch.patch_size, arch.stride) == (3, 2)
        assert caplog.records == []

    def test_missing_codebook_size_rejected(self, tmp_path):
        cfg = tmp_path / "arch.cfg"
        cfg.write_text("[layer1]\npatch_size = 5\n")
        with pytest.raises(ConfigError, match="codebook_size") as err:
            load_architecture(cfg)
        assert str(cfg) in str(err.value)

    @pytest.mark.parametrize(
        "text",
        [
            "[layer1]\ncodebook_size = abc\n",
            "[layer1]\ncodebook_size = 8\n[layer2]\ncodebook_size = 8\nstride = 2\n",
            "[layer1]\ncodebook_size = 8\nsparsity = 3%\n",
            "[layer1]\ncodebook_size = 8\n[layer2]\ncodebook_size = 8\n"
            "[layer3]\ncodebook_size = 8\npatch_size = 3\n",
        ],
        ids=["not-a-number", "stride-above-layer-1", "percent", "patch-size-above-layer-1"],
    )
    def test_bad_value_names_path(self, tmp_path, text):
        cfg = tmp_path / "arch.cfg"
        cfg.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_architecture(cfg)
        assert str(cfg) in str(err.value)

    @pytest.mark.parametrize(
        "section, key",
        [(name, key) for name in ("layer1", "layer2") for key in LAYER_INTEGERS] + [("pyramid", "grids")],
    )
    def test_non_integer_names_file_section_and_key(self, tmp_path, section, key):
        sections = {"layer1": {"codebook_size": "8"}, "layer2": {"codebook_size": "8"}, "pyramid": {}}
        sections[section][key] = "1 x3" if key == "grids" else "2.5"
        cfg = tmp_path / "arch.cfg"
        lines = [[f"[{name}]"] + [f"{k} = {v}" for k, v in keys.items()] for name, keys in sections.items()]
        cfg.write_text("\n".join(sum(lines, [])) + "\n")
        with pytest.raises(ConfigError) as err:
            load_architecture(cfg)
        bad = "x3" if key == "grids" else "2.5"
        assert str(err.value) == f"{cfg}: [{section}] {key}: {bad!r} is not an integer"

    def test_layer_beyond_the_last_is_an_error_not_ignored(self, tmp_path, caplog):
        cfg = tmp_path / "arch.cfg"
        cfg.write_text("".join(f"[layer{d}]\ncodebook_size = 8\n" for d in range(1, 5)))
        with pytest.raises(ConfigError, match="expected 1 to 3 layers, got 4") as err:
            load_architecture(cfg)
        assert str(cfg) in str(err.value)
        assert [r.getMessage() for r in caplog.records if "ignoring" in r.getMessage()] == []

    def test_non_consecutive_layers_rejected(self, tmp_path):
        cfg = tmp_path / "arch.cfg"
        cfg.write_text("[layer1]\ncodebook_size = 8\n[layer3]\ncodebook_size = 8\n")
        with pytest.raises(ConfigError):
            load_architecture(cfg)

    def test_no_layers_rejected(self, tmp_path):
        cfg = tmp_path / "arch.cfg"
        cfg.write_text("[pyramid]\ngrids = 1\n")
        with pytest.raises(ConfigError):
            load_architecture(cfg)
