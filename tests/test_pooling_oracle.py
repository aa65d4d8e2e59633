"""Array pooling against the loop implementations in `oracles`, on random grids.

Centers are drawn from a half-pixel lattice so that many fall exactly on
cell, unit and region borders; grids are sparse enough that some units get
no codes, and extents need not be a multiple of the unit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hmpsearch import FeatureGrid, LayerConfig, encode_layer, l2_normalize, pyramid_pool
from hmpsearch.encoder import signed_max_pool
from hmpsearch.images import unit_cells
from conftest import random_dictionary
import oracles

SETTINGS = settings(max_examples=60, deadline=None)


def lattice_points(rng, count, height, width):
    """Points on the half-pixel lattice of [0, height) x [0, width)."""
    rows = rng.integers(0, 2 * height, size=count) / 2.0
    cols = rng.integers(0, 2 * width, size=count) / 2.0
    return np.stack([rows, cols], axis=1)


def sparse_codes(rng, count, k):
    return rng.standard_normal((count, k)) * (rng.uniform(size=(count, k)) < 0.5)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 20),
    k=st.integers(1, 6),
    count=st.integers(1, 5),
)
def test_signed_max_pool_matches_per_group_lists(seed, n, k, count):
    rng = np.random.default_rng(seed)
    codes = sparse_codes(rng, n, k)
    labels = rng.integers(0, count, size=n)
    pooled = signed_max_pool(*oracles.slots(codes), labels, count, k)
    assert pooled.shape == (count, 2 * k)
    for g in range(count):
        members = [codes[i] for i in np.flatnonzero(labels == g)]
        assert pooled[g].tobytes() == oracles.signed_max_pool(members, k).tobytes()


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 30),
    k=st.integers(1, 6),
    count=st.integers(1, 8),
)
def test_signed_max_pool_matches_lists_on_signed_zeros_and_repeated_maxima(seed, n, k, count):
    # codes from a few magnitudes, so that maxima repeat within a group and
    # across signs, with some slots -0.0 or +0.0 between the others, in no
    # atom order; labels skip some groups, which must pool to +0.0 throughout
    rng = np.random.default_rng(seed)
    support = np.argsort(rng.uniform(size=(n, k)), axis=1)[:, : int(rng.integers(1, k + 1))]
    coef = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=support.shape)
    codes = oracles.dense((support, coef), k)
    labels = rng.choice(rng.integers(0, count, size=max(1, count // 2)), size=n)
    pooled = signed_max_pool(support, coef, labels, count, k)
    for g in range(count):
        members = [codes[i] for i in np.flatnonzero(labels == g)]
        assert pooled[g].tobytes() == oracles.signed_max_pool(members, k).tobytes()


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    cell_grid=st.integers(1, 4),
    width=st.integers(1, 6),
    n=st.integers(0, 30),
)
def test_assign_to_cells_matches_index_lists(seed, cell_grid, width, n):
    rng = np.random.default_rng(seed)
    size = cell_grid * width
    points = lattice_points(rng, n, size, size)
    inside, labels = unit_cells(points, (size, size), size, cell_grid)
    cells = oracles.assign_to_cells(points, size, cell_grid)
    assert inside.all()
    assert [np.flatnonzero(labels == c).tolist() for c in range(cell_grid**2)] == cells


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    cell_grid=st.integers(1, 3),
    cell_width=st.integers(1, 4),
    extra=st.tuples(st.integers(0, 7), st.integers(0, 7)),
    units=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    n=st.integers(0, 40),
)
def test_encode_layer_matches_unit_bucket_loops(seed, cell_grid, cell_width, extra, units, n):
    rng = np.random.default_rng(seed)
    unit = cell_grid * cell_width
    extent = (units[0] * unit + extra[0], units[1] * unit + extra[1])
    dim, k = int(rng.integers(2, 7)), int(rng.integers(2, 8))
    vectors = rng.standard_normal((n, dim))
    vectors[rng.uniform(size=n) < 0.2] = 0.0
    features = FeatureGrid(lattice_points(rng, n, *extent), vectors, extent)
    layer = LayerConfig(
        codebook_size=k,
        sparsity=int(rng.integers(1, 4)),
        unit_size=unit,
        cell_grid=cell_grid,
    )
    d = random_dictionary(rng, dim, k)
    got = encode_layer(features, layer, d)
    want = oracles.encode_layer(features, layer, d)
    assert got.centers.tobytes() == want.centers.tobytes()
    assert got.vectors.shape == want.vectors.shape
    assert got.vectors.tobytes() == want.vectors.tobytes()


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    extent=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    pyramid=st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3, unique=True),
    n=st.integers(1, 25),
    k=st.integers(1, 5),
)
def test_pyramid_pool_matches_region_lists(seed, extent, pyramid, n, k):
    rng = np.random.default_rng(seed)
    centers = lattice_points(rng, n, *extent)
    codes = sparse_codes(rng, n, k)
    grid = FeatureGrid(centers, codes, extent)
    desc = pyramid_pool(grid, *oracles.slots(codes), k, pyramid, "img")
    want = l2_normalize(oracles.pyramid_blocks(centers, codes, k, extent, pyramid))
    assert oracles.to_dense(desc).tobytes() == want.tobytes()
