"""Sparse encoder tests: greedy pursuit against brute-force oracles.

One signal is coded as a batch of one column (`oracles.omp_one`,
`oracles.vq_one`); the property tests at the end hold every row of a batch
to that batch of one, bitwise, the Batch-OMP kernel to the per-signal
pursuit `oracles.omp_pursuit`, and nearest-atom coding to the unscreened
correlation loop `oracles.vq_exact`.
"""

import ast
import math
import os
import pathlib
import struct
import subprocess
import sys
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hmpsearch
from hmpsearch import (
    Dictionary,
    InvalidInputError,
    extract_patches,
    l2_normalize,
    load_dictionary,
    omp_encode_batch,
    save_dictionary,
    vq_encode_batch,
)
from hmpsearch import coding
from hmpsearch.errors import DecodeError
from conftest import arrangement_corpus, outputs_under_blas_threads, random_dictionary
from oracles import correlations, dense, omp_exact, omp_one, omp_pursuit, slots, vq_exact, vq_one


def best_single_atom(atoms: np.ndarray, y: np.ndarray):
    """Exhaustive scan over one-atom least-squares fits."""
    best_err, best_k, best_coef = np.inf, -1, 0.0
    for k in range(atoms.shape[1]):
        coef = float(atoms[:, k] @ y)
        err = float(np.sum((y - coef * atoms[:, k]) ** 2))
        if err < best_err - 1e-15:
            best_err, best_k, best_coef = err, k, coef
    return best_k, best_coef


def spy_on_products(monkeypatch) -> list:
    """Record (rows, K) for every `coding._products` call."""
    calls, products = [], coding._products

    def spy(y, atoms):
        calls.append((y.shape[0], atoms.shape[1]))
        return products(y, atoms)

    monkeypatch.setattr(coding, "_products", spy)
    return calls


class TestDictionary:
    def test_rejects_non_unit_columns(self):
        atoms = np.eye(3)
        atoms[0, 0] = 2.0
        with pytest.raises(InvalidInputError):
            Dictionary(atoms)

    def test_rejects_non_finite(self):
        atoms = np.eye(3)
        atoms[1, 1] = np.nan
        with pytest.raises(InvalidInputError):
            Dictionary(atoms)

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            Dictionary(np.empty((0, 0)))

    def test_atoms_are_read_only(self):
        d = Dictionary(np.eye(3))
        with pytest.raises(ValueError):
            d.atoms[0, 0] = 5.0

    def test_gram_is_computed_once_on_first_omp_use(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        atoms = random_dictionary(rng, 16, 24).atoms
        save_dictionary(Dictionary(atoms), tmp_path / "d.hmpd")
        calls = spy_on_products(monkeypatch)
        d = Dictionary(atoms)
        load_dictionary(tmp_path / "d.hmpd")
        signals = rng.standard_normal((16, 40))
        vq_encode_batch(d, signals)
        assert calls == [] and "_screen" not in d.__dict__
        first = dense(omp_encode_batch(d, signals, 3), 24)
        screen = d._screen
        # the Gram matrix, then alpha
        assert calls == [(24, 24), (40, 24)]
        second = dense(omp_encode_batch(d, signals, 3), 24)
        assert d._screen is screen
        assert first.tobytes() == second.tobytes() == omp_exact(d, signals, 3).tobytes()
        # OMP reads alpha and its Gram entries from these products: it sums
        # no value a second time
        assert np.count_nonzero(first) == 40 * 3
        assert calls == [(24, 24), (40, 24), (40, 24)]


class TestOmpEncode:
    def test_atom_equals_signal_direction(self):
        d = Dictionary(np.eye(4))
        code = omp_one(d, np.array([0.0, 2.0, 0.0, 0.0]), 1)
        assert np.flatnonzero(code).tolist() == [1]
        npt.assert_allclose(code[1], 2.0)
        # residual is exactly zero
        npt.assert_allclose(code @ d.atoms.T, [0.0, 2.0, 0.0, 0.0])

    def test_zero_signal_early_stops(self):
        rng = np.random.default_rng(0)
        d = random_dictionary(rng, 6, 9)
        code = omp_one(d, np.zeros(6), 3)
        assert np.count_nonzero(code) == 0

    def test_single_atom_matches_exhaustive_scan(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            size = int(rng.integers(2, 9))
            d = random_dictionary(rng, dim, size)
            y = rng.standard_normal(dim)
            code = omp_one(d, y, 1)
            k, coef = best_single_atom(d.atoms, y)
            assert np.flatnonzero(code).tolist() == [k]
            npt.assert_allclose(code[k], coef, atol=1e-9)

    def test_residual_orthogonal_to_support(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            d = random_dictionary(rng, 8, 12)
            y = rng.standard_normal(8)
            code = omp_one(d, y, 4)
            residual = y - d.atoms @ code
            for k in np.flatnonzero(code):
                assert abs(d.atoms[:, k] @ residual) <= 1e-8

    def test_residual_norm_non_increasing_over_budget(self):
        # greedy selection is prefix-consistent, so growing the budget
        # replays the same iterations
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = random_dictionary(rng, 7, 10)
            y = rng.standard_normal(7)
            norms = []
            for budget in range(1, 6):
                code = omp_one(d, y, budget)
                norms.append(np.linalg.norm(y - d.atoms @ code))
            assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = random_dictionary(rng, 6, 10)
            y = rng.standard_normal(6)
            alpha = float(rng.uniform(0.1, 10.0))
            base = omp_one(d, y, 3)
            scaled = omp_one(d, alpha * y, 3)
            assert np.flatnonzero(base).tolist() == np.flatnonzero(scaled).tolist()
            npt.assert_allclose(scaled, alpha * base, atol=1e-8)

    def test_nnz_within_budget(self):
        rng = np.random.default_rng(5)
        d = random_dictionary(rng, 8, 16)
        for budget in (1, 3, 5):
            y = rng.standard_normal(8)
            assert np.count_nonzero(omp_one(d, y, budget)) <= budget

    def test_duplicate_atoms_fall_back_to_least_squares(self):
        # two identical atoms make the support Gram singular once both are
        # forced in; coding must still return a finite code
        atoms = np.stack([np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])], axis=1)
        d = Dictionary(atoms)
        code = omp_one(d, np.array([3.0, 4.0]), 2)
        assert np.all(np.isfinite(code))
        residual = np.array([3.0, 4.0]) - d.atoms @ code
        assert np.linalg.norm(residual) <= 1e-8

    def test_dimension_mismatch_rejected(self):
        d = Dictionary(np.eye(4))
        with pytest.raises(InvalidInputError):
            omp_one(d, np.zeros(3), 1)

    def test_near_duplicate_atoms_never_share_a_support(self):
        # an atom 1e-11 from a copy of another leaves a Cholesky pivot near
        # rounding; taking both copies gives huge opposite coefficients
        rng = np.random.default_rng(0)
        for _ in range(50):
            dim, size = int(rng.integers(2, 13)), int(rng.integers(2, 21))
            atoms = np.array(random_dictionary(rng, dim, size).atoms)
            src, dst = rng.choice(size, 2, replace=False)
            twin = atoms[:, src] + 1e-11 * rng.standard_normal(dim)
            atoms[:, dst] = twin / np.linalg.norm(twin)
            signals = rng.standard_normal((dim, 12))
            codes = dense(omp_encode_batch(Dictionary(atoms), signals, min(dim, size)), size)
            assert not np.any((codes[:, src] != 0) & (codes[:, dst] != 0))

    def test_sparsity_out_of_range_rejected(self):
        d = Dictionary(np.eye(4))
        with pytest.raises(InvalidInputError):
            omp_one(d, np.zeros(4), 0)
        with pytest.raises(InvalidInputError):
            omp_one(d, np.zeros(4), 5)

    def test_batch_matches_per_signal_bitwise(self):
        rng = np.random.default_rng(13)
        d = random_dictionary(rng, 9, 14)
        signals = rng.standard_normal((9, 25))
        support, coef = omp_encode_batch(d, signals, 4)
        assert support.shape == coef.shape == (25, 4)
        for i in range(25):
            # a row depends only on its own signal, never on the batch size
            one_support, one_coef = omp_encode_batch(d, signals[:, i : i + 1], 4)
            assert one_support[0].tobytes() == support[i].tobytes()
            assert one_coef[0].tobytes() == coef[i].tobytes()

    def test_empty_batch_gives_empty_matrix(self):
        d = Dictionary(np.eye(4))
        support, coef = omp_encode_batch(d, np.zeros((4, 0)), 2)
        assert support.shape == coef.shape == (0, 2)
        assert vq_encode_batch(d, np.zeros((4, 0))).shape == (0,)

    def test_batch_rejects_non_finite_signals(self):
        d = Dictionary(np.eye(3))
        signals = np.ones((3, 4))
        signals[1, 2] = np.nan
        with pytest.raises(InvalidInputError):
            omp_encode_batch(d, signals, 1)
        with pytest.raises(InvalidInputError):
            vq_encode_batch(d, signals)


class TestVqEncode:
    def test_signal_equal_to_atom(self):
        rng = np.random.default_rng(2)
        d = random_dictionary(rng, 5, 6)
        assert vq_one(d, d.atoms[:, 3]) == 3

    def test_equidistant_tie_breaks_low_index(self):
        atoms = np.stack(
            [
                np.array([-1.0, 0.0]),
                np.array([0.0, 1.0]),
                np.array([0.0, -1.0]),
                np.array([-1.0, 0.0]),
                np.array([1.0, 0.0]),
            ],
            axis=1,
        )
        d = Dictionary(atoms)
        # the signal sits exactly between atoms 1 and 4; the lower index wins
        assert vq_one(d, np.array([1.0, 1.0]) / np.sqrt(2.0)) == 1
        # a zero signal, such as a mean-subtracted flat patch, is as far from
        # every atom, whatever the last bits of their norms
        d = random_dictionary(np.random.default_rng(0), 8, 16)
        assert vq_one(d, np.zeros(8)) == 0

    def test_matches_exhaustive_nearest_neighbor(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            d = random_dictionary(rng, 8, 16)
            y = rng.standard_normal(8)
            dists = [float(np.sum((y - d.atoms[:, k]) ** 2)) for k in range(16)]
            assert vq_one(d, y) == int(np.argmin(dists))

    def test_constraints_hold_by_construction(self):
        # a code is the indicator of one atom, given as its index in [0, K)
        rng = np.random.default_rng(23)
        d = random_dictionary(rng, 6, 10)
        nearest = vq_encode_batch(d, rng.standard_normal((6, 20)))
        assert nearest.shape == (20,)
        assert np.issubdtype(nearest.dtype, np.integer)
        assert np.all((nearest >= 0) & (nearest < 10))

    def test_dimension_mismatch_rejected(self):
        d = Dictionary(np.eye(4))
        with pytest.raises(InvalidInputError):
            vq_one(d, np.zeros(5))

    def test_batch_matches_per_signal(self):
        rng = np.random.default_rng(29)
        d = random_dictionary(rng, 5, 9)
        signals = rng.standard_normal((5, 12))
        batch = vq_encode_batch(d, signals)
        assert batch.shape == (12,)
        for i, nearest in enumerate(batch):
            assert vq_one(d, signals[:, i]) == nearest

    def test_batch_distances_match_per_signal_einsum(self):
        # on random signals, clear of ties, the batch picks the atom that a
        # per-signal distance reduction finds nearest
        rng = np.random.default_rng(41)
        for _ in range(20):
            d = random_dictionary(rng, 25, 64)
            signals = rng.standard_normal((25, 40))
            expected = []
            for i in range(signals.shape[1]):
                diff = d.atoms - signals[:, i][:, None]
                expected.append(int(np.argmin(np.einsum("dk,dk->k", diff, diff))))
            assert vq_encode_batch(d, signals).tolist() == expected


def laid_out(rng, dim: int, count: int, layout: str) -> np.ndarray:
    """A dim x count signal matrix, some columns zero, in the given memory
    layout: C-ordered, F-ordered, or a strided slice of a larger array."""
    base = rng.standard_normal((dim, 2 * count + 1))
    base[:, rng.uniform(size=2 * count + 1) < 0.15] = 0.0
    if layout == "C":
        return np.ascontiguousarray(base[:, :count])
    if layout == "F":
        return np.asfortranarray(base[:, :count])
    return base[::-1, 1::2]


BATCH_SIZES = pytest.mark.parametrize("count", [0, 1, 23])
LAYOUTS = pytest.mark.parametrize("layout", ["C", "F", "strided"])


@BATCH_SIZES
@LAYOUTS
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_omp_rows_equal_batches_of_one(count, layout, seed):
    rng = np.random.default_rng(seed)
    dim, size = int(rng.integers(1, 13)), int(rng.integers(1, 21))
    d = random_dictionary(rng, dim, size)
    sparsity = int(rng.integers(1, min(dim, size) + 1))
    signals = laid_out(rng, dim, count, layout)
    support, coef = omp_encode_batch(d, signals, sparsity)
    assert support.shape == coef.shape == (count, sparsity)
    for i in range(count):
        one_support, one_coef = omp_encode_batch(d, signals[:, i : i + 1], sparsity)
        assert one_support[0].tobytes() == support[i].tobytes()
        assert one_coef[0].tobytes() == coef[i].tobytes()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_omp_codes_do_not_depend_on_memory_layout(seed):
    rng = np.random.default_rng(seed)
    dim, size, count = int(rng.integers(1, 13)), int(rng.integers(1, 21)), 23
    d = random_dictionary(rng, dim, size)
    sparsity = int(rng.integers(1, min(dim, size) + 1))
    signals = laid_out(rng, dim, count, "C")
    wide = np.zeros((dim, 2 * count))
    wide[:, ::2] = signals
    reversed_rows = np.ascontiguousarray(signals[::-1])[::-1]
    want = [x.tobytes() for x in omp_encode_batch(d, signals, sparsity)]
    for view in (np.asfortranarray(signals), wide[:, ::2], reversed_rows):
        assert [x.tobytes() for x in omp_encode_batch(d, view, sparsity)] == want


def agreement_tolerance(atoms, support, y) -> float:
    """1e-12, scaled by cond(A_S)^2 |y|: both pursuits solve the normal
    equations of the support, whose rounding error grows with the square
    of its condition number."""
    cond = np.linalg.cond(atoms[:, support]) if support else 1.0
    return 1e-12 * max(1.0, cond**2 * float(np.linalg.norm(y)))


def with_duplicates(rng, d: Dictionary) -> Dictionary:
    """`d` with some atoms overwritten by copies of others, some negated."""
    atoms = np.array(d.atoms)
    size = atoms.shape[1]
    for _ in range(int(rng.integers(1, size + 1))):
        src, dst = rng.integers(0, size, 2)
        atoms[:, dst] = rng.choice([-1.0, 1.0]) * atoms[:, src]
    return Dictionary(atoms)


@pytest.mark.parametrize("case", ["random", "duplicates"])
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_omp_matches_per_signal_pursuit(case, seed):
    rng = np.random.default_rng(seed)
    dim, size = int(rng.integers(1, 13)), int(rng.integers(2, 21))
    d = random_dictionary(rng, dim, size)
    signals = laid_out(rng, dim, 12, "C")
    if case == "duplicates":
        d = with_duplicates(rng, d)
        # signals on a duplicated atom make exact selection ties
        picks = rng.integers(0, size, 4)
        signals[:, :4] = d.atoms[:, picks] * rng.standard_normal(4)
    sparsity = int(rng.integers(1, min(dim, size) + 1))
    codes = dense(omp_encode_batch(d, signals, sparsity), size)
    # atoms grouped into classes of |g_ij| > 1 - 1e-9, named by the lowest index
    same = np.abs(d.atoms.T @ d.atoms) > 1.0 - 1e-9
    cls = np.argmax(same, axis=1)
    for y, code in zip(signals.T, codes):
        support, coef = omp_pursuit(d.atoms, y, sparsity)
        want = np.zeros(size)
        want[support] = coef
        tol = agreement_tolerance(d.atoms, support, y)
        got_support = np.flatnonzero(code)
        if case == "random":
            assert got_support.tolist() == sorted(support)
            npt.assert_allclose(code, want, rtol=0, atol=tol)
        else:
            # equal or negated copies tie exactly: the lowest index wins
            assert np.array_equal(cls[got_support], got_support)
            assert sorted(cls[got_support]) == sorted(cls[support])
            got_res = np.linalg.norm(y - d.atoms @ code)
            want_res = np.linalg.norm(y - d.atoms @ want)
            assert abs(got_res - want_res) <= tol


def near_tie_batch(rng, dim: int, size: int, count: int):
    """A codebook with exact, negated and 1e-11-perturbed copies of atoms,
    and signals that are random, atoms, sums of two atoms or zero, each
    scaled by a power of ten from 1e-193 to 1e150."""
    atoms = np.array(with_duplicates(rng, random_dictionary(rng, dim, size)).atoms)
    for dst in rng.integers(0, size, int(rng.integers(0, 3))):
        twin = atoms[:, rng.integers(0, size)] + 1e-11 * rng.standard_normal(dim)
        atoms[:, dst] = twin / np.linalg.norm(twin)
    d = Dictionary(atoms)
    i, j = rng.integers(0, size, (2, count))
    kind = rng.integers(0, 4, count)
    signals = rng.standard_normal((dim, count))
    signals[:, kind == 1] = d.atoms[:, i[kind == 1]]
    signals[:, kind == 2] = (d.atoms[:, i] + d.atoms[:, j])[:, kind == 2]
    signals[:, kind == 3] = 0.0
    return d, signals * 10.0 ** rng.uniform(-193, 150, count)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_omp_equals_exact_kernel_on_near_ties(seed):
    rng = np.random.default_rng(seed)
    dim, size = int(rng.integers(1, 26)), int(rng.integers(2, 41))
    d, signals = near_tie_batch(rng, dim, size, 40)
    for sparsity in range(1, min(dim, size) + 1):
        got = dense(omp_encode_batch(d, signals, sparsity), size)
        assert got.tobytes() == omp_exact(d, signals, sparsity).tobytes()


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 12),
    size=st.integers(1, 20),
    zeros=st.integers(0, 4),
    repeats=st.integers(0, 4),
)
@example(seed=0, dim=5, size=1, zeros=1, repeats=1)
@example(seed=1, dim=12, size=20, zeros=2, repeats=4)
def test_omp_slots_are_canonical(seed, dim, size, zeros, repeats):
    # zero columns stop at once; columns on one atom or the sum of two, and
    # codebooks with equal, negated and near copies of atoms, stop before
    # the budget; repeated columns take the slots of their first copy
    rng = np.random.default_rng(seed)
    d, signals = near_tie_batch(rng, dim, size, 12)
    again = signals[:, rng.integers(0, 12, repeats)]
    signals = np.concatenate([signals, np.zeros((dim, zeros)), again], axis=1)
    sparsity = int(rng.integers(1, min(dim, size) + 1))
    support, coef = omp_encode_batch(d, signals, sparsity)
    assert support.shape == coef.shape == (signals.shape[1], sparsity)
    for atoms, values in zip(support, coef):
        used = np.count_nonzero(values)
        # the nonzero coefficients first, by strictly ascending atom, then
        # exact (0, +0.0) slots
        assert np.all(values[:used] != 0.0) and np.all(np.diff(atoms[:used]) > 0)
        assert not atoms[used:].any() and values[used:].tobytes() == bytes(8 * (sparsity - used))
    want = omp_exact(d, signals, sparsity)
    assert dense((support, coef), size).tobytes() == want.tobytes()
    want_support, want_coef = slots(want, sparsity)
    assert support.tobytes() == want_support.tobytes() and coef.tobytes() == want_coef.tobytes()


def test_omp_codes_each_distinct_signal_once(monkeypatch):
    # 40 columns that hold 9 distinct signals; signal 1 is signal 0 but for
    # a -0.0 entry, so its bytes differ and it is coded on its own
    rng = np.random.default_rng(8)
    d = random_dictionary(rng, 16, 24)
    distinct = rng.standard_normal((16, 9))
    distinct[3, 0] = 0.0
    distinct[:, 1] = distinct[:, 0]
    distinct[3, 1] = -0.0
    signals = distinct[:, rng.permutation(np.arange(40) % 9)]
    want = omp_exact(d, signals, 3)
    rows, solve = [], coding._solve_upper

    def spy(chol, rhs):
        rows.append(rhs.shape[0])
        return solve(chol, rhs)

    monkeypatch.setattr(coding, "_solve_upper", spy)
    codes = dense(omp_encode_batch(d, signals, 3), 24)
    assert codes.tobytes() == want.tobytes()
    assert np.count_nonzero(codes) == 40 * 3
    # the first step solves for one row per distinct signal
    assert rows[0] == 9


def test_omp_codes_repeated_patches_as_the_exact_kernel():
    # block-arrangement images repeat many of their layer-1 patches; one
    # codebook codes every image, as `encode` does
    images, _ = arrangement_corpus(0, side=48, groups=2)
    d = random_dictionary(np.random.default_rng(4), 25, 32)
    for img in images.values():
        patches = extract_patches(img, 5, 1).vectors.T
        assert np.unique(patches, axis=1).shape[1] < patches.shape[1]
        got = dense(omp_encode_batch(d, patches, 4), 32)
        assert got.tobytes() == omp_exact(d, patches, 4).tobytes()


def test_omp_rejects_a_signal_whose_squared_norm_overflows():
    # the squared norm of a 1e160 signal overflows float64; the exact kernel
    # stops such a row at once and codes it as zero
    rng = np.random.default_rng(2)
    d = random_dictionary(rng, 25, 32)
    signals = rng.standard_normal((25, 6))
    huge = signals.copy()
    huge[:, 4] *= 1e160
    with pytest.raises(InvalidInputError, match=r"column\(s\) \[4\]"):
        omp_encode_batch(d, huge, 4)
    large = signals * 1e150
    want = omp_exact(d, large, 4)
    assert np.count_nonzero(want) == 6 * 4
    assert dense(omp_encode_batch(d, large, 4), 32).tobytes() == want.tobytes()


def test_omp_exact_values_are_support_entries_only(monkeypatch):
    # 1000 atoms of dimension 1024, 450 signals, 10 atoms each: every row
    # runs all 10 steps; alpha comes from one `_products` call and the Gram
    # entries of the support from the screen, none summed again
    rng = np.random.default_rng(11)
    d = random_dictionary(rng, 1024, 1000)
    signals = rng.standard_normal((1024, 450))
    d._screen  # the Gram matrix, built before the spy
    calls = spy_on_products(monkeypatch)
    _, coef = omp_encode_batch(d, signals, 10)
    assert np.count_nonzero(coef) == 450 * 10
    assert calls == [(450, 1000)]


def test_omp_single_atom_codebook_equals_exact_kernel():
    # einsum sums a one-element output in another order than over D in
    # turn; the zero column `_products` pads a K = 1 codebook with keeps
    # every product off that shape
    rng = np.random.default_rng(13)
    for _ in range(200):
        d, y = random_dictionary(rng, 5, 1), rng.standard_normal((5, 1))
        assert dense(omp_encode_batch(d, y, 1), 1).tobytes() == omp_exact(d, y, 1).tobytes()


@st.composite
def product_shapes(draw, budget=2 * 10**7):
    """(D, K, N) with D in [1, 4096], K in [2, 1000] and N in [1, 500], at
    most `budget` products D K (K + N) between the two einsums."""
    dim = draw(st.integers(1, 4096))
    size = draw(st.integers(2, max(2, min(1000, math.isqrt(budget // dim)))))
    count = draw(st.integers(1, max(1, min(500, budget // (dim * size) - size))))
    return dim, size, count


@settings(max_examples=25, deadline=None)
@given(shape=product_shapes(), seed=st.integers(0, 2**32 - 1))
@example(shape=(1, 2, 1), seed=0)
@example(shape=(1, 2, 500), seed=1)
@example(shape=(1, 1000, 1), seed=2)
@example(shape=(1, 1000, 500), seed=3)
@example(shape=(4096, 2, 1), seed=4)
@example(shape=(4096, 2, 500), seed=5)
@example(shape=(4096, 1000, 1), seed=6)
@example(shape=(4096, 1000, 500), seed=7)
def test_einsum_products_are_the_ordered_sums(shape, seed):
    # OMP takes alpha and the Gram entries of its support, and VQ its tie
    # rows, from `_products`, so their codes rely on numpy's einsum summing
    # over D in order, as `correlations` does, on C-ordered inputs; numpy
    # does not document it
    dim, size, count = shape
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((dim, size)) * 10.0 ** rng.integers(-3, 4, (dim, 1))
    d = Dictionary(atoms / np.linalg.norm(atoms, axis=0))
    yt = rng.standard_normal((dim, count)) * 10.0 ** rng.integers(-5, 6, (dim, count))
    # the oracle checks the first, the last and six drawn rows of each
    # product, which bounds its loop at the largest shapes
    i = np.unique(np.r_[0, count - 1, rng.integers(0, count, 6)])
    k = np.unique(np.r_[0, size - 1, rng.integers(0, size, 6)])
    want = correlations(np.ascontiguousarray(yt.T[i]), d.atoms)
    assert coding._products(yt.T, d.atoms)[i].tobytes() == want.tobytes()
    gram = d._screen[0]
    assert gram[k].tobytes() == correlations(np.ascontiguousarray(d.atoms.T[k]), d.atoms).tobytes()


@pytest.mark.parametrize("dim, count", [(1, 1), (1, 5), (2, 1), (25, 3000), (300, 7), (5000, 40)])
def test_exact_correlations_equal_the_ordered_loop(dim, count):
    # one row of -0.0, whose sum from zero is +0.0; long batches and
    # dimensions beyond the pin's 4096
    rng = np.random.default_rng(dim * count)
    d = random_dictionary(rng, dim, 9)
    mat = rng.standard_normal((count, dim)) * 10.0 ** rng.integers(-5, 6, (count, dim))
    mat[0] = -0.0
    assert coding._products(mat, d.atoms).tobytes() == correlations(mat, d.atoms).tobytes()


def test_single_atom_products_equal_the_ordered_loop():
    # K = 1, the one-element output `_products` pads away from
    rng = np.random.default_rng(17)
    for _ in range(200):
        d, mat = random_dictionary(rng, 5, 1), rng.standard_normal((1, 5))
        assert coding._products(mat, d.atoms).tobytes() == correlations(mat, d.atoms).tobytes()


def einsum_lines(node: ast.AST) -> set[int]:
    """Lines of the `einsum(...)` and `np.einsum(...)` calls under `node`."""
    return {
        call.lineno
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and (getattr(call.func, "id", None) or getattr(call.func, "attr", None)) == "einsum"
    }


def test_only_products_calls_einsum():
    # the codes rely on the order of one einsum, which the pin above checks
    found = []
    for path in sorted(pathlib.Path(hmpsearch.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = einsum_lines(tree)
        if path.name == "coding.py":
            (products,) = (f for f in tree.body if getattr(f, "name", None) == "_products")
            assert len(einsum_lines(products)) == 1
            lines -= einsum_lines(products)
        found += [f"{path.name}:{line}" for line in sorted(lines)]
    assert not found, f"take ordered products from coding._products, not einsum: {found}"


def test_cli_import_leaves_scipy_out():
    # scipy's import would cost every CLI run a quarter of a second
    code = "import sys, hmpsearch.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hmpsearch.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


@BATCH_SIZES
@LAYOUTS
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_vq_entries_equal_batches_of_one(count, layout, seed):
    rng = np.random.default_rng(seed)
    dim, size = int(rng.integers(1, 13)), int(rng.integers(1, 21))
    d = random_dictionary(rng, dim, size)
    signals = laid_out(rng, dim, count, layout)
    batch = vq_encode_batch(d, signals)
    assert batch.shape == (count,)
    for i in range(count):
        assert vq_encode_batch(d, signals[:, i : i + 1])[0] == batch[i]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_vq_equals_exact_rule_on_near_ties(seed):
    rng = np.random.default_rng(seed)
    dim, size, count = int(rng.integers(1, 26)), int(rng.integers(2, 41)), 40
    atoms = np.array(with_duplicates(rng, random_dictionary(rng, dim, size)).atoms)
    # some copies, and some other atoms, one ulp off in one coordinate
    for k in rng.integers(0, size, int(rng.integers(0, size + 1))):
        r = rng.integers(0, dim)
        atoms[r, k] = np.nextafter(atoms[r, k], rng.choice([-np.inf, np.inf]))
    d = Dictionary(atoms)
    i, j = rng.integers(0, size, (2, count))
    kind = rng.integers(0, 4, count)
    signals = rng.standard_normal((dim, count))
    signals[:, kind == 1] = d.atoms[:, i[kind == 1]]
    # on the bisector of two atoms, often an exact or negated copy pair
    signals[:, kind == 2] = (d.atoms[:, i] + d.atoms[:, j])[:, kind == 2]
    signals[:, kind == 3] = 0.0
    signals *= 10.0 ** rng.uniform(-320, 300, count)
    assert vq_encode_batch(d, signals).tobytes() == vq_exact(d, signals).tobytes()


def test_vq_screen_holds_where_squared_norm_underflows():
    # |y|^2 underflows to zero at this scale: a screen bounded by the ell2
    # norm shrinks to its 1e-300 floor and codes 5 of these 64 bisectors
    # differently from the loop
    rng = np.random.default_rng(0)
    d = random_dictionary(rng, 25, 64)
    i, j = rng.integers(0, 64, (2, 64))
    signals = (d.atoms[:, i] + d.atoms[:, j]) * 1e-193
    assert vq_encode_batch(d, signals).tobytes() == vq_exact(d, signals).tobytes()


def test_vq_screen_sends_only_near_ties_to_the_loop(monkeypatch):
    rng = np.random.default_rng(5)
    d = random_dictionary(rng, 25, 256)
    signals = rng.standard_normal((25, 484))
    # a copy, over another atom, of an atom that no signal is near
    src, dst = np.setdiff1d(np.arange(256), vq_exact(d, signals))[:2]
    atoms = np.array(d.atoms)
    atoms[:, dst] = atoms[:, src]
    copied = Dictionary(atoms)
    rows = []  # per call, the signal rows the exact products read
    products = coding._products

    def spy(y, atoms):
        rows.append(y.copy())
        return products(y, atoms)

    monkeypatch.setattr(coding, "_products", spy)
    vq_encode_batch(d, signals)
    vq_encode_batch(copied, signals)
    assert rows == []
    signals[:, 100] = atoms[:, src]
    assert vq_encode_batch(copied, signals)[100] == src
    assert len(rows) == 1 and rows[0].tobytes() == signals[:, 100].tobytes()
    # a sum |y_d| above 1e307 could overflow a correlation: no screening
    huge = signals[:, :3] * 1e306
    assert vq_encode_batch(d, huge).tobytes() == vq_exact(d, huge).tobytes()
    assert len(rows) == 2 and rows[1].tobytes() == np.ascontiguousarray(huge.T).tobytes()


def test_vq_overflowing_ties_raise_no_warning():
    # finite columns whose correlations overflow: every atom stays a
    # candidate, and the exact products run under the screen's errstate
    atoms = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]]).T
    d = Dictionary(atoms / np.linalg.norm(atoms, axis=0))
    signals = np.full((3, 4), 1.5e308)
    signals[2, 1], signals[:, 2], signals[0, 3] = -1.5e308, -1.5e308, 1e300
    with np.errstate(all="ignore"):
        want = vq_exact(d, signals)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert vq_encode_batch(d, signals).tobytes() == want.tobytes()
        assert vq_encode_batch(d, np.full((3, 1), 1.5e308))[0] == want[0]


def test_vq_does_not_depend_on_blas_threads():
    # every atom has an exact or negated copy, so most rows tie
    code = """
import hashlib
import numpy as np
from hmpsearch import Dictionary, vq_encode_batch
rng = np.random.default_rng(3)
atoms = rng.standard_normal((25, 256))
atoms /= np.linalg.norm(atoms, axis=0)
atoms[:, 1::2] = atoms[:, ::2]
atoms[:, 3::4] *= -1.0
d = Dictionary(atoms)
i, j = rng.integers(0, 256, (2, 3000))
signals = np.concatenate(
    [d.atoms[:, i] + d.atoms[:, j], d.atoms[:, i], rng.standard_normal((25, 3000))], axis=1
)
print(hashlib.sha256(vq_encode_batch(d, signals).tobytes()).hexdigest())
"""
    digests = outputs_under_blas_threads(code)
    assert digests[0] and digests[0] == digests[1]


def test_omp_does_not_depend_on_blas_threads():
    # copies, negated copies and near copies of atoms, sums of two atoms
    # and zeros, at scales from 1e-193 to 1e150: most rows tie somewhere
    code = """
import hashlib
import numpy as np
from hmpsearch import omp_encode_batch
from test_coding import near_tie_batch
rng = np.random.default_rng(5)
d, signals = near_tie_batch(rng, 25, 64, 4000)
support, coef = omp_encode_batch(d, signals, 6)
print(hashlib.sha256(support.tobytes() + coef.tobytes()).hexdigest())
"""
    digests = outputs_under_blas_threads(code)
    assert digests[0] and digests[0] == digests[1]


class TestL2Normalize:
    def test_three_four_five(self):
        npt.assert_allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_zero_vector_unchanged(self):
        npt.assert_array_equal(l2_normalize(np.zeros(3)), np.zeros(3))

    def test_unit_vector_idempotent(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            v = rng.standard_normal(8)
            u = l2_normalize(v)
            npt.assert_allclose(l2_normalize(u), u, atol=1e-12)
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            l2_normalize(np.array([1.0, np.inf]))


class TestDictionaryFile:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(37)
        d = random_dictionary(rng, 7, 11)
        path = tmp_path / "codebook.hmpd"
        save_dictionary(d, path)
        loaded = load_dictionary(path)
        assert loaded.atoms.tobytes() == d.atoms.tobytes()

    def test_layout_is_column_major_little_endian(self, tmp_path):
        d = Dictionary(np.eye(3))
        path = tmp_path / "codebook.hmpd"
        save_dictionary(d, path)
        raw = path.read_bytes()
        assert raw[:4] == b"HMPD"
        assert raw[4] == 1
        assert int.from_bytes(raw[5:9], "little") == 3
        assert int.from_bytes(raw[9:13], "little") == 3
        column_major = np.frombuffer(raw[13:], dtype="<f8").reshape((3, 3), order="F")
        npt.assert_array_equal(column_major, np.eye(3))

    def test_truncated_file_rejected(self, tmp_path):
        d = Dictionary(np.eye(3))
        path = tmp_path / "codebook.hmpd"
        save_dictionary(d, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DecodeError):
            load_dictionary(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "other.bin"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(DecodeError):
            load_dictionary(path)

    @pytest.mark.parametrize(
        "d, k, atoms",
        [
            (0, 3, []),
            (3, 0, []),
            (2, 2, [1.0, 0.0, 0.0, 2.0]),
            (1, 1, [np.nan]),
            (1, 2, [1.0, 1e300]),
        ],
        ids=["no-rows", "no-atoms", "non-unit-atom", "nan-atom", "norm-overflows"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_invalid_codebook_names_path(self, tmp_path, d, k, atoms):
        path = tmp_path / "bad.hmpd"
        header = b"HMPD\x01" + struct.pack("<II", d, k)
        path.write_bytes(header + np.asarray(atoms, dtype="<f8").tobytes())
        with pytest.raises(DecodeError, match="bad.hmpd"):
            load_dictionary(path)
