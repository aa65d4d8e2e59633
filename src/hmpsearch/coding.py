"""Sparse encoders over a fixed codebook.

Two coding rules are provided, each as one batch kernel over the columns of
a D x N signal matrix. `omp_encode_batch` is greedy orthogonal matching
pursuit in its Batch-OMP form (Rubinstein, Zibulevsky & Elad, 2008): one
pursuit codes all N signals at once, selecting per signal the atom most
correlated with its residual, taking the correlations from `D^T y` and the
codebook's Gram matrix, and re-solving least squares on the support through
a Cholesky factor grown by one row per step. It stops after `sparsity`
atoms or once the residual is negligible, and returns each code as its
`sparsity` slots of atom and coefficient, not as a row of length K.
`vq_encode_batch` is the bag-of-features rule, hard assignment to the
nearest atom: for unit-norm atoms |a - y|^2 = 1 + |y|^2 - 2 a^T y, so it
returns per signal the index of the largest entry of the same `D^T y`,
ties toward the lowest. Every value that reaches either output is summed
over D in order by `_products`, the one einsum, which on C-ordered inputs
is that ordered sum; OMP, VQ's ties and a dense index's scores rely on
this order, which numpy does not document (numpy 2.4.6 was checked, and
`test_einsum_products_are_the_ordered_sums` fails on a numpy that sums in
another order). It pads a K = 1 codebook with a zero column, as einsum
sums an output of one element in another order. OMP reads `D^T y` and the
Gram matrix from it. VQ screens with one BLAS product, whose rows may
depend on the batch, under a rounding-error bound, and reads from
`_products` the rows left with more than one candidate. So for both, row
i of a batch is bitwise the batch of one of column i: one signal `y` is
coded as row 0 of `omp_encode_batch(d, y[:, None], s)`, and OMP codes each
distinct signal of a batch once, matched by its bytes, and copies its code
to every column that repeats it. Both are pure functions. A `Dictionary`
has immutable atoms and is thread-safe; it computes its Gram matrix on
first OMP use. A codebook file is an `HMPD` container of `hmpsearch.files`.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .files import read_container, write_container

UNIT_NORM_TOL = 1e-9
# ell2 norm below which the residual counts as fully explained and coding
# stops early, producing fewer nonzeros than the sparsity budget.
RESIDUAL_STOP = 1e-10
# Cholesky pivot at or below which the next atom counts as dependent on the
# support and coding stops: the pivot is the atom's squared distance to the
# span of the support, and 1e-12 sits far above its ~1e-15 rounding.
PIVOT_STOP = 1e-12

_DICT_MAGIC = b"HMPD"
_DICT_VERSION = 1


@dataclass(frozen=True)
class Dictionary:
    """Codebook of unit-norm atoms, one per column of `atoms` (D x K). The
    Gram matrix that OMP reads is computed on first OMP use, by the
    `_products` that OMP's alpha and VQ's ties read, and cached."""

    atoms: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=np.float64)
        if atoms.ndim != 2 or atoms.shape[0] < 1 or atoms.shape[1] < 1:
            raise InvalidInputError(
                f"atoms must be a 2-D matrix with at least one row and column, got shape {atoms.shape}"
            )
        if not np.all(np.isfinite(atoms)):
            raise InvalidInputError("atoms contain non-finite values")
        with np.errstate(over="ignore"):  # an infinite norm fails the unit check
            norms = np.linalg.norm(atoms, axis=0)
        bad = np.nonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)[0]
        if bad.size:
            raise InvalidInputError(
                f"atom column(s) {bad.tolist()} are not unit norm (norms {norms[bad].tolist()})"
            )
        atoms = atoms.copy()
        atoms.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)

    @functools.cached_property
    def _screen(self) -> tuple[np.ndarray, np.ndarray]:
        """The atoms' Gram matrix, by `_products`, and their ell1 norms."""
        return _products(self.atoms.T, self.atoms), np.sum(np.abs(self.atoms), axis=0)

    @property
    def signal_dim(self) -> int:
        return self.atoms.shape[0]

    @property
    def size(self) -> int:
        return self.atoms.shape[1]


def _check_signals(dictionary: Dictionary, signals: np.ndarray) -> np.ndarray:
    """The D x N `signals`, validated, as one N x D C-ordered copy."""
    mat = np.asarray(signals, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != dictionary.signal_dim:
        raise InvalidInputError(
            f"signals of shape {mat.shape} do not match dictionary dimension"
            f" {dictionary.signal_dim}; expected {dictionary.signal_dim} x N"
        )
    if not np.all(np.isfinite(mat)):
        raise InvalidInputError("signals contain non-finite values")
    return np.ascontiguousarray(mat.T)


def _products(y: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """N x K inner products of the rows of `y` (N x D) with the columns of
    `atoms` (D x K), each summed from zero over D in order, so that an entry
    never depends on what else is computed with it. A K = 1 codebook takes
    a zero column, sliced off again. Not BLAS, whose sums depend on the
    batch and whose threads stall on a busy host."""
    size = atoms.shape[1]
    atoms = np.pad(atoms, ((0, 0), (0, 1))) if size == 1 else atoms
    return np.einsum("dn,dk->nk", np.ascontiguousarray(y.T), atoms)[:, :size]


def _residual(y, atoms, support, coef) -> np.ndarray:
    """y - sum_j coef[:, j] * atoms[:, support[:, j]] for the D x n signals
    `y` and their n x s codes, subtracted slot by slot, elementwise, into a
    C-ordered array, whose norms add.reduce sums row by row; `y` itself
    when s = 0."""
    if support.shape[1] == 0:
        return y
    res = y - np.take(atoms, support[:, 0], axis=1) * coef[:, 0]
    for j in range(1, support.shape[1]):
        res -= np.take(atoms, support[:, j], axis=1) * coef[:, j]
    return res


def _solve_upper(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L^T x = rhs per row for lower-triangular L (N x t x t)."""
    x = np.empty_like(rhs)
    for i in reversed(range(rhs.shape[1])):
        x[:, i] = (rhs[:, i] - np.sum(chol[:, i + 1 :, i] * x[:, i + 1 :], axis=1)) / chol[:, i, i]
    return x


def omp_encode_batch(dictionary: Dictionary, signals: np.ndarray, sparsity: int) -> tuple:
    """Greedy sparse approximation of each column of `signals` (D x N).

    Returns N x `sparsity` arrays `(support, coef)`: row i holds its nonzero
    coefficients by ascending atom, then slots (0, +0.0). A row depends only
    on its own signal, not on the batch, its memory layout or the BLAS
    thread count. alpha and the support's Gram entries are read from the
    products `D^T y` and `D^T D` of `_products`, each summed over D in
    order. Selection ties break toward the lowest index. Coding stops early
    once the residual norm falls under RESIDUAL_STOP, once the residual is
    orthogonal to every remaining atom, or once the next atom's Cholesky
    pivot is at most PIVOT_STOP. A column whose squared norm overflows
    raises InvalidInputError. Columns equal byte for byte are coded once.
    """
    y = _check_signals(dictionary, signals)
    n, dim = y.shape
    if not 1 <= sparsity <= min(dim, dictionary.size):
        raise InvalidInputError(
            f"sparsity must be in [1, min(D, K)] = [1, {min(dim, dictionary.size)}], got {sparsity}"
        )
    y_l1 = np.sum(np.abs(y), axis=1)
    with np.errstate(over="ignore"):  # |y|^2 <= |y|_1^2 overflows only where |y|_1 is huge
        overflow = [int(i) for i in np.flatnonzero(y_l1 >= 1e154) if np.isinf(np.sum(y[i] * y[i]))]
    if overflow:
        raise InvalidInputError(f"squared norm of signal column(s) {overflow} overflows")
    # each distinct row is coded once; matching bytes keeps -0.0 apart from 0.0
    _, first, inverse = np.unique(
        y.view(np.dtype((np.void, 8 * dim))).ravel(), return_index=True, return_inverse=True
    )
    y, y_l1, n = y[first], y_l1[first], first.size
    screen, l1 = dictionary._screen
    support, coef = np.zeros((n, sparsity), dtype=np.intp), np.zeros((n, sparsity))
    # per row still coding: alpha, |y|_1, atoms in pick order and their
    # coefficients, the Cholesky factor L of the support's Gram matrix and
    # L^-1 alpha_S; a row that stops leaves its atoms and coefficients
    approx = _products(y, dictionary.atoms)
    rows, sup, c = np.arange(n), support.copy(), coef.copy()
    chol, fwd = np.zeros((n, sparsity, sparsity)), np.zeros((n, sparsity))
    for t in range(sparsity):
        at = np.arange(rows.size)
        mag, share = approx.copy(), np.empty_like(approx)
        for j in range(t):
            np.take(screen, sup[:, j], axis=0, out=share)
            share *= c[:, j : j + 1]
            mag -= share
        np.abs(mag, out=mag)
        mag[at[:, None], sup[:, :t]] = -np.inf
        best = np.argmax(mag, axis=1)
        top = mag[at, best]
        # The corrected correlations and the residual norm lie within tol of
        # their exact values: alpha and G within D eps/2 of sum_d |y_d a_dk|
        # and |c_j| sum_d |a_dj a_dk| (Higham 3.1; |a_dk| <= 1 + 1e-9), 2t
        # updates within eps/2 of bound. By max|corr_k| <= |r| <= bound both
        # stop tests pass; other rows take |r|.
        bound = y_l1 + np.sum(np.abs(c[:, :t]) * l1[sup[:, :t]], axis=1)
        tol = 4 * (dim + t + 2) * np.finfo(np.float64).eps * bound + 1e-300
        lo, hi = top - tol, bound * (1 + 1e-8) + tol
        go = (lo * (1 - 1e-8) - tol >= RESIDUAL_STOP) & (lo > 1e-12 * hi) & (hi < 1e154)
        unsure = np.flatnonzero(~go)
        if unsure.size:
            residual = _residual(y[rows[unsure]].T, dictionary.atoms, sup[unsure, :t], c[unsure, :t])
            residual = np.ascontiguousarray(residual.T)  # np.sum's order follows the layout
            with np.errstate(over="ignore"):
                res_norm = np.sqrt(np.sum(residual * residual, axis=1))
            go[unsure] = (res_norm >= RESIDUAL_STOP) & (top[unsure] > 1e-12 * res_norm)
        sup[:, t] = best  # slot t takes a coefficient only if the row goes on
        alpha = approx[at, best]
        g = screen[sup[:, : t + 1], best[:, None]]  # G[S, best], G[best, best]
        w = np.empty((rows.size, t))  # the new row of L: L w = G[S, best]
        for i in range(t):
            w[:, i] = (g[:, i] - np.sum(chol[:, i, :i] * w[:, :i], axis=1)) / chol[:, i, i]
        pivot = g[:, t] - np.sum(w * w, axis=1)
        go &= pivot > PIVOT_STOP
        if not go.all():
            support[rows[~go]], coef[rows[~go]] = sup[~go], c[~go]
            rows, approx, y_l1, sup, c, chol, fwd, w, pivot, alpha = (
                x[go] for x in (rows, approx, y_l1, sup, c, chol, fwd, w, pivot, alpha)
            )
        chol[:, t, :t], chol[:, t, t] = w, np.sqrt(pivot)
        fwd[:, t] = (alpha - np.sum(w * fwd[:, :t], axis=1)) / chol[:, t, t]
        c[:, : t + 1] = _solve_upper(chol[:, : t + 1, : t + 1], fwd[:, : t + 1])
    support[rows], coef[rows] = sup, c
    # canonical slots: the nonzero coefficients by ascending atom, then (0, 0.0)
    nz = coef != 0.0
    order = np.argsort(np.where(nz, support, dictionary.size), axis=1)
    support, coef = (np.take_along_axis(np.where(nz, x, 0), order, axis=1) for x in (support, coef))
    return support[inverse], coef[inverse]


def vq_encode_batch(dictionary: Dictionary, signals: np.ndarray) -> np.ndarray:
    """Index of the nearest atom to each column of `signals` (D x N).

    The nearest unit-norm atom is the one of largest correlation with the
    signal, as `_products`, the ordered sum OMP reads, computes it; ties
    break toward the lowest atom index, so a zero signal takes atom 0. One
    BLAS product screens the atoms by two argmax passes, and only rows whose
    runner-up is within rounding of the maximum are read from `_products`,
    so the result is its argmax bit for bit, whatever the batch or threads.
    """
    y = _check_signals(dictionary, signals)
    # The BLAS and ordered products both lie within D eps/2 sum_d |y_d a_dk|
    # of the exact sum, in any order of summation, with or without FMA
    # (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), and
    # unit atoms have |a_dk| <= 1 + 1e-9, so the ordered winner scores
    # within tol of the product's row maximum. 1e-300 covers underflow; the
    # ell1 norm does not underflow where the squared ell2 norm would. A row
    # that could overflow gets a NaN threshold; any other has one candidate,
    # its first maximum, unless its runner-up (-inf for K = 1) is within tol.
    with np.errstate(over="ignore", invalid="ignore"):
        approx = y @ dictionary.atoms
        l1 = np.sum(np.abs(y), axis=1)
        tol = 4 * y.shape[1] * np.finfo(np.float64).eps * l1 + 1e-300
        rows = np.arange(y.shape[0])
        nearest = np.argmax(approx, axis=1)
        threshold = np.where(l1 < 1e307, approx[rows, nearest] - tol, np.nan)
        approx[rows, nearest] = -np.inf
        ties = np.flatnonzero(~(approx[rows, np.argmax(approx, axis=1)] < threshold))
        if ties.size:  # the exact maximum and every atom tied with it are candidates
            nearest[ties] = np.argmax(_products(y[ties], dictionary.atoms), axis=1)
    return nearest


def l2_normalize(vector: np.ndarray) -> np.ndarray:
    """Scale to unit ell2 norm; the zero vector is returned unchanged."""
    v = np.asarray(vector, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("vector contains non-finite values")
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return v.copy()
    return v / norm


def save_dictionary(dictionary: Dictionary, path) -> None:
    """Write a codebook file: magic, version, little-endian u32 D and K,
    then D*K float64 values in column-major order."""
    d, k = dictionary.signal_dim, dictionary.size
    atoms = np.ascontiguousarray(dictionary.atoms, dtype="<f8").tobytes(order="F")
    write_container(path, "codebook file", _DICT_MAGIC, _DICT_VERSION, struct.pack("<II", d, k), atoms)


def load_dictionary(path) -> Dictionary:
    with read_container(path, "codebook file", _DICT_MAGIC, _DICT_VERSION) as body:
        d, k = struct.unpack_from("<II", body)
        if len(body) != 8 + 8 * d * k:
            raise InvalidInputError(f"body of {len(body)} bytes, the header declares {8 + 8 * d * k}")
        return Dictionary(np.frombuffer(body, dtype="<f8", offset=8).reshape((d, k), order="F"))
