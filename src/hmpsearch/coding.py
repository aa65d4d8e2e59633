"""Sparse encoders over a fixed codebook.

Two coding rules are provided, each as one batch kernel over the columns of
a D x N signal matrix. `omp_encode_batch` is greedy orthogonal matching
pursuit in its Batch-OMP form (Rubinstein, Zibulevsky & Elad, 2008): one
pursuit codes all N signals at once, selecting per signal the atom most
correlated with its residual, taking the correlations from `D^T y` and the
codebook's Gram matrix, and re-solving least squares on the support through
a Cholesky factor grown by one row per step. It stops after `sparsity`
atoms or once the residual is negligible, and returns an N x K code matrix.
`vq_encode_batch` is the bag-of-features rule, hard assignment to the
nearest atom: for unit-norm atoms |a - y|^2 = 1 + |y|^2 - 2 a^T y, so it
returns per signal the index of the largest entry of the same `D^T y`,
ties toward the lowest. Both screen with fast products (BLAS for VQ, einsum
for OMP), whose rows may depend on the batch, under a rounding-error bound,
and take each value that reaches their output from `_dots`, which sums
over D in order: VQ a row's correlations where more than one atom is left,
OMP alpha and the Gram entries on the support, and a row's candidates where
more than one is left. So for both, row i of a batch is bitwise the batch
of one of column i: one signal `y` is coded as
`omp_encode_batch(d, y[:, None], s)[0]`, and OMP codes each distinct
signal of a batch once, matched by its bytes, and copies its code to every
column that repeats it. Both are pure functions. A `Dictionary` has
immutable atoms and is thread-safe; it computes its screening Gram matrix
on first OMP use and keeps its exact Gram entries as they are summed, each
the same whichever call sums it. A codebook file is an `HMPD` container of
`hmpsearch.files`.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DecodeError, InvalidInputError
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
    screen that OMP reads is computed on first use and cached, and the
    exact Gram entries are kept as OMP first sums them."""

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
        """The Gram matrix, by einsum like OMP's screen, and the ell1 norms."""
        return np.einsum("dk,dj->kj", self.atoms, self.atoms), np.sum(np.abs(self.atoms), axis=0)

    @functools.cached_property
    def _gram(self) -> np.ndarray:
        """The exact Gram entries, NaN until `_gram_at` first sums them. An
        entry only ever changes from NaN to the one value it can hold."""
        return np.full((self.size,) * 2, np.nan)

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


def _dots(u: np.ndarray, i: np.ndarray, v: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Inner products of columns u[:, i] and v[:, j] (u, v: D x n) for index
    arrays broadcast together, each summed from zero over D in order, so
    that it never depends on what else is computed with it."""
    i, j = np.broadcast_arrays(i, j)
    out = np.zeros(i.shape)
    flat, i, j = out.reshape(-1), i.ravel(), j.ravel()
    step = max(1, 2**16 // u.shape[0])  # blocks of 2^16 products bound the work arrays
    for lo in range(0, i.size, step):
        # add.reduce adds the rows of a D x P block one by one, as np.sum
        # documents for a slow axis; a spare column keeps P >= 2
        prod = np.take(u, np.append(i[lo : lo + step], 0), axis=1)
        prod *= np.take(v, np.append(j[lo : lo + step], 0), axis=1)
        flat[lo : lo + step] = np.add.reduce(prod, axis=0, initial=0.0)[:-1]
    return out


def _gram_at(atoms: np.ndarray, gram: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Exact Gram entries gram[p, q]; the NaN ones are computed, each pair once."""
    need = np.zeros(gram.shape, dtype=bool)
    need[p, q] = True
    pm, qm = np.nonzero(need & np.isnan(gram))
    gram[pm, qm] = gram[qm, pm] = _dots(atoms, pm, atoms, qm)
    return gram[p, q]


def _corrected(alpha: np.ndarray, coef: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """alpha - sum_j coef[:, j] * gram[:, j], subtracted in support order."""
    for j in range(coef.shape[1]):
        alpha = alpha - coef[:, j] * gram[:, j]
    return alpha


def _solve_upper(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L^T x = rhs per row for lower-triangular L (N x t x t)."""
    x = np.empty_like(rhs)
    for i in reversed(range(rhs.shape[1])):
        x[:, i] = (rhs[:, i] - np.sum(chol[:, i + 1 :, i] * x[:, i + 1 :], axis=1)) / chol[:, i, i]
    return x


def omp_encode_batch(dictionary: Dictionary, signals: np.ndarray, sparsity: int) -> np.ndarray:
    """Greedy sparse approximation of each column of `signals` (D x N).

    Returns the N x K code matrix; a row depends only on its own signal, not
    on the batch, its memory layout or the BLAS thread count. Selection ties
    between correlations equal in floating point break toward the lowest
    index; correlations equal only in exact arithmetic are ordered by their
    rounding. Coding stops early once the residual norm
    falls under RESIDUAL_STOP, once the residual is orthogonal to every
    remaining atom, or once the next atom's Cholesky pivot is at most
    PIVOT_STOP. A column whose squared norm overflows raises InvalidInputError.
    Columns equal byte for byte are coded once, and the exact Gram entries
    summed are kept on `dictionary` for later calls.
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
    atoms, (screen, l1), yt = dictionary.atoms, dictionary._screen, np.ascontiguousarray(y.T)
    support, coef = np.zeros((n, sparsity), dtype=np.intp), np.zeros((n, sparsity))
    gram = dictionary._gram
    # per row still coding: screened alpha, |y|_1, atoms in pick order and
    # their coefficients, the Cholesky factor L of the support's Gram matrix
    # and L^-1 alpha_S; a row that stops leaves its atoms and coefficients
    approx = np.einsum("dn,dk->nk", yt, atoms)  # not BLAS, whose threads stall on a busy host
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
        # Screened and exact corrected correlations and the residual norm lie
        # within tol of their exact values: alpha and G in any summation
        # order within D eps/2 of sum_d |y_d a_dk| and |c_j| sum_d |a_dj a_dk|
        # (Higham 3.1; |a_dk| <= 1 + 1e-9), 2t updates within eps/2 of bound.
        bound = y_l1 + np.sum(np.abs(c[:, :t]) * l1[sup[:, :t]], axis=1)
        tol = 4 * (dim + t + 2) * np.finfo(np.float64).eps * bound + 1e-300
        floor = top - 2 * tol  # an atom above it may hold the exact maximum
        mag[at, best] = -np.inf
        tied = ~(mag[at, np.argmax(mag, axis=1)] < floor)
        # by max|corr_k| <= |r| <= bound both stop tests pass; other rows take |r|
        lo, hi = top - tol, bound * (1 + 1e-8) + tol
        go = (lo * (1 - 1e-8) - tol >= RESIDUAL_STOP) & (lo > 1e-12 * hi) & (hi < 1e154)
        unsure = np.flatnonzero(~go)
        if unsure.size:
            residual = _corrected(y[rows[unsure]], c[unsure, :t, None], atoms.T[sup[unsure, :t]])
            with np.errstate(over="ignore"):
                res_norm = np.sqrt(np.sum(residual * residual, axis=1))
            go[unsure] = res_norm >= RESIDUAL_STOP
        tied = np.flatnonzero(tied & go)
        if tied.size:  # settled by the exact corrected correlations
            cand = ~(mag[tied] < floor[tied, None])
            cand[np.arange(tied.size), best[tied]] = True
            cand[np.arange(tied.size)[:, None], sup[tied, :t]] = False
            i, k = np.nonzero(cand)
            g = _gram_at(atoms, gram, sup[tied[i], :t], k[:, None])
            scores = np.full(cand.shape, -np.inf)
            scores[i, k] = np.abs(_corrected(_dots(yt, rows[tied[i]], atoms, k), c[tied[i], :t], g))
            best[tied] = np.argmax(scores, axis=1)
        sup[:, t] = best  # slot t takes a coefficient only if the row goes on
        alpha = _dots(yt, rows, atoms, best)
        g = _gram_at(atoms, gram, sup[:, : t + 1], best[:, None])  # G[S, best], G[best, best]
        if unsure.size:
            exact = _corrected(alpha[unsure], c[unsure, :t], g[unsure, :t])
            go[unsure] &= np.abs(exact) > 1e-12 * res_norm
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
    codes = np.zeros((n, dictionary.size))
    nz = coef != 0.0  # as if added onto zero: unused slots and zeros leave 0.0
    codes[np.nonzero(nz)[0], support[nz]] = coef[nz]
    return codes[inverse]


def vq_encode_batch(dictionary: Dictionary, signals: np.ndarray) -> np.ndarray:
    """Index of the nearest atom to each column of `signals` (D x N).

    The nearest unit-norm atom is the one of largest correlation with the
    signal, as `_dots` accumulates it; ties break toward the lowest
    atom index, so a zero signal takes atom 0. One BLAS product screens the
    atoms and only rows left with more than one candidate run the loop, so
    the result is the loop's argmax bit for bit, whatever the batch or the
    number of BLAS threads.
    """
    y = _check_signals(dictionary, signals)
    # The product and the loop both lie within D eps/2 sum_d |y_d a_dk| of
    # the exact sum, in any order of summation, with or without FMA
    # (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), and
    # unit atoms have |a_dk| <= 1 + 1e-9, so the loop's winner scores
    # within tol of the product's row maximum. 1e-300 covers underflow; the
    # ell1 norm does not underflow where the squared ell2 norm would. A row
    # that could overflow gets a NaN threshold: every atom is a candidate.
    with np.errstate(over="ignore", invalid="ignore"):
        approx = y @ dictionary.atoms
        l1 = np.sum(np.abs(y), axis=1)
        tol = 4 * y.shape[1] * np.finfo(np.float64).eps * l1 + 1e-300
        threshold = np.where(l1 < 1e307, np.max(approx, axis=1) - tol, np.nan)
        candidates = ~(approx < threshold[:, None])
    nearest = np.argmax(candidates, axis=1)
    ties = np.flatnonzero(np.count_nonzero(candidates, axis=1) > 1)
    if ties.size:  # settled by the exact correlations of the candidates only
        i, k = np.nonzero(candidates[ties])
        exact = np.full((ties.size, dictionary.size), -np.inf)
        exact[i, k] = _dots(y.T, ties[i], dictionary.atoms, k)
        nearest[ties] = np.argmax(exact, axis=1)
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
    body = read_container(path, _DICT_MAGIC, _DICT_VERSION, 8, "codebook file")
    d, k = struct.unpack_from("<II", body)
    expected = 8 + 8 * d * k
    if len(body) != expected:
        raise DecodeError(f"{path}: truncated codebook ({len(body)} body bytes, expected {expected})")
    atoms = np.frombuffer(body, dtype="<f8", offset=8).reshape((d, k), order="F")
    try:
        return Dictionary(atoms)
    except InvalidInputError as exc:
        raise DecodeError(f"{path}: invalid codebook: {exc}") from exc
