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
ties toward the lowest. OMP takes every product over N elementwise. VQ
screens the atoms with one BLAS product, whose rows may depend on the
batch, and settles every row left with more than one candidate by OMP's
elementwise `D^T y`; as it returns only an index, that index is the
elementwise rule's. So for both, row i of a batch is bitwise the batch of
one of column i: one signal `y` is coded as
`omp_encode_batch(d, y[:, None], s)[0]`. Both are pure functions; a
`Dictionary` is immutable, thread-safe and computes its Gram matrix on
first OMP use. A codebook file is an `HMPD` container of `hmpsearch.files`.
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
    K x K Gram matrix that OMP reads is computed on first use and cached."""

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
    def _gram(self) -> np.ndarray:
        # accumulated like the signal correlations, so that bitwise-equal
        # atoms have bitwise-equal Gram rows and tie toward the lower index
        gram = _correlations(self.atoms.T, self.atoms)
        gram.setflags(write=False)
        return gram

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


def _correlations(mat: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """N x K inner products of the rows of `mat` (N x D) with the atoms
    (columns of `atoms`, D x K), accumulated over the D signal rows in order
    so that a row's result never depends on the rest of the batch."""
    out = np.zeros((mat.shape[0], atoms.shape[1]))
    for d in range(mat.shape[1]):
        out += mat[:, d : d + 1] * atoms[d]
    return out


def _solve_lower(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L x = rhs per row for lower-triangular L (N x t x t)."""
    x = np.empty_like(rhs)
    for i in range(rhs.shape[1]):
        x[:, i] = (rhs[:, i] - np.sum(chol[:, i, :i] * x[:, :i], axis=1)) / chol[:, i, i]
    return x


def _solve_upper(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L^T x = rhs per row for lower-triangular L (N x t x t)."""
    x = np.empty_like(rhs)
    for i in reversed(range(rhs.shape[1])):
        x[:, i] = (rhs[:, i] - np.sum(chol[:, i + 1 :, i] * x[:, i + 1 :], axis=1)) / chol[:, i, i]
    return x


def omp_encode_batch(dictionary: Dictionary, signals: np.ndarray, sparsity: int) -> np.ndarray:
    """Greedy sparse approximation of each column of `signals` (D x N).

    Returns the N x K code matrix, one row per signal. The batch is copied
    once into an N x D C-ordered array and every product over N is taken
    elementwise, so a row depends only on its own signal, never on the rest
    of the batch or on the memory layout it is passed in. Atom selection
    ties break toward the lowest index; coding stops early once the residual
    norm falls under RESIDUAL_STOP, once the residual is orthogonal to every
    remaining atom, or once the next atom's Cholesky pivot is at most
    PIVOT_STOP, leaving fewer than `sparsity` nonzeros.
    """
    y = _check_signals(dictionary, signals)
    if not 1 <= sparsity <= min(dictionary.signal_dim, dictionary.size):
        raise InvalidInputError(
            f"sparsity must be in [1, min(D, K)] = [1, {min(dictionary.signal_dim, dictionary.size)}],"
            f" got {sparsity}"
        )
    n = y.shape[0]
    atoms_t, gram = dictionary.atoms.T, dictionary._gram
    alpha = _correlations(y, dictionary.atoms)
    # per signal: atoms in pick order, their coefficients (zero in unused
    # slots) and the Cholesky factor of the support's Gram matrix
    support = np.zeros((n, sparsity), dtype=np.intp)
    coef = np.zeros((n, sparsity))
    chol = np.zeros((n, sparsity, sparsity))
    rows = np.arange(n)  # signals still being coded; each holds t atoms
    for t in range(sparsity):
        sup, c = support[rows, :t], coef[rows, :t]
        residual, corr = y[rows], alpha[rows]
        for j in range(t):
            residual = residual - c[:, j : j + 1] * atoms_t[sup[:, j]]
            corr = corr - c[:, j : j + 1] * gram[sup[:, j]]
        res_norm = np.sqrt(np.sum(residual * residual, axis=1))
        mag = np.abs(corr)
        mag[np.arange(rows.size)[:, None], sup] = -1.0
        best = np.argmax(mag, axis=1)
        # stop once the residual is negligible or orthogonal to every
        # remaining atom
        go = (res_norm >= RESIDUAL_STOP) & (np.max(mag, axis=1) > 1e-12 * res_norm)
        # the new row of the Cholesky factor
        w = _solve_lower(chol[rows, :t, :t], gram[sup, best[:, None]])
        pivot = gram[best, best] - np.sum(w * w, axis=1)
        go &= pivot > PIVOT_STOP
        rows, best, w, pivot = rows[go], best[go], w[go], pivot[go]
        chol[rows, t, :t] = w
        chol[rows, t, t] = np.sqrt(pivot)
        support[rows, t] = best
        factor = chol[rows, : t + 1, : t + 1]
        z = _solve_lower(factor, alpha[rows[:, None], support[rows, : t + 1]])
        coef[rows, : t + 1] = _solve_upper(factor, z)
    codes = np.zeros((n, dictionary.size))
    # an unused slot adds zero to atom 0
    np.add.at(codes, (np.arange(n)[:, None], support), coef)
    return codes


def vq_encode_batch(dictionary: Dictionary, signals: np.ndarray) -> np.ndarray:
    """Index of the nearest atom to each column of `signals` (D x N).

    The nearest unit-norm atom is the one of largest correlation with the
    signal, as `_correlations` accumulates it; ties break toward the lowest
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
    if ties.size:
        exact = _correlations(y[ties], dictionary.atoms)
        nearest[ties] = np.argmax(np.where(candidates[ties], exact, -np.inf), axis=1)
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
