"""Sparse encoders over a fixed codebook.

Two coding rules are provided, each as one batch kernel over the columns of
a D x N signal matrix. `omp_encode_batch` is greedy orthogonal matching
pursuit: it repeatedly selects the atom most correlated with the current
residual, re-solves least squares on the selected support, and stops after
`sparsity` atoms or once the residual is negligible; it returns an N x K
code matrix. `vq_encode_batch` is hard assignment to the single nearest
atom, the coding rule of bag-of-features pipelines; it returns one atom
index per signal. One signal `y` is coded as a batch of one column, e.g.
`omp_encode_batch(d, y[:, None], s)[0]`. Both are pure functions; a
`Dictionary` is immutable and safe to share across threads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import DecodeError, InvalidInputError

UNIT_NORM_TOL = 1e-9
# ell2 norm below which the residual counts as fully explained and coding
# stops early, producing fewer nonzeros than the sparsity budget.
RESIDUAL_STOP = 1e-10

_DICT_MAGIC = b"HMPD"
_DICT_VERSION = 1


@dataclass(frozen=True)
class Dictionary:
    """Codebook of unit-norm atoms, one per column of `atoms` (D x K)."""

    atoms: np.ndarray
    _atoms_t: np.ndarray = field(init=False, repr=False, compare=False)

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
        atoms_t = np.ascontiguousarray(atoms.T)
        atoms_t.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_atoms_t", atoms_t)

    @property
    def signal_dim(self) -> int:
        return self.atoms.shape[0]

    @property
    def size(self) -> int:
        return self.atoms.shape[1]


def _check_signals(dictionary: Dictionary, signals: np.ndarray) -> np.ndarray:
    mat = np.asarray(signals, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != dictionary.signal_dim:
        raise InvalidInputError(
            f"signals of shape {mat.shape} do not match dictionary dimension"
            f" {dictionary.signal_dim}; expected {dictionary.signal_dim} x N"
        )
    if not np.all(np.isfinite(mat)):
        raise InvalidInputError("signals contain non-finite values")
    return mat


def _omp(atoms: np.ndarray, atoms_t: np.ndarray, y: np.ndarray, sparsity: int):
    support: list[int] = []
    coef = np.empty(0)
    residual = y
    for _ in range(sparsity):
        res_norm = np.linalg.norm(residual)
        if res_norm < RESIDUAL_STOP:
            break
        corr = np.abs(atoms_t @ residual)
        if support:
            corr[support] = -1.0
        best = int(np.argmax(corr))
        # residual orthogonal to every remaining atom: nothing left to add
        if corr[best] <= 1e-12 * res_norm:
            break
        support.append(best)
        sub = atoms[:, support]
        gram = sub.T @ sub
        rhs = sub.T @ y
        try:
            coef = cho_solve(cho_factor(gram, lower=True), rhs)
        except (LinAlgError, np.linalg.LinAlgError):
            # singular support: minimum-norm least squares instead of a crash
            coef = np.linalg.lstsq(sub, y, rcond=None)[0]
        residual = y - sub @ coef
    return support, coef


def omp_encode_batch(dictionary: Dictionary, signals: np.ndarray, sparsity: int) -> np.ndarray:
    """Greedy sparse approximation of each column of `signals` (D x N).

    Returns the N x K code matrix, one row per signal. Each signal is coded
    in the memory layout it is passed in, so a row depends only on its own
    signal and never on the rest of the batch. Atom selection ties break
    toward the lowest index; coding stops early once the residual norm falls
    under RESIDUAL_STOP, leaving fewer than `sparsity` nonzeros.
    """
    mat = _check_signals(dictionary, signals)
    if not 1 <= sparsity <= min(dictionary.signal_dim, dictionary.size):
        raise InvalidInputError(
            f"sparsity must be in [1, min(D, K)] = [1, {min(dictionary.signal_dim, dictionary.size)}],"
            f" got {sparsity}"
        )
    codes = np.zeros((mat.shape[1], dictionary.size))
    for i in range(mat.shape[1]):
        support, coef = _omp(dictionary.atoms, dictionary._atoms_t, mat[:, i], sparsity)
        codes[i, support] = coef
    return codes


def vq_encode_batch(dictionary: Dictionary, signals: np.ndarray) -> np.ndarray:
    """Index of the nearest atom to each column of `signals` (D x N).

    Squared distances accumulate over the D signal rows in order; ties break
    toward the lowest atom index.
    """
    mat = _check_signals(dictionary, signals)
    dist2 = np.zeros((mat.shape[1], dictionary.size))
    for d in range(mat.shape[0]):
        diff = dictionary.atoms[d] - mat[d][:, None]
        dist2 += diff * diff
    return np.argmin(dist2, axis=1)


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
    with open(path, "wb") as fh:
        fh.write(_DICT_MAGIC)
        fh.write(struct.pack("<B", _DICT_VERSION))
        fh.write(struct.pack("<II", d, k))
        fh.write(np.ascontiguousarray(dictionary.atoms, dtype="<f8").tobytes(order="F"))


def load_dictionary(path) -> Dictionary:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DecodeError(f"cannot read dictionary file {path}: {exc}") from exc
    if len(raw) < 13 or raw[:4] != _DICT_MAGIC:
        raise DecodeError(f"{path} is not a codebook file (bad magic)")
    version = raw[4]
    if version != _DICT_VERSION:
        raise DecodeError(f"{path}: unsupported codebook version {version}")
    d, k = struct.unpack_from("<II", raw, 5)
    expected = 13 + 8 * d * k
    if len(raw) != expected:
        raise DecodeError(f"{path}: truncated codebook ({len(raw)} bytes, expected {expected})")
    atoms = np.frombuffer(raw, dtype="<f8", offset=13).reshape((d, k), order="F")
    try:
        return Dictionary(atoms)
    except InvalidInputError as exc:
        raise DecodeError(f"{path}: invalid codebook: {exc}") from exc
