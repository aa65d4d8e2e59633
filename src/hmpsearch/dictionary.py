"""Codebook training by K-SVD (Aharon, Elad & Bruckstein, IEEE TSP 2006), as
in hierarchical matching pursuit (Bo, Ren & Fox, NIPS 2011).

Each iteration greedy-codes every training signal, then updates the atoms
one at a time: an atom and its codes become the best rank-1 fit, by SVD, of
the residual of the signals that use it, and an atom no signal uses takes
over the worst-reconstructed signal. The rank-1 fit cannot raise the
objective, and the coding pass keeps a signal's previous code whenever fresh
greedy coding would make its residual worse, so the reported trace of the
objective is non-increasing. Each code is s = min(sparsity, D, K) (atom,
coefficient) slots, so memory follows the nonzeros, not K x N, plus one
D x N residual that both passes keep current. Each residual is summed slot
by slot, elementwise, never by a BLAS product, so the residuals do not
depend on the BLAS thread count; the SVD and `atom @ restricted` product of
an atom update do, at paper scale.
"""

from __future__ import annotations

import logging

import numpy as np

from .coding import Dictionary, _residual, omp_encode_batch
from .encoder import LayerConfig
from .errors import InvalidInputError

# training signals coded per kernel call in a coding pass
CODE_CHUNK = 1024

log = logging.getLogger("hmpsearch")


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def init_dictionary(signals: np.ndarray, size: int, seed: int = 0) -> Dictionary:
    """Seeded sample of `size` columns of the D x N `signals`, each normalized.

    Samples without replacement when there are enough signals; otherwise with
    replacement plus a small seeded perturbation so duplicates separate.
    All-zero candidates become seeded random unit vectors.
    """
    signals = np.asarray(signals, dtype=np.float64)
    if signals.ndim != 2:
        raise InvalidInputError(f"signals must be a 2-D matrix, got shape {signals.shape}")
    if not np.all(np.isfinite(signals)):
        raise InvalidInputError("training signals contain non-finite values")
    count = signals.shape[1]
    if count == 0:
        raise InvalidInputError("training set is empty")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    if count < size:
        log.warning("only %d training signals for %d atoms; sampling with replacement", count, size)
        picks = rng.choice(count, size=size, replace=True)
        atoms = signals[:, picks].copy()
        atoms += 1e-6 * rng.standard_normal(atoms.shape)
    else:
        picks = rng.choice(count, size=size, replace=False)
        atoms = signals[:, picks].copy()
    for j in range(size):
        norm = np.linalg.norm(atoms[:, j])
        if norm < 1e-12:
            atoms[:, j] = _random_unit(rng, signals.shape[0])
        else:
            atoms[:, j] /= norm
    return Dictionary(atoms)


def _code_pass(signals, atoms, support, coef, residual) -> None:
    """Greedy-code every signal, keeping the old code when it fits better."""
    dictionary = Dictionary(atoms)
    # fixed-size chunks bound the kernel's N x K work arrays; a code row
    # depends only on its own signal, whatever the chunk holds
    for lo in range(0, signals.shape[1], CODE_CHUNK):
        chunk = slice(lo, lo + CODE_CHUNK)
        y = signals[:, chunk]
        new_support, new_coef = omp_encode_batch(dictionary, y, support.shape[1])
        new_res = _residual(y, atoms, new_support, new_coef)
        keep = np.linalg.norm(new_res, axis=0) <= np.linalg.norm(residual[:, chunk], axis=0)
        better = np.flatnonzero(keep)
        support[lo + better], coef[lo + better] = new_support[better], new_coef[better]
        residual[:, lo + better] = new_res[:, better]


def _update_pass(signals, atoms, support, coef, residual, rng) -> None:
    """Sequential atom updates; unused atoms take the worst-coded signal."""
    size = atoms.shape[1]
    # the nonzero slots of each atom's users, in signal order, from one
    # stable sort; an update changes only its own atom's codes
    keys = np.where(coef != 0.0, support, size).ravel()
    slots = np.argsort(keys, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(keys, minlength=size + 1))])
    taken: set[int] = set()
    for k in range(size):
        own = slots[bounds[k] : bounds[k + 1]]
        if own.size == 0:
            worst = np.argsort(-np.linalg.norm(residual, axis=0)).tolist()
            pick = next((i for i in worst if i not in taken
                         and np.linalg.norm(signals[:, i]) > 1e-12), None)
            if pick is None:
                atoms[:, k] = _random_unit(rng, atoms.shape[0])
            else:
                taken.add(pick)
                atoms[:, k] = signals[:, pick] / np.linalg.norm(signals[:, pick])
            continue
        users = own // support.shape[1]
        restricted = residual[:, users] + np.outer(atoms[:, k], coef.flat[own])
        atom = np.linalg.svd(restricted, full_matrices=False)[0][:, 0]
        atoms[:, k] = atom
        coef.flat[own] = atom @ restricted
        # rebuilt slot by slot, not downdated by the rank-1 fit, so that each
        # kept column has the bits a fresh rebuild would give
        residual[:, users] = _residual(signals[:, users], atoms, support[users], coef[users])


def train(
    signals: np.ndarray, layer: LayerConfig, iterations: int, seed: int = 0
) -> tuple[Dictionary, list[float]]:
    """Learn `layer`'s codebook from the D x N `signals` in `iterations`
    K-SVD iterations; returns it with the per-iteration objective trace."""
    if iterations < 1:
        raise InvalidInputError(f"iterations must be >= 1, got {iterations}")
    signals = np.asarray(signals, dtype=np.float64)
    atoms = np.array(init_dictionary(signals, layer.codebook_size, seed).atoms)
    rng = np.random.default_rng(seed)
    # each signal's code: atoms and coefficients in s slots, zero when unused,
    # and its residual, one column of a C-ordered D x N array
    slots = (signals.shape[1], min(layer.sparsity, *atoms.shape))
    support, coef = np.zeros(slots, dtype=np.intp), np.zeros(slots)
    residual = _residual(signals, atoms, support, coef)
    trace: list[float] = []
    for _ in range(iterations):
        _code_pass(signals, atoms, support, coef, residual)
        _update_pass(signals, atoms, support, coef, residual, rng)
        trace.append(float(np.sum(np.square(np.linalg.norm(residual, axis=0)))))
    return Dictionary(atoms), trace
