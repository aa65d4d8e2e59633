"""Codebook training by K-SVD (Aharon, Elad & Bruckstein, IEEE TSP 2006), as
in hierarchical matching pursuit (Bo, Ren & Fox, NIPS 2011).

Each iteration greedy-codes every training signal, then updates the atoms
one at a time: an atom and its row of codes become the best rank-1 fit, by
SVD, of the residual of the signals that use it, and an atom no signal uses
takes over the worst-reconstructed signal. The rank-1 fit cannot raise the
objective, and the coding pass keeps a signal's previous code whenever
fresh greedy coding would make its residual worse, so the reported trace
of the objective is non-increasing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .coding import Dictionary, omp_encode_batch
from .errors import InvalidInputError

# training signals coded per kernel call in a coding pass
CODE_CHUNK = 1024


@dataclass(frozen=True)
class TrainingSet:
    """Training signals, one per column (D x N)."""

    signals: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.signals, dtype=np.float64)
        if mat.ndim != 2:
            raise InvalidInputError(f"signals must be a 2-D matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise InvalidInputError("training signals contain non-finite values")
        object.__setattr__(self, "signals", mat)

    @property
    def count(self) -> int:
        return self.signals.shape[1]

    @property
    def signal_dim(self) -> int:
        return self.signals.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    codebook_size: int
    sparsity: int
    iterations: int
    seed: int = 0

    def __post_init__(self):
        if self.codebook_size < 2:
            raise InvalidInputError(f"codebook_size must be >= 2, got {self.codebook_size}")
        if self.iterations < 1:
            raise InvalidInputError(f"iterations must be >= 1, got {self.iterations}")
        if self.sparsity < 1:
            raise InvalidInputError(f"sparsity must be >= 1, got {self.sparsity}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def init_dictionary(train: TrainingSet, cfg: TrainConfig) -> Dictionary:
    """Seeded sample of training columns, each normalized.

    Samples without replacement when there are enough signals; otherwise with
    replacement plus a small seeded perturbation so duplicates separate.
    All-zero candidates become seeded random unit vectors.
    """
    if train.count == 0:
        raise InvalidInputError("training set is empty")
    rng = np.random.default_rng(cfg.seed)
    k = cfg.codebook_size
    if train.count < k:
        warnings.warn(
            f"only {train.count} training signals for {k} atoms; sampling with replacement"
        )
        picks = rng.choice(train.count, size=k, replace=True)
        atoms = train.signals[:, picks].copy()
        atoms += 1e-6 * rng.standard_normal(atoms.shape)
    else:
        picks = rng.choice(train.count, size=k, replace=False)
        atoms = train.signals[:, picks].copy()
    for j in range(k):
        norm = np.linalg.norm(atoms[:, j])
        if norm < 1e-12:
            atoms[:, j] = _random_unit(rng, train.signal_dim)
        else:
            atoms[:, j] /= norm
    return Dictionary(atoms)


def _code_pass(signals, atoms, codes, cfg) -> None:
    """Greedy-code every signal, keeping the old code when it fits better."""
    dictionary = Dictionary(atoms)
    sparsity = min(cfg.sparsity, dictionary.signal_dim, dictionary.size)
    # fixed-size chunks bound the kernel's N x K work arrays; a code row
    # depends only on its own signal, whatever the chunk holds
    for lo in range(0, signals.shape[1], CODE_CHUNK):
        chunk = slice(lo, lo + CODE_CHUNK)
        new = omp_encode_batch(dictionary, signals[:, chunk], sparsity).T
        old_res = np.linalg.norm(signals[:, chunk] - atoms @ codes[:, chunk], axis=0)
        new_res = np.linalg.norm(signals[:, chunk] - atoms @ new, axis=0)
        better = new_res <= old_res
        codes[:, lo + np.flatnonzero(better)] = new[:, better]


def _worst_signal(signals, atoms, codes, skip: set[int]) -> int | None:
    residual_norms = np.linalg.norm(signals - atoms @ codes, axis=0)
    for idx in np.argsort(-residual_norms):
        i = int(idx)
        if i in skip:
            continue
        if np.linalg.norm(signals[:, i]) > 1e-12:
            return i
    return None


def _update_pass(signals, atoms, codes, rng) -> None:
    """Sequential atom updates; unused atoms take the worst-coded signal."""
    taken: set[int] = set()
    for k in range(atoms.shape[1]):
        users = np.nonzero(codes[k, :])[0]
        if users.size == 0:
            pick = _worst_signal(signals, atoms, codes, taken)
            if pick is None:
                atoms[:, k] = _random_unit(rng, atoms.shape[0])
            else:
                taken.add(pick)
                atoms[:, k] = signals[:, pick] / np.linalg.norm(signals[:, pick])
            continue
        restricted = (
            signals[:, users]
            - atoms @ codes[:, users]
            + np.outer(atoms[:, k], codes[k, users])
        )
        atom = np.linalg.svd(restricted, full_matrices=False)[0][:, 0]
        atoms[:, k] = atom
        codes[k, users] = atom @ restricted


def train(train_set: TrainingSet, cfg: TrainConfig) -> tuple[Dictionary, list[float]]:
    """Learn a codebook; returns it with the per-iteration objective trace."""
    rng = np.random.default_rng(cfg.seed)
    signals = train_set.signals
    atoms = np.array(init_dictionary(train_set, cfg).atoms)
    codes = np.zeros((cfg.codebook_size, train_set.count))
    trace: list[float] = []
    for _ in range(cfg.iterations):
        _code_pass(signals, atoms, codes, cfg)
        _update_pass(signals, atoms, codes, rng)
        trace.append(float(np.linalg.norm(signals - atoms @ codes, "fro") ** 2))
    return Dictionary(atoms), trace
