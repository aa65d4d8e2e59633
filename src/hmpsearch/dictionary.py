"""Codebook training.

Alternating optimization in the K-SVD family: a sparse-coding pass over all
training signals followed by a sequential atom-by-atom update. The coding
pass keeps a signal's previous code whenever fresh greedy coding would make
its residual worse, and each iteration after the first additionally trials
replacing the most redundant atom with the worst-reconstructed signal,
keeping the trial only if it lowers the objective. Together these make the
reported objective trace non-increasing while still escaping merged-atom
plateaus.

With `incoherence_weight` > 0 the atom update adds a gradient-style push away
from the other atoms, trading reconstruction error against the summed
absolute inner products between distinct atoms.
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
    incoherence_weight: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.codebook_size < 2:
            raise InvalidInputError(f"codebook_size must be >= 2, got {self.codebook_size}")
        if self.iterations < 1:
            raise InvalidInputError(f"iterations must be >= 1, got {self.iterations}")
        if self.sparsity < 1:
            raise InvalidInputError(f"sparsity must be >= 1, got {self.sparsity}")
        if not (np.isfinite(self.incoherence_weight) and self.incoherence_weight >= 0):
            raise InvalidInputError("incoherence_weight must be finite and >= 0")


def coherence(dictionary: Dictionary) -> tuple[float, float]:
    """Summed |c_i . c_j| over distinct ordered atom pairs, and the largest."""
    gram = dictionary.atoms.T @ dictionary.atoms
    mag = np.abs(gram)
    total = float(mag.sum() - np.trace(mag))
    if dictionary.size < 2:
        return total, 0.0
    off = mag - np.diag(np.diag(mag))
    return total, float(off.max())


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


def _objective(signals, atoms, codes, weight) -> float:
    recon = float(np.linalg.norm(signals - atoms @ codes, "fro") ** 2)
    if weight == 0.0:
        return recon
    gram = np.abs(atoms.T @ atoms)
    return recon + weight * float(gram.sum() - np.trace(gram))


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


def _update_pass(signals, atoms, codes, cfg, rng) -> None:
    """Sequential atom updates; unused atoms take the worst-coded signal."""
    weight = cfg.incoherence_weight
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
        u, s, vt = np.linalg.svd(restricted, full_matrices=False)
        atom = u[:, 0]
        if weight > 0.0:
            others = np.delete(np.arange(atoms.shape[1]), k)
            overlaps = atoms[:, others].T @ atom
            push = atoms[:, others] @ np.sign(overlaps)
            atom = atom - weight * push
            norm = np.linalg.norm(atom)
            if norm > 1e-12:
                atom = atom / norm
            else:
                atom = u[:, 0]
        atoms[:, k] = atom
        # refit the row on its support; equals the rank-1 factor when
        # no incoherence push was applied
        codes[k, users] = atom @ restricted


def _replacement_trial(signals, atoms, codes, cfg, rng):
    gram = np.abs(atoms.T @ atoms)
    np.fill_diagonal(gram, 0.0)
    redundant = int(np.argmax(gram.max(axis=1)))
    pick = _worst_signal(signals, atoms, codes, set())
    if pick is None:
        return None
    trial_atoms = atoms.copy()
    trial_codes = codes.copy()
    trial_atoms[:, redundant] = signals[:, pick] / np.linalg.norm(signals[:, pick])
    trial_codes[redundant, :] = 0.0
    _code_pass(signals, trial_atoms, trial_codes, cfg)
    _update_pass(signals, trial_atoms, trial_codes, cfg, rng)
    return trial_atoms, trial_codes


def train(train_set: TrainingSet, cfg: TrainConfig) -> tuple[Dictionary, list[float]]:
    """Learn a codebook; returns it with the per-iteration objective trace."""
    if train_set.count == 0:
        raise InvalidInputError("training set is empty")
    if train_set.count < cfg.codebook_size:
        warnings.warn(
            f"training set has {train_set.count} signals for {cfg.codebook_size} atoms"
        )
    rng = np.random.default_rng(cfg.seed)
    signals = train_set.signals
    atoms = np.array(init_dictionary(train_set, cfg).atoms)
    codes = np.zeros((cfg.codebook_size, train_set.count))
    trace: list[float] = []
    for iteration in range(cfg.iterations):
        base_atoms = atoms.copy()
        base_codes = codes.copy()
        _code_pass(signals, atoms, codes, cfg)
        _update_pass(signals, atoms, codes, cfg, rng)
        best = _objective(signals, atoms, codes, cfg.incoherence_weight)
        if iteration > 0:
            trial = _replacement_trial(signals, base_atoms, base_codes, cfg, rng)
            if trial is not None:
                trial_obj = _objective(signals, trial[0], trial[1], cfg.incoherence_weight)
                if trial_obj < best:
                    atoms, codes = trial
                    best = trial_obj
        trace.append(best)
    return Dictionary(atoms), trace
