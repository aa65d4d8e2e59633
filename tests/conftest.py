"""Shared synthetic data builders for the test suite."""

import os
import subprocess
import sys

import numpy as np

import hmpsearch
from hmpsearch import Dictionary, IntensityImage


def outputs_under_blas_threads(code: str, *args: str) -> list[str]:
    """Standard output of `python -c code *args`, run once with OpenBLAS's
    default thread count and once with one thread. The tests directory and
    the package are on the path."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    src = os.path.dirname(os.path.dirname(hmpsearch.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src, os.path.dirname(__file__)])
    return [
        subprocess.run(
            [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True, env=e
        ).stdout
        for e in (env, {**env, "OPENBLAS_NUM_THREADS": "1"})
    ]


def random_dictionary(rng, dim: int, size: int) -> Dictionary:
    atoms = rng.standard_normal((dim, size))
    atoms /= np.linalg.norm(atoms, axis=0)
    return Dictionary(atoms)


def packed_dictionary(seed: int, dim: int = 8, size: int = 12, mu_target: float = 0.25):
    """Seeded random unit-norm atoms pushed toward low mutual coherence.

    Alternating projection between the clipped Gram matrix and rank-`dim`
    factorizations; low coherence keeps 2-sparse combinations identifiable,
    which a planted-recovery experiment needs to be well posed.
    """
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((dim, size))
    atoms /= np.linalg.norm(atoms, axis=0)
    for _ in range(300):
        gram = atoms.T @ atoms
        off = gram - np.eye(size)
        clipped = np.sign(off) * np.minimum(np.abs(off), mu_target)
        target = np.eye(size) + clipped
        eigvals, eigvecs = np.linalg.eigh(target)
        top = np.clip(eigvals[-dim:], 0.0, None)
        atoms = (eigvecs[:, -dim:] * np.sqrt(top)).T
        atoms /= np.linalg.norm(atoms, axis=0)
    return atoms


def planted_signals(atoms: np.ndarray, seed: int, sparsity: int = 2, count: int = 600):
    """Exactly `sparsity`-sparse combinations of the given atoms."""
    rng = np.random.default_rng(seed + 7777)
    size = atoms.shape[1]
    codes = np.zeros((size, count))
    for i in range(count):
        support = rng.choice(size, size=sparsity, replace=False)
        signs = rng.choice([-1.0, 1.0], size=sparsity)
        codes[support, i] = rng.uniform(0.5, 1.5, size=sparsity) * signs
    return atoms @ codes


def texture_image(seed: int, side: int = 64, waves: int = 4) -> np.ndarray:
    """Smooth pseudo-random texture: a seeded mixture of 2-D cosine waves."""
    rng = np.random.default_rng(seed)
    rows, cols = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    canvas = np.zeros((side, side))
    for _ in range(waves):
        freq_r = rng.uniform(0.05, 0.45)
        freq_c = rng.uniform(0.05, 0.45)
        phase = rng.uniform(0, 2 * np.pi)
        canvas += rng.uniform(0.5, 1.0) * np.cos(freq_r * rows + freq_c * cols + phase)
    canvas += 0.15 * rng.standard_normal((side, side))
    low, high = canvas.min(), canvas.max()
    return (canvas - low) / (high - low)


# Block-arrangement corpus: group identity lives at the mid-level scale.
#
# Every image is a grid of 24x24 tiles; every tile holds one block of each
# of the four stripe types (horizontal/vertical x two stripe periods)
# separated by flat gutters, so 5x5 patch statistics agree across the whole
# corpus and orderless patch summaries cannot tell groups apart. What
# distinguishes a group is WHICH two tile arrangements it uses, a cue only
# visible to features that keep within-tile layout. Group members are
# brightness- and shift-perturbed crops of one base canvas.

ARRANGEMENT_BLOCK = 8
ARRANGEMENT_GUTTER = 4
ARRANGEMENT_TILE = 2 * (ARRANGEMENT_BLOCK + ARRANGEMENT_GUTTER)
_BLOCK_TYPES = (("h", 2), ("h", 3), ("v", 2), ("v", 3))


def _stripe_block(orientation: str, band: int, size: int = ARRANGEMENT_BLOCK) -> np.ndarray:
    ramp = (np.arange(size) // band) % 2
    line = np.where(ramp == 0, 0.3, 0.7)
    if orientation == "h":
        return np.tile(line[:, None], (1, size))
    return np.tile(line[None, :], (size, 1))


def _arrangement_tile_bank() -> list[np.ndarray]:
    """24 tiles: all orders of the four block types over 2x2 positions."""
    import itertools

    offsets = (
        ARRANGEMENT_GUTTER // 2,
        ARRANGEMENT_GUTTER // 2 + ARRANGEMENT_BLOCK + ARRANGEMENT_GUTTER,
    )
    bank = []
    for order in itertools.permutations(range(4)):
        canvas = np.full((ARRANGEMENT_TILE, ARRANGEMENT_TILE), 0.5)
        for pos, type_id in enumerate(order):
            r, c = divmod(pos, 2)
            orientation, band = _BLOCK_TYPES[type_id]
            canvas[
                offsets[r] : offsets[r] + ARRANGEMENT_BLOCK,
                offsets[c] : offsets[c] + ARRANGEMENT_BLOCK,
            ] = _stripe_block(orientation, band)
        bank.append(canvas)
    return bank


def arrangement_corpus(
    seed: int,
    side: int = 48,
    groups: int = 10,
    shifts=((0, 0), (2, 1), (3, 3)),
    gains=((1.0, 0.0), (0.85, 0.02), (0.7, 0.04)),
):
    """Retrieval corpus of `groups` x len(shifts) images with ground truth.

    Returns (images, gt): id -> IntensityImage and id -> relevant-id set.
    Each group owns a disjoint pair of tile types; members are crops of the
    same canvas at the given shifts with (gain, lift) brightness changes.
    """
    bank = _arrangement_tile_bank()
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(bank))
    grid_n = side // ARRANGEMENT_TILE + 1
    visible = side // ARRANGEMENT_TILE
    images: dict[str, IntensityImage] = {}
    gt: dict[str, set[str]] = {}
    for g in range(groups):
        support = [int(order[2 * g]), int(order[2 * g + 1])]
        slots = [support[i % 2] for i in range(grid_n * grid_n)]
        while True:
            arrangement = rng.permutation(slots)
            window = arrangement.reshape(grid_n, grid_n)[:visible, :visible]
            if len(set(window.ravel().tolist())) == 2:
                break
        canvas = np.zeros((grid_n * ARRANGEMENT_TILE, grid_n * ARRANGEMENT_TILE))
        for slot, tile_id in enumerate(arrangement):
            r, c = divmod(slot, grid_n)
            canvas[
                r * ARRANGEMENT_TILE : (r + 1) * ARRANGEMENT_TILE,
                c * ARRANGEMENT_TILE : (c + 1) * ARRANGEMENT_TILE,
            ] = bank[tile_id]
        ids = [f"g{g:02d}m{m}" for m in range(len(shifts))]
        for image_id, (dr, dc), (gain, lift) in zip(ids, shifts, gains):
            crop = canvas[dr : dr + side, dc : dc + side]
            images[image_id] = IntensityImage(np.clip(crop * gain + lift, 0.0, 1.0))
        for image_id in ids:
            gt[image_id] = set(ids) - {image_id}
    return images, gt
