"""Codebook training tests: descent, recovery, and housekeeping rules."""

import numpy as np
import numpy.testing as npt
import pytest

from hmpsearch import (
    Dictionary,
    InvalidInputError,
    TrainConfig,
    TrainingSet,
    coherence,
    init_dictionary,
    train,
)
from conftest import packed_dictionary, planted_signals


def reconstruction_error(signals, dictionary, sparsity):
    from hmpsearch import omp_encode

    total = 0.0
    for i in range(signals.shape[1]):
        code = omp_encode(dictionary, signals[:, i], sparsity)
        total += float(np.sum((signals[:, i] - dictionary.atoms @ code.to_dense()) ** 2))
    return total / signals.shape[1]


class TestTrainingSetAndConfig:
    def test_rejects_non_finite_signals(self):
        with pytest.raises(InvalidInputError):
            TrainingSet(np.array([[1.0, np.nan]]))

    def test_rejects_bad_config(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(codebook_size=1, sparsity=1, iterations=1)
        with pytest.raises(InvalidInputError):
            TrainConfig(codebook_size=4, sparsity=0, iterations=1)
        with pytest.raises(InvalidInputError):
            TrainConfig(codebook_size=4, sparsity=1, iterations=0)
        with pytest.raises(InvalidInputError):
            TrainConfig(codebook_size=4, sparsity=1, iterations=1, incoherence_weight=-0.5)


class TestInitDictionary:
    def test_full_sample_is_permutation_of_unit_columns(self):
        rng = np.random.default_rng(1)
        signals = rng.standard_normal((6, 8))
        signals /= np.linalg.norm(signals, axis=0)
        cfg = TrainConfig(codebook_size=8, sparsity=2, iterations=1, seed=42)
        atoms = init_dictionary(TrainingSet(signals), cfg).atoms
        # every training column appears exactly once among the atoms
        matched = set()
        for j in range(8):
            hits = [
                k
                for k in range(8)
                if np.allclose(atoms[:, j], signals[:, k], atol=1e-12)
            ]
            assert len(hits) == 1
            matched.add(hits[0])
        assert matched == set(range(8))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        signals = rng.standard_normal((5, 20))
        cfg = TrainConfig(codebook_size=6, sparsity=2, iterations=1, seed=9)
        a = init_dictionary(TrainingSet(signals), cfg).atoms
        b = init_dictionary(TrainingSet(signals), cfg).atoms
        assert a.tobytes() == b.tobytes()

    def test_zero_column_replaced_by_unit_vector(self):
        signals = np.eye(4)
        signals[:, 2] = 0.0
        cfg = TrainConfig(codebook_size=4, sparsity=1, iterations=1, seed=3)
        atoms = init_dictionary(TrainingSet(signals), cfg).atoms
        npt.assert_allclose(np.linalg.norm(atoms, axis=0), 1.0, atol=1e-9)

    def test_small_training_set_warns_and_samples_with_replacement(self):
        rng = np.random.default_rng(4)
        signals = rng.standard_normal((5, 3))
        cfg = TrainConfig(codebook_size=6, sparsity=1, iterations=1, seed=5)
        with pytest.warns(UserWarning):
            atoms = init_dictionary(TrainingSet(signals), cfg).atoms
        assert atoms.shape == (5, 6)
        npt.assert_allclose(np.linalg.norm(atoms, axis=0), 1.0, atol=1e-9)


class TestCoherence:
    def test_orthonormal_dictionary(self):
        total, peak = coherence(Dictionary(np.eye(5)))
        assert total == 0.0
        assert peak == 0.0

    def test_two_identical_atoms(self):
        atoms = np.stack([np.array([1.0, 0.0]), np.array([1.0, 0.0])], axis=1)
        total, peak = coherence(Dictionary(atoms))
        npt.assert_allclose(peak, 1.0, atol=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(6)
        atoms = rng.standard_normal((4, 6))
        atoms /= np.linalg.norm(atoms, axis=0)
        d = Dictionary(atoms)
        total, peak = coherence(d)
        expect_total = 0.0
        expect_peak = 0.0
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                g = abs(float(atoms[:, i] @ atoms[:, j]))
                expect_total += g
                expect_peak = max(expect_peak, g)
        npt.assert_allclose(total, expect_total, atol=1e-10)
        npt.assert_allclose(peak, expect_peak, atol=1e-12)


class TestTrain:
    def test_empty_training_set_rejected(self):
        cfg = TrainConfig(codebook_size=4, sparsity=1, iterations=1)
        with pytest.raises(InvalidInputError):
            train(TrainingSet(np.empty((5, 0))), cfg)

    def test_identity_case_reconstructs_exactly(self):
        # every signal becomes its own atom, so one coding pass already
        # reaches (near) zero error
        rng = np.random.default_rng(8)
        signals = rng.standard_normal((6, 6))
        cfg = TrainConfig(
            codebook_size=6, sparsity=1, iterations=1, incoherence_weight=0.0, seed=8
        )
        _, trace = train(TrainingSet(signals), cfg)
        assert len(trace) == 1
        assert trace[0] <= 1e-18

    def test_trace_non_increasing_without_incoherence_weight(self):
        rng = np.random.default_rng(9)
        for seed in range(6):
            dim = int(rng.integers(5, 10))
            size = int(rng.integers(dim, dim + 6))
            count = int(rng.integers(4 * size, 6 * size))
            signals = rng.standard_normal((dim, count))
            cfg = TrainConfig(
                codebook_size=size,
                sparsity=int(rng.integers(1, 4)),
                iterations=8,
                incoherence_weight=0.0,
                seed=seed,
            )
            _, trace = train(TrainingSet(signals), cfg)
            assert len(trace) == 8
            diffs = np.diff(trace)
            assert np.all(diffs <= 1e-6), f"seed {seed}: trace increased by {diffs.max()}"

    def test_atoms_unit_norm_every_iteration(self):
        rng = np.random.default_rng(10)
        signals = rng.standard_normal((6, 60))
        for iterations in (1, 2, 5):
            cfg = TrainConfig(
                codebook_size=10, sparsity=2, iterations=iterations, seed=1
            )
            dictionary, _ = train(TrainingSet(signals), cfg)
            npt.assert_allclose(np.linalg.norm(dictionary.atoms, axis=0), 1.0, atol=1e-9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        signals = rng.standard_normal((5, 40))
        cfg = TrainConfig(codebook_size=8, sparsity=2, iterations=4, seed=77)
        d1, t1 = train(TrainingSet(signals), cfg)
        d2, t2 = train(TrainingSet(signals), cfg)
        assert d1.atoms.tobytes() == d2.atoms.tobytes()
        assert t1 == t2

    def test_planted_dictionary_recovered(self):
        atoms = packed_dictionary(seed=0)
        signals = planted_signals(atoms, seed=0)
        cfg = TrainConfig(
            codebook_size=12, sparsity=2, iterations=30, incoherence_weight=0.0, seed=0
        )
        dictionary, trace = train(TrainingSet(signals), cfg)
        err = reconstruction_error(signals, dictionary, 2)
        assert err < 1e-3
        assert np.all(np.diff(trace) <= 1e-6)

    def test_incoherence_weight_lowers_coherence_sum(self):
        # directional check averaged over seeds
        rng = np.random.default_rng(12)
        gaps = []
        for seed in range(5):
            signals = rng.standard_normal((8, 120))
            base = TrainConfig(
                codebook_size=12, sparsity=2, iterations=10, incoherence_weight=0.0, seed=seed
            )
            weighted = TrainConfig(
                codebook_size=12, sparsity=2, iterations=10, incoherence_weight=0.1, seed=seed
            )
            plain_total = coherence(train(TrainingSet(signals), base)[0])[0]
            pushed_total = coherence(train(TrainingSet(signals), weighted)[0])[0]
            gaps.append(plain_total - pushed_total)
        assert np.mean(gaps) >= 0.0

    def test_dead_atom_replaced_by_worst_signal(self):
        # thirty copies of one signal plus an outlier: every initial atom is
        # that signal, so coding leaves all atoms but one unused, and an unused
        # atom must take over the worst-coded signal, the outlier; one
        # iteration runs no replacement trial, so only the dead-atom path acts
        base = np.zeros((6, 30))
        base[0] = 1.0
        outlier = np.zeros((6, 1))
        outlier[5] = 4.0
        signals = np.concatenate([base, outlier], axis=1)
        cfg = TrainConfig(
            codebook_size=4, sparsity=1, iterations=1, incoherence_weight=0.0, seed=2
        )
        dictionary, _ = train(TrainingSet(signals), cfg)
        err = reconstruction_error(signals, dictionary, 1)
        # the outlier is only reconstructable if some atom was reassigned
        assert err < 0.1
        npt.assert_allclose(np.linalg.norm(dictionary.atoms, axis=0), 1.0, atol=1e-9)
