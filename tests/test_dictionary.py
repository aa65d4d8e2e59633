"""Codebook training tests: descent, recovery, and housekeeping rules."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from hmpsearch import InvalidInputError, TrainConfig, TrainingSet, init_dictionary, train
from conftest import packed_dictionary, planted_signals
from oracles import omp_one


def reconstruction_error(signals, dictionary, sparsity):
    total = 0.0
    for i in range(signals.shape[1]):
        code = omp_one(dictionary, signals[:, i], sparsity)
        total += float(np.sum((signals[:, i] - dictionary.atoms @ code) ** 2))
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
            TrainConfig(codebook_size=4, sparsity=1, iterations=1, seed=-1)


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


class TestTrain:
    def test_empty_training_set_rejected(self):
        cfg = TrainConfig(codebook_size=4, sparsity=1, iterations=1)
        with pytest.raises(InvalidInputError):
            train(TrainingSet(np.empty((5, 0))), cfg)

    def test_small_training_set_warns_once(self):
        signals = np.random.default_rng(4).standard_normal((5, 3))
        cfg = TrainConfig(codebook_size=6, sparsity=1, iterations=1, seed=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            train(TrainingSet(signals), cfg)
        assert [w.category for w in caught] == [UserWarning]

    def test_training_lowers_error_of_large_codebook(self):
        # K >> D at sparsity 1, where greedy coding is exact: the first coding
        # pass scores the initial codebook, and no K-SVD step raises the
        # objective, so the trained codebook codes no worse than the initial one
        signals = np.random.default_rng(13).standard_normal((9, 600))
        cfg = TrainConfig(codebook_size=64, sparsity=1, iterations=4)
        trained, trace = train(TrainingSet(signals), cfg)
        assert np.all(np.diff(trace) <= 1e-6)
        initial = init_dictionary(TrainingSet(signals), cfg)
        assert reconstruction_error(signals, trained, 1) <= reconstruction_error(
            signals, initial, 1
        )

    def test_identity_case_reconstructs_exactly(self):
        # every signal becomes its own atom, so one coding pass already
        # reaches (near) zero error
        rng = np.random.default_rng(8)
        signals = rng.standard_normal((6, 6))
        cfg = TrainConfig(codebook_size=6, sparsity=1, iterations=1, seed=8)
        _, trace = train(TrainingSet(signals), cfg)
        assert len(trace) == 1
        assert trace[0] <= 1e-18

    def test_trace_non_increasing(self):
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
        cfg = TrainConfig(codebook_size=12, sparsity=2, iterations=30, seed=0)
        dictionary, trace = train(TrainingSet(signals), cfg)
        err = reconstruction_error(signals, dictionary, 2)
        assert err < 1e-3
        assert np.all(np.diff(trace) <= 1e-6)

    def test_dead_atom_replaced_by_worst_signal(self):
        # thirty copies of one signal plus an outlier: every initial atom is
        # that signal, so coding leaves all atoms but one unused, and an unused
        # atom must take over the worst-coded signal, the outlier
        base = np.zeros((6, 30))
        base[0] = 1.0
        outlier = np.zeros((6, 1))
        outlier[5] = 4.0
        signals = np.concatenate([base, outlier], axis=1)
        cfg = TrainConfig(codebook_size=4, sparsity=1, iterations=1, seed=2)
        dictionary, _ = train(TrainingSet(signals), cfg)
        err = reconstruction_error(signals, dictionary, 1)
        # the outlier is only reconstructable if some atom was reassigned
        assert err < 0.1
        npt.assert_allclose(np.linalg.norm(dictionary.atoms, axis=0), 1.0, atol=1e-9)
