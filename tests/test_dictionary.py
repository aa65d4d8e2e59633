"""Codebook training tests: descent, recovery, housekeeping rules, the
sparse-code trainer held to the dense one, `oracles.ksvd_dense`, and its
kept residual held to a fresh rebuild."""

import logging
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmpsearch import InvalidInputError, LayerConfig, init_dictionary, train
from hmpsearch.dictionary import CODE_CHUNK, _code_pass, _residual, _update_pass
from conftest import outputs_under_blas_threads, packed_dictionary, planted_signals
from oracles import ksvd_dense, omp_one


def reconstruction_error(signals, dictionary, sparsity):
    total = 0.0
    for i in range(signals.shape[1]):
        code = omp_one(dictionary, signals[:, i], sparsity)
        total += float(np.sum((signals[:, i] - dictionary.atoms @ code) ** 2))
    return total / signals.shape[1]


class TestArgumentChecks:
    """Each setting is checked once: the layer's by `LayerConfig`, the
    iteration count by `train`, the signals and seed by `init_dictionary`."""

    LAYER = LayerConfig(codebook_size=4, sparsity=1)

    def test_train_rejects_non_finite_signals(self):
        with pytest.raises(InvalidInputError, match="non-finite"):
            train(np.array([[1.0, np.nan]]), self.LAYER, 1)

    def test_train_rejects_one_dimensional_signals(self):
        with pytest.raises(InvalidInputError, match="2-D matrix, got shape \\(3,\\)"):
            train(np.ones(3), self.LAYER, 1)

    def test_train_rejects_zero_iterations(self):
        with pytest.raises(InvalidInputError, match="iterations must be >= 1, got 0"):
            train(np.eye(4), self.LAYER, 0)

    def test_train_rejects_negative_seed(self):
        with pytest.raises(InvalidInputError, match="seed must be >= 0, got -1"):
            train(np.eye(4), self.LAYER, 1, seed=-1)

    def test_layer_rejects_one_atom(self):
        with pytest.raises(InvalidInputError, match="codebook_size must be >= 2, got 1"):
            LayerConfig(codebook_size=1, sparsity=1)

    def test_layer_rejects_zero_sparsity(self):
        with pytest.raises(InvalidInputError, match="sparsity must be >= 1, got 0"):
            LayerConfig(codebook_size=4, sparsity=0)


class TestInitDictionary:
    def test_full_sample_is_permutation_of_unit_columns(self):
        rng = np.random.default_rng(1)
        signals = rng.standard_normal((6, 8))
        signals /= np.linalg.norm(signals, axis=0)
        atoms = init_dictionary(signals, 8, seed=42).atoms
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
        a = init_dictionary(signals, 6, seed=9).atoms
        b = init_dictionary(signals, 6, seed=9).atoms
        assert a.tobytes() == b.tobytes()

    def test_zero_column_replaced_by_unit_vector(self):
        signals = np.eye(4)
        signals[:, 2] = 0.0
        atoms = init_dictionary(signals, 4, seed=3).atoms
        npt.assert_allclose(np.linalg.norm(atoms, axis=0), 1.0, atol=1e-9)

    def test_small_training_set_warns_and_samples_with_replacement(self, caplog):
        rng = np.random.default_rng(4)
        signals = rng.standard_normal((5, 3))
        atoms = init_dictionary(signals, 6, seed=5).atoms
        assert [r.levelno for r in caplog.records if r.name == "hmpsearch"] == [logging.WARNING]
        assert atoms.shape == (5, 6)
        npt.assert_allclose(np.linalg.norm(atoms, axis=0), 1.0, atol=1e-9)


class TestTrain:
    def test_empty_training_set_rejected(self):
        with pytest.raises(InvalidInputError, match="training set is empty"):
            train(np.empty((5, 0)), LayerConfig(codebook_size=4, sparsity=1), 1)

    def test_small_training_set_warns_once(self, caplog):
        signals = np.random.default_rng(4).standard_normal((5, 3))
        train(signals, LayerConfig(codebook_size=6, sparsity=1), 1, seed=5)
        assert [r.levelno for r in caplog.records if r.name == "hmpsearch"] == [logging.WARNING]

    def test_training_lowers_error_of_large_codebook(self):
        # K >> D at sparsity 1, where greedy coding is exact: the first coding
        # pass scores the initial codebook, and no K-SVD step raises the
        # objective, so the trained codebook codes no worse than the initial one
        signals = np.random.default_rng(13).standard_normal((9, 600))
        trained, trace = train(signals, LayerConfig(codebook_size=64, sparsity=1), 4)
        assert np.all(np.diff(trace) <= 1e-6)
        initial = init_dictionary(signals, 64)
        assert reconstruction_error(signals, trained, 1) <= reconstruction_error(
            signals, initial, 1
        )

    def test_identity_case_reconstructs_exactly(self):
        # every signal becomes its own atom, so one coding pass already
        # reaches (near) zero error
        rng = np.random.default_rng(8)
        signals = rng.standard_normal((6, 6))
        _, trace = train(signals, LayerConfig(codebook_size=6, sparsity=1), 1, seed=8)
        assert len(trace) == 1
        assert trace[0] <= 1e-18

    def test_trace_non_increasing(self):
        rng = np.random.default_rng(9)
        for seed in range(6):
            dim = int(rng.integers(5, 10))
            size = int(rng.integers(dim, dim + 6))
            count = int(rng.integers(4 * size, 6 * size))
            signals = rng.standard_normal((dim, count))
            layer = LayerConfig(codebook_size=size, sparsity=int(rng.integers(1, 4)))
            _, trace = train(signals, layer, 8, seed=seed)
            assert len(trace) == 8
            diffs = np.diff(trace)
            assert np.all(diffs <= 1e-6), f"seed {seed}: trace increased by {diffs.max()}"

    def test_atoms_unit_norm_every_iteration(self):
        rng = np.random.default_rng(10)
        signals = rng.standard_normal((6, 60))
        for iterations in (1, 2, 5):
            layer = LayerConfig(codebook_size=10, sparsity=2)
            dictionary, _ = train(signals, layer, iterations, seed=1)
            npt.assert_allclose(np.linalg.norm(dictionary.atoms, axis=0), 1.0, atol=1e-9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        signals = rng.standard_normal((5, 40))
        layer = LayerConfig(codebook_size=8, sparsity=2)
        d1, t1 = train(signals, layer, 4, seed=77)
        d2, t2 = train(signals, layer, 4, seed=77)
        assert d1.atoms.tobytes() == d2.atoms.tobytes()
        assert t1 == t2

    def test_planted_dictionary_recovered(self):
        atoms = packed_dictionary(seed=0)
        signals = planted_signals(atoms, seed=0)
        dictionary, trace = train(signals, LayerConfig(codebook_size=12, sparsity=2), 30)
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
        dictionary, _ = train(signals, LayerConfig(codebook_size=4, sparsity=1), 1, seed=2)
        err = reconstruction_error(signals, dictionary, 1)
        # the outlier is only reconstructable if some atom was reassigned
        assert err < 0.1
        npt.assert_allclose(np.linalg.norm(dictionary.atoms, axis=0), 1.0, atol=1e-9)


class TestSparseCodes:
    """`train` keeps each signal's code as s (atom, coefficient) slots and
    sums every reconstruction elementwise; `ksvd_dense` keeps a dense K x N
    code matrix and reconstructs by BLAS products."""

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 30),
        size=st.integers(2, 40),
        distinct=st.integers(1, 12),
        count=st.one_of(st.integers(1, 60), st.integers(CODE_CHUNK - 1, CODE_CHUNK + 40)),
        order=st.sampled_from("CF"),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_dense_oracle_at_sparsity_one(self, dim, size, distinct, count, order, seed):
        # repeated signals, a zero signal and codebooks larger than the number
        # of distinct signals leave atoms unused, which then take over the
        # worst-coded signal; the command line passes either memory layout
        rng = np.random.default_rng(seed)
        pool = rng.standard_normal((dim, distinct))
        pool[:, 0] = 0.0
        repeated = rng.random(count) < 0.5
        copies = pool[:, rng.integers(0, distinct, count)]
        signals = np.where(repeated, copies, rng.standard_normal((dim, count)))
        signals = np.asarray(signals, order=order)
        layer = LayerConfig(codebook_size=size, sparsity=1)
        sparse, _ = train(signals, layer, 2, seed=seed % 1000)
        dense, _ = ksvd_dense(signals, layer, 2, seed=seed % 1000)
        assert sparse.atoms.tobytes() == dense.atoms.tobytes()

    @pytest.mark.parametrize("sparsity", range(2, 7))
    def test_matches_dense_oracle_above_sparsity_one(self, sparsity):
        # only the rounding of each reconstruction differs
        rng = np.random.default_rng(sparsity)
        signals = rng.standard_normal((16, 700))
        layer = LayerConfig(codebook_size=24, sparsity=sparsity)
        sparse, trace = train(signals, layer, 4, seed=sparsity)
        dense, _ = ksvd_dense(signals, layer, 4, seed=sparsity)
        npt.assert_allclose(sparse.atoms, dense.atoms, rtol=0, atol=1e-10)
        assert np.all(np.diff(trace) <= 1e-6)

    def test_codebook_does_not_depend_on_blas_threads(self):
        code = """
import hashlib
import numpy as np
from hmpsearch import LayerConfig, train
for seed in range(4):
    signals = np.random.default_rng(seed).standard_normal((88, 3628))
    dictionary, _ = train(signals, LayerConfig(84, 6), 2, 5)
    print(hashlib.sha256(dictionary.atoms.tobytes()).hexdigest())
"""
        digests = outputs_under_blas_threads(code)
        assert len(digests[0].split()) == 4
        assert digests[0] == digests[1]

    def test_memory_follows_the_nonzeros(self):
        # dense K x N codes alone would take 256 * 20000 * 8 bytes = 41 MB
        signals = np.random.default_rng(0).standard_normal((25, 20000))
        tracemalloc.start()
        try:
            train(signals, LayerConfig(codebook_size=256, sparsity=1), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestKeptResidual:
    """`train` keeps R = Y - A X in one array across both passes; after each
    pass it must equal, bit for bit, the slot-by-slot rebuild from the codes,
    or the codebook bytes would depend on how it was kept."""

    @pytest.mark.parametrize("sparsity", range(1, 7))
    @pytest.mark.parametrize("count", [1, 60, CODE_CHUNK + 1])
    @pytest.mark.parametrize("order", "CF")
    def test_equals_a_rebuild_after_every_pass(self, sparsity, count, order):
        # mostly copies of three signals, one of them zero: the initial
        # codebook repeats atoms, which coding then leaves unused
        rng = np.random.default_rng(sparsity * 10 + count)
        pool = rng.standard_normal((12, 3))
        pool[:, 0] = 0.0
        copies = pool[:, rng.integers(0, 3, count)]
        signals = np.where(rng.random(count) < 0.8, copies, rng.standard_normal((12, count)))
        signals = np.asarray(signals, order=order)
        layer, iterations, seed = LayerConfig(codebook_size=24, sparsity=sparsity), 3, sparsity
        atoms = np.array(init_dictionary(signals, layer.codebook_size, seed).atoms)
        trained, trace = train(signals, layer, iterations, seed)
        slots = (count, min(sparsity, *atoms.shape))
        support, coef = np.zeros(slots, dtype=np.intp), np.zeros(slots)
        residual = _residual(signals, atoms, support, coef)
        update_rng = np.random.default_rng(seed)
        fresh_trace, unused = [], 0
        for _ in range(iterations):
            _code_pass(signals, atoms, support, coef, residual)
            assert residual.tobytes() == _residual(signals, atoms, support, coef).tobytes()
            unused += layer.codebook_size - np.unique(support[coef != 0.0]).size
            _update_pass(signals, atoms, support, coef, residual, update_rng)
            fresh = _residual(signals, atoms, support, coef)
            assert residual.flags.c_contiguous
            assert residual.tobytes() == fresh.tobytes()
            fresh_trace.append(float(np.sum(np.square(np.linalg.norm(fresh, axis=0)))))
        assert unused > 0
        assert trace == fresh_trace
        assert trained.atoms.tobytes() == atoms.tobytes()
