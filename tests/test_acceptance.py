"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import numpy.testing as npt
import pytest

from hmpsearch import (
    ArchitectureConfig,
    IntensityImage,
    LayerConfig,
    average_precision,
    baseline_architecture,
    build_index,
    encode_image,
    encode_image_bof,
    encode_layer,
    evaluate,
    exhaustive_scan,
    extract_patches,
    l2_normalize,
    load_index,
    query,
    save_index,
    signed_max_pool,
    train,
)
from hmpsearch.cli import main as cli_main
from hmpsearch.images import unit_cells
from conftest import (
    arrangement_corpus,
    packed_dictionary,
    planted_signals,
    random_dictionary,
    texture_image,
)
from oracles import omp_one, slots


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): PASS{suffix}")


def test_criterion_1_descriptor_length_law():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    image = IntensityImage(texture_image(1, side=24))

    def single_layer_arch(pyramid):
        d = random_dictionary(rng, 25, 1000)
        layer = LayerConfig(codebook_size=1000, sparsity=4)
        return ArchitectureConfig([layer], pyramid, patch_size=5, stride=2), [d]

    desc_single = encode_image(image, *single_layer_arch([1]), "a")
    assert desc_single.length == 2000
    desc_combined = encode_image(image, *single_layer_arch([1, 2, 3]), "b")
    assert desc_combined.length == 28000
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(1, "descriptor length law", f"2000 and 28000; {elapsed:.1f}s")


def test_criterion_2_greedy_coding_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(200)
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        size = int(rng.integers(2, 9))
        d = random_dictionary(rng, dim, size)
        y = rng.standard_normal(dim)
        code = omp_one(d, y, 1)
        errs = [
            float(np.sum((y - (d.atoms[:, k] @ y) * d.atoms[:, k]) ** 2))
            for k in range(size)
        ]
        best = int(np.argmin(errs))
        assert np.flatnonzero(code).tolist() == [best]
        npt.assert_allclose(code[best], d.atoms[:, best] @ y, atol=1e-9)
        # greedy selection is prefix-consistent, so re-running with a grown
        # budget replays the same iterations for the monotonicity check
        for budget in (2, 3):
            if budget > min(dim, size):
                continue
            full = omp_one(d, y, budget)
            residual = y - d.atoms @ full
            for k in np.flatnonzero(full):
                assert abs(d.atoms[:, k] @ residual) <= 1e-8
            norms = []
            for prefix in range(1, budget + 1):
                partial = omp_one(d, y, prefix)
                norms.append(np.linalg.norm(y - d.atoms @ partial))
            assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, "greedy coding oracle", f"500 instances, budgets 1 to 3; {elapsed:.1f}s")


def test_criterion_3_trainer_descent_and_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(300)
    for problem in range(20):
        dim = int(rng.integers(5, 9))
        size = int(rng.integers(dim, dim + 5))
        count = int(rng.integers(3 * size, 5 * size))
        signals = rng.standard_normal((dim, count))
        layer = LayerConfig(codebook_size=size, sparsity=int(rng.integers(1, 4)))
        _, trace = train(signals, layer, 8, seed=problem)
        steps = np.diff(trace)
        assert np.all(steps <= 1e-6), f"problem {problem}: increase {steps.max()}"

    atoms = packed_dictionary(seed=0)
    signals = planted_signals(atoms, seed=0, sparsity=2, count=600)
    learned, trace = train(signals, LayerConfig(codebook_size=12, sparsity=2), 30)
    total = 0.0
    for i in range(signals.shape[1]):
        code = omp_one(learned, signals[:, i], 2)
        total += float(np.sum((signals[:, i] - learned.atoms @ code) ** 2))
    mean_err = total / signals.shape[1]
    assert mean_err < 1e-3
    assert np.all(np.diff(trace) <= 1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, "trainer descent and recovery", f"mean error {mean_err:.2e}; {elapsed:.1f}s")


def _random_sparse_descriptors(rng, count, length, nnz, prefix):
    from hmpsearch import ImageDescriptor

    docs = []
    for n in range(count):
        dims = np.concatenate(
            [[0], rng.choice(np.arange(1, length), size=nnz - 1, replace=False)]
        )
        dims.sort()
        vals = rng.standard_normal(nnz)
        vals[vals == 0.0] = 0.5
        docs.append(
            ImageDescriptor(f"{prefix}-{n:03d}", length, dims, l2_normalize(vals))
        )
    return docs


def test_criterion_4_index_matches_oracle(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(400)
    docs = _random_sparse_descriptors(rng, 200, 48, 12, "doc")
    queries = _random_sparse_descriptors(rng, 20, 48, 12, "query")
    idx = build_index(48, docs)

    def check(index):
        for q in queries:
            via_index = query(index, q)
            via_scan = exhaustive_scan(docs, q)
            assert [i for i, _ in via_index] == [i for i, _ in via_scan]
            npt.assert_allclose(
                [s for _, s in via_index], [s for _, s in via_scan], atol=1e-9
            )

    check(idx)
    path = tmp_path / "corpus.hmpi"
    save_index(idx, path)
    check(load_index(path))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, "inverted file equals exhaustive oracle", f"20 queries x 200 docs; {elapsed:.1f}s")


def test_criterion_5_metric_oracle():
    assert average_precision(["r1", "r2", "r3"], {"r1", "r2", "r3"}) == pytest.approx(
        1.0, abs=1e-12
    )
    assert average_precision(["x", "r"], {"r"}) == pytest.approx(0.5, abs=1e-12)
    assert average_precision(["x", "r1", "r2"], {"r1", "r2"}) == pytest.approx(
        7.0 / 12.0, abs=1e-12
    )

    from hmpsearch import ImageDescriptor

    rng = np.random.default_rng(500)
    docs = {}
    gt = {}
    for g in range(3):
        dims = np.sort(rng.choice(32, size=6, replace=False))
        vals = l2_normalize(rng.standard_normal(6))
        members = [f"g{g}m{m}" for m in range(3)]
        for member in members:
            docs[member] = ImageDescriptor(member, 32, dims, vals)
            gt[member] = set(members) - {member}
    idx = build_index(32, docs.values())
    result = evaluate(idx, docs, gt)
    assert result.mean_ap == pytest.approx(1.0, abs=1e-12)
    report(5, "metric oracle", "AP examples exact, planted clusters mAP 1.0")


def _sample_patch_columns(images, patch, stride, cap, rng):
    chunks = []
    for img in images.values():
        grid = extract_patches(img, patch, stride)
        take = min(grid.count, max(1, cap // len(images) * 2))
        picks = rng.choice(grid.count, size=take, replace=False)
        chunks.append(grid.vectors[np.sort(picks)].T)
    mat = np.concatenate(chunks, axis=1)
    if mat.shape[1] > cap:
        picks = rng.choice(mat.shape[1], size=cap, replace=False)
        mat = mat[:, np.sort(picks)]
    return mat


def _train_codebook(signals, size, sparsity, seed):
    return train(signals, LayerConfig(codebook_size=size, sparsity=sparsity), 5, seed)[0]


def _mean_ap(descriptors, gt):
    idx = build_index(next(iter(descriptors.values())).length, descriptors.values())
    return evaluate(idx, descriptors, gt).mean_ap


def _directional_run(seed, k_final=64, k1=32, patch=5, stride=1, l1=4, lf=4):
    from conftest import ARRANGEMENT_TILE

    images, gt = arrangement_corpus(1000 + seed)
    rng = np.random.default_rng(seed)
    patches = _sample_patch_columns(images, patch, stride, 1200, rng)
    layer1 = LayerConfig(codebook_size=k1, sparsity=l1, unit_size=ARRANGEMENT_TILE, cell_grid=2)
    layer1_dict = _train_codebook(patches, k1, l1, seed)
    unit_features = []
    for img in images.values():
        grid = encode_layer(extract_patches(img, patch, stride), layer1, layer1_dict)
        unit_features.append(grid.vectors.T)
    layer2_dict = _train_codebook(np.concatenate(unit_features, axis=1), k_final, lf, seed)
    geometry = dict(patch_size=patch, stride=stride)
    two_layer = ArchitectureConfig(
        [layer1, LayerConfig(codebook_size=k_final, sparsity=lf)], [1], **geometry
    )
    one_layer = ArchitectureConfig([LayerConfig(codebook_size=k_final, sparsity=lf)], [1], **geometry)
    one_dict = _train_codebook(patches, k_final, lf, seed)
    bof_dict = _train_codebook(patches, k_final, 1, seed)
    two_books, one_books = [layer1_dict, layer2_dict], [one_dict]
    two = _mean_ap({i: encode_image(img, two_layer, two_books, i) for i, img in images.items()}, gt)
    one = _mean_ap({i: encode_image(img, one_layer, one_books, i) for i, img in images.items()}, gt)
    bof_layer, bof_books = baseline_architecture(two_layer), [bof_dict]
    bof = _mean_ap(
        {i: encode_image_bof(img, bof_layer, bof_books, i) for i, img in images.items()}, gt
    )
    return two, one, bof


def test_criterion_6_depth_beats_shallow_and_bof():
    start = time.perf_counter()
    sums = np.zeros(3)
    for seed in (0, 1, 2):
        sums += np.array(_directional_run(seed))
    two, one, bof = sums / 3
    assert two > one, f"two-layer mAP {two:.4f} not above one-layer {one:.4f}"
    assert two > bof, f"two-layer mAP {two:.4f} not above baseline {bof:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(
        6,
        "two-layer beats one-layer and bag-of-features",
        f"mAP {two:.4f} vs {one:.4f} vs {bof:.4f} over 3 seeds; {elapsed:.0f}s",
    )


def test_criterion_7_full_scale_workflow_runs_unmodified(tmp_path, capsys):
    # Full-corpus benchmark numbers (thousand-image datasets, hour-scale
    # codebook training) are out of desk-test scope on purpose; this check
    # proves the same commands run that experiment unmodified once pointed
    # at such a manifest, by driving them end to end on a miniature one.
    images, gt = arrangement_corpus(7, groups=4)
    (tmp_path / "images").mkdir()
    manifest = []
    for image_id, img in images.items():
        data = np.clip(np.round(img.pixels * 255), 0, 255).astype(np.uint8)
        path = tmp_path / "images" / f"{image_id}.pgm"
        path.write_bytes(
            f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode() + data.tobytes()
        )
        manifest.append(f"{image_id}\timages/{image_id}.pgm")
    (tmp_path / "manifest.tsv").write_text("\n".join(manifest) + "\n")
    (tmp_path / "gt.tsv").write_text(
        "\n".join(f"{q}\t{','.join(sorted(rel))}" for q, rel in gt.items()) + "\n"
    )
    (tmp_path / "arch.cfg").write_text(
        "[layer1]\npatch_size = 5\nstride = 2\nunit_size = 24\ncell_grid = 2\n"
        "codebook_size = 16\nsparsity = 3\n[layer2]\ncodebook_size = 24\nsparsity = 4\n"
        "[pyramid]\ngrids = 1\n"
    )
    (tmp_path / "run.cfg").write_text(
        "[run]\nmanifest = manifest.tsv\narchitecture = arch.cfg\n"
        "dictionary_dir = dicts\ndescriptor_dir = descriptors\n"
        "index_path = corpus.hmpi\nground_truth = gt.tsv\nseed = 1\n"
        "train_iterations = 3\nsample_cap = 800\n"
    )
    cfg = str(tmp_path / "run.cfg")
    for args in (
        ["--config", cfg, "train-dict"],
        ["--config", cfg, "encode"],
        ["--config", cfg, "build-index"],
        ["--config", cfg, "evaluate"],
        ["--config", cfg, "--baseline", "train-dict"],
        ["--config", cfg, "--baseline", "encode"],
        ["--config", cfg, "--baseline", "build-index", "--idf"],
        ["--config", cfg, "--baseline", "evaluate"],
    ):
        assert cli_main(args) == 0, f"command failed: {args}"
    out = capsys.readouterr().out
    assert out.count("mAP ") == 2
    assert (tmp_path / "corpus.hmpi.report.txt").exists()
    report(
        7,
        "full-scale workflow capability",
        "all five stages ran unmodified on a miniature manifest; "
        "full-corpus figures remain out of desk-test scope",
    )


def test_criterion_8_invariant_suite():
    rng = np.random.default_rng(800)

    # pooling monotonicity and permutation invariance
    def rand_codes(n, k):
        return rng.standard_normal((n, k)) * (rng.uniform(size=(n, k)) < 0.5)

    def pool(codes):
        labels = np.zeros(codes.shape[0], dtype=np.int64)
        return signed_max_pool(*slots(codes), labels, 1, codes.shape[1])

    for _ in range(20):
        codes = rand_codes(5, 6)
        pooled = pool(codes)
        assert np.all(pool(np.vstack([codes, rand_codes(1, 6)])) >= pooled - 1e-15)
        npt.assert_array_equal(pool(codes[rng.permutation(len(codes))]), pooled)

    # unit-norm law and pipeline determinism
    d1 = random_dictionary(rng, 25, 12)
    layer1 = LayerConfig(codebook_size=12, sparsity=3, unit_size=16, cell_grid=4)
    d2 = random_dictionary(rng, 2 * 12 * 16, 10)
    arch = ArchitectureConfig(
        [layer1, LayerConfig(codebook_size=10, sparsity=3)], [1, 2], patch_size=5, stride=2
    )
    img = IntensityImage(texture_image(11, side=64))
    first = encode_image(img, arch, [d1, d2], "img")
    second = encode_image(img, arch, [d1, d2], "img")
    assert first.length == 2 * 10 * 5
    npt.assert_allclose(np.linalg.norm(first.values), 1.0, atol=1e-9)
    assert first.values.tobytes() == second.values.tobytes()

    # partition property of the cell split
    grid = extract_patches(IntensityImage(texture_image(12, side=36)), 5, 1)
    inside, labels = unit_cells(grid.centers, (36, 36), 36, 3)
    assert inside.all()
    cells = [np.flatnonzero(labels == c).tolist() for c in range(9)]
    flattened = sorted(i for cell in cells for i in cell)
    assert flattened == list(range(grid.count))

    # average-precision swap monotonicity
    for _ in range(30):
        ids = [f"i{n}" for n in range(10)]
        relevant = set(rng.choice(ids, size=3, replace=False))
        base = average_precision(ids, relevant)
        ups = [
            n
            for n in range(1, 10)
            if ids[n] in relevant and ids[n - 1] not in relevant
        ]
        if not ups:
            continue
        n = ups[0]
        swapped = list(ids)
        swapped[n - 1], swapped[n] = swapped[n], swapped[n - 1]
        assert average_precision(swapped, relevant) >= base - 1e-12

    report(8, "invariant suite", "pooling, norms, determinism, partition, AP")
