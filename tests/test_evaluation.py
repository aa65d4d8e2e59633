"""Metric tests: average precision against hand computations, mAP plumbing."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmpsearch import (
    ImageDescriptor,
    InvalidInputError,
    apply_idf,
    average_precision,
    build_index,
    evaluate,
    exhaustive_scan,
    l2_normalize,
    load_ground_truth,
    query,
    write_report,
)
from test_index_oracle import corpora, without_view


def unit_descriptor(image_id, length, pairs):
    idx, val = zip(*sorted(pairs))
    return ImageDescriptor(
        image_id, length, np.array(idx), l2_normalize(np.array(val, dtype=float))
    )


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision(["r1", "r2", "r3", "x"], {"r1", "r2", "r3"}) == 1.0

    def test_single_relevant_at_rank_two(self):
        assert average_precision(["x", "r"], {"r"}) == 0.5

    def test_hand_computed_two_of_three(self):
        ap = average_precision(["x", "r1", "r2"], {"r1", "r2"})
        assert ap == pytest.approx(7.0 / 12.0, abs=1e-12)

    def test_missing_relevant_contributes_zero(self):
        ap = average_precision(["r1", "x"], {"r1", "never-retrieved"})
        assert ap == pytest.approx(0.5, abs=1e-12)

    def test_empty_relevant_rejected(self):
        with pytest.raises(InvalidInputError):
            average_precision(["a"], set())

    def test_duplicate_ranked_ids_rejected(self):
        with pytest.raises(InvalidInputError):
            average_precision(["a", "a"], {"a"})

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ids = [f"i{n}" for n in range(10)]
            rng.shuffle(ids)
            relevant = set(rng.choice(ids, size=3, replace=False))
            ap = average_precision(ids, relevant)
            assert 0.0 <= ap <= 1.0

    def test_swapping_relevant_upward_never_decreases(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            flags = rng.uniform(size=12) < 0.4
            ids = [f"i{n}" for n in range(12)]
            relevant = {i for i, f in zip(ids, flags) if f}
            if not relevant:
                continue
            before = average_precision(ids, relevant)
            # move one relevant id up past an irrelevant neighbor
            pos = [n for n, i in enumerate(ids) if i in relevant and n > 0 and ids[n - 1] not in relevant]
            if not pos:
                continue
            n = pos[0]
            swapped = list(ids)
            swapped[n - 1], swapped[n] = swapped[n], swapped[n - 1]
            assert average_precision(swapped, relevant) >= before - 1e-12


def planted_cluster_corpus():
    """Three groups of three near-identical descriptors plus distractors."""
    rng = np.random.default_rng(2)
    docs = {}
    gt = {}
    length = 24
    for g in range(3):
        dims = rng.choice(length, size=6, replace=False)
        vals = rng.standard_normal(6)
        members = [f"g{g}m{m}" for m in range(3)]
        for member in members:
            docs[member] = unit_descriptor(member, length, zip(dims, vals))
        for member in members:
            gt[member] = set(members) - {member}
    return docs, gt


class TestEvaluate:
    def test_planted_clusters_reach_perfect_map(self):
        docs, gt = planted_cluster_corpus()
        idx = build_index(24, docs.values())
        report = evaluate(idx, docs, gt)
        assert report.mean_ap == pytest.approx(1.0, abs=1e-12)
        assert len(report.per_query) == 9

    def test_map_is_exact_mean_of_aps(self):
        docs, gt = planted_cluster_corpus()
        idx = build_index(24, docs.values())
        report = evaluate(idx, docs, gt)
        aps = [ap for _, ap, _ in report.per_query]
        assert report.mean_ap == sum(aps) / len(aps)

    def test_missing_query_descriptor_reported(self):
        docs, gt = planted_cluster_corpus()
        idx = build_index(24, docs.values())
        del docs["g0m0"]
        with pytest.raises(InvalidInputError, match=r"^no descriptor for 1 query id\(s\): g0m0$"):
            evaluate(idx, docs, gt)

    def test_empty_ground_truth_rejected(self):
        docs, _ = planted_cluster_corpus()
        idx = build_index(24, docs.values())
        with pytest.raises(InvalidInputError, match="ground truth"):
            evaluate(idx, docs, {})

    def test_unindexed_relevant_item_scores_zero(self):
        docs, gt = planted_cluster_corpus()
        idx = build_index(24, [doc for doc_id, doc in docs.items() if doc_id != "g1m2"])
        report = evaluate(idx, docs, {"g1m0": {"g1m1", "g1m2"}})
        # one of two relevant items can never be retrieved
        assert report.per_query[0][1] == pytest.approx(0.5, abs=1e-12)

    def test_insertion_order_does_not_change_map(self):
        docs, gt = planted_cluster_corpus()
        ids = list(docs)
        rng = np.random.default_rng(3)
        maps = []
        for _ in range(3):
            rng.shuffle(ids)
            idx = build_index(24, [docs[doc_id] for doc_id in ids])
            maps.append(evaluate(idx, docs, gt).mean_ap)
        assert maps[0] == maps[1] == maps[2]

    def test_exhaustive_oracle_substitution_matches(self):
        docs, gt = planted_cluster_corpus()
        idx = build_index(24, docs.values())
        total = 0.0
        for qid in sorted(gt):
            ranked = exhaustive_scan(list(docs.values()), docs[qid], None, True)
            total += average_precision([image_id for image_id, _ in ranked], gt[qid])
        assert evaluate(idx, docs, gt).mean_ap == total / len(gt)


@settings(max_examples=80, deadline=None)
@given(
    corpus=st.one_of(corpora(), corpora(max_dimension=48)),
    weighted=st.booleans(),
    view=st.booleans(),
    data=st.data(),
)
def test_each_ap_is_average_precision_of_the_query_ranking_bitwise(corpus, weighted, view, data):
    # corpora reach both sides of the dense-view rule, and `view` off sends
    # a dense index down the bincount path too; relevant ids may be missing
    # from the index, and queries may be unindexed or share no dimension
    dimension, docs, queries = corpus
    idx = build_index(dimension, docs)
    idx = apply_idf(idx) if weighted else idx
    idx = idx if view else without_view(idx)
    queries = queries + [
        ImageDescriptor("~unindexed", dimension, docs[0].indices, docs[0].values),
        ImageDescriptor("~empty", dimension, [], []),
    ]
    descriptors = {q.image_id: q for q in queries}
    pool = [doc.image_id for doc in docs] + ["~absent", "~missing"]
    gt = {qid: set(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))) for qid in descriptors}
    report = evaluate(idx, descriptors, gt)
    assert [qid for qid, _, _ in report.per_query] == sorted(gt)
    for qid, ap, _ in report.per_query:
        ranked = [image_id for image_id, _ in query(idx, descriptors[qid], None, True)]
        assert struct.pack("<d", ap) == struct.pack("<d", average_precision(ranked, gt[qid]))


class TestGroundTruthFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("q1\ta,b\nq2\tc\n")
        gt = load_ground_truth(path)
        assert gt == {"q1": {"a", "b"}, "q2": {"c"}}

    def test_byte_order_mark_is_not_part_of_the_first_query(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_bytes(b"\xef\xbb\xbfq1\ta,b\nq2\tc\n")
        assert load_ground_truth(path) == {"q1": {"a", "b"}, "q2": {"c"}}

    def test_rejects_self_reference(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("q1\tq1,b\n")
        with pytest.raises(InvalidInputError):
            load_ground_truth(path)

    def test_rejects_empty_relevant(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("q1\t , \n")
        with pytest.raises(InvalidInputError):
            load_ground_truth(path)

    def test_rejects_duplicate_query(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("q1\ta\nq1\tb\n")
        with pytest.raises(InvalidInputError):
            load_ground_truth(path)

    def test_rejects_blank_field_after_the_tab(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("a\t   \n")
        with pytest.raises(InvalidInputError, match="empty id or empty field") as err:
            load_ground_truth(path)
        assert f"{path}:1" in str(err.value)


class TestReportFile:
    def test_written_lines(self, tmp_path):
        docs, gt = planted_cluster_corpus()
        idx = build_index(24, docs.values())
        report = evaluate(idx, docs, gt, config_fingerprint="abc123")
        path = tmp_path / "report.txt"
        write_report(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# config abc123"
        assert len(lines) == 1 + 9 + 1
        assert lines[-1].startswith("mAP ")
        assert float(lines[-1].split()[1]) == pytest.approx(1.0, abs=1e-6)
