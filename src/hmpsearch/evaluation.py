"""Retrieval quality metrics: per-query average precision and its mean.

Average precision of one ranked list sums precision-at-r over the ranks r
holding relevant items and divides by the total number of relevant items, so
relevant items that never appear contribute zero. Evaluation runs every
ground-truth query against the index with self-exclusion always on, since a
query image stored in the corpus must not count as its own hit; its AP is
read from the ranks of the hits among the ranked document ordinals.
The ground truth is a file of `hmpsearch.files` tab records.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, MissingQueryError
from .files import tab_records, write_file
# query is unused but stays bound: perfbench's selftest checks that its tracer patches it here
from .index import InvertedIndex, _rank, query  # noqa: F401

GroundTruth = dict[str, set[str]]


@dataclass
class EvalReport:
    """Per-query average precisions (ordered by query id) and their mean."""

    per_query: list[tuple[str, float, float]]
    mean_ap: float
    config_fingerprint: str = ""


def average_precision(ranked, relevant) -> float:
    """AP of a ranked id list against a set of relevant ids."""
    relevant, ranked = set(relevant), list(ranked)
    if len(set(ranked)) != len(ranked):
        raise InvalidInputError("ranked list contains duplicate ids")
    return _from_hits([r for r, image_id in enumerate(ranked, 1) if image_id in relevant], len(relevant))


def _from_hits(ranks, relevant: int) -> float:
    """AP from the ascending 1-based ranks of the hits, out of `relevant`."""
    if not relevant:
        raise InvalidInputError("relevant set must not be empty")
    total = 0.0
    for hits, rank in enumerate(ranks, start=1):
        total += hits / rank
    return total / relevant


def load_ground_truth(path) -> GroundTruth:
    """Parse `<query-id><TAB><relevant-id>[,<relevant-id>...]` lines."""
    gt: GroundTruth = {}
    for where, query_id, rest in tab_records(path, "ground truth"):
        relevant = {tok.strip() for tok in rest.split(",") if tok.strip()}
        if not relevant:
            raise InvalidInputError(f"{where}: empty relevant set")
        if query_id in relevant:
            raise InvalidInputError(f"{where}: query {query_id!r} lists itself as relevant")
        gt[query_id] = relevant
    return gt


def evaluate(
    index: InvertedIndex,
    descriptors,
    gt: GroundTruth,
    config_fingerprint: str = "",
) -> EvalReport:
    """Run every ground-truth query against `index` and report AP per query
    plus the mean, never counting a query as its own hit. `descriptors`
    maps image id to descriptor."""
    if not gt:
        raise InvalidInputError("ground truth lists no queries")
    missing = sorted(qid for qid in gt if qid not in descriptors)
    if missing:
        raise MissingQueryError(f"no descriptor for {len(missing)} query id(s): {', '.join(missing)}")
    per_query: list[tuple[str, float, float]] = []
    total, ordinals = 0.0, dict(zip(index.ids, range(index.doc_count)))
    for qid in sorted(gt):
        start = time.perf_counter()
        ranked, _ = _rank(index, descriptors[qid], None, True)
        elapsed = time.perf_counter() - start
        relevant = np.zeros(index.doc_count, dtype=bool)  # an id not indexed is never a hit
        relevant[[ordinals[i] for i in gt[qid] if i in ordinals]] = True
        ap = _from_hits((np.flatnonzero(relevant[ranked]) + 1).tolist(), len(gt[qid]))
        per_query.append((qid, ap, elapsed))
        total += ap
    return EvalReport(per_query, total / len(per_query), config_fingerprint)


def write_report(report: EvalReport, path) -> None:
    """One `id AP seconds` line per query, then a `mAP <value>` summary."""
    lines = [f"# config {report.config_fingerprint}"] if report.config_fingerprint else []
    lines += [f"{qid}\t{ap:.6f}\t{elapsed:.6f}" for qid, ap, elapsed in report.per_query]
    lines.append(f"mAP {report.mean_ap:.6f}")
    write_file(path, "evaluation report", ("\n".join(lines) + "\n").encode())
