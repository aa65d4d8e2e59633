"""Retrieval quality metrics: per-query average precision and its mean.

Average precision of one ranked list sums precision-at-r over the ranks r
holding relevant items and divides by the total number of relevant items, so
relevant items that never appear contribute zero. Evaluation runs every
ground-truth query against the index with self-exclusion always on, since a
query image stored in the corpus must not count as its own hit.
The ground truth is a file of `hmpsearch.files` tab records.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import InvalidInputError, MissingQueryError
from .files import tab_records, write_file
from .index import InvertedIndex, query

GroundTruth = dict[str, set[str]]


@dataclass
class EvalReport:
    """Per-query average precisions (ordered by query id) and their mean."""

    per_query: list[tuple[str, float, float]]
    mean_ap: float
    config_fingerprint: str = ""


def average_precision(ranked, relevant) -> float:
    """AP of a ranked id list against a set of relevant ids."""
    relevant = set(relevant)
    if not relevant:
        raise InvalidInputError("relevant set must not be empty")
    ranked = list(ranked)
    if len(set(ranked)) != len(ranked):
        raise InvalidInputError("ranked list contains duplicate ids")
    hits = 0
    total = 0.0
    for rank, image_id in enumerate(ranked, start=1):
        if image_id in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


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
    total = 0.0
    for qid in sorted(gt):
        start = time.perf_counter()
        ranked = query(index, descriptors[qid], None, self_exclude=True)
        elapsed = time.perf_counter() - start
        ap = average_precision([image_id for image_id, _ in ranked], gt[qid])
        per_query.append((qid, ap, elapsed))
        total += ap
    return EvalReport(per_query, total / len(per_query), config_fingerprint)


def write_report(report: EvalReport, path) -> None:
    """One `id AP seconds` line per query, then a `mAP <value>` summary."""
    lines = [f"# config {report.config_fingerprint}"] if report.config_fingerprint else []
    lines += [f"{qid}\t{ap:.6f}\t{elapsed:.6f}" for qid, ap, elapsed in report.per_query]
    lines.append(f"mAP {report.mean_ap:.6f}")
    write_file(path, "evaluation report", ("\n".join(lines) + "\n").encode())
