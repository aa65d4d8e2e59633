"""Retrieval quality metrics: per-query average precision and its mean.

Average precision of one ranked list sums precision-at-r over the ranks r
holding relevant items and divides by the total number of relevant items, so
relevant items that never appear contribute zero. Evaluation runs every
ground-truth query against the index with self-exclusion on by default,
since a query image stored in the corpus must not count as its own hit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import DecodeError, InvalidInputError, MissingQueryError
from .index import InvertedIndex, query

GroundTruth = dict[str, set[str]]


@dataclass
class EvalReport:
    """Per-query average precisions (ordered by query id) and their mean."""

    per_query: list[tuple[str, float, float]]
    mean_ap: float
    config_fingerprint: str = ""
    query_times: list[float] = field(init=False)

    def __post_init__(self):
        self.query_times = [t for _, _, t in self.per_query]


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                if "\t" not in line:
                    raise InvalidInputError(
                        f"{path}:{lineno}: expected '<query><TAB><relevant,...>', got {line!r}"
                    )
                query_id, rest = line.split("\t", 1)
                query_id = query_id.strip()
                relevant = {tok.strip() for tok in rest.split(",") if tok.strip()}
                if not query_id or not relevant:
                    raise InvalidInputError(f"{path}:{lineno}: empty query id or relevant set")
                if query_id in relevant:
                    raise InvalidInputError(
                        f"{path}:{lineno}: query {query_id!r} lists itself as relevant"
                    )
                if query_id in gt:
                    raise InvalidInputError(f"{path}:{lineno}: duplicate query id {query_id!r}")
                gt[query_id] = relevant
    except OSError as exc:
        raise DecodeError(f"cannot read ground truth {path}: {exc}") from exc
    return gt


def evaluate(
    index,
    descriptors,
    gt: GroundTruth,
    self_exclude: bool = True,
    config_fingerprint: str = "",
) -> EvalReport:
    """Run every ground-truth query and report AP per query plus the mean.

    `index` is an InvertedIndex, or any callable with the signature
    (descriptor, top_k, self_exclude) -> ranked (id, score) list, which lets
    a brute-force scanner stand in for the inverted file.
    `descriptors` maps image id to descriptor.
    """
    if isinstance(index, InvertedIndex):
        searcher = lambda q, k, excl: query(index, q, k, excl)  # noqa: E731
    elif callable(index):
        searcher = index
    else:
        raise InvalidInputError("index must be an InvertedIndex or a searcher callable")
    if not gt:
        raise InvalidInputError("ground truth lists no queries")
    missing = [qid for qid in gt if qid not in descriptors]
    if missing:
        raise MissingQueryError(missing)
    per_query: list[tuple[str, float, float]] = []
    total = 0.0
    for qid in sorted(gt):
        start = time.perf_counter()
        ranked = searcher(descriptors[qid], None, self_exclude)
        elapsed = time.perf_counter() - start
        ap = average_precision([image_id for image_id, _ in ranked], gt[qid])
        per_query.append((qid, ap, elapsed))
        total += ap
    return EvalReport(per_query, total / len(per_query), config_fingerprint)


def write_report(report: EvalReport, path) -> None:
    """One `id AP seconds` line per query, then a `mAP <value>` summary."""
    with open(path, "w", encoding="utf-8") as fh:
        if report.config_fingerprint:
            fh.write(f"# config {report.config_fingerprint}\n")
        for qid, ap, elapsed in report.per_query:
            fh.write(f"{qid}\t{ap:.6f}\t{elapsed:.6f}\n")
        fh.write(f"mAP {report.mean_ap:.6f}\n")
