"""Per-layer metrics, computed from the spans of a traced run.

Each metric is named ``<module>.<function>.<stat>`` after the hmpsearch
function whose calls it summarises, or ``cli.<stage>.<stat>`` for a whole
CLI stage. Next to each is the end-to-end metric it should move and the
workload it moves it on (see BENCHMARK.json for the workloads). A function
that is never called in a workload reports zero calls and zero time.
"""

from __future__ import annotations

import numpy as np

# name, unit, which direction is better, the end-to-end metric it should
# move, and the workload it moves it on
PER_LAYER = [
    ("cli.train_dict.wall_s", "s", "lower", "pipeline_s", "hmp-pipeline, bof-idf"),
    ("cli.encode.images_per_s", "1/s", "higher", "pipeline_s", "hmp-pipeline, bof-idf"),
    ("cli.build_index.wall_s", "s", "lower", "pipeline_s", "search-10k"),
    ("cli.evaluate.wall_s", "s", "lower", "pipeline_s", "search-10k, bof-idf"),
    ("images.load_image.calls", "count", "lower", "pipeline_s (train-dict, encode)", "bof-idf"),
    ("images.load_image.self_s", "s", "lower", "pipeline_s (train-dict, encode)", "bof-idf"),
    ("images.extract_patches.calls", "count", "lower", "pipeline_s (train-dict, encode)", "bof-idf"),
    ("images.extract_patches.self_s", "s", "lower", "pipeline_s (train-dict, encode)", "bof-idf"),
    ("images.assign_to_cells.calls", "count", "lower", "pipeline_s (encode)", "hmp-pipeline"),
    ("images.assign_to_cells.self_s", "s", "lower", "pipeline_s (encode)", "hmp-pipeline"),
    ("coding.omp_encode.calls", "count", "lower", "pipeline_s (train-dict, encode)", "hmp-pipeline; train-dict on bof-idf"),
    ("coding.omp_encode.self_s", "s", "lower", "pipeline_s (train-dict, encode)", "hmp-pipeline; train-dict on bof-idf"),
    ("coding.omp_encode.mean_us", "us", "lower", "pipeline_s (train-dict, encode)", "hmp-pipeline"),
    ("coding.omp_encode.early_stop_ratio", "ratio", "higher", "pipeline_s (train-dict, encode)", "hmp-pipeline"),
    ("coding.vq_encode.calls", "count", "lower", "pipeline_s (encode)", "bof-idf"),
    ("coding.vq_encode.self_s", "s", "lower", "pipeline_s (encode)", "bof-idf"),
    ("dictionary.train.calls", "count", "lower", "pipeline_s (train-dict)", "hmp-pipeline, bof-idf"),
    ("dictionary.train.self_s", "s", "lower", "pipeline_s (train-dict)", "hmp-pipeline, bof-idf"),
    ("dictionary.train.omp_calls_per_signal_iter", "ratio", "lower", "pipeline_s (train-dict)", "hmp-pipeline, bof-idf"),
    ("encoder.encode_image.calls", "count", "lower", "pipeline_s (encode)", "hmp-pipeline"),
    ("encoder.encode_image.p50_ms", "ms", "lower", "pipeline_s (encode)", "hmp-pipeline"),
    ("encoder.encode_image.max_ms", "ms", "lower", "pipeline_s (encode)", "hmp-pipeline"),
    ("encoder.encode_layer.calls", "count", "lower", "pipeline_s (train-dict, encode)", "hmp-pipeline"),
    ("encoder.encode_layer.self_s", "s", "lower", "pipeline_s (train-dict, encode)", "hmp-pipeline"),
    ("encoder.signed_max_pool.calls", "count", "lower", "pipeline_s (train-dict, encode)", "hmp-pipeline"),
    ("encoder.signed_max_pool.self_s", "s", "lower", "pipeline_s (train-dict, encode)", "hmp-pipeline"),
    ("encoder.pyramid_pool.calls", "count", "lower", "pipeline_s (encode)", "hmp-pipeline"),
    ("encoder.pyramid_pool.self_s", "s", "lower", "pipeline_s (encode)", "hmp-pipeline"),
    ("encoder.encode_image_bof.calls", "count", "lower", "pipeline_s (encode)", "bof-idf"),
    ("encoder.encode_image_bof.self_s", "s", "lower", "pipeline_s (encode)", "bof-idf"),
    ("encoder.save_descriptor.calls", "count", "lower", "pipeline_s (encode); setup_s on search-10k", "bof-idf, search-10k"),
    ("encoder.save_descriptor.self_s", "s", "lower", "pipeline_s (encode); setup_s on search-10k", "bof-idf, search-10k"),
    ("encoder.load_descriptor.calls", "count", "lower", "pipeline_s (build-index, evaluate)", "search-10k"),
    ("encoder.load_descriptor.self_s", "s", "lower", "pipeline_s (build-index, evaluate)", "search-10k"),
    ("index.index_add.calls", "count", "lower", "pipeline_s (build-index)", "search-10k"),
    ("index.index_add.self_s", "s", "lower", "pipeline_s (build-index)", "search-10k"),
    ("index.save_index.self_s", "s", "lower", "pipeline_s (build-index)", "search-10k"),
    ("index.save_index.bytes", "bytes", "lower", "pipeline_s (build-index)", "search-10k"),
    ("index.apply_idf.self_s", "s", "lower", "pipeline_s (build-index)", "bof-idf"),
    ("index.load_index.self_s", "s", "lower", "pipeline_s (evaluate)", "search-10k"),
    ("index.query.calls", "count", "lower", "query latency, pipeline_s (evaluate)", "search-10k"),
    ("index.query.p50_ms", "ms", "lower", "query latency, pipeline_s (evaluate)", "search-10k"),
    ("index.query.p99_ms", "ms", "lower", "query latency", "search-10k"),
    ("index.query.candidates_mean", "count", "lower", "query latency, pipeline_s (evaluate)", "search-10k"),
    ("evaluation.evaluate.map", "ratio", "higher", "retrieval quality, unchanged by a pure speed-up", "all"),
    ("evaluation.evaluate.self_s", "s", "lower", "pipeline_s (evaluate)", "search-10k, bof-idf"),
    ("evaluation.average_precision.calls", "count", "lower", "pipeline_s (evaluate)", "search-10k, bof-idf"),
    ("evaluation.average_precision.self_s", "s", "lower", "pipeline_s (evaluate)", "search-10k, bof-idf"),
]

TRACED = sorted({name.rsplit(".", 1)[0] for name, *_ in PER_LAYER if not name.startswith("cli.")})


def _by_name(spans):
    groups: dict[str, list] = {}
    for span in spans:
        groups.setdefault(span.name, []).append(span)
    return groups


def _train_omp_ratio(spans) -> float:
    """omp_encode calls made inside train, per training signal and iteration."""
    inside = 0
    for span in spans:
        if span.name != "coding.omp_encode":
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name != "dictionary.train":
            parent = spans[parent].parent
        inside += parent >= 0
    signal_iters = sum(s.note or 0 for s in spans if s.name == "dictionary.train")
    return inside / signal_iters if signal_iters else 0.0


def per_layer_metrics(spans, images: int) -> dict[str, float]:
    """Value of every PER_LAYER metric; `images` are those `encode` coded."""
    groups = _by_name(spans)
    out: dict[str, float] = {}
    for name, *_ in PER_LAYER:
        func, stat = name.rsplit(".", 1)
        calls = groups.get(func, [])
        durations = np.array([s.end - s.start for s in calls])
        notes = [s.note for s in calls if s.note is not None]
        if stat == "calls":
            value = len(calls)
        elif stat in ("self_s", "wall_s"):
            value = sum(s.self_time if stat == "self_s" else s.end - s.start for s in calls)
        elif stat == "images_per_s":
            value = images / durations.sum() if durations.size else 0.0
        elif stat == "mean_us":
            value = durations.mean() * 1e6 if durations.size else 0.0
        elif stat in ("p50_ms", "p99_ms", "max_ms"):
            if func == "index.query":  # top-k calls; evaluate's full rankings are slower
                durations = np.array([s.end - s.start for s in calls if s.note and not s.note[1]])
            q = {"p50_ms": 50, "p99_ms": 99, "max_ms": 100}[stat]
            value = float(np.percentile(durations, q)) * 1e3 if durations.size else 0.0
        elif stat == "early_stop_ratio":
            value = sum(map(bool, notes)) / len(notes) if notes else 0.0
        elif stat == "omp_calls_per_signal_iter":
            value = _train_omp_ratio(spans)
        elif stat == "candidates_mean":
            full = [length for length, full_ranking in notes if full_ranking]
            value = sum(full) / len(full) if full else 0.0
        elif stat in ("bytes", "map"):
            value = notes[-1] if notes else 0
        else:
            raise ValueError(f"unknown stat in {name}")
        out[name] = float(value)
    return out
