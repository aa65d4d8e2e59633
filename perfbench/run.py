"""Benchmark of the hmpsearch train -> encode -> index -> evaluate pipeline.

One workload per process:

    python3 perfbench/run.py --workload hmp-pipeline --seed 0 --seconds 3 --trace 0

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer ones from
spans recorded around every traced hmpsearch function. Without
``--workload`` it runs every workload untraced and then traced, each in its
own process, checks that both produce the same output fingerprint, and
reports the tracing overhead.

The benchmark calls only ``hmpsearch.cli.main`` and the package's public
functions, imports the corpus builders of ``tests/conftest.py``, and works
in ``.perfbench/`` at the checkout root. Queries run as a closed loop with
one client: each call waits for its answer.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
MIN_QUERIES = 1000
QUERY_SAMPLE = 200  # distinct query descriptors cycled by the query loop
EXHAUSTIVE_SAMPLE = 20  # queries whose top-10 is compared with exhaustive_scan
QUERY_TOP_K = 10

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import hmpsearch from this checkout's src/ and the test corpus builders."""
    src = os.path.join(ROOT, "src")
    conftest = os.path.join(ROOT, "tests", "conftest.py")
    if not os.path.isdir(os.path.join(src, "hmpsearch")) or not os.path.isfile(conftest):
        raise BenchError(f"no hmpsearch sources or tests/conftest.py under {ROOT}")
    sys.path.insert(0, src)
    import hmpsearch
    import hmpsearch.cli

    if not os.path.abspath(hmpsearch.__file__).startswith(src + os.sep):
        raise BenchError(f"hmpsearch imported from {hmpsearch.__file__}, not {src}")
    spec = importlib.util.spec_from_file_location("hmpsearch_test_corpus", conftest)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return hmpsearch, corpus


def machine_record() -> dict:
    import scipy

    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        record["blas"] = "unknown"
    record["blas_threads"] = blas_threads(numpy)
    return record


def blas_threads(numpy):
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


class Ops:
    """Counts operations (CLI stages, queries, output checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def attempt(self, name: str, fn, *args):
        """Run fn(*args) as one operation; None if it raised."""
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.check(name, False, f"{type(exc).__name__}: {exc}")
            return None
        self.check(name, True)
        return result


def fingerprint(work: str, index_path: str) -> str:
    """sha256 over codebooks, descriptors and the index, in a fixed order."""
    files = []
    for sub, ext in (("dicts", ".hmpd"), ("descriptors", ".hmpv")):
        folder = os.path.join(work, sub)
        if os.path.isdir(folder):
            files += [os.path.join(folder, n) for n in sorted(os.listdir(folder)) if n.endswith(ext)]
    if os.path.exists(index_path):
        files.append(index_path)
    digest = hashlib.sha256()
    for path in files:
        digest.update(os.path.relpath(path, work).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\0")
    return digest.hexdigest()


def percentile_ms(samples, q: float) -> float:
    return float(numpy.percentile(numpy.asarray(samples), q)) * 1e3


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process and return its full result."""
    workload = WORKLOADS[name]
    hp, corpus = import_program()
    import_s = time.perf_counter() - PROCESS_START
    tracer = Tracer() if trace else None
    absent = tracer.install(layers.TRACED) if tracer else []
    call = tracer.call if tracer else (lambda _name, fn, *args: fn(*args))
    os.makedirs(STATE, exist_ok=True)
    work_root = os.path.join(STATE, f"work-{name}-{seed}-{os.getpid()}")
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            work = os.path.join(work_root, f"inputs{rep}")
            start = time.perf_counter()
            os.makedirs(work)
            ids = workload.write_inputs(work, seed, hp, corpus)
            setup_times.append(time.perf_counter() - start)
            if rep:
                shutil.rmtree(os.path.join(work_root, f"inputs{rep - 1}"))
        # flush the written inputs so that write-back does not overlap the timed stages
        os.sync()
        result = _run_stages(workload, work, ids, seconds, hp, call)
        result["fingerprint"] = fingerprint(work, os.path.join(work, "corpus.hmpi"))
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work_root, ignore_errors=True)
    ops = result.pop("ops")
    result["e2e"]["setup_s"] = import_s + statistics.median(setup_times)
    result["e2e"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(
        workload=name,
        seed=seed,
        trace=int(trace),
        attempted=ops.attempted,
        failed=ops.failed,
        error_rate=ops.failed / max(ops.attempted, 1),
        failures=ops.failures,
        import_s=import_s,
        setup_repeats_s=setup_times,
        machine=machine_record(),
        absent=absent,
        waiting_s="zero by construction: one thread, no queue",
    )
    if tracer:
        images = len(ids) if workload.images else 0
        result["per_layer"] = layers.per_layer_metrics(tracer.spans, images)
        result["spans"] = len(tracer.spans)
        os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
        tracer.write(os.path.join(STATE, "results", f"{name}-spans.tsv"))
    return result


def _run_stages(workload, work, ids, seconds, hp, call) -> dict:
    ops = Ops()
    config = os.path.join(work, "run.cfg")
    stage_s: dict[str, float] = {}
    printed = {}
    for stage, argv in workload.stages(config):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = ops.attempt(stage, call, "cli." + stage.replace("-", "_"), hp.cli.main, argv)
        stage_s[stage] = time.perf_counter() - start
        printed[stage] = out.getvalue()
        if rc is not None:
            ops.check(f"{stage} exit code", rc == 0, f"returned {rc}")
    e2e = {"pipeline_s": sum(stage_s.values())}
    report = {f"{s.replace('-', '_')}_s": t for s, t in stage_s.items()}
    if workload.images:
        report["encode_images_per_s"] = len(ids) / stage_s["encode"]
    report["docs"] = len(ids)

    # every corpus item has exactly one descriptor, and each has unit norm
    folder = os.path.join(work, "descriptors")
    names = sorted(os.listdir(folder)) if os.path.isdir(folder) else []
    descriptors = {}
    for file_name in names:
        try:
            desc = hp.load_descriptor(os.path.join(folder, file_name))
            norm = float((desc.values**2).sum()) ** 0.5
            ok, detail = abs(norm - 1.0) <= 1e-9, f"norm {norm}"
        except Exception as exc:  # a broken file fails its check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if ops.check(f"descriptor {file_name} loads with unit norm", ok, detail):
            descriptors[desc.image_id] = desc
    ops.check("one descriptor per corpus item", sorted(descriptors) == sorted(ids),
              f"{len(descriptors)} valid descriptors for {len(ids)} items")

    # the printed mAP is the report's and above zero
    report_map = None
    report_path = os.path.join(work, "report.txt")
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            last = fh.read().strip().splitlines()[-1:]
        report_map = last[0].split()[1] if last and last[0].startswith("mAP ") else None
    tokens = printed.get("evaluate", "").split()
    printed_map = tokens[tokens.index("mAP") + 1] if "mAP" in tokens[:-1] else None
    ops.check("printed mAP equals report", printed_map is not None and printed_map == report_map,
              f"printed {printed_map}, report {report_map}")
    mean_ap = float(printed_map) if printed_map is not None else 0.0
    ops.check("mAP above zero", mean_ap > 0.0, f"mAP {mean_ap}")
    report["map"] = mean_ap

    idx = ops.attempt("load index", hp.load_index, os.path.join(work, "corpus.hmpi"))
    queries = [descriptors[i] for i in sorted(descriptors)]
    order = numpy.random.default_rng(len(ids)).permutation(len(queries))[:QUERY_SAMPLE]
    queries = [queries[i] for i in order]
    if idx is None or not queries:
        ops.check("query loop", False, "no index or no query descriptors")
        return dict(ops=ops, e2e=e2e, report=report)

    if workload.exhaustive_check:
        corpus_descs = list(descriptors.values())
        for q in queries[:EXHAUSTIVE_SAMPLE]:
            got = ops.attempt("query", call, "index.query", hp.query, idx, q, QUERY_TOP_K, True)
            want = hp.exhaustive_scan(corpus_descs, q, QUERY_TOP_K, True)
            ops.check(f"query top-{QUERY_TOP_K} equals exhaustive scan for {q.image_id}",
                      got is not None and [d for d, _ in got] == [d for d, _ in want])

    latencies = []
    nonempty = 0
    deadline = time.perf_counter() + seconds
    n = 0
    while n < MIN_QUERIES or time.perf_counter() < deadline:
        q = queries[n % len(queries)]
        n += 1
        start = time.perf_counter()
        ranked = ops.attempt("query", call, "index.query", hp.query, idx, q, QUERY_TOP_K, True)
        latencies.append(time.perf_counter() - start)
        nonempty += bool(ranked)
    if workload.idf:
        ops.check("IDF index keeps a posting list", nonempty > 0, "every query ranked nothing")
    report["query_p50_ms"] = percentile_ms(latencies, 50)
    report["query_p99_ms"] = percentile_ms(latencies, 99)
    report["query_calls"] = len(latencies)
    return dict(ops=ops, e2e=e2e, report=report)


def contract_line(result: dict) -> str:
    if result["trace"]:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, *_ in layers.PER_LAYER}
    else:
        metrics = {name: {"value": result["e2e"][name], "unit": unit}
                   for name, unit in END_TO_END.items() if name in result["e2e"]}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def report_unit(name: str) -> str:
    for suffix, unit in (("per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("map", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def print_report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    rows = [(k, v, END_TO_END[k]) for k, v in result["e2e"].items()]
    rows += [(k, v, report_unit(k)) for k, v in result["report"].items()]
    if result["trace"]:
        rows += [(name, result["per_layer"][name], unit) for name, unit, *_ in layers.PER_LAYER]
    for name, value, unit in rows:
        print(f"  {name:<46} {value:>14.6g} {unit}")
    print(f"  error_rate {result['error_rate']:.6g} ({result['failed']} failed"
          f" of {result['attempted']} operations)")
    for failure in result["failures"][:20]:
        print(f"  FAILED {failure}")
    if result["absent"]:
        print("  absent (function no longer exists): " + ", ".join(result["absent"]))
    print(f"  layer waiting time: {result['waiting_s']}")
    print(f"  output fingerprint sha256:{result['fingerprint']}")


def results_path(name: str, seed: int, trace: int) -> str:
    return os.path.join(STATE, "results", f"{name}-seed{seed}-trace{trace}.json")


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced then traced, each in its own process."""
    summary = {}
    ok = True
    for name in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(f"{name} trace {trace}: exit code {proc.returncode}")
                ok = False
                break
            with open(results_path(name, seed, trace), encoding="utf-8") as fh:
                runs[trace] = json.load(fh)
        if len(runs) < 2:
            continue
        plain, traced = runs[0], runs[1]
        same = plain["fingerprint"] == traced["fingerprint"]
        overhead = traced["e2e"]["pipeline_s"] / plain["e2e"]["pipeline_s"]
        ok &= same and plain["failed"] == 0 and traced["failed"] == 0
        summary[name] = dict(
            e2e=plain["e2e"], report=plain["report"], per_layer=traced["per_layer"],
            attempted=plain["attempted"], failed=plain["failed"],
            error_rate=plain["error_rate"], fingerprint=plain["fingerprint"],
            fingerprints_match=same, tracing_overhead=overhead, machine=plain["machine"],
        )
        print(f"== {name}: fingerprints {'match' if same else 'DIFFER'};"
              f" tracing overhead {overhead:.3f}x pipeline_s"
              f" ({traced['e2e']['pipeline_s']:.3f} s traced / {plain['e2e']['pipeline_s']:.3f} s)")
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    with open(os.path.join(STATE, "results", "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=3.0,
                        help=f"query-loop duration (at least {MIN_QUERIES} calls)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            return run_all(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    with open(results_path(args.workload, args.seed, args.trace), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print_report(result)
    print(contract_line(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
