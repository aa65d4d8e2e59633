"""Tests of the benchmark itself, kept out of the tier-1 suite by their name.

    python3 -m pytest -q perfbench/selftest.py

Workloads run in-process at tiny sizes; the full sizes are the benchmark's.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "HMP": dict(groups=3, train_iterations=1, sample_cap=300),
    "BOF": dict(groups=6, side=24, codebook=16, stride=2, train_iterations=1, sample_cap=300),
    "SEARCH": dict(docs=200, dims=300, nnz=20, group=5, shared=0.45, queries=20, skew=0.7),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, sizes in TINY.items():
        monkeypatch.setattr(workloads, name, sizes)
    monkeypatch.setattr(run, "STATE", str(tmp_path))
    monkeypatch.setattr(run, "MIN_QUERIES", 50)


def contract(result) -> dict:
    return json.loads(run.contract_line(result))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_emits_every_metric(tiny, name):
    plain = run.run_workload(name, 0, 0.0, trace=False)
    traced = run.run_workload(name, 0, 0.0, trace=True)
    for result, expected in (
        (plain, set(run.END_TO_END)),
        (traced, {row[0] for row in layers.PER_LAYER}),
    ):
        line = contract(result)
        assert line["correct"] and line["failed"] == 0, result["failures"]
        assert set(line["metrics"]) == expected
    assert all(m["value"] > 0 for m in contract(plain)["metrics"].values())
    assert plain["fingerprint"] == traced["fingerprint"]
    # the CLI prints mAP to six decimals
    traced_map = traced["per_layer"]["evaluation.evaluate.map"]
    assert plain["report"]["map"] == pytest.approx(traced_map, abs=5e-7) and traced_map > 0
    assert traced["absent"] == []


def test_corrupt_descriptor_raises_error_rate(tiny, monkeypatch):
    original = workloads.Search10k.write_inputs

    def corrupting(self, work, seed, hp, corpus):
        ids = original(self, work, seed, hp, corpus)
        with open(os.path.join(work, "descriptors", f"{ids[3]}.hmpv"), "r+b") as fh:
            fh.truncate(40)
        return ids

    monkeypatch.setattr(workloads.Search10k, "write_inputs", corrupting)
    result = run.run_workload("search-10k", 0, 0.0, trace=False)
    assert result["error_rate"] > 0 and not contract(result)["correct"]
    assert any(f.startswith("build-index exit code") for f in result["failures"])
    assert any("d00003.hmpv" in f for f in result["failures"])


def test_all_zero_idf_index_raises_error_rate(tiny, monkeypatch):
    original = workloads.texture_groups

    def identical(corpus, seed, groups, side):
        images, gt = original(corpus, seed, groups, side)
        first = images[min(images)]
        return {image_id: first for image_id in images}, gt

    monkeypatch.setattr(workloads, "texture_groups", identical)
    result = run.run_workload("bof-idf", 0, 0.0, trace=False)
    assert result["error_rate"] > 0 and not contract(result)["correct"]
    assert any(f.startswith("IDF index keeps a posting list") for f in result["failures"])
    assert any(f.startswith("mAP above zero") for f in result["failures"])


def test_missing_function_is_absent_and_originals_come_back():
    hp, _ = run.import_program()
    original = hp.index.query
    tracer = run.Tracer()
    try:
        absent = tracer.install(["index.query", "index.no_such_function"])
        assert hp.query is not original and hp.evaluation.query is not original
    finally:
        tracer.uninstall()
    assert absent == ["index.no_such_function"]
    assert hp.query is original and hp.evaluation.query is original


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-10k", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in layers.PER_LAYER
    ]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
