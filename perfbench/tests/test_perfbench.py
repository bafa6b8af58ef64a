"""Tests of the benchmark itself: tracing, the golden gate, and smoke runs.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import corpus
import gate
import tracer
import wml
import wml.cli  # noqa: F401 - the tracer wraps every loaded wml module
from conftest import BENCH, ROOT


def _all_bindings():
    snapshot = {}
    for module in tracer.wml_namespaces():
        for attr, obj in vars(module).items():
            snapshot[(module.__name__, attr)] = obj
    for module_name, class_name, _ in tracer.METHODS:
        cls = getattr(sys.modules[module_name], class_name)
        for attr, obj in vars(cls).items():
            snapshot[(f"{module_name}.{class_name}", attr)] = obj
    return snapshot


def test_tracer_wraps_every_binding_and_restores_it():
    before = _all_bindings()
    original_fringe = wml.invariants.fringe
    t = tracer.Tracer()
    with t:
        # one wrapper per function, bound in every namespace that names it
        assert wml.invariants.fringe is not original_fringe
        assert wml.invariants.fringe is wml.stallings.fringe is wml.fringe
        assert wml.weingarten.wg is not before[("wml.weingarten", "wg")]
        add = wml.RationalFunction.__add__
        assert add is wml.RationalFunction.__radd__
        w = wml.parse("[x,y]", 2)
        wml.analyze(w, 2)
        wml.moment(w, (2,))
    after = _all_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    summary = t.summary()
    assert summary["calls"]["invariants.analyze"] == 1
    assert summary["calls"]["stallings.fringe"] >= 1
    assert tracer.work_counts(summary)["weingarten.pair_terms"] > 0
    assert t.spans and all(end >= start for _, start, end, _ in t.spans)


def test_self_time_excludes_wrapped_children():
    t = tracer.Tracer()
    with t:
        wml.moment(wml.parse("[x,y]", 2), (2, -2))
    summary = t.summary()
    inclusive = summary["inclusive"]["weingarten.word_moment"]
    own = summary["self_time"]["weingarten.word_moment"]
    assert 0 < own < inclusive
    assert summary["calls"]["weingarten.wg"] == \
        tracer.layer_metrics(summary)["weingarten.pair_terms"]


def test_gate_accepts_goldens_and_rejects_altered_outputs():
    for workload in ("invariants", "moments"):
        golden = gate.load(workload)
        key, output = sorted(golden.items())[0]
        assert gate.check(workload, key, output, golden) is None
        altered = output.replace("1", "2", 1)
        assert altered != output
        assert gate.check(workload, key, altered, golden) is not None
    golden = gate.load("cli")
    key = corpus.command_key(["parse", "[x,y", "--rank", "2"])
    good = {"exit": golden[key]["exit"], "sha256": golden[key]["sha256"]}
    assert gate.check("cli", key, good, golden) is None
    assert gate.check("cli", key, dict(good, exit=0), golden) is not None
    assert gate.check("cli", key, dict(good, sha256="0" * 64), golden) is not None


def _estimate(mean, stderr=0.001, unitarity=1e-15, seed=7):
    return {"exit": 0, "stdout": json.dumps({"estimate": {
        "mean": [mean, 0.0], "stderr": stderr, "samples": corpus.MC_SAMPLES,
        "seed": seed, "n": 8, "rng": "philox4x64",
        "unitarity_max": unitarity}})}


def test_gate_checks_monte_carlo_statistically():
    golden = gate.load("cli")
    template = next(c for c in corpus.cli_commands()
                    if corpus.is_mc(c) and corpus.mc_case(c) == ("[x,y]", "1", 8))
    key = corpus.command_key(template)
    exact = golden[key]["exact"][0]
    assert gate.check("cli", key, _estimate(exact + 0.003), golden, 7) is None
    assert gate.check("cli", key, _estimate(exact + 0.01), golden, 7) is not None
    assert gate.check("cli", key, _estimate(exact, unitarity=1e-6), golden, 7) \
        is not None
    assert gate.check("cli", key, _estimate(exact), golden, 8) is not None


def test_seed_only_shuffles_and_picks_mc_seeds():
    a, seeds_a = corpus.ordered_items("cli", 1)
    b, seeds_b = corpus.ordered_items("cli", 1)
    c, _ = corpus.ordered_items("cli", 2)
    assert a == b and seeds_a == seeds_b
    assert a != c
    assert sorted(a) == sorted(c) == sorted(corpus.items("cli"))
    assert len(a) >= 100
    assert sorted(seeds_a) == [i for i, item in enumerate(a) if corpus.is_mc(item[1])]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_smoke_items_belong_to_the_corpus(workload):
    keys = {item[0] for item in corpus.items(workload)}
    assert corpus.SMOKE[workload] <= keys


def _bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    spec = {m["name"]: m["unit"] for m in _bench_spec()[section]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == spec


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "invariants",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
