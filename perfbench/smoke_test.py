"""Smoke test of the benchmark itself: every workload at a reduced cycle
count, through the correctness gates, the determinism checks, the key
reconciliation and the tracer clean-up.

    python3 -m pytest perfbench/smoke_test.py     # about a minute
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

MODULES = run.load_itstore()

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SEED = 7
# archive-1k needs four cycles for its first refutation
CYCLES = {"archive-1k": 4, "bulk-100k": 1, "renew-10k": 1}


def _work_dir(name):
    path = run.OUT_DIR / ("smoke-" + name)
    shutil.rmtree(path, ignore_errors=True)
    return path


def _patched_attributes():
    """Every attribute the tracer replaces, as (owner, name, value now)."""
    out = []
    for mod, path, _name in tracer_mod.SPANS:
        owner, attr = tracer_mod._resolve(MODULES[mod], path)
        out.append((owner, attr, vars(owner).get(attr)))
    keynet, stores = MODULES["keynet"], MODULES["stores"]
    for owner, attr in ((keynet, "toeplitz_tag_bits"),
                        (MODULES["mac"], "toeplitz_tag_bits"),
                        (keynet.KeyNetwork, "secure_send"),
                        (keynet.KeyNetwork, "relay_keys"),
                        (keynet.KeyNetwork, "advance"),
                        (MODULES["entropy"].PrfBits, "_block"),
                        (MODULES["protocol"].Transport, "send"),
                        (stores, "open"), (stores, "os")):
        out.append((owner, attr, vars(owner).get(attr)))
    return out


def test_every_workload_passes_the_gates_traced_and_untraced():
    before = _patched_attributes()
    for name, cycles in CYCLES.items():
        workload = workloads.WORKLOADS[name]
        work = _work_dir(name)
        try:
            res, metrics, _ = run.run_untraced(workloads, workload, SEED,
                                               work / "plain", cycles=cycles)
            assert res.correct, (name, res.failures, res.problems)
            assert res.attempted > 0 and not res.failures
            if name == "archive-1k":
                assert len(res.samples["refute"]) == 1
            assert set(run.GATED) <= set(metrics)
            res, layer, _ = run.run_traced(workloads, tracer_mod, MODULES,
                                           workload, SEED,
                                           work / "traced", cycles=cycles)
            assert res.correct, (name, res.failures, res.problems)
            parts = sum(layer["keynet." + k][0] for k in
                        ("pad_bits", "tag_pad_bits", "seed_growth_bits"))
            assert parts == res.key_delta["consumed"] > 0
            if name == "renew-10k":
                assert layer["field.mod_exp.calls"][0] > 0
                # set-up registers; the traced cycles never do
                assert layer["protocol.register.self_s"][0] == 0
            else:
                assert layer["field.mod_exp.calls"][0] == 0
        finally:
            shutil.rmtree(work, ignore_errors=True)
    assert _patched_attributes() == before
    assert "open" not in vars(MODULES["stores"])


def test_a_deliberate_leftover_wrapper_is_reported():
    tracer = tracer_mod.Tracer()
    tracer.install(MODULES)
    try:
        assert "protocol.au2_hash" in tracer.leftovers()
    finally:
        tracer.remove()
    assert tracer.leftovers() == []


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    names = list(tracer_mod.Tracer().layer_metrics(1))
    names += ["entropy.drawn_bits", "trace.overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == names
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
