"""Run one itstore benchmark workload and print its metrics.

    python3 perfbench/run.py --workload archive-1k --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; itstore is imported from its
src/ directory and nowhere else.  Every metric is printed as
`name value unit`; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones, from untraced runs; with --trace 1 they are the
per-layer ones of a traced replay (see perfbench/README.md).

Exit status: 0 when the run completed (whether or not it was correct),
2 when itstore cannot be imported from the checkout or the arguments are
bad; no result line is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# The end-to-end metrics of the result line, the ones BENCHMARK.json bounds.
# Per-operation latencies are printed but not bounded: see README.md.
GATED = (
    "setup_s", "cycles_per_s", "key_bits_per_payload_bit",
    "store_bytes_per_payload_byte", "peak_rss_mb",
)


def load_itstore():
    """Import itstore from ROOT/src only; raise ImportError otherwise."""
    src = ROOT / "src"
    if not (src / "itstore" / "__init__.py").is_file():
        raise ImportError("no itstore sources under %s" % src)
    sys.path.insert(0, str(src))
    import itstore

    if src.resolve() not in Path(itstore.__file__).resolve().parents:
        raise ImportError("itstore was imported from %s" % itstore.__file__)
    from itstore import entropy, field, keynet, mac, protocol, renewal, spss, stores

    return {"entropy": entropy, "field": field, "keynet": keynet, "mac": mac,
            "protocol": protocol, "renewal": renewal, "spss": spss,
            "stores": stores}


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if "bits" in name:
        return "bit"
    if name.startswith("protocol.bytes.") or name == "stores.bytes_written":
        return "B"
    if name == "stores.write_amp":
        return "B/B"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def setup_plan(setups: int, cycles: int) -> list:
    """How many extra set-ups to make before each cycle: the first set-up
    builds the deployment the cycles run on, and the other setups - 1 are
    spread evenly over the cycles."""
    plan = [0] * cycles
    for k in range(1, setups):
        plan[k * cycles // setups] += 1
    return plan


def run_untraced(workloads, workload, seed, work, cycles=None):
    runner = workloads.Runner(workload, seed, work)
    plan = setup_plan(workload.setups, cycles or workload.measured_cycles)

    def between(i):
        for _ in range(plan[i]):
            runner.extra_setup()

    try:
        runner.setup()
        runner.window(cycles, between=between)
    finally:
        runner.close()
    res = runner.result
    if len(set(res.setup_digests)) != 1:
        res.problems.append("repeated set-ups with one seed differ")
    metrics = workloads.end_to_end(res)
    missing = [m for m in GATED if m not in metrics]
    if missing:
        res.problems.append("metrics without samples: %s" % ", ".join(missing))
    return res, metrics, {}


def _traced_window(workloads, tracer_mod, modules, workload, seed, work, cycles):
    tracer = tracer_mod.Tracer()
    runner = workloads.Runner(workload, seed, work)
    try:
        runner.setup()
        runner.tracer = tracer  # root spans from the window on, not set-up
        tracer.install(modules)
        try:
            runner.window(cycles=cycles)
        finally:
            tracer.remove()
    finally:
        runner.close()
    leftovers = tracer.leftovers()
    if leftovers:
        runner.result.problems.append("wrappers left installed: %s"
                                      % ", ".join(leftovers))
    return runner.result, tracer


def _untraced_view(records):
    return [{k: v for k, v in r.items() if k != "traced"} for r in records]


def run_traced(workloads, tracer_mod, modules, workload, seed, work,
               cycles=None):
    """Untraced window, traced replay of its cycles, then a second traced
    replay of the first cycle; the replays must repeat every count."""
    plain = workloads.Runner(workload, seed, work / "untraced")
    try:
        plain.setup()
        plain.window(cycles)
    finally:
        plain.close()
    base = plain.result
    res, tracer = _traced_window(workloads, tracer_mod, modules, workload, seed,
                                 work / "traced", base.cycles)
    again, _ = _traced_window(workloads, tracer_mod, modules, workload, seed,
                              work / "traced-again", 1)

    problems = res.problems
    problems.extend(base.problems + again.problems)
    if len(set(base.setup_digests + res.setup_digests + again.setup_digests)) != 1:
        problems.append("set-up differs between runs with one seed")
    if res.window_digest != base.window_digest:
        problems.append("traced transcript differs from the untraced one")
    if _untraced_view(res.cycle_records) != _untraced_view(
            base.cycle_records):
        problems.append("traced counts differ from the untraced run")
    if again.cycle_records[:1] != res.cycle_records[:1]:
        problems.append("traced counts of cycle 1 differ between two runs")
    for c, rec in enumerate(res.cycle_records):
        traced = rec["traced"]
        for key in ["protocol.messages", "protocol.local_messages"] + [
                "keynet.key_bits." + k for k in tracer_mod.KINDS]:
            if traced.get(key, 0) != rec.get(key, 0):
                problems.append("cycle %d: traced %s %d, transcript %d"
                                % (c, key, traced.get(key, 0), rec.get(key, 0)))
                break

    layer = tracer.layer_metrics(res.served_bytes)
    layer["entropy.drawn_bits"] = res.key_delta["pool_consumed"]
    layer["trace.overhead_ratio"] = res.window_s / base.window_s
    problems.extend(workloads.reconcile(layer, res))

    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / ("spans-%s-seed%d.jsonl" % (workload.name, seed))
    tracer.write_spans(spans)

    res.attempted += base.attempted + again.attempted
    res.failures.extend(base.failures + again.failures)
    extras = {
        "untraced_cycles_per_s": base.cycles / base.window_s,
        "traced_cycles_per_s": res.cycles / res.window_s,
        "spans_file": str(spans.relative_to(ROOT)),
    }
    metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
    return res, metrics, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    # The measured work is fixed per workload (workloads.WORKLOADS), so that
    # figures compare across program versions. --seconds names the time that
    # work is sized for; it does not change the work.
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        modules = load_itstore()
    except ImportError as exc:
        print("perfbench: cannot import itstore: %s" % exc, file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    work = OUT_DIR / ("work-%d" % os.getpid())
    try:
        if args.trace:
            res, metrics, extras = run_traced(workloads, tracer_mod, modules,
                                              workload, args.seed, work)
        else:
            res, metrics, extras = run_untraced(workloads, workload, args.seed,
                                                work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("workload %s seed %d trace %d: %d cycles in %.3f s"
          % (workload.name, args.seed, args.trace, res.cycles, res.window_s))
    for name, (value, unit) in metrics.items():
        print("%-40s %s %s" % (name, value, unit))
    for name, value in extras.items():
        print("%-40s %s" % (name, value))
    print("%-40s %s" % ("transcript_sha256", res.window_digest))
    for line in res.failures + res.problems:
        print("FAILED: %s" % line)
    keep = GATED if not args.trace else tuple(metrics)
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": len(res.failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in keep if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
