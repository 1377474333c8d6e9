"""Benchmark of the construct -> search -> verify chain.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact_ladder --seed 0 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics for `--seconds`.  `--trace 1`
runs a fixed number of passes twice, untraced and traced in turn, and
reports the per-layer metrics and the tracing overhead.  Details (provenance, input fingerprints, per-design rows,
sample counts, every layer's times) are printed first and written to
`.perfbench_out/`; the last line of standard output is the result object.
See perfbench/NOTES.md for what each metric means.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the benchmark's directory free of caches

import argparse
import json
import os
import platform
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if __name__ == "__main__" and not os.path.isfile(
        os.path.join(SRC, "nonincidence", "__init__.py")):
    sys.exit("error: no package source at src/nonincidence; run from a checkout")
sys.path[:0] = [SRC, HERE]

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 15
STEP_METRICS = (("construct", "construct_p50_ms"), ("search", "search_p50_ms"),
                ("verify", "verify_p50_ms"))
# Per-layer times are reported only for layers every workload calls; the
# others would read 0 on some workloads and are given in the details only.
ALL_WORKLOAD_TIMES = (
    "constructions.embed_subsystem", "constructions.bose", "constructions.doubling",
    "constructions.build_sts", "design.validate_design", "design.verify_certificate",
    "design.Design.digest", "design.Design.from_blocks",
    "design.NonincidenceCertificate.build", "bounds.nonincidence_upper_bound",
)


def load_benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def provenance(seed: int) -> dict:
    cpu = platform.machine()
    try:  # the CPU model is only in the kernel's cpuinfo
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_model": cpu, "platform": platform.platform(), "seed": seed}


def percentile(xs, q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def job_median(samples, kind: str) -> tuple[float, int]:
    """Median over jobs of each job's median `kind` time, and the sample count.

    A job mix's plain median sits between two jobs' costs, where one slow op
    moves it from one job's cost to the other's; this one does not move so."""
    by_job: dict[str, list[float]] = {}
    for job, times in samples:
        if kind in times:
            by_job.setdefault(job, []).append(times[kind])
    medians = [statistics.median(ts) for ts in by_job.values()]
    return statistics.median(medians), sum(map(len, by_job.values()))


def timed_setup(wl, clock):
    t0 = clock()
    state = wl.setup(clock)
    return state, clock() - t0


def one_pass(wl, state, k: int, probe, tracer=None):
    p = workloads.Pass(k, probe)
    wl.run_pass(state, k, p, tracer)
    return p


def measure(wl, state, seconds: float, passes: int | None, probe):
    """Closed loop: start passes until `seconds` is spent, or run `passes`."""
    done = []
    t0 = time.perf_counter()
    while (len(done) < (passes or 1)
           or (passes is None and time.perf_counter() - t0 < seconds)):
        done.append(one_pass(wl, state, len(done), probe))
    return done


def measure_traced(wl, state, passes: int, probe):
    """Each pass untraced and then traced, alternating, so that both see the
    same host; the traced passes use their own set-up, made while traced."""
    tracer, traced_probe = Tracer(), workloads.SpeedProbe()
    with tracer.installed():
        traced_state = wl.setup(traced_probe.clock)
    plain, traced = [], []
    try:
        for k in range(passes):
            plain.append(one_pass(wl, state, k, probe))
            with tracer.installed():
                traced.append(one_pass(wl, traced_state, k, traced_probe, tracer))
    finally:
        wl.teardown(traced_state)
    return tracer, plain, traced


def setup_repeated(wl, probe):
    """Set up SETUP_REPEATS times and keep the last state.

    Returns the state, the set-up times and, for exact_ladder, the design
    build times of each set-up (its only constructions)."""
    times, builds, state = [], [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            wl.teardown(state)
        (state, seconds), factor = probe.timed(lambda: timed_setup(wl, probe.clock))
        times.append(seconds * factor)
        builds += [(job, {"construct": t * factor}) for job, t in state.get("construct", [])]
    return state, times, builds


def end_to_end(passes, setup_times, builds) -> tuple[dict, dict]:
    """Metrics of an untraced run, from scaled times."""
    ops = [x for p in passes for x in p.ops]
    steps = [s for p in passes for s in p.steps]
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(p.ops) for p in passes),
        "ops_per_s": len(ops) / sum(ops),
        "op_p50_ms": 1000 * job_median(steps, "op")[0],
        "op_p90_ms": 1000 * percentile(ops, 0.9),
        "exact_count": statistics.median(
            sum(r["proved"] for r in p.rows) for p in passes),
        "frontier_v": statistics.median(workloads.frontier(p.rows) for p in passes),
        "best_s_sum": statistics.median(sum(r["best_s"] for r in p.rows) for p in passes),
    }
    samples = {"passes": len(passes), "ops": len(ops), "setups": len(setup_times),
               "op_p90": {"ops": len(ops), "beyond": len(ops) - 1 - int(0.9 * (len(ops) - 1))}}
    for kind, name in STEP_METRICS:
        # exact_ladder constructs only in set-up
        src = steps if any(kind in t for _, t in steps) else builds
        value, samples[name] = job_median(src, kind)
        values[name] = 1000 * value
    return values, samples


def per_layer(tracer, passes, scale: float, overhead: float) -> tuple[dict, dict]:
    """Metrics of the traced phase; busy times are multiplied by `scale`."""
    stats = tracer.layer_stats()
    counters = {}
    for p in passes:
        for k, n in p.counters.items():
            counters[k] = counters.get(k, 0) + n
    values, detail = {}, {}
    for name, st in stats.items():
        values[f"{name}.calls"] = st["calls"]
        if name in ALL_WORKLOAD_TIMES:
            values[f"{name}.busy_s"] = st["busy_s"] * scale
        detail[name] = st
    ex = stats["search.exact_max_nonincident"]
    values["search.exact_max_nonincident.nodes"] = ex.get("nodes", 0)
    values["search.exact_max_nonincident.truncated"] = ex["calls"] - ex.get("exact", 0)
    values["search.exact_max_nonincident.exact_ratio"] = (
        ex.get("exact", 0) / ex["calls"] if ex["calls"] else 0.0)
    if ex["busy_s"]:
        detail["search.exact_max_nonincident"]["nodes_per_s"] = ex["nodes"] / ex["busy_s"]
    values["search.greedy_max_nonincident.steps"] = (
        stats["search.greedy_max_nonincident"].get("nodes", 0))
    values["constructions.embed_subsystem.budget_exhausted"] = (
        stats["constructions.embed_subsystem"].get("budget_exhausted", 0))
    values["design.Design.from_json.bytes"] = stats["design.Design.from_json"].get("bytes", 0)
    values["cli.bytes_written"] = counters.get("cli.bytes_written", 0)
    values["cli.bytes_read"] = counters.get("cli.bytes_read", 0)
    values["trace.overhead_ratio"] = overhead
    return values, detail


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest size: jobs of order <= 21, one pass")
    args = ap.parse_args(argv)

    spec = load_benchmark_spec()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, OUT_DIR)
    details = {"workload": wl.name, "trace": args.trace, "smoke": args.smoke,
               "provenance": provenance(args.seed)}

    probe = workloads.SpeedProbe()
    state, setup_times, builds = setup_repeated(wl, probe)
    try:
        details["inputs"] = wl.inputs(state)
        if args.trace == 0:
            passes = measure(wl, state, args.seconds, 1 if args.smoke else None, probe)
            metrics, samples = end_to_end(passes, setup_times, builds)
            wanted = spec["end_to_end"]
        else:
            n = 1 if args.smoke else wl.trace_passes
            tracer, plain, traced = measure_traced(wl, state, n, probe)
            wall = [sum(sum(p.ops) for p in ps) for ps in (traced, plain)]
            scale = statistics.median(f for p in traced for f in p.factors)
            metrics, details["layers"] = per_layer(tracer, traced, scale, wall[0] / wall[1])
            samples = {"passes": n, "traced_spans": len(tracer.spans)}
            tracer.write(os.path.join(
                OUT_DIR, f"spans-{wl.name}-seed{args.seed}.json"))
            passes = traced + plain
            wanted = spec["per_layer"]
    finally:
        wl.teardown(state)
    samples["probes"] = len(probe.samples)
    samples["probe_factor_p50"] = statistics.median(f for p in passes for f in p.factors)
    details["samples"] = samples

    attempted = sum(len(p.rows) for p in passes)
    failures = [f for p in passes for f in p.failures]
    details["error_rate"] = {"value": len(failures) / attempted,
                             "unit": "failed/attempted"}
    details["failures"] = failures[:20]
    details["rows_pass0"] = passes[0].rows  # the traced pass 0 when traced
    for k, v in sorted(details.items()):
        print(f"{k}: {json.dumps(v, sort_keys=True, default=str)}")
    with open(os.path.join(OUT_DIR, f"details-{wl.name}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(details, fh, indent=1, sort_keys=True, default=str)

    out = {}
    for m in wanted:
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(run())
