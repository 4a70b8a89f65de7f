#!/usr/bin/env python3
"""bitraj benchmark: one closed-loop workload per invocation.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-large --seed 0 --seconds 30 --trace 0

Workloads (see perfbench/NOTES.md for why each was chosen):

- ``verify-large``: ``biprob_table`` + ``property_report`` on random
  qubit x 11, qutrit x 7 and ququart x 5 schedules;
- ``lab-replay``: the acceptance criterion-15 sampling replay at 1e5 trials
  plus a wide random qutrit schedule;
- ``cli-verbs``: one ``python -m bitraj.cli <verb>`` subprocess per op,
  cycling all ten verbs.

The package is imported from ``src/`` of the checkout, never from an
installed copy.  Every op's output is checked; a failed check, a raised error
or a non-zero CLI exit counts as a failed op.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the run first repeats the op sequence untraced, then traced,
and reports the per-layer metrics and the tracing overhead.  Details (every
op's latency, counts digests, machine facts, spans) go to
``.bench_out/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-large", "lab-replay", "cli-verbs")
SETUP_REPEATS = 3


@dataclass
class Op:
    key: str
    k: int
    latency: float
    work: float
    failures: list[str] = field(default_factory=list)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return value


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=_seed, default=0)
    ap.add_argument("--seconds", type=float, default=30.0, help="op time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--tiny", action="store_true", help="smoke-test input sizes; figures are not comparable"
    )
    return ap.parse_args(argv)


def set_up(args, out_dir: Path):
    """Median of several full set-ups, and the workload left by the last one.

    One set-up is: a fresh interpreter importing the package (what every user
    process pays), seeded input generation, and one warm-up op.
    """
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if args.workload == "verify-large":
            wl = workloads.VerifyLarge(args.seed, args.tiny)
        elif args.workload == "lab-replay":
            wl = workloads.LabReplay(args.seed, args.tiny)
        else:
            wl = workloads.CliVerbs(args.seed, out_dir, args.tiny)
        subprocess.run(
            [sys.executable, "-c", f"import {wl.import_module}"],
            env=workloads.child_env(), check=True, timeout=120,
        )
        wl.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times, wl


def timed_loop(wl, seconds: float, plan: list[str] | None = None, tracer=None) -> list[Op]:
    """Closed loop: ops back to back until ``seconds`` of op time have passed and
    every op key has run at least once, or exactly the ops of ``plan``."""
    ops: list[Op] = []
    busy = 0.0
    k = 0
    keys = set(wl.cycle)
    while True:
        if plan is not None:
            if k == len(plan):
                break
            key = plan[k]
        else:
            if busy >= seconds and keys <= {op.key for op in ops}:
                break
            key = wl.cycle[k % len(wl.cycle)]
        root = tracer.begin_op(k) if tracer is not None else None
        t0 = time.perf_counter()
        error = None
        try:
            work, payload = wl.run(key, k, tracer)
        except Exception:  # an op that raises is a failed op; the loop goes on
            error = traceback.format_exc(limit=4)
            work, payload = 0, None
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op(root)
        if error is None:
            try:
                failures = wl.check(key, k, payload)
            except Exception:
                failures = [traceback.format_exc(limit=4)]
        else:
            failures = [error]
        del payload
        ops.append(Op(key, k, latency, work, failures))
        busy += latency
        k += 1
    return ops


def cycle_stats(wl, ops: list[Op]) -> tuple[float, float]:
    """Per-key medians combined over one cycle: (mean op latency, work per second).

    Each key's median latency and work are weighted by how often the key
    appears in the cycle, so a partial last cycle does not shift the figures.
    """
    weights = {key: wl.cycle.count(key) for key in set(wl.cycle)}
    lat = {key: statistics.median(op.latency for op in ops if op.key == key) for key in weights}
    work = {key: statistics.median(op.work for op in ops if op.key == key) for key in weights}
    cycle_time = sum(weights[key] * lat[key] for key in weights)
    cycle_work = sum(weights[key] * work[key] for key in weights)
    return cycle_time / sum(weights.values()), cycle_work / cycle_time


def tail(latencies: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten ops above it; None below p50."""
    n = len(latencies)
    if n < 20:
        return None
    ordered = sorted(latencies)
    pct = math.floor(100 * (n - 10) / n)
    return pct, ordered[math.ceil(pct / 100 * n) - 1]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-verbs" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


WORK_NAMES = {
    "verify-large": ("entries_per_s", "table entries built and verified per second"),
    "lab-replay": ("trials_per_s", "sampled trials per second, time split evenly by shape"),
    "cli-verbs": ("verbs_per_s", "CLI invocations per second over one verb cycle"),
}

#: Units of the per-layer metrics; anything not listed is seconds.
LAYER_UNITS = {
    "calls": "count", "failed": "count", "trials": "count", "ops": "count",
    "distinct_ratio": "ratio", "trials_per_cell": "ratio", "overhead_ratio": "ratio",
    "q_bytes": "B", "gram_flops": "flop", "exit_nonzero": "count",
}


def _unit(name: str) -> str:
    return LAYER_UNITS.get(name.rsplit(".", 1)[1], "s")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bitraj" / "__init__.py").is_file():
        print(f"perfbench: no bitraj sources at {SRC}; run it from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import facts
    import tracing

    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    setup_s, setup_runs, wl = set_up(args, out_dir)
    info = facts.machine_facts(ROOT, SRC)
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}"]
    extra: dict = {}

    if args.trace == 0:
        ops = timed_loop(wl, args.seconds)
        run_checks = wl.finish()
        op_p50, per_s = cycle_stats(wl, ops)
        rss = peak_rss_mb(args.workload)
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_s": (op_p50, "s"),
            "work_per_s": (per_s, "1/s"),
            "peak_rss_mb": (rss, "MB"),
        }
        all_ops = ops
        latencies = [op.latency for op in ops]
        t = tail(latencies)
        work_name, work_text = WORK_NAMES[args.workload]
        extra = {
            "wall_s": sum(latencies),
            "ops": len(ops),
            "op_p50_raw_s": statistics.median(latencies),
            "op_tail": None if t is None else {"percentile": t[0], "value_s": t[1], "beyond": 10},
            work_name: per_s,
        }
        tail_text = (
            "omitted: fewer than 20 ops"
            if t is None
            else f"{t[1]:.4f} s    p{t[0]} ({len(ops)} ops, 10 beyond)"
        )
        rss_of = "largest CLI child" if args.workload == "cli-verbs" else "bench process"
        setups = [round(x, 3) for x in setup_runs]
        lines += [
            f"setup_s        {setup_s:.4f} s    median of {SETUP_REPEATS} set-ups {setups}",
            f"wall_s         {extra['wall_s']:.3f} s    timed op time, {len(ops)} ops",
            f"op_p50_s       {op_p50:.4f} s    per-key median latency, "
            f"mean over one cycle of {len(wl.cycle)} ops",
            f"op_p50_raw_s   {extra['op_p50_raw_s']:.4f} s    median over all {len(ops)} ops",
            f"op_tail_s      {tail_text}",
            f"{work_name:<14} {per_s:.6g} 1/s  {work_text} (reported as work_per_s)",
            f"peak_rss_mb    {rss:.1f} MB   {rss_of}",
        ]
    else:
        plan_ops = timed_loop(wl, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_ops = timed_loop(wl, 0, plan=[op.key for op in plan_ops], tracer=tracer)
        finally:
            tracer.uninstall()
        run_checks = wl.finish()
        all_ops = plan_ops + traced_ops
        layer = tracing.layer_metrics(tracer, getattr(wl, "startup", []))
        untraced = sum(op.latency for op in plan_ops)
        layer["trace.overhead_ratio"] = sum(op.latency for op in traced_ops) / untraced - 1.0
        layer["cli.exit_nonzero"] = float(getattr(wl, "exit_nonzero", 0))
        covered = sum(layer[f"{name}.self_s"] for name in tracing.LAYERS) + layer["trace.uncovered_s"]
        run_checks["trace_accounting"] = (
            []
            if abs(covered - layer["trace.op_wall_s"]) <= 1e-9 * layer["trace.op_wall_s"] + 1e-12
            else [f"layer self times + uncovered = {covered!r} != op wall {layer['trace.op_wall_s']!r}"]
        )
        tracer.dump(out_dir / "spans.json")
        metrics = {name: (value, _unit(name)) for name, value in sorted(layer.items())}
        caches = info["caches"]
        lines += [
            f"traced {len(traced_ops)} ops after the same {len(plan_ops)} untraced ones; values are "
            "per-op means except *.failed, cli.exit_nonzero, trace.ops and q_bytes",
            "q_bytes (largest table) and gram_flops are computed as 16*N^2 and 8*N^2*d^2, "
            f"not measured; caches: L2 {caches.get('L2')}, L3 {caches.get('L3')}",
        ]
        lines += [f"{name:<44} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]

    failed_ops = sum(1 for op in all_ops if op.failures)
    failed_checks = sum(1 for problems in run_checks.values() if problems)
    attempted = len(all_ops) + len(run_checks)
    failed = failed_ops + failed_checks
    details = wl.details()
    lines += [
        f"failed_ratio   {failed / attempted:.4g}      {failed} of {attempted} "
        f"({len(all_ops)} ops + {len(run_checks)} run-level checks)",
        f"machine        nproc={info['nproc']} python={info['python']} numpy={info['numpy']} "
        f"blas={info['blas'].get('name')} {info['blas'].get('version')} "
        f"threads={info['blas'].get('threads')} caches={info['caches']}",
        f"code           commit={info['git_commit']} source={info['source_digest'][:16]}",
        f"inputs         seed={args.seed} digest={details['input_digest'][:16]} "
        f"work unit: {details['work_unit']}",
    ]
    for op in all_ops:
        for problem in op.failures:
            lines.append(f"FAILED op {op.k} ({op.key}): {problem.strip()}")
    for name, problems in run_checks.items():
        for problem in problems:
            lines.append(f"FAILED check {name}: {problem}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "args": vars(args),
        "facts": info,
        "details": details,
        "setup_runs_s": setup_runs,
        "extra": extra,
        "run_checks": run_checks,
        "ops": [vars(op) for op in all_ops],
        "result": result,
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=1, default=str))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
