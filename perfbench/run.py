"""The gradimpact benchmark: one closed-loop client that runs a workload in rounds.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 35 --trace 0

A workload's fixed work is a set of input variants drawn from ``--seed``;
variant ``v`` of seed ``s`` is always the same input.  Each round runs one
variant in a fresh interpreter (``worker.py``), started only after the
previous round has ended, so module caches start cold every round.  Rounds
cycle through the variants until every variant has run and ``--seconds``
have passed.  ``wall_s`` sums, over the variants, each variant's median
round; ``setup_s`` and ``peak_rss_mb`` are medians over all rounds;
``op_p50_ms`` is the median over rounds of each round's median op, which a
few rounds slowed by the host move less than a median of the pooled ops.

The last line of stdout is the result: every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  The line before it describes the machine, the inputs,
``failed_frac`` and the op count behind the tail percentile.

With ``--trace 1`` half the variants run twice, untraced and then traced;
per-layer metrics sum over the traced rounds, and ``tracing.overhead_s`` is
the traced minus the untraced time for that work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
# Every round must end by then, so the run exits within 180 s.
RUN_LIMIT_S = 170
# Pin BLAS to one thread.  On a 2-core machine a dense 2000 x 2000 solve, as
# ``cs`` does at n = 2000, took 0.09-0.42 s with two threads and 0.13-0.17 s
# with one.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _machine() -> dict:
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            info["cpu"] = next(l.split(":", 1)[1].strip() for l in cpuinfo if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def audit_seeds(seed: int, graph_count: int, variants: int) -> list[int]:
    """One ``AuditConfig.seed`` per variant, drawn from ``seed``.

    Audit time grows about with the square of graph size, and sizes are
    drawn uniformly, so a corpus's time varies mostly with its sum of
    squared sizes.  A candidate seed is kept only when that sum lies within
    2% of its expectation, which keeps the default size mix while holding
    the amount of work steady from seed to seed.
    """
    from gradimpact import AuditConfig, corpus_frameworks

    lo, hi = AuditConfig().size_range
    expected = graph_count * statistics.fmean(n * n for n in range(lo, hi + 1))
    chosen = []
    for variant in range(variants):
        rng = random.Random(f"audit:{seed}:{variant}")
        gaps = {}
        # Small corpora may never land in the window; then take the closest.
        while len(gaps) < 1000:
            candidate = rng.randrange(2**32)
            corpus = corpus_frameworks(AuditConfig(graph_count=graph_count, seed=candidate))
            gaps[candidate] = abs(sum(len(af) ** 2 for af in corpus) - expected)
            if gaps[candidate] <= 0.02 * expected:
                break
        chosen.append(min(gaps, key=gaps.get))
    return chosen


def run_round(args, variant: int, traced: bool, audit_seed: int, stop: float) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--variant", str(variant),
        "--trace", str(int(traced)), "--size", args.size, "--work", str(WORK / args.workload),
        "--audit-seed", str(audit_seed),
    ]
    spawned = time.perf_counter()
    # Its own process group, so a timeout also stops a CLI command it started.
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, stop - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"round still running after {stop - spawned:.0f} s, at the run's time limit"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}"}
    report = json.loads(lines[-1])
    report["spawned"] = spawned
    report["wall_s"] = report["end"] - report["first_op"]
    return report


def cold_import_s(samples: int = 3) -> float:
    """Median time of a cold interpreter that only imports the CLI."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "cli_entry.py"), "--import-only"],
            cwd=ROOT, check=True, capture_output=True, timeout=60,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def fixed_work_s(rounds: list[tuple[int, dict]]) -> float:
    """Time for the run's fixed work: the sum over variants of each one's median round."""
    by_variant: dict[int, list[float]] = {}
    for variant, report in rounds:
        by_variant.setdefault(variant, []).append(report["wall_s"])
    return sum(statistics.median(walls) for walls in by_variant.values())


def tail(ops: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten ops beyond it, and its value."""
    ordered = sorted(ops)
    index = max(0, len(ordered) - 11)
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke test only")
    args = parser.parse_args()

    if not (ROOT / "src" / "gradimpact" / "cli.py").is_file():
        return _fail(f"no gradimpact sources under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        return _fail(f"cannot read BENCHMARK.json: {error}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    stop = time.perf_counter() + RUN_LIMIT_S
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import worker

    # Compile once so no timed round pays for writing bytecode.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        cwd=ROOT, check=True, capture_output=True, timeout=120,
    )
    size = worker.SIZES[args.size]
    variants = size["variants"][args.workload]
    seeds = audit_seeds(args.seed, size["audit_graphs"], variants) if args.workload == "audit" else [0] * variants

    rounds: list[tuple[int, bool, dict]] = []
    if args.trace:
        # Half the variants, each untraced and then traced, keep a traced run
        # about as long as an untraced one.
        plan = [(v, traced) for v in range((variants + 1) // 2) for traced in (False, True)]
    else:
        plan = [(v, False) for v in range(variants)]
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < stop and (plan or (not args.trace and time.perf_counter() < deadline)):
        v, traced = plan.pop(0) if plan else (len(rounds) % variants, False)
        rounds.append((v, traced, run_round(args, v, traced, seeds[v], stop)))

    errors = [report["error"] for _, _, report in rounds if "error" in report]
    errors += [f"variant {v} did not run within the time limit" for v, _ in plan]
    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)
    done = [(v, t, report) for v, t, report in rounds if "error" not in report]
    attempted = len(errors) + sum(len(report["ops"]) for _, _, report in done)
    failed = len(errors) + sum(report["failed"] for _, _, report in done)
    for _, _, report in done:
        for problem in report["problems"]:
            print(f"perfbench: failed check: {problem}", file=sys.stderr)
    plain = [(v, report) for v, traced, report in done if not traced]
    if not plain:
        return _fail("no round completed")

    ops = [t for _, report in plain for t in report["ops"]]
    percentile, tail_s = tail(ops)
    values = {
        "setup_s": statistics.median(r["first_op"] - r["spawned"] for _, r in plain),
        "wall_s": fixed_work_s(plain),
        "op_p50_ms": statistics.median(statistics.median(r["ops"]) for _, r in plain) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for _, r in plain),
    }
    wanted = spec["end_to_end"]
    if args.trace:
        traced_rounds = [(v, report) for v, t, report in done if t]
        if not traced_rounds:
            return _fail("no traced round completed")
        totals: dict[str, float] = {}
        for _, report in traced_rounds:
            for name, amount in report["layers"].items():
                totals[name] = totals.get(name, 0.0) + amount
        traced_wall = fixed_work_s(traced_rounds)
        values = {m["name"]: totals.get(m["name"], 0.0) for m in spec["per_layer"]}
        parse_s = totals.get("formats.parse_s", 0.0)
        values["formats.parse_mb_per_s"] = totals.get("formats.parse_chars", 0.0) / 1e6 / parse_s if parse_s else 0.0
        values["tracing.overhead_s"] = traced_wall - fixed_work_s([(v, r) for v, r in plain if v in dict(traced_rounds)])
        values["tracing.span_coverage"] = totals.get("tracing.top_level_s", 0.0) / traced_wall
        values["cli.import_s"] = cold_import_s()
        wanted = spec["per_layer"]

    inputs = {entry["name"] + f"@variant{v}": entry for v, _, report in done for entry in report["inputs"]}
    print(json.dumps({
        "workload": args.workload,
        "machine": _machine(),
        "inputs": inputs,
        "rounds": len(rounds),
        "ops": len(ops),
        "op_tail_percentile": round(percentile, 2),
        "failed_frac": failed / attempted if attempted else 1.0,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
