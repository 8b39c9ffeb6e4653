"""One round of one workload, in a fresh interpreter.

``run.py`` starts this script once per round, so every round begins with
cold module-level caches, and reads the one JSON line it prints.  Times are
``time.perf_counter`` readings, which on Linux come from the system-wide
monotonic clock and so compare across processes.

    python3 perfbench/worker.py --workload audit --seed 1 --variant 0 \
        --trace 0 --size full --work .bench_work --audit-seed 123
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer as tracing  # noqa: E402

# Each run covers every variant of its workload at least once; a variant is
# one round's fixed work.  ``tiny`` exists for the smoke test only.
#
# ``max_sweeps_at_least``: max-based Picard on the full-size attribution
# graphs needs either 6-8 sweeps or about 30, depending on whether some cycle
# keeps every member away from an unattacked attacker.  Drawing both kinds at
# random made a graph's Shapley cost swing by 3x, so every attribution graph
# is of the slow, cyclic kind.
SIZES = {
    "full": {
        "variants": {"audit": 6, "attribution": 9, "cli": 3},
        "audit_graphs": 18,
        # (arguments, the largest in-degrees), by variant in turn; the other
        # in-degrees are Poisson(2)-shaped and capped at 5.
        "attribution_shapes": ((32, (9, 6)), (40, (8, 6)), (48, (7, 6))),
        "queries": 10,
        "sampled": {"exact_indegree_cap": 4, "sample_count": 64},
        "max_sweeps_at_least": 20,
        "cli_graph": (2000, 3.0, 11),
    },
    "tiny": {
        "variants": {"audit": 2, "attribution": 2, "cli": 2},
        "audit_graphs": 2,
        "attribution_shapes": ((10, (4,)),),
        "queries": 2,
        "sampled": {"exact_indegree_cap": 2, "sample_count": 8},
        "max_sweeps_at_least": 0,
        "cli_graph": (50, 2.0, 5),
    },
}
KINDS = ("hbs", "car", "max", "cs")


class Round:
    """Op latencies, failures and timestamps of one round."""

    def __init__(self) -> None:
        self.first_op: float | None = None
        self.ops: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.inputs: list[dict] = []

    def start(self) -> None:
        if self.first_op is None:
            self.first_op = time.perf_counter()

    def record(self, seconds: float, problems: list[str]) -> None:
        self.ops.append(seconds)
        if problems:
            self.failed += 1
            self.problems += problems[: 5 - len(self.problems)]

    def op(self, name: str, fn, check, *args):
        """Run and time one library op, then check its result; None if it raised."""
        self.start()
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as error:  # an op that raises is a failed op, not a crash
            self.record(time.perf_counter() - t0, [f"{name} raised {error!r}"])
            return None
        self.record(time.perf_counter() - t0, check(result))
        return result


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


# -- audit -----------------------------------------------------------------


def run_audit(args, size, rnd: Round) -> None:
    from gradimpact import AuditConfig, principles

    config = AuditConfig(graph_count=size["audit_graphs"], seed=args.audit_seed)
    rnd.inputs.append({"name": "audit", "graph_count": config.graph_count, "audit_seed": config.seed})
    cells = 9 * len(config.measures) * len(config.semantics)
    # Time each cell of the matrix; the wrapper costs one clock pair per cell.
    check_principle = principles.check_principle
    cell_times: list[float] = []

    def timed_cell(*a, **k):
        t0 = time.perf_counter()
        try:
            return check_principle(*a, **k)
        finally:
            cell_times.append(time.perf_counter() - t0)

    principles.check_principle = timed_cell
    rnd.start()
    try:
        result = principles.audit(config)
    except Exception as error:  # the matrix is lost: one failed op
        rnd.record(time.perf_counter() - rnd.first_op, [f"audit raised {error!r}"])
        return
    finally:
        principles.check_principle = check_principle
    problems = checks.check_audit(result, cells)
    rnd.ops += cell_times
    rnd.failed += min(len(problems), cells)
    rnd.problems += problems[:5]


# -- attribution -----------------------------------------------------------


def _upstream(attackers: dict[str, list[str]], target: str) -> list[str]:
    seen, todo = set(), list(attackers[target])
    while todo:
        a = todo.pop()
        if a not in seen and a != target:
            seen.add(a)
            todo.extend(attackers[a])
    return sorted(seen)


def _queries(graph: inputs.Graph, rng: random.Random, count: int) -> list[tuple[list[str], str]]:
    attackers = graph.attackers()
    targets = [a for a in graph.arguments if attackers[a]]
    out = []
    for _ in range(count):
        target = rng.choice(targets)
        pool = _upstream(attackers, target)
        out.append((rng.sample(pool, min(len(pool), rng.randint(1, 3))), target))
    return out


def run_attribution(args, size, rnd: Round, work: Path) -> None:
    from gradimpact import ShapleyConfig, SemanticsSpec, attribution, formats, impact, semantics

    shapes = size["attribution_shapes"]
    n, top = shapes[args.variant % len(shapes)]
    indegrees = list(top) + inputs.poisson_indegrees(n - len(top), 2.0, 5)
    for attempt in range(1000):
        graph = inputs.sparse_graph(indegrees, _rng("attribution", args.seed, args.variant, attempt))
        if checks.picard("max", graph.attackers(), 1e-12)[1] >= size["max_sweeps_at_least"]:
            break
    tgf, apx = work / "attribution.tgf", work / "attribution.apx"
    sizes = {"tgf_bytes": inputs.write_tgf(graph, tgf), "apx_bytes": inputs.write_apx(graph, apx)}
    rnd.inputs.append({"name": "attribution", **graph.stats(), **sizes})
    path = tgf if args.variant % 2 == 0 else apx
    af = formats.parse(path.read_text(encoding="ascii"), path.suffix[1:])
    attackers = graph.attackers()

    # Two sessions of the whole run also estimate intensities by sampling.
    sampled = ShapleyConfig(**size["sampled"])
    sampled_kind = {0: "hbs", 1: "car"}.get(args.variant)

    def sampled_check(estimate):
        problems = checks.check_efficiency(attackers, estimate, values, sampled.exact_indegree_cap)
        return problems + ([] if estimate.mode == "sampled" else [f"sampled config gave {estimate.mode!r}"])

    for kind in KINDS:
        spec = SemanticsSpec(kind)
        values = rnd.op("degrees", semantics.degrees, lambda v: checks.check_degrees(kind, attackers, v), af, spec)
        if values is None:
            continue
        rnd.op("shapley_all", attribution.shapley_all, lambda m: checks.check_efficiency(attackers, m, values), af, spec)
        if kind == sampled_kind:
            rnd.op("shapley_all sampled", attribution.shapley_all, sampled_check, af, spec, sampled)
        rng = _rng("queries", args.seed, args.variant, kind)
        for name, fn, bounded in (("imp_si", impact.imp_si, False), ("imp_dv", impact.imp_dv, True)):
            check = lambda out, bounded=bounded: checks.check_impact(out.value, out.converged, bounded)  # noqa: E731
            for subject, target in _queries(graph, rng, size["queries"]):
                rnd.op(name, fn, check, af, spec, subject, target)


# -- cli -------------------------------------------------------------------


def _cli_ops(graph: inputs.Graph) -> list[tuple[str, list[str]]]:
    attackers = graph.attackers()
    hub = max(graph.arguments, key=lambda a: (len(attackers[a]), a))
    ops = [
        (f"degrees-{kind}-{fmt}", ["degrees", f"{{work}}/cli.{fmt}", "--semantics", kind])
        for fmt in ("tgf", "apx")
        for kind in KINDS
    ]
    ops.append(
        ("impact-dv", ["impact", "{work}/cli.tgf", "--semantics", "hbs", "--measure", "dv",
                       "--set", ",".join(attackers[hub]), "--target", hub])
    )
    ops += [
        ("shapley-showcase", ["shapley", "{work}/showcase.tgf", "--semantics", "hbs"]),
        ("impact-si-showcase", ["impact", "{work}/showcase.tgf", "--semantics", "hbs", "--measure", "si",
                                "--set", "a8,a10", "--target", "a4"]),
        ("annotate-showcase", ["annotate", "{work}/showcase.tgf", "--semantics", "hbs"]),
    ]
    return ops


def check_cli_output(name: str, stdout: str, graph: inputs.Graph) -> list[str]:
    """Check one CLI op's stdout against the definitions, given its input graph."""
    attackers = graph.attackers()
    try:
        if name.startswith("annotate"):
            return _check_annotation(stdout, graph)
        payload = json.loads(stdout)
        if name.startswith("degrees"):
            return checks.check_degrees(payload["semantics"], attackers, payload["degrees"])
        if name.startswith("shapley"):
            values, _ = checks.picard(payload["semantics"], attackers)
            intensities = {(v["source"], v["target"]): v["s"] for v in payload["values"]}
            problems = checks.check_efficiency(attackers, intensities, values)
            return problems + ([] if payload["mode"] == "exact" else ["shapley was not exact"])
        return checks.check_impact(payload["value"], payload["converged"], payload["measure"] != "si")
    except (ValueError, KeyError, TypeError) as error:
        return [f"{name} output unreadable: {error!r}"]


def _check_annotation(stdout: str, graph: inputs.Graph) -> list[str]:
    values, _ = checks.picard("hbs", graph.attackers())
    lines = set(stdout.splitlines())
    problems = []
    for a in graph.arguments:
        if f'  "{a}" [label="{a}\\n{values[a]:.3f}"];' not in lines:
            problems.append(f"annotate lacks node {a} at degree {values[a]:.3f}")
    edges = sum(1 for line in lines if " -> " in line)
    if edges != len(graph.attacks):
        problems.append(f"annotate drew {edges} edges for {len(graph.attacks)} attacks")
    return problems


def run_cli(args, size, rnd: Round, work: Path, trace: tracing.Tracer | None) -> None:
    from gradimpact.fixtures import showcase_af

    n, mean, top = size["cli_graph"]
    graph = inputs.sparse_graph(inputs.poisson_indegrees(n, mean, top), _rng("cli", args.seed, args.variant))
    sizes = {"tgf_bytes": inputs.write_tgf(graph, work / "cli.tgf"), "apx_bytes": inputs.write_apx(graph, work / "cli.apx")}
    rnd.inputs.append({"name": "cli", **graph.stats(), **sizes})
    bundled = showcase_af()
    showcase = inputs.Graph(bundled.arguments, bundled.attacks)
    rnd.inputs.append(
        {"name": "showcase", **showcase.stats(), "tgf_bytes": inputs.write_tgf(showcase, work / "showcase.tgf")}
    )

    entry = str(Path(__file__).with_name("cli_entry.py"))
    spans_file = work / "op-spans.tsv"
    env = dict(os.environ)
    if trace is not None:
        env["PERFBENCH_SPANS"] = str(spans_file)
    for name, argv in _cli_ops(graph):
        argv = [a.replace("{work}", str(work)) for a in argv]
        rnd.start()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, entry, *argv], cwd=ROOT, env=env,
                capture_output=True, text=True, timeout=120,
            )
        except subprocess.TimeoutExpired:
            rnd.record(time.perf_counter() - t0, [f"{name} timed out"])
            continue
        t1 = time.perf_counter()
        problems = checks.check_exit(proc.returncode, proc.stderr)
        if not problems:
            problems = check_cli_output(name, proc.stdout, showcase if "showcase" in name else graph)
        rnd.record(t1 - t0, [f"{name}: {p}" for p in problems])
        if trace is not None and spans_file.exists():
            _adopt_spans(trace, spans_file, t0, t1)


def _adopt_spans(trace: tracing.Tracer, path: Path, start: float, end: float) -> None:
    """Append a child's spans under one span covering the child process."""
    base = len(trace.spans)
    trace.spans.append(("cli.process", start, end, -1, 0))
    with path.open(encoding="utf-8") as rows:
        next(rows)
        for row in rows:
            name, s, e, parent, value = row.rstrip("\n").split("\t")
            parent = int(parent)
            trace.spans.append((name, float(s), float(e), base if parent < 0 else base + 1 + parent, float(value)))
    path.unlink()


# -- entry point -----------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("audit", "attribution", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--variant", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--audit-seed", type=int, default=0)
    args = parser.parse_args()
    size = SIZES[args.size]
    work = args.work.resolve()
    work.mkdir(parents=True, exist_ok=True)

    import gradimpact  # noqa: F401  the import is part of set-up

    trace = tracing.Tracer() if args.trace else None
    if trace is not None and args.workload != "cli":
        tracing.install(trace)
    rnd = Round()
    if args.workload == "audit":
        run_audit(args, size, rnd)
    elif args.workload == "attribution":
        run_attribution(args, size, rnd, work)
    else:
        run_cli(args, size, rnd, work, trace)
    end = time.perf_counter()

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF)
    report = {
        "first_op": rnd.first_op,
        "end": end,
        "ops": rnd.ops,
        "failed": rnd.failed,
        "problems": rnd.problems,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "inputs": rnd.inputs,
    }
    if trace is not None:
        report["layers"] = tracing.layer_metrics(trace.spans, since=rnd.first_op)
        trace.write(work / f"spans-{args.workload}.tsv")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
