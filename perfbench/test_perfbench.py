"""Smoke and negative tests for the benchmark itself.

    python3 -m pytest -q perfbench

The smoke tests run every workload at the ``tiny`` size, traced and not, and
check that each metric named in BENCHMARK.json comes back with its unit.
The negative tests feed each checker a corrupted output and expect it to be
rejected.
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_repeat_for_a_seed_and_keep_their_in_degrees():
    indegrees = inputs.poisson_indegrees(300, 3.0, 11)
    assert sum(indegrees) == 900 and max(indegrees) == 11 and indegrees.count(11) == 1
    first = inputs.sparse_graph(indegrees, random.Random("s"))
    assert first == inputs.sparse_graph(indegrees, random.Random("s"))
    assert first != inputs.sparse_graph(indegrees, random.Random("t"))
    assert sorted(map(len, first.attackers().values()), reverse=True) == indegrees
    assert len(set(first.attacks)) == len(first.attacks)
    assert all(s != t for s, t in first.attacks)


def test_written_files_read_back_identically(tmp_path):
    graph = inputs.sparse_graph(inputs.poisson_indegrees(40, 2.0, 6), random.Random(1))
    for suffix, write in ((".tgf", inputs.write_tgf), (".apx", inputs.write_apx)):
        path = tmp_path / f"g{suffix}"
        assert write(graph, path) == path.stat().st_size
        assert inputs.read_graph(path) == graph


@pytest.fixture(scope="module")
def small_graph():
    return inputs.sparse_graph(inputs.poisson_indegrees(30, 2.0, 6), random.Random(5))


@pytest.mark.parametrize("kind", ["hbs", "car", "max", "cs"])
def test_degree_check_rejects_a_perturbed_degree(small_graph, kind):
    from gradimpact import ArgumentationFramework, SemanticsSpec, degrees

    attackers = small_graph.attackers()
    af = ArgumentationFramework.of(small_graph.arguments, small_graph.attacks)
    values = dict(degrees(af, SemanticsSpec(kind)))
    assert checks.check_degrees(kind, attackers, values) == []
    values["a3"] += 1e-6
    assert checks.check_degrees(kind, attackers, values)


def test_efficiency_check_rejects_a_perturbed_intensity(small_graph):
    from gradimpact import ArgumentationFramework, SemanticsSpec, degrees, shapley_all

    attackers = small_graph.attackers()
    af = ArgumentationFramework.of(small_graph.arguments, small_graph.attacks)
    spec = SemanticsSpec("hbs")
    values, intensities = degrees(af, spec), dict(shapley_all(af, spec))
    assert checks.check_efficiency(attackers, intensities, values) == []
    attack = small_graph.attacks[0]
    intensities[attack] += 1e-6
    assert checks.check_efficiency(attackers, intensities, values)


def test_cli_check_rejects_a_non_zero_exit(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "cli_entry.py"), "degrees", str(tmp_path / "missing.tgf"), "--semantics", "hbs"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert checks.check_exit(proc.returncode, proc.stderr)


def test_cli_check_rejects_a_perturbed_degree_in_the_output(small_graph, tmp_path):
    path = tmp_path / "g.tgf"
    inputs.write_tgf(small_graph, path)
    proc = subprocess.run(
        [sys.executable, str(HERE / "cli_entry.py"), "degrees", str(path), "--semantics", "car"],
        capture_output=True, text=True, timeout=60,
    )
    assert worker.check_cli_output("degrees-car-tgf", proc.stdout, small_graph) == []
    payload = json.loads(proc.stdout)
    payload["degrees"]["a0"] *= 1.0 + 1e-7
    assert worker.check_cli_output("degrees-car-tgf", json.dumps(payload), small_graph)


def test_audit_check_rejects_a_flipped_verdict():
    from gradimpact import COUNTEREXAMPLE, NO_COUNTEREXAMPLE, AuditConfig, audit

    result = audit(AuditConfig(graph_count=2, seed=1))
    assert checks.check_audit(result, 72) == []
    first = result.verdicts[0]
    flipped = COUNTEREXAMPLE if first.status == NO_COUNTEREXAMPLE else NO_COUNTEREXAMPLE
    verdicts = (dataclasses.replace(first, status=flipped),) + result.verdicts[1:]
    assert checks.check_audit(dataclasses.replace(result, verdicts=verdicts), 72)
    assert checks.check_audit(dataclasses.replace(result, verdicts=result.verdicts[1:]), 72)


def test_impact_check_needs_convergence_and_bounds_deletion_impacts():
    assert checks.check_impact(0.3, True, bounded=True) == []
    assert checks.check_impact(0.3, False, bounded=False)
    assert checks.check_impact(1.5, True, bounded=True)
    assert checks.check_impact(1.5, True, bounded=False) == []
