import io
import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from gradimpact import (
    AuditConfig,
    GeneratorConfig,
    SemanticsSpec,
    SeriesConfig,
    ShapleyConfig,
    random_af,
)
from gradimpact.cli import (
    _audit_config,
    _semantics_spec,
    _series_config,
    _shapley_config,
    build_parser,
    main,
)
from gradimpact.formats import serialize
from gradimpact.fixtures import selfloop_af, showcase_af

TRIANGLE_APX = "arg(a1).\narg(a2).\narg(a3).\natt(a1,a2).\natt(a2,a3).\natt(a1,a3).\n"

REPO_ROOT = Path(__file__).resolve().parents[1]

# The launcher pip and distlib write for a ``console_scripts`` entry point.
LAUNCHER = """\
import re
import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({attr}())
"""


@pytest.fixture()
def showcase_tgf(tmp_path):
    path = tmp_path / "showcase.tgf"
    path.write_text(serialize(showcase_af(), "tgf"), encoding="utf-8")
    return str(path)


@pytest.fixture()
def triangle_apx(tmp_path):
    path = tmp_path / "triangle.apx"
    path.write_text(TRIANGLE_APX, encoding="utf-8")
    return str(path)


def test_degrees_emits_deterministic_json(showcase_tgf, capsys):
    argv = ["degrees", showcase_tgf, "--semantics", "hbs"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    assert payload["semantics"] == "hbs"
    assert payload["params"]["tolerance"] == 1e-12
    assert payload["degrees"]["a4"] == pytest.approx(0.389826, abs=1e-6)
    assert payload["degrees"]["a6"] == 1.0
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_degrees_reports_counting_parameters(triangle_apx, capsys):
    assert main(["degrees", triangle_apx, "--semantics", "cs"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"] == {"alpha": 0.98, "norm": 2.0}
    assert payload["degrees"]["a3"] == pytest.approx(0.2601, abs=1e-4)


def test_stdin_requires_an_explicit_format(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("a\n#\n"))
    assert main(["degrees", "-", "--semantics", "hbs"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    monkeypatch.setattr("sys.stdin", io.StringIO("a\nb\n#\na b\n"))
    assert main(["degrees", "-", "--format", "tgf", "--semantics", "hbs"]) == 0
    assert json.loads(capsys.readouterr().out)["degrees"]["b"] == 0.5


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["degrees", str(tmp_path / "nope.tgf"), "--semantics", "hbs"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unparsable_input_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.tgf"
    path.write_text("a\n#\na b c\n", encoding="utf-8")
    assert main(["degrees", str(path), "--semantics", "hbs"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "3" in err


def test_unknown_extension_needs_a_format_flag(tmp_path, capsys):
    path = tmp_path / "framework.txt"
    path.write_text("a\n#\n", encoding="utf-8")
    assert main(["degrees", str(path), "--semantics", "hbs"]) == 2
    assert "--format" in capsys.readouterr().err
    assert main(["degrees", str(path), "--format", "tgf", "--semantics", "hbs"]) == 0
    capsys.readouterr()


def test_bad_flag_values_exit_through_argparse(showcase_tgf, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["degrees", showcase_tgf, "--semantics", "median"])
    assert exit_info.value.code == 2
    capsys.readouterr()


def test_impact_query(showcase_tgf, capsys):
    rc = main(
        [
            "impact", showcase_tgf, "--semantics", "hbs",
            "--measure", "dv", "--set", "a8,a10", "--target", "a4",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["subject"] == ["a10", "a8"]
    assert payload["value"] == pytest.approx(-0.1745, abs=2e-3)
    assert payload["polarity"] == "negative"
    assert payload["converged"] is True


def test_impact_of_the_empty_set_is_neutral(showcase_tgf, capsys):
    for measure in ("dv", "dv-original", "si"):
        rc = main(
            [
                "impact", showcase_tgf, "--semantics", "max",
                "--measure", measure, "--set", "", "--target", "a4",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 0.0
        assert payload["polarity"] == "neutral"


def test_impact_with_unknown_target_exits_4(showcase_tgf, capsys):
    rc = main(
        [
            "impact", showcase_tgf, "--semantics", "hbs",
            "--measure", "dv", "--set", "a1", "--target", "zz",
        ]
    )
    assert rc == 4
    assert capsys.readouterr().err.startswith("error:")


def test_tripped_series_guard_exits_5(tmp_path, capsys):
    path = tmp_path / "loop.tgf"
    path.write_text(serialize(selfloop_af(), "tgf"), encoding="utf-8")
    rc = main(
        [
            "impact", str(path), "--semantics", "hbs", "--measure", "si",
            "--set", "a", "--target", "a", "--guard", "0.1",
        ]
    )
    assert rc == 5
    assert capsys.readouterr().err.startswith("error:")


def test_unsafe_norm_override_exits_5(tmp_path, capsys):
    path = tmp_path / "chain.tgf"
    path.write_text("a\nb\n#\na b\n", encoding="utf-8")
    rc = main(["degrees", str(path), "--semantics", "cs", "--norm", "0.5"])
    assert rc == 5
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "flags",
    [
        ["impact", "--semantics", "hbs", "--measure", "si", "--set", "a8",
         "--target", "a4", "--guard", "nan"],
        ["impact", "--semantics", "hbs", "--measure", "si", "--set", "a8",
         "--target", "a4", "--guard", "inf"],
        ["degrees", "--semantics", "cs", "--norm", "nan"],
        ["degrees", "--semantics", "cs", "--norm", "inf"],
        # A NaN tolerance would pass every cell and print invalid JSON.
        ["audit", "--graphs", "1", "--tolerance", "nan"],
        ["audit", "--graphs", "1", "--tolerance", "inf"],
        ["audit", "--graphs", "1", "--tolerance", "-1"],
    ],
)
def test_non_finite_config_values_exit_2(showcase_tgf, flags, capsys):
    argv = flags if flags[0] == "audit" else [flags[0], showcase_tgf, *flags[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "flags",
    [
        ["--measures", "dv,dv", "--semantics", "hbs"],
        ["--measures", "si", "--semantics", "hbs,max,hbs"],
    ],
)
def test_repeated_audit_names_exit_2(flags, capsys):
    assert main(["audit", "--graphs", "1", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "listed twice" in captured.err


@pytest.mark.parametrize("command", ["degrees", "shapley", "impact", "annotate"])
def test_cli_defaults_are_the_library_defaults(command):
    argv = [command, "graph.tgf", "--semantics", "cs"]
    if command == "impact":
        argv += ["--measure", "si", "--target", "a"]
    args = build_parser().parse_args(argv)
    assert _semantics_spec(args) == SemanticsSpec("cs")
    if command != "degrees":
        assert _shapley_config(args) == ShapleyConfig()
    if command == "impact":
        assert _series_config(args) == SeriesConfig()


def test_cli_audit_defaults_are_the_library_defaults():
    assert _audit_config(build_parser().parse_args(["audit"])) == AuditConfig()


def test_exhausted_iteration_budget_exits_3(tmp_path, capsys):
    path = tmp_path / "pair.tgf"
    path.write_text("a\nb\n#\na b\nb a\n", encoding="utf-8")
    rc = main(
        ["degrees", str(path), "--semantics", "hbs", "--max-iterations", "1"]
    )
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: no fixed point after 1 iterations (residual 5.000e-01)\n"
    )


def _ring_tgf(tmp_path, n):
    names = [f"a{i}" for i in range(n)]
    ring = "\n".join(f"{a} {b}" for a, b in zip(names, names[1:] + names[:1]))
    path = tmp_path / "ring.tgf"
    path.write_text("\n".join(names) + "\n#\n" + ring + "\n", encoding="utf-8")
    return str(path)


def test_large_counting_graphs_are_swept_on_the_iteration_budget(tmp_path, capsys):
    # Past 1,023 arguments cs is swept, so the budget applies: a ring's
    # first sweep moves every degree from 1 to 1 - alpha.
    path = _ring_tgf(tmp_path, 1100)
    rc = main(
        ["degrees", path, "--semantics", "cs", "--max-iterations", "1"]
    )
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: no fixed point after 1 iterations (residual 9.800e-01)\n"
    )


@pytest.mark.parametrize("n, swept", [(1023, False), (1100, True)])
def test_counting_parameters_name_the_sweep_budget_only_when_swept(
    tmp_path, capsys, n, swept
):
    argv = ["degrees", _ring_tgf(tmp_path, n), "--semantics", "cs",
            "--tolerance", "1e-10", "--max-iterations", "5000"]
    assert main(argv) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    expected = {"alpha": 0.98, "norm": 1.0}
    if swept:
        expected.update(tolerance=1e-10, max_iterations=5000)
    assert params == expected


def test_small_counting_graphs_ignore_the_iteration_budget(triangle_apx, capsys):
    assert main(["degrees", triangle_apx, "--semantics", "cs"]) == 0
    unbounded = capsys.readouterr().out
    argv = ["degrees", triangle_apx, "--semantics", "cs", "--max-iterations", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out == unbounded


@pytest.mark.parametrize(
    "flags, code, message",
    [
        (
            ["--semantics", "hbs", "--max-iterations", "1"],
            3,
            "no fixed point after 1 iterations (residual 6.667e-01)",
        ),
        # A sampled target's coalitions stand in order of first use, so the
        # first is its first permutation's empty prefix: the full framework,
        # which stops at 1.111e-01.
        (
            ["--semantics", "car", "--exact-cap", "0", "--samples", "5",
             "--max-iterations", "2"],
            3,
            "no fixed point after 2 iterations (residual 1.111e-01)",
        ),
        (
            ["--semantics", "cs", "--norm", "0.5"],
            5,
            "norm_override 0.5 is below the largest in-degree 2",
        ),
    ],
)
def test_shapley_failures_name_the_first_failing_coalition(
    tmp_path, capsys, flags, code, message
):
    path = tmp_path / "pair.tgf"
    path.write_text("a\nb\nc\n#\na b\nb a\nc a\n", encoding="utf-8")
    assert main(["shapley", str(path), *flags]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


def test_shapley_payload(triangle_apx, capsys):
    assert main(["shapley", triangle_apx, "--semantics", "cs"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["semantics"] == "cs"
    assert payload["mode"] == "exact"
    triples = [(v["source"], v["target"]) for v in payload["values"]]
    assert triples == [("a1", "a2"), ("a1", "a3"), ("a2", "a3")]
    values = {(v["source"], v["target"]): v["s"] for v in payload["values"]}
    assert values[("a1", "a2")] == pytest.approx(0.49, abs=5e-3)
    assert values[("a2", "a3")] == pytest.approx(-0.11, abs=5e-3)
    assert values[("a1", "a3")] == pytest.approx(0.85, abs=5e-3)


SAMPLED_GOLDEN = Path(__file__).with_name("sampled_golden.json")


def _sampled_intensities(path, kind, capsys):
    argv = ["shapley", path, "--semantics", kind, "--exact-cap", "0", "--samples", "50"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "sampled"
    return [[v["source"], v["target"], v["s"].hex()] for v in payload["values"]]


def test_sampled_golden(showcase_tgf, capsys):
    # Pins the permutation stream, which is keyed by the seed and each
    # target's name, so that it shows no dependence on the string hash
    # order.  After a deliberate change to the sampler, rewrite the file
    # from ``_sampled_intensities`` under each semantics.
    golden = json.loads(SAMPLED_GOLDEN.read_text(encoding="utf-8"))
    assert {kind: _sampled_intensities(showcase_tgf, kind, capsys) for kind in golden} == golden
    assert list(golden) == ["hbs", "car"]


def test_audit_json_report(capsys):
    rc = main(["audit", "--graphs", "12", "--seed", "5", "--report", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["matrix"]) == 9 * 2 * 4
    assert payload["implication_issues"] == []
    assert payload["config"]["graph_count"] == 12


def test_audit_text_report_draws_a_grid(capsys):
    rc = main(
        [
            "audit", "--graphs", "4", "--report", "text",
            "--measures", "si", "--semantics", "hbs",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["principle", "si*hbs"]
    assert "✗" not in out


def test_audit_expect_paper_flags_a_sparse_run(capsys):
    rc = main(["audit", "--expect-paper", "--no-fixtures", "--graphs", "0"])
    assert rc == 6
    captured = capsys.readouterr()
    assert "pattern mismatch: balanced under dv*hbs" in captured.err
    assert "expected counterexample" in captured.err


def test_annotate_dot(showcase_tgf, capsys):
    assert main(["annotate", showcase_tgf, "--semantics", "hbs"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph af {")
    assert '"a4" [label="a4\\n0.390"];' in out
    assert '"a3" -> "a4" [label="0.178"];' in out


def test_annotate_json(triangle_apx, capsys):
    rc = main(
        ["annotate", triangle_apx, "--format", "json", "--semantics", "cs"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degrees"]["a1"] == pytest.approx(1.0)
    assert ["a2", "a3", pytest.approx(-0.11, abs=5e-3)] in payload["intensities"]


def test_annotate_empty_framework_skips_scoring(tmp_path, capsys):
    path = tmp_path / "empty.tgf"
    path.write_text("#\n", encoding="utf-8")
    assert main(["annotate", str(path), "--semantics", "hbs"]) == 0
    assert capsys.readouterr().out == "digraph af {\n}\n"


def test_out_flag_writes_a_file_instead_of_stdout(showcase_tgf, tmp_path, capsys):
    target = tmp_path / "scores.json"
    rc = main(
        ["degrees", showcase_tgf, "--semantics", "car", "--out", str(target)]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["degrees"]["a4"] == pytest.approx(0.230054, abs=1e-6)


def _declared_console_script(name):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    return EntryPoint(name=name, value=scripts[name], group="console_scripts")


def _run_checkout(*command, text=True, **variables):
    # Run this checkout's package in a fresh interpreter, with ``variables``
    # added to its environment.
    env = dict(os.environ, **variables)
    paths = [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    return subprocess.run(
        [sys.executable, *command],
        capture_output=True, text=text, check=False, env=env,
    )


def _run_launcher(launcher, *args, text=True):
    return _run_checkout(str(launcher), *args, text=text)


def test_python_dash_m_runs_the_cli(showcase_tgf, capsys):
    args = ["degrees", showcase_tgf, "--semantics", "hbs"]
    assert main(args) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    done = _run_checkout("-m", "gradimpact", *args, text=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected


@pytest.fixture()
def console_launcher(tmp_path):
    # Check the ``gradimpact`` command that pyproject.toml declares, run the
    # way an installed console script runs it, without installing anything.
    entry = _declared_console_script("gradimpact")
    assert callable(entry.load())
    launcher = tmp_path / "gradimpact"
    launcher.write_text(
        LAUNCHER.format(module=entry.module, attr=entry.attr),
        encoding="utf-8",
    )
    return launcher


def test_console_script_is_installed(console_launcher, showcase_tgf, tmp_path):
    done = _run_launcher(
        console_launcher, "degrees", showcase_tgf, "--semantics", "hbs"
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["semantics"] == "hbs"
    # A non-zero return from main must become the process's exit status.
    missing = _run_launcher(
        console_launcher, "degrees", str(tmp_path / "nope.tgf"), "--semantics", "hbs"
    )
    assert missing.returncode == 2
    assert missing.stderr.startswith("error:")


@pytest.mark.skipif(
    shutil.which("gradimpact") is None,
    reason="no gradimpact console script on PATH",
)
def test_installed_console_script_matches_this_checkout(console_launcher, showcase_tgf):
    args = ["degrees", showcase_tgf, "--semantics", "hbs"]
    installed = subprocess.run(
        [shutil.which("gradimpact"), *args],
        capture_output=True, check=False,
    )
    assert installed.returncode == 0
    # Output is deterministic, so a stale install from another checkout shows
    # up as a difference here.
    expected = _run_launcher(console_launcher, *args, text=False).stdout
    assert installed.stdout == expected


@pytest.mark.parametrize(
    "command, unloaded",
    [
        (
            "degrees",
            [
                "gradimpact.attribution",
                "gradimpact.impact",
                "gradimpact.principles",
                "gradimpact.verdicts",
                "hashlib",
            ],
        ),
        ("shapley", ["gradimpact.principles", "gradimpact.impact"]),
        ("annotate", ["gradimpact.principles", "gradimpact.impact"]),
    ],
)
def test_a_command_loads_only_what_it_runs(command, unloaded, showcase_tgf, tmp_path):
    # Each module a cold command imports costs it start-up time; these are
    # the ones its own path never calls.
    out = str(tmp_path / "out")
    code = (
        "import sys\n"
        "from gradimpact.cli import main\n"
        f"assert main([{command!r}, {showcase_tgf!r}, '--semantics', 'hbs',"
        f" '--out', {out!r}]) == 0\n"
        "print(sorted(set(sys.argv[1:]) & set(sys.modules)))\n"
    )
    done = _run_checkout("-c", code, *unloaded)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_dense_counting_degrees_barely_move_with_the_blas_thread_count(tmp_path):
    # LAPACK may split a large solve over its threads and round an ulp or
    # two apart; a fixed OPENBLAS_NUM_THREADS makes a run byte-identical.
    path = tmp_path / "large.tgf"
    af = random_af(GeneratorConfig(320, 0.01, seed=1))
    path.write_text(serialize(af, "tgf"), encoding="utf-8")
    runs = []
    for threads in ("1", "2"):
        done = _run_checkout(
            "-m", "gradimpact", "degrees", str(path), "--semantics", "cs",
            OPENBLAS_NUM_THREADS=threads,
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout)["degrees"])
    one, two = runs
    assert one.keys() == two.keys() and len(one) == 320
    assert max(abs(one[a] - two[a]) for a in one) <= 1e-12
