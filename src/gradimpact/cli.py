"""Command-line interface.

Five subcommands: ``degrees`` scores every argument, ``shapley`` attributes
per-attack intensities, ``impact`` evaluates one impact query, ``audit`` runs
the principle falsification matrix, and ``annotate`` renders a framework with
degrees and intensities attached.  Results go to stdout (or ``--out``) as
deterministic JSON or DOT; diagnostics go to stderr.

Exit codes: 0 success, 2 unreadable or unparsable input, 3 a fixed point was
not reached, 4 an unknown argument or attack was referenced, 5 a series
diverged, 6 an audit did not match the published satisfaction pattern.

A command loads only what it runs: the attribution, impact and audit modules
are imported inside the commands that call them.  Options left unset read
as None, so the config classes' own defaults apply (``_given``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    DivergenceError,
    DivergentSeriesError,
    GradimpactError,
    NonConvergenceError,
    UnknownArgumentError,
    UnknownAttackError,
)
from .formats import parse, serialize
from .framework import ArgumentationFramework
from .semantics import (
    KINDS,
    MEASURES,
    CountingConfig,
    SemanticsSpec,
    degrees,
    weighting_payload,
)

if TYPE_CHECKING:
    from .attribution import ShapleyConfig
    from .impact import SeriesConfig
    from .principles import AuditConfig

INPUT_FORMATS = ("tgf", "apx")


def _load_framework(path: str, fmt: str | None) -> ArgumentationFramework:
    if path == "-":
        if fmt is None:
            raise ValueError("reading from stdin requires an explicit input format")
        return parse(sys.stdin.read(), fmt)
    source = Path(path)
    text = source.read_text(encoding="utf-8")
    if fmt is None:
        suffix = source.suffix.lower().lstrip(".")
        if suffix not in INPUT_FORMATS:
            raise ValueError(
                f"cannot infer the input format of {path!r}; pass --format"
            )
        fmt = suffix
    return parse(text, fmt)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _given(config: type, args: argparse.Namespace, **derived):
    """``config`` from the options set, each stored under its field's name,
    and ``derived`` fields; a None leaves the class's own default in place."""
    given = {f.name: getattr(args, f.name, None) for f in fields(config)} | derived
    return config(**{name: value for name, value in given.items() if value is not None})


def _names(raw: str | None) -> tuple[str, ...] | None:
    return None if raw is None else tuple(raw.split(","))


def _semantics_spec(args: argparse.Namespace) -> SemanticsSpec:
    return _given(SemanticsSpec, args, counting=_given(CountingConfig, args))


def _shapley_config(args: argparse.Namespace) -> ShapleyConfig:
    from .attribution import ShapleyConfig
    return _given(ShapleyConfig, args)


def _series_config(args: argparse.Namespace) -> SeriesConfig:
    from .impact import SeriesConfig
    return _given(SeriesConfig, args)


def _audit_config(args: argparse.Namespace) -> AuditConfig:
    from .principles import AuditConfig
    low, high = AuditConfig.size_range
    size_range = (
        low if args.size_min is None else args.size_min,
        high if args.size_max is None else args.size_max,
    )
    probability = args.probability
    return _given(
        AuditConfig,
        args,
        size_range=size_range,
        probability_range=None if probability is None else (probability, probability),
        measures=_names(args.measures),
        semantics=_names(args.semantics),
        include_fixtures=not args.no_fixtures,
    )


def cmd_degrees(args: argparse.Namespace) -> int:
    af = _load_framework(args.input, args.input_format)
    spec = _semantics_spec(args)
    payload = weighting_payload(af, spec, degrees(af, spec))
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def cmd_shapley(args: argparse.Namespace) -> int:
    from .attribution import shapley_all
    af = _load_framework(args.input, args.input_format)
    spec = _semantics_spec(args)
    measure = shapley_all(af, spec, _shapley_config(args))
    _emit(json.dumps(measure.to_payload(spec.kind), sort_keys=True) + "\n", args.out)
    return 0


def _parse_subject(raw: str) -> list[str]:
    return [piece for piece in (p.strip() for p in raw.split(",")) if piece]


def cmd_impact(args: argparse.Namespace) -> int:
    from .impact import evaluate_impact, impact_payload
    af = _load_framework(args.input, args.input_format)
    spec = _semantics_spec(args)
    subject = _parse_subject(args.set)
    outcome = evaluate_impact(
        args.measure,
        af,
        spec,
        subject,
        args.target,
        shapley_config=_shapley_config(args),
        series=_series_config(args),
    )
    payload = impact_payload(args.measure, spec, subject, args.target, outcome)
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from .principles import audit, compare_with_expected, crosscheck_implications
    result = audit(_audit_config(args))
    payload = result.to_dict()
    payload["implication_issues"] = crosscheck_implications(result)
    parts = []
    if args.report in ("text", "both"):
        parts.append(result.render_text())
    if args.report in ("json", "both"):
        parts.append(json.dumps(payload, sort_keys=True) + "\n")
    _emit("".join(parts), args.out)
    if args.expect_paper:
        problems = compare_with_expected(result)
        if problems:
            for problem in problems:
                print(f"pattern mismatch: {problem}", file=sys.stderr)
            return 6
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    from .attribution import shapley_all
    af = _load_framework(args.input, args.input_format)
    if not af.arguments:
        _emit(serialize(af, args.format), args.out)
        return 0
    spec = _semantics_spec(args)
    scored = degrees(af, spec)
    measure = shapley_all(af, spec, _shapley_config(args))
    _emit(
        serialize(af, args.format, degrees=scored, intensities=measure.as_dict()),
        args.out,
    )
    return 0


def _add_input_arguments(parser: argparse.ArgumentParser, *, as_format: bool) -> None:
    parser.add_argument("input", help="framework file, or - for stdin")
    flags = ["--input-format"] if not as_format else ["--format", "--input-format"]
    parser.add_argument(
        *flags,
        dest="input_format",
        choices=INPUT_FORMATS,
        default=None,
        help="input format; inferred from the file extension when omitted",
    )
    parser.add_argument("--out", default=None, help="write output here instead of stdout")


def _field(parser: argparse.ArgumentParser, flag: str, field: str, kind: type, **extra):
    # An option stored under its config field's name, and shown as the flag.
    metavar = flag[2:].upper().replace("-", "_")
    parser.add_argument(flag, dest=field, metavar=metavar, type=kind, **extra)


def _add_semantics_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--semantics", dest="kind", required=True, choices=KINDS, help="scoring rule"
    )
    parser.add_argument("--tolerance", type=float)
    parser.add_argument("--max-iterations", type=int)
    _field(parser, "--alpha", "damping", float, help="damping factor for cs")
    _field(parser, "--norm", "norm_override", float, help="normalisation override for cs")


def _add_shapley_arguments(parser: argparse.ArgumentParser) -> None:
    _field(parser, "--exact-cap", "exact_indegree_cap", int)
    _field(parser, "--samples", "sample_count", int)
    _field(parser, "--sample-seed", "seed", int)


def _add_series_arguments(parser: argparse.ArgumentParser) -> None:
    _field(parser, "--series-tolerance", "truncation_tolerance", float)
    _field(parser, "--max-walk", "max_walk_length", int)
    _field(parser, "--guard", "divergence_guard", float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradimpact",
        description="Acceptability degrees, attack intensities and impact measures",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("degrees", help="score every argument")
    _add_input_arguments(p, as_format=True)
    _add_semantics_arguments(p)
    p.set_defaults(func=cmd_degrees)

    p = commands.add_parser("shapley", help="attribute per-attack intensities")
    _add_input_arguments(p, as_format=True)
    _add_semantics_arguments(p)
    _add_shapley_arguments(p)
    p.set_defaults(func=cmd_shapley)

    p = commands.add_parser("impact", help="evaluate one impact query")
    _add_input_arguments(p, as_format=True)
    _add_semantics_arguments(p)
    _add_shapley_arguments(p)
    _add_series_arguments(p)
    p.add_argument("--measure", required=True, choices=MEASURES)
    p.add_argument(
        "--set",
        default="",
        help="comma-separated subject arguments; empty for the empty set",
    )
    p.add_argument("--target", required=True)
    p.set_defaults(func=cmd_impact)

    p = commands.add_parser("audit", help="falsification-audit the principles")
    _field(p, "--graphs", "graph_count", int)
    p.add_argument("--size-min", type=int)
    p.add_argument("--size-max", type=int)
    p.add_argument("--probability", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--measures")
    p.add_argument("--semantics")
    p.add_argument("--no-fixtures", action="store_true")
    p.add_argument(
        "--report", choices=("both", "json", "text"), default="both",
        help="which renderings to emit",
    )
    p.add_argument(
        "--expect-paper",
        action="store_true",
        help="exit 6 unless the verdicts match the published satisfaction pattern",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_audit)

    p = commands.add_parser("annotate", help="render with degrees and intensities")
    _add_input_arguments(p, as_format=False)
    p.add_argument(
        "--format", dest="format", choices=("dot", "json"), default="dot",
        help="output format",
    )
    _add_semantics_arguments(p)
    _add_shapley_arguments(p)
    p.set_defaults(func=cmd_annotate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UnknownArgumentError, UnknownAttackError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 4
    except NonConvergenceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except (DivergenceError, DivergentSeriesError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 5
    except (GradimpactError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
