"""Command-line interface.

Five subcommands: ``degrees`` scores every argument, ``shapley`` attributes
per-attack intensities, ``impact`` evaluates one impact query, ``audit`` runs
the principle falsification matrix, and ``annotate`` renders a framework with
degrees and intensities attached.  Results go to stdout (or ``--out``) as
deterministic JSON or DOT; diagnostics go to stderr.

Exit codes: 0 success, 2 unreadable or unparsable input, 3 a fixed point was
not reached, 4 an unknown argument or attack was referenced, 5 a series
diverged, 6 an audit did not match the published satisfaction pattern.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .attribution import ShapleyConfig, shapley_all
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
from .impact import MEASURES, SeriesConfig, evaluate_impact, impact_payload
from .principles import (
    AuditConfig,
    audit,
    compare_with_expected,
    crosscheck_implications,
)
from .semantics import (
    CountingConfig,
    KINDS,
    SemanticsSpec,
    degrees,
    weighting_payload,
)

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


def _semantics_spec(args: argparse.Namespace) -> SemanticsSpec:
    counting = CountingConfig(damping=args.alpha, norm_override=args.norm)
    return SemanticsSpec(
        kind=args.semantics,
        tolerance=args.tolerance,
        max_iterations=args.max_iterations,
        counting=counting,
    )


def _shapley_config(args: argparse.Namespace) -> ShapleyConfig:
    return ShapleyConfig(
        exact_indegree_cap=args.exact_cap,
        sample_count=args.samples,
        seed=args.sample_seed,
    )


def _series_config(args: argparse.Namespace) -> SeriesConfig:
    return SeriesConfig(
        truncation_tolerance=args.series_tolerance,
        max_walk_length=args.max_walk,
        divergence_guard=args.guard,
    )


def _audit_config(args: argparse.Namespace) -> AuditConfig:
    return AuditConfig(
        graph_count=args.graphs,
        size_range=(args.size_min, args.size_max),
        probability_range=(args.probability, args.probability),
        seed=args.seed,
        tolerance=args.tolerance,
        measures=tuple(args.measures.split(",")),
        semantics=tuple(args.semantics.split(",")),
        include_fixtures=not args.no_fixtures,
    )


def cmd_degrees(args: argparse.Namespace) -> int:
    af = _load_framework(args.input, args.input_format)
    spec = _semantics_spec(args)
    payload = weighting_payload(af, spec, degrees(af, spec))
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def cmd_shapley(args: argparse.Namespace) -> int:
    af = _load_framework(args.input, args.input_format)
    spec = _semantics_spec(args)
    measure = shapley_all(af, spec, _shapley_config(args))
    _emit(json.dumps(measure.to_payload(spec.kind), sort_keys=True) + "\n", args.out)
    return 0


def _parse_subject(raw: str) -> list[str]:
    return [piece for piece in (p.strip() for p in raw.split(",")) if piece]


def cmd_impact(args: argparse.Namespace) -> int:
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


def _add_semantics_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--semantics", required=True, choices=KINDS, help="scoring rule"
    )
    parser.add_argument("--tolerance", type=float, default=SemanticsSpec.tolerance)
    parser.add_argument(
        "--max-iterations", type=int, default=SemanticsSpec.max_iterations
    )
    parser.add_argument(
        "--alpha", type=float, default=CountingConfig.damping,
        help="damping factor for cs",
    )
    parser.add_argument(
        "--norm", type=float, default=CountingConfig.norm_override,
        help="normalisation override for cs",
    )


def _add_shapley_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--exact-cap", type=int, default=ShapleyConfig.exact_indegree_cap
    )
    parser.add_argument("--samples", type=int, default=ShapleyConfig.sample_count)
    parser.add_argument("--sample-seed", type=int, default=ShapleyConfig.seed)


def _add_series_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--series-tolerance", type=float, default=SeriesConfig.truncation_tolerance
    )
    parser.add_argument("--max-walk", type=int, default=SeriesConfig.max_walk_length)
    parser.add_argument("--guard", type=float, default=SeriesConfig.divergence_guard)


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
    audit_defaults = AuditConfig()
    p.add_argument("--graphs", type=int, default=audit_defaults.graph_count)
    p.add_argument("--size-min", type=int, default=audit_defaults.size_range[0])
    p.add_argument("--size-max", type=int, default=audit_defaults.size_range[1])
    p.add_argument(
        "--probability", type=float, default=audit_defaults.probability_range[0]
    )
    p.add_argument("--seed", type=int, default=audit_defaults.seed)
    p.add_argument("--tolerance", type=float, default=audit_defaults.tolerance)
    p.add_argument("--measures", default=",".join(audit_defaults.measures))
    p.add_argument("--semantics", default=",".join(audit_defaults.semantics))
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
