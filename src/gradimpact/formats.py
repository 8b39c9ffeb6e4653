"""Reading and writing attack graphs in TGF, APX, JSON and DOT form.

All serializers emit sorted, newline-terminated text so that equal frameworks
always produce byte-identical output.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from operator import itemgetter
from typing import Mapping

from .errors import (
    DuplicateArgumentError,
    DuplicateAttackError,
    FormatSyntaxError,
    InconsistentAnnotationError,
    MissingSeparatorError,
    UnknownEndpointError,
)
from .framework import ArgumentationFramework, Attack

FORMATS = ("tgf", "apx", "json", "dot")

# Whitespace within a line of a text whose every line ends in '\n'.  The
# patterns are compiled on first use, by ``re``'s cache.
_SPACE = r"[^\S\n]*"


def _statement(identifier: str) -> str:
    return (
        rf"arg\({_SPACE}{identifier}{_SPACE}\){_SPACE}\."
        rf"|att\({_SPACE}{identifier}{_SPACE},{_SPACE}{identifier}{_SPACE}\){_SPACE}\."
    )


_IDENTIFIER = r"[^(),.\s%]+"
# One token of an APX text: a comment line; a comment after statements,
# which runs to the end of its line and holds no statement; a statement;
# or a stray visible character, which makes the text faulty.
_APX_TOKEN = (
    rf"(?m)^{_SPACE}%.*|%(?:(?!{_statement(_IDENTIFIER)}).)*$"
    rf"|{_statement(f'({_IDENTIFIER})')}|(\S)"
)


def _framework(
    arguments: list[str], attacks: list[Attack]
) -> ArgumentationFramework | None:
    """The framework of parsed arguments and attacks, or None if an argument
    or an attack repeats, or an attack names an undeclared argument."""
    known, edges = set(arguments), set(attacks)
    if (
        len(known) < len(arguments)
        or len(edges) < len(attacks)
        or not known.issuperset(chain.from_iterable(edges))
    ):
        return None
    # Checked and sorted as ``ArgumentationFramework.of`` would: by target,
    # then stably by source, since string keys sort faster than pairs.
    by_target = sorted(attacks, key=itemgetter(1))
    return ArgumentationFramework(
        tuple(sorted(arguments)), tuple(sorted(by_target, key=itemgetter(0)))
    )


def parse_tgf(text: str) -> ArgumentationFramework:
    """Parse trivial graph format: node lines, a '#' line, then edge lines.

    Every line is split at once and the tokens are checked with set
    operations; a faulty text raises what its first faulty line raises.
    """
    lines = text.splitlines()
    fields = [line.split() for line in lines]
    cut = fields.index(["#"]) if ["#"] in fields else len(fields)
    nodes, edges = fields[:cut], fields[cut + 1 :]
    if (
        cut < len(fields)
        and max(map(len, nodes), default=0) <= 1
        and set(map(len, edges)) <= {0, 2}
    ):
        af = _framework(
            list(chain.from_iterable(nodes)), [(s, t) for s, t in filter(None, edges)]
        )
        if af is not None:
            return af
    raise _tgf_fault(lines, fields, cut)


def _tgf_fault(lines: list[str], fields: list[list[str]], cut: int) -> ParseError:
    """The error of the first faulty line of a TGF text, in the order a
    reading line by line meets them: ``fields`` holds each line's tokens,
    and ``cut`` is the first '#' line's index, ``len(lines)`` without one."""
    known: set[str] = set()
    seen: set[Attack] = set()
    for number, (raw, tokens) in enumerate(zip(lines, fields), start=1):
        if number <= cut:
            if len(tokens) > 1:
                return FormatSyntaxError(number, raw)
            if tokens and tokens[0] in known:
                return DuplicateArgumentError(tokens[0])
            known.update(tokens)
        elif number > cut + 1 and tokens:
            # A second '#' line is one token, as faulty as any other.
            if len(tokens) != 2:
                return FormatSyntaxError(number, raw)
            unknown = [end for end in tokens if end not in known]
            if unknown:
                return UnknownEndpointError(unknown[0])
            if tuple(tokens) in seen:
                return DuplicateAttackError(*tokens)
            seen.add(tuple(tokens))
    return MissingSeparatorError("no '#' separator line found")


def parse_apx(text: str) -> ArgumentationFramework:
    """Parse ASPARTIX facts: ``arg(id).`` and ``att(src,dst).`` statements.

    One scan reads every statement and comment of the text, and the
    identifiers are checked with set operations.  A faulty text raises what
    its first faulty line raises, and an attack on an undeclared argument,
    after every line has been read, what the first such attack raises.
    """
    lines = text.splitlines()
    joined = "\n".join(lines) + "\n"
    found = re.findall(_APX_TOKEN, joined)
    if not any(map(itemgetter(3), found)):
        af = _framework(
            [a for a, _, _, _ in found if a], [(s, t) for _, s, t, _ in found if s]
        )
        if af is not None:
            return af
    raise _apx_fault(lines, joined)


def _apx_fault(lines: list[str], joined: str) -> ParseError:
    """The first error of a faulty APX text, token by token as a line by
    line reading meets it: a line's first stray character stops the reading
    there, and attacks on undeclared arguments are sought last."""
    arguments: set[str] = set()
    attacks: dict[Attack, None] = {}
    for token in re.finditer(_APX_TOKEN, joined):
        identifier, source, target, stray = token.groups()
        if stray is not None:
            number = joined.count("\n", 0, token.start())
            return FormatSyntaxError(number + 1, lines[number])
        if identifier in arguments:
            return DuplicateArgumentError(identifier)
        if (source, target) in attacks:
            return DuplicateAttackError(source, target)
        if identifier is not None:
            arguments.add(identifier)
        elif source is not None:
            attacks[source, target] = None
    unknown = (end for attack in attacks for end in attack if end not in arguments)
    return UnknownEndpointError(next(unknown))


def _check_identifier(identifier: str, fmt: str) -> None:
    if fmt == "tgf" and (any(c.isspace() for c in identifier) or identifier == "#"):
        raise ValueError(f"identifier {identifier!r} cannot be written as TGF")
    if fmt == "apx" and not re.fullmatch(_IDENTIFIER, identifier):
        raise ValueError(f"identifier {identifier!r} cannot be written as APX")


def _check_annotations(
    af: ArgumentationFramework,
    degrees: Mapping[str, float] | None,
    intensities: Mapping[Attack, float] | None,
) -> None:
    if degrees is not None and set(degrees) != set(af.arguments):
        raise InconsistentAnnotationError(
            "degree annotation does not cover the arguments exactly"
        )
    if intensities is not None and set(intensities) != set(af.attacks):
        raise InconsistentAnnotationError(
            "intensity annotation does not cover the attacks exactly"
        )


def _dot_quote(identifier: str) -> str:
    return '"' + identifier.replace("\\", "\\\\").replace('"', '\\"') + '"'


def serialize(
    af: ArgumentationFramework,
    fmt: str,
    *,
    degrees: Mapping[str, float] | None = None,
    intensities: Mapping[Attack, float] | None = None,
) -> str:
    """Render a framework in the given format.

    Optional annotations label nodes with degrees and edges with attack
    intensities; they are supported for ``dot`` and ``json`` only and must
    cover the framework exactly.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if fmt in ("tgf", "apx") and (degrees is not None or intensities is not None):
        raise ValueError(f"annotations are not supported for {fmt!r}")
    _check_annotations(af, degrees, intensities)

    if fmt == "tgf":
        for a in af.arguments:
            _check_identifier(a, "tgf")
        lines = list(af.arguments) + ["#"] + [f"{s} {t}" for s, t in af.attacks]
        return "\n".join(lines) + "\n"

    if fmt == "apx":
        for a in af.arguments:
            _check_identifier(a, "apx")
        lines = [f"arg({a})." for a in af.arguments]
        lines += [f"att({s},{t})." for s, t in af.attacks]
        return "\n".join(lines) + "\n" if lines else ""

    if fmt == "json":
        payload: dict = af.to_dict()
        if degrees is not None:
            payload["degrees"] = {a: degrees[a] for a in af.arguments}
        if intensities is not None:
            payload["intensities"] = [
                [s, t, intensities[(s, t)]] for s, t in af.attacks
            ]
        return json.dumps(payload, sort_keys=True) + "\n"

    lines = ["digraph af {"]
    for a in af.arguments:
        if degrees is not None:
            esc = a.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f"  {_dot_quote(a)} [label=\"{esc}\\n{degrees[a]:.3f}\"];")
        else:
            lines.append(f"  {_dot_quote(a)};")
    for s, t in af.attacks:
        if intensities is not None:
            value = intensities[(s, t)]
            lines.append(
                f"  {_dot_quote(s)} -> {_dot_quote(t)} [label=\"{value:.3f}\"];"
            )
        else:
            lines.append(f"  {_dot_quote(s)} -> {_dot_quote(t)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse(text: str, fmt: str) -> ArgumentationFramework:
    """Parse ``text`` as the given input format (``tgf`` or ``apx``)."""
    if fmt == "tgf":
        return parse_tgf(text)
    if fmt == "apx":
        return parse_apx(text)
    raise ValueError(f"unknown input format {fmt!r}")
