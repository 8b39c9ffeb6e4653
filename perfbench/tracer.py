"""Span tracing around the library's public entry points, for traced runs only.

``install`` rebinds each layer's public functions, in their own module and in
every module that imported them by name, to wrappers that record a span:
``(name, start, end, parent, value)``.  ``parent`` is the index of the
enclosing span or -1; ``value`` carries one number the layer metrics need
(solves for a degree call, characters for a parse, trials for a principle,
1 for a sampled Shapley measure).  Spans stay in memory until ``write``.

Nothing under ``src/`` changes: the wrappers live here and are installed only
in a traced round, so an untraced round runs the library untouched.
"""

from __future__ import annotations

import time
from pathlib import Path

PRINCIPLES = (
    "anonymity",
    "independence",
    "balanced",
    "void",
    "directionality",
    "minimisation",
    "zero",
    "symmetry",
    "existence",
)
FRAMEWORK_OPS = ("delete_attacks", "delete_arguments", "restrict", "union", "rename")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, name, fn, after=None, before=None):
        """``fn`` recording a span.

        ``name`` may be a function of the call's arguments.  ``after(token,
        args, kwargs, result)`` gives the span's value, where ``token`` is
        what ``before()`` returned just before the call.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            token = before() if before is not None else None
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                amount = after(token, args, kwargs, result) if after is not None else 0
                spans[index] = (label, start, end, parent, amount)

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\tvalue\n")
            for name, start, end, parent, value in self.spans:
                out.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{value}\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points, wherever the name is bound."""
    from gradimpact import (
        attribution,
        automorphisms,
        cli,
        formats,
        framework,
        generate,
        impact,
        principles,
        semantics,
    )

    def rebind(modules, attr, wrapped):
        for module in modules:
            if hasattr(module, attr):
                setattr(module, attr, wrapped)

    def spec_of(args, kwargs):
        return kwargs.get("spec", args[1] if len(args) > 1 else None)

    af_class = framework.ArgumentationFramework
    of = af_class.__dict__["of"].__func__
    af_class.of = classmethod(tracer.wrap("framework.of", of))
    for op in FRAMEWORK_OPS:
        setattr(af_class, op, tracer.wrap(f"framework.{op}", getattr(af_class, op)))

    def text_size(token, args, kwargs, result):
        return len(kwargs.get("text", args[0]))

    for attr in ("parse", "parse_tgf", "parse_apx"):
        wrapped = tracer.wrap(f"formats.{attr}", getattr(formats, attr), text_size)
        rebind((formats, cli), attr, wrapped)

    wrapped = tracer.wrap("generate.random_af", generate.random_af)
    rebind((generate, principles), "random_af", wrapped)

    # Solves are misses of the degree cache, read before and after each call.
    cache_info = semantics._cached_degrees.cache_info
    wrapped = tracer.wrap(
        lambda *a, **k: f"semantics.{spec_of(a, k).kind}",
        semantics.degrees,
        after=lambda token, args, kwargs, result: cache_info().misses - token,
        before=lambda: cache_info().misses,
    )
    rebind((semantics, attribution, impact, principles, cli), "degrees", wrapped)

    def sampled(token, args, kwargs, result):
        return int(result is not None and result.mode == "sampled")

    wrapped = tracer.wrap("attribution.shapley_all", attribution.shapley_all, sampled)
    rebind((attribution, impact, cli), "shapley_all", wrapped)

    for attr, label in (("imp_dv", "dv"), ("imp_si", "si")):
        setattr(impact, attr, tracer.wrap(f"impact.{label}", getattr(impact, attr)))

    wrapped = tracer.wrap("automorphisms.find", automorphisms.find_automorphisms)
    rebind((automorphisms, principles), "find_automorphisms", wrapped)

    def trials(token, args, kwargs, result):
        return result.trials if result is not None else 0

    principles.check_principle = tracer.wrap(
        lambda *a, **k: f"principles.{k.get('principle', a[0] if a else '')}",
        principles.check_principle,
        trials,
    )
    for attr in ("audit", "compare_with_expected", "crosscheck_implications", "corpus_frameworks"):
        wrapped = tracer.wrap(f"principles.{attr}", getattr(principles, attr))
        rebind((principles, cli), attr, wrapped)

    cli.main = tracer.wrap("cli.main", cli.main)


def layer_metrics(spans: list, since: float) -> dict[str, float]:
    """Per-layer counts and self times from one round's spans, all additive.

    A span's self time is its duration minus that of its direct children.
    ``calls`` counts a layer's outermost spans only, so a framework
    operation that builds its result through ``of`` counts once.
    ``tracing.top_level_s`` covers the top-level spans from ``since`` on,
    the part of the round's wall time the spans account for.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, value in spans:
        if parent >= 0:
            child[parent] += end - start
    layer = [name.split(".", 1)[0] for name, *_ in spans]
    out: dict[str, float] = {}

    def add(key, amount):
        out[key] = out.get(key, 0.0) + amount

    for i, (name, start, end, parent, value) in enumerate(spans):
        own = end - start - child[i]
        outermost = parent < 0 or layer[parent] != layer[i]
        top, _, rest = name.partition(".")
        if top == "formats":
            add("formats.parse_s", own)
            if outermost:
                add("formats.parse_calls", 1)
                add("formats.parse_chars", value)
        elif top == "framework":
            add("framework.derive_s", own)
            if outermost:
                add("framework.derive_calls", 1)
        elif top == "generate":
            add("generate.random_af_s", own)
        elif top == "semantics":
            add(f"semantics.{rest}.calls", 1)
            add(f"semantics.{rest}.solves", value)
            add(f"semantics.{rest}.self_s", own)
            if value and _has_ancestor(spans, parent, "attribution."):
                add("attribution.coalition_solves", value)
        elif top == "attribution":
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", own)
            add("attribution.sampled_sessions", value)
        elif top == "impact":
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", own)
        elif top == "automorphisms":
            add("automorphisms.calls", 1)
            add("automorphisms.self_s", own)
        elif top == "principles" and rest in PRINCIPLES:
            add(f"{name}.self_s", own)
            add(f"{name}.trials", value)
    out["tracing.top_level_s"] = sum(end - start for _, start, end, parent, _ in spans if parent < 0 and start >= since)
    return out


def _has_ancestor(spans: list, index: int, prefix: str) -> bool:
    while index >= 0:
        if spans[index][0].startswith(prefix):
            return True
        index = spans[index][3]
    return False
