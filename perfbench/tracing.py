"""Span tracing around the package's public functions, from outside `src/`.

`Tracer.installed()` replaces each traced function at every module attribute
that names it (so `nonincidence.cli.validate_design` is wrapped as well as
`nonincidence.design.validate_design`) and restores the originals on exit.
Spans stay in memory until `write()`.  The private recursion
`_BranchAndBound._rec` is never wrapped: node counts come from the
`SearchReport` each search returns.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import nonincidence
from nonincidence import bounds, cli, constructions, design, search

MODULES = (nonincidence, bounds, constructions, design, search, cli)

# (module, attribute path) of every traced public function.  Span names are
# "<module>.<path>", as in the per-layer metric names.
TARGETS = (
    (search, "exact_max_nonincident"),
    (search, "greedy_max_nonincident"),
    (constructions, "embed_subsystem"),
    (constructions, "bose"),
    (constructions, "doubling"),
    (constructions, "build_sts"),
    (design, "validate_design"),
    (design, "verify_certificate"),
    (design, "Design.digest"),
    (design, "Design.from_blocks"),
    (design, "Design.from_json"),
    (design, "NonincidenceCertificate.build"),
    (bounds, "nonincidence_upper_bound"),
    (bounds, "disjoint_block_bound"),
    (cli, "cmd_construct"),
    (cli, "cmd_search"),
    (cli, "cmd_verify"),
)

SEARCHES = ("search.exact_max_nonincident", "search.greedy_max_nonincident")


def span_name(module, path: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{path}"


class Tracer:
    """Records one span per traced call: name, start, end, parent, op id."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, extra]
        self.op = "setup"
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name in SEARCHES:
                span[5] = [result.nodes_visited, result.exact]
            elif name == "design.Design.from_json":
                span[5] = len(args[-1] if args else kwargs["text"])
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        undo = []
        try:
            for module, path in TARGETS:
                name = span_name(module, path)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    setattr(cls, attr, new)
                    undo.append((cls, attr, raw))
                    continue
                original = getattr(module, path)
                wrapped = self._wrap(name, original)
                for mod in MODULES:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            undo.append((mod, attr, original))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def layer_stats(self) -> dict[str, dict]:
        """Per span name: calls, busy_s, self_s and the name's own counts.

        busy_s counts a span only when no ancestor has the same name, so a
        recursive call (build_sts -> embed_subsystem -> build_sts) is not
        counted twice; self_s is a span's duration minus its children's.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        stats: dict[str, dict] = {}
        for module, path in TARGETS:
            stats[span_name(module, path)] = {
                "calls": 0, "busy_s": 0.0, "self_s": 0.0}
        for i, (name, start, end, parent, _, extra) in enumerate(spans):
            st = stats[name]
            dur = end - start
            st["calls"] += 1
            st["self_s"] += dur - child_time[i]
            anc = parent
            while anc is not None and spans[anc][0] != name:
                anc = spans[anc][3]
            if anc is None:
                st["busy_s"] += dur
            if name in SEARCHES and isinstance(extra, list):
                st["nodes"] = st.get("nodes", 0) + extra[0]
                st["exact"] = st.get("exact", 0) + bool(extra[1])
            elif name == "design.Design.from_json" and isinstance(extra, int):
                st["bytes"] = st.get("bytes", 0) + extra
            elif name == "constructions.embed_subsystem" and extra == "BudgetExhausted":
                st["budget_exhausted"] = st.get("budget_exhausted", 0) + 1
        return stats

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op", "extra")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
