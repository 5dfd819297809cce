"""Span tracing from outside the library, and the per-layer metrics.

``Tracer.install`` replaces public dsrg functions with wrappers at the
place where the calling module looks them up (``dsrg.cli.canonical_form``,
``dsrg.iso.are_isomorphic``, the ``cons.*``/``grp.*`` builders that
``cli.all_construction_results`` calls, ...).  Each call records a span
``[name, start, end, parent, note]`` in memory; ``note`` is a small value
taken from the arguments or the result after the clock has stopped, such
as the matrix order or whether a witness was found.  Nothing inside
``src/dsrg`` is changed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, NOTE = range(5)


def has_twins(a) -> bool:
    """True when two vertices have identical in- and out-neighbourhoods."""
    return len(set(zip(a.rows, a.transpose().rows))) < a.n


def _order(args, result):
    return args[0].n


def _found(args, result):
    return result is not None


def _length(args, result):
    return len(result)


# (module, attribute, span name, note). The cli attributes are the names
# cli.py imported into its own namespace; the others are module globals
# that the library's own functions look up at call time.
_CANONICAL = ("iso.canonical_form", lambda args, result: has_twins(args[0]))
_VERIFY = ("params.verify_dsrg", None)
_MAT_MUL = ("matrix.mat_mul_count", _order)
_BUILDERS = [
    ("constructions", "cons", ["duval_b", "duval_c", "m_construction",
                               "wide_blocks", "tall_blocks", "bordered_team_dsrg",
                               "team_dsrg", "pq_search", "pq_dsrg",
                               "kronecker_expand", "cycle_sum_dsrg", "qr_search",
                               "qr_dsrg"]),
    ("groups", "grp", ["cayley_dsrg", "hobart_shaw", "symmetric_group"]),
]
TARGETS = [
    ("cli", "canonical_form", *_CANONICAL),
    ("cli", "verify_dsrg", *_VERIFY),
    ("cli", "enumerate_feasible", "params.enumerate_feasible", _length),
    ("cli", "enumerate_regular_tournaments", "tournaments.enumerate", _length),
    ("cli", "all_construction_results", "constructions.all",
     lambda args, result: (len(result), len(args[1]) if len(args) > 1 else 0)),
    ("iso", "canonical_form", *_CANONICAL),
    ("iso", "are_isomorphic", "iso.are_isomorphic", _found),
    ("params", "verify_dsrg", *_VERIFY),
    ("params", "mat_mul_count", *_MAT_MUL),
    ("params", "duval_feasible", "params.duval_feasible", None),
    ("tournaments", "mat_mul_count", *_MAT_MUL),
    ("constructions", "verify_dsrg", *_VERIFY),
    ("adjio", "parse_adj", "adjio.parse_adj",
     lambda args, result: len(args[0])),
] + [(module, fn, f"{prefix}.{fn}", None)
     for module, prefix, fns in _BUILDERS for fn in fns]


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name, note in TARGETS:
            module = getattr(self.lib, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, note))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: Path, t0: float) -> None:
        """Spans as [name id, start us, duration us, parent index], with
        start times relative to t0."""
        names = sorted({s[NAME] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        rows = [[ids[s[NAME]], round((s[START] - t0) * 1e6),
                 round((s[END] - s[START]) * 1e6), s[PARENT]]
                for s in self.spans]
        path.write_text(json.dumps({"names": names, "spans": rows},
                                   separators=(",", ":")))


def span_cost_s(calls: int = 20000, batches: int = 9) -> float:
    """Seconds one wrapper adds to a call: the median over batches of a
    traced no-op call minus a plain one.  Most of it falls outside the
    child's span, so it counts in the self time of the caller's span."""
    def noop(*args):
        return None
    traced = Tracer(None)._wrap(noop, "noop", None)
    costs = []
    for _ in range(batches):
        t = perf_counter()
        for _ in range(calls):
            noop(0)
        plain = perf_counter() - t
        t = perf_counter()
        for _ in range(calls):
            traced(0)
        costs.append((perf_counter() - t - plain) / calls)
    return statistics.median(costs)


def layer_metrics(spans: list[list], lo: int, hi: int,
                  setup: tuple[int, int]) -> dict[str, float]:
    """Per-layer metrics of the spans with index in [lo, hi), one timed
    iteration.  The construction and group metrics also take the set-up
    spans, because on ``classify`` the builders run only in set-up."""
    def outermost(name, first=lo, last=hi):
        out = []
        for i in range(first, last):
            if spans[i][NAME] != name:
                continue
            p = spans[i][PARENT]
            while p >= first and spans[p][NAME] != name:
                p = spans[p][PARENT]
            if p < first:
                out.append(spans[i])
        return out

    def total(group):
        return sum(s[END] - s[START] for s in group)

    def in_setup_or_iteration(name):
        return outermost(name, *setup) + outermost(name)

    children: dict[int, float] = {}
    for i in range(lo, hi):
        p = spans[i][PARENT]
        if p >= lo:
            children[p] = children.get(p, 0.0) + spans[i][END] - spans[i][START]

    canon = outermost("iso.canonical_form")
    twin = [s for s in canon if s[NOTE]]
    iso_calls = outermost("iso.are_isomorphic")
    enum_ids = {i for i in range(lo, hi) if spans[i][NAME] == "tournaments.enumerate"}

    def under_enumerate(name):
        count = 0
        for i in range(lo, hi):
            if spans[i][NAME] == name:
                p = spans[i][PARENT]
                while p >= lo and p not in enum_ids:
                    p = spans[p][PARENT]
                count += p >= lo
        return count

    candidates = under_enumerate("matrix.mat_mul_count")
    scans = [i for i in range(lo, hi) if spans[i][NAME] == "params.enumerate_feasible"]
    feasible_checks = len(outermost("params.duval_feasible"))
    found = sum(spans[i][NOTE] for i in scans)
    builds = in_setup_or_iteration("constructions.all")
    mat_mul = outermost("matrix.mat_mul_count")
    parses = outermost("adjio.parse_adj")
    return {
        "iso.canonical_twin_s": total(twin),
        "iso.canonical_twin_calls": len(twin),
        "iso.canonical_twinfree_s": total(canon) - total(twin),
        "iso.canonical_twinfree_calls": len(canon) - len(twin),
        "iso.canonical_max_ms": 1e3 * max((s[END] - s[START] for s in canon),
                                          default=0.0),
        "iso.are_isomorphic_s": total(iso_calls),
        "iso.are_isomorphic_calls": len(iso_calls),
        "iso.are_isomorphic_hit_frac":
            sum(bool(s[NOTE]) for s in iso_calls) / len(iso_calls)
            if iso_calls else 0.0,
        "tournaments.candidates": candidates,
        "tournaments.classes": sum(spans[i][NOTE] or 0 for i in enum_ids),
        "tournaments.iso_calls_per_candidate":
            under_enumerate("iso.are_isomorphic") / candidates
            if candidates else 0.0,
        "constructions.build_s": total(builds),
        "constructions.results": sum(s[NOTE][0] for s in builds if s[NOTE]),
        "constructions.failures": sum(s[NOTE][1] for s in builds if s[NOTE]),
        "constructions.pq_search_s": total(in_setup_or_iteration("cons.pq_search")),
        "constructions.qr_search_s": total(in_setup_or_iteration("cons.qr_search")),
        "groups.hobart_shaw_s": total(in_setup_or_iteration("grp.hobart_shaw")),
        "params.feasible_candidates": feasible_checks,
        "params.feasible_found": found,
        "params.feasible_yield": found / feasible_checks if feasible_checks else 0.0,
        "params.scan_self_s": sum(spans[i][END] - spans[i][START]
                                  - children.get(i, 0.0) for i in scans),
        "params.verify_calls": len(outermost("params.verify_dsrg")),
        "params.verify_s": total(outermost("params.verify_dsrg")),
        "matrix.mat_mul_calls": len(mat_mul),
        "matrix.mat_mul_s": total(mat_mul),
        "matrix.popcounts": sum(s[NOTE] * s[NOTE] for s in mat_mul),
        "adjio.parse_s": total(parses),
        "adjio.bytes": sum(s[NOTE] for s in parses),
        "trace.spans": hi - lo,
    }


def median_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    """Median over the traced calls; counts stay whole numbers."""
    out = {}
    for key in per_iteration[0]:
        values = [m[key] for m in per_iteration]
        exact = all(isinstance(v, int) for v in values)
        out[key] = (statistics.median_low if exact else statistics.median)(values)
    return out
