"""Traced in-process replay of a workload through each layer's public functions.

Each public call is wrapped in a span (name, start, end, parent); one root
span per CLI invocation holds them.  Spans stay in memory until the run ends.
Counts are computed from the calls' return values, outside every span, so
they repeat exactly between runs.  The replay returns the same summaries the
CLI reports are reduced to, so the two can be compared.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from cohh.cli import parse_e2, parse_presentation, render_cohh_report, render_collapse_report
from cohh.cochain import BidegreeWindow, build_complex, first_square_failure, tensor_basis
from cohh.cohomology import cohh_table, euler_check, identify_presentation
from cohh.collapse import analyze, candidate_sources, candidate_targets
from cohh.hopfstruct import AlgebraPresentation, indecomposables, primitives
from cohh.selftest import ACCEPTANCE_CHECKS
from cohh.torpipe import hz_e2_pipeline

from workloads import Invocation, summarize_collapse, summarize_grid_report


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index of the parent span, -1 for a root


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def self_times(self) -> list:
        """Per span: its duration minus the part its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def self_time_by_name(self) -> dict:
        out: dict = {}
        for s, own in zip(self.spans, self.self_times()):
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def roots(self) -> list:
        return [s for s in self.spans if s.parent < 0]

    def to_json(self) -> list:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]


def replay_invocation(tr: Tracer, inv: Invocation):
    """Run one invocation's layers in-process; return its summary.

    Each replay opens the invocation's root span around its layer calls only,
    and computes its counts after the span closes."""
    return _REPLAYS[inv.label](tr, inv)


def _replay_cohh(tr: Tracer, inv: Invocation):
    window = BidegreeWindow(*inv.window)
    with tr.span("invocation.cohh"):
        with tr.span("cli.parse_presentation"):
            C = parse_presentation(inv.text)
        with tr.span("cochain.tensor_basis"):
            spots = {
                (s, t): tensor_basis(C, s, t, normalized=True)
                for s in range(window.max_s + 2)
                for t in range(window.max_t + 1)
            }
        with tr.span("cochain.build_complex"):
            cx = build_complex(C, window, check=False)
        with tr.span("cochain.first_square_failure"):
            bad = first_square_failure(cx)
        with tr.span("cohomology.cohh_table"):
            table = cohh_table(cx)
        with tr.span("cohomology.euler_check"):
            euler = euler_check(cx, table)
        with tr.span("cohomology.identify_presentation"):
            ident = identify_presentation(table)
        with tr.span("cli.render_cohh_report"):
            report = render_cohh_report(C, window, table, ident, euler, "table")

    tr.count("cochain.tensor_basis.tuples", sum(len(b) for b in spots.values()))
    tr.peak("cochain.tensor_basis.max_spot", max(len(b) for b in spots.values()))
    tr.count("cochain.build_complex.nnz", sum(len(d.entries) for d in cx.differentials.values()))
    pairs = window.max_s * (window.max_t + 1)
    if bad is not None:
        pairs = bad[1] * window.max_s + bad[0] + 1
    tr.count("cochain.first_square_failure.pairs", pairs)
    rank_total = dense_cells = pivot_bound = 0
    for t in range(window.max_t + 1):
        incoming = 0              # rank d_{s-1,t}
        for s in range(window.max_s + 1):
            d = cx.differentials[(s, t)]
            rank = len(spots[(s, t)]) - table.dim(s, t) - incoming
            rank_total += rank
            dense_cells += d.rows * d.cols
            pivot_bound += min(d.rows, d.cols)
            incoming = rank
    tr.count("cohomology.cohh_table.rank_total", rank_total)
    tr.count("cohomology.cohh_table.dense_cells", dense_cells)
    tr.count("cohomology.cohh_table.pivot_bound", pivot_bound)
    tr.count("cli.render_cohh_report.bytes", len(report.encode("utf-8")))
    summary = summarize_grid_report(report)
    if bad is not None:
        summary["checks"] = f"d_squared=FAIL at {bad}"
    return summary


def _replay_selftest(tr: Tracer, inv: Invocation):
    passed = 0
    with tr.span("invocation.selftest"):
        for name, check in ACCEPTANCE_CHECKS:
            with tr.span(f"selftest.{name}"):
                ok, _detail = check()
            passed += bool(ok)
    failed = len(ACCEPTANCE_CHECKS) - passed
    return {"checks": len(ACCEPTANCE_CHECKS), "failed": failed, "passed": passed}


def _max_t(inv: Invocation) -> int:
    return int(inv.args[inv.args.index("--max-t") + 1])


def _replay_collapse(tr: Tracer, inv: Invocation):
    max_t = _max_t(inv)
    with tr.span("invocation.collapse"):
        with tr.span("cli.parse_e2"):
            e2 = parse_e2(inv.text)
        with tr.span("collapse.analyze"):
            cert = analyze(e2, max_t)
        with tr.span("cli.render_collapse_report"):
            report = render_collapse_report(e2, cert, "table")
    pairs = len(candidate_sources(e2, max_t)) * len(candidate_targets(e2, max_t))
    tr.count("collapse.analyze.pairs", pairs)
    tr.count("collapse.analyze.candidates", sum(len(o.witnesses) for o in cert.obstructions))
    return summarize_collapse(report)


def _replay_primitives(tr: Tracer, inv: Invocation):
    with tr.span("invocation.primitives"):
        with tr.span("cli.parse_presentation"):
            C = parse_presentation(inv.text)
        with tr.span("hopfstruct.primitives"):
            prims = primitives(C, _max_t(inv))
    count = sum(len(elems) for elems in prims.by_degree.values())
    tr.count("hopfstruct.primitives.kernel_dim", count)
    return {"count": count}


def _replay_indecomposables(tr: Tracer, inv: Invocation):
    with tr.span("invocation.indecomposables"):
        with tr.span("cli.parse_presentation"):
            C = parse_presentation(inv.text)
        with tr.span("hopfstruct.indecomposables"):
            inde = indecomposables(AlgebraPresentation(C.field, C.cogenerators), _max_t(inv))
    return {"count": sum(len(ms) for ms in inde.by_degree.values())}


def _replay_hz(tr: Tracer, inv: Invocation):
    p = int(inv.args[inv.args.index("--char") + 1])
    with tr.span("invocation.hz"):
        with tr.span("torpipe.hz_e2_pipeline"):
            result = hz_e2_pipeline(p, BidegreeWindow(*inv.window))
    return {"dims": [[s, t, d] for (s, t), d in sorted(result.table.nonzero().items())]}


_REPLAYS = {
    "cohh": _replay_cohh,
    "selftest": _replay_selftest,
    "collapse": _replay_collapse,
    "primitives": _replay_primitives,
    "indecomposables": _replay_indecomposables,
    "hz": _replay_hz,
}
