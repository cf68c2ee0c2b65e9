"""Per-layer tracing for the benchmark, installed from outside `src/`.

`Tracer.install()` replaces the public functions of each layer at the
names their callers look up (the `cli` module's imports, module globals
such as `oracle.laurent_rank`, and the `BInfinityCrystal`/`TensorCrystal`
methods) with wrappers that record spans or counts; `restore()` puts the
originals back.  Spans (name, start, end, parent) stay in memory until
the caller writes them out.  Hot operators (`e`, `f`, `eps`) are only
counted, because a span per call would dominate their cost.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.shapes: list[tuple[int, int, int]] = []  # (rows, cols, rank) per laurent_rank call
        self._stack: list[int] = []
        self._open: Counter = Counter({"binfinity.strip_to_head": 0})
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        spans, stack, opened, counts = self.spans, self._stack, self._open, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            idx = len(spans)
            record = [name, clock(), None, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(idx)
            opened[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                opened[name] -= 1
                stack.pop()
                record[2] = clock()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts, opened = self.counts, self._open
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if opened["binfinity.strip_to_head"]:
                counts[name + ".in_strip"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- result hooks ---------------------------------------------------------

    def _on_strip(self, args, word) -> None:
        self.counts["strip_to_head.steps"] += len(word)

    def _on_reachable(self, args, result) -> None:
        elements, edges, _ = result
        self.counts["reachable.nodes"] += len(elements)
        self.counts["reachable.edges"] += len(edges)

    def _on_export(self, args, text) -> None:
        self.counts["export_graph.bytes"] += len(text.encode("utf-8"))

    def _on_rank(self, args, rank) -> None:
        rows, ncols = args
        self.shapes.append((len(rows), ncols, rank))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        from gkm_crystals import binfinity, cli, crystal, exactlin, geometry, oracle
        from gkm_crystals.binfinity import BInfinityCrystal
        from gkm_crystals.tensor import TensorCrystal

        def span(owner, attr, name, on_result=None):
            self._patch(owner, attr, self._span(name, owner.__dict__[attr], on_result))

        for attr in ("e", "f", "eps"):
            self._patch(BInfinityCrystal, attr, self._count(f"binfinity.{attr}", BInfinityCrystal.__dict__[attr]))
        for attr in ("e", "f"):
            self._patch(TensorCrystal, attr, self._count(f"tensor.{attr}", TensorCrystal.__dict__[attr]))
        span(BInfinityCrystal, "transport", "binfinity.transport")
        span(BInfinityCrystal, "psi_embed", "binfinity.psi_embed")
        span(BInfinityCrystal, "strip_to_head", "binfinity.strip_to_head", self._on_strip)
        span(cli, "transport_isomorphism_findings", "binfinity.transport_isomorphism_findings")

        span(cli, "verify_axioms", "crystal.verify_axioms")
        span(cli, "check_strict_morphism", "crystal.check_strict_morphism")
        span(cli, "generate_graph", "crystal.generate_graph")
        span(cli, "export_graph", "crystal.export_graph", self._on_export)
        # generate_graph looks reachable up in crystal, enumerate_to_depth in binfinity.
        span(crystal, "reachable", "crystal.reachable", self._on_reachable)
        span(binfinity, "reachable", "crystal.reachable", self._on_reachable)

        span(cli, "graded_dim", "oracle.graded_dim")
        span(oracle, "laurent_rank", "oracle.laurent_rank", self._on_rank)

        span(exactlin, "rref", "exactlin.rref")
        span(geometry, "charpoly", "exactlin.charpoly")
        span(geometry, "rational_roots", "exactlin.rational_roots")

        span(cli, "flag_exists", "geometry.flag_exists")
        span(geometry, "verify_flag", "geometry.verify_flag")
        # eps_star_point calls eps_point on the adjoint representation.
        span(cli, "eps_point", "geometry.eps_point")
        span(geometry, "eps_point", "geometry.eps_point")
        span(cli, "eps_star_point", "geometry.eps_star_point")
        span(cli, "regular_semisimple_verdicts", "geometry.regular_semisimple_verdicts")

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ------------------------------------------------------------

    def inclusive_seconds(self) -> Counter:
        """Time under each span name, counting a span nested in a same-named one once."""
        out: Counter = Counter()
        spans = self.spans
        for name, start, end, parent in spans:
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[name] += end - start
        return out

    def self_seconds(self, name: str) -> float:
        """Time under `name` spans minus the time of their direct child spans."""
        spans = self.spans
        total = sum(end - start for n, start, end, _ in spans if n == name)
        children = sum(end - start for _, start, end, parent in spans
                       if parent >= 0 and spans[parent][0] == name)
        return total - children

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_frac, for one traced pass."""
        c, secs = self.counts, self.inclusive_seconds()
        rows = sum(s[0] for s in self.shapes)
        rank = sum(s[2] for s in self.shapes)
        steps = c["strip_to_head.steps"]
        out = {
            "binfinity.e.calls": c["binfinity.e.calls"],
            "binfinity.f.calls": c["binfinity.f.calls"],
            "binfinity.eps.calls": c["binfinity.eps.calls"],
            "binfinity.transport.calls": c["binfinity.transport.calls"],
            "binfinity.transport.s": secs["binfinity.transport"],
            "binfinity.psi_embed.calls": c["binfinity.psi_embed.calls"],
            "binfinity.psi_embed.s": secs["binfinity.psi_embed"],
            "binfinity.strip_to_head.s": secs["binfinity.strip_to_head"],
            "binfinity.strip_to_head.e_per_step": c["binfinity.e.in_strip"] / steps if steps else 0.0,
            "binfinity.transport_isomorphism_findings.s": secs["binfinity.transport_isomorphism_findings"],
            "crystal.check_strict_morphism.s": secs["crystal.check_strict_morphism"],
            "crystal.verify_axioms.s": secs["crystal.verify_axioms"],
            "crystal.reachable.s": secs["crystal.reachable"],
            "crystal.reachable.nodes": c["reachable.nodes"],
            "crystal.reachable.edges": c["reachable.edges"],
            "crystal.generate_graph.s": secs["crystal.generate_graph"],
            "crystal.export_graph.s": secs["crystal.export_graph"],
            "crystal.export_graph.bytes": c["export_graph.bytes"],
            "tensor.e.calls": c["tensor.e.calls"],
            "tensor.f.calls": c["tensor.f.calls"],
            "oracle.graded_dim.calls": c["oracle.graded_dim.calls"],
            "oracle.graded_dim.s": secs["oracle.graded_dim"],
            "oracle.laurent_rank.s": secs["oracle.laurent_rank"],
            "oracle.build_rows.s": self.self_seconds("oracle.graded_dim"),
            "oracle.rows": rows,
            "oracle.cols": sum(s[1] for s in self.shapes),
            "oracle.rank": rank,
            "oracle.max_rows": max((s[0] for s in self.shapes), default=0),
            "oracle.rows_per_rank": rows / rank if rank else 0.0,
            "exactlin.rref.calls": c["exactlin.rref.calls"],
            "exactlin.rref.s": secs["exactlin.rref"],
            "exactlin.charpoly.calls": c["exactlin.charpoly.calls"],
            "exactlin.rational_roots.calls": c["exactlin.rational_roots.calls"],
            "exactlin.rational_roots.s": secs["exactlin.rational_roots"],
            "geometry.flag_exists.s": secs["geometry.flag_exists"],
            "geometry.verify_flag.s": secs["geometry.verify_flag"],
            "geometry.eps_point.s": secs["geometry.eps_point"],
            "geometry.eps_star_point.s": secs["geometry.eps_star_point"],
            "geometry.regular_semisimple_verdicts.s": secs["geometry.regular_semisimple_verdicts"],
        }
        return out
