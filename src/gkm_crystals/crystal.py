"""Abstract crystal interface, axiom checking, morphism checking, graph export.

A crystal over a Borcherds-Cartan datum supplies wt, eps_i, phi_i and the
raising/lowering operators e_i, f_i.  Statistics take values in the
integers extended by -infinity; `None` plays the role of the crystal's
zero element.  All implementations in this package are pure: methods never
mutate elements, and equal elements are interchangeable.  Elements are
hashable values and are their own identity: checks and enumeration key
sets and dicts by the elements and compare them with ==.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .cartan import BorcherdsCartanDatum, Weight, add_weights, negate_weight, pairing, simple_root
from .errors import DepthExceededError, EvaluationFailureError, UnknownFormatError

NEG_INF = float("-inf")

# Extended integer: a plain int, or NEG_INF.  NEG_INF absorbs addition and
# compares below every int, which is exactly the arithmetic the tensor rule
# needs; no other float ever enters these computations.
ExtInt = "int | float"


class Crystal:
    """Behavioral contract shared by every crystal implementation.

    Subclasses set `datum` and implement the five maps plus `key`, which
    must return a stable, injective string form of an element.  Keys are
    for output only: graph export and the text of findings.
    """

    datum: BorcherdsCartanDatum

    def wt(self, b) -> Weight:
        raise NotImplementedError

    def eps(self, i: int, b):
        raise NotImplementedError

    def phi(self, i: int, b):
        raise NotImplementedError

    def e(self, i: int, b):
        raise NotImplementedError

    def f(self, i: int, b):
        raise NotImplementedError

    def key(self, b) -> str:
        return repr(b)


@dataclass(frozen=True)
class Violation:
    """One failed check: which element, which index, which rule, and how."""

    element: str
    index: int | None
    rule: str
    detail: str


def _checked(crystal: Crystal, method: str, *args):
    try:
        return getattr(crystal, method)(*args)
    except Exception as exc:
        raise EvaluationFailureError(f"{method}{args!r} failed: {exc}") from exc


def verify_axioms(crystal: Crystal, elements, datum: BorcherdsCartanDatum | None = None) -> list[Violation]:
    """Check the defining crystal axioms on a finite element set.

    Rules (i)-(iii) and (v)-(vii) are checked on every supplied element;
    the operators may step outside the supplied set and are evaluated
    there too.  Rule (iv), the e/f inverse pairing, is only checked when
    both endpoints lie in the supplied set, so that truncated carriers do
    not produce boundary false positives.
    """
    datum = datum or crystal.datum
    elems = list(elements)
    members = set(elems)
    violations: list[Violation] = []

    def report(b, i, rule, detail):
        violations.append(Violation(crystal.key(b), i, rule, detail))

    for b in elems:
        wt_b = _checked(crystal, "wt", b)
        for i in range(1, datum.index_count + 1):
            eps_b = _checked(crystal, "eps", i, b)
            phi_b = _checked(crystal, "phi", i, b)
            eb = _checked(crystal, "e", i, b)
            fb = _checked(crystal, "f", i, b)
            aii = datum.a(i, i)

            if phi_b != eps_b + pairing(datum, i, wt_b):
                report(b, i, "(iii)", f"phi={phi_b} but eps+<h_i,wt>={eps_b + pairing(datum, i, wt_b)}")
            if eb is not None:
                if _checked(crystal, "wt", eb) != add_weights(wt_b, simple_root(datum.index_count, i)):
                    report(b, i, "(i)", "wt(e_i b) != wt(b) + alpha_i")
                eps_e = _checked(crystal, "eps", i, eb)
                phi_e = _checked(crystal, "phi", i, eb)
                if datum.is_real(i):
                    if eps_e != eps_b - 1:
                        report(b, i, "(v)", f"real eps jump: {eps_b} -> {eps_e}")
                    if phi_e != phi_b + 1:
                        report(b, i, "(v)", f"real phi jump: {phi_b} -> {phi_e}")
                else:
                    if eps_e != eps_b:
                        report(b, i, "(v)", f"imaginary eps changed: {eps_b} -> {eps_e}")
                    if phi_e != phi_b + aii:
                        report(b, i, "(v)", f"imaginary phi jump: {phi_b} -> {phi_e}")
            if fb is not None:
                if _checked(crystal, "wt", fb) != add_weights(wt_b, negate_weight(simple_root(datum.index_count, i))):
                    report(b, i, "(ii)", "wt(f_i b) != wt(b) - alpha_i")
                eps_f = _checked(crystal, "eps", i, fb)
                phi_f = _checked(crystal, "phi", i, fb)
                if datum.is_real(i):
                    if eps_f != eps_b + 1:
                        report(b, i, "(vi)", f"real eps jump: {eps_b} -> {eps_f}")
                    if phi_f != phi_b - 1:
                        report(b, i, "(vi)", f"real phi jump: {phi_b} -> {phi_f}")
                else:
                    if eps_f != eps_b:
                        report(b, i, "(vi)", f"imaginary eps changed: {eps_b} -> {eps_f}")
                    if phi_f != phi_b - aii:
                        report(b, i, "(vi)", f"imaginary phi jump: {phi_b} -> {phi_f}")
            if fb in members and _checked(crystal, "e", i, fb) != b:
                report(b, i, "(iv)", "e_i(f_i b) != b")
            if eb in members and _checked(crystal, "f", i, eb) != b:
                report(b, i, "(iv)", "f_i(e_i b) != b")
            if phi_b == NEG_INF and (eb is not None or fb is not None):
                report(b, i, "(vii)", "phi = -inf but an operator acts")
    return violations


def check_strict_morphism(psi, elements, source: Crystal, target: Crystal) -> list[Violation]:
    """Check that psi is a strict embedding on a finite source set.

    Strictness: psi preserves wt, eps_i and phi_i, commutes with every e_i
    and f_i (with psi(None) read as None), and is injective on the set.
    Violations are returned, not raised.
    """
    datum = source.datum
    elems = list(elements)
    violations: list[Violation] = []
    preimages: dict = {}

    def report(b, i, rule, detail):
        violations.append(Violation(source.key(b), i, rule, detail))

    for b in elems:
        pb = psi(b)
        if pb is None:
            report(b, None, "injective", "psi maps an element to zero")
            continue
        if preimages.get(pb, b) != b:
            report(b, None, "injective", f"collides with {source.key(preimages[pb])}")
        preimages[pb] = b
        if _checked(source, "wt", b) != _checked(target, "wt", pb):
            report(b, None, "wt", "weight not preserved")
        for i in range(1, datum.index_count + 1):
            if _checked(source, "eps", i, b) != _checked(target, "eps", i, pb):
                report(b, i, "eps", "eps_i not preserved")
            if _checked(source, "phi", i, b) != _checked(target, "phi", i, pb):
                report(b, i, "phi", "phi_i not preserved")
            for opname in ("e", "f"):
                sb = _checked(source, opname, i, b)
                tb = _checked(target, opname, i, pb)
                if sb is None:
                    if tb is not None:
                        report(b, i, opname, f"{opname}_i vanishes in the source but not on the image")
                elif tb is None:
                    report(b, i, opname, f"{opname}_i vanishes on the image but not in the source")
                elif psi(sb) != tb:
                    report(b, i, opname, f"psi({opname}_i b) != {opname}_i psi(b)")
    return violations


@dataclass(frozen=True)
class GraphNode:
    key: str
    wt: Weight
    eps: tuple
    phi: tuple


@dataclass(frozen=True)
class CrystalGraph:
    nodes: tuple[GraphNode, ...]
    edges: tuple[tuple[str, str, int], ...]  # (source key, target key, index)
    root: str


def reachable(crystal: Crystal, root, depth: int, cap: int = 10000):
    """Breadth-first closure of `root` under the lowering operators.

    Returns (elements, edges, layer_sizes), with edges as (source element,
    target element, index) triples.  Ordering is deterministic:
    layer by layer, parents in discovery order, indices ascending; an
    element is listed once, at first discovery.  Raises DepthExceededError
    when more than `cap` elements appear.
    """
    n = crystal.datum.index_count
    elements = [root]
    seen = {root}
    edges: list[tuple] = []
    layer_sizes = [1]
    frontier = [root]
    for _ in range(depth):
        nxt = []
        for b in frontier:
            for i in range(1, n + 1):
                c = _checked(crystal, "f", i, b)
                if c is None:
                    continue
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
                    elements.append(c)
                    if len(elements) > cap:
                        raise DepthExceededError(f"more than {cap} nodes generated")
                edges.append((b, c, i))
        if not nxt:
            break
        layer_sizes.append(len(nxt))
        frontier = nxt
    return elements, edges, layer_sizes


def generate_graph(crystal: Crystal, root, depth: int, cap: int = 10000) -> CrystalGraph:
    """Crystal graph of everything reachable from `root` within `depth` lowerings.

    The one place where enumerated elements become key strings.
    """
    elements, edges, _ = reachable(crystal, root, depth, cap)
    n = crystal.datum.index_count
    keys = {b: crystal.key(b) for b in elements}
    nodes = tuple(
        GraphNode(
            keys[b],
            _checked(crystal, "wt", b),
            tuple(_checked(crystal, "eps", i, b) for i in range(1, n + 1)),
            tuple(_checked(crystal, "phi", i, b) for i in range(1, n + 1)),
        )
        for b in elements
    )
    return CrystalGraph(nodes, tuple((keys[s], keys[d], i) for s, d, i in edges), keys[root])


def _stat_json(value):
    return "-inf" if value == NEG_INF else value


def export_graph(graph: CrystalGraph, fmt: str) -> str:
    """Serialize a graph to 'dot' or 'json'.  Output bytes are reproducible."""
    if fmt == "dot":
        lines = ["digraph crystal {", "  rankdir=TB;"]
        for node in graph.nodes:
            lines.append(f'  "{node.key}" [label="{node.key}"];')
        for src, dst, i in graph.edges:
            lines.append(f'  "{src}" -> "{dst}" [label="{i}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "nodes": [
                {
                    "key": node.key,
                    "wt": list(node.wt),
                    "eps": [_stat_json(v) for v in node.eps],
                    "phi": [_stat_json(v) for v in node.phi],
                }
                for node in graph.nodes
            ],
            "edges": [{"src": s, "dst": d, "i": i} for s, d, i in graph.edges],
            "root": graph.root,
        }
        return json.dumps(payload, indent=2) + "\n"
    raise UnknownFormatError(f"unknown export format {fmt!r}")
