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

import functools
import json
from dataclasses import dataclass

from .cartan import BorcherdsCartanDatum, Weight, add_weights, pairing, simple_root
from .errors import DepthExceededError, InputError

# Extended integer: a plain int, or NEG_INF.  NEG_INF absorbs addition and
# compares below every int, which is exactly the arithmetic the tensor rule
# needs; no other float ever enters these computations.
NEG_INF = float("-inf")

# Enumeration stops with DepthExceededError past this many elements.
NODE_CAP = 10000


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


def verify_axioms(crystal: Crystal, elements) -> list[Violation]:
    """Check the defining crystal axioms on a finite element set.

    Rules (i)-(iii) and (v)-(vii) are checked on every supplied element;
    the operators may step outside the supplied set and are evaluated
    there too.  Rule (iv), the e/f inverse pairing, is only checked when
    both endpoints lie in the supplied set, so that truncated carriers do
    not produce boundary false positives.
    """
    datum = crystal.datum
    n = datum.index_count
    elems = list(elements)
    members = set(elems)
    violations: list[Violation] = []
    per_index = [(datum.is_real(i), datum.a(i, i), simple_root(n, i), tuple(-a for a in simple_root(n, i)))
                 for i in range(1, n + 1)]

    def report(b, i, rule, detail):
        violations.append(Violation(crystal.key(b), i, rule, detail))

    for b in elems:
        wt_b = crystal.wt(b)
        for i, (real, aii, up, down) in enumerate(per_index, 1):
            eps_b = crystal.eps(i, b)
            phi_b = crystal.phi(i, b)
            eb = crystal.e(i, b)
            fb = crystal.f(i, b)

            if phi_b != eps_b + pairing(datum, i, wt_b):
                report(b, i, "(iii)", f"phi={phi_b} but eps+<h_i,wt>={eps_b + pairing(datum, i, wt_b)}")
            for image, sign, shift, wt_rule, step_rule, wt_detail in (
                    (eb, 1, up, "(i)", "(v)", "wt(e_i b) != wt(b) + alpha_i"),
                    (fb, -1, down, "(ii)", "(vi)", "wt(f_i b) != wt(b) - alpha_i")):
                if image is None:
                    continue
                if crystal.wt(image) != add_weights(wt_b, shift):
                    report(b, i, wt_rule, wt_detail)
                eps_x = crystal.eps(i, image)
                phi_x = crystal.phi(i, image)
                if real:
                    if eps_x != eps_b - sign:
                        report(b, i, step_rule, f"real eps jump: {eps_b} -> {eps_x}")
                    if phi_x != phi_b + sign:
                        report(b, i, step_rule, f"real phi jump: {phi_b} -> {phi_x}")
                else:
                    if eps_x != eps_b:
                        report(b, i, step_rule, f"imaginary eps changed: {eps_b} -> {eps_x}")
                    if phi_x != phi_b + sign * aii:
                        report(b, i, step_rule, f"imaginary phi jump: {phi_b} -> {phi_x}")
            if fb in members and crystal.e(i, fb) != b:
                report(b, i, "(iv)", "e_i(f_i b) != b")
            if eb in members and crystal.f(i, eb) != b:
                report(b, i, "(iv)", "f_i(e_i b) != b")
            if phi_b == NEG_INF and (eb is not None or fb is not None):
                report(b, i, "(vii)", "phi = -inf but an operator acts")
    return violations


def check_strict_morphism(psi, elements, source: Crystal, target: Crystal) -> list[Violation]:
    """Check that psi is a strict embedding on a finite source set.

    Strictness: psi preserves wt, eps_i and phi_i, commutes with every e_i
    and f_i (with psi(None) read as None), and is injective on the set.
    psi is evaluated once per element, in the set or an e_i/f_i image of
    one (elements are pure values).  Violations are returned, not raised.
    """
    datum = source.datum
    violations: list[Violation] = []
    preimages: dict = {}
    image = functools.cache(psi)

    def report(b, i, rule, detail):
        violations.append(Violation(source.key(b), i, rule, detail))

    for b in elements:
        pb = image(b)
        if pb is None:
            report(b, None, "injective", "psi maps an element to zero")
            continue
        if preimages.get(pb, b) != b:
            report(b, None, "injective", f"collides with {source.key(preimages[pb])}")
        preimages[pb] = b
        if source.wt(b) != target.wt(pb):
            report(b, None, "wt", "weight not preserved")
        for i in range(1, datum.index_count + 1):
            if source.eps(i, b) != target.eps(i, pb):
                report(b, i, "eps", "eps_i not preserved")
            if source.phi(i, b) != target.phi(i, pb):
                report(b, i, "phi", "phi_i not preserved")
            for opname in ("e", "f"):
                sb = getattr(source, opname)(i, b)
                tb = getattr(target, opname)(i, pb)
                if sb is None:
                    if tb is not None:
                        report(b, i, opname, f"{opname}_i vanishes in the source but not on the image")
                elif tb is None:
                    report(b, i, opname, f"{opname}_i vanishes on the image but not in the source")
                elif image(sb) != tb:
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


def reachable(crystal: Crystal, root, depth: int):
    """Breadth-first closure of `root` under the lowering operators.

    Returns (elements, edges, layer_sizes), with edges as (source element,
    target element, index) triples.  Ordering is deterministic:
    layer by layer, parents in discovery order, indices ascending; an
    element is listed once, at first discovery.  Raises DepthExceededError
    when more than NODE_CAP elements appear.
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
                c = crystal.f(i, b)
                if c is None:
                    continue
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
                    elements.append(c)
                    if len(elements) > NODE_CAP:
                        raise DepthExceededError(f"more than {NODE_CAP} nodes generated")
                edges.append((b, c, i))
        if not nxt:
            break
        layer_sizes.append(len(nxt))
        frontier = nxt
    return elements, edges, layer_sizes


def generate_graph(crystal: Crystal, root, depth: int) -> CrystalGraph:
    """Crystal graph of everything reachable from `root` within `depth` lowerings.

    The one place where enumerated elements become key strings.
    """
    elements, edges, _ = reachable(crystal, root, depth)
    n = crystal.datum.index_count
    keys = {b: crystal.key(b) for b in elements}
    nodes = tuple(
        GraphNode(
            keys[b],
            crystal.wt(b),
            tuple(crystal.eps(i, b) for i in range(1, n + 1)),
            tuple(crystal.phi(i, b) for i in range(1, n + 1)),
        )
        for b in elements
    )
    return CrystalGraph(nodes, tuple((keys[s], keys[d], i) for s, d, i in edges), keys[root])


def _stat_json(value) -> str:
    return '"-inf"' if value == NEG_INF else str(value)


def _json_array(items, indent: int):
    """Chunks of the array json.dumps(..., indent=2) writes at this indent, from encoded items."""
    pad, sep = "\n" + " " * indent, ""
    yield "["
    for x in items:
        yield f"{sep}{pad}  {x}"
        sep = ","
    yield pad + "]" if sep else "]"


def export_graph(graph: CrystalGraph, fmt: str) -> str:
    """Serialize a graph to 'dot' or 'json'.  Output bytes are reproducible.

    The json text is written directly, one f-string per node and per edge;
    its bytes are those of json.dumps(payload, indent=2) plus a newline.
    """
    if fmt == "dot":
        lines = ["digraph crystal {", "  rankdir=TB;"]
        for node in graph.nodes:
            lines.append(f'  "{node.key}" [label="{node.key}"];')
        for src, dst, i in graph.edges:
            lines.append(f'  "{src}" -> "{dst}" [label="{i}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        q = json.dumps

        def arr(values):
            return "".join(_json_array(map(_stat_json, values), 6))

        nodes = (f'{{\n      "key": {q(node.key)},\n      "wt": {arr(node.wt)},\n      "eps": {arr(node.eps)},\n'
                 f'      "phi": {arr(node.phi)}\n    }}' for node in graph.nodes)
        edges = (f'{{\n      "src": {q(s)},\n      "dst": {q(d)},\n      "i": {i}\n    }}' for s, d, i in graph.edges)
        return "".join(['{\n  "nodes": ', *_json_array(nodes, 2), ',\n  "edges": ', *_json_array(edges, 2),
                        f',\n  "root": {q(graph.root)}\n}}\n'])
    raise InputError(f"unknown export format {fmt!r}")
