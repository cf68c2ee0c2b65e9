"""Axiom verification, strict-morphism checking, enumeration, export.

The fault-injection helper TableCrystal drives every statistic and
operator from explicit dictionaries, so each axiom can be broken one at
a time and the verifier's blame checked.
"""

import json

import pytest

from gkm_crystals.cartan import validate_datum
from gkm_crystals.crystal import (
    NEG_INF,
    Crystal,
    check_strict_morphism,
    export_graph,
    generate_graph,
    reachable,
    verify_axioms,
)
from gkm_crystals.elementary import ElementaryCrystal
from gkm_crystals.errors import DepthExceededError, InputError

SL2 = validate_datum([[2]])
A2 = validate_datum([[2, -1], [-1, 2]])


class TableCrystal(Crystal):
    """Crystal read off lookup tables keyed by (element, index)."""

    def __init__(self, datum, wts, eps_t, phi_t, e_t, f_t):
        self.datum = datum
        self.wts = wts
        self.eps_t = eps_t
        self.phi_t = phi_t
        self.e_t = e_t
        self.f_t = f_t

    def wt(self, b):
        return self.wts[b]

    def eps(self, i, b):
        return self.eps_t[b, i]

    def phi(self, i, b):
        return self.phi_t[b, i]

    def e(self, i, b):
        return self.e_t.get((b, i))

    def f(self, i, b):
        return self.f_t.get((b, i))

    def key(self, b):
        return str(b)


def sl2_string():
    """A three-element string for one real index (weights in root coordinates)."""
    wts = {"u0": (1,), "u1": (0,), "u2": (-1,)}
    eps_t = {("u0", 1): 0, ("u1", 1): 1, ("u2", 1): 2}
    phi_t = {("u0", 1): 2, ("u1", 1): 1, ("u2", 1): 0}
    e_t = {("u1", 1): "u0", ("u2", 1): "u1"}
    f_t = {("u0", 1): "u1", ("u1", 1): "u2"}
    return wts, eps_t, phi_t, e_t, f_t


def test_table_crystal_valid():
    c = TableCrystal(SL2, *sl2_string())
    assert verify_axioms(c, ["u0", "u1", "u2"]) == []


def test_axiom_iii_blamed():
    wts, eps_t, phi_t, e_t, f_t = sl2_string()
    phi_t[("u1", 1)] = 5
    c = TableCrystal(SL2, wts, eps_t, phi_t, e_t, f_t)
    rules = {v.rule for v in verify_axioms(c, ["u1"])}
    assert "(iii)" in rules


def test_axiom_i_ii_blamed():
    wts, eps_t, phi_t, e_t, f_t = sl2_string()
    wts["u1"] = (1,)
    c = TableCrystal(SL2, wts, eps_t, phi_t, e_t, f_t)
    rules = {v.rule for v in verify_axioms(c, ["u0", "u1", "u2"])}
    assert "(i)" in rules and "(ii)" in rules


def test_axiom_iv_blamed():
    wts, eps_t, phi_t, e_t, f_t = sl2_string()
    e_t[("u1", 1)] = "u1"  # raising u1 no longer undoes f on u0
    c = TableCrystal(SL2, wts, eps_t, phi_t, e_t, f_t)
    violations = verify_axioms(c, ["u0", "u1", "u2"])
    assert any(v.rule == "(iv)" for v in violations)


def test_axiom_iv_not_checked_outside_carrier():
    # u2 is dropped from the carrier; the u1 -> u2 edge crosses the boundary
    c = TableCrystal(SL2, *sl2_string())
    assert verify_axioms(c, ["u0", "u1"]) == []


def test_axiom_v_vi_real_jumps():
    wts, eps_t, phi_t, e_t, f_t = sl2_string()
    eps_t[("u1", 1)] = 0  # eps must rise by one along f
    phi_t[("u1", 1)] = 2
    c = TableCrystal(SL2, wts, eps_t, phi_t, e_t, f_t)
    rules = {v.rule for v in verify_axioms(c, ["u0", "u1", "u2"])}
    assert "(v)" in rules and "(vi)" in rules


def test_axiom_vi_imaginary_jump():
    imag = validate_datum([[-2]])
    wts = {"v0": (0,), "v1": (-1,)}
    eps_t = {("v0", 1): 0, ("v1", 1): 0}
    phi_t = {("v0", 1): 0, ("v1", 1): 1}  # must be phi + 2
    e_t = {}
    f_t = {("v0", 1): "v1"}
    c = TableCrystal(imag, wts, eps_t, phi_t, e_t, f_t)
    violations = verify_axioms(c, ["v0"])
    assert any(v.rule == "(vi)" for v in violations)


def test_axiom_vii_blamed():
    wts = {"w": (0,)}
    eps_t = {("w", 1): NEG_INF}
    phi_t = {("w", 1): NEG_INF}
    f_t = {("w", 1): "w"}
    c = TableCrystal(SL2, wts, eps_t, phi_t, {}, f_t)
    violations = verify_axioms(c, ["w"])
    assert any(v.rule == "(vii)" for v in violations)


def test_map_failure_propagates_unchanged():
    class Broken(Crystal):
        datum = SL2

        def wt(self, b):
            return (0,)

        def eps(self, i, b):
            raise RuntimeError("boom")

        def phi(self, i, b):
            return 0

        def e(self, i, b):
            return None

        def f(self, i, b):
            raise RuntimeError("boom")

        def key(self, b):
            return str(b)

    broken = Broken()
    for run in (lambda: verify_axioms(broken, ["x"]),
                lambda: check_strict_morphism(lambda b: b, ["x"], broken, broken),
                lambda: reachable(broken, "x", 1)):
        with pytest.raises(RuntimeError) as excinfo:
            run()
        assert excinfo.type is RuntimeError
        assert str(excinfo.value) == "boom"


# -- strict morphisms -------------------------------------------------------


def test_strict_morphism_identity():
    c = ElementaryCrystal(SL2, 1)
    elems = [c.element(k) for k in range(5)]
    assert check_strict_morphism(lambda b: b, elems, c, c) == []


def test_strict_morphism_detects_shift():
    c = ElementaryCrystal(SL2, 1)
    elems = [c.element(k) for k in range(3)]
    violations = check_strict_morphism(lambda b: c.element(b.level + 1), elems, c, c)
    assert any(v.rule == "wt" for v in violations)


def test_strict_morphism_detects_collision_and_zero():
    c = ElementaryCrystal(SL2, 1)
    elems = [c.element(k) for k in range(3)]
    violations = check_strict_morphism(lambda b: c.element(0), elems, c, c)
    assert any(v.rule == "injective" for v in violations)
    violations = check_strict_morphism(lambda b: None, elems, c, c)
    assert all(v.rule == "injective" for v in violations) and violations


def test_strict_morphism_detects_broken_commutation():
    src = TableCrystal(SL2, *sl2_string())
    wts, eps_t, phi_t, e_t, f_t = sl2_string()
    f_t[("u1", 1)] = "u0"  # target lowers u1 to the wrong node
    tgt = TableCrystal(SL2, wts, eps_t, phi_t, e_t, f_t)
    violations = check_strict_morphism(lambda b: b, ["u0", "u1", "u2"], src, tgt)
    assert any(v.rule == "f" for v in violations)


def test_strict_morphism_detects_vanishing_mismatch():
    src = TableCrystal(SL2, *sl2_string())
    wts, eps_t, phi_t, e_t, f_t = sl2_string()
    del f_t[("u1", 1)]
    tgt = TableCrystal(SL2, wts, eps_t, phi_t, e_t, f_t)
    violations = check_strict_morphism(lambda b: b, ["u1"], src, tgt)
    assert any("vanishes on the image" in v.detail for v in violations)


# -- enumeration and export -------------------------------------------------


def test_reachable_deterministic():
    from gkm_crystals.binfinity import BInfinityCrystal

    c = BInfinityCrystal(A2)
    a = reachable(c, c.highest_weight(), 3)
    b = reachable(c, c.highest_weight(), 3)
    assert [c.key(x) for x in a[0]] == [c.key(x) for x in b[0]]
    assert a[1] == b[1]
    assert a[2] == [1, 2, 4, 6]


def test_reachable_cap():
    from gkm_crystals.binfinity import BInfinityCrystal

    # B(inf) over [[2]] has one element per depth: 10000 fit under the cap, 10001 do not.
    c = BInfinityCrystal(SL2)
    assert len(reachable(c, c.highest_weight(), 9999)[0]) == 10000
    with pytest.raises(DepthExceededError, match="^more than 10000 nodes generated$"):
        reachable(c, c.highest_weight(), 10000)


def test_export_dot_and_json_stable():
    from gkm_crystals.binfinity import BInfinityCrystal

    c = BInfinityCrystal(A2)
    g = generate_graph(c, c.highest_weight(), 2)
    dot = export_graph(g, "dot")
    assert dot.startswith("digraph crystal {")
    assert '"hw" -> "1" [label="1"];' in dot
    assert export_graph(g, "dot") == dot  # byte stable

    payload = json.loads(export_graph(g, "json"))
    assert payload["root"] == "hw"
    assert len(payload["nodes"]) == 7
    keys = {n["key"] for n in payload["nodes"]}
    assert {e["src"] for e in payload["edges"]} <= keys
    with pytest.raises(InputError, match="^unknown export format 'xml'$"):
        export_graph(g, "xml")


def test_export_json_encodes_neg_inf():
    c = ElementaryCrystal(A2, 1)
    g = generate_graph(c, c.element(0), 2)
    payload = json.loads(export_graph(g, "json"))
    # index 2 never acts on B_1, so its statistics serialize as "-inf"
    assert payload["nodes"][0]["eps"][1] == "-inf"
    assert payload["nodes"][0]["phi"][1] == "-inf"


def _graph_case(name):
    from gkm_crystals.binfinity import BInfinityCrystal
    from gkm_crystals.tensor import TensorCrystal, TensorElement

    if name == "m3-depth-4":
        c = BInfinityCrystal(validate_datum([[2, -1, 0], [-1, 0, -1], [0, -1, 2]]))
        return generate_graph(c, c.highest_weight(), 4)
    if name == "sl2-depth-0":
        c = BInfinityCrystal(SL2)
        return generate_graph(c, c.highest_weight(), 0)
    if name == "elementary":
        c = ElementaryCrystal(A2, 2)
        return generate_graph(c, c.element(0), 3)
    b = BInfinityCrystal(validate_datum([[0, -1], [-1, 2]]))
    c = TensorCrystal(b, ElementaryCrystal(b.datum, 1))
    return generate_graph(c, TensorElement(b.highest_weight(), c.right.element(0)), 3)


# Each graph case with a feature its json text must show: nested arrays, an
# empty edge list, "-inf" statistics, bracketed tensor keys.
JSON_FEATURES = {
    "m3-depth-4": '"wt": [\n        -1,',
    "sl2-depth-0": '"edges": []',
    "elementary": '"-inf"',
    "tensor": '"root": "[hw]x[b1(0)]"',
}


@pytest.mark.parametrize("name", sorted(JSON_FEATURES))
def test_export_json_is_json_dumps_byte_for_byte(name):
    g = _graph_case(name)

    def stat(v):
        return "-inf" if v == NEG_INF else v

    payload = {
        "nodes": [{"key": n.key, "wt": list(n.wt), "eps": [stat(v) for v in n.eps], "phi": [stat(v) for v in n.phi]}
                  for n in g.nodes],
        "edges": [{"src": s, "dst": d, "i": i} for s, d, i in g.edges],
        "root": g.root,
    }
    text = export_graph(g, "json")
    assert text == json.dumps(payload, indent=2) + "\n"
    assert JSON_FEATURES[name] in text
