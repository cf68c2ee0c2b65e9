"""End-to-end command-line checks, including failure exit codes."""

import json
import sys
import time
from fractions import Fraction

import pytest

from gkm_crystals import binfinity, cli, geometry, oracle
from gkm_crystals.binfinity import BInfinityCrystal
from gkm_crystals.cartan import MAX_RANK
from gkm_crystals.crystal import Violation
from gkm_crystals.errors import InexactDivisionError, InternalInconsistencyError

EXB = '{"matrix": [[0, -1], [-1, 2]]}'
TWO_IMAG = '{"matrix": [[0, -1], [-1, 0]]}'
SL2 = '{"matrix": [[2]]}'
QUIVER = '{"vertices": 2, "omega_arrows": [[1, 1], [1, 2]]}'
REP = """
{"quiver": {"vertices": 2, "omega_arrows": [[1, 1], [1, 2]]},
 "dims": [2, 1],
 "mats": {"h0": [[0, 0], [0, 0]],
          "h1": [[0, 0]],
          "h2": [[1, 1], [0, 3]],
          "h3": [[1], [1]]}}
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("exb.json", EXB), ("two_imag.json", TWO_IMAG), ("sl2.json", SL2),
                       ("quiver.json", QUIVER), ("rep.json", REP)]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_graph_json(files, capsys):
    code = cli.main(["graph", "--cartan", files["exb.json"], "--depth", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["root"] == "hw"
    assert len(payload["nodes"]) == 7


def test_graph_dot_stable(files, capsys):
    assert cli.main(["graph", "--cartan", files["exb.json"], "--depth", "1", "--format", "dot"]) == 0
    first = capsys.readouterr().out
    assert first.startswith("digraph crystal {")
    assert '"hw" -> "0-1" [label="2"];' in first
    assert cli.main(["graph", "--cartan", files["exb.json"], "--depth", "1", "--format", "dot"]) == 0
    assert capsys.readouterr().out == first


def test_graph_accepts_quiver_input(files, capsys):
    code = cli.main(["graph", "--quiver", files["quiver.json"], "--depth", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["root"] == "hw"


def test_graph_iota_flag(files, capsys):
    code = cli.main(["graph", "--cartan", files["exb.json"], "--depth", "1", "--iota", "2,1"])
    assert code == 0
    keys = {n["key"] for n in json.loads(capsys.readouterr().out)["nodes"]}
    assert "1" in keys and "0-1" in keys  # slot order follows the given iota


def test_dims_agree(files, capsys):
    code = cli.main(["dims", "--cartan", files["exb.json"], "--height", "3"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "weight\tcrystal\toracle\tmatch"
    assert "(2, 1)\t3\t3\tok" in out
    assert len(out) == 11  # header plus the ten weights of height <= 3
    assert all(line.endswith("ok") for line in out[1:])


def test_dims_mismatch_exits_one(files, capsys, monkeypatch):
    monkeypatch.setattr(cli, "graded_dim", lambda datum, alpha: 99)
    code = cli.main(["dims", "--cartan", files["exb.json"], "--height", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "MISMATCH" in captured.out
    assert "mismatching weights" in captured.err


def test_dims_height_over_bound(files, capsys):
    code = cli.main(["dims", "--cartan", files["exb.json"], "--height", "8"])
    assert code == 2
    assert "oracle bound" in capsys.readouterr().err


def test_verify_clean(files, capsys):
    code = cli.main(["verify", "--cartan", files["two_imag.json"], "--depth", "3"])
    assert code == 0
    out = capsys.readouterr().out
    for label in ("crystal axioms", "strict embedding through index 1",
                  "strict embedding through index 2", "negative cone",
                  "weight-zero", "raised", "iota independence"):
        assert label in out
    assert "FAIL" not in out and ": ok" in out


def test_verify_reports_failure(files, capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_axioms",
                        lambda crystal, elements, datum=None: [Violation("x", 1, "(iii)", "planted")])
    code = cli.main(["verify", "--cartan", files["exb.json"], "--depth", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "crystal axioms on enumerated nodes: FAIL" in captured.out
    assert "planted" in captured.out


def test_geom_report(files, capsys):
    code = cli.main(["geom", "--rep", files["rep.json"]])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "moment map: v1:zero v2:zero"
    assert out[1] == "flag: found (v1, [1, 0]), (v1, [0, 1]), (v2, [1])"
    assert out[2] == "regular semisimple: h2:true"
    assert out[3] == "(eps, eps*) = v1:(0,2) v2:(1,0)"


def test_geom_report_without_flag_or_weak_loops(tmp_path, capsys):
    # The arrow 1 -> 2 and its reversal act by 1 on lines, so the moment map is
    # +-1 at both vertices, no flag steps both arrows down, and there is no loop.
    rep = {"quiver": {"vertices": 2, "omega_arrows": [[1, 2]]}, "dims": [1, 1],
           "mats": {"h0": [[1]], "h1": [[1]]}}
    path = tmp_path / "cycle_rep.json"
    path.write_text(json.dumps(rep))
    assert cli.main(["geom", "--rep", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["moment map: v1:NONZERO v2:NONZERO", "flag: not found (rational search)",
                       "regular semisimple: vacuous (no weak loops)"]


def test_geom_report_on_zero_dimensional_rep(tmp_path, capsys):
    # The empty flag has no steps, so nothing follows "found".
    path = tmp_path / "zero_rep.json"
    path.write_text(json.dumps({"quiver": {"vertices": 1, "omega_arrows": []}, "dims": [0], "mats": {}}))
    assert cli.main(["geom", "--rep", str(path)]) == 0
    assert capsys.readouterr().out == ("moment map: v1:zero\n"
                                       "flag: found\n"
                                       "regular semisimple: vacuous (no weak loops)\n"
                                       "(eps, eps*) = v1:(0,0)\n")


@pytest.mark.parametrize("argv, name", [
    (["dims", "--height", "2", "--oracle-bound", "8", "--cartan"], "exb.json"),
    (["geom", "--flag-bound", "8", "--rep"], "rep.json"),
    (["graph", "--depth", "1", "--cap", "10", "--cartan"], "exb.json"),
], ids=["oracle-bound", "flag-bound", "cap"])
def test_caps_are_not_options(files, capsys, argv, name):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [files[name]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


DEEP = b"[" * 50000 + b"]" * 50000


@pytest.mark.parametrize("argv, payload", [
    (["graph", "--depth", "1", "--cartan"], b'\xff\xfe{"matrix": [[2]]}'),
    (["graph", "--depth", "1", "--cartan"], b'{"matrix": ' + DEEP + b"}"),
    (["geom", "--rep"], b'{"quiver": ' + DEEP + b"}"),
], ids=["undecodable", "nested-cartan", "nested-rep"])
def test_unreadable_file_is_one_input_error(tmp_path, capsys, argv, payload):
    path = tmp_path / "input.json"
    path.write_bytes(payload)
    assert cli.main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and len(captured.err.splitlines()) == 1


def test_dims_large_entry_builds_only_short_relations(tmp_path, capsys, monkeypatch):
    # The Serre relation of [[2, -a], [-a, 0]] has height a + 2, so it spans
    # no row at height 5; building its q-binomials would cost about a**4.5.
    q_binomial = oracle.q_binomial

    def short_only(m, k):
        assert m < 5, f"q-binomial [{m} choose {k}] built for weights of height <= 5"
        return q_binomial(m, k)

    monkeypatch.setattr(oracle, "q_binomial", short_only)
    path = tmp_path / "large.json"
    path.write_text('{"matrix": [[2, -1000000], [-1000000, 0]]}')
    assert cli.main(["dims", "--cartan", str(path), "--height", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 22  # header plus the 21 weights of height <= 5
    assert all(line.endswith("\tok") for line in out[1:])


def test_dims_builds_relations_once_per_height(tmp_path, capsys, monkeypatch):
    # 35 weights of height <= 3, but only the heights 0..3 need relations of their own.
    path = tmp_path / "rank4.json"
    path.write_text('{"matrix": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 0, -1], [0, 0, -1, 2]]}')
    build_relations, calls = oracle.build_relations, []

    def counted(datum, max_height):
        calls.append(max_height)
        return build_relations(datum, max_height)

    monkeypatch.setattr(oracle, "build_relations", counted)
    oracle._trace_relations.cache_clear()
    assert cli.main(["dims", "--cartan", str(path), "--height", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 36
    assert len(calls) <= 4


def test_geom_large_entry_finds_flag(tmp_path, capsys):
    # The weak loop's characteristic polynomial has a constant term near 10**60.
    rep = {"quiver": {"vertices": 1, "omega_arrows": [[1, 1]]}, "dims": [2],
           "mats": {"h0": [[0, 0], [0, 0]], "h1": [[10**30, 1], [0, -(10**30 - 11)]]}}
    path = tmp_path / "large_rep.json"
    path.write_text(json.dumps(rep))
    started = time.perf_counter()
    assert cli.main(["geom", "--rep", str(path)]) == 0
    assert time.perf_counter() - started < 1.0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("flag: found ")
    assert out[3] == "(eps, eps*) = v1:(2,2)"


@pytest.mark.parametrize("dims, message", [
    ([1], "dimension vector length does not match the vertex count"),
    ([1, -1], "negative dimension"),
], ids=["short", "negative"])
def test_bad_dims_name_their_fault(tmp_path, capsys, dims, message):
    rep = json.loads(REP)
    rep["dims"] = dims
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    assert cli.main(["geom", "--rep", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_input_errors_exit_two(files, capsys, tmp_path):
    assert cli.main(["graph", "--depth", "1"]) == 2
    assert cli.main(["graph", "--cartan", files["exb.json"],
                     "--quiver", files["quiver.json"], "--depth", "1"]) == 2
    assert cli.main(["graph", "--cartan", str(tmp_path / "missing.json"), "--depth", "1"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli.main(["graph", "--cartan", str(bad), "--depth", "1"]) == 2
    assert cli.main(["graph", "--cartan", files["exb.json"], "--depth", "1",
                     "--iota", "1,1"]) == 2
    capsys.readouterr()


def test_cap_exits_three(files, capsys):
    # B(inf) over [[2]] has one element per depth, so depth 10000 enumerates 10001.
    code = cli.main(["graph", "--cartan", files["sl2.json"], "--depth", "10000"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cap exceeded: more than 10000 nodes generated\n"


def _one_line_input_error(capsys) -> bool:
    err = capsys.readouterr().err
    return err.startswith("input error:") and len(err.strip().splitlines()) == 1


def test_quiver_boolean_vertex_rejected(tmp_path, capsys):
    path = tmp_path / "bool_quiver.json"
    path.write_text('{"vertices": 2, "omega_arrows": [[true, 2]]}')
    assert cli.main(["graph", "--quiver", str(path), "--depth", "1"]) == 2
    assert _one_line_input_error(capsys)


def _hostile_input_exits_two(tmp_path, capsys, argv, text) -> None:
    path = tmp_path / "hostile.json"
    path.write_text(text)
    started = time.perf_counter()
    assert cli.main(argv + [str(path)]) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().out == ""


def test_rep_exponent_entry_rejected(tmp_path, capsys):
    # Fraction("1e1000000000") would expand a billion-digit integer.
    rep = {"quiver": {"vertices": 1, "omega_arrows": [[1, 1]]}, "dims": [1],
           "mats": {"h0": [["1e1000000000"]], "h1": [[0]]}}
    _hostile_input_exits_two(tmp_path, capsys, ["geom", "--rep"], json.dumps(rep))


def test_geom_dimension_over_bound_rejected_before_any_matrix(tmp_path, capsys):
    # The d x d moment map of this arrowless vertex would have 10**12 entries.
    rep = {"quiver": {"vertices": 1, "omega_arrows": []}, "dims": [10**6], "mats": {}}
    _hostile_input_exits_two(tmp_path, capsys, ["geom", "--rep"], json.dumps(rep))


def test_quiver_rank_over_bound_rejected(tmp_path, capsys):
    # quiver_to_cartan would build a 10**10-entry matrix.
    _hostile_input_exits_two(tmp_path, capsys, ["graph", "--depth", "0", "--quiver"],
                             '{"vertices": 100000, "omega_arrows": []}')


def test_cartan_rank_over_bound_rejected(tmp_path, capsys):
    n = MAX_RANK + 1
    matrix = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    _hostile_input_exits_two(tmp_path, capsys, ["verify", "--depth", "1", "--cartan"],
                             json.dumps({"matrix": matrix}))


def test_negative_depth_rejected(files, capsys):
    assert cli.main(["verify", "--cartan", files["exb.json"], "--depth", "-3"]) == 2
    assert _one_line_input_error(capsys)
    assert cli.main(["graph", "--cartan", files["exb.json"], "--depth", "-1"]) == 2
    assert _one_line_input_error(capsys)


def test_negative_height_rejected(files, capsys):
    assert cli.main(["dims", "--cartan", files["exb.json"], "--height", "-1"]) == 2
    assert _one_line_input_error(capsys)


@pytest.mark.parametrize("iota, alt_period", [("1,2,1", (2, 1, 1)), ("2,1", (1, 2))])
def test_verify_iota_check_uses_another_sequence(files, capsys, monkeypatch, iota, alt_period):
    seen = []

    def spy(src, dst, elements):
        seen.append((src, dst))
        return []

    monkeypatch.setattr(cli, "transport_isomorphism_findings", spy)
    assert cli.main(["verify", "--cartan", files["exb.json"], "--depth", "2", "--iota", iota]) == 0
    capsys.readouterr()
    [(crystal, alt)] = seen
    assert alt is not crystal
    assert alt.iota.period == alt_period


def _one_line_internal_error(capsys) -> bool:
    captured = capsys.readouterr()
    err = captured.err
    return (captured.out == "" and err.startswith("internal error:")
            and len(err.strip().splitlines()) == 1 and "Traceback" not in err)


def test_dims_tripwire_exits_four(files, capsys, monkeypatch):
    def tripped(datum, alpha):
        raise InexactDivisionError("planted remainder")

    monkeypatch.setattr(cli, "graded_dim", tripped)
    assert cli.main(["dims", "--cartan", files["exb.json"], "--height", "2"]) == 4
    assert _one_line_internal_error(capsys)


def test_geom_tripwire_exits_four(files, capsys, monkeypatch):
    def tripped(rep):
        raise InternalInconsistencyError("planted disagreement")

    monkeypatch.setattr(cli, "flag_exists", tripped)
    assert cli.main(["geom", "--rep", files["rep.json"]]) == 4
    assert _one_line_internal_error(capsys)


def test_geom_flag_verification_tripwire_exits_four(files, capsys, monkeypatch):
    monkeypatch.setattr(geometry, "verify_flag", lambda rep, witness: ["planted fault"])
    assert cli.main(["geom", "--rep", files["rep.json"]]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: InternalInconsistencyError: "
                            "constructed flag fails verification: planted fault\n")


def test_verify_psi_tripwire_exits_four(files, capsys, monkeypatch):
    # A tripwire inside a strict-embedding check ends the run; it is not a finding.
    def tripped(self, b, i):
        raise InternalInconsistencyError("planted disagreement")

    monkeypatch.setattr(BInfinityCrystal, "psi_embed", tripped)
    assert cli.main(["verify", "--cartan", files["exb.json"], "--depth", "2"]) == 4
    assert _one_line_internal_error(capsys)


def test_verify_enumerates_once(files, capsys, monkeypatch):
    calls = []
    real_reachable = binfinity.reachable

    def counting(*args):
        calls.append(args[2])
        return real_reachable(*args)

    monkeypatch.setattr(binfinity, "reachable", counting)
    assert cli.main(["verify", "--cartan", files["exb.json"], "--depth", "3"]) == 0
    capsys.readouterr()
    assert calls == [3]


def test_eps_star_disagreement_exits_four(files, capsys, monkeypatch):
    # The adjoint closure reads one more than the kernel iteration.
    real_eps_point = geometry.eps_point
    monkeypatch.setattr(geometry, "eps_point", lambda rep, i: real_eps_point(rep, i) + 1)
    assert cli.main(["geom", "--rep", files["rep.json"]]) == 4
    assert _one_line_internal_error(capsys)


def test_failed_run_writes_no_partial_report(tmp_path, capsys):
    # The flag search rejects the dimension before any report line exists.
    path = tmp_path / "big_rep.json"
    zeros = [[0] * 7 for _ in range(7)]
    path.write_text(json.dumps({"quiver": {"vertices": 1, "omega_arrows": [[1, 1]]},
                                "dims": [7], "mats": {"h0": zeros, "h1": zeros}}))
    assert cli.main(["geom", "--rep", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: total dimension 7 exceeds the bound 6\n"


@pytest.mark.parametrize("argv, name, target, attr", [
    (["graph", "--depth", "2", "--cartan"], "exb.json", cli, "generate_graph"),
    (["dims", "--height", "2", "--cartan"], "exb.json", cli, "graded_dim"),
    (["verify", "--depth", "2", "--cartan"], "exb.json", BInfinityCrystal, "phi"),
    (["geom", "--rep"], "rep.json", cli, "moment_map"),
], ids=["graph", "dims", "verify", "geom"])
def test_any_exception_exits_four(files, capsys, monkeypatch, argv, name, target, attr):
    # Not a GkmError: the command line still ends with one line and exit code 4.
    def planted(*args):
        raise RuntimeError("planted")

    monkeypatch.setattr(target, attr, planted)
    assert cli.main(argv + [files[name]]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: planted\n"


def test_geom_prints_witness_past_the_digit_cap(files, capsys, monkeypatch):
    # Witness entries may outgrow the interpreter's cap on int-to-str digits.
    numerator = 10**4999 + 7
    witness = geometry.FlagWitness(((1, (Fraction(numerator, 3), Fraction(0))),))
    monkeypatch.setattr(cli, "flag_exists", lambda rep: witness)
    cap = sys.get_int_max_str_digits()
    assert cli.main(["geom", "--rep", files["rep.json"]]) == 0
    assert sys.get_int_max_str_digits() == cap
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "flag: found (v1, [1" + "0" * 4998 + "7/3, 0])"


@pytest.mark.parametrize("entry, message", [
    ("1" + "0" * 4400, "not valid JSON"),
    ('"1' + "0" * 4400 + '/3"', "bad rational entry"),
], ids=["json-int", "ratio-string"])
def test_rep_entry_past_the_digit_cap_rejected(tmp_path, capsys, entry, message):
    path = tmp_path / "long_rep.json"
    path.write_text('{"quiver": {"vertices": 1, "omega_arrows": [[1, 1]]}, "dims": [1], '
                    '"mats": {"h0": [[0]], "h1": [[' + entry + ']]}}')
    assert cli.main(["geom", "--rep", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {message}") and len(captured.err.splitlines()) == 1
