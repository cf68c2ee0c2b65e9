"""End-to-end command-line checks, including failure exit codes."""

import json

import pytest

from gkm_crystals import cli
from gkm_crystals.crystal import Violation

EXB = '{"matrix": [[0, -1], [-1, 2]]}'
TWO_IMAG = '{"matrix": [[0, -1], [-1, 0]]}'
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
    for name, text in [("exb.json", EXB), ("two_imag.json", TWO_IMAG),
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
    monkeypatch.setattr(cli, "graded_dim", lambda datum, alpha, bound: 99)
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


def test_geom_flag_bound(files, capsys):
    code = cli.main(["geom", "--rep", files["rep.json"], "--flag-bound", "2"])
    assert code == 2
    assert "exceeds the bound" in capsys.readouterr().err


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
    code = cli.main(["graph", "--cartan", files["two_imag.json"], "--depth", "6", "--cap", "10"])
    assert code == 3
    assert "cap exceeded" in capsys.readouterr().err


def _one_line_input_error(capsys) -> bool:
    err = capsys.readouterr().err
    return err.startswith("input error:") and len(err.strip().splitlines()) == 1


def test_quiver_boolean_vertex_rejected(tmp_path, capsys):
    path = tmp_path / "bool_quiver.json"
    path.write_text('{"vertices": 2, "omega_arrows": [[true, 2]]}')
    assert cli.main(["graph", "--quiver", str(path), "--depth", "1"]) == 2
    assert _one_line_input_error(capsys)


def test_negative_depth_rejected(files, capsys):
    assert cli.main(["verify", "--cartan", files["exb.json"], "--depth", "-3"]) == 2
    assert _one_line_input_error(capsys)
    assert cli.main(["graph", "--cartan", files["exb.json"], "--depth", "-1"]) == 2
    assert _one_line_input_error(capsys)


def test_negative_cap_rejected(files, capsys):
    assert cli.main(["graph", "--cartan", files["exb.json"], "--depth", "1", "--cap", "-1"]) == 2
    assert _one_line_input_error(capsys)


def test_negative_height_rejected(files, capsys):
    assert cli.main(["dims", "--cartan", files["exb.json"], "--height", "-1"]) == 2
    assert _one_line_input_error(capsys)


@pytest.mark.parametrize("iota, alt_period", [("1,2,1", (2, 1, 1)), ("2,1", (1, 2))])
def test_verify_iota_check_uses_another_sequence(files, capsys, monkeypatch, iota, alt_period):
    seen = []

    def spy(src, dst, depth, cap=10000):
        seen.append((src, dst))
        return []

    monkeypatch.setattr(cli, "transport_isomorphism_findings", spy)
    assert cli.main(["verify", "--cartan", files["exb.json"], "--depth", "2", "--iota", iota]) == 0
    capsys.readouterr()
    [(crystal, alt)] = seen
    assert alt is not crystal
    assert alt.iota.period == alt_period
