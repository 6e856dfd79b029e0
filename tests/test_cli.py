"""End-to-end command-line behavior: goldens, exit codes, determinism."""

import json

import pytest

from tropcomm.cli import main

from helpers import (
    EX5_A, EX5_B, P7A_A, P7A_B, P7B_C, P7B_D, P7C_E, P7C_F,
    S31_A, S31_B, TC2_A, TC2_B, LIFT_X, LIFT_Y,
)
from tropcomm.core import matrix_to_json, pair_to_json


@pytest.fixture()
def pair_file(tmp_path):
    def write(name, a, b):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(pair_to_json(a, b)))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_separating_pair_a(pair_file, capsys):
    code, out, _ = run(capsys, "check", pair_file("a", P7A_A, P7A_B))
    assert code == 0
    assert "TS: yes, Tpre: yes, TC3: unknown" in out


def test_check_separating_pair_b(pair_file, capsys):
    code, out, _ = run(capsys, "check", pair_file("b", P7B_C, P7B_D))
    assert code == 0
    assert "TS: yes, Tpre: no (1,1),(2,2), TC3: certified-out (x12*y21)" in out


def test_check_separating_pair_c(pair_file, capsys):
    code, out, _ = run(capsys, "check", pair_file("c", P7C_E, P7C_F))
    assert code == 0
    assert "TS: no (3,3), Tpre: yes, TC3: unknown" in out


def test_check_polytrope_conditions(pair_file, capsys):
    code, out, _ = run(capsys, "check", pair_file("ex5", EX5_A, EX5_B))
    assert code == 0
    assert "commutes: yes, star-condition: no (1,3), square-condition: yes" in out
    assert "witness-values: star-condition (1,3) 3.43 vs 2.31" in out


def test_check_2x2(pair_file, capsys):
    code, out, _ = run(capsys, "check", pair_file("tc2", TC2_A, TC2_B))
    assert code == 0
    assert "TC2: in" in out
    code, out, _ = run(capsys, "check", pair_file("s31", S31_A, S31_B))
    assert "TS: yes, Tpre: no (1,1), TC2: out" in out


def test_check_is_deterministic(pair_file, capsys):
    path = pair_file("a", P7A_A, P7A_B)
    _, out1, _ = run(capsys, "check", path)
    _, out2, _ = run(capsys, "check", path)
    assert out1 == out2


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "error" in err


def test_check_unsupported_size(tmp_path, capsys):
    path = tmp_path / "big.json"
    n = 5
    grid = [["0" if i == j else "1" for j in range(n)] for i in range(n)]
    path.write_text(json.dumps({"n": n, "A": grid, "B": grid}))
    code, _, err = run(capsys, "check", str(path))
    assert code == 3


def test_fan_n2(capsys):
    code, out, _ = run(capsys, "fan", "commuting:n=2")
    assert code == 0
    report = json.loads(out)
    assert report["lineality_dim"] == 4
    assert report["f_vector"] == [1, 4, 6]
    assert report["cell_count"] == 11
    assert report["generator_count"] == 3


def test_fan_budget_guard(capsys):
    code, _, err = run(capsys, "fan", "commuting:n=3")
    assert code == 4
    assert "budget" in err
    assert "1658" in err  # the reference constants are surfaced


def test_fan_rejects_unparseable_budget_variable(monkeypatch, capsys):
    monkeypatch.setenv("TROPCOMM_BUDGET", "1e7")
    code, out, err = run(capsys, "fan", "commuting:n=2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "TROPCOMM_BUDGET" in err and "1e7" in err
    monkeypatch.setenv("TROPCOMM_BUDGET", "10")
    code, _, err = run(capsys, "fan", "commuting:n=3")
    assert code == 4 and "budget of 10" in err


@pytest.mark.parametrize("value", ["-5", "0"])
def test_fan_rejects_budget_variable_below_one(monkeypatch, capsys, value):
    monkeypatch.setenv("TROPCOMM_BUDGET", value)
    code, out, err = run(capsys, "fan", "commuting:n=2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "TROPCOMM_BUDGET" in err and value in err


@pytest.mark.parametrize("value", ["-5", "0"])
def test_fan_rejects_budget_option_below_one(capsys, value):
    code, out, err = run(capsys, "fan", "commuting:n=2", "--budget", value)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--budget" in err and value in err
    code, _, _ = run(capsys, "fan", "commuting:n=2", "--budget", "1000")
    assert code == 0


def test_fan_generator_file(tmp_path, capsys):
    spec = {
        "dimension": 3,
        "variables": ["x", "y", "z"],
        "generators": [
            [
                {"exponents": [1, 0, 0], "coefficient": 1},
                {"exponents": [0, 1, 0], "coefficient": 1},
                {"exponents": [0, 0, 1], "coefficient": 1},
            ]
        ],
    }
    path = tmp_path / "line.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "fan", str(path), "--emit-cells")
    assert code == 0
    report = json.loads(out)
    assert report["lineality_dim"] == 1
    assert report["f_vector"] == [1, 3]
    assert len(report["cells"]) == 4


def test_sample_ts_minus_tpre(capsys):
    code, out, _ = run(capsys, "sample", "--region", "ts-minus-tpre", "--seed", "1", "--max-draws", "2000")
    assert code == 0
    assert "found after 119 draws" in out
    assert "TS: yes, Tpre: no" in out


def test_sample_exhaustion(capsys):
    code, _, err = run(capsys, "sample", "--region", "tpre-minus-ts", "--seed", "1", "--max-draws", "3")
    assert code == 5
    assert "no tpre-minus-ts pair in 3 draws" in err


def test_star_command(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json(S31_A)))
    code, out, _ = run(capsys, "star", str(path))
    assert code == 0
    assert json.loads(out) == {"n": 2, "entries": [["0", "2"], ["1", "0"]]}

    path.write_text(json.dumps({"n": 2, "entries": [["0", "-1"], ["-1", "0"]]}))
    code, out, err = run(capsys, "star", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ")


def test_gens_command(capsys):
    code, out, _ = run(capsys, "gens", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g11 = x12*y21 - x21*y12"
    assert len(lines) == 3

    code, out, _ = run(capsys, "gens", "--symmetric")
    assert code == 0
    assert out.strip().splitlines()[0] == (
        "g12 = x11*y12 - x12*y11 + x12*y22 + x13*y23 - x22*y12 - x23*y13"
    )


def test_certify_command(pair_file, capsys):
    code, out, _ = run(capsys, "certify", pair_file("b", P7B_C, P7B_D))
    assert code == 0
    cert = json.loads(out)
    assert cert["status"] == "certified-out"
    assert cert["source"] == "g11"
    assert cert["min_monomial"] == "x12*y21"

    code, out, _ = run(capsys, "certify", "--shallow", pair_file("a", P7A_A, P7A_B))
    assert json.loads(out) == {"status": "unknown"}


def test_lift_and_verify_round_trip(pair_file, tmp_path, capsys):
    code, out, _ = run(capsys, "lift", pair_file("tc2", TC2_A, TC2_B))
    assert code == 0
    lift = json.loads(out)
    assert lift["status"] == "found"
    lift_file = tmp_path / "lift.json"
    lift_file.write_text(json.dumps({"n": 2, "X": lift["X"], "Y": lift["Y"], "A": lift["A"], "B": lift["B"]}))
    code, out, _ = run(capsys, "lift-verify", str(lift_file))
    assert code == 0
    assert out.strip() == "VERIFIED"


def test_check_and_lift_outside_the_commuting_set(tmp_path, capsys):
    # in Tpre2 but not in TS: the exact lift
    # X = [[t^(-16/7), t^(-37/7)], [t^(2/7), t^(-16/7) - t^(-58/7)]],
    # Y = [[t^(-38/7) + t^(4/7), t^(-17/7)], [t^(22/7), t^(4/7)]] proves TC2
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"n": 2, "A": [["-16/7", "-37/7"], ["2/7", "-58/7"]],
                                "B": [["-38/7", "-17/7"], ["22/7", "4/7"]]}))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "TS: no (1,2), Tpre: yes, TC2: in" in out
    code, out, _ = run(capsys, "lift", str(path))
    assert code == 0
    assert json.loads(out)["status"] == "found"
    lift_file = tmp_path / "lift.json"
    lift_file.write_text(out)
    code, out, _ = run(capsys, "lift-verify", str(lift_file))
    assert code == 0 and out.strip() == "VERIFIED"


def test_lift_precondition(pair_file, capsys):
    code, _, err = run(capsys, "lift", pair_file("s31", S31_A, S31_B))
    assert code == 3


def test_lift_verify_published_and_perturbed(tmp_path, capsys):
    a = matrix_to_json(TC2_A)["entries"]
    b = matrix_to_json(TC2_B)["entries"]
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"n": 2, "X": LIFT_X, "Y": LIFT_Y, "A": a, "B": b}))
    code, out, _ = run(capsys, "lift-verify", str(good))
    assert code == 0 and out.strip() == "VERIFIED"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "X": LIFT_X, "Y": [["1", "2*t^3"], ["t", "t^-1"]], "A": a, "B": b}))
    code, out, _ = run(capsys, "lift-verify", str(bad))
    assert code == 1
    assert "NOT VERIFIED" in out
    assert "commutation fails at (1,2)" in out


def _series_identity(n):
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def _trop_identity(n):
    return [["0" if i == j else "inf" for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("x_n, y_n, ab_n", [(2, 2, 3), (3, 3, 2), (2, 3, 2)],
                         ids=["lift-smaller-than-pair", "lift-larger-than-pair", "x-and-y-differ"])
def test_lift_verify_rejects_mixed_sizes(tmp_path, capsys, x_n, y_n, ab_n):
    # every series identity lifts a tropical identity of its own size, so
    # only the size mismatch is wrong here
    path = tmp_path / "lift.json"
    ab = _trop_identity(ab_n)
    path.write_text(json.dumps({"n": ab_n, "X": _series_identity(x_n), "Y": _series_identity(y_n),
                                "A": ab, "B": ab}))
    code, out, err = run(capsys, "lift-verify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: size mismatch") and "Traceback" not in err


_ZEROS2 = [["0", "0"], ["0", "0"]]


@pytest.mark.parametrize("command, doc", [
    ("lift-verify", {"n": 2, "X": [["t^(1/0)", "0"], ["0", "1"]], "Y": LIFT_Y, "A": _ZEROS2, "B": _ZEROS2}),
    ("lift-verify", {"n": 2, "X": [[5, "0"], ["0", "1"]], "Y": LIFT_Y, "A": _ZEROS2, "B": _ZEROS2}),
    ("lift-verify", {"n": 2, "X": 5, "Y": LIFT_Y, "A": _ZEROS2, "B": _ZEROS2}),
    ("fan", {"dimension": 2, "generators": [[5]]}),
    ("fan", {"dimension": 2, "generators": 5}),
    ("fan", {"dimension": 2, "generators": [[{"exponents": [1.5, 0]}]]}),
    ("fan", {"dimension": 2, "generators": [[{"exponents": [1, 0]}]], "variables": 7}),
    ("fan", {"dimension": True, "generators": [[{"exponents": [1]}]]}),
    ("star", {"n": True, "entries": [["0"]]}),
    ("check", {"n": True, "A": [["0"]], "B": [["0"]]}),
    ("check", {"n": 2, "A": [[True, 0], [0, 0]], "B": [[0, 0], [0, 0]]}),
], ids=[
    "series-zero-denominator", "series-not-a-string", "series-not-a-grid",
    "term-not-an-object", "generators-not-a-list", "fractional-exponent",
    "variables-not-a-list", "dimension-true", "star-n-true", "check-n-true",
    "entry-true",
])
def test_malformed_input_exits_2(tmp_path, capsys, command, doc):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_fan_of_an_empty_prevariety_has_no_max_dim(tmp_path, capsys):
    # a one-term generator never attains its minimum twice
    path = tmp_path / "monomial.json"
    path.write_text(json.dumps({"dimension": 2, "generators": [[{"exponents": [1, 0]}]]}))
    code, out, _ = run(capsys, "fan", str(path))
    assert code == 0
    report = json.loads(out)
    assert (report["cell_count"], report["f_vector"], report["max_dim"]) == (0, [], None)
    assert report["lineality_dim"] == 2


@pytest.mark.parametrize("entry", [
    '"1e5000"', "1e5000", '"1E-5000"', "1" * 5000, '"1e999999999"', "1e999999999",
], ids=["string", "number", "negative-exponent", "long-integer", "huge-string", "huge-number"])
def test_entry_size_is_bounded(tmp_path, capsys, entry):
    """An entry with more digits, or a larger decimal exponent, than
    Python's int-string limit (4,300) is refused as malformed input."""
    path = tmp_path / "pair.json"
    path.write_text('{"n": 2, "A": [[%s, 0], [0, 0]], "B": [[0, 0], [0, 0]]}' % entry)
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_entry_exponent_at_the_limit_is_read(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text('{"n": 2, "A": [["1e4300", 1e-4300], [0, 0]], "B": [[0, 0], [0, 0]]}')
    code, _, _ = run(capsys, "check", str(path))
    assert code == 0


def test_json_numbers_are_read_exactly(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"n": 2, "entries": [[0, 0.1], [2.5e-1, 0]]}')
    code, out, _ = run(capsys, "star", str(path))
    assert code == 0
    assert json.loads(out)["entries"] == [["0", "1/10"], ["1/4", "0"]]


def test_svg_command(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text(json.dumps(matrix_to_json(P7A_A)))  # finite 3x3 is enough
    out_path = tmp_path / "out.svg"
    code, out, _ = run(capsys, "svg", str(m), "-o", str(out_path))
    assert code == 0
    assert out_path.exists()
    assert "<svg" in out_path.read_text()


def test_sample_tpre_minus_ts(capsys):
    code, out, _ = run(capsys, "sample", "--region", "tpre-minus-ts", "--seed", "1", "--max-draws", "2000")
    assert code == 0
    assert "found after 1451 draws" in out
    assert "TS: no, Tpre: yes" in out


def test_sample_certified_out(capsys):
    code, out, _ = run(capsys, "sample", "--region", "certified-out", "--seed", "2", "--max-draws", "1000")
    assert code == 0
    assert "found after 489 draws" in out
    assert "TS: yes, Tpre: yes, TC3: certified-out" in out
