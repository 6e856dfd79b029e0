"""End-to-end command-line behavior: goldens, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from tropcomm import symmetric_generators
from tropcomm.cli import main

from helpers import (
    M, EX5_A, EX5_B, EX7_A, P7A_A, P7A_B, P7B_C, P7B_D, P7C_E, P7C_F,
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


@pytest.mark.parametrize("argv, code", [(("gens", "--n", "2"), 0), (("gens", "--n", "1"), 3)])
def test_python_m_tropcomm_cli_matches_main(capsys, argv, code):
    """``python -m tropcomm.cli`` exits with main's code and prints its output."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "tropcomm.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)


def test_check_separating_pair_a(pair_file, capsys):
    code, out, _ = run(capsys, "check", pair_file("a", P7A_A, P7A_B))
    assert code == 0
    assert "TS: yes, Tpre: yes, TC3: unknown (searched: witness families and the degree-4 slice)" in out


def test_check_separating_pair_b(pair_file, capsys):
    code, out, _ = run(capsys, "check", pair_file("b", P7B_C, P7B_D))
    assert code == 0
    assert "TS: yes, Tpre: no (1,1),(2,2), TC3: certified-out (x12*y21)" in out


def test_check_separating_pair_c(pair_file, capsys):
    code, out, _ = run(capsys, "check", pair_file("c", P7C_E, P7C_F))
    assert code == 0
    assert "TS: no (3,3), Tpre: yes, TC3: unknown (searched: witness families and the degree-4 slice)" in out


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


# 4x4 polytropes that fail all four conditions, each at its own entry
P4_A = M([[0, 4, 2, 3], [3, 0, 5, 2], [2, 4, 0, 3], [1, 1, 3, 0]])
P4_B = M([[0, 3, 1, 2], [5, 0, 4, 1], [1, 2, 0, 3], [5, 1, 4, 0]])

CHECK_OUTPUTS = {
    "a": (P7A_A, P7A_B, """n: 3
TS: yes, Tpre: yes, TC3: unknown (searched: witness families and the degree-4 slice)
polytropes: no
"""),
    "b": (P7B_C, P7B_D, """n: 3
TS: yes, Tpre: no (1,1),(2,2), TC3: certified-out (x12*y21)
polytropes: yes
commutes: yes, star-condition: yes, square-condition: yes, product-condition: yes
"""),
    "c": (P7C_E, P7C_F, """n: 3
TS: no (3,3), Tpre: yes, TC3: unknown (searched: witness families and the degree-4 slice)
polytropes: no
"""),
    "ex5": (EX5_A, EX5_B, """n: 4
polytropes: yes
commutes: yes, star-condition: no (1,3), square-condition: yes, product-condition: no (1,3)
witness-values: star-condition (1,3) 3.43 vs 2.31
witness-values: product-condition (1,3) 2.31 vs 3.43
"""),
    "tc2": (TC2_A, TC2_B, """n: 2
TS: yes, Tpre: yes, TC2: in
polytropes: no
"""),
    "s31": (S31_A, S31_B, """n: 2
TS: yes, Tpre: no (1,1), TC2: out
polytropes: yes
commutes: yes, star-condition: yes, square-condition: yes, product-condition: yes
"""),
    "4x4-polytropes": (P4_A, P4_B, """n: 4
polytropes: yes
commutes: no (2,1), star-condition: no (2,1), square-condition: no (2,3), product-condition: no (4,3)
witness-values: commutes (2,1) 3 vs 2
witness-values: star-condition (2,1) 3 vs 2
witness-values: square-condition (2,3) 4 vs 3
witness-values: product-condition (4,3) 2 vs 3
"""),
    # EX7_A is a polytrope, P7A_B (diagonal 12, 2, 6) is not
    "one-polytrope": (EX7_A, P7A_B, """n: 3
TS: no (1,1), Tpre: no (1,1),(1,3),(2,2),(3,3), TC3: certified-out (x21*y12)
polytropes: no
"""),
}


@pytest.mark.parametrize("name", CHECK_OUTPUTS)
def test_check_prints_exactly(pair_file, capsys, name):
    a, b, expected = CHECK_OUTPUTS[name]
    assert run(capsys, "check", pair_file(name, a, b)) == (0, expected, "")


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
    code, out, _ = run(capsys, "fan", "commuting:n=2", "--emit-cells")
    assert code == 0
    # the report with every cell's pattern, dimension and witness
    digest = "1bd03bf2e3975fbc8ef1fb8d2fbd7888add97f71acfb70036ac643989a66280c"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_fan_budget_guard(capsys):
    code, _, err = run(capsys, "fan", "commuting:n=3")
    assert code == 4
    assert "budget" in err
    assert "1658" in err  # the reference constants are surfaced


@pytest.mark.parametrize("value", ["-5", "0"])
def test_fan_rejects_budget_option_below_one(capsys, value):
    code, out, err = run(capsys, "fan", "commuting:n=2", "--budget", value)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--budget" in err and value in err
    code, _, _ = run(capsys, "fan", "commuting:n=2", "--budget", "1000")
    assert code == 0
    code, _, err = run(capsys, "fan", "commuting:n=2", "--budget", "10")
    assert code == 4 and "budget of 10" in err
    # --jobs below 1 is refused before any work: the budget guard is not reached
    code, out, err = run(capsys, "fan", "commuting:n=3", "--jobs", value)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--jobs" in err and value in err


def test_fan_orbits_refuse_a_generator_file(tmp_path, capsys):
    """A file's variable names are only checked, so they carry no group."""
    path = tmp_path / "line.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "variables": ["x11", "y11"],
        "generators": [[{"exponents": [1, 0]}, {"exponents": [0, 1], "coefficient": -1}]],
    }))
    code, out, err = run(capsys, "fan", str(path), "--orbits")
    assert code == 3 and out == ""
    assert err.startswith("error:") and "--orbits" in err


def test_fan_orbits_of_commuting_2(capsys):
    """The group S2 x S2 is read from the names x11..y22."""
    code, out, _ = run(capsys, "fan", "commuting:n=2", "--orbits")
    assert code == 0
    report = json.loads(out)
    assert [o["size"] for o in report["orbits"]] == [2, 2, 2]
    assert [o["label"] for o in report["orbits"]] == ["I", "II", "III"]


def test_fan_file_cells_are_the_same_through_the_pool(tmp_path, capsys):
    """The g23/g13 pair of the symmetric generators, as a generator file:
    ``--jobs 2`` runs one pool task per first-level subset, whose cells
    come back pickled, and the report is byte for byte the serial one."""
    g12, g13, g23 = symmetric_generators()
    path = tmp_path / "g23g13.json"
    path.write_text(json.dumps({
        "dimension": 12,
        "generators": [
            [{"exponents": list(m), "coefficient": c} for m, c in g.terms] for g in (g23, g13)
        ],
    }))
    code, serial, _ = run(capsys, "fan", str(path), "--emit-cells")
    assert code == 0
    assert json.loads(serial)["cell_count"] == 2769
    code, pooled, _ = run(capsys, "fan", str(path), "--emit-cells", "--jobs", "2")
    assert code == 0 and pooled == serial


@pytest.mark.parametrize("argv", [("gens", "--n", "10"), ("fan", "commuting:n=10")])
def test_matrix_size_is_at_most_9(capsys, argv):
    """Variable names carry one-digit indices: from n = 11 on, x111 would
    name both x1,11 and x11,1."""
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error:") and "<= 9" in err


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

    # a generator whose terms cancel is empty: it ties nothing and cuts nothing
    spec["generators"].append([{"exponents": [1, 0, 0]}, {"exponents": [1, 0, 0], "coefficient": -1}])
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "fan", str(path), "--emit-cells")
    assert code == 0
    with_empty = json.loads(out)
    assert with_empty["generator_count"] == 2
    assert with_empty["lineality_dim"] == report["lineality_dim"]
    assert with_empty["cells"] == report["cells"]


def test_fan_walks_many_generators(tmp_path, capsys):
    """The prefix walk keeps its own stack: a thousand generators (here one
    two-term generator x0 - x1 repeated) are not bounded by the interpreter's
    recursion depth."""
    gen = [{"exponents": [1, 0], "coefficient": 1}, {"exponents": [0, 1], "coefficient": -1}]
    path = tmp_path / "many.json"
    path.write_text(json.dumps({"dimension": 2, "generators": [gen] * 1000}))
    code, out, _ = run(capsys, "fan", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["cell_count"] == 1
    assert report["f_vector"] == [1]
    assert report["lineality_dim"] == 1


def test_fan_lineality_builds_no_basis(tmp_path, capsys):
    """The lineality dimension is counted, not spanned: a basis of 10^5
    vectors of 10^5 coordinates would need tens of GB."""
    path = tmp_path / "free.json"
    path.write_text(json.dumps({"dimension": 100000, "generators": []}))
    code, out, _ = run(capsys, "fan", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["lineality_dim"] == 100000
    assert report["f_vector"] == [1]


def test_fan_builds_no_default_variable_names(tmp_path, capsys):
    """A file's variable names are never read, so none are made up: with
    10^6 default names the peak was 69 MB.  What stays is the one cell's
    witness, a tuple of 10^6 pointers to one zero (8 MB)."""
    path = tmp_path / "free.json"
    path.write_text(json.dumps({"dimension": 10 ** 6, "generators": []}))
    tracemalloc.start()
    try:
        code = main(["fan", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["lineality_dim"] == 10 ** 6
    assert peak < 16 * 2 ** 20, peak


def test_sample_ts_minus_tpre(capsys):
    code, out, _ = run(capsys, "sample", "--region", "ts-minus-tpre", "--seed", "1", "--max-draws", "2000")
    assert code == 0
    assert "found after 119 draws" in out
    assert "TS: yes, Tpre: no" in out


def test_sample_rejects_an_unknown_region(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--region", "bogus", "--max-draws", "0"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_sample_exhaustion(capsys):
    code, _, err = run(capsys, "sample", "--region", "tpre-minus-ts", "--seed", "1", "--max-draws", "3")
    assert code == 5
    assert "no tpre-minus-ts pair in 3 draws" in err


@pytest.mark.parametrize("option, value", [("--max-draws", "-5"), ("--max-draws", "0"), ("--range", "-1")])
def test_sample_rejects_options_out_of_range(capsys, option, value):
    code, out, err = run(capsys, "sample", "--region", "ts-minus-tpre", option, value)
    assert code == 2 and out == ""
    assert err.startswith("error:") and option in err and value in err


def test_sample_accepts_the_smallest_options(capsys):
    # one draw with entries in 0..0: the zero pair is in TS and in Tpre
    code, out, err = run(capsys, "sample", "--region", "ts-minus-tpre", "--max-draws", "1", "--range", "0")
    assert code == 5 and out == ""
    assert "no ts-minus-tpre pair in 1 draws" in err


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
    assert (code, out) == (0, """g11 = x12*y21 - x21*y12
g12 = x11*y12 - x12*y11 + x12*y22 - x22*y12
g21 = -x11*y21 + x21*y11 - x21*y22 + x22*y21
""")

    code, out, _ = run(capsys, "gens", "--symmetric")
    assert (code, out) == (0, """g12 = x11*y12 - x12*y11 + x12*y22 + x13*y23 - x22*y12 - x23*y13
g13 = x11*y13 + x12*y23 - x13*y11 + x13*y33 - x23*y12 - x33*y13
g23 = x12*y13 - x13*y12 + x22*y23 - x23*y22 + x23*y33 - x33*y23
""")


@pytest.mark.parametrize("argv, digest", [
    (("--n", "3"), "5ffef457cb7875684f3db5cb4398ea135ba899b79e5735a825d37dda45bb1797"),
    (("--n", "4"), "6151e449fcc6f3b063b7caca059907a7fb964a871cb433498573c40b13dc9350"),
], ids=["n3", "n4"])
def test_gens_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "gens", *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", ["2", "5"])
def test_gens_symmetric_needs_n_3(capsys, n):
    """The symmetric generators are 3x3 ones: another --n is refused, and
    --n 3 prints what plain --symmetric prints."""
    code, out, err = run(capsys, "gens", "--symmetric", "--n", n)
    assert code == 3 and out == ""
    assert err.startswith("error:") and "--symmetric" in err and f"n={n}" in err
    _, plain, _ = run(capsys, "gens", "--symmetric")
    code, out, _ = run(capsys, "gens", "--symmetric", "--n", "3")
    assert code == 0 and out == plain


@pytest.mark.parametrize("argv", [
    ("fan", "commuting:n=1"), ("fan", "commuting:n=x"), ("fan", "symmetric:n=2"), ("gens", "--n", "1"),
    ("fan", "commuting:n=\u0662"),  # an Arabic-Indic two
])
def test_an_unsupported_configuration_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_certify_command(pair_file, capsys):
    code, out, _ = run(capsys, "certify", pair_file("b", P7B_C, P7B_D))
    assert code == 0
    cert = json.loads(out)
    assert cert["status"] == "certified-out"
    assert cert["source"] == "g11"
    assert cert["min_monomial"] == "x12*y21"

    # an "unknown" states what was searched
    code, out, _ = run(capsys, "certify", "--shallow", pair_file("a", P7A_A, P7A_B))
    assert json.loads(out) == {"status": "unknown", "searched": "witness families"}
    code, out, _ = run(capsys, "certify", pair_file("a", P7A_A, P7A_B))
    assert json.loads(out) == {"status": "unknown", "searched": "witness families and the degree-4 slice"}


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


_EMPTY_IMAGE = {"n": 3, "entries": [[0, -1, -3], [0, 0, 3], [0, 0, 0]]}  # x1 - x3 <= -3 and >= 0
_TC2 = pair_to_json(TC2_A, TC2_B)


def _lift_doc(**changes):
    return {"n": 2, "X": LIFT_X, "Y": LIFT_Y, "A": _TC2["A"], "B": _TC2["B"], **changes}


@pytest.mark.parametrize("command, doc, code, line", [
    ("star", _EMPTY_IMAGE, 1, "negative-weight cycle; star diverges"),
    ("svg", _EMPTY_IMAGE, 1, "negative-weight cycle; star diverges"),
    ("certify", _TC2, 3, "certificates are implemented for n = 3"),
    ("certify", {"n": 1, "A": [["0"]], "B": [["0"]]}, 3, "certificates are implemented for n = 3"),
    ("lift", pair_to_json(P7A_A, P7A_B), 3, "lifting is implemented for n = 2"),
    ("svg", matrix_to_json(S31_A), 3, "need a finite 3x3 matrix"),
    ("svg", {"n": 3, "entries": [["0", "inf", "1"], ["1", "0", "1"], ["1", "1", "0"]]}, 3, "need a finite 3x3 matrix"),
    ("lift-verify", _lift_doc(Y=[["1", "t"], ["t"]]), 2, "matrix is not square"),
    ("lift-verify", _lift_doc(A=[["0"]]), 2, "A: expected 2x2 entry grid"),
    ("lift-verify", _lift_doc(n=3, A=_trop_identity(3), B=_trop_identity(3)), 2,
     "size mismatch: X is 2x2, Y 2x2, A 3x3, B 3x3"),
], ids=["star-empty-image", "svg-empty-image", "certify-2x2", "certify-1x1", "lift-3x3", "svg-2x2",
        "svg-non-finite", "lift-verify-non-square-y", "lift-verify-a-wrong-size", "lift-verify-2x2-lift-3x3-pair"])
def test_each_refusal_has_one_exit_code(tmp_path, capsys, command, doc, code, line):
    """main maps the library's refusals: a negative cycle exits 1, any other
    refusal of the input 3, and lift-verify reads every refusal of its file
    as a parse error, 2."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    extra = ("-o", str(tmp_path / "out.svg")) if command == "svg" else ()
    assert run(capsys, command, str(path), *extra) == (code, "", f"error: {line}\n")


_ZEROS2 = [["0", "0"], ["0", "0"]]


@pytest.mark.parametrize("command, doc", [
    ("lift-verify", {"n": 2, "X": [["t^(1/0)", "0"], ["0", "1"]], "Y": LIFT_Y, "A": _ZEROS2, "B": _ZEROS2}),
    ("lift-verify", {"n": 2, "X": [["9+", "0"], ["0", "1"]], "Y": LIFT_Y, "A": _ZEROS2, "B": _ZEROS2}),
    ("lift-verify", {"n": 2, "X": [["1", "2*"], ["0", "1"]], "Y": LIFT_Y, "A": _ZEROS2, "B": _ZEROS2}),
    ("lift-verify", {"n": 2, "X": [["1", "0"], ["1 + -45", "1"]], "Y": LIFT_Y, "A": _ZEROS2, "B": _ZEROS2}),
    ("lift-verify", {"n": 2, "X": [["1", "0"], ["0", "t^(1/2"]], "Y": LIFT_Y, "A": _ZEROS2, "B": _ZEROS2}),
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
    ("lift-verify", {"n": 2, "X": [["\u0663", "0"], ["0", "1"]], "Y": LIFT_Y, "A": _ZEROS2, "B": _ZEROS2}),
    ("check", {"n": 2, "A": [["\u0663", "0"], ["0", "0"]], "B": [["0", "0"], ["0", "0"]]}),
    ("check", {"n": 2, "A": [["1e1.5", "0"], ["0", "0"]], "B": [["0", "0"], ["0", "0"]]}),
], ids=[
    "series-zero-denominator", "series-trailing-sign", "series-dangling-star",
    "series-doubled-sign", "series-unbalanced-parenthesis", "series-not-a-string", "series-not-a-grid",
    "term-not-an-object", "generators-not-a-list", "fractional-exponent",
    "variables-not-a-list", "dimension-true", "star-n-true", "check-n-true",
    "entry-true", "series-non-ascii-digit", "entry-non-ascii-digit", "entry-fractional-exponent",
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
    '"1e4300"', '"1e-4300"', '"9999e4297"', "9999e4297",
], ids=["string", "number", "negative-exponent", "long-integer", "huge-string", "huge-number",
        "digits-string", "denominator-digits", "mantissa-digits", "mantissa-digits-number"])
def test_entry_size_is_bounded(tmp_path, capsys, entry):
    """An entry whose numerator or denominator has more digits than
    Python's int-string limit (4,300), or whose decimal exponent is larger,
    is refused as malformed input."""
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
    path.write_text('{"n": 2, "A": [["1e4299", 1e-4299], [0, 0]], "B": [[0, 0], [0, 0]]}')
    code, _, _ = run(capsys, "check", str(path))
    assert code == 0
    # 4,300 digits: read, and printed back by star
    path = tmp_path / "m.json"
    path.write_text('{"n": 2, "entries": [[0, "1e4299"], [0, 0]]}')
    code, out, _ = run(capsys, "star", str(path))
    assert code == 0
    assert json.loads(out)["entries"][0][1] == "1" + "0" * 4299


def test_star_refuses_a_computed_entry_too_long_to_print(tmp_path, capsys):
    """Entries within the bound can give an output value beyond Python's
    int-string limit: the star entry 1/21 - 10^-4299 has a 4,301-digit
    denominator; certify's min_value and lift's exponent v = b12 - a12 are
    sums of two 4,300-digit entries."""
    nines = "9" * 4300
    big_b = [[nines] * 3 for _ in range(3)]
    big_b[1][1] = "0"
    big_pair = {"n": 3, "A": [[nines] * 3] * 3, "B": big_b}
    cases = [
        (("star",), {"n": 3, "entries": [["0", "1/21", "5"], ["5", "0", "-1e-4299"], ["5", "5", "0"]]}),
        (("certify",), big_pair),
        (("certify", "--shallow"), big_pair),
        (("lift",), {"n": 2, "A": [["0", nines], [nines, "0"]], "B": [["0", "-" + nines], ["-" + nines, "0"]]}),
    ]
    path = tmp_path / "in.json"
    for command, obj in cases:
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, *command, str(path))
        assert code == 3 and out == "", command
        assert err.startswith("error:") and "computed entry has more than 4,300 digits" in err, command
        assert "set_int_max_str_digits" not in err


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


@pytest.mark.parametrize("command", ["fan", "svg"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_an_output_that_cannot_be_written_exits_2(tmp_path, capsys, command, target):
    dest = tmp_path / "missing" / "out" if target == "missing-directory" else tmp_path
    if command == "fan":
        argv = ("fan", "commuting:n=2", "-o", str(dest))
    else:
        m = tmp_path / "m.json"
        m.write_text(json.dumps(matrix_to_json(P7A_A)))
        argv = ("svg", str(m), "-o", str(dest))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {dest}") and err.count("\n") == 1


def test_svg_of_a_coordinate_beyond_float_exits_3(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"n": 3, "entries": [["0", "1e400", "0"], ["0", "0", "0"], ["0", "0", "0"]]}))
    code, out, err = run(capsys, "svg", str(m), "-o", str(tmp_path / "out.svg"))
    assert code == 3 and out == ""
    assert err.startswith("error:") and "too large" in err


def test_sample_tpre_minus_ts(capsys):
    code, out, _ = run(capsys, "sample", "--region", "tpre-minus-ts", "--seed", "1", "--max-draws", "2000")
    assert code == 0
    assert "found after 1451 draws" in out
    # without --deep only the witness families are searched
    assert "TS: no, Tpre: yes, TC3: unknown (searched: witness families)\n" in out


def test_sample_certified_out(capsys):
    code, out, _ = run(capsys, "sample", "--region", "certified-out", "--seed", "2", "--max-draws", "1000")
    assert code == 0
    assert "found after 489 draws" in out
    assert "TS: yes, Tpre: yes, TC3: certified-out" in out
