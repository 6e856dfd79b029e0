"""Seeded fuzz of the command-line input paths (standard library only).

Valid ``check``, ``lift``, ``lift-verify``, ``certify``, ``fan``, ``star``
and ``svg`` inputs are mutated: wrong sizes, non-square grids, bad entry and
series strings, entries too large for a float, wrong JSON types, missing
keys and truncated JSON text.  ``sample`` takes no input file, so its
options are mutated instead.  Every mutant must end in an exit code the
README documents for its command ("Exit codes"), with an ``error:`` line on
failure and never a traceback.
"""

import copy
import json
import os
import random
from itertools import chain

import pytest

from tropcomm.cli import REGIONS, main

from helpers import LIFT_X, LIFT_Y, P7A_A, P7B_C, P7B_D, TC2_A, TC2_B
from tropcomm.core import matrix_to_json, pair_to_json

# README "Exit codes": 0 ok, 1 negative cycle (star, svg) or lift not
# verified (lift-verify), 2 parse error, 3 unsupported input, 4 budget
# exceeded, 5 sampling exhausted
DOCUMENTED = {
    "check": {0, 2, 3},
    "lift": {0, 2, 3},
    "lift-verify": {0, 1, 2, 3},
    "certify": {0, 2, 3},
    "fan": {0, 2, 3, 4},
    "star": {0, 1, 2, 3},
    "svg": {0, 1, 2, 3},
    "sample": {0, 2, 3, 5},
}

BAD_VALUES = [None, True, 3, -1, 2.5, "x", "", [], {}, [[1]], [["0"]], {"n": 2}]
BAD_ENTRIES = ["abc", "1/0", "", "nan", "1//2", "--1", "0x10", "1 2", True, None, [], {}, [1]]
BAD_SERIES = ["t^", "1++t", "t^(1/0)", "2**t", "x", "t^-", "(", "t^(1/2", "1/0", "3 4", "t t", 5, None, []]
GOOD_ENTRIES = ["0", "inf", "-3/7", "2.5", 4, "1e2", "1e400"]
GOOD_SERIES = ["0", "1", "t", "-2*t^(1/2)", "t^-1 + 3", "1/3*t^4"]

GENERATORS = {
    "dimension": 3,
    "variables": ["x", "y", "z"],
    "generators": [
        [
            {"exponents": [1, 0, 0], "coefficient": 1},
            {"exponents": [0, 1, 0], "coefficient": -1},
            {"exponents": [0, 0, 1], "coefficient": 2},
        ],
        [
            {"exponents": [1, 1, 0], "coefficient": 1},
            {"exponents": [0, 0, 2], "coefficient": 1},
        ],
    ],
}


def _seeds():
    tc2 = pair_to_json(TC2_A, TC2_B)
    p7b = pair_to_json(P7B_C, P7B_D)
    lift = {"n": 2, "X": LIFT_X, "Y": LIFT_Y, "A": tc2["A"], "B": tc2["B"]}
    return [
        ("check", [], tc2),
        ("check", [], p7b),
        ("lift", [], tc2),
        ("lift-verify", [], lift),
        ("certify", ["--shallow"], p7b),
        ("fan", [], GENERATORS),
        ("star", [], matrix_to_json(P7B_C)),
        ("svg", ["-o", os.devnull], matrix_to_json(P7A_A)),
    ]


def _grids(obj):
    """(container, key) of every grid in a mutable JSON object."""
    if not isinstance(obj, dict):
        return []
    return [(obj, k) for k in ("A", "B", "X", "Y", "entries") if isinstance(obj.get(k), list)]


def _mutate(rng: random.Random, obj):
    """One random mutation of a copy of obj; returns (label, JSON value or text)."""
    obj = copy.deepcopy(obj)
    grids = _grids(obj)
    kind = rng.choice(["drop-key", "retype", "n", "top", "truncate", "resize", "resize"] + ["grid"] * 6 if grids else
                      ["drop-key", "retype", "top", "truncate", "gen", "gen", "gen", "gen"])
    if kind == "drop-key":
        key = rng.choice(sorted(obj))
        del obj[key]
        return f"drop {key}", obj
    if kind == "retype":
        key = rng.choice(sorted(obj))
        obj[key] = rng.choice(BAD_VALUES)
        return f"retype {key}={obj[key]!r}", obj
    if kind == "n":
        obj["n"] = rng.choice([0, -1, 1, 3, 4, 5, "2", True, 2.5, None])
        return f"n={obj['n']!r}", obj
    if kind == "top":
        value = rng.choice([[], "pair", 7, None, [obj]])
        return f"top {value!r:.20}", value
    if kind == "truncate":
        text = json.dumps(obj)
        return "truncated", text[: rng.randrange(len(text))]
    if kind == "gen":
        return _mutate_generators(rng, obj)
    if kind == "resize":
        return _resize(rng, obj)
    owner, key = rng.choice(grids)
    grid = owner[key]
    series = key in "XY"
    i = rng.randrange(len(grid))
    op = rng.choice(["drop-row", "add-row", "drop-col", "add-col", "row-type", "bad", "bad", "good"])
    if op == "drop-row":
        del grid[i]
    elif op == "add-row":
        grid.append(list(grid[i]))
    elif op == "drop-col":
        grid[i] = grid[i][:-1]
    elif op == "add-col":
        grid[i] = grid[i] + [grid[i][0]]
    elif op == "row-type":
        grid[i] = rng.choice(["0 1", 3, None, {"0": 1}])
    else:
        pool = (BAD_SERIES if series else BAD_ENTRIES) if op == "bad" else \
            (GOOD_SERIES if series else GOOD_ENTRIES)
        grid[i][rng.randrange(len(grid[i]))] = rng.choice(pool)
    return f"{key} {op}", obj


def _resize(rng: random.Random, obj):
    """Square grids of a new size k: X and Y together, A and B together
    or a matrix's entries (with n = k, or n unchanged), or one grid alone."""
    groups = [g for g in (("X", "Y"), ("A", "B"), ("X",), ("A",), ("entries",)) if all(k in obj for k in g)]
    group = rng.choice(groups)
    k = rng.choice([s for s in (1, 2, 3) if s != len(obj[group[0]])])
    for key in group:
        flat = [e for row in obj[key] for e in row] or ["0"]
        obj[key] = [[flat[(i * k + j) % len(flat)] for j in range(k)] for i in range(k)]
    if group in (("A", "B"), ("entries",)) and rng.random() < 0.5:
        obj["n"] = k
    return f"resize {'+'.join(group)} to {k}", obj


def _sizes(obj):
    return {key: len(obj[key]) for key in ("X", "Y", "A", "B")}


def _mutate_generators(rng: random.Random, obj):
    gens = obj["generators"]
    g = rng.randrange(len(gens))
    op = rng.choice(["dimension", "variables", "terms", "exponents", "coefficient", "empty"])
    if op == "dimension":
        obj["dimension"] = rng.choice([0, -1, 2, 4, "3", True, 3.0])
    elif op == "variables":
        obj["variables"] = rng.choice([["x", "y"], ["x", "y", 3], "xyz", None])
    elif op == "terms":
        gens[g] = rng.choice(["x+y", 3, None, [1, 2], [[1, 0, 0]]])
    elif op == "empty":
        gens[g] = gens[g][:rng.randrange(2)]
    else:
        term = rng.choice(gens[g])
        if op == "exponents":
            term["exponents"] = rng.choice([[1, 0], [1, 0, 0, 0], [-1, 0, 1], [0.5, 0, 1], "100", None])
        else:
            term["coefficient"] = rng.choice([0, 1.5, "1", None, True, [1]])
    return f"generator {op}", obj


def _run(capsys, command, flags, path):
    try:
        code = main([command, *flags, str(path)])
    except SystemExit as exc:  # argparse
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("command,flags,valid", _seeds(), ids=lambda v: v if isinstance(v, str) else "")
def test_mutated_inputs_exit_with_documented_codes(tmp_path, capsys, command, flags, valid):
    rng = random.Random(f"{command}{flags}{sorted(valid)}")
    path = tmp_path / "valid.json"
    path.write_text(json.dumps(valid))
    code, _, err = _run(capsys, command, flags, path)
    assert code == 0 and err == ""
    bad = []
    for trial in range(200):
        label, mutant = _mutate(rng, valid)
        path = tmp_path / f"mutant{trial}.json"
        path.write_text(mutant if isinstance(mutant, str) else json.dumps(mutant))
        try:
            code, _, err = _run(capsys, command, flags, path)
        except Exception as exc:  # a traceback at the command line
            bad.append(f"{trial} {label}: {type(exc).__name__}: {exc}")
            continue
        if code not in DOCUMENTED[command] or "Traceback" in err:
            bad.append(f"{trial} {label}: exit {code}, stderr {err!r}")
        elif code == 0 and command == "lift-verify" and len(set(_sizes(mutant).values())) > 1:
            bad.append(f"{trial} {label}: verified a lift of sizes {_sizes(mutant)}")
        elif code not in (0, 1) and not err.startswith("error:"):
            bad.append(f"{trial} {label}: exit {code} without an error line: {err!r}")
    assert not bad, "\n".join(bad)


# option values for sample; draws stay few, so every run is cheap
SAMPLE_OPTIONS = {
    "--max-draws": ["-5", "0", "1", "2", "x", "1.5", ""],
    "--range": ["-1", "0", "1", "4", "-0", "x"],
    "--seed": ["0", "-3", "x"],
    "--region": ["ts-minus-tpre", "tpre-minus-ts", "certified-out", "bogus"],
}


def _refused(options: dict[str, str]) -> bool:
    """Options sample must refuse as a parse error (exit 2): a value that is
    not an integer, a region outside its table, fewer than one draw or a
    negative range."""
    try:
        values = {key: int(value) for key, value in options.items() if key != "--region"}
    except ValueError:
        return True
    return options["--region"] not in REGIONS or values["--max-draws"] < 1 or values.get("--range", 0) < 0


def test_mutated_sample_options_exit_with_documented_codes(capsys):
    rng = random.Random("sample")
    bad = []
    for trial in range(80):
        options = {"--region": "ts-minus-tpre", "--max-draws": "1"}
        for key in rng.sample(sorted(SAMPLE_OPTIONS), rng.randint(1, 3)):
            options[key] = rng.choice(SAMPLE_OPTIONS[key])
        argv = ["sample", *chain.from_iterable(options.items())]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: "usage: ..." then "PROG sample: error: ..."
            code = exc.code
        except Exception as exc:  # a traceback at the command line
            bad.append(f"{trial} {argv}: {type(exc).__name__}: {exc}")
            continue
        err = capsys.readouterr().err
        error_line = any(line.startswith("error:") or " sample: error: " in line for line in err.splitlines())
        if code not in DOCUMENTED["sample"] or "Traceback" in err:
            bad.append(f"{trial} {argv}: exit {code}, stderr {err!r}")
        elif (code == 2) != _refused(options):
            bad.append(f"{trial} {argv}: exit {code}, stderr {err!r}")
        elif code != 0 and not error_line:
            bad.append(f"{trial} {argv}: exit {code} without an error line: {err!r}")
    assert not bad, "\n".join(bad)
