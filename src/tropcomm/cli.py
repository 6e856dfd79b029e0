"""Command-line interface.

Subcommands: check, fan, sample, star, gens, certify, lift, lift-verify, svg.
Exit codes: 0 ok, 1 negative cycle (star) or lift not verified
(lift-verify), 2 parse error or an output file that cannot be written,
3 unsupported input, 4 budget exceeded, 5 sampling exhausted.  All output
is deterministic given inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import fan as fan_mod
from .commuting import (
    _labeled_symmetric_generators,
    certify_not_in_tc3,
    classify_pair,
    labeled_generators,
)
from .core import (
    MatrixFormatError,
    NegativeCycleError,
    SizeMismatchError,
    TropMatrix,
    TropScalar,
    format_rational,
    kleene_star,
    load_json,
    matrix_from_json,
    matrix_to_json,
    pair_from_json,
    pair_to_json,
)
from .drawing import render_polytrope_svg
from .polynomials import SparsePoly, matrix_variables, monomial_str, symmetric_variables
from .polytrope import NotPolytropeError, classify_polytrope_pair
from .series import (
    LiftPreconditionError,
    SeriesMatrix,
    lift_2x2,
    verify_lift,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_BUDGET = 4
EXIT_EXHAUSTED = 5


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write(path: str, text: str) -> int:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _fail(EXIT_PARSE, f"cannot write {path}: {exc.strerror or exc}")
    return EXIT_OK


def _entry(ij: tuple[int, int]) -> str:
    return f"({ij[0]},{ij[1]})"


def _fmt_scalar(s: TropScalar) -> str:
    return "inf" if not s.is_finite else format_rational(s.value)  # type: ignore[arg-type]


def _yesno(flag: bool, witness=None) -> str:
    if flag:
        return "yes"
    return f"no {witness}" if witness else "no"


def _searched(deep: bool) -> str:
    """What a 3x3 certificate search covered, for its "unknown" verdict."""
    return "witness families and the degree-4 slice" if deep else "witness families"


def _tc3(cls, deep: bool) -> str:
    """The TC3 verdict of a 3x3 classification: its certificate's
    monomial, or what the search covered."""
    if cls.certificate is not None:
        return f"TC3: certified-out ({cls.certificate.monomial_name()})"
    return f"TC3: unknown (searched: {_searched(deep)})"


# the polytrope conditions' labels, keyed and ordered as the witnesses of
# classify_polytrope_pair
_CONDITIONS = {"commutes": "commutes", "star": "star-condition", "square": "square-condition",
               "product": "product-condition"}


def cmd_check(args: argparse.Namespace) -> int:
    obj = load_json(args.pair)
    a, b = pair_from_json(obj)
    n = a.n
    if n not in (2, 3, 4):
        return _fail(EXIT_UNSUPPORTED, f"n={n} is not supported (use 2, 3 or 4)")
    lines = [f"n: {n}"]
    if n in (2, 3):
        cls = classify_pair(a, b)
        ts = _yesno(cls.ts, _entry(cls.ts_witness) if cls.ts_witness else None)
        tpre = _yesno(
            cls.tpre.ok,
            ",".join(_entry(e) for e in cls.tpre.failures) if cls.tpre.failures else None,
        )
        tc = f"TC2: {cls.tc_status}" if n == 2 else _tc3(cls, True)
        lines.append(f"TS: {ts}, Tpre: {tpre}, {tc}")
    try:
        failed = classify_polytrope_pair(a, b).witnesses  # the failed conditions
    except NotPolytropeError:
        lines.append("polytropes: no")
    else:
        lines.append("polytropes: yes")
        lines.append(", ".join(f"{label}: no {_entry(failed[key][0])}" if key in failed else f"{label}: yes"
                               for key, label in _CONDITIONS.items()))
        lines.extend(f"witness-values: {_CONDITIONS[key]} {_entry(at)} {_fmt_scalar(lhs)} vs {_fmt_scalar(rhs)}"
                     for key, (at, lhs, rhs) in failed.items())
    print("\n".join(lines))
    return EXIT_OK


def _generators_from_file(path: str) -> tuple[list[SparsePoly], int]:
    obj = load_json(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("generators"), list):
        raise MatrixFormatError('expected {"dimension": D, "generators": [...]}')
    dim = obj.get("dimension")
    if type(dim) is not int or dim < 1:  # JSON true loads as bool, an int
        raise MatrixFormatError("dimension must be a positive integer")
    gens = []
    for gi, terms in enumerate(obj["generators"]):
        if not isinstance(terms, list):
            raise MatrixFormatError(f"generator {gi}: expected a list of terms")
        parsed = []
        for t in terms:
            e, c = (t.get("exponents"), t.get("coefficient", 1)) if isinstance(t, dict) else (None, None)
            if not isinstance(e, list) or len(e) != dim or type(c) is not int or \
                    not all(type(x) is int and x >= 0 for x in e):
                raise MatrixFormatError(f"generator {gi}: bad term {t!r}")
            parsed.append((tuple(e), c))
        gens.append(SparsePoly.from_terms(parsed))
    if "variables" in obj:
        names = obj["variables"]
        if not isinstance(names, list) or len(names) != dim or not all(isinstance(x, str) for x in names):
            raise MatrixFormatError("variables must be a list of dimension names")
    return gens, dim


def cmd_fan(args: argparse.Namespace) -> int:
    if args.config.endswith(".json"):
        # a file's variable names are only checked: --orbits needs a named
        # configuration, whose names carry the group
        gens, dim = _generators_from_file(args.config)
        label, names = args.config, ()
    else:
        cfg = fan_mod.named_config(args.config)
        gens, dim, names = list(cfg.gens), cfg.dim, cfg.names
        label = cfg.name
    if args.budget < 1:
        return _fail(EXIT_PARSE, f"--budget must be >= 1, not {args.budget}")
    if args.jobs < 1:
        return _fail(EXIT_PARSE, f"--jobs must be >= 1, not {args.jobs}")
    if args.orbits and not names:
        return _fail(EXIT_UNSUPPORTED, "--orbits needs a named configuration, not a generator file")
    lin = fan_mod.lineality_dim(gens, dim)
    try:
        cells = fan_mod.enumerate_cells(gens, dim, budget=args.budget, jobs=args.jobs)
    except fan_mod.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if label == "commuting:n=3":
            print(
                "reference: full 3x3 prevariety f-vector "
                f"{list(fan_mod.KNOWN_FVECTOR_PREVARIETY_3_FULL)} and variety f-vector "
                f"{list(fan_mod.KNOWN_FVECTOR_VARIETY_3)} (external Groebner-fan computations)",
                file=sys.stderr,
            )
        print("rerun with --budget to override", file=sys.stderr)
        return EXIT_BUDGET
    fv = fan_mod.f_vector(cells, lin)
    report: dict = {
        "configuration": label,
        "ambient_dimension": dim,
        "generator_count": len(gens),
        "lineality_dim": lin,
        "f_vector": list(fv.counts),
        "cell_count": len(cells),
        "max_dim": max((c.dim for c in cells), default=None),  # null: empty prevariety
    }
    if args.emit_cells:
        # witness values are shared objects (see fan_mod.Cell): one string each
        shared = {id(x): x for c in cells for x in c.witness}
        strings = {i: str(x) for i, x in shared.items()}
        report["cells"] = [
            {
                "pattern": [list(s) for s in c.pattern],
                "dim": c.dim,
                "witness": [strings[id(x)] for x in c.witness],
            }
            for c in cells
        ]
    if args.orbits:
        orbits = fan_mod.maximal_cell_orbits(cells, gens, names)
        roman = {1: "I", 2: "II", 3: "III", 4: "IV", 5: "V"}
        report["orbits"] = [
            {
                "label": roman.get(i + 1, str(i + 1)),
                "size": o.size,
                "cells": [[list(s) for s in p] for p in o.cells],
                "tie_pairs": [[list(pair) for pair in cell] for cell in o.tie_pairs],
            }
            for i, o in enumerate(orbits)
        ]
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        return _write(args.output, text + "\n")
    print(text)
    return EXIT_OK


def _random_matrix(rng: random.Random, n: int, hi: int) -> TropMatrix:
    return TropMatrix.of(
        [[rng.randint(0, hi) for _ in range(n)] for _ in range(n)]
    )


REGIONS = {
    "ts-minus-tpre": lambda cls: cls.ts and not cls.tpre.ok,
    "tpre-minus-ts": lambda cls: cls.tpre.ok and not cls.ts,
    "certified-out": lambda cls: cls.ts and cls.tpre.ok and cls.tc_status == "certified-out",
}


def cmd_sample(args: argparse.Namespace) -> int:
    if args.max_draws < 1:
        return _fail(EXIT_PARSE, f"--max-draws must be >= 1, not {args.max_draws}")
    if args.range < 0:
        return _fail(EXIT_PARSE, f"--range must be >= 0, not {args.range}")
    if args.n != 3:
        return _fail(EXIT_UNSUPPORTED, "sampling is implemented for n=3")
    rng = random.Random(args.seed)
    in_region = REGIONS[args.region]
    for draw in range(1, args.max_draws + 1):
        a = _random_matrix(rng, 3, args.range)
        b = _random_matrix(rng, 3, args.range)
        cls = classify_pair(a, b, deep=args.deep)
        if in_region(cls):
            print(f"found after {draw} draws (seed {args.seed})")
            print(json.dumps(pair_to_json(a, b), sort_keys=True))
            print(f"TS: {'yes' if cls.ts else 'no'}, Tpre: {'yes' if cls.tpre.ok else 'no'}, {_tc3(cls, args.deep)}")
            return EXIT_OK
    print(f"error: no {args.region} pair in {args.max_draws} draws (seed {args.seed})", file=sys.stderr)
    return EXIT_EXHAUSTED


def cmd_star(args: argparse.Namespace) -> int:
    a = matrix_from_json(load_json(args.matrix))
    try:
        s = kleene_star(a)
    except NegativeCycleError as exc:
        return _fail(1, str(exc))
    print(json.dumps(matrix_to_json(s), sort_keys=True))
    return EXIT_OK


def cmd_gens(args: argparse.Namespace) -> int:
    if args.symmetric:
        if args.n not in (None, 3):
            return _fail(EXIT_UNSUPPORTED, f"--symmetric gives the 3x3 generators, not n={args.n}")
        names, pairs = symmetric_variables(), _labeled_symmetric_generators()
    else:
        n = 2 if args.n is None else args.n
        names, pairs = matrix_variables(n), labeled_generators(n)
    for (k, l), g in pairs:
        print(f"g{k}{l} = {g.render(names)}")
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    a, b = pair_from_json(load_json(args.pair))
    if a.n != 3:
        return _fail(EXIT_UNSUPPORTED, "certificates are implemented for n=3")
    cert = certify_not_in_tc3(a, b, deep=not args.shallow)
    if cert is None:
        print(json.dumps({"status": "unknown", "searched": _searched(not args.shallow)}))
        return EXIT_OK
    names = matrix_variables(3)
    out = {
        "status": "certified-out",
        "source": cert.source,
        "polynomial": [
            {"monomial": monomial_str(m, names), "coefficient": c}
            for m, c in cert.polynomial.terms
        ],
        "min_monomial": cert.monomial_name(),
        "min_value": str(cert.min_value),
        "runner_up_value": str(cert.runner_up_value),
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_lift(args: argparse.Namespace) -> int:
    a, b = pair_from_json(load_json(args.pair))
    if a.n != 2:
        return _fail(EXIT_UNSUPPORTED, "lifting is implemented for n=2")
    try:
        found = lift_2x2(a, b)
    except LiftPreconditionError as exc:
        return _fail(EXIT_UNSUPPORTED, str(exc))
    if found is None:
        print(json.dumps({"status": "not-found"}))
        return EXIT_OK
    x, y = found
    out = {
        "status": "found",
        "n": 2,
        "X": x.to_grid(),
        "Y": y.to_grid(),
        "A": matrix_to_json(a)["entries"],
        "B": matrix_to_json(b)["entries"],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_lift_verify(args: argparse.Namespace) -> int:
    obj = load_json(args.lift)
    if not isinstance(obj, dict) or not {"n", "X", "Y", "A", "B"} <= set(obj):
        return _fail(EXIT_PARSE, 'expected {"n", "X", "Y", "A", "B"}')
    if any(not isinstance(obj[k], list) or not all(isinstance(r, list) for r in obj[k]) for k in "XY"):
        return _fail(EXIT_PARSE, "X and Y must be grids of series strings")
    try:
        x = SeriesMatrix.parse(obj["X"])
        y = SeriesMatrix.parse(obj["Y"])
        a, b = pair_from_json({"n": obj["n"], "A": obj["A"], "B": obj["B"]})
    except (ValueError, MatrixFormatError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    try:
        check = verify_lift(x, y, a, b)
    except SizeMismatchError as exc:
        return _fail(EXIT_PARSE, str(exc))
    if check.ok:
        print("VERIFIED")
        return EXIT_OK
    print("NOT VERIFIED")
    for kind, at in check.failures:
        print(f"  {kind} fails at {_entry(at)}")
    return 1


def cmd_svg(args: argparse.Namespace) -> int:
    mats = [matrix_from_json(load_json(p)) for p in args.matrices]
    try:
        doc = render_polytrope_svg(mats)
    except ValueError as exc:
        return _fail(EXIT_UNSUPPORTED, str(exc))
    if _write(args.output, doc.text):
        return EXIT_PARSE
    print(
        f"wrote {args.output}: {doc.point_count} points, "
        f"regions {list(doc.region_vertex_counts)}"
        + (f", intersection vertices {len(doc.intersection_vertices)}" if doc.intersection_vertices else "")
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tropcomm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="classify a matrix pair")
    c.add_argument("pair", help="pair JSON file")
    c.set_defaults(func=cmd_check)

    f = sub.add_parser("fan", help="tropical prevariety complex of a generator set")
    f.add_argument("config", help='"commuting:n=K", "symmetric:n=3", or a generators .json file')
    f.add_argument("--budget", type=int, default=fan_mod.DEFAULT_BUDGET, help="candidate-pattern budget")
    f.add_argument("--jobs", type=int, default=1, help="worker processes")
    f.add_argument("--emit-cells", action="store_true")
    f.add_argument("--orbits", action="store_true", help="orbit table of maximal cells")
    f.add_argument("-o", "--output", default=None)
    f.set_defaults(func=cmd_fan)

    s = sub.add_parser("sample", help="random search for a region representative")
    s.add_argument("--region", required=True, choices=REGIONS)
    s.add_argument("--n", type=int, default=3)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-draws", type=int, default=100000)
    s.add_argument("--range", type=int, default=4, help="entries drawn uniformly from 0..range")
    s.add_argument("--deep", action="store_true", help="run the slice certificate search too")
    s.set_defaults(func=cmd_sample)

    st = sub.add_parser("star", help="Kleene star of a matrix")
    st.add_argument("matrix")
    st.set_defaults(func=cmd_star)

    g = sub.add_parser("gens", help="commuting-ideal generators")
    g.add_argument("--n", type=int, default=None, help="matrix size (default 2; --symmetric needs 3)")
    g.add_argument("--symmetric", action="store_true")
    g.set_defaults(func=cmd_gens)

    ce = sub.add_parser("certify", help="non-membership certificate for the 3x3 variety")
    ce.add_argument("pair")
    ce.add_argument("--shallow", action="store_true", help="witness families only")
    ce.set_defaults(func=cmd_certify)

    l = sub.add_parser("lift", help="commuting series lift of a 2x2 pair")
    l.add_argument("pair")
    l.set_defaults(func=cmd_lift)

    lv = sub.add_parser("lift-verify", help="verify a series lift file")
    lv.add_argument("lift")
    lv.set_defaults(func=cmd_lift_verify)

    sv = sub.add_parser("svg", help="render 3x3 polytropes to SVG")
    sv.add_argument("matrices", nargs="+")
    sv.add_argument("-o", "--output", required=True)
    sv.set_defaults(func=cmd_svg)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MatrixFormatError as exc:
        return _fail(EXIT_PARSE, str(exc))
    except ValueError as exc:
        return _fail(EXIT_UNSUPPORTED, str(exc))


if __name__ == "__main__":
    sys.exit(main())
