"""Command-line interface.

Subcommands: check, fan, sample, star, gens, certify, lift, lift-verify, svg.
Exit codes: 0 ok, 1 negative cycle (star, svg) or lift not verified
(lift-verify), 2 parse error, an output file or stdout that cannot be
written, or worker processes that cannot start, 3 unsupported input,
4 budget exceeded, 5 sampling exhausted, 141 stdout's reader gone
(silently, as after SIGPIPE).  A refusal whose error line cannot be
written keeps its code.  All output is deterministic given inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import os
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
    TropMatrix,
    TropScalar,
    _printable,
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
from .series import SeriesMatrix, lift_2x2, verify_lift

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_BUDGET = 4
EXIT_EXHAUSTED = 5


class _Refusal(Exception):
    """A command's refusal, raised as _Refusal(code, message): main prints
    "error: <message>" and exits with code."""


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Refusal(EXIT_PARSE, f"cannot write {path}: {exc.strerror or exc}")


def _entry(ij: tuple[int, int]) -> str:
    return f"({ij[0]},{ij[1]})"


def _fmt_scalar(s: TropScalar) -> str:
    return "inf" if not s.is_finite else format_rational(s.value)  # type: ignore[arg-type]


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


def cmd_check(args: argparse.Namespace) -> tuple[int, str]:
    a, b = pair_from_json(load_json(args.pair))
    n = a.n
    if n not in (2, 3, 4):
        raise _Refusal(EXIT_UNSUPPORTED, f"n={n} is not supported (use 2, 3 or 4)")
    lines = [f"n: {n}"]
    if n in (2, 3):
        cls = classify_pair(a, b)
        # a "no" has witnesses: the first entry where AB and BA differ, the failing generators
        ts = "yes" if cls.ts else f"no {_entry(cls.ts_witness)}"
        tpre = "yes" if cls.tpre.ok else "no " + ",".join(map(_entry, cls.tpre.failures))
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
    return EXIT_OK, "\n".join(lines)


def _generators_from_file(path: str) -> fan_mod.FanConfig:
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
    # the names are only checked: they carry no group for --orbits
    return fan_mod.FanConfig(name=path, gens=tuple(gens), dim=dim, names=())


def cmd_fan(args: argparse.Namespace) -> tuple[int, str]:
    load = _generators_from_file if args.config.endswith(".json") else fan_mod.named_config
    cfg = load(args.config)
    if args.budget < 1:
        raise _Refusal(EXIT_PARSE, f"--budget must be >= 1, not {args.budget}")
    if args.jobs < 1:
        raise _Refusal(EXIT_PARSE, f"--jobs must be >= 1, not {args.jobs}")
    if args.orbits and not cfg.names:
        raise _Refusal(EXIT_UNSUPPORTED, "--orbits needs a named configuration, not a generator file")
    lin = fan_mod.lineality_dim(cfg.gens, cfg.dim)
    try:
        cells = fan_mod.enumerate_cells(cfg.gens, cfg.dim, budget=args.budget, jobs=args.jobs)
    except fan_mod.BudgetExceededError as exc:
        reference = ("\nreference: full 3x3 prevariety f-vector "
                     f"{list(fan_mod.KNOWN_FVECTOR_PREVARIETY_3_FULL)} and variety f-vector "
                     f"{list(fan_mod.KNOWN_FVECTOR_VARIETY_3)} (external Groebner-fan computations)")
        raise _Refusal(EXIT_BUDGET, f"{exc}{reference if cfg.name == 'commuting:n=3' else ''}\n"
                                    "rerun with --budget to override")
    except OSError as exc:  # a process pool that cannot start: fork or pipe refused
        raise _Refusal(EXIT_PARSE, f"cannot start worker processes: {exc.strerror or exc}")
    fv = fan_mod.f_vector(cells, lin)
    report: dict = {
        "configuration": cfg.name,
        "ambient_dimension": cfg.dim,
        "generator_count": len(cfg.gens),
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
        orbits = fan_mod.maximal_cell_orbits(cells, cfg.gens, cfg.names)
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
        _write(args.output, text + "\n")
        return EXIT_OK, ""
    return EXIT_OK, text


REGIONS = {
    "ts-minus-tpre": lambda cls: cls.ts and not cls.tpre.ok,
    "tpre-minus-ts": lambda cls: cls.tpre.ok and not cls.ts,
    "certified-out": lambda cls: cls.ts and cls.tpre.ok and cls.tc_status == "certified-out",
}


def cmd_sample(args: argparse.Namespace) -> tuple[int, str]:
    if args.max_draws < 1:
        raise _Refusal(EXIT_PARSE, f"--max-draws must be >= 1, not {args.max_draws}")
    if args.range < 0:
        raise _Refusal(EXIT_PARSE, f"--range must be >= 0, not {args.range}")
    rng = random.Random(args.seed)
    in_region = REGIONS[args.region]
    for draw in range(1, args.max_draws + 1):
        a, b = (TropMatrix.of([[rng.randint(0, args.range) for _ in range(3)] for _ in range(3)]) for _ in "ab")
        cls = classify_pair(a, b, deep=args.deep)
        if in_region(cls):
            return EXIT_OK, (f"found after {draw} draws (seed {args.seed})\n"
                             f"{json.dumps(pair_to_json(a, b), sort_keys=True)}\n"
                             f"TS: {'yes' if cls.ts else 'no'}, Tpre: {'yes' if cls.tpre.ok else 'no'}, "
                             f"{_tc3(cls, args.deep)}")
    raise _Refusal(EXIT_EXHAUSTED, f"no {args.region} pair in {args.max_draws} draws (seed {args.seed})")


def cmd_star(args: argparse.Namespace) -> tuple[int, str]:
    s = kleene_star(matrix_from_json(load_json(args.matrix)))
    return EXIT_OK, json.dumps(matrix_to_json(s), sort_keys=True)


def cmd_gens(args: argparse.Namespace) -> tuple[int, str]:
    if args.symmetric:
        if args.n not in (None, 3):
            raise _Refusal(EXIT_UNSUPPORTED, f"--symmetric gives the 3x3 generators, not n={args.n}")
        names, pairs = symmetric_variables(), _labeled_symmetric_generators()
    else:
        n = 2 if args.n is None else args.n
        names, pairs = matrix_variables(n), labeled_generators(n)
    return EXIT_OK, "\n".join(f"g{k}{l} = {g.render(names)}" for (k, l), g in pairs)


def cmd_certify(args: argparse.Namespace) -> tuple[int, str]:
    a, b = pair_from_json(load_json(args.pair))
    cert = certify_not_in_tc3(a, b, deep=not args.shallow)
    if cert is None:
        return EXIT_OK, json.dumps({"status": "unknown", "searched": _searched(not args.shallow)})
    names = matrix_variables(3)
    out = {
        "status": "certified-out",
        "source": cert.source,
        "polynomial": [
            {"monomial": monomial_str(m, names), "coefficient": c}
            for m, c in cert.polynomial.terms
        ],
        "min_monomial": cert.monomial_name(),
        "min_value": str(_printable(cert.min_value, "a computed entry")),
        "runner_up_value": str(_printable(cert.runner_up_value, "a computed entry")),
    }
    return EXIT_OK, json.dumps(out, indent=2, sort_keys=True)


def cmd_lift(args: argparse.Namespace) -> tuple[int, str]:
    a, b = pair_from_json(load_json(args.pair))
    x, y = lift_2x2(a, b)
    out = {"status": "found", "X": x.to_grid(), "Y": y.to_grid(), **pair_to_json(a, b)}
    return EXIT_OK, json.dumps(out, indent=2, sort_keys=True)


def cmd_lift_verify(args: argparse.Namespace) -> tuple[int, str]:
    obj = load_json(args.lift)
    if not isinstance(obj, dict) or not {"n", "X", "Y", "A", "B"} <= set(obj):
        raise _Refusal(EXIT_PARSE, 'expected {"n", "X", "Y", "A", "B"}')
    if any(not isinstance(obj[k], list) or not all(isinstance(r, list) for r in obj[k]) for k in "XY"):
        raise _Refusal(EXIT_PARSE, "X and Y must be grids of series strings")
    try:
        x, y = (SeriesMatrix.parse(obj[k]) for k in "XY")
        a, b = pair_from_json(obj)
        check = verify_lift(x, y, a, b)
    except ValueError as exc:  # parse errors and mixed sizes alike
        raise _Refusal(EXIT_PARSE, str(exc))
    if check.ok:
        return EXIT_OK, "VERIFIED"
    return 1, "\n".join(["NOT VERIFIED", *(f"  {kind} fails at {_entry(at)}" for kind, at in check.failures)])


def cmd_svg(args: argparse.Namespace) -> tuple[int, str]:
    doc = render_polytrope_svg([matrix_from_json(load_json(p)) for p in args.matrices])
    _write(args.output, doc.text)
    return EXIT_OK, (
        f"wrote {args.output}: {doc.point_count} points, "
        f"regions {list(doc.region_vertex_counts)}"
        + (f", intersection vertices {len(doc.intersection_vertices)}" if doc.intersection_vertices else "")
    )


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


def _error(code: int, message: str) -> int:
    """main's one error line; one that cannot be written keeps the code.  With
    descriptor 2 closed at start sys.stderr is None: print would use stdout."""
    if sys.stderr is not None:
        try:
            print(f"error: {message}", file=sys.stderr, flush=True)
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())  # the flush at exit cannot fail again
    return code


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: the one place that writes its output to stdout and
    the one place that prints an error line.  A refusal becomes an exit code
    here: a command's own refusal -> its code, MatrixFormatError -> 2,
    NegativeCycleError -> 1, other ValueError -> 3, a failed write to stdout
    -> 2, or 141, silently, when its reader is gone."""
    args = build_parser().parse_args(argv)
    try:
        code, text = args.func(args)
    except _Refusal as exc:
        return _error(*exc.args)
    except MatrixFormatError as exc:
        return _error(EXIT_PARSE, str(exc))
    except NegativeCycleError as exc:
        return _error(1, str(exc))
    except ValueError as exc:
        return _error(EXIT_UNSUPPORTED, str(exc))
    try:
        # flushed here, not at exit; print does nothing when descriptor 1 was closed and sys.stdout is None
        print(text, end="\n" if text else "", flush=True)
    except OSError as exc:  # only this print writes stdout
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the flush at exit cannot fail again
        if isinstance(exc, BrokenPipeError):
            return 141  # what a shell reports after SIGPIPE
        return _error(EXIT_PARSE, f"cannot write standard output: {exc.strerror or exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
