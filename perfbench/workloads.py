"""The three benchmark workloads: seeded inputs, the timed calls, the checks.

Every op is one call sequence into tropcomm's public API, the same calls the
CLI makes.  Its check runs outside the timed region and uses only the
benchmark's own arithmetic (``oracle``).  A check returns OK, REFUSED (the
program declined an input that has an answer: the op failed, but no output
is wrong) or WRONG (an output the benchmark's arithmetic contradicts).

Why each workload exists, and which layer metrics should move it, is in
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Any, Callable

import tropcomm
from tropcomm import commuting, fan, polytrope, series
from tropcomm.polynomials import SparsePoly

import oracle

OK, REFUSED, WRONG = "ok", "refused", "wrong"

# Sizes of the fixed input set of one pass (the fan pass is one enumeration).
CERTIFY_IMAGES_PER_HALF = 2  # per pair and half: 6 orbit and 6 shifted inputs
CLASSIFY3_OPS = 1000
LIFT2_OPS = 91 * len(oracle.TIE_SETS_2X2)  # every tie set equally often
POLYTROPE_OPS = 1000

# f-vector and lineality of the prevariety of two symmetric 3x3 generators.
FAN_FVECTOR = (1, 20, 118, 360, 669, 794, 584, 223)
FAN_LINEALITY = 3

# Golden pairs (a) and (c) of the 3x3 separating examples: (a) lies in TS
# and Tpre, (c) in Tpre only.  Both reach the deep slice search, which ties
# its whole degree-4 slice on them: "unknown" is their expected answer.
GOLDEN_A = ([[0, 2, 0], [2, 0, 8], [0, 4, 0]], [[12, 0, 1], [0, 2, 0], [1, 0, 6]])
GOLDEN_C = ([[0, 1, 0], [3, 0, 1], [0, 3, 0]], [[1, 0, 3], [0, 1, 0], [1, 0, 3]])
# A pair in TS and Tpre that only the deep search certifies out of TC3
# (slice monomial x21*x32*y13*y33).  Being out of TC3 is invariant under
# S3 x S2, positive scaling and homogeneity shifts, so every image of it
# must be certified.
DEEP_ONLY = ([[2, 2, 3], [1, 2, 0], [4, 3, 2]], [[0, 3, 0], [2, 0, 4], [3, 4, 0]])
# The shifted images of DEEP_ONLY come from this fixed stream, not from the
# seed.  Today the truncated slice search misses most of them, and which
# ones depends on the image, so seeded images would make ok_frac depend on
# the seed.
DEEP_ONLY_SHIFT_SEED = 1501


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: list[Callable[[], Any]]
    # name -> (op kind, quantile, unit scale, unit) of per-kind latencies
    latencies: dict[str, tuple[str, float, float, str]] = field(default_factory=dict)


def prepare(name: str, seed: int) -> Workload:
    """Inputs for one workload and seed, warmed up."""
    wl = WORKLOADS[name](random.Random(seed))
    for call in wl.warmup:
        call()
    return wl


def _matrix(grid) -> tropcomm.TropMatrix:
    return tropcomm.TropMatrix.of(grid)


def _weight(a: oracle.Grid, b: oracle.Grid) -> list[Fraction]:
    return [x for row in a for x in row] + [x for row in b for x in row]


# ---------------------------------------------------------------------------
# fan-sym3-prefix
# ---------------------------------------------------------------------------

SYM_VARIABLES = tuple(f"{p}{i}{j}" for p in "xy" for i in range(1, 4) for j in range(i, 4))
IDENTITY = tuple(range(len(SYM_VARIABLES)))
FAN_PAIR = ((2, 3), (1, 3))


def symmetric_generator(k: int, l: int, perm: tuple[int, ...]) -> SparsePoly:
    """Entry (k, l) of XY - YX for symmetric 3x3 X, Y, with variable i
    renamed to perm[i]."""
    idx = {nm: perm[i] for i, nm in enumerate(SYM_VARIABLES)}

    def mono(*names: str) -> tuple[int, ...]:
        e = [0] * len(SYM_VARIABLES)
        for nm in names:
            e[idx[nm]] += 1
        return tuple(e)

    def var(p: str, i: int, j: int) -> str:
        return f"{p}{min(i, j)}{max(i, j)}"

    terms = []
    for s in range(1, 4):
        terms.append((mono(var("x", k, s), var("y", s, l)), 1))
        terms.append((mono(var("y", k, s), var("x", s, l)), -1))
    return SparsePoly.from_terms(terms)


def check_fan(gens: list[SparsePoly], cells) -> str:
    counts = [0] * len(FAN_FVECTOR)
    for c in cells:
        k = c.dim - FAN_LINEALITY
        if not 0 <= k < len(counts):
            return WRONG
        counts[k] += 1
    if tuple(counts) != FAN_FVECTOR or len({c.pattern for c in cells}) != len(cells):
        return WRONG
    monos = [[m for m, _ in g.terms] for g in gens]
    if not all(oracle.witness_realizes(monos, c.pattern, c.witness) for c in cells):
        return WRONG
    return OK


def fan_workload(rng: random.Random) -> Workload:
    """enumerate_cells on generators g23 and g13 of the symmetric 3x3 ideal,
    in the CLI's variable order: two levels of the ``symmetric:n=3`` search.
    The seed does not affect this input.  Permuting the variables or picking
    another pair keeps the f-vector but changes the cost by up to 2x (see
    NOTES.md), more than a run can average out.  This pair is the cheapest,
    so a run times it most often."""
    gens = [symmetric_generator(k, l, IDENTITY) for k, l in FAN_PAIR]
    op = Op(
        "enumerate",
        lambda: fan.enumerate_cells(gens, len(SYM_VARIABLES), jobs=1),
        lambda cells: check_fan(gens, cells),
    )
    single = [symmetric_generator(1, 2, IDENTITY)]
    warm = [lambda: fan.enumerate_cells(single, len(SYM_VARIABLES), jobs=1)]
    return Workload("fan-sym3-prefix", [op], warm, {
        "enumerate_p50_s": ("enumerate", 0.5, 1.0, "s"),
    })


# ---------------------------------------------------------------------------
# certify-deep
# ---------------------------------------------------------------------------

def group_image(pair, sigma, swap: bool, k: Fraction, c, alpha: Fraction, beta: Fraction):
    """(P^T A P, P^T B P) under the S3 x S2 element (sigma, swap), scaled by
    k > 0, then shifted inside the homogeneity space: tropical conjugation
    by diag(c) and the constants alpha (added to A) and beta (added to B)."""
    a, b = pair
    if swap:
        a, b = b, a

    def move(m, shift):
        return [[Fraction(m[sigma[i]][sigma[j]]) * k + c[i] - c[j] + shift for j in range(3)]
                for i in range(3)]

    return move(a, alpha), move(b, beta)


def check_certificate(cert, w, certified: bool = False) -> str:
    """A certificate must have the unique argmin it claims.  "unknown" is
    allowed, except on an input known to be out of TC3 (``certified``),
    where it is a refusal."""
    if cert is None:
        return REFUSED if certified else OK
    return OK if oracle.unique_argmin_holds(cert, w) else WRONG


def random_image(rng: random.Random, shifted: bool):
    """Arguments of group_image after the pair: a random S3 x S2 element,
    scale and (when ``shifted``) homogeneity shift."""
    sigma = rng.choice(sorted(permutations(range(3))))
    swap = rng.random() < 0.5
    k = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    if not shifted:
        return sigma, swap, k, (Fraction(0),) * 3, Fraction(0), Fraction(0)
    c = tuple(Fraction(rng.randint(-40, 40), 8) for _ in range(3))
    alpha, beta = (Fraction(rng.randint(-40, 40), 8) for _ in range(2))
    return sigma, swap, k, c, alpha, beta


def certify_workload(rng: random.Random) -> Workload:
    """Deep certificate search on images of golden pairs (a), (c) and of
    the deep-only pair.  Only the shifted images of the deep-only pair do
    not depend on the seed (see DEEP_ONLY_SHIFT_SEED)."""
    fixed = random.Random(DEEP_ONLY_SHIFT_SEED)
    ops, inputs = [], []
    for kind in ("orbit", "shifted"):
        for pair in (GOLDEN_A, GOLDEN_C, DEEP_ONLY):
            source = fixed if pair is DEEP_ONLY and kind == "shifted" else rng
            for _ in range(CERTIFY_IMAGES_PER_HALF):
                ga, gb = group_image(pair, *random_image(source, kind == "shifted"))
                a, b = _matrix(ga), _matrix(gb)
                inputs.append((a, b))
                ops.append(Op(
                    kind,
                    lambda a=a, b=b: commuting.certify_not_in_tc3(a, b, deep=True),
                    lambda cert, w=_weight(ga, gb), certified=pair is DEEP_ONLY:
                        check_certificate(cert, w, certified),
                ))
    rng.shuffle(ops)
    warm = [lambda: commuting.certify_not_in_tc3(*inputs[0], deep=False)]
    return Workload("certify-deep", ops, warm, {
        "certify_orbit_p50_s": ("orbit", 0.5, 1.0, "s"),
        "certify_shifted_p50_s": ("shifted", 0.5, 1.0, "s"),
    })


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------

def check_classify(cls, ga: oracle.Grid, gb: oracle.Grid) -> str:
    ab, ba = oracle.minplus_mul(ga, gb), oracle.minplus_mul(gb, ga)
    ts = ab == ba
    if cls.ts != ts or cls.ts_witness != (None if ts else oracle.first_difference(ab, ba)):
        return WRONG
    fails = oracle.tpre_failures(ga, gb)
    if cls.tpre.ok != (not fails) or not set(cls.tpre.failures) <= fails:
        return WRONG
    if cls.n == 3:
        cert = cls.certificate
        if cls.tc_status != ("certified-out" if cert is not None else "unknown"):
            return WRONG
        return check_certificate(cert, _weight(ga, gb))
    return OK


def classify3_op(rng: random.Random) -> Op:
    """A 3x3 pair with entries 0..4, the defaults of ``tropcomm sample``."""
    ga = [[Fraction(rng.randint(0, 4)) for _ in range(3)] for _ in range(3)]
    gb = [[Fraction(rng.randint(0, 4)) for _ in range(3)] for _ in range(3)]
    a, b = _matrix(ga), _matrix(gb)
    return Op(
        "classify3",
        lambda: commuting.classify_pair(a, b, deep=False),
        lambda cls: check_classify(cls, ga, gb),
    )


def prevariety_2x2(rng: random.Random, ties: tuple[int, ...]):
    """A 2x2 point on the exchange hyperplane a12 + b21 = a21 + b12 whose
    four weights {b11, b22, v+a11, v+a22} attain their minimum exactly on
    ``ties`` (v = b12 - a12); every such point lies in Tpre2."""
    def r() -> Fraction:
        return Fraction(rng.randint(-1000, 1000), 100)

    a12, a21, b12, low = r(), r(), r(), r()
    v = b12 - a12
    b11, b22, w1, w2 = (low if t in ties else low + Fraction(rng.randint(1, 300), 100) for t in range(4))
    return [[w1 - v, a12], [a21, w2 - v]], [[b11, b12], [a21 + v, b22]]


def lift2_call(a, b):
    cls = commuting.classify_pair(a, b, deep=False)
    try:
        lift = series.lift_2x2(a, b)
    except series.LiftPreconditionError:
        lift = None
    verdict = series.verify_lift(lift[0], lift[1], a, b) if lift is not None else None
    return cls, lift, verdict


def check_lift2(out, ga: oracle.Grid, gb: oracle.Grid) -> str:
    cls, lift, verdict = out
    if check_classify(cls, ga, gb) != OK or oracle.tpre_failures(ga, gb):
        return WRONG
    if cls.tc_status != "in" or lift is None or not verdict.ok:
        return REFUSED  # a Tpre2 point without a verified lift
    return OK if oracle.lift_holds(lift[0], lift[1], ga, gb) else WRONG


def lift2_op(rng: random.Random, ties: tuple[int, ...]) -> Op:
    ga, gb = prevariety_2x2(rng, ties)
    a, b = _matrix(ga), _matrix(gb)
    return Op("lift2", lambda: lift2_call(a, b), lambda out: check_lift2(out, ga, gb))


def check_polytrope(pc, ga: oracle.Grid, gb: oracle.Grid, star_expected: bool) -> str:
    commutes = oracle.minplus_mul(ga, gb) == oracle.minplus_mul(gb, ga)
    chain = (not pc.star_condition or pc.commutes) and (not pc.commutes or pc.square_condition)
    if pc.commutes != commutes or not chain or (star_expected and not pc.star_condition):
        return WRONG
    return OK


def polytrope_op(rng: random.Random, n: int, scaled: bool) -> Op:
    """Scaled pairs (c*P, d*P) of a polytrope P meet the star condition,
    because min(c, d)*P is again a polytrope.  Premetrics with off-diagonal
    entries in [1, 2) are polytropes: any two-step path costs at least 2."""
    def premetric(lo: int, hi: int):
        return [[Fraction(0) if i == j else Fraction(rng.randint(lo, hi), 100) for j in range(n)]
                for i in range(n)]

    if scaled:
        p = oracle.closure(premetric(1, 1000))
        c, d = (Fraction(rng.randint(100, 300), 100) for _ in range(2))
        ga = [[x * c for x in row] for row in p]
        gb = [[x * d for x in row] for row in p]
    else:
        ga, gb = premetric(100, 199), premetric(100, 199)
    a, b = _matrix(ga), _matrix(gb)
    return Op(
        "polytrope",
        lambda: polytrope.classify_polytrope_pair(a, b),
        lambda pc: check_polytrope(pc, ga, gb, scaled),
    )


def pairs_workload(rng: random.Random) -> Workload:
    """A seeded, interleaved stream of classify3, lift2 and polytrope ops."""
    ops = [classify3_op(rng) for _ in range(CLASSIFY3_OPS)]
    for _ in range(LIFT2_OPS // len(oracle.TIE_SETS_2X2)):
        ties = list(oracle.TIE_SETS_2X2)
        rng.shuffle(ties)
        ops.extend(lift2_op(rng, t) for t in ties)
    ops.extend(polytrope_op(rng, 3 + i % 2, i % 4 >= 2) for i in range(POLYTROPE_OPS))
    rng.shuffle(ops)
    warm = [next(op.call for op in ops if op.kind == kind) for kind in ("classify3", "lift2", "polytrope")]
    return Workload("pairs", ops, warm, {
        "classify3_p50_ms": ("classify3", 0.5, 1e3, "ms"),
        "classify3_p99_ms": ("classify3", 0.99, 1e3, "ms"),
        "lift2_p50_ms": ("lift2", 0.5, 1e3, "ms"),
        "polytrope_p50_ms": ("polytrope", 0.5, 1e3, "ms"),
    })


WORKLOADS = {"fan-sym3-prefix": fan_workload, "certify-deep": certify_workload, "pairs": pairs_workload}
