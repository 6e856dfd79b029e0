"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines as they complete.

Criterion 4 checks the toolkit's verdict on golden pair (a) exactly rather
than pinning a certificate monomial.  The published degree-4 witness has the
named monomial x31*y12*y21*y31 as a minimal term at (a)'s weight, but it
ties there with x31*y23*y31*y32 (both at value 1), because b12 + b21 = 0 =
b23 + b32.  Nor is it the unique minimal term of any other ideal element:
the commuting ideal is homogeneous, so the monomial lies in the initial ideal iff its unit vector
is in the span of the value<=1 parts of the degree-4 products (degree-2
monomial) x (commutator entry), and an independent elimination
(``helpers.initial_slice_ranks``) finds their rank 348 rising to 349 when
the unit vector is added.  So no ideal element of any degree certifies (a)
by that monomial, and "unknown" is the correct answer of the toolkit.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from tropcomm import (
    certify_not_in_tc3,
    classify_pair,
    classify_polytrope_pair,
    commutator_entry,
    enumerate_cells,
    f_vector,
    generators,
    in_ts,
    kleene_star,
    lift_2x2,
    lineality_dim,
    named_config,
    trop_add,
    trop_mul,
    verify_lift,
    weight_of_pair,
    witness_deg4,
)
from tropcomm.cli import main
from tropcomm.commuting import evaluate_tropically
from tropcomm.fan import (
    KNOWN_FVECTOR_PREVARIETY_3_FULL,
    KNOWN_FVECTOR_VARIETY_3,
    BudgetExceededError,
    maximal_cell_orbits,
)
from tropcomm.polynomials import matrix_variables, monomial
from tropcomm.polytrope import random_premetric
from tropcomm.series import SeriesMatrix

from helpers import (
    M, EX5_A, EX5_B, EX6_A, EX6_B, EX7_A, EX7_B,
    P7A_A, P7A_B, P7B_C, P7B_D, P7C_E, P7C_F,
    S31_A, S31_B, TC2_A, TC2_B, LIFT_X, LIFT_Y,
    initial_slice_ranks, random_tc2_pair, star_power_sum,
)

SYMMETRIC_FVECTOR = (1, 39, 375, 1716, 4359, 6366, 5136, 1869, 6)
SYMMETRIC_CELLS_SHA256 = "e6639edb13f51f03c83eddafa9e84fd839fc94b2ed9fd1a17f233339b44aa178"


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def symmetric_run():
    cfg = named_config("symmetric:n=3")
    gens = list(cfg.gens)
    lin = lineality_dim(gens, cfg.dim)
    t0 = time.time()
    cells = enumerate_cells(gens, cfg.dim, jobs=2)
    elapsed = time.time() - t0
    # pattern, dimension and witness of every cell, as the enumerator reported them
    digest = hashlib.sha256(repr([(c.pattern, c.dim, c.witness) for c in cells]).encode()).hexdigest()
    assert digest == SYMMETRIC_CELLS_SHA256
    return cfg, gens, lin, cells, elapsed


def test_criterion_1_fan_n2(capsys):
    t0 = time.time()
    code = main(["fan", "commuting:n=2"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    rep = json.loads(out)
    ok = (
        code == 0
        and rep["lineality_dim"] == 4
        and rep["f_vector"] == [1, 4, 6]
        and elapsed < 10.0
    )
    with capsys.disabled():
        report(1, ok, f"commuting:n=2 lineality {rep['lineality_dim']}, "
                      f"f-vector {tuple(rep['f_vector'])}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_symmetric_fan(symmetric_run, capsys):
    _, _, lin, cells, elapsed = symmetric_run
    fv = f_vector(cells, lin)
    ok = lin == 2 and fv.counts == SYMMETRIC_FVECTOR and elapsed < 1800
    with capsys.disabled():
        report(2, ok, f"symmetric:n=3 lineality {lin}, f-vector {fv.counts}, "
                      f"{elapsed:.0f}s for 185193 candidate patterns")
    assert ok


TYPE_I = (("x13*y23", "x23*y13"), ("x12*y23", "x23*y12"), ("x12*y13", "x13*y12"))
TYPE_II = (("x12*y11", "x12*y22"), ("x13*y11", "x13*y33"), ("x23*y22", "x23*y33"))
TYPE_III = (("x11*y12", "x12*y11"), ("x11*y13", "x13*y11"), ("x12*y13", "x13*y12"))


def test_criterion_3_orbits(symmetric_run, capsys):
    cfg, gens, lin, cells, _ = symmetric_run
    orbits = maximal_cell_orbits(cells, gens, cfg.names)
    sizes = [o.size for o in orbits]

    def orbit_with(listing) -> bool:
        want = tuple(tuple(sorted(pair)) for pair in listing)
        for o in orbits:
            for cell_ties in o.tie_pairs:
                if tuple(sorted(cell_ties)) == tuple(sorted(want)):
                    return True
        return False

    ok = (
        sizes == [1, 2, 3]
        and orbit_with(TYPE_I)
        and orbit_with(TYPE_II)
        and orbit_with(TYPE_III)
    )
    with capsys.disabled():
        report(3, ok, f"top-cell orbit sizes {sizes}; listed tie-pair families all present")
    assert ok


def test_criterion_4_golden_examples(capsys):
    failures: list[str] = []
    t0 = time.time()

    c5 = classify_polytrope_pair(EX5_A, EX5_B)
    if not (c5.commutes and not c5.star_condition and c5.square_condition):
        failures.append("4x4 commuting pair conditions")
    star_wit = c5.witnesses.get("star")
    if star_wit is None or star_wit[0] != (1, 3) or (
        star_wit[1].value, star_wit[2].value
    ) != (Fraction(343, 100), Fraction(231, 100)):
        failures.append("star-condition witness 3.43 vs 2.31 at (1,3)")

    c6 = classify_polytrope_pair(EX6_A, EX6_B)
    if not (c6.square_condition and not c6.commutes):
        failures.append("4x4 square-but-not-commuting pair")

    c7 = classify_polytrope_pair(EX7_A, EX7_B)
    prod_eq = trop_mul(EX7_A, EX7_B) == trop_add(EX7_A, EX7_B)
    ba13 = trop_mul(EX7_B, EX7_A)[0, 2].value
    s13 = trop_add(EX7_A, EX7_B)[0, 2].value
    if not (prod_eq and not c7.commutes and ba13 == Fraction(279, 100) and s13 == Fraction(126, 25)):
        failures.append("3x3 one-sided product pair (2.79 vs 5.04)")

    g11 = generators(2)[0]
    ev = evaluate_tropically(g11, weight_of_pair(S31_A, S31_B))
    if not (in_ts(S31_A, S31_B) and not ev.satisfied
            and sorted(v for _, v in ev.values) == [2, 3]):
        failures.append("2x2 pair commutes but fails g11 (3 vs 2)")

    ca = classify_pair(P7A_A, P7A_B, deep=False)
    if not (ca.ts and ca.tpre.ok):
        failures.append("(a) in TS and Tpre")
    cb = classify_pair(P7B_C, P7B_D, deep=False)
    if not (cb.ts and not cb.tpre.ok and cb.tpre.failures == ((1, 1), (2, 2))):
        failures.append("(b) TS only, failing (1,1),(2,2)")
    cc = classify_pair(P7C_E, P7C_F, deep=False)
    if not (not cc.ts and cc.tpre.ok and cc.ts_witness == (3, 3)):
        failures.append("(c) Tpre only, commute failure (3,3)")

    elapsed = time.time() - t0
    if elapsed >= 1.0:
        failures.append(f"golden suite took {elapsed:.2f}s (>= 1s)")

    # Pair (a): the published witness ties at (a)'s weight, the named
    # monomial is not in the initial ideal (its unit vector raises the rank
    # of the value<=1 slice), and the toolkit answers "unknown".  The slice
    # oracle must first show it can say "yes", on the pair that only the
    # deep search certifies.
    names = matrix_variables(3)
    target = monomial(names, "x31", "y12", "y31", "y21")
    partner = monomial(names, "x31", "y23", "y31", "y32")
    ev = evaluate_tropically(witness_deg4(), weight_of_pair(P7A_A, P7A_B))
    if not (set(ev.argmin) == {target, partner} and ev.min_value == 1):
        failures.append("(a) published witness ties x31*y12*y21*y31 with "
                        "x31*y23*y31*y32 at value 1")
    deep_a = M([[2, 2, 3], [1, 2, 0], [4, 3, 2]])
    deep_b = M([[0, 3, 0], [2, 0, 4], [3, 4, 0]])
    control = monomial(names, "x21", "x32", "y13", "y33")
    control_value = sum(k * x for k, x in zip(control, weight_of_pair(deep_a, deep_b)))
    rank, rank_with = initial_slice_ranks(deep_a, deep_b, control)
    if not (control_value == 4 and rank == rank_with):
        failures.append("slice oracle control: x21*x32*y13*y33 in the value<=4 "
                        f"span of the deep-only pair (ranks {rank}, {rank_with})")
    rank, rank_with = initial_slice_ranks(P7A_A, P7A_B, target)
    if rank_with != rank + 1:
        failures.append("(a) x31*y12*y21*y31 outside the value<=1 span "
                        f"(ranks {rank}, {rank_with})")
    cert = certify_not_in_tc3(P7A_A, P7A_B, deep=True)
    if cert is not None:
        failures.append(f"(a) unknown, never certified-out (got: {cert.monomial_name()})")

    ok = not failures
    with capsys.disabled():
        report(4, ok, "golden example suite"
               + ("" if ok else f"; failing: {failures}"))
    assert ok, failures


def test_criterion_5_witness_polynomial(capsys):
    f = witness_deg4()
    names = matrix_variables(3)
    combo = (
        commutator_entry(3, 3, 1).mul_monomial(monomial(names, "y32", "y21"))
        - commutator_entry(3, 3, 2).mul_monomial(monomial(names, "y31", "y21"))
        - commutator_entry(3, 2, 1).mul_monomial(monomial(names, "y31", "y32"))
    )
    ok = len(f) == 12 and not (f - combo)
    with capsys.disabled():
        report(5, ok, f"deg-4 witness has {len(f)} monomials and reduces to 0 "
                      "against the generator combination")
    assert ok


def test_criterion_6_homogeneity_dimensions(capsys):
    dims = [lineality_dim(generators(n), 2 * n * n) for n in (2, 3, 4, 5)]
    ok = dims == [4, 4, 5, 6]
    with capsys.disabled():
        report(6, ok, f"homogeneity dimensions by exact rank: {dims}")
    assert ok


def test_criterion_7_property_suites(capsys):
    import test_commuting
    import test_polytrope

    suites = [
        ("premetric identities (1,2,3,6)", test_polytrope.test_premetric_identities_suite),
        ("fixed points = star image (4)", test_polytrope.test_fixed_points_are_the_star_image),
        ("image intersections (5)", test_polytrope.test_image_intersection_identity),
        ("commuting criteria chain", test_polytrope.test_commuting_criteria_chain),
        ("3x3 equivalences", test_polytrope.test_three_by_three_equivalences),
        ("2x2 prevariety = variety test", test_commuting.test_prevariety_matches_variety_test_for_2x2),
    ]
    failed = []
    for name, fn in suites:
        try:
            fn()
        except AssertionError as exc:
            failed.append(f"{name}: {exc}")
    ok = not failed
    with capsys.disabled():
        report(7, ok, "property suites (>=1000 seeded instances each)"
               + ("" if ok else f"; failing: {failed}"))
    assert ok, failed


def test_criterion_8_star_oracle(capsys):
    rng = random.Random(83)
    mismatches = 0
    for _ in range(1000):
        n = rng.randint(2, 6)
        a = random_premetric(rng, n)
        if kleene_star(a) != star_power_sum(a):
            mismatches += 1
    ok = mismatches == 0
    with capsys.disabled():
        report(8, ok, f"closure star == power-sum oracle on 1000 premetrics "
                      f"(n=2..6), {mismatches} mismatches")
    assert ok


def test_criterion_9_lifting(capsys):
    x = SeriesMatrix.parse(LIFT_X)
    y = SeriesMatrix.parse(LIFT_Y)
    published = verify_lift(x, y, TC2_A, TC2_B).ok

    y_bad = SeriesMatrix.parse([["1", "2*t^3"], ["t", "t^-1"]])
    bad = verify_lift(x, y_bad, TC2_A, TC2_B)
    perturbed = (not bad.ok) and ("commutation", (1, 2)) in bad.failures

    rng = random.Random(89)
    found = 0
    for _ in range(100):
        a, b = random_tc2_pair(rng)
        got = lift_2x2(a, b)
        if got is not None:
            xx, yy = got
            assert verify_lift(xx, yy, a, b).ok
            found += 1
    ok = published and perturbed and found >= 80
    with capsys.disabled():
        report(9, ok, f"published lift verified; perturbed pinpointed; "
                      f"{found}/100 random variety points lifted")
    assert ok


def test_criterion_10_out_of_scale_guards(capsys):
    guard_code = main(["fan", "commuting:n=3"])
    override_total = 11 ** 3 * 57 ** 6
    constants = (
        KNOWN_FVECTOR_VARIETY_3
        == (1, 1658, 23755, 143852, 481835, 972387, 1186489, 808218, 235038)
        and KNOWN_FVECTOR_PREVARIETY_3_FULL
        == (1, 146, 2290, 16322, 66193, 162886, 241476, 199030, 71766, 2397, 58)
    )
    try:
        enumerate_cells(list(named_config("commuting:n=3").gens), 18)
        raised = False
    except BudgetExceededError as exc:
        raised = exc.candidates == override_total
    ok = guard_code == 4 and constants and raised
    with capsys.disabled():
        report(10, ok, "full 3x3 configurations exit through the budget guard; "
                       "reference f-vectors stored, not recomputed")
    assert ok
