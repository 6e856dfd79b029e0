"""Generators, tropical satisfaction, membership tests, witnesses, certificates."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from tropcomm import (
    TropMatrix,
    certify_not_in_tc3,
    classify_pair,
    commutator_entry,
    evaluate_tropically,
    generators,
    in_tc2,
    in_tpre,
    in_ts,
    lineality_dim,
    symmetric_generators,
    weight_of_pair,
    witness_deg3,
    witness_deg4,
)
from tropcomm import commuting
from tropcomm.commuting import TpreResult, group_elements, labeled_generators, witness_family
from tropcomm.core import SizeMismatchError
from tropcomm.series import lift_2x2
from tropcomm.polynomials import (
    SparsePoly,
    matrix_variables,
    monomial,
    monomial_str,
    symmetric_variables,
)

from helpers import (
    M, P7A_A, P7A_B, P7B_C, P7B_D, P7C_E, P7C_F, S31_A, S31_B, TC2_A, TC2_B,
    fraction_classify_pair, in_ideal_slice, in_row_span, initial_slice_ranks, lineality_basis,
    random_finite_matrix, random_prevariety_2x2_pair, slice_search_oracle,
)

X2 = matrix_variables(2)
X3 = matrix_variables(3)


def test_generators_n2():
    labeled = labeled_generators(2)
    assert [lab for lab, _ in labeled] == [(1, 1), (1, 2), (2, 1)]
    g11, g12, g21 = (g for _, g in labeled)
    assert g11 == SparsePoly.from_terms(
        {monomial(X2, "x12", "y21"): 1, monomial(X2, "y12", "x21"): -1}
    )
    assert len(g12) == 4 and len(g21) == 4
    assert g12 == SparsePoly.from_terms({
        monomial(X2, "x11", "y12"): 1,
        monomial(X2, "x12", "y22"): 1,
        monomial(X2, "y11", "x12"): -1,
        monomial(X2, "y12", "x22"): -1,
    })


def test_render_of_powers_constants_and_zero():
    names = ("x", "y")
    assert monomial_str((2, 0), names) == "x^2"
    assert monomial_str((0, 0), names) == "1"
    p = SparsePoly.from_terms([((2, 0), 1), ((0, 0), -3), ((1, 1), 2)])
    assert p.render(names) == "x^2 + 2*x*y - 3"
    assert SparsePoly.from_terms([((0, 0), 5)]).render(names) == "5"
    assert SparsePoly.from_terms([]).render(names) == "0"


def test_diagonal_entries_cancel_to_trace_zero():
    # the (2,2) entry is exactly minus the (1,1) entry for n=2
    assert commutator_entry(2, 2, 2) == -commutator_entry(2, 1, 1)
    # diagonal entries drop the x_kk*y_kk product
    g11 = commutator_entry(3, 1, 1)
    assert len(g11) == 4
    assert g11.coefficient(monomial(X3, "x11", "y11")) == 0


def test_generators_n3_shape():
    labeled = labeled_generators(3)
    assert len(labeled) == 9
    assert len(commutator_entry(3, 1, 2)) == 6


def test_symmetric_generators_match_display():
    labeled = commuting._labeled_symmetric_generators()
    gens = symmetric_generators()
    assert [label for label, _ in labeled] == [(1, 2), (1, 3), (2, 3)]
    assert tuple(g for _, g in labeled) == gens
    names = symmetric_variables()
    g12 = gens[0]
    expected = SparsePoly.from_terms({
        monomial(names, "x11", "y12"): 1,
        monomial(names, "y11", "x12"): -1,
        monomial(names, "x12", "y22"): 1,
        monomial(names, "y12", "x22"): -1,
        monomial(names, "x13", "y23"): 1,
        monomial(names, "y13", "x23"): -1,
    })
    assert g12 == expected
    for g in gens:
        assert len(g) == 6
        assert sorted(c for _, c in g.terms) == [-1, -1, -1, 1, 1, 1]

    # entry (k,l) of XY - YX written directly in the upper-triangle names
    def var(p, i, j):
        return f"{p}{min(i, j)}{max(i, j)}"

    for (k, l), g in labeled:
        assert g == SparsePoly.from_terms(
            [(monomial(names, var("x", k, s), var("y", s, l)), 1) for s in range(1, 4)]
            + [(monomial(names, var("y", k, s), var("x", s, l)), -1) for s in range(1, 4)])


def test_trop_satisfied_reports():
    g11 = generators(2)[0]
    w = weight_of_pair(S31_A, S31_B)
    ev = evaluate_tropically(g11, w)
    assert not ev.satisfied
    assert sorted(v for _, v in ev.values) == [2, 3]

    ev = evaluate_tropically(g11, weight_of_pair(TC2_A, TC2_B))
    assert ev.satisfied
    assert ev.min_value == 5  # 4+1 == 2+3

    # at an all-ties weight every term ties
    w0 = tuple(Fraction(0) for _ in range(8))
    for g in generators(2):
        ev = evaluate_tropically(g, w0)
        assert ev.satisfied and len(ev.argmin) == len(g)
    with pytest.raises(ValueError, match="empty polynomial"):
        evaluate_tropically(SparsePoly.zero(), w0)


def test_in_ts_on_separating_pairs():
    assert in_ts(P7A_A, P7A_B)
    assert in_ts(P7B_C, P7B_D)
    assert not in_ts(P7C_E, P7C_F)


def test_in_tpre_on_separating_pairs():
    assert in_tpre(P7A_A, P7A_B).ok
    res = in_tpre(P7B_C, P7B_D)
    assert not res.ok and res.failures == ((1, 1), (2, 2))
    assert in_tpre(P7C_E, P7C_F).ok


def test_in_tc2():
    assert in_tc2(TC2_A, TC2_B)
    assert not in_tc2(S31_A, S31_B)
    rng = random.Random(17)
    for _ in range(100):
        a = random_finite_matrix(rng, 2)
        assert in_tc2(a, a)


def _in_homogeneity_space(w, n: int) -> bool:
    # exact rank check against the basis of the all-ties subspace
    return in_row_span(lineality_basis(generators(n), 2 * n * n), w)


def test_homogeneity_membership_zero_and_formula():
    assert _in_homogeneity_space(tuple(Fraction(0) for _ in range(8)), 2)

    # n=2 pattern with a=1, b=2, x12=3, x21=4
    assert _in_homogeneity_space(tuple(map(Fraction, (1, 3, 4, 1, 2, 4, 5, 2))), 2)

    assert not _in_homogeneity_space(tuple(map(Fraction, (1, 3, 4, 1, 2, 4, 5, 3))), 2)


def test_homogeneity_points_tie_every_generator_and_witness():
    # build an n=3 homogeneity point from the parametrization
    a, b = Fraction(2), Fraction(-1)
    c = (Fraction(0), Fraction(3), Fraction(-5))
    w = [Fraction(0)] * 18

    def setx(i, j, v):
        w[(i - 1) * 3 + (j - 1)] = v

    def sety(i, j, v):
        w[9 + (i - 1) * 3 + (j - 1)] = v

    for i in range(1, 4):
        for j in range(1, 4):
            xv = a if i == j else c[i - 1] - c[j - 1] + a
            setx(i, j, xv)
            sety(i, j, b if i == j else xv - a + b)
    w = tuple(w)
    assert _in_homogeneity_space(w, 3)
    for _, f in witness_family():
        ev = evaluate_tropically(f, w)
        assert ev.satisfied and len(ev.argmin) == len(f)


def test_homogeneity_dimension_by_rank():
    for n, expected in ((2, 4), (3, 4), (4, 5), (5, 6)):
        assert lineality_dim(generators(n), 2 * n * n) == expected
        assert len(lineality_basis(generators(n), 2 * n * n)) == expected


def test_witness_deg4_structure():
    f = witness_deg4()
    assert len(f) == 12
    target = monomial(X3, "x31", "y12", "y31", "y21")
    assert f.coefficient(target) == -1
    # every group image keeps 12 terms
    for ge in group_elements(3):
        assert len(witness_deg4(ge)) == 12


def test_witness_deg4_reduces_to_zero_modulo_generators():
    names = X3
    f = witness_deg4()
    combo = (
        commutator_entry(3, 3, 1).mul_monomial(monomial(names, "y32", "y21"))
        - commutator_entry(3, 3, 2).mul_monomial(monomial(names, "y31", "y21"))
        - commutator_entry(3, 2, 1).mul_monomial(monomial(names, "y31", "y32"))
    )
    assert (f - combo) == SparsePoly.zero()


def test_witness_deg3_structure():
    f = witness_deg3()
    assert len(f) == 10
    coeffs = sorted(c for _, c in f.terms)
    assert coeffs == [-2, -1, -1, -1, -1, 1, 1, 1, 1, 2]
    names = X3
    combo = (
        commutator_entry(3, 1, 2).mul_monomial(monomial(names, "y21"))
        - commutator_entry(3, 2, 1).mul_monomial(monomial(names, "y12"))
    )
    assert f - combo == SparsePoly.zero()
    # swapping x and y mirrors the construction
    swapped = witness_deg3(((1, 2, 3), True))
    perm = [9 + i for i in range(9)] + list(range(9))
    assert swapped == f.permute_variables(tuple(perm))


def test_group_reads_a_missing_symmetric_variable_as_its_transpose():
    names = symmetric_variables()
    gens = symmetric_generators()
    for ge in group_elements(3):
        assert sorted(commuting.variable_permutation(ge, names)) == list(range(12))
        for g in gens:
            image = commuting.apply_group(g, ge, names)
            assert any(image.equal_up_to_sign(h) for h in gens)
    # sigma swaps 1 and 2: x13 goes to x23, x12 to x21, which is read as x12
    perm = commuting.variable_permutation(((2, 1, 3), False), names)
    assert names[perm[names.index("x13")]] == "x23"
    assert names[perm[names.index("x12")]] == "x12"


def test_witness_family_order_and_dedup():
    fam = witness_family()
    labels = [lab for lab, _ in fam]
    assert labels[:9] == [f"g{k}{l}" for k in (1, 2, 3) for l in (1, 2, 3)]
    assert any(lab.startswith("deg3") for lab in labels)
    assert any(lab.startswith("deg4") for lab in labels)
    polys = [f for _, f in fam]
    for i, f in enumerate(polys):
        for g in polys[i + 1:]:
            assert not f.equal_up_to_sign(g)


def test_certificates_on_separating_pairs():
    # (b) fails the prevariety, so a generator already certifies it
    cert = certify_not_in_tc3(P7B_C, P7B_D, deep=False)
    assert cert is not None and cert.source == "g11"
    assert cert.min_value < cert.runner_up_value

    # (a) ties every witness polynomial and the whole degree-4 slice:
    # inconclusive by design (see the classification tests)
    assert certify_not_in_tc3(P7A_A, P7A_B, deep=False) is None
    assert certify_not_in_tc3(P7A_A, P7A_B, deep=True) is None


def test_certificate_never_fires_on_equal_pairs():
    rng = random.Random(19)
    for _ in range(50):
        a = random_finite_matrix(rng, 3, lo=0, hi=500)
        assert certify_not_in_tc3(a, a, deep=False) is None


# in TS and Tpre, all witness families tie, yet a degree-4 ideal element
# has a unique minimal monomial
_DEEP_ONLY = ([[2, 2, 3], [1, 2, 0], [4, 3, 2]], [[0, 3, 0], [2, 0, 4], [3, 4, 0]])
# images of it under S3 x S2, scaling and a homogeneity shift
_SHIFTED = (
    (M([["-7/8", "131/8", "103/8"], ["47/8", "-7/8", "37/8"], ["-45/8", "69/8", "-7/8"]]),
     M([[1, "37/4", "47/4"], ["-41/4", 1, "-5/2"], ["-3/4", "3/2", 1]])),
    (M([["-9/2", -9, "11/4"], [6, "-9/2", "37/4"], ["-7/4", "-9/4", "-9/2"]]),
     M([["53/8", "33/8", "63/8"], ["121/8", "53/8", "115/8"], ["27/8", "-25/8", "53/8"]])),
)


def _deep_only_certificate(a, b):
    """The deep search certifies (A, B) where every witness polynomial ties,
    and the certificate polynomial lies in the ideal and has the unique
    argmin it claims."""
    assert certify_not_in_tc3(a, b, deep=False) is None
    cert = certify_not_in_tc3(a, b, deep=True)
    assert cert is not None
    assert cert.source.startswith("slice")
    assert in_ideal_slice(cert.polynomial, 3, 4)
    # no monomial lies in I, so moving one coefficient leaves the ideal
    assert not in_ideal_slice(cert.polynomial + SparsePoly(((cert.unique_min_monomial, 1),)), 3, 4)
    w = weight_of_pair(a, b)
    ev = evaluate_tropically(cert.polynomial, w)
    assert not ev.satisfied and ev.argmin == (cert.unique_min_monomial,)
    assert ev.min_value == cert.min_value and ev.runner_up == cert.runner_up_value
    return cert


def test_deep_search_extends_the_witness_family():
    a, b = M(_DEEP_ONLY[0]), M(_DEEP_ONLY[1])
    assert in_ts(a, b) and in_tpre(a, b).ok
    cert = _deep_only_certificate(a, b)
    assert cert.monomial_name() == "x21*x32*y13*y33"


def test_slice_certificate_of_a_2x2_pair_names_2x2_variables():
    # the README pair outside Tpre2; its 8 exponents are x11..x22, y11..y22
    cert = commuting.find_monomial_initial_form(S31_A, S31_B, degree=3)
    assert cert is not None and len(cert.unique_min_monomial) == 8
    assert cert.monomial_name() == "x21*y12*y22"
    assert in_ideal_slice(cert.polynomial, 2, 3)


@pytest.mark.parametrize("a, b", _SHIFTED, ids=["shift1", "shift2"])
def test_deep_search_certifies_shifted_images(a, b):
    # images of the pair above under S3 x S2, scaling and a homogeneity
    # shift, which spreads the products' minima over 303 and 257 values; the
    # certificates sit at the 43rd and 77th of them, out of reach of a scan
    # of only the lowest few values
    cert = _deep_only_certificate(a, b)
    rank, with_target = initial_slice_ranks(a, b, cert.unique_min_monomial)
    assert rank == with_target


def _grid(m):
    return [[e.value for e in row] for row in m.rows]


def _group_image(pair, rng: random.Random, shifted: bool):
    # as the benchmark's certify inputs: (P^T A P, P^T B P) for a random
    # S3 x S2 element, scaled by k > 0, and (when ``shifted``) conjugated by
    # diag(c) with constants alpha, beta added to A and B
    sigma = rng.choice(sorted(permutations(range(3))))
    swap = rng.random() < 0.5
    k = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    c, alpha, beta = (Fraction(0),) * 3, Fraction(0), Fraction(0)
    if shifted:
        c = tuple(Fraction(rng.randint(-40, 40), 8) for _ in range(3))
        alpha, beta = (Fraction(rng.randint(-40, 40), 8) for _ in range(2))
    a, b = pair
    if swap:
        a, b = b, a

    def move(m, shift):
        return M([[Fraction(m[sigma[i]][sigma[j]]) * k + c[i] - c[j] + shift for j in range(3)]
                  for i in range(3)])

    return move(a, alpha), move(b, beta)


def _pinned_slice_inputs():
    """(a, b, degree) of the pinned slice searches; (a) and (c) are P7A and P7C."""
    rng = random.Random(1103)
    pairs = [(_grid(P7A_A), _grid(P7A_B)), (_grid(P7C_E), _grid(P7C_F)), _DEEP_ONLY]
    out = [(*_group_image(pair, rng, shifted), 4)
           for pair in pairs for shifted in (False, True) for _ in range(2)]
    out += [(a, b, 4) for a, b in _SHIFTED]
    for _ in range(50):
        out.append((M([[rng.randint(0, 4) for _ in range(3)] for _ in range(3)]),
                    M([[rng.randint(0, 4) for _ in range(3)] for _ in range(3)]), 4))
    out += [(P7A_A, P7A_B, 5), (M(_DEEP_ONLY[0]), M(_DEEP_ONLY[1]), 5)]
    return out


def test_slice_certificates_are_pinned():
    # every certificate of the slice search, byte for byte, on images of
    # golden pairs (a), (c) and the deep-only pair, the two shifted images,
    # seeded 0..4 pairs and two degree-5 searches; the digest was taken
    # before the search was split into a decision pass and a certificate pass
    inputs = _pinned_slice_inputs()
    certs = [commuting.find_monomial_initial_form(a, b, degree=d) for a, b, d in inputs]
    for (a, b, d), cert in zip(inputs, certs):
        if cert is not None:
            assert in_ideal_slice(cert.polynomial, 3, d)
            # the claimed minimum, runner-up and unique argmin, on Fractions
            ev = evaluate_tropically(cert.polynomial, weight_of_pair(a, b))
            assert ev.argmin == (cert.unique_min_monomial,)
            assert (ev.min_value, ev.runner_up) == (cert.min_value, cert.runner_up_value)
    found = Counter(cert is not None for cert in certs)
    assert found[True] >= 20 and found[False] >= 5, found
    digest = hashlib.sha256(repr(certs).encode()).hexdigest()
    assert digest == "3d9476585a149f4ad966a49c40ee6f604d0f7a8da3d1b245f868bd59d840ca52"


def _oracle_inputs():
    """(a, b, degree) of the searches compared with the reference loop: 100
    seeded pairs each with entries in 0..2, 0..4, 0..8 and 0..30, golden
    (a), (c) and the deep-only pair with two plain and two shifted S3 x S2
    images each, the two shifted images above, four degree-5 searches and
    the 2x2 README pair at degree 3."""
    rng = random.Random(2002)

    def draw(hi):
        return M([[rng.randint(0, hi) for _ in range(3)] for _ in range(3)])

    out = [(draw(hi), draw(hi), 4) for hi in (2, 4, 8, 30) for _ in range(100)]
    for pair in [(_grid(P7A_A), _grid(P7A_B)), (_grid(P7C_E), _grid(P7C_F)), _DEEP_ONLY]:
        out.append((M(pair[0]), M(pair[1]), 4))
        out += [(*_group_image(pair, rng, shifted), 4) for shifted in (False, True) for _ in range(2)]
    out += [(a, b, 4) for a, b in _SHIFTED]
    out += [(P7C_E, P7C_F, 5), (M(_DEEP_ONLY[0]), M(_DEEP_ONLY[1]), 5), (draw(4), draw(4), 5), (draw(2), draw(2), 5)]
    out.append((S31_A, S31_B, 3))
    return out


def test_slice_search_matches_the_reference_loop():
    # the search leaves out the trace-dependent products, decides each
    # closed value on its own columns and clears a lead of +1 without a
    # gcd; none of that may change a certificate, its sign included, which
    # the pinned digest alone does not show
    inputs = _oracle_inputs()
    assert len(inputs) >= 400
    found = Counter()
    for a, b, d in inputs:
        cert = commuting.find_monomial_initial_form(a, b, degree=d)
        assert repr(cert) == repr(slice_search_oracle(a, b, d)), (a, b, d)
        found[cert is not None] += 1
    assert found[True] >= 350 and found[False] >= 5, found


def test_slice_search_work_is_counted(monkeypatch):
    # one _reduce per product put in, None when it reduces to zero.  For
    # each degree d-2 monomial the last of its three diagonal products is
    # left out, so (a) and (c), which search their whole slice, put in 8 of
    # 9 products per monomial: 171*8 at degree 4, 1,140*8 at degree 5
    reduce = commuting._reduce
    counts = Counter()

    def counting(row, pivots):
        lead = reduce(row, pivots)
        counts["products"] += 1
        counts["zero"] += lead is None
        return lead

    monkeypatch.setattr(commuting, "_reduce", counting)
    for a, b in ((P7A_A, P7A_B), (P7C_E, P7C_F)):
        for degree, products, zero in ((4, 1368, 67), (5, 9120, 868)):
            counts.clear()
            assert commuting.find_monomial_initial_form(a, b, degree=degree) is None
            assert (counts["products"], counts["zero"]) == (products, zero), (degree, counts)
    counts.clear()
    cert = commuting.find_monomial_initial_form(M(_DEEP_ONLY[0]), M(_DEEP_ONLY[1]))
    assert cert is not None and cert.monomial_name() == "x21*x32*y13*y33"
    assert counts["products"] > 0 and counts["zero"] == 0
    # for n = 2 the trace relation is g11 + g22 = 0 and g22 is no generator
    assert commuting._slice_data(2, 3)[3] == ()
    assert commuting._slice_data(3, 4)[3] == (0, 4, 8)


@pytest.mark.parametrize("degree", [1, 0, -2])
def test_slice_search_rejects_degrees_below_two(degree):
    with pytest.raises(ValueError, match=r"^degree must be >= 2$"):
        commuting.find_monomial_initial_form(P7A_A, P7A_B, degree=degree)
    # the degree is checked before the weight is read
    with pytest.raises(ValueError, match=r"^degree must be >= 2$"):
        commuting.find_monomial_initial_form(M([["inf", 0, 0], [0, 0, 0], [0, 0, 0]]), P7A_B, degree=degree)


def test_slice_search_at_the_lowest_degrees():
    # (b) fails the prevariety at g11, so the degree-2 slice (the generators
    # themselves) already has a monomial initial form
    for degree in (2, 3):
        cert = commuting.find_monomial_initial_form(P7B_C, P7B_D, degree=degree)
        assert cert is not None and cert.source == f"slice[deg={degree}]"
        assert sum(cert.unique_min_monomial) == degree
        assert in_ideal_slice(cert.polynomial, 3, degree)
    assert commuting.find_monomial_initial_form(P7A_A, P7A_B, degree=2) is None


def test_classify_pair_regions():
    ca = classify_pair(P7A_A, P7A_B)
    assert (ca.ts, ca.tpre.ok, ca.tc_status) == (True, True, "unknown")

    cb = classify_pair(P7B_C, P7B_D)
    assert (cb.ts, cb.tpre.ok) == (True, False)
    assert cb.tpre.failures == ((1, 1), (2, 2))

    cc = classify_pair(P7C_E, P7C_F)
    assert (cc.ts, cc.tpre.ok) == (False, True)
    assert cc.ts_witness == (3, 3)

    c2 = classify_pair(TC2_A, TC2_B)
    assert c2.tc_status == "in"
    assert classify_pair(S31_A, S31_B).tc_status == "out"


# pairs in Tpre whose witness family ties (golden (a), the deep-only pair)
# or first breaks at a degree-4 member, and (c), which is in Tpre only
_TIED_BASES = (
    ([[0, 2, 0], [2, 0, 8], [0, 4, 0]], [[12, 0, 1], [0, 2, 0], [1, 0, 6]]),
    ([[2, 2, 3], [1, 2, 0], [4, 3, 2]], [[0, 3, 0], [2, 0, 4], [3, 4, 0]]),
    ([[0, 1, 0], [1, 0, 1], [1, 1, 0]], [[1, 0, 0], [0, 0, 0], [1, 1, 1]]),
    ([[0, 1, 0], [3, 0, 1], [0, 3, 0]], [[1, 0, 3], [0, 1, 0], [1, 0, 3]]),
)


def _mixed_denominator_pair(rng: random.Random, kind: int):
    # kind 0: entries with mixed denominators straight away; else an
    # integer pair (kind 1: random 0..1 entries, often tied; kind 2: one of
    # _TIED_BASES) scaled by k > 0 and moved by a homogeneity shift
    # (conjugation by diag(c), constants added to A and B), which keeps
    # every tie, product difference and argmin
    dens = (1, 2, 3, 4, 5, 6, 7, 8, 12)

    def q(lo: int, hi: int) -> Fraction:
        return Fraction(rng.randint(lo, hi), rng.choice(dens))

    if kind == 0:
        return ([[q(-12, 12) for _ in range(3)] for _ in range(3)],
                [[q(-12, 12) for _ in range(3)] for _ in range(3)])
    if kind == 1:
        base = [[[rng.randint(0, 1) for _ in range(3)] for _ in range(3)] for _ in range(2)]
    else:
        base = rng.choice(_TIED_BASES)
    k = q(1, 9)
    c = [q(-20, 20) for _ in range(3)]
    shifts = (q(-20, 20), q(-20, 20))
    return tuple([[k * m[i][j] + c[i] - c[j] + shift for j in range(3)] for i in range(3)]
                 for m, shift in zip(base, shifts))


def test_integer_ties_match_fraction_oracle():
    # classify_pair tests ties on integer term values, with the weight
    # scaled by the lcm of its denominators; the oracle does it in Fractions
    rng = random.Random(43)
    kinds = Counter()
    for trial in range(300):
        ga, gb = _mixed_denominator_pair(rng, trial % 3)
        a, b = M(ga), M(gb)
        assert len({e.value.denominator for m in (a, b) for row in m.rows for e in row}) > 1
        cls = classify_pair(a, b, deep=False)
        ts, witness, failures, cert = fraction_classify_pair(a, b)
        assert (cls.ts, cls.ts_witness, cls.tpre.failures) == (ts, witness, failures)
        got = cls.certificate
        if got is not None:
            got = (got.source, got.unique_min_monomial, got.min_value, got.runner_up_value)
        assert got == cert
        assert cls.tc_status == ("unknown" if cert is None else "certified-out")
        kinds["unknown" if cert is None else cert[0].split("[")[0][:3]] += 1
        kinds["tpre"] += cls.tpre.ok
        kinds["ts"] += cls.ts
    # generator, degree-4 and "unknown" outcomes all occur
    assert kinds["g11"] and kinds["deg"] and kinds["unknown"] >= 30, kinds
    assert kinds["tpre"] >= 50 and kinds["ts"] >= 30, kinds


def test_shared_scaling_matches_fraction_oracle_2x2_and_inf():
    # classify_pair scales (A, B) once for the products, the Tpre ties and
    # the witness family; 2x2 pairs with mixed denominators, half of them
    # on the prevariety, against the Fraction oracle
    rng = random.Random(59)
    dens = (1, 2, 3, 4, 6, 7, 12)
    statuses = Counter()
    for trial in range(300):
        if trial % 2:
            a, b = random_prevariety_2x2_pair(rng)
            k = Fraction(rng.randint(1, 9), rng.choice(dens))
            a, b = (M([[k * e.value for e in row] for row in m.rows]) for m in (a, b))
        else:
            a, b = (M([[Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(2)] for _ in range(2)])
                    for _ in range(2))
        cls = classify_pair(a, b)
        ts, witness, failures, cert = fraction_classify_pair(a, b)
        want = (ts, witness, TpreResult(ok=not failures, failures=failures), "out" if failures else "in", cert)
        assert repr((cls.ts, cls.ts_witness, cls.tpre, cls.tc_status, cls.certificate)) == repr(want)
        statuses[cls.tc_status] += 1
        statuses["ts"] += cls.ts
    assert statuses["in"] >= 150 and statuses["out"] >= 100 and statuses["ts"] >= 10, statuses

    # a +inf entry: the same exception class as the unscaled path (weight_of_pair)
    for n in (2, 3):
        for trial in range(20):
            grids = [[[str(rng.randint(0, 4)) for _ in range(n)] for _ in range(n)] for _ in range(2)]
            grids[trial % 2][rng.randrange(n)][rng.randrange(n)] = "inf"
            with pytest.raises(ValueError) as raised:
                classify_pair(M(grids[0]), M(grids[1]), deep=False)
            assert raised.type is ValueError and "finite" in str(raised.value)


@pytest.mark.parametrize("entry, sizes", [
    (weight_of_pair, (2, 3)),
    (in_tpre, (2, 3)),
    (certify_not_in_tc3, (3,)),
    (commuting.find_monomial_initial_form, (3,)),
    (classify_pair, (2, 3)),
    (lift_2x2, (2,)),
], ids=["weight_of_pair", "in_tpre", "certify_not_in_tc3", "find_monomial_initial_form", "classify_pair",
        "lift_2x2"])
def test_pair_entry_points_share_one_error_contract(entry, sizes):
    """Every entry point that reads a pair's weight raises SizeMismatchError
    on mixed sizes (a 4x4/3x3 pair included), and ValueError with one
    message on a +inf entry, wherever it stands."""
    def grid(m, inf_at=None):
        return M([["inf" if (i, j) == inf_at else str(i * m + j) for j in range(m)] for i in range(m)])

    for n in sizes:
        for m in (n - 1, n + 1):
            for a, b in ((grid(n), grid(m)), (grid(m), grid(n))):
                with pytest.raises(SizeMismatchError):
                    entry(a, b)
        for k in range(2 * n * n):
            at = divmod(k % (n * n), n)
            a, b = (grid(n, at), grid(n)) if k < n * n else (grid(n), grid(n, at))
            with pytest.raises(ValueError) as raised:
                entry(a, b)
            assert (raised.type, str(raised.value)) == (ValueError, "weight vectors require finite entries")


_CACHED = ("labeled_generators", "generators", "_labeled_symmetric_generators", "symmetric_generators",
           "witness_family", "_generator_supports", "_family_supports", "_slice_data")


def test_constant_data_is_built_once(monkeypatch):
    calls = Counter()
    for name in ("witness_deg3", "witness_deg4", "commutator_entry"):
        def counted(*args, _real=getattr(commuting, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(commuting, name, counted)
    for name in _CACHED:
        getattr(commuting, name).cache_clear()
    try:
        rng = random.Random(47)
        pairs = [(P7A_A, P7A_B)] + [
            (M([[rng.randint(0, 4) for _ in range(3)] for _ in range(3)]),
             M([[rng.randint(0, 4) for _ in range(3)] for _ in range(3)]))
            for _ in range(49)
        ]
        classify_pair(*pairs[0], deep=False)
        first = dict(calls)
        assert first["witness_deg3"] == first["witness_deg4"] == len(group_elements(3))
        assert first["commutator_entry"] > 0
        for a, b in pairs[1:]:
            classify_pair(a, b, deep=False)
        assert dict(calls) == first
        assert commuting.witness_family.cache_info().misses == 1
        assert commuting.labeled_generators.cache_info().misses == 1
        assert commuting._family_supports.cache_info().misses == 1
        # the slice search builds its weight-independent data once per degree
        for a, b in [(P7B_C, P7B_D), (P7A_A, P7A_B), (P7B_C, P7B_D)]:
            commuting.find_monomial_initial_form(a, b, degree=3)
        assert commuting._slice_data.cache_info().misses == 1
        assert dict(calls) == first
    finally:
        for name in _CACHED:
            getattr(commuting, name).cache_clear()


def test_cached_constants_are_tuples():
    for value in (labeled_generators(2), labeled_generators(3), generators(3),
                  symmetric_generators(), witness_family()):
        assert isinstance(value, tuple)
    assert all(isinstance(item, tuple) for item in labeled_generators(3) + witness_family())
    assert witness_family() is witness_family()
    assert generators(3) == tuple(g for _, g in labeled_generators(3))


def _apply_to_pair(ge, a, b):
    sigma, swap = ge
    n = a.n

    def conj(m):
        return TropMatrix(
            tuple(
                tuple(m.rows[sigma.index(i + 1)][sigma.index(j + 1)] for j in range(n))
                for i in range(n)
            )
        )

    ca, cb = conj(a), conj(b)
    return (cb, ca) if swap else (ca, cb)


def test_membership_is_symmetry_invariant():
    rng = random.Random(23)
    for _ in range(60):
        a = TropMatrix.of([[rng.randint(0, 4) for _ in range(3)] for _ in range(3)])
        b = TropMatrix.of([[rng.randint(0, 4) for _ in range(3)] for _ in range(3)])
        base = (in_ts(a, b), in_tpre(a, b).ok)
        for ge in group_elements(3):
            aa, bb = _apply_to_pair(ge, a, b)
            assert (in_ts(aa, bb), in_tpre(aa, bb).ok) == base


def test_prevariety_matches_variety_test_for_2x2():
    """On and off the exchange hyperplane, the generic tests agree."""
    rng = random.Random(29)
    agreeing_positive = 0
    for trial in range(1000):
        if trial % 2 == 0:
            # fine-grid random pair, off the hyperplane almost surely
            a = random_finite_matrix(rng, 2, lo=-10**6, hi=10**6)
            b = random_finite_matrix(rng, 2, lo=-10**6, hi=10**6)
        else:
            a, b = random_prevariety_2x2_pair(rng)
        lhs = in_tpre(a, b).ok
        rhs = in_tc2(a, b)
        assert lhs == rhs, (a, b)
        agreeing_positive += lhs
    assert agreeing_positive >= 400  # the engineered half keeps it non-vacuous


def test_certify_ties_on_homogeneity_points():
    # scale-shift weights tie every term of every generator, so nothing in
    # the witness family can certify
    a = M([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    b = M([[2, 2, 2], [2, 2, 2], [2, 2, 2]])
    assert certify_not_in_tc3(a, b, deep=False) is None


def test_classify_pair_refuses_n_4():
    with pytest.raises(ValueError) as raised:
        classify_pair(M([[0] * 4] * 4), M([[0] * 4] * 4))
    assert raised.type is ValueError and "n in {2, 3}" in str(raised.value)
