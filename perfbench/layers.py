"""Which tropcomm calls the traced run wraps, and the per-layer metrics.

Each entry names the namespace the caller resolves the function from: the
fan enumerator calls ``tropcomm.fan.strict_feasibility``, ``classify_pair``
imports ``trop_mul`` from ``tropcomm.core`` at call time, and polynomial
methods are looked up on ``SparsePoly``.  Calls that stay inside one module
(``strict_feasibility`` pivoting through ``tropcomm.simplex.add_pivot``)
are not boundaries and are not wrapped; they count in their caller's time.
"""

from __future__ import annotations


def _count_infeasible(tracer, result) -> None:
    tracer.counts["simplex.strict_feasibility.infeasible"] += result is None


def _count_cells(tracer, result) -> None:
    tracer.counts["fan.cells"] += len(result)


def _count_certificate(tracer, result) -> None:
    tracer.counts["commuting.unknown" if result is None else "commuting.certified"] += 1


def install(tracer, tropcomm) -> None:
    fan, commuting, core = tropcomm.fan, tropcomm.commuting, tropcomm.core
    poly, polytrope, series = tropcomm.polynomials.SparsePoly, tropcomm.polytrope, tropcomm.series
    for owner, attr, name, on_result in (
        (fan, "enumerate_cells", "fan.enumerate_cells", _count_cells),
        (fan, "strict_feasibility", "simplex.strict_feasibility", _count_infeasible),
        (fan, "add_pivot", "simplex.add_pivot", None),
        (fan, "eliminate", "simplex.eliminate", None),
        (fan, "lift_witness", "simplex.lift_witness", None),
        (commuting, "certify_not_in_tc3", "commuting.certify_not_in_tc3", _count_certificate),
        (commuting, "witness_family", "commuting.witness_family", None),
        (commuting, "labeled_generators", "commuting.labeled_generators", None),
        (commuting, "find_monomial_initial_form", "commuting.find_monomial_initial_form", None),
        (commuting, "evaluate_tropically", "commuting.evaluate_tropically", None),
        (poly, "mul_monomial", "polynomials.mul_monomial", None),
        (poly, "permute_variables", "polynomials.permute_variables", None),
        (core, "trop_mul", "core.trop_mul", None),
        (polytrope, "trop_mul", "core.trop_mul", None),
        (polytrope, "kleene_star", "core.kleene_star", None),
        (polytrope, "classify_polytrope_pair", "polytrope.classify_polytrope_pair", None),
        (series, "lift_2x2", "series.lift_2x2", None),
        (series, "verify_lift", "series.verify_lift", None),
    ):
        tracer.wrap(owner, attr, name, on_result)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer, lifts_verified: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, with 0 calls and 0 s for layers not reached."""
    summary = tracer.summary()
    counts = tracer.counts

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    def seconds(name: str, key: str = "s") -> float:
        return summary.get(name, {}).get(key, 0.0)

    out: dict[str, tuple[float, str]] = {}
    for name in (
        "simplex.strict_feasibility", "simplex.add_pivot", "simplex.eliminate",
        "commuting.witness_family", "commuting.labeled_generators",
        "commuting.find_monomial_initial_form", "commuting.evaluate_tropically",
        "polynomials.mul_monomial", "polynomials.permute_variables",
        "core.trop_mul", "core.kleene_star", "series.lift_2x2", "series.verify_lift",
    ):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.s"] = (seconds(name), "s")
    lps = calls("simplex.strict_feasibility")
    infeasible = counts["simplex.strict_feasibility.infeasible"]
    guesses = calls("simplex.lift_witness")
    out["simplex.strict_feasibility.infeasible"] = (infeasible, "count")
    out["simplex.lp_feasible_ratio"] = (_ratio(lps - infeasible, lps), "ratio")
    out["fan.enumerate_cells.self_s"] = (seconds("fan.enumerate_cells", "self_s"), "s")
    out["fan.cells"] = (counts["fan.cells"], "count")
    out["fan.guess_hit_ratio"] = (_ratio(guesses, guesses + lps), "ratio")
    out["commuting.certified"] = (counts["commuting.certified"], "count")
    out["commuting.unknown"] = (counts["commuting.unknown"], "count")
    out["polytrope.classify_polytrope_pair.self_s"] = (
        seconds("polytrope.classify_polytrope_pair", "self_s"), "s")
    out["series.lifts_verified"] = (lifts_verified, "count")
    return out
