"""Self-tests of the benchmark, on the first ops of each input set.

    python3 -m pytest -q perfbench/tests

The exact counters of a traced pass must repeat exactly for one seed, so a
later change can cite them as counts; the fan workload's f-vector must not
depend on the seed.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

TROPCOMM = run.load_program()

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

EXACT = (
    "simplex.strict_feasibility.calls",
    "simplex.strict_feasibility.infeasible",
    "fan.cells",
    "commuting.witness_family.calls",
    "commuting.find_monomial_initial_form.calls",
    "series.lifts_verified",
)


def first_ops(name: str, seed: int, n: int):
    wl = workloads.prepare(name, seed)
    wl.ops = wl.ops[:n]
    return wl


def traced_counts(name: str, seed: int, n: int) -> dict:
    wl = first_ops(name, seed, n)
    runner = run.Run(wl)
    tracer = Tracer()
    layers.install(tracer, TROPCOMM)
    try:
        runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    assert runner.outcomes["wrong"] == 0
    metrics = layers.metrics(tracer, lifts_verified=runner.ok_by_kind["lift2"])
    return {key: metrics[key][0] for key in EXACT}


@pytest.mark.parametrize("name, n", [
    ("fan-sym3-prefix", 1),
    ("certify-deep", 4),
    ("pairs", 60),
])
def test_exact_counters_repeat(name, n):
    first = traced_counts(name, 7, n)
    assert first == traced_counts(name, 7, n)
    assert any(first.values())


def test_fan_fvector_is_the_same_for_every_seed():
    """The workload's pinned f-vector, also under seeded variable renamings."""
    fvectors = set()
    for seed in (0, 1):
        rng = random.Random(seed)
        perm = list(workloads.IDENTITY)
        rng.shuffle(perm)
        pair = rng.choice([((1, 2), (1, 3)), ((1, 2), (2, 3)), ((1, 3), (2, 3))])
        gens = [workloads.symmetric_generator(k, l, tuple(perm)) for k, l in pair]
        cells = TROPCOMM.fan.enumerate_cells(gens, len(perm))
        assert workloads.check_fan(gens, cells) == workloads.OK
        dims = [c.dim - workloads.FAN_LINEALITY for c in cells]
        fvectors.add(tuple(dims.count(k) for k in range(max(dims) + 1)))
    assert fvectors == {workloads.FAN_FVECTOR}


def test_tracing_restores_the_program():
    before = TROPCOMM.fan.strict_feasibility
    tracer = Tracer()
    layers.install(tracer, TROPCOMM)
    tracer.uninstall()
    assert TROPCOMM.fan.strict_feasibility is before


def test_a_lift_refusal_counts_as_a_failed_op():
    wl = first_ops("pairs", 3, 60)
    op = next(op for op in wl.ops if op.kind == "lift2")
    cls = op.call()[0]
    refused = (dataclasses.replace(cls, tc_status="out"), None, None)
    assert op.check(refused) == workloads.REFUSED

    runner = run.Run(wl)
    runner.run_pass()
    assert runner.attempted == len(wl.ops)
    assert runner.failed == runner.outcomes["refused"] + runner.outcomes["wrong"]
    assert runner.outcomes["wrong"] == 0
    failed = runner.failed
    runner.run_pass()  # attempted and failed count inputs, not executions
    assert (runner.attempted, runner.failed) == (len(wl.ops), failed)


def test_the_deep_only_pair_must_be_certified():
    """Its orbit images are certified; "unknown" on any of its images is a
    refusal, while on golden pairs (a) and (c) it is the expected answer."""
    image = workloads.random_image(random.Random(5), shifted=False)
    ga, gb = workloads.group_image(workloads.DEEP_ONLY, *image)
    a, b = workloads._matrix(ga), workloads._matrix(gb)
    w = workloads._weight(ga, gb)
    cert = TROPCOMM.commuting.certify_not_in_tc3(a, b, deep=True)
    assert workloads.check_certificate(cert, w, certified=True) == workloads.OK
    assert workloads.check_certificate(None, w, certified=True) == workloads.REFUSED
    assert workloads.check_certificate(None, w) == workloads.OK
