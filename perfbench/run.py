#!/usr/bin/env python3
"""tropcomm benchmark: one workload, one seed, one process, one caller.

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports tropcomm from its
``src``.  The run makes one pass over the workload's fixed, seeded input set
and then runs its ops again in order until ``--seconds`` is used (a closed
loop at jobs=1), checks every output with the benchmark's own arithmetic,
and prints as its last line one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  While it measures, it rotates over the CPUs it
may use (see ``CpuRotation``) and samples the host's speed, by which it
normalises ``wall_s`` (see ``HostSpeed``).

``--trace 0`` reports the end-to-end metrics, measured untraced.  ``--trace 1``
runs a traced pass between two untraced ones, whatever ``--seconds`` is, and
reports the per-layer metrics of the traced pass, plus the tracing overhead.
Full results, the run's metadata and (traced) the spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 8  # even, so each of two CPUs starts half of them


class ProgramMissing(RuntimeError):
    """The checkout has no tropcomm sources to benchmark."""


def load_program():
    """Import tropcomm from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tropcomm" / "__init__.py").is_file():
        raise ProgramMissing(f"no tropcomm package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import tropcomm

    if Path(tropcomm.__file__).resolve().parent != (src / "tropcomm").resolve():
        raise ProgramMissing(f"tropcomm was imported from {tropcomm.__file__}, not {src}")
    return tropcomm


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it is ready for the
    first timed op: interpreter start, import, input generation, warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code})")
    return elapsed


def probe_setups(workload: str, seed: int) -> list[float]:
    """SETUP_PROBES probes, started on each allowed CPU in turn (a child
    inherits this process's affinity), for the reason CpuRotation gives."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for k in range(SETUP_PROBES):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            times.append(probe_setup(workload, seed))
    finally:
        os.sched_setaffinity(0, set(cpus))
    return times


def reference_work() -> int:
    """A fixed piece of exact arithmetic over a dict of monomials, the kind
    of work the slice search does, in benchmark code only: tropcomm changes
    cannot change its cost."""
    poly = {(i, j, k): Fraction(i + 1, j + 2) for i in range(5) for j in range(5) for k in range(5)}
    sample = list(poly.items())[::6]
    low: dict[tuple[int, int, int], Fraction] = {}
    for m, c in poly.items():
        for n, d in sample:
            key = (m[0] + n[0], m[1] + n[1], m[2] + n[2])
            v = c + d
            if key not in low or v < low[key]:
                low[key] = v
    return len(low)


class HostSpeed:
    """Samples the host's speed while the context is open: every PERIOD
    seconds a SIGALRM handler, which runs in the main thread between two
    steps of the timed code, times one ``reference_work``.

    The host is shared, and a whole 30-s run can be 1.2 to 1.8x slower
    than the one before it for a fixed program (see NOTES.md).  The
    reference slows with it, so ``factor`` (median reference time /
    NOMINAL_S) puts the run's timings back on a host of nominal speed.
    ``spent`` is the handler's total time, which ``Run`` takes out of each
    op's latency.
    """

    PERIOD = 0.25
    NOMINAL_S = 0.010  # reference_work on a 2-core Xeon VM, Python 3.11.7

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_work()
        dt = time.perf_counter() - start
        self.samples.append(dt)
        self.spent += dt

    def factor(self) -> float:
        return statistics.median(self.samples) / self.NOMINAL_S

    def __enter__(self) -> "HostSpeed":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class CpuRotation:
    """Moves the calling thread to the next CPU this process may use every
    PERIOD seconds, while the context is open.

    On a shared host one vCPU is often much slower than another (about
    1.6x, measured on a 2-core Xeon VM), and which one changes over
    minutes.  A process left on one of them would time that CPU's phase;
    rotating times the average of all of them, which halved the spread of
    a fixed loop's timings.  A migration every 0.1 s costs the timed code a
    cold cache about ten times a second.  Only this process's affinity
    changes.
    """

    PERIOD = 0.1

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.tid = threading.get_native_id()
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._rotate, daemon=True)

    def _rotate(self) -> None:
        i = 0
        while not self.stop.wait(self.PERIOD):
            i += 1
            os.sched_setaffinity(self.tid, {self.cpus[i % len(self.cpus)]})

    def __enter__(self) -> "CpuRotation":
        if len(self.cpus) > 1:
            self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop.set()
        if self.thread.is_alive():
            self.thread.join(timeout=5)
        os.sched_setaffinity(self.tid, set(self.cpus))


def quantile(samples: list[float], q: float) -> float:
    """Nearest-rank quantile; the median interpolates as usual."""
    if q == 0.5:
        return statistics.median(samples)
    ordered = sorted(samples)
    rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))
    return ordered[rank - 1]


class Run:
    """Outcomes and latencies of the ops run so far."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.per_op: list[list[float]] = [[] for _ in wl.ops]
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.outcomes: dict[str, int] = defaultdict(int)
        self.ok_by_kind: dict[str, int] = defaultdict(int)
        self.input_ok = [True] * len(wl.ops)
        self.errors: list[str] = []
        self.speed = HostSpeed()  # sampled only while measure() runs

    def run_op(self, i: int, tracer=None) -> float:
        op = self.wl.ops[i]
        spent = self.speed.spent
        start = time.perf_counter()
        try:
            out = op.call() if tracer is None else tracer.root(f"op.{op.kind}", i, op.call)
        except Exception:  # an op that raises is a wrong answer; keep going
            dt = time.perf_counter() - start - (self.speed.spent - spent)
            self.errors.append(traceback.format_exc(limit=4))
            status = "wrong"
        else:
            dt = time.perf_counter() - start - (self.speed.spent - spent)
            status = op.check(out)
        self.per_op[i].append(dt)
        self.latency[op.kind].append(dt)
        self.outcomes[status] += 1
        self.ok_by_kind[op.kind] += status == "ok"
        self.input_ok[i] &= status == "ok"
        return dt

    def run_pass(self, tracer=None) -> float:
        return sum(self.run_op(i, tracer) for i in range(len(self.wl.ops)))

    def wall_s(self) -> float:
        """Time to finish the input set: the sum over its ops of each op's
        median latency, so that every timed execution counts."""
        return sum(statistics.median(times) for times in self.per_op)

    def nominal_wall_s(self) -> float:
        """``wall_s`` on a host of nominal speed (see HostSpeed)."""
        return self.wall_s() / self.speed.factor()

    def ok_frac(self) -> float:
        """Share of the input set whose every execution was OK.  Per input
        rather than per execution, so that where a run stops in its last
        pass does not move it."""
        return sum(self.input_ok) / len(self.input_ok)

    @property
    def attempted(self) -> int:
        """Inputs of the set run at least once: all of them, since a run
        makes one whole pass first.  Counted per input, like ``ok_frac``,
        so that how many executions fit into ``--seconds`` does not move
        it."""
        return sum(1 for times in self.per_op if times)

    @property
    def failed(self) -> int:
        """Inputs of the set with an execution that was not OK."""
        return sum(1 for times, ok in zip(self.per_op, self.input_ok) if times and not ok)


def measure(wl, seconds: float) -> Run:
    """One whole pass, then the ops again in order for as long as the next
    one is expected to finish within ``seconds``, sampling the host's
    speed throughout."""
    run = Run(wl)
    start = time.perf_counter()
    with run.speed:
        run.run_pass()
        i = 0
        while True:
            expected = statistics.median(run.per_op[i])
            if time.perf_counter() - start + expected > seconds:
                return run
            run.run_op(i)
            i = (i + 1) % len(wl.ops)


def traced(wl, tropcomm) -> tuple[Run, dict]:
    """An untraced pass, a pass with spans around every layer call, and an
    untraced pass again, whatever ``--seconds`` is: the overhead is the
    traced pass minus the mean of the two untraced ones, which cancels a
    host that speeds up or slows down steadily during the run."""
    import layers
    from spans import Tracer

    run = Run(wl)
    before = run.run_pass()
    lifts_before = run.ok_by_kind["lift2"]
    tracer = Tracer()
    layers.install(tracer, tropcomm)
    try:
        with_spans = run.run_pass(tracer)
    finally:
        tracer.uninstall()
    lifts_verified = run.ok_by_kind["lift2"] - lifts_before
    after = run.run_pass()
    metrics = layers.metrics(tracer, lifts_verified)
    metrics["trace.overhead_s"] = (with_spans - (before + after) / 2, "s")
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}.jsonl.gz")
    return run, metrics


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        tropcomm = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else probe_setups(args.workload, args.seed)
    wl = workloads.prepare(args.workload, args.seed)
    with CpuRotation():
        if args.trace:
            run, metrics = traced(wl, tropcomm)
        else:
            run = measure(wl, args.seconds)
    if not args.trace:
        metrics = {
            "wall_s": (run.nominal_wall_s(), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": (run.ok_frac(), "ratio"),
        }
    # per-kind latencies of untraced passes only
    kinds = {} if args.trace else {
        name: (kind, quantile(run.latency[kind], q) * scale, unit)
        for name, (kind, q, scale, unit) in wl.latencies.items()}
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(), "git_sha": git_sha(),
        "samples": {kind: len(v) for kind, v in run.latency.items()},
        "executions": [len(times) for times in run.per_op],
        "outcomes": dict(run.outcomes), "setup_samples": setup,
        "fail_frac": 1 - run.ok_frac(),
        "measured_wall_s": run.wall_s(), "host_factor": run.speed.factor() if run.speed.samples else None,
        "reference_s": run.speed.samples,
        "kinds": {name: {"kind": kind, "value": v, "unit": unit} for name, (kind, v, unit) in kinds.items()},
        "latency_s": run.latency,
    }
    for err in run.errors[:3]:
        print(err, file=sys.stderr)
    for name, (kind, value, unit) in kinds.items():
        print(f"{name}: {value:.6g} {unit} (n={len(run.latency[kind])})")
    print(f"fail_frac: {meta['fail_frac']:.6g}, {run.failed} of {run.attempted} inputs; "
          f"outcomes of {sum(run.outcomes.values())} executions: {dict(run.outcomes)}")
    if not args.trace:
        print(f"wall_s: {metrics['wall_s'][0]:.6g} s at nominal host speed; measured "
              f"{meta['measured_wall_s']:.6g} s, host factor {meta['host_factor']:.4g} "
              f"(n={len(run.speed.samples)})")
    shown = ("nproc", "python", "git_sha", "seed", "samples")
    print("meta: " + json.dumps({k: meta[k] for k in shown}))
    result = {
        "correct": run.outcomes["wrong"] == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
