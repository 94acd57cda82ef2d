"""Benchmark of the 2^m subset sum: end-to-end metrics or a per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Workloads are listed in ``BENCHMARK.json`` and
defined in ``workloads.py``.

``--trace 0`` repeats passes over the workload's inputs for S seconds, with
no tracing, at the workload's worker count (never more than the usable
CPUs), and reports

    wall_s       seconds per pass: per input, the median over passes of its
                 time, summed over inputs
    setup_s      median over fresh processes of the time to import the
                 package and build the workload's inputs
    peak_rss_mb  peak resident memory of this process plus its largest child

Times are in seconds at the reference speed of ``calibration.py``: a fixed
kernel is timed before each input (and in each set-up process), and each
pass's times are scaled by the mean speed it measured, which removes most
of the drift of a shared machine.  Raw seconds, quartiles and sample counts
go to the lines above the result.

``--trace 1`` alternates untraced passes with 1 and 2 workers for S seconds
(``pool.*``), then makes one traced pass with 1 worker and reports the
per-layer split; the spans go to ``.bench_out/spans-<workload>.jsonl``.

Every answer is checked against a reference that does not use the subset
sum (``reference.py``); the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(name: str, unit: str, values: list[float], what: str) -> str:
    q1, med, q3 = quartiles(values)
    # the highest percentile with at least ten samples beyond it
    tail = next(
        (f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
         for p in (99, 95, 90, 75) if len(values) * (100 - p) >= 1000),
        "no tail percentile: p75 needs >= 40 samples",
    )
    return (f"{name}: median {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, "
            f"n={len(values)} {what}; {tail})")


class Runner:
    """Passes over one workload's cases, with every answer checked."""

    def __init__(self, workload, cases, check):
        self.workload = workload
        self.cases = cases
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def one_pass(self, workers: int, span=None, calibrate=True) -> list[tuple[float, float]]:
        """(raw seconds, machine speed) per input for one pass.

        The speed is measured right before each input, outside its timing;
        answers are checked after the clocks stop.
        """
        answer = self.workload.answer
        if span is not None:
            answer = partial(span, "bench.input", answer)
        outcomes, times = [], []
        for case in self.cases:
            speed = calibration.speed() if calibrate else 1.0
            start = perf_counter()
            try:
                outcomes.append(answer(case, workers))
            except Exception as exc:  # a raising answer counts as failed
                outcomes.append(exc)
            times.append((perf_counter() - start, speed))
        for case, outcome in zip(self.cases, outcomes):
            self.attempted += 1
            ok = not isinstance(outcome, Exception)
            if ok:
                try:
                    ok = self.check(case, outcome)
                except (KeyError, TypeError, ValueError, AttributeError):
                    ok = False
            if not ok:
                self.failed += 1
                self.failures.append(f"{case.label}: {outcome!r}"[:200])
        return times

    def passes(self, workers: int, seconds: float) -> list[list[tuple[float, float]]]:
        """Passes for ``seconds``, at least one.

        No pass starts that the last one says would end past the deadline.
        """
        passes = []
        deadline = perf_counter() + seconds
        while not passes or perf_counter() + raw_seconds(passes[-1]) <= deadline:
            passes.append(self.one_pass(workers))
        return passes


def raw_seconds(one_pass) -> float:
    return sum(seconds for seconds, _ in one_pass)


def pass_seconds(passes, calibrated: bool = True) -> float:
    """Seconds per pass: the sum over inputs of each input's median time.

    Calibrated, each pass's times are first scaled by the mean of the speeds
    measured before its inputs, giving seconds at the reference speed of
    ``calibration.py``.  Medians of single inputs shed the bursts of a shared
    machine better than medians of whole passes.
    """
    scaled = [
        [seconds * (statistics.fmean(s for _, s in p) if calibrated else 1.0) for seconds, _ in p]
        for p in passes
    ]
    return sum(statistics.median(times) for times in zip(*scaled))


def self_test(workloads, cases) -> None:
    """The checker must accept the reference and reject every perturbation."""
    for case in cases:
        for outcome, right in workloads.controls(case):
            if workloads.check(case, outcome) != right:
                raise SystemExit(f"checker self-test failed on {case.label}")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def setup_seconds(args) -> list[tuple[float, float]]:
    """(seconds, machine speed) of set-up in each of several fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
        seconds, speed = done.stdout.split()[-2:]
        probes.append((float(seconds), float(speed)))
    return probes


def end_to_end(args, runner, workers) -> dict:
    passes = runner.passes(workers, args.seconds)
    rss = peak_rss_mb()  # before the probes, which are children too
    probes = setup_seconds(args)
    wall = pass_seconds(passes)
    setup = statistics.median(seconds * speed for seconds, speed in probes)
    print(f"wall_s: {wall:.6g} s per pass at reference speed "
          f"({pass_seconds(passes, calibrated=False):.6g} s raw), from {len(passes)} passes "
          f"over {len(runner.cases)} input(s) at workers={workers}")
    print(describe("  raw whole passes", "s", [raw_seconds(p) for p in passes], "passes"))
    for case, runs in zip(runner.cases, zip(*passes)):
        print(describe(f"  raw {case.label}", "s", [seconds for seconds, _ in runs], "calls"))
    print(describe("  machine speed", "x reference", [s for p in passes for _, s in p],
                   "kernel runs"))
    print(f"setup_s: {setup:.6g} s at reference speed, from {len(probes)} fresh processes")
    print(describe("  raw setup", "s", [seconds for seconds, _ in probes], "processes"))
    print(f"peak_rss_mb: {rss:.6g} MB (n=1 process tree)")
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


class PoolCounter:
    """Counts process pools and processes started while installed."""

    def __init__(self):
        import concurrent.futures
        import multiprocessing.pool
        import multiprocessing.process

        self.pools = 0
        self.processes = 0
        self._patches = [
            (concurrent.futures.ProcessPoolExecutor, "__init__", "pools"),
            (multiprocessing.pool.Pool, "__init__", "pools"),
            (multiprocessing.process.BaseProcess, "start", "processes"),
        ]
        self._saved = []

    def __enter__(self):
        for owner, attr, counter in self._patches:
            original = vars(owner)[attr]

            def counted(*a, _original=original, _counter=counter, **kw):
                setattr(self, _counter, getattr(self, _counter) + 1)
                return _original(*a, **kw)

            self._saved.append((owner, attr, original))
            setattr(owner, attr, counted)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def per_layer(args, runner) -> dict:
    import tracer

    parallel = min(2, usable_cpus())
    serial_passes, parallel_passes = [], []
    counter = PoolCounter()
    deadline = perf_counter() + args.seconds
    while not parallel_passes or (
        perf_counter() + raw_seconds(serial_passes[-1]) + raw_seconds(parallel_passes[-1])
        <= deadline
    ):
        serial_passes.append(runner.one_pass(1))
        with counter:
            parallel_passes.append(runner.one_pass(parallel))

    t = tracer.Tracer()
    speed = statistics.median(calibration.speed() for _ in range(5))  # one scale for all spans
    t.install()
    try:
        traced = t.span(tracer.ROOT, runner.one_pass, 1, t.span, calibrate=False)
    finally:
        t.uninstall()
    OUT.mkdir(exist_ok=True)
    t.write(OUT / f"spans-{args.workload}.jsonl")

    traced_wall = raw_seconds(traced) * speed
    s = t.summary(scale=speed)
    if not s["self_sum_exact"]:
        raise SystemExit("span self times do not add up to the root span")
    calls, own, incl, c = s["calls"], s["self_s"], s["inclusive_s"], t.counts
    serial = pass_seconds(serial_passes)
    par = pass_seconds(parallel_passes)
    enumerated = c["moment_angle.subsets_enumerated"]
    computed = c["moment_angle.subsets_computed"]
    ma_calls = sum(calls[n] for n in tracer.MOMENT_ANGLE_ENTRIES)
    ma_incl = sum(incl.get(n, 0.0) for n in tracer.MOMENT_ANGLE_ENTRIES)
    fsc = "simplicial.full_subcomplex"
    values = {
        "moment_angle.calls": (ma_calls, "count"),
        "moment_angle.subsets_enumerated": (enumerated, "count"),
        "moment_angle.subsets_computed": (computed, "count"),
        "moment_angle.computed_ratio": (computed / enumerated if enumerated else 0.0, "ratio"),
        "moment_angle.us_per_subset": (ma_incl / enumerated * 1e6 if enumerated else 0.0, "us"),
        "moment_angle.self_s": (s["layer_self_s"]["moment_angle"], "s"),
        f"{fsc}.calls": (calls[fsc], "count"),
        f"{fsc}.self_s": (own[fsc], "s"),
        f"{fsc}.us": (incl.get(fsc, 0.0) / calls[fsc] * 1e6 if calls[fsc] else 0.0, "us"),
        "homology.reduced_homology.self_s": (own["homology.reduced_homology"], "s"),
        "homology.boundary_matrix.calls": (calls["homology.boundary_matrix"], "count"),
        "homology.boundary_matrix.self_s": (own["homology.boundary_matrix"], "s"),
        "homology.boundary_matrix.entries": (c["homology.boundary_matrix.entries"], "count"),
        "homology.smith_normal_form.calls": (calls["homology.smith_normal_form"], "count"),
        "homology.smith_normal_form.self_s": (own["homology.smith_normal_form"], "s"),
        "homology.smith_normal_form.max_side": (
            t.maxima["homology.smith_normal_form.max_side"], "count"),
        "homology.smith_normal_form.nonunit": (c["homology.smith_normal_form.nonunit"], "count"),
        "homology.invariant_factors.self_s": (own["homology.invariant_factors"], "s"),
        "homology.self_s": (s["layer_self_s"]["homology"], "s"),
        "simplicial.self_s": (s["layer_self_s"]["simplicial"], "s"),
        "polytopes.self_s": (s["layer_self_s"]["polytopes"], "s"),
        "pool.starts": (counter.pools / len(parallel_passes), "count"),
        "pool.processes": (counter.processes / len(parallel_passes), "count"),
        "pool.speedup": (serial / par, "ratio"),
        "pool.overhead_s": (par - serial / parallel, "s"),
        "polytopes.cut_vertex.self_s": (own["polytopes.cut_vertex"], "s"),
        "polytopes.dual_complex.self_s": (own["polytopes.dual_complex"], "s"),
        "surgery.reports": (c["surgery.reports"], "count"),
        "surgery.match_ratio": (
            c["surgery.matches"] / c["surgery.reports"] if c["surgery.reports"] else 0.0, "ratio"),
        "surgery.self_s": (s["layer_self_s"]["surgery"], "s"),
        "isotopy.self_s": (s["layer_self_s"]["isotopy"], "s"),
        "cli.self_s": (s["layer_self_s"]["cli"], "s"),
        "bench.self_s": (s["layer_self_s"]["bench"], "s"),
        "trace.root_s": (s["root_s"], "s"),
        "trace.spans": (len(t.spans), "count"),
        "trace.overhead_s": (traced_wall - serial, "s"),
        "fail_ratio": (runner.failed / runner.attempted, "ratio"),
    }
    print(f"pool: {serial:.6g} s per pass at workers=1, {par:.6g} s at workers={parallel}, "
          f"{len(serial_passes)} passes each")
    print(f"traced pass: {traced_wall:.6g} s, {len(t.spans)} spans; layer self times "
          f"sum to the root span ({s['root_s']:.6g} s); both at reference speed")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "momentangle" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'momentangle'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        start = perf_counter()
        import workloads

        workloads.WORKLOADS[args.workload].build(args.seed)
        seconds = perf_counter() - start
        print(seconds, calibration.speed())
        return 0
    import momentangle
    import workloads

    if Path(momentangle.__file__).resolve().parent != (SRC / "momentangle").resolve():
        print(f"error: momentangle imported from {momentangle.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    cases = workload.build(args.seed)
    self_test(workloads, cases)
    runner = Runner(workload, cases, workloads.check)
    if args.trace:
        metrics = per_layer(args, runner)
    else:
        metrics = end_to_end(args, runner, min(workload.workers, usable_cpus()))
    for failure in runner.failures[:10]:
        print(f"failed: {failure}")
    print(f"answers: {runner.attempted} attempted, {runner.failed} failed")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
