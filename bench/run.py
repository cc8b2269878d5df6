"""Benchmark of discmin: seeded workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {fans,grid,certify} --seed N --seconds S --trace {0,1}

The workloads are described in ``bench/workloads.py``.  Each is a
closed loop with one client: the instances run one after another in
this process, on one thread (BLAS is pinned to one thread before numpy
loads).  A run repeats the whole instance set in rounds until ``S``
seconds have passed, and always completes at least one round.  Outputs
are checked after each round, outside the timed region
(``bench/checks.py``): the first round in full, later rounds by
comparing each instance's CSV trace and verdicts with the first round's.
Every instance that raises or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics:

    setup_s           median of 3 to 9 set-ups, one after each round:
                      importing discmin (timed in a fresh interpreter)
                      plus generating and validating the inputs (and, for
                      certify, serialising them)
    solve_ref         sum over instances of the instance's time in units
                      of ``reference_kernel``: its wall time over that of
                      the kernel timed just before it, median over rounds
    instance_ref.p50  median over instances of that time, in the same
                      units
    peak_rss_mb       peak resident memory of this process

and prints the best wall seconds over the rounds (``solve_s``,
``instance_s.p50``) and the kernel's median time (``reference_s``).
The speed of a shared machine drifts: the same ``minimize`` call took
from 0.49 to 1.04 s within minutes, and whole runs were 1.8 times
slower than runs a few minutes later, which no wall-time statistic of
one run can see.  Dividing each solve by a fixed numpy kernel timed
just before it cancels most of that drift.  The kernel shares no code
with discmin, so a change to discmin moves the ratio as it moves the
wall time.

``--trace 1`` alternates untraced and traced rounds (``bench/tracer.py``)
and reports the per-layer metrics of the fastest traced round: calls,
self seconds and failed calls per layer, mean microseconds of
``cutting_direction`` by star degree, flip and move yields, move counts,
milliseconds per outer iteration, the exact counts and quality figures
of the workload, and ``trace_overhead`` (best traced round over best
untraced round, minus 1).  Its spans are written to ``bench/out/``.

Both modes also print the quality figures (iterations, area_ratio,
converged_frac, saddle_frac, failed_frac, verdicts) and two sha256
digests, of every instance's ``trace.csv_text()`` and of the certificate
statuses; at a fixed seed and fixed code both repeat exactly.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = (3, 9)  # at least, at most
REFERENCE_INTERVAL = 0.25
DEGREE_BUCKETS = ((3, 6), (7, 10), (11, 16), (17, 24))
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import discmin; print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Import time of discmin (numpy included) in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC_DIR)],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Setup:
    """Repeated set-ups of one workload.  Each sample times importing
    discmin in a fresh interpreter plus ``workload.setup(seed)``; samples
    are taken between rounds so that their median spans the run."""

    def __init__(self, workload, seed: int):
        self.workload, self.seed = workload, seed
        self.samples: list[float] = []

    def sample(self):
        seconds = _import_seconds()
        t = time.perf_counter()
        instances = self.workload.setup(self.seed)
        self.samples.append(seconds + time.perf_counter() - t)
        return instances

    def seconds(self) -> float:
        return statistics.median(self.samples)


def reference_kernel() -> float:
    """Fixed numpy work that shares nothing with discmin but resembles its
    instruction mix: cross products and norms of single 3-vectors, as in
    the hinge scan, then one batched pinv of small matrices, as in
    ``cutting_direction``."""
    rng = np.random.default_rng(12345)
    points = rng.normal(size=(256, 3))
    total = 0.0
    for k in range(256):
        a, b, c = points[k], points[k - 1], points[k - 2]
        total += float(np.linalg.norm(np.cross(b - a, c - a)))
    return total + float(np.linalg.pinv(rng.normal(size=(1000, 5, 5))).sum())


class Reference:
    """Timings of ``reference_kernel``, taken between instances at most
    every REFERENCE_INTERVAL seconds, so that they span the run."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def latest(self) -> float:
        """The most recent timing, taking a new one when it has aged."""
        if time.perf_counter() - self._last >= REFERENCE_INTERVAL:
            t = time.perf_counter()
            reference_kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - t)
        return self.samples[-1]


class Run:
    """Rounds of one workload: untraced timings, the first round's
    outputs, and failure counts."""

    def __init__(self, workload, instances):
        self.workload = workload
        self.instances = instances
        self.times: list[list[float]] = [[] for _ in instances]
        self.ratios: list[list[float]] = [[] for _ in instances]
        self.first: list = [None] * len(instances)
        self.digests: list[tuple[str, str] | None] = [None] * len(instances)
        self.problems: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.reference = Reference()

    def round(self, tracer=None) -> float:
        """Solve every instance once, then check the outputs.  Returns
        the round's summed solve time; only untraced rounds are kept in
        ``times``."""
        solve = self.workload.solve
        outputs, seconds, references = [], [], []
        with tracer if tracer is not None else contextlib.nullcontext():
            for inst in self.instances:
                if tracer is None:
                    references.append(self.reference.latest())
                t = time.perf_counter()
                try:
                    out = solve(inst)
                except Exception as exc:  # an instance failing is a result
                    out = exc
                seconds.append(time.perf_counter() - t)
                outputs.append(out)
        if tracer is None:
            for i, (s, ref) in enumerate(zip(seconds, references)):
                self.times[i].append(s)
                self.ratios[i].append(s / ref)
        for i, out in enumerate(outputs):
            self.attempted += 1
            problems = self._check(i, out)
            if problems:
                self.failed += 1
                self.problems.setdefault(self.instances[i].name, problems)
        return sum(seconds)

    def _check(self, i: int, out) -> list[str]:
        import checks

        if isinstance(out, Exception):
            return [f"raised {out!r}"]
        disc_out, result = out
        trace = result if self.workload.minimizes else None
        cert = trace.certificate if trace is not None else result
        digest = (trace.csv_text() if trace is not None else "", checks.statuses(cert))
        if self.first[i] is not None:
            return [] if digest == self.digests[i] else ["output differs from the first round"]
        self.first[i], self.digests[i] = out, digest
        inst = self.instances[i]
        try:
            if self.workload.minimizes:
                return checks.minimize_problems(inst.disc, disc_out, trace)
            return checks.certify_problems(inst.disc, disc_out, cert)
        except Exception as exc:  # a malformed output fails, it does not end the run
            return [f"checking raised {exc!r}"]

    def instance_seconds(self) -> list[float]:
        """Per instance, the best wall time over the untraced rounds."""
        return [min(t) for t in self.times]

    def instance_refs(self) -> list[float]:
        """Per instance, the median over the untraced rounds of its wall
        time divided by the reference timing taken just before it."""
        return [statistics.median(r) for r in self.ratios]

    def quality(self) -> dict[str, float]:
        """Exact counts and quality figures of the first round's outputs."""
        n = len(self.instances)
        done = [(inst, o) for inst, o in zip(self.instances, self.first) if o is not None]
        results = [r for _, (_, r) in done]
        traces = results if self.workload.minimizes else []
        certs = [t.certificate for t in traces] if traces else results
        area_in = sum(inst.disc.total_area() for inst, _ in done)
        area_out = sum(disc.total_area() for _, (disc, _) in done)
        return {
            "instances": n,
            "failed_frac": self.failed / self.attempted,
            "iterations": sum(len(t.iterations) for t in traces),
            "flips": sum(len(r.flips) for t in traces for r in t.iterations),
            "reductions": sum(len(r.reductions) for t in traces for r in t.iterations),
            "area_ratio": area_out / area_in if area_in else 0.0,
            "converged_frac": sum(t.converged for t in traces) / n,
            "saddle_frac": sum(c.saddle for c in certs) / n,
            "verdicts": sum(len(c.verdicts) for c in certs),
            "saddle_verdicts": sum(v.is_saddle for c in certs for v in c.verdicts),
        }

    def moves(self) -> dict[str, int]:
        counts = {"cut": 0, "gradient": 0, "blocked": 0}
        if self.workload.minimizes:
            for _, trace in (o for o in self.first if o is not None):
                for rec in trace.iterations:
                    for mv in rec.moves:
                        counts["blocked" if mv.blocked else mv.mode] += 1
        return counts

    def digests_hex(self) -> tuple[str, str]:
        """sha256 of every instance's CSV trace, and of every instance's
        verdict statuses, in instance order."""
        import checks

        done = [d for d in self.digests if d is not None]
        return checks.sha256(c for c, _ in done), checks.sha256(s + "\n" for _, s in done)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def wall_times(run: Run) -> dict:
    best = run.instance_seconds()
    return {
        "solve_s": _metric(sum(best), "s"),
        "instance_s.p50": _metric(statistics.median(best), "s"),
        "reference_s": _metric(statistics.median(run.reference.samples), "s"),
    }


def end_to_end(run: Run, setup_s: float) -> dict:
    refs = run.instance_refs()
    return {
        "setup_s": _metric(setup_s, "s"),
        "solve_ref": _metric(sum(refs), "ref"),
        "instance_ref.p50": _metric(statistics.median(refs), "ref"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run: Run, tracer, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of one traced round; see the module docstring."""
    import tracer as tracing

    totals = tracer.layer_totals()
    empty = {"calls": 0, "failed": 0, "self_s": 0.0}

    def layer(name):
        return totals.get(name, empty)

    m = {}
    for name, *_ in tracing.TARGETS:
        m[f"{name}.calls"] = _metric(layer(name)["calls"], "count")
        m[f"{name}.self_s"] = _metric(layer(name)["self_s"], "s")
    for name in ("flips.flip", "flips.reduce_fan", "mesh.PolyhedralDisc"):
        m[f"{name}.failed"] = _metric(layer(name)["failed"], "count")

    flips_done = layer("flips.flip")["calls"] - layer("flips.flip")["failed"]
    hinges = layer("flips.measure_hinge")["calls"]
    m["flips.flip_yield"] = _metric(flips_done / hinges if hinges else 0.0, "ratio")

    durations = tracer.tagged_durations("saddle.cutting_direction")
    for lo, hi in DEGREE_BUCKETS:
        ds = [d for k, d in durations if lo <= k <= hi]
        m[f"saddle.cutting_direction.us_k{lo}-{hi}"] = _metric(
            1e6 * sum(ds) / len(ds) if ds else 0.0, "us"
        )

    moves = run.moves()
    for kind, count in moves.items():
        m[f"optimize.moves.{kind}"] = _metric(count, "count")
    steps = layer("optimize.vertex_descent_step")["calls"]
    applied = moves["cut"] + moves["gradient"]
    m["optimize.move_yield"] = _metric(applied / steps if steps else 0.0, "ratio")

    q = run.quality()
    solve_s = sum(run.instance_seconds())
    iterations = q["iterations"]
    m["optimize.iter_ms"] = _metric(1e3 * solve_s / iterations if iterations else 0.0, "ms")
    m["optimize.iterations"] = _metric(iterations, "count")
    m["optimize.area_ratio"] = _metric(q["area_ratio"], "ratio")
    m["optimize.converged_frac"] = _metric(q["converged_frac"], "ratio")
    m["saddle.saddle_frac"] = _metric(q["saddle_frac"], "ratio")
    m["trace_overhead"] = _metric(traced_s / untraced_s - 1.0, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC_DIR / "discmin" / "__init__.py").is_file():
        print(f"bench: no discmin sources at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import discmin

    if Path(discmin.__file__).resolve().parent != SRC_DIR / "discmin":
        print(f"bench: imported discmin from {discmin.__file__}, not {SRC_DIR}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    setup = Setup(workload, args.seed)
    instances = setup.sample()
    run = Run(workload, instances)
    deadline = time.perf_counter() + args.seconds
    untraced: list[float] = []
    traced: list[tuple[float, object]] = []
    while not (untraced and (traced or not args.trace) and time.perf_counter() >= deadline):
        if args.trace and len(untraced) > len(traced):
            tracer = tracing.Tracer()
            traced.append((run.round(tracer), tracer))
        else:
            untraced.append(run.round())
        if len(setup.samples) < SETUP_SAMPLES[1]:
            setup.sample()
    while len(setup.samples) < SETUP_SAMPLES[0]:
        setup.sample()

    print(f"workload {workload.name} seed {args.seed}: {len(instances)} instances, "
          f"{len(untraced)} untraced and {len(traced)} traced rounds")
    print("untraced_round_s " + " ".join(f"{t:.3f}" for t in untraced))
    for name, problems in run.problems.items():
        print(f"FAILED {name}: {'; '.join(problems[:3])}")
    for name, value in run.quality().items():
        print(f"{name} {value:.6g}")
    trace_digest, status_digest = run.digests_hex()
    print(f"trace_sha256 {trace_digest if workload.minimizes else '-'}")
    print(f"status_sha256 {status_digest}")
    if args.trace:
        traced_s, tracer = min(traced, key=lambda r: r[0])
        metrics = per_layer(run, tracer, traced_s, min(untraced))
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.csv"
        tracer.write_csv(spans_path)
        print(f"spans {spans_path.relative_to(BENCH_DIR.parent)}")
    else:
        metrics = end_to_end(run, setup.seconds())
    for name, m in wall_times(run).items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"instance_s samples {len(instances)}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
