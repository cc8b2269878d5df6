"""Self-test of the benchmark's output checks.

Runs one small instance of each workload, confirms that its real output
passes, then corrupts the output in one way at a time and confirms that
every corruption is reported.  The last case drives a whole round whose
solver moves a boundary vertex and requires the round to count every
instance as failed.  Exits 0 when every case behaves, 1 otherwise.

    python3 bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import discmin as dm  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _moved(disc, vertex, delta):
    pos = np.array(disc.positions)
    pos[vertex] += delta
    return dm.PolyhedralDisc(disc.complex, pos, disc.eps_deg)


def _replace_verdict(cert, saddle: bool, change):
    """Certificate whose first verdict with the given status is replaced
    by ``dataclasses.replace(verdict, **change(verdict))``."""
    verdicts = list(cert.verdicts)
    k = next(i for i, v in enumerate(verdicts) if v.is_saddle == saddle)
    verdicts[k] = dataclasses.replace(verdicts[k], **change(verdicts[k]))
    return dataclasses.replace(cert, verdicts=tuple(verdicts))


def cases():
    fan_in = dm.random_instance(10, nonplanarity=0.3, seed=3)
    fan_out, fan_trace = dm.minimize(fan_in)
    grid_in = workloads.grid_disc(6, np.random.default_rng([0, 6]))
    grid_out, grid_trace = dm.minimize(grid_in, dm.OptimizerConfig(max_outer_iterations=2))
    wheel_in = workloads.wheel_disc(12, np.random.default_rng([0, 0]))
    wheel_loaded = dm.loads_obj(dm.dumps_obj(wheel_in))
    wheel_cert = dm.certify_saddle(wheel_loaded)
    boundary = fan_out.complex.boundary_cycle[0]

    def fan(disc=fan_out, trace=fan_trace):
        return checks.minimize_problems(fan_in, disc, trace)

    def wheel(disc=wheel_loaded, cert=wheel_cert):
        return checks.certify_problems(wheel_in, disc, cert)

    rising = list(fan_trace.iterations)
    rising[-1] = dataclasses.replace(rising[-1], area=rising[0].area * 1.5)
    yield "clean fan output", fan(), False
    yield "clean grid output", checks.minimize_problems(grid_in, grid_out, grid_trace), False
    yield "clean wheel output", wheel(), False
    yield "boundary vertex moved by 1e-12", fan(_moved(fan_out, boundary, 1e-12)), True
    yield "trace area rises", fan(trace=dataclasses.replace(fan_trace, iterations=tuple(rising))), True
    # Precondition of the next case: the capped grid run stops non-saddle.
    yield "capped grid run is non-saddle", [] if grid_trace.certificate.saddle else ["non-saddle"], True
    yield "non-saddle result claims convergence", checks.minimize_problems(
        grid_in, grid_out, dataclasses.replace(grid_trace, converged=True)
    ), True
    negated = _replace_verdict(
        fan_trace.certificate, True, lambda v: {"coefficients": -v.coefficients}
    )
    yield "saddle lambda negated", fan(trace=dataclasses.replace(fan_trace, certificate=negated)), True
    yield "saddle residual misreported", wheel(
        cert=_replace_verdict(wheel_cert, True, lambda v: {"residual": 0.5})
    ), True
    yield "non-saddle margin misreported", wheel(
        cert=_replace_verdict(wheel_cert, False, lambda v: {"margin": 0.9})
    ), True
    uniform = {"status": dm.SADDLE, "cut_normal": None, "margin": 0.0, "residual": 0.0}
    yield "non-saddle vertex reported saddle", wheel(cert=_replace_verdict(
        wheel_cert, False, lambda v: {**uniform, "coefficients": np.full(len(v.star), 1 / len(v.star))}
    )), True
    yield "OBJ round trip changed a vertex", wheel(disc=_moved(wheel_loaded, 0, 1e-9)), True

    def corrupting_solve(inst):
        disc, trace = dm.minimize(inst.disc)
        return _moved(disc, disc.complex.boundary_cycle[0], 1e-9), trace

    instances = [workloads.Instance("fan", fan_in)]
    bad = run.Run(workloads.Workload("corrupt", None, corrupting_solve, True), instances)
    bad.round()
    yield "round with a moved boundary vertex", ["failed"] * bad.failed, True


def main() -> int:
    ok = True
    for name, problems, expect_caught in cases():
        caught = bool(problems)
        good = caught == expect_caught
        ok &= good
        verdict = "caught" if caught else "passed"
        detail = f": {problems[0]}" if problems else ""
        print(f"{'ok  ' if good else 'FAIL'} {name}: {verdict}{detail}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
