"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --workload fans grid certify --seeds 1-10 \
        [--seconds 30] [--trace 0] [--out bench/baseline.json]

Runs ``bench/run.py`` once per workload and seed, one after another,
and prints for every metric, and for the printed wall times, the
median over the seeds, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median.  With
``--out`` the summary, every run's values and each run's exact counts
and digests are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    keys = ("iterations", "flips", "reductions", "verdicts", "saddle_verdicts",
            "trace_sha256", "status_sha256")
    walls = ("solve_s", "instance_s.p50", "reference_s")
    printed = [line.partition(" ") for line in lines[:-1]]
    result["counts"] = {k: v for k, _, v in printed if k in keys}
    result["wall"] = {k: float(v.split()[0]) for k, _, v in printed if k in walls}
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {"machine": f"{platform.machine()} {platform.processor()}".strip(),
              "python": platform.python_version(), "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            r = run_once(workload, seed, args.seconds, args.trace)
            runs.append(r)
            print(f"{workload} seed {seed}: wall {r['wall_s']:.1f} s, correct {r['correct']}, "
                  f"failed {r['failed']}/{r['attempted']}", flush=True)
        names = runs[0]["metrics"]
        summary = {
            name: {**summarise([r["metrics"][name]["value"] for r in runs]),
                   "unit": names[name]["unit"]}
            for name in names
        }
        for name in runs[0]["wall"]:
            summary[f"wall:{name}"] = {**summarise([r["wall"][name] for r in runs]), "unit": "s"}
        for name, s in summary.items():
            print(f"  {name:45s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
