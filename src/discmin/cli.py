"""Command line front end.

Exit codes: 0 on success (for ``optimize``, success means the run
converged: it stopped ``stationary``, at the certified exit; for ``certify``, it
means every interior vertex is saddle), 1 when ``certify`` finds a
cutting plane, 2 when ``optimize`` stops any other way (``stalled`` or
``iteration_cap``), 4 for unusable input (parse errors, non-disc
topology, degenerate geometry, bad configuration, and flags that are
missing, unknown or malformed or have bad values).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from .errors import DiscminError, InvalidInput, _check, _check_tolerance
from .flips import EPS_FLIP, flip_pass
from .meshio import load_obj, make_tent, save_obj
from .optimize import OptimizerConfig, minimize
from .quad import QuadSpec, alpha_range, area_curve
from .saddle import EPS_SADDLE, certify_saddle


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_optimize(args) -> int:
    disc = load_obj(args.input)
    data = json.loads(Path(args.config).read_text()) if args.config else {}
    result, trace = minimize(disc, OptimizerConfig.from_dict(data))
    if args.output:
        save_obj(result, args.output)
    if args.trace:
        Path(args.trace).write_text(trace.csv_text())
    if args.summary:
        Path(args.summary).write_text(json.dumps(trace.summary_dict(), indent=2) + "\n")
    if args.certificate:
        Path(args.certificate).write_text(
            json.dumps(trace.certificate.to_dict(), indent=2) + "\n"
        )
    s = trace.summary_dict()
    print(
        f"{'converged' if trace.converged else 'stopped'} ({trace.stop_reason}) after "
        f"{s['iterations']} iterations: area {trace.initial_area:.12g} -> {trace.final_area:.12g} "
        f"({s['flips']} flips, {s['reductions']} reductions, {s['moves']} moves), "
        f"saddle={'yes' if s['saddle'] else 'no'}"
    )
    return 0 if trace.stop_reason == "stationary" else 2


def _cmd_certify(args) -> int:
    _check_tolerance("--eps", args.eps_saddle)
    disc = load_obj(args.input)
    certificate = certify_saddle(disc, args.eps_saddle)
    if args.output:
        Path(args.output).write_text(
            json.dumps(certificate.to_dict(), indent=2) + "\n"
        )
    for v in certificate.verdicts:
        if not v.is_saddle:
            n = ", ".join(f"{x:.6g}" for x in v.cut_normal)
            print(f"vertex {v.vertex}: non-saddle, margin {v.margin:.6g}, normal ({n})")
    total = len(certificate.verdicts)
    if certificate.saddle:
        print(f"saddle: all {total} interior vertices pass (eps {args.eps_saddle:g})")
        return 0
    bad = sum(1 for v in certificate.verdicts if not v.is_saddle)
    print(f"non-saddle: {bad} of {total} interior vertices admit a cutting plane")
    return 1


def _cmd_flip_pass(args) -> int:
    _check_tolerance("--eps-flip", args.eps_flip)
    disc = load_obj(args.input)
    before = disc.total_area()
    result = flip_pass(disc, args.eps_flip)
    if args.output:
        save_obj(result.disc, args.output)
    print(
        f"{len(result.flips)} flips: area {before:.12g} -> "
        f"{result.disc.total_area():.12g}"
        + (" (cap exceeded)" if result.cap_exceeded else "")
    )
    return 0


def _cmd_quad_curve(args) -> int:
    _check("--samples", args.samples, args.samples >= 1, "an integer >= 1")
    spec = QuadSpec(args.p, args.q, args.r, args.s)
    lo, hi = alpha_range(spec)
    alphas = np.linspace(lo, hi, args.samples)
    diagonals, areas = area_curve(spec, alphas)
    lines = ["alpha,diagonal,area"]
    for a, d, ar in zip(alphas, diagonals, areas):
        lines.append(f"{a:.17g},{d:.17g},{ar:.17g}")
    _write_or_print("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_tent(args) -> int:
    scenario = make_tent(height=args.height, ridge_skew=args.ridge_skew, seed=args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_obj(scenario.fan_optimized, out / "fan.obj")
    save_obj(scenario.chord_optimized, out / "chord.obj")
    report = {
        "height": scenario.height,
        "ridge_skew": scenario.ridge_skew,
        "fan_area": scenario.fan_area,
        "chord_area": scenario.chord_area,
        "area_gap": scenario.area_gap,
        "relative_gap": scenario.area_gap / scenario.fan_area,
        "apex": {
            "id": scenario.apex_verdict.vertex,
            "status": scenario.apex_verdict.status,
            "margin": scenario.apex_verdict.margin,
            "normal": [float(x) for x in scenario.apex_verdict.cut_normal],
        },
        "fan": scenario.fan_trace.summary_dict(),
        "chord": scenario.chord_trace.summary_dict(),
    }
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"fan area {scenario.fan_area:.12g} vs chord area {scenario.chord_area:.12g} "
        f"(gap {scenario.area_gap:.6g}, {100 * report['relative_gap']:.3f}%); "
        f"apex is {scenario.apex_verdict.status} with margin "
        f"{scenario.apex_verdict.margin:.6g}; wrote {out}/fan.obj, chord.obj, report.json"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subcommand parsers, whose
    errors raise InvalidInput: a bad flag exits 4 like any bad input,
    not 2 as argparse would, which ``optimize`` uses for "stopped"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidInput(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="discmin",
        description="Minimize the area of triangulated discs and certify saddle points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="run the minimization loop on an OBJ disc")
    p.add_argument("--in", dest="input", required=True, help="input OBJ file")
    p.add_argument("-o", "--out", dest="output", help="write the optimized disc here")
    p.add_argument("--config", help="JSON optimizer configuration")
    p.add_argument(
        "--trace",
        help="write the per-iteration CSV here "
        "(columns: iter,area,flips,reductions,moves,triangles)",
    )
    p.add_argument("--summary", help="write the run summary JSON here")
    p.add_argument("--certificate", help="write the saddle certificate JSON here")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("certify", help="cutting-plane test at every interior vertex")
    p.add_argument("--in", dest="input", required=True, help="input OBJ file")
    p.add_argument("--eps", dest="eps_saddle", type=float, default=EPS_SADDLE)
    p.add_argument("-o", "--out", dest="output", help="write the certificate JSON here")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("flip-pass", help="flip every hinge with angle sum below pi")
    p.add_argument("--in", dest="input", required=True, help="input OBJ file")
    p.add_argument("--eps-flip", type=float, default=EPS_FLIP)
    p.add_argument("-o", "--out", dest="output", help="write the flipped disc here")
    p.set_defaults(func=_cmd_flip_pass)

    p = sub.add_parser(
        "quad-curve",
        help="area curve of a hinged quadrilateral family "
        "(CSV columns: alpha,diagonal,area)",
    )
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument(
        "-o", "--out", dest="output", help="write the CSV here instead of stdout"
    )
    p.set_defaults(func=_cmd_quad_curve)

    p = sub.add_parser("tent", help="build, optimize and report the tent scenario")
    tent = inspect.signature(make_tent).parameters  # the flags default to make_tent's defaults
    p.add_argument("--height", type=float, default=tent["height"].default)
    p.add_argument("--ridge-skew", type=float, default=tent["ridge_skew"].default)
    p.add_argument("--seed", type=int, default=tent["seed"].default)
    p.add_argument("--out-dir", default="tent_out")
    p.set_defaults(func=_cmd_tent)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (DiscminError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
