"""Output checks, run outside the timed region.

Each function returns a list of problems; an empty list means the
output passed.  Any problem counts the instance as failed.
"""

from __future__ import annotations

import hashlib

import numpy as np

import discmin as dm

# Roundoff allowed when a stored witness is recomputed from its definition.
WITNESS_TOL = 1e-12
# How far the sampled margin of brute_force_cutting_direction may exceed
# the exact margin; sampling can only undershoot the true optimum, so any
# excess beyond roundoff means the exact solver missed a better plane.
BRUTE_FORCE_TOL = 1e-9
BRUTE_FORCE_SAMPLES = 4000


def statuses(certificate) -> str:
    return ",".join(f"{v.vertex}:{v.status}" for v in certificate.verdicts)


def sha256(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def _unit_directions(disc, vertex, star) -> np.ndarray:
    e = disc.positions[list(star)] - disc.positions[vertex]
    return e / np.linalg.norm(e, axis=1)[:, None]


def witness_problems(disc, certificate) -> list[str]:
    """Every verdict of ``certificate`` is recomputed on ``disc``.

    Saddle: lambda >= 0, sum lambda = 1, |sum lambda u| equals the stored
    residual and does not exceed eps_saddle.  Non-saddle: unit normal,
    min u.n equals the stored margin, and the margin exceeds eps_saddle.
    """
    eps = certificate.eps_saddle
    cx = disc.complex
    problems = []
    if [v.vertex for v in certificate.verdicts] != list(cx.interior_vertices()):
        return ["certificate does not cover exactly the interior vertices"]
    for v in certificate.verdicts:
        if tuple(v.star) != cx.vertex_star(v.vertex):
            problems.append(f"vertex {v.vertex}: stored star is not the vertex star")
            continue
        unit = _unit_directions(disc, v.vertex, v.star)
        if v.is_saddle:
            lam = np.asarray(v.coefficients, dtype=float)
            if lam.shape != (len(unit),):
                problems.append(f"vertex {v.vertex}: {lam.size} coefficients for {len(unit)} directions")
                continue
            residual = float(np.linalg.norm(lam @ unit))
            if lam.min() < 0.0:
                problems.append(f"vertex {v.vertex}: saddle lambda not nonnegative")
            elif abs(lam.sum() - 1.0) > WITNESS_TOL * len(lam):
                problems.append(f"vertex {v.vertex}: saddle lambda sums to {lam.sum()!r}")
            elif abs(residual - v.residual) > WITNESS_TOL:
                problems.append(
                    f"vertex {v.vertex}: residual {v.residual!r} != |sum lambda u| {residual!r}"
                )
            elif residual > eps + WITNESS_TOL:
                problems.append(f"vertex {v.vertex}: saddle residual {residual!r} > eps")
        else:
            n = np.asarray(v.cut_normal, dtype=float)
            margin = float((unit @ n).min())
            if abs(float(np.linalg.norm(n)) - 1.0) > WITNESS_TOL:
                problems.append(f"vertex {v.vertex}: cut normal is not a unit vector")
            elif abs(margin - v.margin) > WITNESS_TOL:
                problems.append(
                    f"vertex {v.vertex}: margin {v.margin!r} != min u.n {margin!r}"
                )
            elif not margin > eps:
                problems.append(f"vertex {v.vertex}: non-saddle margin {margin!r} <= eps")
    return problems


def _boundary_bytes(disc) -> bytes:
    return disc.positions[list(disc.complex.boundary_cycle)].tobytes()


def minimize_problems(disc_in, disc_out, trace) -> list[str]:
    """Checks on one ``minimize`` result."""
    problems = []
    if _boundary_bytes(disc_out) != _boundary_bytes(disc_in):
        problems.append("boundary cycle or boundary positions changed")

    areas = [trace.initial_area] + [r.area for r in trace.iterations]
    for k in range(1, len(areas)):
        if areas[k] > areas[k - 1]:
            problems.append(f"area rose from {areas[k - 1]!r} to {areas[k]!r} at iteration {k}")
            break
    if trace.final_area != disc_out.total_area():
        problems.append("trace final_area differs from the output disc's area")

    try:
        rebuilt = dm.build_from_triangles(disc_out.complex.triangles)
        dm.PolyhedralDisc(rebuilt, disc_out.positions, disc_out.eps_deg)
    except dm.DiscminError as exc:
        return problems + [f"output is not a valid disc: {exc!r}"]
    if rebuilt.boundary_cycle != disc_out.complex.boundary_cycle:
        problems.append("output complex does not re-validate to the same boundary")

    recertified = dm.certify_saddle(disc_out, trace.certificate.eps_saddle)
    if statuses(recertified) != statuses(trace.certificate):
        problems.append("re-certification disagrees with the trace certificate")
    if trace.certificate.saddle != all(v.is_saddle for v in trace.certificate.verdicts):
        problems.append("certificate saddle flag disagrees with its verdicts")
    if trace.converged and not recertified.saddle:
        problems.append("converged result does not certify as saddle")
    return problems + witness_problems(disc_out, trace.certificate)


def certify_problems(disc_in, disc_loaded, certificate) -> list[str]:
    """Checks on one ``loads_obj`` + ``certify_saddle`` result."""
    problems = []
    if disc_loaded.complex.triangles != disc_in.complex.triangles or (
        disc_loaded.positions.tobytes() != disc_in.positions.tobytes()
    ):
        problems.append("OBJ round trip changed the disc")
    if certificate.saddle != all(v.is_saddle for v in certificate.verdicts):
        problems.append("certificate saddle flag disagrees with its verdicts")
    problems += witness_problems(disc_loaded, certificate)
    for v in certificate.verdicts:
        unit = _unit_directions(disc_loaded, v.vertex, v.star)
        _, sampled = dm.brute_force_cutting_direction(unit, BRUTE_FORCE_SAMPLES)
        exact = max(v.margin, 0.0) if v.is_saddle else v.margin
        if sampled > exact + BRUTE_FORCE_TOL:
            problems.append(
                f"vertex {v.vertex}: sampled margin {sampled!r} beats exact {exact!r}"
            )
    return problems
