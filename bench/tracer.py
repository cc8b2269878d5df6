"""Outside-in span tracer for the discmin layers.

While a ``Tracer`` is active, each traced entry point is replaced by a
wrapper in every ``discmin`` module namespace that binds it (for example
both ``discmin.saddle.cutting_direction`` and
``discmin.optimize.cutting_direction``), and validation is traced through
``PolyhedralDisc.__post_init__``.  A wrapper appends one span per call:
name, start, end, the index of the enclosing span, whether the call
raised, and an optional tag (the star degree for ``cutting_direction``).
Spans stay in memory; self times are derived from them after the run.
The library itself is not modified.
"""

from __future__ import annotations

import functools
import sys
import time

from discmin import flips, mesh, meshio, optimize, saddle


def _star_degree(args, kwargs) -> int:
    return len(args[0] if args else kwargs["directions"])


# (span name, owner, attribute, tag function).  Owners that are classes
# are patched on the class; functions in every discmin namespace.
TARGETS = (
    ("mesh.build_from_triangles", mesh, "build_from_triangles", None),
    ("mesh.PolyhedralDisc", mesh.PolyhedralDisc, "__post_init__", None),
    ("mesh.no_triangle_violations", mesh.DiscComplex, "no_triangle_violations", None),
    ("flips.measure_hinge", flips, "measure_hinge", None),
    ("flips.can_flip", flips, "can_flip", None),
    ("flips.flip", flips, "flip", None),
    ("flips.reduce_fan", flips, "reduce_fan", None),
    ("saddle.cutting_direction", saddle, "cutting_direction", _star_degree),
    ("saddle.certify_saddle", saddle, "certify_saddle", None),
    ("optimize.minimize", optimize, "minimize", None),
    ("optimize.flip_pass", optimize, "flip_pass", None),
    ("optimize.vertex_descent_step", optimize, "vertex_descent_step", None),
    ("optimize.position_area_gradient", optimize, "position_area_gradient", None),
    ("meshio.loads_obj", meshio, "loads_obj", None),
)

NAME, START, END, PARENT, FAILED, TAG = range(6)


class Tracer:
    """Context manager that records spans while the layers are patched."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False,
                    tag(args, kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        namespaces = [m for n, m in sys.modules.items() if n == "discmin" or n.startswith("discmin.")]
        for name, owner, attr, tag in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, tag)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in namespaces:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: calls, failed calls and self seconds.
        Self time is a span's duration minus that of its direct children,
        which nest inside it because the program is single-threaded."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        totals: dict[str, dict] = {}
        for i, span in enumerate(self.spans):
            t = totals.setdefault(span[NAME], {"calls": 0, "failed": 0, "self_s": 0.0})
            t["calls"] += 1
            t["failed"] += span[FAILED]
            t["self_s"] += span[END] - span[START] - child[i]
        return totals

    def tagged_durations(self, name: str) -> list[tuple[int, float]]:
        return [(s[TAG], s[END] - s[START]) for s in self.spans if s[NAME] == name]

    def write_csv(self, path) -> None:
        """One line per span; times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("index,name,start_s,end_s,parent,failed,tag\n")
            for i, s in enumerate(self.spans):
                tag = "" if s[TAG] is None else s[TAG]
                f.write(
                    f"{i},{s[NAME]},{s[START] - t0:.9f},{s[END] - t0:.9f},"
                    f"{s[PARENT]},{int(s[FAILED])},{tag}\n"
                )
