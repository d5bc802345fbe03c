"""In-memory span tracer that wraps geolog's public functions from outside.

Only the traced run installs it. Installing replaces each target function,
under every name that holds the same object in any loaded ``geolog.*``
module, with a wrapper that records a span; that catches the copies made by
``from .matcore import ...``. Restoring puts the original objects back.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

TARGETS = {
    "matcore": ("polar_decompose", "principal_log_spd", "mat_exp", "weighted_norm"),
    "strain": ("hencky_tensor",),
    "geodesy": (
        "dist_squared_to_SO",
        "omega_iso",
        "omega_vol",
        "euclid_dist_to_SO",
        "dist_cof_squared_to_SO",
    ),
    "constitutive": ("energy", "kirchhoff_stress", "cauchy_stress"),
    "oracle": (
        "geodesic_distance_oracle",
        "logmin_oracle",
        "weighted_logmin_oracle",
        "grioli_oracle",
    ),
    "cli": ("path_rows", "run_fit", "run_suite", "predict_stresses"),
}

OP_SPAN = "op"


def geolog_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "geolog" or name.startswith("geolog."))]


class Tracer:
    """Records (name, start, end, parent index, op id) spans in memory.

    ``op`` marks the benchmark op that the following spans belong to; the
    benchmark opens one ``op`` span around each op so every library span has
    a root.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []
        self.op = -1

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return traced

    def run_op(self, op_id: int, fn):
        """Call ``fn`` inside a root span for benchmark op ``op_id``."""
        self.op = op_id
        return self._wrap(OP_SPAN, fn)()

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = geolog_modules()
        by_module = {m.__name__: m for m in modules}
        wrappers = {}
        for mod, fns in TARGETS.items():
            owner = by_module[f"geolog.{mod}"]
            for fn in fns:
                original = getattr(owner, fn)
                wrappers[id(original)] = (original, self._wrap(f"{mod}.{fn}", original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self seconds, and span durations.

        Self time is a span's duration minus the durations of its direct
        child spans (children never overlap on one thread).
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            rec["calls"] += 1
            rec["self_s"] += end - start - child[i]
            rec["durations"].append(end - start)
        return out

    def closed_form_share(self) -> float:
        """Share of oracle span time spent in direct matcore/geodesy children."""
        oracle_total = 0.0
        inside = 0.0
        for name, start, end, parent, _ in self.spans:
            if name.startswith("oracle."):
                oracle_total += end - start
            elif parent >= 0 and name.startswith(("matcore.", "geodesy.")):
                if self.spans[parent][0].startswith("oracle."):
                    inside += end - start
        return inside / oracle_total if oracle_total > 0.0 else 0.0


def write_spans(path, tracers) -> None:
    """Write the spans of every traced pass as CSV rows: pass,name,start,end,parent,op."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,name,start,end,parent,op\n")
        for index, tracer in enumerate(tracers):
            for name, start, end, parent, op in tracer.spans:
                fh.write(f"{index},{name},{start!r},{end!r},{parent},{op}\n")
