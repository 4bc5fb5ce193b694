"""Per-layer timing of planesing from outside the package.

The layers are planesing's modules.  Each public function or method
listed in LAYERS is replaced by a wrapper that counts its calls and
sums its self time: its wall time minus the time of the wrapped calls
it makes.  Functions are rebound in every planesing module that binds
them, so a call through any import is counted; methods are rebound on
their class, under every name the class gives them (``__rmul__`` is
``__mul__``).  Calls outside the poly and jets layers, which are few
and coarse, are also kept as spans with their parent span and written
out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

LAYERS = {
    "poly": [
        "Poly2.__call__",
        "Poly2.__mul__",
        "Poly2.__add__",
        "Poly1.compose2",
        "Poly2.eval_grid",
        "Poly2.shift",
        "Poly2.recentered_coeffs",
        "Poly2.partial",
    ],
    "jets": ["poly_to_jet", "Jet2.__mul__", "compose_map", "compose_univariate"],
    "germs": ["classify", "conjugate_by_diffeos", "null_field", "PlaneMapGerm.discriminant_poly"],
    "locus": ["find_special_points", "sample_singular_set", "critical_value_image"],
    "conslaw": ["first_singularity", "characteristic_map", "lips_birth_frames", "xi_closed_form"],
    "parsing": ["parse_map"],
    "serialize": ["dump_json", "write_curves_csv", "write_svg"],
    "cli": ["main"],
}
#: layers whose calls are too many to keep one span each
HOT_LAYERS = {"poly", "jets"}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, names in LAYERS.items():
        for qual in names:
            out += [(f"{layer}.{qual}.calls", "count"), (f"{layer}.{qual}.self_ms", "ms")]
        out.append((f"{layer}.self_ms", "ms"))
    return out


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stats = {}  # name -> [calls, self seconds]
        self.spans = []  # (span id, name, start, end, parent span id)
        self._stack = []  # per active call: [child seconds, own span id]
        self._next_span = 0

    def _wrap(self, name: str, fn, keep_span: bool):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else None
            if keep_span:
                span = self._next_span
                self._next_span += 1
            else:
                span = parent_span
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if keep_span:
                    self.spans.append((span, name, start, start + elapsed, parent_span))

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "planesing"]
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"planesing.{layer}")
            for qual in names:
                name = f"{layer}.{qual}"
                keep_span = layer not in HOT_LAYERS
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[attr]
                    wrapped = self._wrap(name, original, keep_span)
                    for key, value in list(vars(cls).items()):
                        if value is original:
                            setattr(cls, key, wrapped)
                else:
                    original = getattr(mod, qual)
                    wrapped = self._wrap(name, original, keep_span)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, key, wrapped)

    def metrics(self) -> dict:
        out = {}
        for layer, names in LAYERS.items():
            layer_s = 0.0
            for qual in names:
                calls, self_s = self.stats[f"{layer}.{qual}"]
                out[f"{layer}.{qual}.calls"] = {"value": calls, "unit": "count"}
                out[f"{layer}.{qual}.self_ms"] = {"value": self_s * 1e3, "unit": "ms"}
                layer_s += self_s
            out[f"{layer}.self_ms"] = {"value": layer_s * 1e3, "unit": "ms"}
        return out

    def write_spans(self, path: Path) -> None:
        rows = [
            {"id": i, "name": n, "start_s": s, "end_s": e, "parent": p}
            for i, n, s, e, p in sorted(self.spans)
        ]
        path.write_text(json.dumps(rows))
