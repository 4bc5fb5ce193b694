"""The per-layer tracer in bench/tracer.py finds planesing's functions by name.

It wraps ``vars(cls)[attr]`` for a method and a module attribute for a
function, so a refactor that moves or renames one of its LAYERS entries
breaks ``bench/run.py --trace 1``.  This test catches that here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("planesing_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_is_bound_where_the_tracer_looks():
    layers = _layers()
    assert layers
    for layer, names in layers.items():
        mod = importlib.import_module(f"planesing.{layer}")
        for qual in names:
            if "." in qual:
                cls_name, attr = qual.split(".")
                assert callable(vars(getattr(mod, cls_name)).get(attr)), f"{layer}.{qual}"
            else:
                assert callable(getattr(mod, qual, None)), f"{layer}.{qual}"
