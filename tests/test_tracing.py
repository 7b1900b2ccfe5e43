"""The traced benchmark's layer table against the package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_layers_resolve():
    # every function the traced run wraps must exist, or --trace 1 breaks
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for layer, targets in tracing.LAYERS.items():
        for mod_name, attr in targets:
            module = importlib.import_module("ranklab." + mod_name)
            assert callable(getattr(module, attr, None)), (layer, mod_name, attr)
