"""The benchmark's traced layers, cleared caches and answer checkers against the package."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_cleared_caches_resolve():
    # run.py empties these caches before each set-up round, so each must
    # still exist under its name and still be a cache, or the benchmark breaks
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    caches = next(node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and ast.unparse(node.targets[0]) == "self.caches")
    names = [ast.unparse(elt) for elt in caches.elts]
    assert set(names) >= {"galois.make_ext_field", "galois.make_base_field",
                          "galois._prime_field", "solver.gen_rd_generic",
                          "solver.gen_rd_unique"}
    for name in names:
        mod_name, attr = name.split(".")
        func = getattr(importlib.import_module("ranklab." + mod_name), attr, None)
        assert callable(getattr(func, "cache_clear", None)), name


def test_benchmark_checks_self_test():
    # the benchmark checks answers with arithmetic of its own, so its
    # self-test also checks the package's field arithmetic independently
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    assert checks.self_test() == []
