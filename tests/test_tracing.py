"""The benchmark's tracer wraps the package and puts every original back.

``perfbench/tracing.py`` rebinds package functions by name and field
methods through each class's own ``__dict__``, so renaming a traced
function or moving a method onto a base class breaks a traced benchmark
run.  Loading the tracer from its file and installing it catches that here.
"""

import importlib.util
import os
import sys

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # imports every horncalc module it traces
    return module


def snapshot() -> dict:
    """Every binding of every loaded horncalc module and of the classes they define."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "horncalc" or name.startswith("horncalc.")):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                out.update({(name, key, attr): raw for attr, raw in vars(value).items()})
    return out


def test_install_then_uninstall_restores_every_original():
    tracing = load_tracing()
    before = snapshot()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        installed = snapshot()
    finally:
        tracer.uninstall()
    wrapped = {key for key, value in before.items() if installed.get(key) is not value}
    assert ("horncalc.tangent", "h_constraint_rows") in wrapped
    assert ("horncalc.fields", "PrimeField", "mul") in wrapped
    assert ("horncalc.horn", "HornTable", "_build") in wrapped
    after = snapshot()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
