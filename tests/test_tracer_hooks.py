"""The benchmark's tracer patches itstore functions by name.

perfbench/tracer.py lists them in SPANS, and perfbench/smoke_test.py's
_patched_attributes lists every attribute the tracer replaces. A renamed
or deleted hook breaks `perfbench/run.py --trace 1`, whose smoke test is
not part of this suite, so this test loads both files, changes nothing in
them, and checks that every name they list still resolves.
"""

import builtins
import importlib.util
import inspect
from pathlib import Path

import itstore.protocol

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_hooks_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SMOKE = _load("smoke_test")


def _resolves(owner, attr):
    # a module global the tracer adds (stores.open) shadows a builtin
    return hasattr(owner, attr) or (inspect.ismodule(owner)
                                    and attr in vars(builtins))


def test_tracer_loads_the_itstore_modules_this_suite_imports():
    assert SMOKE.MODULES["protocol"] is itstore.protocol


def test_every_span_hook_resolves_on_itstore():
    tracer = SMOKE.tracer_mod
    assert tracer.SPANS
    for mod, path, name in tracer.SPANS:
        owner, attr = tracer._resolve(SMOKE.MODULES[mod], path)
        assert hasattr(owner, attr), (mod, path, name)
        assert callable(getattr(owner, attr)), (mod, path, name)


def test_every_attribute_the_tracer_replaces_resolves_on_itstore():
    patched = SMOKE._patched_attributes()
    assert len(patched) > len(SMOKE.tracer_mod.SPANS)
    for owner, attr, _value in patched:
        assert _resolves(owner, attr), (owner, attr)
