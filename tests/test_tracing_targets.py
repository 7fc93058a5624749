"""The benchmark tracer (``perfbench/tracing.py``) wraps package functions
by module and attribute name; every name it lists must exist, or the
traced benchmark run breaks."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tracer_targets():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert targets
    missing = []
    for module, attr, _ in targets:
        owner = importlib.import_module(f"gadmm.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        # looked up the way the tracer does, so inherited names do not count
        if leaf not in owner.__dict__:
            missing.append(f"{module}.{attr}")
    assert missing == []
