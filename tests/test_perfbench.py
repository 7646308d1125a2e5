"""The benchmark's tracer against the current package: every name it wraps
exists, is wrapped on install and is restored on uninstall."""

import importlib
import importlib.util
import os

TRACER_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_name():
    tracer_mod = _load_tracer()
    targets = [(tracer_mod._resolve(owner), attr) for owner, attr, _ in tracer_mod.WRAPS]
    targets.append((importlib.import_module("sgembed.tensor"), "TapeNode"))
    originals = [vars(owner).get(attr) for owner, attr in targets]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        installed = [vars(owner)[attr] for owner, attr in targets]
    finally:
        tracer.uninstall()
    restored = [vars(owner)[attr] for owner, attr in targets]
    assert all(new is not old for new, old in zip(installed, originals))
    assert all(now is old for now, old in zip(restored, originals))
