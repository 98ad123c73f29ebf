"""The benchmark's span tracer against the library it patches.

The tracer looks each target up by name (``vars(owner)[attr]``), so a
rename in the library breaks a traced benchmark run.  One test enters
and leaves ``Tracer.installed()`` and checks that every target was
patched inside and is restored after; another checks that every
exception the tracer counts as an expected failure, which it names by
class name, is still a library exception.
"""

import importlib
import pkgutil
from pathlib import Path

import halfspace_lab

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    targets = list(tracing._MODULE_TARGETS) + list(tracing._CLASS_TARGETS)
    targets += [(cls, "sample_labels", None, None) for cls in tracing._label_source_classes()]
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    with tracing.Tracer().installed():
        during = [vars(owner)[attr] for owner, attr, _, _ in targets]
    after = [vars(owner)[attr] for owner, attr, _, _ in targets]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_expected_error_names_are_library_exceptions(monkeypatch):
    # the tracer counts an expected failure by its exception's class name,
    # so a renamed or deleted class would silently zero its counter
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    classes = {
        name: obj
        for module in pkgutil.iter_modules(halfspace_lab.__path__)
        for name, obj in vars(importlib.import_module(f"halfspace_lab.{module.name}")).items()
        if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__.startswith("halfspace_lab.")
    }
    names = [name for errors in tracing._EXPECTED_ERRORS.values() for name in errors]
    assert names
    assert all(name in classes for name in names), set(names) - set(classes)
