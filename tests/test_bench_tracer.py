"""The benchmark's span tracer against the library it patches.

The tracer looks each target up by name (``vars(owner)[attr]``), so a
rename in the library breaks a traced benchmark run.  This test enters
and leaves ``Tracer.installed()`` and checks that every target was
patched inside and is restored after.
"""

import importlib
from pathlib import Path

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
