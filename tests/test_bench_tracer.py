"""The benchmark's span tracer against the library it patches.

The tracer looks each target up by name (``vars(owner)[attr]``), so a
rename in the library breaks a traced benchmark run.  One test enters
and leaves ``Tracer.installed()`` and checks that every target was
patched inside and is restored after; another checks that every
exception the tracer counts as an expected failure, which it names by
class name, is still a library exception.  A third traces a learn and
checks that its stage spans charge what ``RunReport`` counts per stage.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import halfspace_lab
import halfspace_lab.learner as learner
from halfspace_lab import CleanLabels, Halfspace, LearnerConfig, MembershipOracle
from halfspace_lab.rng import substream

from conftest import spread_offsets, unit_vector

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


@pytest.mark.parametrize("restarts", [1, 3])
def test_stage_spans_equal_the_report_stage_counts(restarts, monkeypatch):
    # the tracer patches the module globals learn calls each stage by, so
    # a learn that stopped looking them up would leave its spans empty.
    # With three restarts the candidates' offsets are spread 0.1 apart so
    # that none joins another and the leaders reach a vote
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    monkeypatch.setattr(learner, "refine", spread_offsets(learner.refine, (0.0, 0.1, 0.2)))
    w_star = unit_vector(substream(0, "learner-setup"), 10)
    oracle = MembershipOracle(CleanLabels(Halfspace(w_star, 1.0)), 0)
    tracer = tracing.Tracer()
    with tracer.installed():
        report = learner.learn(oracle, LearnerConfig(epsilon=0.02, restarts_per_gridpoint=restarts))
    spans = tracing.layer_metrics(tracer.spans)
    # the bias ladder's span leaves out the 200-query orientation probe
    assert spans["estimation.bias_ladder.queries"] == report.queries_bias - 200
    assert spans["initialization.init.queries"] == report.queries_init > 0
    assert spans["refinement.refine.queries"] == report.queries_refine > 0
    assert spans["learner.tournament.queries"] == report.queries_tournament
    assert (report.queries_tournament > 0) == (restarts > 1)
