"""The traced benchmark wraps package attributes by name (perfbench/common.py,
wrap_layers). A refactor that removes or renames one of them breaks
`perfbench/run.py --trace 1`; this test installs the wrappers on the package
and restores them, so it fails first."""

import importlib.util
from pathlib import Path

from streampolicy import (cli, core, envsim, flowmatch, metrics, normkit, saliency,
                          streamexec, trainer, velocitynet)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(modules):
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}


def test_wrap_layers_installs_on_the_package_and_restores():
    modules = dict(cli=cli, core=core, envsim=envsim, flowmatch=flowmatch, metrics=metrics,
                   normkit=normkit, saliency=saliency, streamexec=streamexec, trainer=trainer,
                   velocitynet=velocitynet)
    before = _snapshot(modules.values())
    tracer = _load("spans").Tracer()
    try:
        _load("common").wrap_layers(tracer, **modules)
        during = _snapshot(modules.values())
        wrapped = {key for key, fn in during.items() if fn is not before[key]}
        assert ("streampolicy.flowmatch", "discrete_xi_dot") in wrapped
        assert ("streampolicy.flowmatch", "cfm_residual") in wrapped
        assert ("streampolicy.trainer", "training_step") in wrapped
        assert ("streampolicy.streamexec", "run_episode") in wrapped
        assert ("streampolicy.metrics", "measure") in wrapped
        assert ("streampolicy.saliency", "decision_scores") in wrapped
        assert ("streampolicy.saliency", "saliency_score") in wrapped
    finally:
        tracer.restore()
    assert _snapshot(modules.values()) == before


def test_cli_measures_through_the_metrics_module():
    """perfbench's bench-sim EpisodeLog replaces metrics.measure on the module
    to see each episode's report; the CLI must look it up there per call,
    not hold its own reference."""
    assert cli.metrics is metrics
    assert "measure" not in vars(cli)
