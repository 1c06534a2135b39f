"""The traced benchmark wraps package attributes by name (perfbench/common.py,
wrap_layers). A refactor that removes or renames one of them breaks
`perfbench/run.py --trace 1`; this test installs the wrappers on the package
and restores them, so it fails first."""

import ast
import importlib.util
import inspect
from pathlib import Path

from streampolicy import (cli, core, envsim, flowmatch, metrics, normkit, saliency,
                          streamexec, trainer, velocitynet)
from streampolicy.envsim import EnvKind, KIND_CONTROLLER

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
        for module, name in (("trainer", "_sample_batch"), ("trainer", "training_step"),
                             ("velocitynet", "time_features"), ("velocitynet", "loss_and_grad"),
                             ("saliency", "_sample_pairs"), ("saliency", "loss_and_grad")):
            assert (f"streampolicy.{module}", name) in wrapped, name
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


def test_train_gate_reads_trajectories_through_the_observations_view(small_demos, tmp_path,
                                                                     monkeypatch):
    """perfbench's train workload gates the dataset round trip with
    wl_train._same_trajectories, which reads each Trajectory's observations
    view: it must hold on a saved-and-loaded copy and fail on a copy with one
    feature changed."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # for wl_train's `from common import ...`
    same = _load("wl_train")._same_trajectories
    path = tmp_path / "demos.bin"
    core.save_dataset(path, small_demos, dim=core.ACTION_DIM,
                      env_meta=envsim.env_metadata(EnvKind(variant=KIND_CONTROLLER)), seed=21)
    loaded, _ = core.load_dataset(path)
    assert same(small_demos, loaded) is True
    loaded[3].features[5, 2] += 0.5
    assert same(small_demos, loaded) is False


class _CountingContext:
    def __init__(self):
        self.counts = {}

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n


def test_train_workload_counts_windows_through_sample_batch(small_demos, monkeypatch):
    """wl_train._counting wraps trainer._sample_batch(prep, cfg, rng) and
    counts the rows of its first output as windows: a short training with
    the wrapper installed counts batch_size windows per iteration."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ctx = _CountingContext()
    monkeypatch.setattr(trainer, "_sample_batch", _load("wl_train")._counting(
        ctx, trainer._sample_batch))
    cfg = trainer.TrainConfig(iterations=3, batch_size=24, hidden=(8, 8))
    trainer.train(small_demos, cfg, alpha0_convention="zero")
    assert ctx.counts == {"trainer.iterations": 3, "trainer.windows": 3 * 24}


def _package_references():
    """(file, line, module, name, call) for every sp.<module>.<name> in
    perfbench/*.py, sp being the package namespace a workload is handed
    (also as self.sp or ctx.sp), and every <alias>.<name> where the file
    binds alias = sp.<module>. call is the ast.Call the reference is the
    callee of, or None."""
    def package(node):
        return (isinstance(node, ast.Name) and node.id == "sp") or (
            isinstance(node, ast.Attribute) and node.attr == "sp")

    refs = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {target.id: node.value.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute)
                   and package(node.value.value)
                   for target in node.targets if isinstance(target, ast.Name)}
        callee = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.value, ast.Attribute) and package(node.value.value):
                module = node.value.attr
            elif isinstance(node.value, ast.Name) and node.value.id in aliases:
                module = aliases[node.value.id]
            else:
                continue
            refs.append((path.name, node.lineno, module, node.attr, callee.get(id(node))))
    return refs


def test_every_package_name_perfbench_uses_resolves():
    """The benchmark's workloads reach the package through sp.<module>.<name>;
    each such name must exist, and each call through one must bind its
    keywords and positional count to the callee's signature (a dataclass
    field removed from EnvKind or TrainConfig fails here). Otherwise the
    break shows only when the benchmark runs."""
    refs = _package_references()
    assert len(refs) >= 50, len(refs)  # the walk still finds the workloads' references
    assert any(module == "streamexec" and f == "wl_wall.py" and name == "SchedulerConfig"
               for f, _, module, name, _ in refs)  # through the se alias
    for f, line, module, name, call in refs:
        where = f"perfbench/{f}:{line}: sp.{module}.{name}"
        namespace = importlib.import_module(f"streampolicy.{module}")
        assert hasattr(namespace, name), where
        target = getattr(namespace, name)
        if call is None or any(isinstance(a, ast.Starred) for a in call.args):
            continue
        keywords = {k.arg: None for k in call.keywords if k.arg is not None}
        try:
            inspect.signature(target).bind_partial(*[None] * len(call.args), **keywords)
        except TypeError as exc:
            raise AssertionError(f"{where}: {exc}") from None
