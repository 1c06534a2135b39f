"""Every field of a settings record has a caller outside the tests: a value
that only tests set is configuration no user can reach, and belongs in a
module constant. The sources are read, never imported or run."""

import ast
import dataclasses
from pathlib import Path

from streampolicy.envsim import EnvHandle, EnvKind
from streampolicy.flowmatch import FlowParams
from streampolicy.saliency import Indicator, PredictorConfig
from streampolicy.streamexec import SchedulerConfig, StageLatency
from streampolicy.trainer import TrainConfig

ROOT = Path(__file__).resolve().parent.parent
RECORDS = {r.__name__: r for r in (TrainConfig, PredictorConfig, SchedulerConfig, StageLatency,
                                   Indicator, EnvKind, EnvHandle, FlowParams)}


def _set_fields() -> dict[str, set[str]]:
    """For each record, the fields a call in src/, scripts/ or perfbench/
    passes: its keywords and its positional arguments before any starred one."""
    seen = {name: set() for name in RECORDS}
    for path in sorted(p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in RECORDS:
                continue
            fields = [f.name for f in dataclasses.fields(RECORDS[name]) if f.init]
            for field, arg in zip(fields, node.args):
                if isinstance(arg, ast.Starred):
                    break
                seen[name].add(field)
            seen[name].update(k.arg for k in node.keywords if k.arg is not None)
    return seen


def test_every_settings_field_has_a_caller_outside_the_tests():
    seen = _set_fields()
    unset = sorted(f"{name}.{f.name}" for name, record in RECORDS.items()
                   for f in dataclasses.fields(record) if f.init and f.name not in seen[name])
    assert unset == []
