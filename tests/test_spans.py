"""perfbench's span tracer looks up treeburn functions by name, with no
default: a rename or deletion in src/ breaks every traced benchmark run.
These tests load perfbench/spans.py (without changing it) and check that
every name it wraps still resolves."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from treeburn import exact, graphs

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize(
    "name, module, attr", spans.TARGETS, ids=[t[0] for t in spans.TARGETS]
)
def test_every_target_resolves(name, module, attr):
    assert callable(getattr(importlib.import_module(f"treeburn.{module}"), attr))


def test_the_other_wrapped_names_resolve():
    assert callable(exact.burning_number)
    assert callable(graphs.Graph.is_connected)
