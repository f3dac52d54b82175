"""Every function the benchmark's span tracer wraps (`TARGETS` in
`perfbench/spans.py`) must exist in the package: a module attribute, or a
method defined in its class.  A rename then fails here, and not only in a
traced benchmark run.  The tracer's source is read, never imported, so
nothing is written under `perfbench/`."""

import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), namespace)
    return [(module, attr) for module, attr, *_ in namespace["TARGETS"]]


@pytest.mark.parametrize("module_name,attr", _targets(), ids=lambda x: x)
def test_span_target_exists(module_name, attr):
    module = importlib.import_module(f"autorbit.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(module, cls_name)).get(method))
    else:
        assert callable(getattr(module, attr, None))
