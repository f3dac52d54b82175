"""Every function the benchmark's span tracer wraps (`TARGETS` in
`perfbench/spans.py`) must exist in the package: a module attribute, or a
method defined in its class.  Every cache slot it reads must be an attribute
of a freshly built first argument, still empty: `Tracer.wrap` calls
`getattr(args[0], slot)` and treats a filled slot as a cached call.  A rename
then fails here, and not only in a traced benchmark run.  The tracer's source
is read, never imported, so nothing is written under `perfbench/`."""

import importlib
import inspect
from pathlib import Path

import pytest

from autorbit import catalog, wreath

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# a freshly built first argument, by the name of its class
FRESH = {
    "FiniteGroup": lambda: catalog.sym(3),
    "WreathGroup": lambda: wreath.WreathGroup(catalog.sym(3), 2),
}


def _targets():
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), namespace)
    return namespace["TARGETS"]


def _lookup(module_name, attr):
    module = importlib.import_module(f"autorbit.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        return vars(getattr(module, cls_name)).get(method)
    return getattr(module, attr, None)


@pytest.mark.parametrize("module_name,attr", [target[:2] for target in _targets()],
                         ids=lambda x: x)
def test_span_target_exists(module_name, attr):
    assert callable(_lookup(module_name, attr))


SLOTTED = [(module, attr, slot) for module, attr, _, slot, _ in _targets() if slot is not None]


@pytest.mark.parametrize("module_name,attr,slot", SLOTTED, ids=lambda x: x)
def test_cache_slot_is_an_empty_attribute_of_a_fresh_first_argument(module_name, attr, slot):
    if "." in attr:
        cls_name = attr.split(".")[0]
    else:  # a module function: the class its first parameter is annotated with
        first = next(iter(inspect.signature(_lookup(module_name, attr)).parameters.values()))
        cls_name = first.annotation
    assert getattr(FRESH[cls_name](), slot) is None
