"""Mechanisms that live in one module, checked on the package's source so
that copies of them cannot creep back into other modules."""

import importlib
import re
from pathlib import Path

import pytest

import tvpriv
from tvpriv._value import Value

SRC = Path(tvpriv.__file__).parent
SOURCES = {path.name: path.read_text(encoding="utf-8")
           for path in sorted(SRC.glob("*.py"))}

# value types that validate, derive or default a field; every other value
# type is a plain record whose fields ``Value.__init__`` sets
KEEP_INIT = {"Pmf", "Channel", "JointSource", "Mechanism", "MarkovChain",
             "LpProblem", "LpSolution", "CostFunction", "ThreatReport"}


def test_sources_found():
    assert {"_value.py", "probability.py", "lp.py", "tolerances.py"} <= set(SOURCES)


@pytest.mark.parametrize("text", ["object.__setattr__", "flags.writeable"])
def test_fields_set_and_frozen_only_in_value_module(text):
    assert [name for name, source in SOURCES.items() if text in source] == [
        "_value.py"]


def test_tolerances_only_in_tolerances_module():
    pattern = re.compile(r"_TOL *=|ATOL *=|1e-(8|9|10|12)")
    assert [name for name, source in SOURCES.items()
            if pattern.search(source)] == ["tolerances.py"]


def package_value_types():
    for name in SOURCES.keys() - {"__init__.py"}:
        importlib.import_module(f"tvpriv.{name[:-3]}")
    found, todo = [], [Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("tvpriv."):
                found.append(cls)
            todo.append(cls)
    return found


def test_only_validating_or_defaulting_types_define_init():
    types = package_value_types()
    assert len(types) == 19
    assert KEEP_INIT <= {cls.__name__ for cls in types}
    assert {cls.__name__ for cls in types if "__init__" in vars(cls)} <= KEEP_INIT
