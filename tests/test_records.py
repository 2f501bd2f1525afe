"""The package's records: plain NamedTuples and classes, no dataclass code generation at import.

A ``@dataclass`` decoration generates and compiles its methods when the
module is imported, which every ``workbench verify`` process pays again.
The records below keep the semantics the dataclasses gave them: frozen
records refuse assignment and validated records keep their checks.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import orbitpencil
from orbitpencil import lie_core as lc
from orbitpencil.errors import InputError


def test_check_spec_is_the_only_dataclass():
    found = []
    for info in pkgutil.iter_modules(orbitpencil.__path__, orbitpencil.__name__ + "."):
        module = importlib.import_module(info.name)
        found += [f"{info.name}.{name}" for name, obj in vars(module).items()
                  if inspect.isclass(obj) and obj.__module__ == info.name and dataclasses.is_dataclass(obj)]
    # CheckSpec stays a dataclass: the benchmark probe wraps each row with dataclasses.replace.
    assert found == ["orbitpencil.workbench.CheckSpec"], (
        "each @dataclass decoration costs about 1 ms of import in every verify process "
        "(a typing.NamedTuple about 0.15 ms); use a NamedTuple or a __slots__ class for "
        + ", ".join(name for name in found if name != "orbitpencil.workbench.CheckSpec"))


def test_frozen_records_refuse_assignment(setup_su2):
    sub = lc.Subspace(np.eye(3)[:, :2])
    for record, name in ((sub, "basis"), (setup_su2, "x0")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1


def test_validated_records_keep_their_checks():
    with pytest.raises(InputError, match="not orthonormal"):
        lc.Subspace(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InputError, match="2-d array"):
        lc.Subspace(np.ones(3))
    # validation converts as before: the stored basis is a float array
    assert lc.Subspace(basis=[[1], [0]]).basis.dtype == float
