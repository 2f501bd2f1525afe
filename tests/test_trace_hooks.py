"""The names the benchmark trace (perfbench/probe.py) hooks must keep existing.

The probe reports a hook whose target is gone as ``absent`` instead of
failing, so a rename would silently drop a per-layer metric.  This test
loads the probe by path and resolves every target without attaching.
"""

import dataclasses
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from orbitpencil import dirac_reduction, families, lie_core, orbit_charts, poisson_pencil, workbench

PROBE_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "probe.py"

MODULES = {"workbench": workbench, "lie_core": lie_core, "orbit_charts": orbit_charts,
           "poisson_pencil": poisson_pencil, "dirac_reduction": dirac_reduction, "families": families}

# Targets the probe's ``attach`` and ``main`` replace besides its SPANS list.
OTHER_HOOKS = [
    ("families", "su"), ("families", "so"), ("families", "diagonal_seed"),
    ("workbench", "run_pipeline"), ("workbench", "prepare_context"), ("workbench", "REGISTRY"),
    ("dirac_reduction", "slice_normal_form"), ("dirac_reduction", "sample_regular_coords"),
    ("dirac_reduction", "is_regular"), ("orbit_charts", "dexp_apply"),
    ("orbit_charts", "FormField.__init__"), ("orbit_charts", "FormField.__call__"),
]


@pytest.fixture(scope="module")
def probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Span targets the program no longer has, with the reason; the probe reports each as absent.
# An entry goes when the probe's SPANS list drops the name.
RETIRED = {
    ("dirac_reduction", "AdaptedChart.pushforward"): "the adapted chart and its rows were deleted: the "
    "[stratum | complement] splitting rows certify the same block structure",
    ("poisson_pencil", "degeneracy_profile"): "the four sigma_min sweeps over unit-circle parameters were "
    "deleted: the nilpotency rows certify the pencil's whole Jordan type, N^2 = 0",
}


def test_every_traced_name_resolves(probe):
    names = list(probe.SPANS) + OTHER_HOOKS
    found = {(module, path) for module, path in names if probe._lookup(MODULES[module], path) is not None}
    assert set(RETIRED) <= set(probe.SPANS) and not set(RETIRED) & found
    assert [f"{module}.{path}" for module, path in names if (module, path) not in found | set(RETIRED)] == []


@pytest.mark.parametrize("cls", [orbit_charts.FormField])
def test_memo_fields_take_the_evaluator_first_and_call_it_once_per_stack(cls):
    # The probe counts memo misses by wrapping the first constructor argument;
    # a miss is one evaluator call on a stack not seen before, whole.
    calls = []

    def evaluator(c):
        calls.append(c.tolist())
        return c[:, :, None] * c[:, None, ::-1]

    field = cls(evaluator, 2)
    for coords in ([[0.1, 0.2]], [[0.1, 0.2]], [[0.3, 0.2]], [[0.1, 0.2]]):
        field(coords)
    assert calls == [[[0.1, 0.2]], [[0.3, 0.2]]]
    stack = [[0.5, 0.6], [0.1, 0.2], [0.5, 0.6], [0.7, 0.8]]
    value = field(stack)
    assert field(stack) is value
    assert calls[2:] == [stack]


def test_rows_wrapped_as_the_probe_wraps_them_give_the_same_report():
    # The probe replaces every REGISTRY entry in place with
    # dataclasses.replace(spec, fn=wrapper); the report must not notice.
    path = pathlib.Path(__file__).resolve().parent.parent / "configs" / "su2_sphere.json"
    plain = workbench.run_pipeline(workbench.load_config(path)).to_json()
    registry, original, calls = workbench.REGISTRY, list(workbench.REGISTRY), []

    def wrap(fn, name):
        def wrapper(ctx):
            calls.append(name)
            return fn(ctx)
        return wrapper

    try:
        for i, spec in enumerate(registry):
            registry[i] = dataclasses.replace(spec, fn=wrap(spec.fn, spec.name))
        wrapped = workbench.run_pipeline(workbench.load_config(path)).to_json()
    finally:
        registry[:] = original
    assert wrapped == plain
    reported = {row["name"] for key in ("checks", "negative_controls") for row in json.loads(plain)[key]}
    assert calls == [spec.name for spec in original if spec.name in reported]  # each reported row ran wrapped
