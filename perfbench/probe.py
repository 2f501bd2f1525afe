"""One `workbench verify` in a process of its own, as the benchmark sees it.

    PYTHONPATH=src PERFBENCH_SIDECAR=out.json [PERFBENCH_TRACE=1 | PERFBENCH_SETUP_ONLY=1] \
        python3 perfbench/probe.py verify --config cfg.json --seed N [...]

The arguments go unchanged to ``orbitpencil.cli.main``, the function behind
the ``workbench`` entry point, so the report on stdout and the exit code are
those of the real command.  The probe adds, from outside the program:

* the moment ``workbench.prepare_context`` returns (``setup_done``, on the
  system-wide monotonic clock, so the parent can subtract its spawn time);
  with PERFBENCH_SETUP_ONLY=1 the process exits there with code 0, a set-up
  sample that costs no verify;
* with PERFBENCH_TRACE=1, spans and counters at the public functions of every
  layer (see ``attach``).  Spans are kept in memory and written at exit.

Everything goes to the JSON sidecar named by PERFBENCH_SIDECAR.  A wrapped
name that no longer exists is listed under ``absent`` instead of failing.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import sys
import time
from time import perf_counter_ns


class SetupDone(BaseException):
    """Ends a set-up-only probe; a BaseException, so the program's handlers let it through."""


class Tracer:
    """Spans [name id, start ns, end ns, parent index] and named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.stages: dict[str, str] = {}
        self.report_timing: dict | None = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, on_result=None):
        nid = self.name_id(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [nid, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count(self, name: str, fn, within: str | None = None):
        """Count calls of fn; with ``within``, only calls made directly inside that span."""
        counts, spans, stack = self.counts, self.spans, self.stack
        counts.setdefault(name, 0)
        if within is None:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            parent = self.name_id(within)

            def wrapper(*args, **kwargs):
                if stack and spans[stack[-1]][0] == parent:
                    counts[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": self.counts,
                "absent": self.absent, "stages": self.stages, "report_timing": self.report_timing}


def _lookup(root, path: str):
    """(owner, attribute) for a dotted path below root, or None if any part is gone."""
    owner = root
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1]


def _replace(tracer: Tracer, root, path: str, make) -> bool:
    """Swap root.path for make(original) and rebind every `from ... import` copy in orbitpencil."""
    found = _lookup(root, path)
    if found is None:
        tracer.absent.append(f"{root.__name__}.{path}")
        return False
    owner, attr = found
    original = getattr(owner, attr)
    wrapped = make(original)
    setattr(owner, attr, wrapped)
    if isinstance(owner, type(sys)):
        for name, module in list(sys.modules.items()):
            if name.startswith("orbitpencil") and module is not None:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
    return True


def _memo(tracer: Tracer, root, cls_name: str, prefix: str) -> None:
    """Count calls of a memoised field and, through its evaluator, its misses."""
    def make_init(init):
        def __init__(self, *args, **kwargs):
            if args:
                args = (tracer.count(prefix + ".misses", args[0]),) + args[1:]
            else:
                key = next(k for k, v in kwargs.items() if callable(v))
                kwargs[key] = tracer.count(prefix + ".misses", kwargs[key])
            init(self, *args, **kwargs)
        return __init__

    if _replace(tracer, root, cls_name + ".__init__", make_init):
        _replace(tracer, root, cls_name + ".__call__", lambda fn: tracer.count(prefix + ".calls", fn))


# Spans: (module, public name); the span is named "<module>.<name>".
SPANS = [
    ("lie_core", "invariant_product_space"),
    ("lie_core", "kernel"),
    ("lie_core", "span"),
    ("lie_core", "complement_independence"),
    ("orbit_charts", "Chart.point"),
    ("orbit_charts", "Chart.pushforward"),
    ("orbit_charts", "canonical_form_matrix"),
    ("orbit_charts", "orbit_form_pullback_matrix"),
    ("orbit_charts", "closedness_residual"),
    ("poisson_pencil", "jacobi_residual"),
    ("poisson_pencil", "degeneracy_profile"),
    ("dirac_reduction", "reduction_setup"),
    ("dirac_reduction", "restricted_pencil"),
    ("dirac_reduction", "AdaptedChart.pushforward"),
    ("dirac_reduction", "splitting_orthogonality"),
    ("dirac_reduction", "bracket_agreement"),
]

# Operation counts: numpy/scipy entry points the program calls through module attributes.
KERNELS = [("numpy.linalg", "svd", "kernels.svd.calls"),
           ("scipy.linalg", "expm", "kernels.expm.calls"),
           ("numpy.linalg", "lstsq", "kernels.lstsq.calls")]


def attach(tracer: Tracer) -> None:
    """Wrap the public functions of every layer but ``workbench.prepare_context``."""
    import numpy.linalg
    import scipy.linalg

    from orbitpencil import dirac_reduction, families, lie_core, orbit_charts, poisson_pencil, workbench

    modules = {"workbench": workbench, "lie_core": lie_core, "orbit_charts": orbit_charts,
               "poisson_pencil": poisson_pencil, "dirac_reduction": dirac_reduction}
    for module, path in SPANS:
        name = f"{module}.{path}"
        _replace(tracer, modules[module], path, lambda fn, name=name: tracer.span(name, fn))

    for path in ("su", "so", "diagonal_seed"):
        _replace(tracer, families, path, lambda fn: tracer.span("families.build", fn))

    def keep_timing(report):
        tracer.report_timing = getattr(report, "timing", None)

    _replace(tracer, workbench, "run_pipeline",
             lambda fn: tracer.span("workbench.run_pipeline", fn, keep_timing))

    registry = getattr(workbench, "REGISTRY", None)
    if registry is None:
        tracer.absent.append("orbitpencil.workbench.REGISTRY")
    else:
        for i, spec in enumerate(registry):
            tracer.stages[spec.name] = spec.stage
            registry[i] = dataclasses.replace(spec, fn=tracer.span("workbench.row." + spec.name, spec.fn))

    def slice_iters(result):
        if isinstance(result, tuple) and len(result) == 2:
            tracer.add("dirac_reduction.slice_normal_form.iters", result[1])

    _replace(tracer, dirac_reduction, "slice_normal_form",
             lambda fn: tracer.span("dirac_reduction.slice_normal_form", fn, slice_iters))
    _replace(tracer, dirac_reduction, "sample_regular_coords",
             lambda fn: tracer.span("dirac_reduction.sample_regular_coords", fn,
                                    lambda out: tracer.add("dirac_reduction.sample_regular_coords.accepted",
                                                           len(out))))
    _replace(tracer, dirac_reduction, "is_regular",
             lambda fn: tracer.count("dirac_reduction.sample_regular_coords.draws", fn,
                                     within="dirac_reduction.sample_regular_coords"))

    # Every Chart.pushforward miss, and nothing else inside that span, calls dexp_apply.
    _replace(tracer, orbit_charts, "dexp_apply",
             lambda fn: tracer.count("orbit_charts.Chart.pushforward.misses",
                                     tracer.count("orbit_charts.dexp_apply.calls", fn),
                                     within="orbit_charts.Chart.pushforward"))
    _memo(tracer, orbit_charts, "FormField", "orbit_charts.FormField")
    _memo(tracer, poisson_pencil, "PoissonField", "poisson_pencil.PoissonField")

    roots = {"numpy.linalg": numpy.linalg, "scipy.linalg": scipy.linalg}
    for root, path, counter in KERNELS:
        _replace(tracer, roots[root], path, lambda fn, counter=counter: tracer.count(counter, fn))


def environment() -> dict:
    """Versions and settings a measurement depends on."""
    import numpy
    import scipy

    def blas(config):
        dep = config.CONFIG.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__),
        "scipy_blas": blas(scipy.__config__),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def main(argv: list[str]) -> int:
    sidecar_path = os.environ["PERFBENCH_SIDECAR"]
    tracing = os.environ.get("PERFBENCH_TRACE") == "1"
    setup_only = os.environ.get("PERFBENCH_SETUP_ONLY") == "1"
    sidecar: dict = {"setup_done": None}

    start = perf_counter_ns()
    import orbitpencil.cli as cli
    sidecar["import_ms"] = (perf_counter_ns() - start) / 1e6

    from orbitpencil import workbench

    def setup_done(_ctx):
        sidecar["setup_done"] = time.monotonic()
        if setup_only:
            raise SetupDone()

    tracer = Tracer()
    _replace(tracer, workbench, "prepare_context",
             lambda fn: tracer.span("workbench.prepare_context", fn, setup_done))
    entry = cli.main
    if tracing:
        attach(tracer)
        entry = tracer.span("cli.main", cli.main)
    try:
        return entry(argv)
    except SetupDone:
        return 0
    finally:
        sidecar["env"] = environment()
        if tracing:
            sidecar["trace"] = tracer.dump()
        with open(sidecar_path, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
