"""Benchmark of `workbench verify`, end to end and layer by layer.

    python3 perfbench/run.py --workload reduce_su4 --seed 0 --seconds 58 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 58 --trace 0

Run it from the root of a checkout.  It runs the checkout's own ``src`` tree;
nothing needs to be installed or built.

Each verify is a fresh process (``perfbench/probe.py``, which calls the
``workbench`` entry point), started only after the previous one exited: a
closed loop with one client.  BLAS is pinned to one thread, which never
exceeds ``nproc``: the program's matrices are at most a few hundred rows, and
a second BLAS thread doubles a verify's CPU time without shortening it on
two cores.

Workloads (verify seeds are generated from ``--seed``; see ``generate_unit``):

* ``reduce_su4``  -- su(4) projective space, the only shipped nontrivial
  reduction with a non-empty transversal (h=4, p=8).  Loads ``lie_core``
  (invariant product spaces, kernel SVDs) and ``dirac_reduction`` splitting.
* ``trivial_su3`` -- regular su(3) orbit, a trivial reduction (h=0) with an
  8-dimensional slice bundle.  Loads the ``orbit_charts`` form and chart
  kernels and the restricted stage; ``lie_core`` work is negligible, so a
  ``lie_core`` cache should show no change here.
* ``sweep_small`` -- many short verifies over consecutive seeds: su2 sphere,
  su3 projective plane, the so(4) isoclinic edge case (non-abelian isotropy,
  empty transversal) and the su3 projective plane re-checking the single row
  ``pencil_jacobi_combined``.  Fixed per-process cost (``setup_s``) is a large
  share here, so work moved into set-up shows as a regression.

``BENCHMARK.json`` gates ``reduce_su4`` and ``sweep_small``.  ``trivial_su3``
runs by hand (and under ``--workload all``) but is not gated: on a shared
2-vCPU host its spread over ten runs exceeded the 0.25 bound.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
traces every verify and prints the per-layer metrics, and writes the spans
to ``.perfbench/trace-<workload>-<seed>.json``.  A run starts a unit only if
it would end within ``--seconds``, judged by the last unit's duration; the
first two units always run.  Every verify is checked:
exit code 0, verdict ``pass``, every row and control passing, the same row
names as the first verify of that config, and a byte-identical report when
the first (config, seed) is run again.  Untraced units add set-up-only probes
(``SETUPS_PER_UNIT``), which count in ``attempted`` and ``failed`` too.

Before every probe the benchmark times the host reference
(``perfbench/hostref.py``), a fixed job that runs no orbitpencil code.  The
gated times, ``verify_s`` and ``setup_s``, are host-normalised: the measured
median times ``REF_S`` over the run's median reference time, the seconds they
would take on a host that runs the reference in ``REF_S``.  The shared host
this was built on changes speed by up to 1.7x for minutes at a time, which
no number of samples inside a run removes; the reference slows down with it.
The raw wall medians and the reference times are printed as well.  The last
line of stdout is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
PROBE = Path(__file__).resolve().parent / "probe.py"
HOSTREF = Path(__file__).resolve().parent / "hostref.py"
WORK = ROOT / ".perfbench"
VERIFY_TIMEOUT_S = 150
# Untraced units are topped up with set-up-only probes to this many set-ups, so that setup_s is
# a median of several samples even where a run fits only three or four verifies.
SETUPS_PER_UNIT = 3
# Seconds the host reference takes at the speed the gated times are scaled to: about its median
# on the 2-vCPU Xeon VM the baseline was recorded on.
REF_S = 0.7

SO4_ISOCLINIC = {
    "algebra": {"family": "so", "n": 4},
    "seed_element": {"diag_spectrum": [1.0, 1.0]},
    "samples": 8,
    "seed": 0,
}

# (label, config, --checks); a config that is a dict is written to the work directory.
CONFIGS = {
    "su4_projective_space": ("configs/su4_projective_space.json", None),
    "su3_regular": ("configs/su3_regular.json", None),
    "su2_sphere": ("configs/su2_sphere.json", None),
    "su3_projective_plane": ("configs/su3_projective_plane.json", None),
    "so4_isoclinic": (SO4_ISOCLINIC, None),
    "su3_projective_plane/pencil_jacobi_combined": ("configs/su3_projective_plane.json", "pencil_jacobi_combined"),
}

# One unit = the verifies run for one generated seed.
WORKLOADS = {
    "reduce_su4": ["su4_projective_space"],
    "trivial_su3": ["su3_regular"],
    "sweep_small": ["su2_sphere", "su3_projective_plane", "so4_isoclinic",
                    "su3_projective_plane/pencil_jacobi_combined"],
}

STAGES = ["algebra", "orbit", "setup", "forms", "pencil", "splitting", "restricted",
          "brackets", "freeness", "degeneracy"]

# Spans reported as <name>.calls and <name>.ms.
COUNTED_SPANS = [
    "lie_core.invariant_product_space", "lie_core.kernel", "lie_core.span",
    "orbit_charts.Chart.point", "orbit_charts.Chart.pushforward",
    "orbit_charts.canonical_form_matrix", "orbit_charts.orbit_form_pullback_matrix",
    "orbit_charts.closedness_residual", "poisson_pencil.jacobi_residual",
    "dirac_reduction.AdaptedChart.pushforward", "dirac_reduction.splitting_orthogonality",
    "dirac_reduction.bracket_agreement", "dirac_reduction.slice_normal_form",
]
# Spans reported as <name>.ms only.
TIMED_SPANS = [
    "workbench.prepare_context", "families.build", "lie_core.complement_independence",
    "poisson_pencil.degeneracy_profile", "dirac_reduction.reduction_setup",
    "dirac_reduction.restricted_pencil",
]
COUNTERS = [
    "orbit_charts.dexp_apply.calls", "orbit_charts.FormField.calls", "orbit_charts.FormField.misses",
    "poisson_pencil.PoissonField.calls", "poisson_pencil.PoissonField.misses",
    "dirac_reduction.slice_normal_form.iters",
    "kernels.svd.calls", "kernels.expm.calls", "kernels.lstsq.calls",
]
# ratio name -> (numerator counter, denominator counter); the ratio is 1 - num/den for hit
# ratios and num/den for the acceptance ratio.
HIT_RATIOS = {
    "orbit_charts.pushforward_hit_ratio": ("orbit_charts.Chart.pushforward.misses",
                                           "orbit_charts.Chart.pushforward.calls"),
    "orbit_charts.form_memo_hit_ratio": ("orbit_charts.FormField.misses", "orbit_charts.FormField.calls"),
    "poisson_pencil.memo_hit_ratio": ("poisson_pencil.PoissonField.misses",
                                      "poisson_pencil.PoissonField.calls"),
}
ACCEPT_RATIO = ("dirac_reduction.sample_regular_coords.accept_ratio",
                "dirac_reduction.sample_regular_coords.accepted",
                "dirac_reduction.sample_regular_coords.draws")


def end_to_end_metrics() -> list[tuple[str, str]]:
    """(name, unit) of the gated end-to-end metrics, in output order."""
    return [("verify_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in output order."""
    out = [("cli.import.ms", "ms", "lower")]
    out += [(f"workbench.stage.{stage}.ms", "ms", "lower") for stage in STAGES]
    out += [(f"{name}.ms", "ms", "lower") for name in TIMED_SPANS]
    for name in COUNTED_SPANS:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.ms", "ms", "lower")]
    out += [(name, "count", "lower") for name in COUNTERS]
    out += [(name, "ratio", "higher") for name in HIT_RATIOS]
    out += [(ACCEPT_RATIO[0], "ratio", "higher"), ("trace.overhead_s", "s", "lower")]
    return out


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verify:
    label: str
    seed: int


def base_seed(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 1_000_000


def generate_unit(workload: str, seed: int, index: int) -> list[Verify]:
    """Unit ``index`` runs every config of the workload at verify seed base + index."""
    base = base_seed(workload, seed)
    return [Verify(label, base + index) for label in WORKLOADS[workload]]


def config_path(label: str) -> Path:
    config, _ = CONFIGS[label]
    if isinstance(config, dict):
        path = WORK / f"{label.replace('/', '_')}.json"
        path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        return path
    return ROOT / config


# ---------------------------------------------------------------------------
# One verify
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    verify: Verify
    run_id: int
    traced: bool
    exit_code: int
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    sidecar: dict
    setup_only: bool = False
    failures: list = field(default_factory=list)


class _Timeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Timeout()


def child_env(sidecar: Path, traced: bool, setup_only: bool = False) -> dict:
    env = dict(os.environ)
    # An installed tool imports from cached bytecode; warm_up writes the cache under src/.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PERFBENCH_SIDECAR": str(sidecar),
        "PERFBENCH_TRACE": "1" if traced else "0",
        "PERFBENCH_SETUP_ONLY": "1" if setup_only else "0",
    })
    return env


def run_verify(verify: Verify, run_id: int, traced: bool, setup_only: bool = False) -> Outcome:
    """One probe process; with ``setup_only`` it exits when ``prepare_context`` returns."""
    _, checks = CONFIGS[verify.label]
    argv = [sys.executable, str(PROBE), "verify", "--config", str(config_path(verify.label)),
            "--seed", str(verify.seed)]
    if checks:
        argv += ["--checks", checks]
    sidecar = WORK / f"sidecar-{os.getpid()}.json"
    out_path, err_path = WORK / f"stdout-{os.getpid()}", WORK / f"stderr-{os.getpid()}"
    sidecar.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(sidecar, traced, setup_only),
                                cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(VERIFY_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        data = json.loads(sidecar.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        data = {}
    done = data.get("setup_done")
    return Outcome(
        verify=verify, run_id=run_id, traced=traced, exit_code=proc.returncode,
        wall_s=end - start, setup_s=None if done is None else done - start,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(), stderr=err_path.read_bytes(), sidecar=data, setup_only=setup_only,
    )


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


class Gate:
    """Verdicts, row-name sets and byte-identical repeats across one workload run."""

    def __init__(self):
        self.first_rows: dict[str, frozenset] = {}

    def check(self, outcome: Outcome, repeat_of: Outcome | None = None) -> list[str]:
        failures = []
        if outcome.exit_code != 0:
            failures.append(f"exit code {outcome.exit_code}")
        if outcome.setup_s is None:
            failures.append("workbench.prepare_context never returned")
        if outcome.setup_only:
            if outcome.stdout:
                failures.append("set-up probe wrote a report")
            outcome.failures = failures
            return failures
        try:
            report = json.loads(outcome.stdout)
        except ValueError:
            report = None
        if not isinstance(report, dict):
            failures.append("stdout is not a JSON report")
        else:
            if report.get("verdict") != "pass":
                failures.append(f"verdict {report.get('verdict')!r}")
            rows = list(report.get("checks", [])) + list(report.get("negative_controls", []))
            failing = [row.get("name") for row in rows if row.get("pass") is not True]
            if failing:
                failures.append(f"rows not passing: {failing}")
            names = frozenset(row.get("name") for row in rows)
            first = self.first_rows.setdefault(outcome.verify.label, names)
            if names != first:
                failures.append(f"row names differ from the first {outcome.verify.label} run: "
                                f"{sorted(names ^ first)}")
        if repeat_of is not None and outcome.stdout != repeat_of.stdout:
            failures.append(f"repeat of {outcome.verify} is not byte-identical")
        outcome.failures = failures
        return failures


# ---------------------------------------------------------------------------
# Workload run
# ---------------------------------------------------------------------------


@dataclass
class WorkloadRun:
    workload: str
    seed: int
    traced: bool
    outcomes: list = field(default_factory=list)   # every verify, in order
    units: list = field(default_factory=list)      # outcomes per unit, unit 0 twice
    setups: list = field(default_factory=list)     # set-up-only probes (untraced runs)
    host_ref_s: list = field(default_factory=list)  # host_ref_s() before every probe
    baseline: Outcome | None = None                # untraced twin of the first verify (traced runs)
    elapsed_s: float = 0.0

    @property
    def timed(self) -> list[Outcome]:
        """The verifies of the timed loop, without the untraced twin."""
        return [o for o in self.outcomes if o is not self.baseline]

    @property
    def failed(self) -> list[Outcome]:
        return [o for o in self.outcomes + self.setups if o.failures]


def host_ref_s() -> float:
    """Wall seconds of one host reference process, spawn to exit, timed like a verify."""
    env = child_env(WORK / "hostref.json", traced=False)
    start = time.monotonic()
    done = subprocess.run([sys.executable, str(HOSTREF)], env=env, cwd=ROOT, capture_output=True,
                          timeout=VERIFY_TIMEOUT_S)
    elapsed = time.monotonic() - start
    if done.returncode != 0:
        raise RuntimeError(f"host reference exited {done.returncode}: {done.stderr.decode()[-500:]}")
    return elapsed


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> WorkloadRun:
    """Run units while the next one, as long as the last, ends within ``seconds``.

    Unit 0 runs twice, whatever ``seconds`` says, and must repeat byte for byte.

    A traced run first runs the first verify untraced, as the twin that gives the tracing
    overhead; tracing must not change a byte of the report either.  An untraced unit ends with
    set-up-only probes of its inputs until it has set up ``SETUPS_PER_UNIT`` times.  Every probe
    in the loop is preceded by a host reference, so the references sample the same stretches of
    time as the probes.
    """
    run = WorkloadRun(workload, seed, traced)
    gate = Gate()

    def probe(verify: Verify, run_id: int, traced: bool, setup_only: bool = False) -> Outcome:
        run.host_ref_s.append(host_ref_s())
        return run_verify(verify, run_id, traced, setup_only)

    if traced:
        run.baseline = run_verify(generate_unit(workload, seed, 0)[0], run_id=0, traced=False)
        gate.check(run.baseline)
        run.outcomes.append(run.baseline)
    start = time.monotonic()
    step = 0
    unit_s = 0.0
    while step < 2 or time.monotonic() - start + unit_s <= seconds:
        unit_start = time.monotonic()
        unit = generate_unit(workload, seed, max(step - 1, 0))
        reference = run.units[0] if step == 1 else [run.baseline] if step == 0 and traced else []
        done = []
        for position, verify in enumerate(unit):
            outcome = probe(verify, run_id=len(run.outcomes), traced=traced)
            gate.check(outcome, repeat_of=reference[position] if position < len(reference) else None)
            run.outcomes.append(outcome)
            done.append(outcome)
        run.units.append(done)
        for extra in range(0 if traced else SETUPS_PER_UNIT - len(unit)):
            outcome = probe(unit[extra % len(unit)], run_id=len(run.outcomes) + len(run.setups),
                            traced=False, setup_only=True)
            gate.check(outcome)
            run.setups.append(outcome)
        unit_s = time.monotonic() - unit_start
        step += 1
    run.elapsed_s = time.monotonic() - start
    return run


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float | None, float]:
    """The highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None, 0.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def per_config_median(outcomes: list[Outcome], value) -> float:
    """Median of value(outcome) for each config, then the mean over the workload's configs.

    Short verifies each fall inside one of the host's fast or slow phases, and a median per
    config keeps to the common one; a median over sweep_small's four-config mixture instead
    sits on a boundary between configs and jumps with the mix.
    """
    by_label: dict[str, list[float]] = {}
    for outcome in outcomes:
        sample = value(outcome)
        if sample is not None:
            by_label.setdefault(outcome.verify.label, []).append(sample)
    if not by_label:
        return float("nan")
    return statistics.fmean(statistics.median(samples) for samples in by_label.values())


def host_scale(run: WorkloadRun) -> float:
    """REF_S over the run's median host reference time: the factor that host-normalises a time."""
    return REF_S / statistics.median(run.host_ref_s)


def end_to_end(run: WorkloadRun) -> dict:
    """Gated metrics; the medians of verify and set-up wall times are host-normalised."""
    timed = run.timed
    scale = host_scale(run)
    return {
        "verify_s": per_config_median(timed, lambda o: o.wall_s) * scale,
        "setup_s": per_config_median(timed + run.setups, lambda o: o.setup_s) * scale,
        "peak_rss_mb": max(o.peak_rss_mb for o in timed),
    }


def certs_per_s(run: WorkloadRun) -> float:
    """Verifies that passed every gate, per second of the whole run.

    Printed, not gated: with one client in a closed loop it is the inverse of the mean verify
    time, which the host's bursty slowdowns move far more than the median in verify_s.
    """
    return sum(not o.failures for o in run.timed) / run.elapsed_s


def span_totals(trace: dict) -> tuple[dict, dict, dict]:
    """Per span name: call count, inclusive ms (outermost span of a name only) and self ms."""
    names, spans = trace["names"], trace["spans"]
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    child_ns = [0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for index, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + (end - start - child_ns[index]) / 1e6
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != nid:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start) / 1e6
    return calls, inclusive, self_ms


def unit_layers(outcomes: list[Outcome]) -> dict:
    """Per-layer totals over the verifies of one unit (without ratios)."""
    totals: dict[str, float] = {}

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    for outcome in outcomes:
        trace = outcome.sidecar.get("trace")
        if trace is None:
            continue
        add("cli.import.ms", outcome.sidecar.get("import_ms", 0.0))
        calls, inclusive, _ = span_totals(trace)
        for name, value in calls.items():
            add(name + ".calls", value)
        for name, value in inclusive.items():
            add(name + ".ms", value)
        for row, stage in trace["stages"].items():
            add(f"workbench.stage.{stage}.ms", inclusive.get("workbench.row." + row, 0.0))
        for name, value in trace["counts"].items():
            add(name, value)
    return totals


def ratios(totals: dict) -> dict:
    """Hit and acceptance ratios; 0 where a counter is absent or nothing was attempted."""
    out = {}
    for name, (miss, total) in HIT_RATIOS.items():
        out[name] = 1.0 - totals[miss] / totals[total] if miss in totals and totals.get(total) else 0.0
    name, num, den = ACCEPT_RATIO
    out[name] = totals[num] / totals[den] if num in totals and totals.get(den) else 0.0
    return out


def per_layer(run: WorkloadRun) -> dict:
    """Counts and ratios from unit 0 (exactly repeatable); times are medians over units."""
    units = [unit_layers(unit) for unit in run.units]
    first = units[0]
    metrics = {}
    for name, unit, _ in per_layer_metrics():
        if name == "trace.overhead_s":
            traced = [o.wall_s for o in run.outcomes if o.traced and o.verify == run.baseline.verify]
            metrics[name] = statistics.median(traced) - run.baseline.wall_s
        elif unit == "ms":
            metrics[name] = statistics.median(u.get(name, 0.0) for u in units)
        elif unit == "count":
            metrics[name] = int(first.get(name, 0))
    metrics.update(ratios(first))
    return metrics


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def environment(run: WorkloadRun) -> dict:
    env = dict(next((o.sidecar["env"] for o in run.outcomes if "env" in o.sidecar), {}))
    env.update({"workload": run.workload, "seed": run.seed, "base_verify_seed": base_seed(run.workload, run.seed),
                "loop": "closed, 1 client"})
    if run.host_ref_s:
        env["host_ref_s"] = {"median": statistics.median(run.host_ref_s), "min": min(run.host_ref_s),
                             "max": max(run.host_ref_s), "n": len(run.host_ref_s), "ref_s": REF_S}
    return env


def summarise(run: WorkloadRun, seconds: float) -> tuple[dict, list[str]]:
    """Metrics of one workload run plus the human-readable lines that precede the result."""
    timed = run.timed
    failed = run.failed
    lines = [f"== {run.workload} seed={run.seed} seconds={seconds:g} trace={int(run.traced)}",
             "env: " + json.dumps(environment(run), sort_keys=True)]
    for outcome in failed:
        lines.append(f"FAILED {outcome.verify.label} seed={outcome.verify.seed}: {'; '.join(outcome.failures)}")
        for line in outcome.stderr.decode(errors="replace").strip().splitlines()[-5:]:
            lines.append(f"    {line}")
    walls = [o.wall_s for o in timed]
    failed_verifies = sum(not o.setup_only for o in failed)
    lines.append(f"fail_rate      {failed_verifies / len(run.outcomes):.4f}  "
                 f"({failed_verifies} of {len(run.outcomes)} verifies failed, "
                 f"{len(failed) - failed_verifies} of {len(run.setups)} set-up probes; gated as correct/failed)")
    if not run.traced:
        metrics = end_to_end(run)
        units = dict(end_to_end_metrics())
        configs = len(WORKLOADS[run.workload])
        per_config = f"median per config over {len(walls)} verifies, mean of {configs} configs"
        setups = (f"median per config over {len(walls) + len(run.setups)} set-ups "
                  f"({len(run.setups)} set-up-only), mean of {configs} configs")
        samples = {"verify_s": per_config, "setup_s": setups, "peak_rss_mb": f"max of {len(walls)} verifies"}
        scale = host_scale(run)
        lines.append(f"host_ref_s     {REF_S / scale:.6g} s  (median of {len(run.host_ref_s)} references; "
                     f"gated times are wall medians x {REF_S:g} s / this)")
        for name, value in metrics.items():
            wall = f"wall {value / scale:.6g} s, host-normalised; " if name in ("verify_s", "setup_s") else ""
            lines.append(f"{name:14s} {value:.6g} {units[name]}  ({wall}{samples[name]})")
        lines.append(f"certs_per_s    {certs_per_s(run):.6g} 1/s  "
                     f"({sum(not o.failures for o in timed)} passed in {run.elapsed_s:.1f} s; not gated)")
        value, pct = tail(walls)
        lines.append(f"verify_s_tail  p{pct:.0f} = {value:.6g} s  (n={len(walls)}; not gated)" if value is not None
                     else f"verify_s_tail  n/a  (n={len(walls)}; needs at least 11 samples for ten beyond it)")
        return metrics, lines
    metrics = per_layer(run)
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    absent = sorted({a for o in timed for a in o.sidecar.get("trace", {}).get("absent", [])})
    lines.append(f"traced verify_s median {statistics.median(walls):.6g} s, untraced twin "
                 f"{run.baseline.wall_s:.6g} s, overhead {metrics['trace.overhead_s']:.4g} s")
    lines.append("absent names: " + (", ".join(absent) if absent else "none"))
    for outcome in timed:
        totals = unit_layers([outcome])
        r = ratios(totals)
        lines.append(f"  verify {outcome.verify.label} seed={outcome.verify.seed}: {outcome.wall_s:.3f} s, "
                     f"form_memo_hit_ratio {r['orbit_charts.form_memo_hit_ratio']:.3f}, "
                     f"pushforward_hit_ratio {r['orbit_charts.pushforward_hit_ratio']:.3f}, "
                     f"svd {int(totals.get('kernels.svd.calls', 0))}, "
                     f"expm {int(totals.get('kernels.expm.calls', 0))}")
    for name, value in metrics.items():
        lines.append(f"{name:52s} {value:.6g} {units[name]}")
    return metrics, lines


def write_trace(run: WorkloadRun) -> Path:
    """Spans of every traced verify, (name, start ms, end ms, parent, run id), and self times."""
    runs = []
    self_total: dict[str, float] = {}
    for outcome in run.outcomes:
        trace = outcome.sidecar.get("trace")
        if trace is None:
            continue
        names = trace["names"]
        origin = min((s[1] for s in trace["spans"]), default=0)
        _, inclusive, self_ms = span_totals(trace)
        for name, value in self_ms.items():
            self_total[name] = self_total.get(name, 0.0) + value
        runs.append({
            "run_id": outcome.run_id, "label": outcome.verify.label, "verify_seed": outcome.verify.seed,
            "wall_s": outcome.wall_s, "counts": trace["counts"], "absent": trace["absent"],
            "report_timing_ms": trace["report_timing"], "inclusive_ms": inclusive, "self_ms": self_ms,
            "spans": [[names[nid], (start - origin) / 1e6, (end - origin) / 1e6, parent, outcome.run_id]
                      for nid, start, end, parent in trace["spans"]],
        })
    path = WORK / f"trace-{run.workload}-{run.seed}.json"
    payload = {"env": environment(run), "self_ms_total": dict(sorted(self_total.items(), key=lambda kv: -kv[1])),
               "runs": runs}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def check_checkout() -> str | None:
    needed = {"src/orbitpencil/cli.py"} | {config for config, _ in CONFIGS.values() if isinstance(config, str)}
    missing = sorted(path for path in needed if not (ROOT / path).is_file())
    if missing:
        return f"not the root of an orbitpencil checkout; missing {missing}"
    return None


def warm_up() -> None:
    """Compile the package's bytecode and load numpy/scipy once, as an installed tool would have."""
    env = child_env(WORK / "warmup.json", traced=False)
    code = "import orbitpencil.cli, sys; sys.stdout.write(orbitpencil.cli.__file__)"
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                          timeout=VERIFY_TIMEOUT_S)
    location = Path(done.stdout.decode().strip() or "?")
    if done.returncode != 0 or not location.resolve().is_relative_to((ROOT / "src").resolve()):
        raise RuntimeError(f"cannot import orbitpencil from {ROOT / 'src'}: {done.stderr.decode()[-500:]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = check_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        warm_up()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    result_metrics = {}
    units = {name: unit for name, unit in end_to_end_metrics()}
    units.update({name: unit for name, unit, _ in per_layer_metrics()})
    for workload in workloads:
        run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        metrics, lines = summarise(run, args.seconds)
        if run.traced:
            lines.append(f"trace written to {write_trace(run).relative_to(ROOT)}")
        print("\n".join(lines), flush=True)
        attempted += len(run.outcomes) + len(run.setups)
        failed += len(run.failed)
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for name, value in metrics.items():
            result_metrics[prefix + name] = {"value": value, "unit": units[name]}
    for leftover in WORK.glob(f"*-{os.getpid()}*"):
        leftover.unlink()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
