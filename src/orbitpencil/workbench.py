"""Configuration, check registry, pipeline orchestration and reports.

A run is fully determined by (configuration, master seed): every random
draw comes from a stream keyed by a stage label and sample index, so the
numbers do not depend on which checks are selected and the JSON report is
byte-identical across reruns.  Wall-clock timings are kept out of the JSON
for that reason; the text rendering shows them.

Checks run one after another on a shared :class:`PipelineContext`.  Data
that several rows read (the block structure of the splitting) is computed
by the first row that needs it and kept on the context for the rest of the
run.  What the setup computes anyway (the span [x0, k]) and the two pencils
(:class:`dirac_reduction.ChartPencil`, one on the ambient chart and one on
the sub chart) are read from ``ctx.setup`` and ``ctx.data``.  Sample-point
rows evaluate the two coordinate stacks whole, ``ctx.ambient_coords`` and
``ctx.regular_coords`` (padded for the ambient chart), and slice the rows
they report.

Every selected row runs on its own: a row that raises becomes one entry of
the report's ``errors``, and the next row still runs.  A stage build that
raises a :class:`WorkbenchError` leaves its object and the later ones unbuilt,
and reading one raises that error again, so it fails exactly the rows that
read them.  A :class:`ConfigError` (the caller's input) propagates.

A claim that a construction guard refuses at the same bound, or that
another row certifies, gets no row: the algebra's identities
(:func:`lie_core.algebra_from_matrices`), the setup identities
(:func:`dirac_reduction.reduction_setup`), the slice normalisation
(:func:`dirac_reduction.slice_normal_form`), the independence of
complement + h from the invariant product (h is the isotropy algebra of a
regular point, so the action spans of ``action_complement_independence``
read it) and the Jacobi identity of one inverse form, which is the
closedness of that form (``pencil_jacobi_combined`` stays while the
benchmark's ``sweep_small`` selects it).

Check rows carry a short ``anchor`` sentence stating the mathematical
claim being certified, a ``mode`` saying whether the value is an upper
("max") or lower ("min") bounded quantity, and its tolerance.  Negative
controls assert that a deliberately broken input lands beyond a rejection
threshold; the run verdict requires every positive check to pass and every
control to fail as designed.
"""

import json
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dirac_reduction as dr
from . import families
from . import lie_core as lc
from . import orbit_charts as oc
from . import poisson_pencil as pp
from .errors import ConfigError, DomainError, WorkbenchError
from .seeding import unit_rows

_FAMILY_LIMITS = {"su": (2, 5), "so": (3, 5)}
MAX_SAMPLES = 400  # memory grows with samples: about 4 MB per sample on su(5)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


class WorkbenchConfig(NamedTuple):
    """The settings of one run, an immutable record: the command line overrides ``seed`` and ``checks`` by
    ``_replace``, and :func:`validate_config` returns the parsed record."""

    algebra: dict
    seed_element: dict
    samples: int = 10
    seed: int = 0
    checks: object = "all"


def _is_number(value) -> bool:
    """A JSON number as it is: a bool or a string is no number, so it is never read as 0/1 or parsed."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _complex_entry(entry) -> complex:
    """An [re, im] pair of JSON numbers as it is: another length, a bool or a string is refused, not cut or parsed."""
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2 and all(_is_number(x) for x in entry)):
        raise ConfigError(f"custom matrix entries must be [re, im] pairs of numbers, got {entry!r}")
    return complex(entry[0], entry[1])


def _parse_complex_matrices(mats):
    """One (k, rows, cols) stack: ragged rows or matrices of unequal size are refused, not padded."""
    try:
        return np.asarray([[[_complex_entry(entry) for entry in row] for row in rows] for rows in mats])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"custom matrices must be equal-size nests of [re, im] pairs: {exc}") from exc


def encode_complex_matrix(mat: np.ndarray) -> list:
    """Row-major nesting with [re, im] entries, the wire format for matrices."""
    return [[[float(np.real(e)), float(np.imag(e))] for e in row] for row in np.asarray(mat, dtype=complex)]


def _integer(value) -> int:
    """A JSON integer as it is: a float, a string or a bool is refused, not rounded or parsed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _checks(value):
    """"all" or a list (or tuple) of check names, as a list."""
    if isinstance(value, str) and value == "all":
        return value
    if not isinstance(value, (list, tuple)) or not all(isinstance(n, str) for n in value):
        raise TypeError(f"expected 'all' or a list of check names, got {value!r}")
    return list(value)


# Conversion of each field into its WorkbenchConfig value, applied by validate_config to
# every configuration, read from JSON or built in Python; a parsed value parses unchanged.
# Fields absent from the JSON take the defaults of WorkbenchConfig.
_FIELD_PARSERS = {
    "algebra": lambda v: v,
    "seed_element": lambda v: v,
    "samples": _integer,
    "seed": _integer,
    "checks": _checks,
}


def config_from_dict(raw: dict) -> WorkbenchConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(raw) - set(_FIELD_PARSERS)
    if unknown:
        raise ConfigError(f"unknown configuration fields: {sorted(unknown)}")
    for required in ("algebra", "seed_element"):
        if required not in raw:
            raise ConfigError(f"missing required field '{required}'")
    return validate_config(WorkbenchConfig(**raw))


def validate_config(cfg: WorkbenchConfig) -> WorkbenchConfig:
    """The record with every field parsed by the JSON reader's rules, after checking the values together: a
    configuration built in Python runs and is echoed as the same one read from JSON.  A refused value raises
    ConfigError; ``cfg`` itself is left as it is."""
    parsed = {}
    for name, parse in _FIELD_PARSERS.items():
        try:
            parsed[name] = parse(getattr(cfg, name))
        except (TypeError, ValueError, IndexError, OverflowError) as exc:
            raise ConfigError(f"malformed value for '{name}': {exc}") from exc
    cfg = cfg._replace(**parsed)
    # The report echoes the configuration as JSON, which has no NaN, no infinity and no numpy array.
    try:
        json.dumps(cfg._asdict(), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"configuration holds a value a JSON report cannot echo: {exc}") from exc
    if not 8 <= cfg.samples <= MAX_SAMPLES:
        raise ConfigError(f"samples must be between 8 and {MAX_SAMPLES}")
    if cfg.seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    alg_spec = cfg.algebra
    if not isinstance(alg_spec, dict) or len({"family", "custom"} & set(alg_spec)) != 1:
        raise ConfigError("algebra must be an object giving exactly one of a family or a custom basis")
    if "family" in alg_spec:
        fam = alg_spec.get("family")
        if not isinstance(fam, str) or fam not in _FAMILY_LIMITS:
            raise ConfigError(f"unknown algebra family '{fam}'")
        lo, hi = _FAMILY_LIMITS[fam]
        n = alg_spec.get("n")
        if not isinstance(n, int) or not (lo <= n <= hi):
            raise ConfigError(f"{fam}(n) supports {lo} <= n <= {hi}")
    elif not isinstance(alg_spec["custom"], list) or not alg_spec["custom"]:
        raise ConfigError("custom algebra needs a nonempty list of basis matrices")
    unknown = set(alg_spec) - ({"family", "n"} if "family" in alg_spec else {"custom", "name"})
    if unknown:
        raise ConfigError(f"unknown algebra keys: {sorted(unknown)}")
    se = cfg.seed_element
    if not isinstance(se, dict) or len({"diag_spectrum", "coeffs"} & set(se)) != 1:
        raise ConfigError("seed_element must give exactly one of diag_spectrum or coeffs")
    unknown = set(se) - {"diag_spectrum", "coeffs"}
    if unknown:
        raise ConfigError(f"unknown seed_element keys: {sorted(unknown)}")
    entries = se.get("diag_spectrum", se.get("coeffs"))
    if not isinstance(entries, (list, tuple)) or not all(_is_number(x) for x in entries):
        raise ConfigError(f"seed_element entries must be a flat list of numbers, got {entries!r}")
    try:
        spec = np.asarray(entries, dtype=float)
    except OverflowError as exc:
        raise ConfigError(f"seed_element entries must be numbers: {exc}") from exc
    if "diag_spectrum" in se:
        if "custom" in alg_spec:
            raise ConfigError("diag_spectrum needs a built-in family; give a custom algebra's seed as coeffs")
        if spec.size == 0:
            raise ConfigError("diag_spectrum is empty")
        if alg_spec.get("family") == "so":
            if np.allclose(spec, 0.0):
                raise ConfigError("diag_spectrum is degenerate: all rotation angles vanish")
        elif np.allclose(spec - np.mean(spec), 0.0):
            raise ConfigError("diag_spectrum is degenerate: all entries equal")
    if cfg.checks != "all":
        if not cfg.checks:
            raise ConfigError("checks must name at least one check")
        names = {spec.name for spec in REGISTRY}
        unknown = set(cfg.checks) - names
        if unknown:
            raise ConfigError(f"unknown checks: {sorted(unknown)}")
    return cfg


def load_config(path) -> WorkbenchConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON (line {exc.lineno}, col {exc.colno})") from exc
    except RecursionError:
        raise ConfigError("configuration nests too deeply to parse") from None
    return config_from_dict(raw)


def build_algebra(cfg: WorkbenchConfig) -> lc.LieAlgebra:
    spec = cfg.algebra
    if "family" in spec:
        return families.su(spec["n"]) if spec["family"] == "su" else families.so(spec["n"])
    mats = _parse_complex_matrices(spec["custom"])
    try:
        return lc.algebra_from_matrices(spec.get("name", "custom"), mats)
    except WorkbenchError as exc:
        raise ConfigError(f"custom basis rejected: {exc}") from exc


def build_seed(cfg: WorkbenchConfig, alg: lc.LieAlgebra) -> np.ndarray:
    se = cfg.seed_element
    try:
        if "diag_spectrum" in se:
            return families.diagonal_seed(alg, se["diag_spectrum"])
        coeffs = np.asarray(se["coeffs"], dtype=float)
        if coeffs.shape != (alg.dim,):
            raise ConfigError(f"coeffs must have length {alg.dim}")
        return coeffs
    except WorkbenchError as exc:
        raise ConfigError(f"seed element rejected: {exc}") from exc


# ---------------------------------------------------------------------------
# Pipeline context
# ---------------------------------------------------------------------------


class PipelineContext:
    """Everything the rows read, built once by :func:`prepare_context`, and the objects rows share.

    Reading a stage object that was never built raises the first build error, ``failure``."""

    __slots__ = ("config", "alg", "orbit", "setup", "data", "ambient_coords", "regular_coords", "failure", "_shared")

    def __init__(self, config: WorkbenchConfig, alg: lc.LieAlgebra, orbit: oc.OrbitConfig):
        self.config, self.alg, self.orbit = config, alg, orbit
        self.failure, self._shared = None, {}

    def __getattr__(self, name):  # called only for a slot that was never set
        raise (self.failure or AttributeError(name)).with_traceback(None)

    def once(self, compute):
        """compute(self), evaluated on first request and shared for the rest of the run.

        ``compute`` is the key, so pass a module-level function, never a
        fresh lambda.
        """
        if compute not in self._shared:
            self._shared[compute] = compute(self)
        return self._shared[compute]


def prepare_context(cfg: WorkbenchConfig) -> PipelineContext:
    """Build the stage objects in order; the first WorkbenchError stops the builds and is kept as ``failure``."""
    alg = build_algebra(cfg)
    seed_elt = build_seed(cfg, alg)
    try:
        orbit = oc.orbit_config(alg, seed_elt)
    except DomainError as exc:  # e.g. a central seed, whose orbit is a point
        raise ConfigError(f"seed element rejected: {exc}") from exc
    ctx = PipelineContext(cfg, alg, orbit)
    try:
        ctx.setup = dr.reduction_setup(orbit, samples=cfg.samples, seed=cfg.seed)
        ctx.data = dr.restricted_pencil(ctx.setup, ctx.setup.x0)
        ctx.ambient_coords = ctx.data.ambient_chart.sample(cfg.seed, "ambient-points", cfg.samples)
        ctx.regular_coords = dr.sample_regular_coords(ctx.setup, ctx.data, cfg.samples, cfg.seed)
    except WorkbenchError as exc:
        ctx.failure = exc
    return ctx


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


# The package's one dataclass: perfbench/probe.py rewraps each row's fn with dataclasses.replace.
@dataclass(frozen=True)
class CheckSpec:
    name: str
    anchor: str
    tolerance: float
    mode: str          # "max": pass if value <= tol; "min": pass if value >= tol
    kind: str          # "check" or "control"
    stage: str
    fn: object


class CheckResult(NamedTuple):
    name: str
    anchor: str
    residual: float
    tolerance: float
    mode: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "mode": self.mode,
            "pass": self.passed,
        }

    def to_text(self) -> str:
        """The row's line in the text report, under the header of :meth:`ReductionReport.to_text`."""
        verdict = "pass" if self.passed else "FAIL"
        return f"{self.name:38s} {self.mode:4s} {self.residual:13.4e} {self.tolerance:10.1e} {verdict:>8s}"


def _orbit_splitting(ctx):
    orbit = ctx.orbit
    moved = ctx.alg.ads(orbit.stabilizer.basis) @ orbit.seed  # row j is [k_j, a]
    return max(float(np.linalg.norm(row)) for row in moved)


def _exactness(chart, seed, label, count):
    """Max |pushforward - central differences of the point| over ``count`` sampled coordinates."""
    coords = chart.sample(seed, label, count)
    fd = oc.central_partials(lambda c: chart.point(c).reshape(len(c), -1), coords, 1e-5)
    return float(np.max(np.abs(chart.pushforward(coords) - fd.mT)))


def _chart_exactness(ctx):
    # Each chart a row reads: the ambient chart and the sub chart of the restricted rows.
    cfg = ctx.config
    return max(_exactness(ctx.data.ambient_chart, cfg.seed, "chart-exactness", min(cfg.samples, 10)),
               _exactness(ctx.data.sub_chart, cfg.seed, "sub-chart-exactness", min(cfg.samples, 3)))


def _spectrum_preservation(ctx):
    chart = ctx.data.ambient_chart
    coords = chart.sample(ctx.config.seed, "spectrum-points", 100)
    return float(max(np.max(err) for err in oc.point_residuals(ctx.orbit, chart.point(coords))))


# Row factories over one pencil: ``chart(ctx)`` gives the (ChartPencil,
# coordinates) pair, _ambient or _restricted; ``members`` name its fields.


def _ambient(ctx):
    return ctx.data.ambient, ctx.ambient_coords


def _restricted(ctx):
    return ctx.data.restricted, ctx.regular_coords


def _closedness(chart, *members):
    def fn(ctx):
        pencil, coords = chart(ctx)
        return max(oc.closedness_residual(getattr(pencil, m), coords) for m in members)
    return fn


def _nondegeneracy(chart, *members):
    def fn(ctx):
        pencil, coords = chart(ctx)
        return min(float(np.min(np.linalg.svd(getattr(pencil, m)(coords), compute_uv=False)[:, -1]))
                   for m in members)
    return fn


def _jacobi(chart, *members):
    def fn(ctx):
        pencil, coords = chart(ctx)
        return max(pp.jacobi_residual(getattr(pencil, m), coords) for m in members)
    return fn


def _compatibility(chart):
    def fn(ctx):
        pencil, coords = chart(ctx)
        return pp.compatibility_residual(pencil.p1, pencil.p2, coords)
    return fn


def _nilpotency(chart):
    """Max over the stack of |N^2| / |N|^2 (Frobenius), N = P1 W2 - I = W1^-1 (W2 - W1); a zero N reads inf.

    N^2 = 0 is the pencil's whole Jordan type: t1 P1 + t2 P2 = ((t1 + t2) I + t1 N) P2 degenerates
    exactly on t1 + t2 = 0.  N is formed from the bivector P1 and the form W2 = P2^-1, not as
    P1 (W2 - W1), whose ratio a rescaled P1 leaves unchanged."""
    def fn(ctx):
        pencil, coords = chart(ctx)
        n = pencil.p1(coords) @ pencil.w2(coords) - np.eye(pencil.w2.dim)
        size = np.linalg.norm(n, axis=(-2, -1)) ** 2
        square = np.linalg.norm(n @ n, axis=(-2, -1))
        return np.max(np.divide(square, size, out=np.full_like(size, np.inf), where=size > 0))
    return fn


def _form_invariance(ctx):
    """Both forms on the ambient chart against the chart moved by R = Ad(e^zeta): the chart of the
    moved orbit record, base offset and frame, which maps each coordinate to R of its point, since
    Ad(g) Ad(e^xi) y = Ad(e^{Ad(g) xi}) Ad(g) y."""
    chart, orbit = ctx.data.ambient_chart, ctx.orbit
    zetas = 0.3 * unit_rows(ctx.config.seed, "form-invariance", range(3), ctx.alg.dim)
    w1, w2 = ctx.data.ambient.w1(ctx.ambient_coords), ctx.data.ambient.w2(ctx.ambient_coords)
    worst = 0.0
    for i, rot in enumerate(oc.exp_ad(ctx.alg, zetas)):
        moved_orbit = orbit._replace(seed=rot @ orbit.seed, stabilizer=lc.Subspace(rot @ orbit.stabilizer.basis),
                                     tangent=lc.Subspace(rot @ orbit.tangent.basis))
        moved = oc.Chart(moved_orbit, base_v=rot @ chart.base_v, frame=rot @ chart.frame)
        j = i % len(ctx.ambient_coords)
        coords = ctx.ambient_coords[j][None]
        worst = max(
            worst,
            float(np.max(np.abs(oc.canonical_form_matrix(moved, coords)[0] - w1[j]))),
            float(np.max(np.abs(oc.omega2_matrix(moved, coords)[0] - w2[j]))),
        )
    return worst


def _control_coords(ctx) -> np.ndarray:
    # Fixed alternating pattern: controls must trip for every seed.
    dim = ctx.data.ambient_chart.coord_dim
    return 0.09 * np.array([[1.0 if i % 2 == 0 else -1.0 for i in range(dim)]])


def _control_corrupted_closedness(ctx):
    # Replace one entry by a nonlinear function of a coordinate the entry
    # does not otherwise couple to; closedness must reject it.
    base = ctx.data.ambient.w1

    def corrupted(c):
        mat = np.array(base(c), copy=True)
        bump = np.sin(3.0 * c[..., 2])
        mat[..., 0, 1] += bump
        mat[..., 1, 0] -= bump
        return mat

    bad = oc.FormField(corrupted, base.dim)
    return oc.closedness_residual(bad, _control_coords(ctx))


def _corrupted_field(ctx) -> oc.FormField:
    base = ctx.data.ambient.p1

    def corrupted(c):
        mat = np.array(base(c), copy=True)
        bump = c[..., 2] * c[..., 3]
        mat[..., 0, 1] += bump
        mat[..., 1, 0] -= bump
        return mat

    return oc.FormField(corrupted, base.dim)


def _control_corrupted_jacobi(ctx):
    bad = _corrupted_field(ctx)
    return pp.jacobi_residual(bad, _control_coords(ctx))


def _splitting_blocks(ctx):
    # The coupling block is linear in the form: the generators W1, W2 certify every member t1 W1 + t2 W2.
    coords = ctx.data.pad_coords(ctx.regular_coords)
    forms = np.stack([ctx.data.ambient.w1(coords), ctx.data.ambient.w2(coords)], axis=1)
    return dr.splitting_orthogonality(ctx.setup, ctx.data.ambient_chart, coords, forms)


def _splitting_pairing(ctx):
    coupling, _, _ = ctx.once(_splitting_blocks)
    return np.max(coupling)


def _splitting_nondegeneracy(ctx):
    _, lead, trail = ctx.once(_splitting_blocks)
    return min(np.min(lead), np.min(trail))


def _action_complement_independence(ctx):
    points = ctx.data.sub_chart.point(ctx.regular_coords)[:3]
    return dr.complement_product_independence(ctx.setup, points, ctx.config.seed)


_BRACKET_WORDS = [("v", "v"), ("x", "x", "v", "v"), ("x", "v", "x", "v"), ("v", "v", "v", "v")]


def _bracket_agreement(ctx):
    fns = [dr.invariant_function(ctx.alg, w) for w in _BRACKET_WORDS]
    ambient, restricted = dr.bracket_agreement(ctx.setup, ctx.data, fns, ctx.regular_coords)
    return dr.relative_bracket_residual(ambient, restricted)


def _invariant_function_invariance(ctx):
    fns = [dr.invariant_function(ctx.alg, w) for w in _BRACKET_WORDS]
    point = ctx.data.sub_chart.point(ctx.regular_coords)[:1]
    rots = oc.exp_ad(ctx.alg, unit_rows(ctx.config.seed, "function-invariance", range(20), ctx.alg.dim))
    # x and v are rotated one vector at a time: a product over an (n, 2) block may round differently
    moved = np.stack([rots @ point[0, 0], rots @ point[0, 1]], axis=1)
    return max(float(np.max(np.abs(f(moved) - f(point)))) for f in fns)


def _local_freeness(ctx):
    return float(dr.isotropy_excess(ctx.setup, ctx.data.sub_chart.point(ctx.regular_coords)))


def _control_zero_section_isotropy(ctx):
    zero = np.stack([ctx.orbit.seed, np.zeros(ctx.alg.dim)])[None]
    return float(dr.isotropy_excess(ctx.setup, zero))


def _transversality(ctx):
    cfg, slice_basis = ctx.config, ctx.setup.slice_space.basis
    ys = unit_rows(cfg.seed, "slice-points", range(min(cfg.samples, 5)), slice_basis.shape[1]) @ slice_basis.T
    points = np.stack([np.broadcast_to(ctx.orbit.seed, ys.shape), ys], axis=1)
    regular = dr.is_regular(ctx.setup, points)
    if not np.any(regular):
        # a vacuous pass would be meaningless; report an audit failure
        return float(2 * ctx.setup.sub_tangent.dim)
    return float(max(0, dr.transversality_deficiency(ctx.setup, points[regular])))


def _control_zero_section_transversality(ctx):
    zero = np.stack([ctx.orbit.seed, np.zeros(ctx.alg.dim)])[None]
    return float(dr.transversality_deficiency(ctx.setup, zero))


def _slice_isometry(ctx):
    # random unit tangent vectors y against their slice normal forms z, normalised as one stack
    tangent = ctx.orbit.tangent
    ys = unit_rows(ctx.config.seed, "slice-normalization", range(ctx.config.samples), tangent.dim) @ tangent.basis.T
    zs = dr.slice_normal_form(ctx.setup, ys)[0]
    return max(abs(np.linalg.norm(z) - np.linalg.norm(y)) for y, z in zip(ys, zs))


REGISTRY: list[CheckSpec] = [
    CheckSpec("orbit_splitting", "stabilizer kernel and orbit tangent image split the algebra orthogonally", 1e-8, "max", "check", "orbit", _orbit_splitting),
    CheckSpec("chart_exactness", "chart derivatives match central finite differences", 1e-8, "max", "check", "orbit", _chart_exactness),
    CheckSpec("spectrum_preservation", "chart points keep the seed spectrum and tangent fibers", 1e-8, "max", "check", "orbit", _spectrum_preservation),
    CheckSpec("canonical_closedness", "canonical 2-form is closed", 1e-5, "max", "check", "forms", _closedness(_ambient, "w1")),
    CheckSpec("combined_closedness", "canonical plus pulled-back orbit form is closed", 1e-5, "max", "check", "forms", _closedness(_ambient, "w2")),
    CheckSpec("canonical_nondegeneracy", "canonical 2-form is nondegenerate at sampled points", 1e-6, "min", "check", "forms", _nondegeneracy(_ambient, "w1")),
    CheckSpec("combined_nondegeneracy", "combined 2-form is nondegenerate at sampled points", 1e-6, "min", "check", "forms", _nondegeneracy(_ambient, "w2")),
    CheckSpec("form_invariance", "both forms are invariant under the group action", 1e-8, "max", "check", "forms", _form_invariance),
    CheckSpec("control_corrupted_closedness", "corrupting one entry breaks closedness beyond the rejection bar", 1e-2, "min", "control", "forms", _control_corrupted_closedness),
    CheckSpec("pencil_jacobi_combined", "inverse of the combined form satisfies the Jacobi identity", 1e-5, "max", "check", "pencil", _jacobi(_ambient, "p2")),
    CheckSpec("pencil_compatibility", "the sum of the two inverse bivectors satisfies the Jacobi identity", 1e-5, "max", "check", "pencil", _compatibility(_ambient)),
    CheckSpec("control_corrupted_jacobi", "corrupting one bivector entry breaks the Jacobi identity", 1e-3, "min", "control", "pencil", _control_corrupted_jacobi),
    CheckSpec("splitting_pairing", "invariant forms pair action complement and regular stratum to zero", 1e-8, "max", "check", "splitting", _splitting_pairing),
    CheckSpec("splitting_nondegeneracy", "both restricted blocks of the splitting stay nondegenerate", 1e-6, "min", "check", "splitting", _splitting_nondegeneracy),
    CheckSpec("action_complement_independence", "the canonical complement is independent of the invariant product", 1e-8, "max", "check", "splitting", _action_complement_independence),
    CheckSpec("restricted_closedness", "restricted forms stay closed on the sub-orbit bundle", 1e-5, "max", "check", "restricted", _closedness(_restricted, "w1", "w2")),
    CheckSpec("restricted_nondegeneracy", "restricted forms stay nondegenerate on the sub-orbit bundle", 1e-6, "min", "check", "restricted", _nondegeneracy(_restricted, "w1", "w2")),
    CheckSpec("restricted_compatibility", "restricted inverse bivectors form a compatible pair", 1e-5, "max", "check", "restricted", _compatibility(_restricted)),
    CheckSpec("invariant_function_invariance", "trace-word functions are invariant under random conjugations", 1e-10, "max", "check", "brackets", _invariant_function_invariance),
    CheckSpec("bracket_agreement", "ambient and restricted pencil brackets agree on invariant functions", 1e-5, "max", "check", "brackets", _bracket_agreement),
    CheckSpec("local_freeness", "isotropy inside the centralizer never exceeds its center at regular points", 0.5, "max", "check", "freeness", _local_freeness),
    CheckSpec("control_zero_section_isotropy", "the zero section carries excess isotropy", 0.5, "min", "control", "freeness", _control_zero_section_isotropy),
    CheckSpec("transversality", "centralizer action plus slice fibers span the sub-orbit bundle tangent", 0.5, "max", "check", "freeness", _transversality),
    CheckSpec("control_zero_section_transversality", "the spanning audit fails on the zero section", 0.5, "min", "control", "freeness", _control_zero_section_transversality),
    CheckSpec("slice_isometry", "slice normalisation preserves norms", 1e-10, "max", "check", "freeness", _slice_isometry),
    CheckSpec("pencil_nilpotency", "the ambient recursion operator N squares to zero", 1e-8, "max", "check", "degeneracy", _nilpotency(_ambient)),
    CheckSpec("restricted_pencil_nilpotency", "the restricted recursion operator N squares to zero", 1e-8, "max", "check", "degeneracy", _nilpotency(_restricted)),
]


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


class ReductionReport(NamedTuple):
    config: dict
    dims: dict
    reduction: str  # "trivial" when the principal isotropy algebra vanishes
    checks: list
    negative_controls: list
    timing: dict
    verdict: str
    errors: list  # one {stage, check, type, message} per row that raised

    def to_dict(self) -> dict:
        out = {
            "config": self.config,
            "dims": self.dims,
            "reduction": self.reduction,
            "checks": [c.to_dict() for c in self.checks],
            "negative_controls": [c.to_dict() for c in self.negative_controls],
            "verdict": self.verdict,
        }
        if self.errors:
            out["errors"] = self.errors
        return out

    def to_json(self) -> str:
        # Timing is wall-clock noise and is deliberately left out so that
        # reruns with the same config and seed emit identical bytes.
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)

    def to_text(self) -> str:
        lines = []
        lines.append(f"verdict: {self.verdict}")
        lines.append(f"reduction: {self.reduction}")
        lines.append("dims: " + ", ".join(f"{k}={v}" for k, v in self.dims.items()))
        header = f"{'check':38s} {'mode':4s} {'residual':>13s} {'tolerance':>10s} {'verdict':>8s}"
        lines.append(header)
        lines.append("-" * len(header))
        lines += [row.to_text() for row in self.checks]
        if self.negative_controls:
            lines.append("negative controls (these must trip):")
            lines += [row.to_text() for row in self.negative_controls]
        lines += [f"error in {e['check']} (stage {e['stage']}): {e['type']}: {e['message']}" for e in self.errors]
        if self.timing:
            lines.append("timing (ms): " + ", ".join(f"{k}={v:.1f}" for k, v in self.timing.items()))
        return "\n".join(lines) + "\n"


def _finite(value) -> float:
    value = float(value)
    if not np.isfinite(value):
        # min-mode aggregates can be vacuously unbounded; clamp for JSON.
        return float(np.sign(value)) * 1e300
    return value


def run_pipeline(cfg: WorkbenchConfig) -> ReductionReport:
    """Run every selected check, each on its own, on the parsed record, and assemble the report.

    Raises ConfigError for invalid configurations.  A row that raises,
    itself or by reading a stage object whose build failed, becomes one
    entry of the report's ``errors`` and fails the run; the other rows
    still run.
    """
    cfg = validate_config(cfg)
    selected = set(s.name for s in REGISTRY) if cfg.checks == "all" else set(cfg.checks)
    t0 = time.perf_counter()
    ctx = prepare_context(cfg)
    timing = {"prepare": (time.perf_counter() - t0) * 1e3}

    finished: list[tuple[CheckSpec, CheckResult]] = []
    errors = []
    for spec in (s for s in REGISTRY if s.name in selected):
        start = time.perf_counter()
        try:
            value = _finite(spec.fn(ctx))
        except Exception as exc:  # fails this row and the run; the next row still runs
            errors.append({"stage": spec.stage, "check": spec.name, "type": type(exc).__name__, "message": str(exc)})
            continue
        timing[spec.stage] = timing.get(spec.stage, 0.0) + (time.perf_counter() - start) * 1e3
        passed = value <= spec.tolerance if spec.mode == "max" else value >= spec.tolerance
        finished.append((spec, CheckResult(spec.name, spec.anchor, value, spec.tolerance, spec.mode, passed)))

    try:
        dims, reduction = ctx.setup.dims(), "trivial" if ctx.setup.isotropy.dim == 0 else "nontrivial"
    except WorkbenchError:  # the setup itself failed
        dims, reduction = {}, "unknown"
    return ReductionReport(
        config=cfg._asdict(),
        dims=dims,
        reduction=reduction,
        checks=[r for s, r in finished if s.kind == "check"],
        negative_controls=[r for s, r in finished if s.kind == "control"],
        timing=timing,
        verdict="pass" if not errors and all(r.passed for _, r in finished) else "fail",
        errors=errors,
    )


def emit_report(report: ReductionReport, path, fmt: str = "json") -> None:
    if fmt not in ("json", "text"):
        raise ConfigError(f"unknown report format '{fmt}'")
    payload = report.to_json() if fmt == "json" else report.to_text()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
