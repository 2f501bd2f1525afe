"""Restriction of the invariant symplectic pencil to the regular stratum.

Given the orbit data for a seed a, a generic slice seed x0 in m determines
the principal isotropy algebra h = {y in k : [x0, y] = 0}.  Around h the
module assembles:

  * the normalizer n(h) and its orthocomplement p ("transversal"),
  * the centralizer of h (a compact subalgebra containing a), split into
    its stabilizer part and its moving part,
  * the slice: the orthocomplement of [x0, k] inside m, a linear section
    that commutes with h elementwise,
  * the center of the centralizer.

Points whose isotropy algebra equals h exactly are called regular.  At a
regular point the action vectors of p span a canonical complement of the
tangent space of the regular stratum (the kernel of the linearised action
of h, read on the chart pushforward), orthogonal to it for every invariant
nondegenerate 2-form; in the [stratum | complement] basis every such form
is therefore block diagonal, and its restriction to the stratum stays
nondegenerate.  Restricting both pencil forms to the sub-orbit bundle of
the centralizer then produces a pencil of its own, and brackets of
invariant functions computed ambiently or after restriction agree at
regular points.  All of this is certified numerically here.
"""

from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DegeneracyError,
    DomainError,
    GenericityError,
    InputError,
    SetupError,
)
from .lie_core import (
    LieAlgebra,
    Subspace,
    _lincomb,
    _rowwise,
    centralizer,
    complement_within,
    draw_invariant_products,
    fixed_vector_space,
    full_subspace,
    invariant_product_space,
    kernel,
    kernels,
    normalizer,
    orthogonal_complements,
    projector_distance,
    rank_mask,
    span,
    spans,
    subalgebra_residual,
    subspace_contains,
    subspace_sum,
)
from .orbit_charts import (
    Chart,
    FormField,
    OrbitConfig,
    ad_pairs,
    canonical_form_field,
    combined_form_field,
    conjugate,
    infinitesimal_action,
)
from .poisson_pencil import invert_form
from .seeding import unit_rows

REGULARITY_TOL = 1e-8
SLICE_TOL = 1e-8  # residual |[x0, k]^T z| at which slice_normal_form stops
SLICE_MAX_ITER = 200  # iterations slice_normal_form takes before it raises ConvergenceError


# ---------------------------------------------------------------------------
# Principal isotropy and setup
# ---------------------------------------------------------------------------


def stabilizer_within(alg: LieAlgebra, sub: Subspace, xs: np.ndarray) -> list[Subspace]:
    """{y in sub : [x, y] = 0} for each x of the (m, n) stack xs, in the coordinates of sub's basis:
    the kernels c of ad(x) restricted to sub, from one stacked SVD; span(sub.basis @ c.basis) is the
    stabilizer in the algebra."""
    return kernels(_lincomb(xs, alg.ad_basis) @ sub.basis)


def principal_isotropy(config: OrbitConfig, samples: int, seed: int):
    """Generic slice seed x0 in m and its stabilizer h inside k.

    Draws ``samples`` unit elements of m, keeps the first one whose
    stabilizer dimension matches the minimum, and re-checks the minimum on
    a doubled draw; a mismatch raises GenericityError.  The stabilizers of
    all 2 x samples draws are one stack; only the kept one is taken into the algebra.
    """
    if samples < 8:
        raise InputError("principal isotropy sampling needs at least 8 samples")
    xs = unit_rows(seed, "principal-isotropy", range(2 * samples), config.tangent.dim) @ config.tangent.basis.T
    stabs = stabilizer_within(config.alg, config.stabilizer, xs)
    dims = [s.dim for s in stabs]
    first_min, full_min = min(dims[:samples]), min(dims)
    if first_min != full_min:
        raise GenericityError(
            f"stabilizer dimension unstable under doubling ({first_min} vs {full_min}); raise samples"
        )
    first = dims.index(full_min)
    return xs[first], span(config.stabilizer.basis @ stabs[first].basis)


class ReductionSetup(NamedTuple):
    """All subalgebra data entering the restriction argument.

    Built once per run by :func:`reduction_setup`, which validates it with
    :func:`setup_residuals` and also keeps ``slice_normal``, the subspace the
    slice is normalised against, so that readers need not recompute it.
    """

    config: OrbitConfig
    x0: np.ndarray               # generic slice seed in m
    isotropy: Subspace           # h, principal isotropy algebra
    normalizer: Subspace         # n(h)
    transversal: Subspace        # p, orthocomplement of n(h)
    centralizer: Subspace        # all y with [y, h] = 0; contains the orbit seed
    sub_stabilizer: Subspace     # centralizer ^ k
    sub_tangent: Subspace        # orthocomplement of sub_stabilizer in the centralizer
    slice_normal: Subspace       # [x0, k], tangent to the k-orbit of x0
    slice_space: Subspace        # orthocomplement of [x0, k] inside m
    center: Subspace             # center of the centralizer

    @property
    def alg(self) -> LieAlgebra:
        return self.config.alg

    def dims(self) -> dict:
        return {
            "k": self.config.stabilizer.dim,
            "m": self.config.tangent.dim,
            "h": self.isotropy.dim,
            "n(h)": self.normalizer.dim,
            "p": self.transversal.dim,
            "g_hat": self.centralizer.dim,
            "k_hat": self.sub_stabilizer.dim,
            "m_hat": self.sub_tangent.dim,
            "slice": self.slice_space.dim,
            "z(g_hat)": self.center.dim,
        }


def _max_bracket_norm(alg: LieAlgebra, a: Subspace, b: Subspace) -> float:
    return float(np.max(np.linalg.norm(alg.ads(a.basis) @ b.basis, axis=1), initial=0.0))


def setup_residuals(setup: ReductionSetup) -> dict:
    """Residuals of every structural identity the setup is built on."""
    alg = setup.alg
    cfg = setup.config
    fixed_plus = subspace_sum(setup.centralizer, setup.isotropy)
    sub_moved = span(alg.ad(setup.x0) @ setup.sub_stabilizer.basis)
    slice_alt = complement_within(sub_moved, setup.sub_tangent)
    return {
        "isotropy_in_stabilizer": subspace_contains(cfg.stabilizer, setup.isotropy),
        "seed_commutes_with_isotropy": _max_bracket_norm(alg, span(setup.x0[:, None]), setup.isotropy),
        "slice_commutes_with_isotropy": _max_bracket_norm(alg, setup.slice_space, setup.isotropy),
        "slice_inside_sub_tangent": subspace_contains(setup.sub_tangent, setup.slice_space),
        "slice_matches_sub_complement": projector_distance(setup.slice_space, slice_alt),
        "orbit_seed_in_centralizer": setup.centralizer.residual(cfg.seed),
        "normalizer_splitting": projector_distance(
            subspace_sum(setup.transversal, setup.normalizer), full_subspace(alg.dim)
        ),
        "fixed_plus_isotropy_is_normalizer": projector_distance(fixed_plus, setup.normalizer),
        "centralizer_inside_normalizer": subspace_contains(setup.normalizer, setup.centralizer),
        "subalgebras_closed": max(
            subalgebra_residual(alg, s)
            for s in (setup.isotropy, setup.normalizer, setup.centralizer,
                      setup.sub_stabilizer, setup.center)
        ),
    }


# Bound of each setup identity in the guard of reduction_setup, the one check
# of these identities: no report row re-reads them.
SETUP_TOLERANCES = {
    "isotropy_in_stabilizer": 1e-10,
    "seed_commutes_with_isotropy": 1e-10,
    "slice_commutes_with_isotropy": 1e-10,
    "slice_inside_sub_tangent": 1e-8,
    "slice_matches_sub_complement": 1e-8,
    "orbit_seed_in_centralizer": 1e-10,
    "normalizer_splitting": 1e-10,
    "fixed_plus_isotropy_is_normalizer": 1e-8,
    "centralizer_inside_normalizer": 1e-10,
    "subalgebras_closed": 1e-10,
}


def reduction_setup(config: OrbitConfig, samples: int, seed: int) -> ReductionSetup:
    """Assemble and validate every subspace entering the restriction."""
    alg = config.alg
    x0, iso = principal_isotropy(config, samples=samples, seed=seed)
    norm = normalizer(alg, iso)
    transversal = kernel(norm.basis.T)
    cent = centralizer(alg, iso)
    seed_stab, = stabilizer_within(alg, cent, config.seed[None])
    sub_stab = span(cent.basis @ seed_stab.basis)
    sub_tan = complement_within(sub_stab, cent)
    slice_normal = span(alg.ad(x0) @ config.stabilizer.basis)
    slice_space = complement_within(slice_normal, config.tangent)
    center = fixed_vector_space(alg, cent, cent)
    setup = ReductionSetup(
        config=config,
        x0=x0,
        isotropy=iso,
        normalizer=norm,
        transversal=transversal,
        centralizer=cent,
        sub_stabilizer=sub_stab,
        sub_tangent=sub_tan,
        slice_normal=slice_normal,
        slice_space=slice_space,
        center=center,
    )
    for name, value in setup_residuals(setup).items():
        if value > SETUP_TOLERANCES[name]:
            raise SetupError(f"setup identity '{name}' failed with residual {value:.3e}")
    return setup


# ---------------------------------------------------------------------------
# Slice normalisation
# ---------------------------------------------------------------------------


def orbit_hessian(alg: LieAlgebra, basis: np.ndarray, z: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """<[k_a, [k_b, z]], x0> over the columns k_a of ``basis`` K, as one contraction per leading index of z:
    K^T (C x0) (K^T C_z)^T, C x0 and C_z the structure constants contracted in the last and middle slot;
    C is antisymmetric in its first two slots, so C_z is minus z contracted in the first."""
    moved = -(basis.T @ _lincomb(z, alg.structure))
    return basis.T @ (alg.structure @ x0) @ moved.mT


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b, one row at a time."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_row_dots(a, a))


def slice_normal_form(setup: ReductionSetup, ys: np.ndarray) -> tuple[np.ndarray, int]:
    """Rotate each row y of the (m, n) stack ys, in m, into the slice by stabilizer conjugations.

    Ascends f = <z, x0> over the orbit of y under the stabilizer K, which
    keeps z in m.  At z moved to exp(ad(K c)) z, the gradient of f in c is
    g = K^T [z, x0], with entries g_a = <z, [x0, k_a]> by ad-invariance, and
    the symmetrised :func:`orbit_hessian` H = V diag(lam) V^T is its Hessian.
    So f is critical exactly where z is orthogonal to [x0, k] inside m, that
    is where z lies in the slice: any critical point will do, and no start
    needs to sit in the basin of the maximum.

    Each iteration takes the saddle-free Newton direction
    delta = V (V^T g / max(|lam|, 1e-3 max |lam|)), capped at norm 1.  It
    always ascends (g.delta > 0), and where H is negative definite it is the
    Newton step.  The step starts at 1 and is halved until f gains
    1e-4 step g.delta or the residual |[x0, k]^T z| drops by the factor
    1 - 1e-4 step: near the maximum the gain in f falls under the float
    resolution of an O(1) number, while the residual stays first order in
    the distance to it.  Conjugation is an isometry, so the norm of y is
    preserved exactly.

    All rows share one loop, each with its own step, stop rule and
    iteration count; every product is taken row by row, so a row's normal
    form and iterations are those it gets as a stack of one.  A row stops
    once its residual is at most SLICE_TOL.  Returns (normalised stack,
    iterations summed over the rows); raises ConvergenceError when a row
    finds no acceptable step above 1e-14 or SLICE_MAX_ITER iterations run out.
    """
    alg = setup.alg
    cfg = setup.config
    y = np.asarray(ys, dtype=float)
    if y.ndim != 2 or y.shape[1] != alg.dim:
        raise InputError(f"expected an (m, {alg.dim}) stack of tangent vectors, got shape {y.shape}")
    tangent = cfg.tangent.basis
    off_tangent = y - _rowwise(_rowwise(y, tangent), tangent.T)
    if np.any(_row_norms(off_tangent) > 1e-10 * np.maximum(1.0, _row_norms(y))):
        raise DomainError("input must lie in the tangent space at the seed")
    normal = setup.slice_normal.basis
    stab_basis = cfg.stabilizer.basis
    grad_map = alg.ad(setup.x0) @ stab_basis  # column a is [x0, k_a]
    z = y.copy()
    value = _rowwise(z, setup.x0[:, None])[:, 0]
    res = _row_norms(_rowwise(z, normal))
    best = res.copy()
    todo = np.arange(len(z))
    total = 0
    for it in range(SLICE_MAX_ITER + 1):
        todo = todo[res[todo] > SLICE_TOL]
        if not len(todo):
            return z, total
        if it == SLICE_MAX_ITER:
            break
        zt = z[todo]
        grad = _rowwise(zt, grad_map)
        hess = orbit_hessian(alg, stab_basis, zt, setup.x0)
        lam, vecs = np.linalg.eigh(0.5 * (hess + hess.mT))
        size = np.abs(lam)
        floor = 1e-3 * np.maximum(np.max(size, axis=-1), 1e-12)
        delta = (vecs @ (_rowwise(grad, vecs) / np.maximum(size, floor[:, None]))[..., None])[..., 0]
        delta /= np.maximum(1.0, _row_norms(delta))[:, None]
        gain = _row_dots(grad, delta)
        step, search = 1.0, np.arange(len(todo))
        while len(search) and step > 1e-14:
            cand = conjugate(alg, _rowwise(step * delta[search], stab_basis.T), zt[search, None])[:, 0]
            cand_value = _rowwise(cand, setup.x0[:, None])[:, 0]
            cand_res = _row_norms(_rowwise(cand, normal))
            rows = todo[search]
            ok = ((cand_value > value[rows] + 1e-4 * step * gain[search])
                  | (cand_res < res[rows] * (1.0 - 1e-4 * step)))
            z[rows[ok]], value[rows[ok]], res[rows[ok]] = cand[ok], cand_value[ok], cand_res[ok]
            search = search[~ok]
            step *= 0.5
        if len(search):  # no acceptable step above 1e-14 for these rows
            todo = todo[search]
            break
        total += len(todo)
        best[todo] = np.minimum(best[todo], res[todo])
    worst = float(np.max(best[todo]))
    raise ConvergenceError(f"slice normalisation stalled at residual {worst:.3e}", best_residual=worst)


# ---------------------------------------------------------------------------
# Regularity, tangent splitting
# ---------------------------------------------------------------------------


def isotropy_algebra(setup: ReductionSetup, points: np.ndarray):
    """All xi with [xi, x] = 0 and [xi, v] = 0; the list of them over an (m, 2, n) stack of points."""
    return kernels(ad_pairs(setup.alg, points))


def regularity_distance(setup: ReductionSetup, points: np.ndarray) -> np.ndarray:
    """Projector distance between each point's isotropy algebra and h, over an (m, 2, n) stack of points."""
    return np.array([projector_distance(iso, setup.isotropy) if iso.dim == setup.isotropy.dim
                     else float("inf") for iso in isotropy_algebra(setup, points)])


def is_regular(setup: ReductionSetup, points: np.ndarray) -> np.ndarray:
    """Whether each point of an (m, 2, n) stack is regular, a boolean array."""
    return regularity_distance(setup, points) <= REGULARITY_TOL


def _stratum_tangent(setup: ReductionSetup, push: np.ndarray) -> list[Subspace]:
    """Tangent spaces of the regular stratum in chart coordinates, one per pushforward of an (m, 2n, d) stack:
    the kernel of (dx, dv) -> ([z, dx], [z, dv]), z in h, on its columns; for h = 0, eye(d)."""
    m, _, d = push.shape
    return kernels((setup.alg.ads(setup.isotropy.basis)[:, None] @ push.reshape(m, 1, 2, -1, d)).reshape(m, -1, d))


def canonical_complement(setup: ReductionSetup, points: np.ndarray) -> list[Subspace]:
    """Span of the action vectors of the transversal p, one per regular point of an (m, 2, n) stack.

    Regularity is decided once, for every point of the stack."""
    if not np.all(is_regular(setup, points)):
        raise DomainError("point is not regular: isotropy algebra differs from h")
    return _action_spans(setup, points, setup.transversal.basis)


def _action_spans(setup: ReductionSetup, points: np.ndarray, bases: np.ndarray) -> list[Subspace]:
    """Span of the action vectors of a transversal at each point of a stack, from one evaluation.

    ``bases`` is one (n, p) basis for every point or an (m, n, p) stack, a
    basis per point; the action of a transversal must keep its rank p."""
    p = np.shape(bases)[-1]
    spaces = spans(infinitesimal_action(setup.config, bases, points))
    for out in spaces:
        if out.dim != p:
            raise DegeneracyError(f"action of the transversal dropped rank ({out.dim} < {p}) at the point")
    return spaces


def complement_product_independence(setup: ReductionSetup, points: np.ndarray, seed: int) -> float:
    """Canonical complement recomputed from random invariant products.

    Returns the largest projector distance, over the points of an (m, 2, n) stack,
    between the action span of the base transversal and of the transversal
    taken orthogonal with respect to a random h-invariant product, point i
    taking its product from the stream (seed, "action-products", i) over the
    ``invariant_product_space`` of h; the spans must agree at regular points.
    """
    alg = setup.alg
    sols = invariant_product_space(alg, setup.isotropy)
    prods = draw_invariant_products(alg, setup.isotropy, sols, seed, range(len(points)))
    alts = orthogonal_complements(setup.normalizer, prods)
    base = canonical_complement(setup, points)
    alt = _action_spans(setup, points, np.stack([t.basis for t in alts]))
    return max(projector_distance(a, b) for a, b in zip(base, alt))


def block_structure(forms, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coupling, sigma_lead, sigma_trail) of each matrix of a (..., d, d) stack split after s coordinates.

    ``coupling`` is max |forms[..., s:, :s]|, and each sigma the smallest
    singular value of a diagonal block, one stacked SVD per block.  An empty
    block couples to nothing and reads sigma inf: a trivial transversal is
    vacuously orthogonal and nondegenerate.
    """
    forms = np.asarray(forms, dtype=float)
    coupling = np.max(np.abs(forms[..., s:, :s]), axis=(-2, -1), initial=0.0)
    return coupling, _sigma_min(forms[..., :s, :s]), _sigma_min(forms[..., s:, s:])


def _sigma_min(blocks: np.ndarray) -> np.ndarray:
    if blocks.shape[-1] == 0:
        return np.full(blocks.shape[:-2], np.inf)
    return np.linalg.svd(blocks, compute_uv=False)[..., -1]


def splitting_orthogonality(setup: ReductionSetup, chart: Chart, coords,
                            form_matrices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`block_structure` of ambient forms in each point's [stratum | complement] basis.

    ``coords`` is an (m, d) stack of coordinate rows, and ``form_matrices``
    the (m, F, d, d) stack of the forms in the chart frame at each row, such
    as a pencil's two generators; the three returned arrays are (m, F), lead
    the stratum and trail the complement.
    The stratum is read in chart coordinates (:func:`_stratum_tangent`), and
    the complement's action vectors are lifted into them by one stacked
    least-squares solve, a QR of the pushforward stack.  Regularity is decided
    once, for every point; a point whose stratum is not of dimension
    2 dim(O) - dim(p) raises DegeneracyError.
    """
    c = np.asarray(coords, dtype=float)
    comps = canonical_complement(setup, chart.point(c))
    push = chart.pushforward(c)
    strats = _stratum_tangent(setup, push)
    s = 2 * setup.config.orbit_dim - setup.transversal.dim
    for strat in strats:
        if strat.dim != s:
            raise DegeneracyError(f"regular stratum has dimension {strat.dim}, expected {s}, at a point of the stack")
    q, r = np.linalg.qr(push)
    comp_lifts = np.linalg.solve(r, q.mT @ np.stack([comp.basis for comp in comps]))
    lifts = np.concatenate([np.stack([strat.basis for strat in strats]), comp_lifts], axis=-1)
    forms = np.asarray(form_matrices, dtype=float)
    return block_structure(lifts.mT[:, None] @ forms @ lifts[:, None], s)


# ---------------------------------------------------------------------------
# Restricted pencil
# ---------------------------------------------------------------------------


class ChartPencil(NamedTuple):
    """The two invariant forms on one chart and their inverse bivectors."""

    w1: FormField        # canonical form
    w2: FormField        # canonical plus pulled-back orbit form
    p1: FormField        # inverse of w1
    p2: FormField        # inverse of w2


def chart_pencil(chart: Chart) -> ChartPencil:
    w1 = canonical_form_field(chart)
    w2 = combined_form_field(chart)
    return ChartPencil(w1, w2, invert_form(w1), invert_form(w2))


class RestrictedPencilData(NamedTuple):
    """The pencil on the ambient chart and its restriction to the sub chart."""

    ambient_chart: Chart
    sub_chart: Chart
    ambient: ChartPencil
    restricted: ChartPencil

    def pad_coords(self, sub_coords) -> np.ndarray:
        """Ambient-chart coordinates of each row of an (m, d) stack of sub-chart coordinates.

        The ambient frame starts with the sub frame, so sub coordinates
        embed by zero padding in both the conjugation and fiber blocks.
        """
        s = np.asarray(sub_coords, dtype=float)
        fh = self.sub_chart.frame_dim
        f = self.ambient_chart.frame_dim
        if s.ndim != 2 or s.shape[1] != 2 * fh:
            raise InputError(f"expected an (m, {2 * fh}) stack of sub-chart coordinates, got shape {s.shape}")
        c = np.zeros((len(s), 2 * f))
        c[:, :fh] = s[:, :fh]
        c[:, f:f + fh] = s[:, fh:]
        return c


def restricted_pencil(setup: ReductionSetup, base_v: np.ndarray) -> RestrictedPencilData:
    """Charts and form fields for the pencil restricted to the sub-orbit bundle.

    The base point is (a, base_v) over the orbit seed a, with base_v in the
    slice; the sub chart uses the moving part of the centralizer as frame,
    the ambient chart extends that frame to all of m so that sub
    coordinates embed by zero padding.
    """
    cfg = setup.config
    if setup.slice_space.residual(base_v) > REGULARITY_TOL * max(1.0, np.linalg.norm(base_v)):
        raise DomainError("restriction base fiber must lie in the slice")
    if not is_regular(setup, np.stack([cfg.seed, base_v])[None])[0]:
        raise DomainError("restriction base point is not regular")
    sub_frame = setup.sub_tangent.basis
    rest = complement_within(setup.sub_tangent, cfg.tangent)
    ambient_frame = np.hstack([sub_frame, rest.basis])
    sub_chart = Chart(cfg, base_v=base_v, frame=sub_frame)
    ambient_chart = Chart(cfg, base_v=base_v, frame=ambient_frame)
    return RestrictedPencilData(
        ambient_chart=ambient_chart,
        sub_chart=sub_chart,
        ambient=chart_pencil(ambient_chart),
        restricted=chart_pencil(sub_chart),
    )


def sample_regular_coords(setup: ReductionSetup, data: RestrictedPencilData, count: int, seed: int) -> np.ndarray:
    """The (count, d) stack ``data.sub_chart.sample(seed, "regular-points", count)`` of regular points.

    The regular points are the principal orbit type, open and dense, and the
    sub chart is centred on one, so the stack is drawn once and checked in
    one :func:`is_regular` call; irregular rows raise GenericityError with
    their number.  That the box holds no irregular point is a measurement,
    not a proof: on the five shipped configs and six more orbits of su(n)
    and so(n), seeds 0-199 drew no irregular row, the largest regularity
    distance being 1.1e-12 against REGULARITY_TOL.
    """
    coords = data.sub_chart.sample(seed, "regular-points", count)
    irregular = np.count_nonzero(~is_regular(setup, data.sub_chart.point(coords)))
    if irregular:
        raise GenericityError(f"{irregular} of {count} sampled sub-chart points are not regular")
    return coords


# ---------------------------------------------------------------------------
# Invariant functions and bracket agreement
# ---------------------------------------------------------------------------


def invariant_function(alg: LieAlgebra, word):
    """Trace of a word in the matrices of x and v, as a function on TO.

    ``word`` is a nonempty sequence over {"x", "v"}; conjugation-invariance
    of the trace makes the function invariant under the group action.  At an
    (m, 2, n) stack of points, ``fn`` gives the array of values and ``fn.gradient`` the
    stack of exact ambient gradients, 2n-vectors of d/dx_a then d/dv_a (the
    row order of a chart pushforward).  With M_1..M_L the matrices of the
    word, cyclicity of the trace gives

        d/dx_a Re tr(M_1..M_L) = sum over positions k holding x of
                                 Re tr(B_a M_{k+1}..M_L M_1..M_{k-1}),

    B_a the basis matrices; likewise for v.
    """
    symbols = tuple(word)
    if not symbols or any(s not in ("x", "v") for s in symbols):
        raise InputError("word must be a nonempty sequence over {'x', 'v'}")

    def matrices(points: np.ndarray) -> list[np.ndarray]:
        xv = _lincomb(points, alg.basis)
        mats = {"x": xv[..., 0, :, :], "v": xv[..., 1, :, :]}
        return [mats[s] for s in symbols]

    def fn(points: np.ndarray) -> np.ndarray:
        mats = matrices(points)
        acc = mats[0]
        for m in mats[1:]:
            acc = acc @ m
        return np.real(np.trace(acc, axis1=-2, axis2=-1))

    def gradient(points: np.ndarray) -> np.ndarray:
        mats = matrices(points)
        eye = np.broadcast_to(np.eye(alg.matrix_dim, dtype=complex), mats[0].shape)
        cofactors = {"x": np.zeros_like(eye), "v": np.zeros_like(eye)}
        for k, s in enumerate(symbols):
            acc = eye
            for m in mats[k + 1:] + mats[:k]:
                acc = acc @ m
            cofactors[s] = cofactors[s] + acc
        # Re tr(B_a C) = Re sum_ij B_a[i, j] C[j, i]
        return np.concatenate([
            np.real(np.einsum("aij,...ji->...a", alg.basis, cofactors["x"])),
            np.real(np.einsum("aij,...ji->...a", alg.basis, cofactors["v"])),
        ], axis=-1)

    fn.word = symbols
    fn.gradient = gradient
    return fn


def chart_differentials(chart, fns, coords) -> np.ndarray:
    """(m, k, coord_dim) stack whose row i at point r is d(fns[i] o chart) at row r of coords.

    Chain rule: each function's exact ambient gradient times the chart
    pushforward, so no chart point besides ``coords`` is evaluated.
    """
    points = chart.point(coords)
    grads = np.stack([fn.gradient(points) for fn in fns], axis=-2)
    return grads @ chart.pushforward(coords)


def bracket_agreement(setup: ReductionSetup, data: RestrictedPencilData, fns,
                      coords) -> tuple[np.ndarray, np.ndarray]:
    """Ambient and restricted brackets {f_i, f_j} of a list of invariant functions under the pencil's generators.

    ``fns`` are functions on TO with a ``gradient`` (see
    :func:`invariant_function`); ``coords`` is an (m, d) stack of sub-chart
    coordinates of regular points.  Each bracket matrix is D P D^T, each side
    with its own chart's differentials D and bivectors P1, P2.  A member's
    bracket {f, g}_t = t1 {f, g}_1 + t2 {f, g}_2 is linear in (t1, t2) and
    needs no inverse of that member, so the two generators certify every
    member, the degenerate ones on t1 + t2 = 0 included.
    Regularity, the differentials of both charts and the bivectors are
    evaluated once, on the whole stack.
    Returns the (ambient, restricted) pair of (m, 2, k, k) stacks, P1 then P2;
    see :func:`relative_bracket_residual`.
    """
    s = np.asarray(coords, dtype=float)
    if not np.all(is_regular(setup, data.sub_chart.point(s))):
        raise DomainError("image point is not regular")
    c = data.pad_coords(s)

    def brackets(chart, pencil, coords):
        d = chart_differentials(chart, fns, coords)[:, None]
        return d @ np.stack([pencil.p1(coords), pencil.p2(coords)], axis=1) @ d.mT

    return brackets(data.ambient_chart, data.ambient, c), brackets(data.sub_chart, data.restricted, s)


def relative_bracket_residual(ambient: np.ndarray, restricted: np.ndarray) -> float:
    """Max of |ambient - restricted| / (1 + |ambient|) over the pairs i < j of a stack of bracket matrices."""
    upper = np.triu(np.ones(ambient.shape[-2:], dtype=bool), k=1)
    return float(np.max(np.abs(ambient - restricted)[..., upper] / (1.0 + np.abs(ambient)[..., upper]),
                        initial=0.0))


# ---------------------------------------------------------------------------
# Local freeness and transversality
# ---------------------------------------------------------------------------


def isotropy_excess(setup: ReductionSetup, points: np.ndarray) -> int:
    """Max over the points of an (m, 2, n) stack of dim(isotropy within the centralizer) - dim(center)."""
    isos = kernels(ad_pairs(setup.alg, points) @ setup.centralizer.basis)
    return max(0, *(iso.dim - setup.center.dim for iso in isos))


def transversality_deficiency(setup: ReductionSetup, points: np.ndarray) -> int:
    """Max rank deficit of centralizer action plus slice fibers over an (m, 2, n) stack of slice points."""
    n = setup.alg.dim
    fibers = np.vstack([np.zeros((n, setup.slice_space.dim)), setup.slice_space.basis])
    action = infinitesimal_action(setup.config, setup.centralizer.basis, points)
    mats = np.concatenate([action, np.broadcast_to(fibers, (len(points),) + fibers.shape)], axis=-1)
    ranks = rank_mask(np.linalg.svd(mats, compute_uv=False)).sum(axis=-1)
    return int(2 * setup.sub_tangent.dim - np.min(ranks))
