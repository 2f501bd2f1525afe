import numpy as np
import pytest

from orbitpencil import dirac_reduction as dr
from orbitpencil import lie_core as lc
from orbitpencil import orbit_charts as oc
from orbitpencil import poisson_pencil as pp
from orbitpencil.errors import DegeneracyError, DomainError
from orbitpencil.seeding import unit_rows


def stack_of_one(x, v):
    """The point (x, v) as a stack of one."""
    return np.stack([x, v])[None]


def stabilizer_dim_oracle(alg, stab_basis, x):
    """dim {y in span : [x, y] = 0} via matrix commutators and an SVD."""
    mx = alg.matrix_of(x)
    cols = []
    for j in range(stab_basis.shape[1]):
        mj = alg.matrix_of(stab_basis[:, j])
        cols.append(alg.element_from_matrix(mx @ mj - mj @ mx))
    mat = np.column_stack(cols)
    sig = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(sig > 1e-9 * max(sig[0], 1.0)))
    return stab_basis.shape[1] - rank


# ---------------------------------------------------------------------------
# Principal isotropy and setup
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fixture,expected_h",
    [("setup_su2", 0), ("setup_cp2", 1), ("setup_su3_regular", 0)],
)
def test_principal_isotropy_dimension(request, fixture, expected_h):
    setup = request.getfixturevalue(fixture)
    assert setup.isotropy.dim == expected_h
    # kernel oracle on the chosen sample
    alg = setup.alg
    dim = stabilizer_dim_oracle(alg, setup.config.stabilizer.basis, setup.x0)
    assert dim == expected_h


def test_cp2_setup_dimensions_pinned(setup_cp2):
    assert setup_cp2.dims() == {
        "k": 4, "m": 4, "h": 1, "n(h)": 4, "p": 4,
        "g_hat": 4, "k_hat": 2, "m_hat": 2, "slice": 1, "z(g_hat)": 1,
    }


def test_su2_setup_is_trivial_reduction(setup_su2):
    dims = setup_su2.dims()
    assert dims["h"] == 0 and dims["p"] == 0
    assert dims["g_hat"] == 3 and dims["m_hat"] == dims["m"]
    assert dims["z(g_hat)"] == 0


def test_setup_residuals_tight(setup_cp2, setup_su2, setup_su3_regular):
    for setup in (setup_cp2, setup_su2, setup_su3_regular):
        res = dr.setup_residuals(setup)
        assert res["slice_commutes_with_isotropy"] <= 1e-10
        assert res["seed_commutes_with_isotropy"] <= 1e-10
        assert max(res.values()) <= 1e-8


# ---------------------------------------------------------------------------
# Slice normalisation
# ---------------------------------------------------------------------------


def test_slice_normal_form_fixed_point(setup_cp2):
    y = 0.8 * setup_cp2.x0
    [z], iterations = dr.slice_normal_form(setup_cp2, y[None])
    assert iterations == 0
    assert np.array_equal(z, y)


def test_slice_normal_form_su2_quarter_turn(su2, pauli_elements):
    # x0 = E1, y = E2: the maximiser is a quarter turn about E3, y' = +/-E1
    e1, e2, e3 = pauli_elements
    config = oc.orbit_config(su2, e3)
    setup = dr.reduction_setup(config, samples=16, seed=0)
    # rebuild with the closed-form slice seed: rotate so x0 = E1 direction
    x0 = e1 / np.linalg.norm(e1)
    setup = setup._replace(
        x0=x0, slice_normal=lc.span(su2.ad(x0) @ config.stabilizer.basis), slice_space=lc.span(e1[:, None]),
    )
    [z], _ = dr.slice_normal_form(setup, e2[None])
    overlap = abs(np.dot(z, e1)) / (np.linalg.norm(z) * np.linalg.norm(e1))
    assert overlap >= 1.0 - 1e-9
    assert abs(np.linalg.norm(z) - np.linalg.norm(e2)) <= 1e-10


def test_slice_normal_form_batch_cp2(setup_cp2):
    config = setup_cp2.config
    moved = lc.span(setup_cp2.alg.ad(setup_cp2.x0) @ config.stabilizer.basis)
    for y in unit_rows(99, "slice-batch", range(50), config.tangent.dim) @ config.tangent.basis.T:
        [z], iterations = dr.slice_normal_form(setup_cp2, y[None], max_iter=200, tol=1e-8)
        assert iterations <= 200
        assert np.linalg.norm(moved.basis.T @ z) <= 1e-8
        assert abs(np.linalg.norm(z) - 1.0) <= 1e-10


def test_slice_normal_form_rejects_offspace_input(setup_cp2):
    with pytest.raises(DomainError):
        dr.slice_normal_form(setup_cp2, setup_cp2.config.seed[None])


@pytest.mark.parametrize("setup_name", ["setup_cp2", "setup_cp3"])
def test_orbit_hessian_matches_the_bracket_double_loop(request, setup_name):
    # reference: the kdim^2 + kdim bracket calls the Newton step made before
    setup = request.getfixturevalue(setup_name)
    alg, basis = setup.alg, setup.config.stabilizer.basis
    for z in unit_rows(5, "hessian", range(3), setup.config.tangent.dim) @ setup.config.tangent.basis.T:
        ref = np.empty((basis.shape[1], basis.shape[1]))
        for b in range(basis.shape[1]):
            inner = alg.bracket(basis[:, b], z)
            for a in range(basis.shape[1]):
                ref[a, b] = np.dot(alg.bracket(basis[:, a], inner), setup.x0)
        assert np.max(np.abs(dr.orbit_hessian(alg, basis, z, setup.x0) - ref)) <= 1e-13


# ---------------------------------------------------------------------------
# Regularity, tangent spaces, complements
# ---------------------------------------------------------------------------


def test_isotropy_algebra_base_cases(setup_su2, setup_cp2):
    config = setup_su2.config
    zero_section = stack_of_one(config.seed, np.zeros(3))
    [iso] = dr.isotropy_algebra(setup_su2, zero_section)
    assert lc.projector_distance(iso, config.stabilizer) <= 1e-10
    # su(2) point (E3, E1)-style: trivial isotropy
    point = stack_of_one(config.seed, setup_su2.x0)
    assert dr.isotropy_algebra(setup_su2, point)[0].dim == 0
    # generic slice point of the nontrivial configuration: exactly h
    point2 = stack_of_one(setup_cp2.config.seed, setup_cp2.x0)
    [iso2] = dr.isotropy_algebra(setup_cp2, point2)
    assert iso2.dim == setup_cp2.isotropy.dim
    assert lc.projector_distance(iso2, setup_cp2.isotropy) <= 1e-8
    assert dr.is_regular(setup_cp2, point2)[0]


def test_stratum_tangent(setup_su2, data_su2, setup_cp2, data_cp2, regular_coords_cp2):
    # trivial isotropy: the empty stack of conditions leaves all of coordinate space, exactly
    chart = data_su2.ambient_chart
    [full] = dr._stratum_tangent(setup_su2, chart.pushforward(np.zeros((1, chart.coord_dim))))
    assert np.array_equal(full.basis, np.eye(chart.coord_dim))
    # nontrivial: dimension twice the sub-orbit dimension, killed by ad(h), and the
    # sub-chart tangent image sits inside the image of the stratum
    ads = setup_cp2.alg.ads(setup_cp2.isotropy.basis)[:, None]
    n = setup_cp2.alg.dim
    for coords in regular_coords_cp2[:3, None]:
        push = data_cp2.ambient_chart.pushforward(data_cp2.pad_coords(coords))
        [fixed] = dr._stratum_tangent(setup_cp2, push)
        assert fixed.dim == 2 * setup_cp2.sub_tangent.dim
        image = push[0] @ fixed.basis
        assert np.max(np.abs(ads @ image.reshape(2, n, -1))) <= 1e-12
        inside = lc.span(data_cp2.sub_chart.pushforward(coords)[0])
        assert lc.subspace_contains(lc.span(image), inside) <= 1e-8


def test_brackets_are_order_one_on_the_su5_partial_flag(setup_su5, data_su5, setup_cp3, data_cp3):
    # On a symmetric space such as CP^3 invariant functions Poisson-commute, so both sides of
    # bracket_agreement read rounding; the su(5) partial flag is no symmetric space, and has h > 0
    assert setup_su5.dims() == {
        "k": 10, "m": 14, "h": 1, "n(h)": 16, "p": 8,
        "g_hat": 16, "k_hat": 6, "m_hat": 10, "slice": 5, "z(g_hat)": 1,
    }
    words = [("v", "v"), ("x", "x", "v", "v"), ("x", "v", "x", "v"), ("v", "v", "v", "v")]

    def brackets(setup, data):
        fns = [dr.invariant_function(setup.alg, w) for w in words]
        coords = dr.sample_regular_coords(setup, data, 3, seed=5)
        return dr.bracket_agreement(setup, data, fns, coords)

    ambient, _ = brackets(setup_cp3, data_cp3)
    assert np.max(np.abs(ambient)) <= 1e-12
    ambient, restricted = brackets(setup_su5, data_su5)
    assert np.max(np.abs(ambient)) > 0.1
    assert dr.relative_bracket_residual(ambient, restricted) <= 1e-12


def test_splitting_rejects_irregular_points(setup_cp2):
    # the splitting is taken at regular points only: the zero section is not one
    cfg = setup_cp2.config
    zero_section = oc.Chart(cfg, base_v=np.zeros(setup_cp2.alg.dim), frame=cfg.tangent.basis)
    with pytest.raises(DomainError, match="not regular"):
        dr.splitting_orthogonality(setup_cp2, zero_section, np.zeros((1, zero_section.coord_dim)), [])


def test_canonical_complement(setup_su2, setup_cp2, data_cp2, regular_coords_cp2):
    base = stack_of_one(setup_su2.config.seed, setup_su2.x0)
    assert dr.canonical_complement(setup_su2, base)[0].dim == 0
    for coords in regular_coords_cp2[:3, None]:
        point = data_cp2.sub_chart.point(coords)
        [comp] = dr.canonical_complement(setup_cp2, point)
        assert comp.dim == setup_cp2.transversal.dim
        push = data_cp2.ambient_chart.pushforward(data_cp2.pad_coords(coords))
        [strat] = dr._stratum_tangent(setup_cp2, push)
        stacked = np.hstack([comp.basis, lc.span(push[0] @ strat.basis).basis])
        sig = np.linalg.svd(stacked, compute_uv=False)
        assert sig[-1] > 1e-6  # trivial intersection
        assert comp.dim + strat.dim == 2 * setup_cp2.config.orbit_dim


def test_complement_product_independence(setup_cp2, data_cp2, regular_coords_cp2):
    point = data_cp2.sub_chart.point(regular_coords_cp2[:1])
    for seed in (3, 17):
        assert dr.complement_product_independence(setup_cp2, point, seed) <= 1e-8


# ---------------------------------------------------------------------------
# Splitting orthogonality
# ---------------------------------------------------------------------------


def test_splitting_orthogonality_cp2(setup_cp2, data_cp2, regular_coords_cp2):
    w1, w2, _, _ = data_cp2.ambient
    members = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, 0.7), (2.0, -1.0)]
    for coords in regular_coords_cp2[:, None]:
        padded = data_cp2.pad_coords(coords)
        m1, m2 = w1(padded), w2(padded)
        forms = np.stack([t1 * m1 + t2 * m2 for t1, t2 in members], axis=1)
        pairing, sigma_stratum, sigma_complement = dr.splitting_orthogonality(
            setup_cp2, data_cp2.ambient_chart, padded, forms)
        assert pairing.shape == sigma_stratum.shape == sigma_complement.shape == (1, len(members))
        assert np.all(pairing <= 1e-8)
        assert np.all(sigma_complement > 1e-6)
        assert np.all(sigma_stratum > 1e-6)


def test_splitting_orthogonality_decides_regularity_once(monkeypatch, setup_cp2, data_cp2, regular_coords_cp2):
    calls = []
    isotropy = dr.isotropy_algebra
    monkeypatch.setattr(dr, "isotropy_algebra", lambda setup, point: calls.append(1) or isotropy(setup, point))
    w1 = data_cp2.ambient.w1
    for coords in regular_coords_cp2[:3, None]:
        padded = data_cp2.pad_coords(coords)
        calls.clear()
        dr.splitting_orthogonality(setup_cp2, data_cp2.ambient_chart, padded, w1(padded)[:, None])
        assert len(calls) == 1
    # the zero section is irregular: the single decision still refuses it
    chart = data_cp2.ambient_chart
    zero_fiber = oc.Chart(setup_cp2.config, base_v=np.zeros(setup_cp2.alg.dim), frame=chart.frame)
    coords = np.zeros((1, zero_fiber.coord_dim))
    with pytest.raises(DomainError):
        dr.splitting_orthogonality(setup_cp2, zero_fiber, coords, np.eye(coords.shape[1])[None, None])


def test_splitting_orthogonality_refuses_a_stratum_of_the_wrong_dimension(monkeypatch, setup_cp2, data_cp2,
                                                                          regular_coords_cp2):
    # Every regular stratum has dimension 2 dim(O) - dim(p); a point that loses a stratum
    # direction is refused, not paired on a stack of its own.
    chart, w1 = data_cp2.ambient_chart, data_cp2.ambient.w1
    coords = data_cp2.pad_coords(regular_coords_cp2[:4])
    stratum = dr._stratum_tangent

    def dropped(setup, push):
        return [lc.Subspace(space.basis[:, :-1]) if i == 1 else space
                for i, space in enumerate(stratum(setup, push))]

    monkeypatch.setattr(dr, "_stratum_tangent", dropped)
    with pytest.raises(DegeneracyError, match="regular stratum has dimension"):
        dr.splitting_orthogonality(setup_cp2, chart, coords, w1(coords)[:, None])


def test_splitting_orthogonality_trivial_case(setup_su2, data_su2):
    coords = np.zeros((1, data_su2.ambient_chart.coord_dim))
    w1 = data_su2.ambient.w1
    [[pairing]], [[sigma_stratum]], [[sigma_complement]] = dr.splitting_orthogonality(
        setup_su2, data_su2.ambient_chart, coords, w1(coords)[:, None])
    assert pairing == 0.0
    assert sigma_stratum > 1e-6
    assert sigma_complement == float("inf")


# ---------------------------------------------------------------------------
# Restricted pencil
# ---------------------------------------------------------------------------


def test_restricted_pencil_trivial_case_is_ambient(setup_su2, data_su2):
    # with trivial isotropy the sub chart and the ambient chart coincide
    assert data_su2.sub_chart.coord_dim == data_su2.ambient_chart.coord_dim
    coords = np.full((1, data_su2.sub_chart.coord_dim), 0.03)
    w1_sub = data_su2.restricted.w1(coords)
    w1_amb = data_su2.ambient.w1(data_su2.pad_coords(coords))
    assert np.max(np.abs(w1_sub - w1_amb)) <= 1e-12


def test_restricted_pencil_base_validation(setup_cp2):
    with pytest.raises(DomainError):
        dr.restricted_pencil(setup_cp2, setup_cp2.config.tangent.basis[:, 0] * 0.0)  # zero fiber is not regular
    with pytest.raises(DomainError):
        off_slice = setup_cp2.sub_tangent.basis @ np.array([1.0, 1.0])
        off_slice = off_slice - setup_cp2.slice_space.project(off_slice)
        dr.restricted_pencil(setup_cp2, off_slice)


def test_restricted_pencil_certification_cp2(setup_cp2, data_cp2, regular_coords_cp2):
    for coords in regular_coords_cp2[:, None]:
        assert oc.closedness_residual(data_cp2.restricted.w1, coords) <= 1e-5
        assert oc.closedness_residual(data_cp2.restricted.w2, coords) <= 1e-5
        for form in (data_cp2.restricted.w1, data_cp2.restricted.w2):
            assert np.linalg.svd(form(coords)[0], compute_uv=False)[-1] > 1e-6
        assert pp.compatibility_residual(data_cp2.restricted.p1, data_cp2.restricted.p2, coords) <= 1e-5


# ---------------------------------------------------------------------------
# Invariant functions and bracket agreement
# ---------------------------------------------------------------------------


def test_invariant_function_basics(su3, setup_cp2, data_cp2, regular_coords_cp2):
    f_xx = dr.invariant_function(su3, ("x", "x"))
    f_xv = dr.invariant_function(su3, ("x", "v"))
    vals = []
    for coords in regular_coords_cp2[:5, None]:
        point = data_cp2.sub_chart.point(coords)
        vals.append(f_xx(point))
        assert abs(f_xv(point)) <= 1e-12  # v is orthogonal to ker ad(x), x included
    assert np.ptp(vals) <= 1e-10  # spectrum invariance: constant on the orbit


def test_invariant_function_conjugation_invariance(su3, data_cp2, regular_coords_cp2):
    import scipy.linalg

    words = [("v", "v"), ("x", "x", "v", "v"), ("x", "v", "x", "v"), ("v", "v", "v", "v")]
    fns = [dr.invariant_function(su3, w) for w in words]
    point = data_cp2.sub_chart.point(regular_coords_cp2[:1])
    rng = np.random.default_rng(8)
    for _ in range(20):
        rot = scipy.linalg.expm(su3.ad(rng.standard_normal(su3.dim)))
        moved = point @ rot.T
        for f in fns:
            assert abs(f(moved) - f(point)) <= 1e-10


def test_invariant_function_rejects_bad_word(su3):
    with pytest.raises(Exception):
        dr.invariant_function(su3, ())
    with pytest.raises(Exception):
        dr.invariant_function(su3, ("x", "y"))


_BRACKET_WORDS = [("v", "v"), ("x", "x", "v", "v"), ("x", "v", "x", "v"), ("v", "v", "v", "v")]


def _fd_differential(chart, fn, coords, h=1e-4):
    """Central-difference differential of fn composed with the chart, at a (1, d) stack."""
    c = np.asarray(coords, dtype=float)
    out = np.empty(chart.coord_dim)
    for i in range(chart.coord_dim):
        step = np.zeros_like(c)
        step[0, i] = h
        out[i] = ((fn(chart.point(c + step)) - fn(chart.point(c - step))) / (2.0 * h))[0]
    return out


@pytest.mark.parametrize(
    "setup_name, data_name, which",
    [
        ("setup_su2", "data_su2", "sub"),
        ("setup_su2", "data_su2", "ambient"),
        ("setup_cp2", "data_cp2", "sub"),
        ("setup_cp2", "data_cp2", "ambient"),
        ("setup_cp3", "data_cp3", "ambient"),
    ],
)
def test_exact_differentials_match_finite_differences(request, setup_name, data_name, which):
    setup = request.getfixturevalue(setup_name)
    data = request.getfixturevalue(data_name)
    chart = data.sub_chart if which == "sub" else data.ambient_chart
    fns = [dr.invariant_function(setup.alg, w) for w in _BRACKET_WORDS]
    rng = np.random.default_rng(21)
    for _ in range(2):
        coords = rng.uniform(-0.1, 0.1, (1, chart.coord_dim))
        exact = dr.chart_differentials(chart, fns, coords)[0]
        assert exact.shape == (len(fns), chart.coord_dim)
        for row, fn in zip(exact, fns):
            ref = _fd_differential(chart, fn, coords)
            assert np.max(np.abs(row - ref)) <= 1e-7 * (1.0 + np.max(np.abs(ref))), fn.word


def test_gradient_of_vv_is_minus_twice_v(su3, data_cp2, regular_coords_cp2):
    # orthonormal basis: tr(VV) = -|v|^2, so the gradient is (0, -2v)
    f = dr.invariant_function(su3, ("v", "v"))
    point = data_cp2.sub_chart.point(regular_coords_cp2[:1])
    expected = np.concatenate([np.zeros(su3.dim), -2.0 * point[0, 1]])
    assert np.max(np.abs(f.gradient(point) - expected)) <= 1e-13
    assert abs(f(point) + np.dot(point[0, 1], point[0, 1])) <= 1e-13


def _linear_function(alg, b, part):
    """The non-invariant function b . x or b . v on a stack of points, with its exact gradient."""
    n = alg.dim

    def fn(points):
        return points[..., "xv".index(part), :] @ b

    def gradient(points):
        out = np.zeros(2 * n)
        out[:n] = b if part == "x" else 0.0
        out[n:] = b if part == "v" else 0.0
        return np.broadcast_to(out, points.shape[:-2] + (2 * n,))

    fn.gradient = gradient
    return fn


@pytest.mark.parametrize("setup_name, data_name", [("setup_cp2", "data_cp2"), ("setup_cp3", "data_cp3")])
def test_bracket_agreement_catches_non_invariant_functions(request, setup_name, data_name):
    # b . v and b . x with b in m but off the sub-orbit tangent: the restricted
    # chart cannot see their derivatives off the sub-orbit bundle, so the
    # ambient and restricted brackets must disagree
    setup = request.getfixturevalue(setup_name)
    data = request.getfixturevalue(data_name)
    b = lc.complement_within(setup.sub_tangent, setup.config.tangent).basis[:, 0]
    fns = [_linear_function(setup.alg, b, "v"), _linear_function(setup.alg, b, "x")]
    for coords in dr.sample_regular_coords(setup, data, 3, seed=5)[:, None]:
        ambient, restricted = dr.bracket_agreement(setup, data, fns, coords)
        for k in range(2):  # each generator on its own
            assert dr.relative_bracket_residual(ambient[:, k], restricted[:, k]) > 1e-2


def test_bracket_agreement_skew_diagonal(setup_cp2, data_cp2, regular_coords_cp2):
    f = dr.invariant_function(setup_cp2.alg, ("v", "v"))
    ambient, restricted = dr.bracket_agreement(setup_cp2, data_cp2, [f], regular_coords_cp2[:1])
    assert ambient.shape == restricted.shape == (1, 2, 1, 1)
    assert np.max(np.abs(ambient)) <= 1e-10
    assert np.max(np.abs(restricted)) <= 1e-10


def test_bracket_agreement_trivial_reduction(setup_su2, data_su2):
    # ambient and restricted structures coincide outright
    alg = setup_su2.alg
    f = dr.invariant_function(alg, ("v", "v"))
    g = dr.invariant_function(alg, ("x", "v", "x", "v"))
    rng = np.random.default_rng(9)
    for _ in range(3):
        coords = rng.uniform(-0.08, 0.08, (1, data_su2.sub_chart.coord_dim))
        if not dr.is_regular(setup_su2, data_su2.sub_chart.point(coords))[0]:
            continue
        [ambient], [restricted] = dr.bracket_agreement(setup_su2, data_su2, [f, g], coords)
        assert np.max(np.abs(ambient[:, 0, 1] - restricted[:, 0, 1])) <= 1e-10


@pytest.mark.parametrize("setup_name, data_name", [("setup_cp2", "data_cp2"), ("setup_su5", "data_su5")])
def test_brackets_of_the_degenerate_member_agree(request, setup_name, data_name):
    # A member's bracket t1 {f, g}_1 + t2 {f, g}_2 takes no inverse of P_t, so the generators certify
    # t = (1, -1) too, where P1 - P2 = W1^-1 (W2 - W1) W2^-1 drops rank by dim O (W2 - W1 is pulled
    # back from O); on the su(5) partial flag the brackets are O(1)
    setup, data = request.getfixturevalue(setup_name), request.getfixturevalue(data_name)
    words = [("v", "v"), ("x", "x", "v", "v"), ("x", "v", "x", "v"), ("v", "v", "v", "v")]
    fns = [dr.invariant_function(setup.alg, w) for w in words]
    coords = dr.sample_regular_coords(setup, data, 3, seed=5)
    for pencil, c in ((data.ambient, data.pad_coords(coords)), (data.restricted, coords)):
        sigma = np.linalg.svd(pencil.p1(c) - pencil.p2(c), compute_uv=False)
        assert np.all(c.shape[1] - lc.rank_mask(sigma).sum(axis=-1) == c.shape[1] // 2)
    ambient, restricted = dr.bracket_agreement(setup, data, fns, coords)
    assert dr.relative_bracket_residual(ambient[:, 0] - ambient[:, 1], restricted[:, 0] - restricted[:, 1]) <= 1e-5


# ---------------------------------------------------------------------------
# Local freeness and transversality
# ---------------------------------------------------------------------------


def test_isotropy_excess(setup_su2, setup_cp2, data_cp2, regular_coords_cp2):
    base = stack_of_one(setup_su2.config.seed, setup_su2.x0)
    assert dr.isotropy_excess(setup_su2, base) == 0
    assert dr.isotropy_excess(setup_cp2, data_cp2.sub_chart.point(regular_coords_cp2)) == 0
    zero = stack_of_one(setup_cp2.config.seed, np.zeros(setup_cp2.alg.dim))
    assert dr.isotropy_excess(setup_cp2, zero) > 0


def test_transversality(setup_su2, setup_cp2):
    for setup in (setup_su2, setup_cp2):
        for scale in (0.6, 1.0, 1.4):
            y = scale * setup.x0
            point = stack_of_one(setup.config.seed, y)
            assert dr.transversality_deficiency(setup, point) == 0
        zero = stack_of_one(setup.config.seed, np.zeros(setup.alg.dim))
        assert dr.transversality_deficiency(setup, zero) > 0


def test_transversality_ranks_by_the_shared_rank_rule(monkeypatch, setup_cp2):
    # without slice fibers the audited matrices are the action vectors alone; all-noise ones have rank 0
    # under lie_core.rank_mask, so the whole 2 dim(m_hat) is missing
    setup = setup_cp2._replace(slice_space=lc.zero_subspace(setup_cp2.alg.dim))
    noise = 1e-12 * np.random.default_rng(6).standard_normal((2, 2 * setup.alg.dim, setup.centralizer.dim))
    monkeypatch.setattr(dr, "infinitesimal_action", lambda config, xi, points: noise)
    points = np.stack([np.tile(setup.config.seed, (2, 1)), np.zeros((2, setup.alg.dim))], axis=1)
    assert lc.rank_mask(np.linalg.svd(noise, compute_uv=False)).sum() == 0
    assert dr.transversality_deficiency(setup, points) == 2 * setup.sub_tangent.dim == 4


def test_restricted_forms_match_intrinsic_suborbit_forms(setup_cp2, data_cp2):
    """Dual-route check: restriction equals the intrinsic sub-orbit pencil.

    The centralizer is rebuilt as a standalone algebra from its matrix
    realisation; the sub-orbit of the seed inside it gets its own charts
    and its own two forms, computed entirely through the small algebra's
    structure constants.  Those intrinsic matrix fields must agree with
    the restriction-computed fields at matching coordinates.
    """
    su3 = setup_cp2.alg
    ghat = setup_cp2.centralizer
    mats = np.asarray([su3.matrix_of(ghat.basis[:, j]) for j in range(ghat.dim)])
    sub_alg = lc.algebra_from_matrices("centralizer", mats)
    a_hat = sub_alg.element_from_matrix(su3.matrix_of(setup_cp2.config.seed))
    cfg_hat = oc.orbit_config(sub_alg, a_hat)
    assert cfg_hat.orbit_dim == setup_cp2.sub_tangent.dim
    # translate the ambient sub-chart frame and base fiber elementwise;
    # basis coefficients on both sides are isometric for the trace product
    frame_hat = np.column_stack([
        sub_alg.element_from_matrix(su3.matrix_of(data_cp2.sub_chart.frame[:, i]))
        for i in range(data_cp2.sub_chart.frame_dim)
    ])
    v_hat = sub_alg.element_from_matrix(su3.matrix_of(data_cp2.sub_chart.base_v))
    chart_hat = oc.Chart(cfg_hat, base_v=v_hat, frame=frame_hat)
    rng = np.random.default_rng(3)
    for _ in range(3):
        coords = rng.uniform(-0.08, 0.08, (1, chart_hat.coord_dim))
        w1_intrinsic = oc.canonical_form_matrix(chart_hat, coords)
        w2_intrinsic = oc.omega2_matrix(chart_hat, coords)
        assert np.max(np.abs(w1_intrinsic - data_cp2.restricted.w1(coords))) <= 1e-9
        assert np.max(np.abs(w2_intrinsic - data_cp2.restricted.w2(coords))) <= 1e-9


def test_slice_normal_form_iteration_budget(setup_cp2):
    from orbitpencil.errors import ConvergenceError

    y = setup_cp2.config.tangent.basis @ unit_rows(4, "iteration-budget", [0], setup_cp2.config.tangent.dim)[0]
    with pytest.raises(ConvergenceError) as info:
        dr.slice_normal_form(setup_cp2, y[None], max_iter=1, tol=1e-14)
    assert info.value.best_residual is not None


# ---------------------------------------------------------------------------
# Nonabelian principal isotropy: the richest built-in reduction
# ---------------------------------------------------------------------------


def test_nonabelian_reduction_full_chain(setup_cp3, data_cp3):
    setup, data = setup_cp3, data_cp3
    assert setup.dims() == {
        "k": 9, "m": 6, "h": 4, "n(h)": 7, "p": 8,
        "g_hat": 4, "k_hat": 2, "m_hat": 2, "slice": 1, "z(g_hat)": 1,
    }
    # the isotropy algebra is nonabelian here, unlike every su(3) case
    assert lc.subalgebra_residual(setup.alg, setup.isotropy) <= 1e-10
    briefly_abelian = _max_pairwise_bracket(setup.alg, setup.isotropy)
    assert briefly_abelian > 1e-2

    coords_list = dr.sample_regular_coords(setup, data, 3, seed=5)
    w1, w2, p1a, p2a = data.ambient
    f = dr.invariant_function(setup.alg, ("v", "v"))
    g = dr.invariant_function(setup.alg, ("x", "v", "x", "v"))
    for coords in coords_list[:, None]:
        # restricted pencil stays compatible and symplectic
        assert pp.compatibility_residual(data.restricted.p1, data.restricted.p2, coords) <= 1e-5
        assert np.linalg.svd(data.restricted.w1(coords)[0], compute_uv=False)[-1] > 1e-6
        # canonical splitting stays form-orthogonal with an 8-dim complement
        padded = data.pad_coords(coords)
        [[pairing]], [[sigma_stratum]], [[sigma_complement]] = dr.splitting_orthogonality(
            setup, data.ambient_chart, padded, w1(padded)[:, None])
        assert pairing <= 1e-8
        assert min(sigma_complement, sigma_stratum) > 1e-6
        # brackets agree ambient vs restricted
        assert dr.relative_bracket_residual(*dr.bracket_agreement(setup, data, [f, g], coords)) <= 1e-5
    assert dr.isotropy_excess(setup, data.sub_chart.point(coords_list)) == 0
    base = stack_of_one(setup.config.seed, setup.x0)
    assert dr.transversality_deficiency(setup, base) == 0


def _max_pairwise_bracket(alg, sub):
    worst = 0.0
    for i in range(sub.dim):
        for j in range(i + 1, sub.dim):
            worst = max(worst, float(np.linalg.norm(alg.bracket(sub.basis[:, i], sub.basis[:, j]))))
    return worst
