import pathlib

import numpy as np
import pytest
import scipy.linalg

from orbitpencil import dirac_reduction as dr
from orbitpencil import families
from orbitpencil import lie_core as lc
from orbitpencil import orbit_charts as oc
from orbitpencil import poisson_pencil as pp
from orbitpencil import workbench as wb
from orbitpencil.errors import ChartDegeneracyError, ChartRangeError, DegeneracyError, DomainError

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def moved_chart(chart, rot):
    """The chart moved by the group element whose adjoint matrix is ``rot``: the chart of the moved
    orbit record, base offset and frame, which maps each coordinate to rot of its point."""
    config = chart.config
    moved = config._replace(seed=rot @ config.seed, stabilizer=lc.Subspace(rot @ config.stabilizer.basis),
                            tangent=lc.Subspace(rot @ config.tangent.basis))
    return oc.Chart(moved, base_v=rot @ chart.base_v, frame=rot @ chart.frame)


def kernel_dim_oracle(alg, a):
    """dim ker ad(a) through the matrix realisation."""
    cols = []
    ma = alg.matrix_of(a)
    for i in range(alg.dim):
        mi = alg.basis[i]
        cols.append(alg.element_from_matrix(ma @ mi - mi @ ma))
    sig = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    return alg.dim - int(np.sum(sig > 1e-9 * max(sig[0], 1.0)))


@pytest.mark.parametrize(
    "family,n,spectrum,expected_k,expected_m",
    [
        ("su", 2, [1, -1], 1, 2),
        ("su", 3, [2, -1, -1], 4, 4),
        ("su", 3, [1, 2, -3], 2, 6),
    ],
)
def test_orbit_config_dimensions(family, n, spectrum, expected_k, expected_m):
    alg = families.su(n)
    a = families.diagonal_seed(alg, spectrum)
    assert kernel_dim_oracle(alg, a) == expected_k
    config = oc.orbit_config(alg, a)
    assert config.stabilizer.dim == expected_k
    assert config.tangent.dim == expected_m
    # stabilizer really commutes with the seed, tangent = image of ad(seed)
    for j in range(config.stabilizer.dim):
        assert np.linalg.norm(alg.bracket(config.stabilizer.basis[:, j], a)) <= 1e-10
    image = lc.span(alg.ad(a))
    assert lc.projector_distance(image, config.tangent) <= 1e-8


def test_orbit_config_rejects_zero_seed(su2):
    with pytest.raises(DomainError):
        oc.orbit_config(su2, np.zeros(3))
    # a nonzero central seed has a point orbit too
    u1 = lc.algebra_from_matrices("u(1)", [[[1j]]])
    with pytest.raises(DomainError):
        oc.orbit_config(u1, np.ones(1))


# ---------------------------------------------------------------------------
# Exponential machinery
# ---------------------------------------------------------------------------


def _xi(alg, kind):
    if kind == "zero":
        return np.zeros(alg.dim)
    if kind == "cartan":
        # diagonal span: ad(xi) has repeated eigenvalues (0 at least rank-fold)
        # so(n) takes one rotation angle per 2x2 block, su(n) one eigenvalue per row
        count = alg.matrix_dim // 2 if alg.name.startswith("so") else alg.matrix_dim
        return families.diagonal_seed(alg, [0.7, -0.2, 0.4, -0.9][:count])
    vec = np.random.default_rng(5).standard_normal(alg.dim)
    return 3.0 * vec / np.linalg.norm(vec)  # |xi| = 3, far outside the chart box


@pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("su", 4), ("so", 4), ("so", 5)])
@pytest.mark.parametrize("kind", ["zero", "cartan", "far"])
def test_exponential_and_dexp_match_scipy(family, n, kind):
    # scipy's exponential of ad(xi) is the independent reference for the
    # conjugation computed on the defining matrices.
    alg = getattr(families, family)(n)
    xi = _xi(alg, kind)
    m = alg.ad(xi)
    big = oc.conjugate(alg, xi, np.eye(alg.dim)).T  # column b is Ad(e^xi) e_b
    assert np.max(np.abs(big - scipy.linalg.expm(m))) <= 1e-12
    assert np.max(np.abs(big.T @ big - np.eye(alg.dim))) <= 1e-13
    directions = np.concatenate([np.eye(alg.dim), np.random.default_rng(6).standard_normal((2, alg.dim))])
    trans = oc.dexp_apply(alg, xi, np.array([alg.matrix_of(d) for d in directions]))
    assert trans.shape == directions.shape
    for d, t in zip(directions, trans):
        frechet = scipy.linalg.expm_frechet(m, alg.ad(d), compute_expm=False)
        assert np.max(np.abs(big @ alg.ad(t) - frechet)) <= 1e-12


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------


def make_chart(setup_like):
    config = setup_like.config
    return oc.Chart(config, base_v=setup_like.x0, frame=config.tangent.basis)


def test_chart_map_base_point(setup_su2):
    chart = make_chart(setup_su2)
    base = chart.point(np.zeros((1, chart.coord_dim)))
    assert np.allclose(base[:, 0], setup_su2.config.seed, atol=1e-14)
    assert np.allclose(base[:, 1], setup_su2.x0, atol=1e-14)


def test_chart_map_against_matrix_conjugation(setup_cp2):
    # independent oracle: conjugate the matrix realisation directly
    chart = make_chart(setup_cp2)
    alg = setup_cp2.alg
    rng = np.random.default_rng(0)
    for _ in range(5):
        coords = rng.uniform(-0.1, 0.1, chart.coord_dim)
        point = chart.point(coords[None])
        f = chart.frame_dim
        xi_mat = alg.matrix_of(chart.frame @ coords[:f])
        g = scipy.linalg.expm(xi_mat)
        ginv = scipy.linalg.expm(-xi_mat)
        x_mat = g @ alg.matrix_of(setup_cp2.config.seed) @ ginv
        v_mat = g @ alg.matrix_of(setup_cp2.x0 + chart.frame @ coords[f:]) @ ginv
        assert np.allclose(alg.matrix_of(point[0, 0]), x_mat, atol=1e-12)
        assert np.allclose(alg.matrix_of(point[0, 1]), v_mat, atol=1e-12)


def test_chart_spectrum_preservation(setup_su3_regular):
    chart = make_chart(setup_su3_regular)
    config = setup_su3_regular.config
    rng = np.random.default_rng(1)
    for _ in range(100):
        point = chart.point(rng.uniform(-0.1, 0.1, (1, chart.coord_dim)))
        spec_err, fiber_err = oc.point_residuals(config, point)
        assert spec_err <= 1e-8
        assert fiber_err <= 1e-8


def _adjoint_svd_residuals(config, points):
    # reference: the spectrum from eigvalsh, the fiber as the span of ad x from its SVD
    alg = config.alg
    x, v = points[..., 0, :], points[..., 1, :, None]
    spec = np.sort(np.linalg.eigvalsh(1j * lc._lincomb(x, alg.basis)), axis=-1)
    u, s, _ = np.linalg.svd(lc._lincomb(x, alg.ad_basis))
    fiber = u * lc.rank_mask(s)[..., None, :]
    fiber_err = np.linalg.norm((v - fiber @ (fiber.mT @ v))[..., 0], axis=-1)
    return np.max(np.abs(spec - config.seed_spectrum), axis=-1), fiber_err


@pytest.mark.parametrize("family, n, spectrum", [
    ("su", 2, [1, -1]), ("su", 3, [2, -1, -1]), ("su", 4, [3, -1, -1, -1]), ("su", 5, [3, 1, -1, -1, -1]),
    ("so", 3, [1]), ("so", 4, [1, 1]), ("so", 5, [2, 1]), ("custom-su", 3, [1, 2, -3]),
])
def test_point_residuals_match_the_adjoint_svd(family, n, spectrum):
    if family == "custom-su":
        alg = lc.algebra_from_matrices(family, families.su_generators(n))
    else:
        alg = getattr(families, family)(n)
    config = oc.orbit_config(alg, families.diagonal_seed(alg, spectrum))
    chart = oc.Chart(config, base_v=config.tangent.basis[:, 0], frame=config.tangent.basis)
    points = chart.point(np.random.default_rng(5).uniform(-0.1, 0.1, (20, chart.coord_dim)))
    spec_err, fiber_err = oc.point_residuals(config, points)
    ref_spec, ref_fiber = _adjoint_svd_residuals(config, points)
    assert np.max(spec_err) <= 1e-13 and np.max(fiber_err) <= 1e-13
    assert np.allclose(spec_err, ref_spec, rtol=0.0, atol=1e-14)
    assert np.allclose(fiber_err, ref_fiber, rtol=0.0, atol=1e-14)
    # a unit centralizer element of x, planted in v at 1e-6, is what leaves the fiber
    rng = np.random.default_rng(6)
    off_fiber = points.copy()
    for point in off_fiber:
        cent = lc.kernel(alg.ad(point[0])).basis @ rng.normal(size=config.stabilizer.dim)
        point[1] += 1e-6 * cent / np.linalg.norm(cent)
    for err in (oc.point_residuals(config, off_fiber)[1], _adjoint_svd_residuals(config, off_fiber)[1]):
        assert np.allclose(err, 1e-6, rtol=1e-8, atol=0.0)
    # x scaled off the orbit moves its spectrum by 1e-6 of the seed's
    off_orbit = points.copy()
    off_orbit[:, 0] *= 1 + 1e-6
    expected = 1e-6 * np.max(np.abs(config.seed_spectrum))
    for err in (oc.point_residuals(config, off_orbit)[0], _adjoint_svd_residuals(config, off_orbit)[0]):
        assert np.allclose(err, expected, rtol=1e-6, atol=0.0)


def test_chart_injectivity_spot_check(setup_su2):
    chart = make_chart(setup_su2)
    rng = np.random.default_rng(2)
    for _ in range(25):
        c1 = rng.uniform(-0.1, 0.1, chart.coord_dim)
        c2 = rng.uniform(-0.1, 0.1, chart.coord_dim)
        if np.linalg.norm(c1 - c2) < 1e-6:
            continue
        p1, p2 = chart.point(c1[None]), chart.point(c2[None])
        gap = np.linalg.norm(p1 - p2)
        assert gap > 1e-8 * np.linalg.norm(c1 - c2)


def test_chart_range_error(setup_su2):
    chart = make_chart(setup_su2)
    coords = np.zeros((1, chart.coord_dim))
    coords[0, 0] = 0.6
    with pytest.raises(ChartRangeError):
        chart.point(coords)


def test_su2_one_parameter_great_circle(su2, pauli_elements):
    # moving only the conjugation coordinate rotates x on a great circle:
    # d/du x = [u_dir, x] is simple harmonic, so
    # x(u) = cos(r u) e3 + sin(r u) [u_dir, e3] / r  with r the rotation rate
    e1, e2, e3 = pauli_elements
    config = oc.orbit_config(su2, e3)
    frame = np.column_stack([e1 / np.linalg.norm(e1), e2 / np.linalg.norm(e2)])
    chart = oc.Chart(config, base_v=e1, frame=frame)
    u_dir = frame[:, 0]
    w = su2.bracket(u_dir, e3)
    rate = np.linalg.norm(w) / np.linalg.norm(e3)
    for u in np.linspace(-0.4, 0.4, 9):
        x = chart.point(np.array([[u, 0.0, 0.0, 0.0]]))[0, 0]
        assert abs(np.linalg.norm(x) - np.linalg.norm(e3)) <= 1e-12
        exact = np.cos(rate * u) * e3 + np.sin(rate * u) * w / rate
        assert np.allclose(x, exact, atol=1e-10)


def test_pushforward_matches_finite_differences(setup_su3_regular):
    chart = make_chart(setup_su3_regular)
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(20):
        coords = rng.uniform(-0.1, 0.1, (1, chart.coord_dim))
        push = chart.pushforward(coords)[0]
        fd = np.empty_like(push)
        for j in range(chart.coord_dim):
            plus = chart.point(oc.shifted(coords, j, +h))
            minus = chart.point(oc.shifted(coords, j, -h))
            fd[:, j] = (plus - minus)[0].ravel() / (2 * h)
        assert np.max(np.abs(push - fd)) <= 1e-8


def test_pushforward_base_columns(setup_cp2):
    chart = make_chart(setup_cp2)
    alg = setup_cp2.alg
    n = alg.dim
    f = chart.frame_dim
    push = chart.pushforward(np.zeros((1, chart.coord_dim)))[0]
    for i in range(f):
        mi = chart.frame[:, i]
        assert np.allclose(push[:n, i], alg.bracket(mi, setup_cp2.config.seed), atol=1e-13)
        assert np.allclose(push[n:, i], alg.bracket(mi, setup_cp2.x0), atol=1e-13)
        assert np.allclose(push[:n, f + i], 0.0)
        assert np.allclose(push[n:, f + i], mi, atol=1e-13)


# ---------------------------------------------------------------------------
# The two 2-forms
# ---------------------------------------------------------------------------


def test_canonical_form_skew_and_pinned_determinant(setup_su2):
    chart = make_chart(setup_su2)
    w = oc.canonical_form_matrix(chart, np.zeros((1, chart.coord_dim)))[0]
    assert np.max(np.abs(w + w.T)) == 0.0
    det = np.linalg.det(w)
    assert abs(det) > 1e-6
    # pinned on first run: the base-point canonical form has determinant 16
    assert abs(det - 16.0) <= 1e-6


def test_canonical_form_closedness(setup_su2):
    chart = make_chart(setup_su2)
    field = oc.canonical_form_field(chart)
    rng = np.random.default_rng(5)
    for _ in range(10):
        coords = rng.uniform(-0.1, 0.1, (1, chart.coord_dim))
        assert oc.closedness_residual(field, coords) <= 1e-5


def fd_canonical_form_matrix(chart, coords, h=1e-4):
    """Reference d theta at a (1, d) stack: central differences of theta_j = <v, Px_j>, antisymmetrised."""
    n = chart.config.alg.dim
    c = np.asarray(coords, dtype=float)

    def theta(cc):
        return chart.pushforward(cc)[0, :n].T @ chart.point(cc)[0, 1]

    grad = np.stack([
        (theta(oc.shifted(c, i, +h)) - theta(oc.shifted(c, i, -h))) / (2.0 * h)
        for i in range(chart.coord_dim)
    ])
    return grad - grad.T


def test_canonical_form_matches_finite_difference_reference(setup_su2, setup_cp2, data_cp2):
    rng = np.random.default_rng(9)
    for chart in (make_chart(setup_su2), make_chart(setup_cp2), data_cp2.ambient_chart, data_cp2.sub_chart):
        for _ in range(2):
            coords = rng.uniform(-0.1, 0.1, (1, chart.coord_dim))
            exact = oc.canonical_form_matrix(chart, coords)[0]
            reference = fd_canonical_form_matrix(chart, coords)
            assert np.max(np.abs(exact - reference)) <= 1e-8


def test_pushforward_miss_takes_one_eigh_and_no_adjoint_matrix(monkeypatch, setup_cp2, data_cp2):
    # one eigendecomposition of the n x n matrix i X serves dexp at a frame miss, and one more e^X
    # at a pushforward miss, which conjugates the frame blocks; the frame matrices are built once per chart
    counts = {"eigh": 0, "ad": 0}
    eigh, ad = np.linalg.eigh, lc.LieAlgebra.ad

    def counted_eigh(*args, **kwargs):
        counts["eigh"] += 1
        return eigh(*args, **kwargs)

    def counted_ad(self, coeffs):
        counts["ad"] += 1
        return ad(self, coeffs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(lc.LieAlgebra, "ad", counted_ad)
    sub = data_cp2.sub_chart
    for ch in (make_chart(setup_cp2), oc.Chart(setup_cp2.config, base_v=sub.base_v, frame=sub.frame)):
        coords = np.full((1, ch.coord_dim), 0.05)
        counts.update(eigh=0, ad=0)
        ch.frame_blocks(coords)
        assert counts == {"eigh": 1, "ad": 0}
        ch.pushforward(coords)
        assert counts == {"eigh": 2, "ad": 0}
        ch.frame_blocks(coords), ch.pushforward(coords)  # memo hits
        assert counts == {"eigh": 2, "ad": 0}


class SabotagedChart(oc.Chart):
    """Chart whose frame column 0 is scaled by 1 + 0.5 c[1] at each row c: no longer a derivative."""

    def _frame_at(self, c):
        blocks = super()._frame_at(c)
        blocks[..., 0] *= 1.0 + 0.5 * c[:, 1:2, None]
        return blocks


def test_canonical_closedness_catches_sabotaged_pushforward(setup_cp2, data_cp2, ambient_coords):
    chart = data_cp2.ambient_chart
    bad = SabotagedChart(setup_cp2.config, base_v=chart.base_v, frame=chart.frame)
    coords = ambient_coords(chart, 3)
    good_res = oc.closedness_residual(oc.canonical_form_field(chart), coords)
    bad_res = oc.closedness_residual(oc.canonical_form_field(bad), coords)
    assert good_res <= 1e-5
    assert bad_res > 1e-2


def test_pullback_matrix_kills_fiber_directions(setup_cp2):
    chart = make_chart(setup_cp2)
    coords = np.full((1, chart.coord_dim), 0.04)
    pull = oc.orbit_form_pullback_matrix(chart, coords)[0]
    f = chart.frame_dim
    assert np.max(np.abs(pull[f:, f:])) <= 1e-12
    assert np.max(np.abs(pull[:f, f:])) <= 1e-12


def test_pullback_matrix_matches_einsum_reference(setup_cp2, data_cp2):
    # reference: the four-operand contraction -lifts_ai lifts_bj c_abk x_k
    alg = setup_cp2.alg
    rng = np.random.default_rng(10)
    for chart in (make_chart(setup_cp2), data_cp2.sub_chart):
        coords = rng.uniform(-0.08, 0.08, (1, chart.coord_dim))
        x = chart.point(coords)[0, 0]
        lifts = np.linalg.lstsq(alg.ad(x), chart.pushforward(coords)[0, :alg.dim], rcond=None)[0]
        ref = -np.einsum("ai,bj,abk,k->ij", lifts, lifts, alg.structure, x)
        ref = 0.5 * (ref - ref.T)
        assert np.max(np.abs(oc.orbit_form_pullback_matrix(chart, coords)[0] - ref)) <= 1e-12


def test_lifts_solve_ad_x_against_the_pushforward(setup_cp2, data_cp2):
    # conjugate([a, l]) = dx for every column, on the ambient, sub and a rotated chart, where l are the
    # lifts of the frame blocks; a fiber column moves v only, and its lift is exactly 0
    alg = setup_cp2.alg
    chart, sub = data_cp2.ambient_chart, data_cp2.sub_chart
    rot = scipy.linalg.expm(alg.ad(0.3 * np.random.default_rng(13).standard_normal(alg.dim)))
    charts = [chart, sub, moved_chart(chart, rot)]
    rng = np.random.default_rng(14)
    for ch in charts:
        coords = rng.uniform(-0.1, 0.1, (3, ch.coord_dim))
        lifts = ch.frame_blocks(coords)[:, 2]
        assert lifts.shape == (3, alg.dim, ch.coord_dim)
        moved = oc.conjugate(alg, coords[:, :ch.frame_dim] @ ch.frame.T, (alg.ad(ch.config.seed) @ lifts).mT)
        assert np.max(np.abs(moved.mT - ch.pushforward(coords)[:, :alg.dim])) <= 1e-13
        assert not np.any(lifts[..., ch.frame_dim:])


def test_combined_form_base_dependence_only(setup_cp2):
    # the pullback part depends on the conjugation coordinates only
    chart = make_chart(setup_cp2)
    rng = np.random.default_rng(6)
    f = chart.frame_dim
    u = rng.uniform(-0.08, 0.08, f)
    w1 = rng.uniform(-0.08, 0.08, f)
    w2 = rng.uniform(-0.08, 0.08, f)
    c1 = np.concatenate([u, w1])[None]
    c2 = np.concatenate([u, w2])[None]
    d1 = oc.omega2_matrix(chart, c1) - oc.canonical_form_matrix(chart, c1)
    d2 = oc.omega2_matrix(chart, c2) - oc.canonical_form_matrix(chart, c2)
    assert np.max(np.abs(d1 - d2)) <= 1e-9


def test_combined_form_nondegenerate_su3_regular(setup_su3_regular, data_su3_regular):
    chart = data_su3_regular.ambient_chart
    field = data_su3_regular.ambient.w2
    rng = np.random.default_rng(7)
    for _ in range(10):
        coords = rng.uniform(-0.1, 0.1, (1, chart.coord_dim))
        sig = np.linalg.svd(field(coords)[0], compute_uv=False)
        assert sig[-1] > 1e-4


def test_closedness_residual_constant_field_and_control(setup_su2):
    chart = make_chart(setup_su2)
    const = oc.FormField(lambda c: np.broadcast_to([[0.0, 1.0], [-1.0, 0.0]], (len(c), 2, 2)), 2)
    coords = np.zeros((1, 2))
    assert oc.closedness_residual(const, coords) <= 1e-12
    base = oc.canonical_form_field(chart)

    def corrupted(c):
        mat = np.array(base(c), copy=True)
        mat[..., 0, 1] += np.sin(3.0 * c[..., 2])
        mat[..., 1, 0] -= np.sin(3.0 * c[..., 2])
        return mat

    bad = oc.FormField(corrupted, chart.coord_dim)
    coords = np.full((1, chart.coord_dim), 0.05)
    assert oc.closedness_residual(bad, coords) > 1e-2


def test_form_invariance_under_moved_chart(setup_cp2, data_cp2):
    chart = data_cp2.ambient_chart
    alg = setup_cp2.alg
    w1_field, w2_field, _, _ = data_cp2.ambient
    rng = np.random.default_rng(8)
    coords = rng.uniform(-0.08, 0.08, (1, chart.coord_dim))
    for _ in range(3):
        rot = scipy.linalg.expm(alg.ad(0.4 * rng.standard_normal(alg.dim)))
        moved = moved_chart(chart, rot)
        assert np.max(np.abs(moved.point(coords) - chart.point(coords) @ rot.T)) <= 1e-12
        w1_moved = oc.canonical_form_matrix(moved, coords)
        w2_moved = w1_moved + oc.orbit_form_pullback_matrix(moved, coords)
        assert np.max(np.abs(w1_moved - w1_field(coords))) <= 1e-8
        assert np.max(np.abs(w2_moved - w2_field(coords))) <= 1e-8


def _conjugated_forms(chart, coords):
    """Reference: the canonical form from the conjugated pushforward, and the orbit form from the point's
    x and the conjugated lifts, -<x, [zeta_a, zeta_b]>."""
    alg, n = chart.config.alg, chart.config.alg.dim
    push = chart.pushforward(coords)
    a = push[:, n:].mT @ push[:, :n]
    x = chart.point(coords)[:, 0]
    xi = coords[:, :chart.frame_dim] @ chart.frame.T
    lifts = oc.conjugate(alg, xi, chart.frame_blocks(coords)[:, 2].mT).mT
    orbit = -lifts.mT @ (x @ alg.structure.reshape(-1, n).T).reshape(x.shape + (n,)) @ lifts
    return a - a.mT, a - a.mT + 0.5 * (orbit - orbit.mT)


@pytest.mark.parametrize("name", ["su3_projective_plane", "su4_projective_space", "su5_partial_flag"])
def test_forms_read_the_frame_blocks_and_agree_with_the_conjugated_forms(monkeypatch, name):
    # Both forms are invariant, so the frame blocks before conjugation give them: on the closedness
    # stencils of both charts, w1 and w2 call neither the conjugation nor the chart point and agree
    # with the forms read from the conjugated pushforward, point and lifts to 1e-12 relative.
    ctx = wb.prepare_context(wb.load_config(CONFIGS / f"{name}.json"))
    calls = []
    conjugate, point_at = oc.conjugate, oc.Chart._point_at
    monkeypatch.setattr(oc, "conjugate", lambda *a: calls.append("conjugate") or conjugate(*a))
    monkeypatch.setattr(oc.Chart, "_point_at", lambda self, c: calls.append("point") or point_at(self, c))
    data = dr.restricted_pencil(ctx.setup, ctx.setup.x0)  # charts built after the patch
    for chart, pencil, centres in ((data.ambient_chart, data.ambient, ctx.ambient_coords),
                                   (data.sub_chart, data.restricted, ctx.regular_coords)):
        rows = _stencil_rows(centres, oc.FD_STEP)
        calls.clear()
        w1, w2 = pencil.w1(rows), pencil.w2(rows)
        assert calls == []
        ref1, ref2 = _conjugated_forms(chart, rows)
        assert np.max(np.abs(w1 - ref1)) <= 1e-12 * np.max(np.abs(ref1))
        assert np.max(np.abs(w2 - ref2)) <= 1e-12 * np.max(np.abs(ref2))


# ---------------------------------------------------------------------------
# Stacked coordinates
# ---------------------------------------------------------------------------


def _fresh_charts(setup, data):
    """Two unevaluated copies of the ambient chart and of the sub chart."""
    return [tuple(oc.Chart(setup.config, base_v=chart.base_v, frame=chart.frame) for _ in range(2))
            for chart in (data.ambient_chart, data.sub_chart)]


@pytest.mark.parametrize("setup_name,data_name", [("setup_cp2", "data_cp2"), ("setup_cp3", "data_cp3")])
def test_stacked_evaluation_matches_single_rows(request, setup_name, data_name):
    # Every row is computed on its own inside the stack, so a stacked result
    # equals the results at each stack of one bit for bit, well inside 1e-15 relative.
    setup, data = request.getfixturevalue(setup_name), request.getfixturevalue(data_name)
    rng = np.random.default_rng(12)
    for single, stacked in _fresh_charts(setup, data):
        coords = rng.uniform(-0.1, 0.1, (6, single.coord_dim))
        rows = coords[:, None]
        points = [single.point(c) for c in rows]
        point = stacked.point(coords)
        assert point.shape == (6, 2, setup.alg.dim)
        assert np.array_equal(point, np.concatenate(points))
        assert np.array_equal(stacked.pushforward(coords), np.concatenate([single.pushforward(c) for c in rows]))
        for form in (oc.canonical_form_matrix, oc.omega2_matrix):
            assert np.array_equal(form(stacked, coords), np.concatenate([form(single, c) for c in rows]))
        p_single = pp.invert_form(oc.combined_form_field(single))
        p_stacked = pp.invert_form(oc.combined_form_field(stacked))
        assert np.array_equal(p_stacked(coords), np.concatenate([p_single(c) for c in rows]))


def test_memo_calls_fn_once_per_distinct_stack_and_returns_a_read_only_value():
    stacks = []

    def fn(rows):
        stacks.append(rows.tolist())
        return 2.0 * rows

    memo = oc.CoordinateMemo(fn)
    a, b = [0.1, 0.2], [0.3, 0.4]
    value = memo(np.array([a, b, a]))
    assert stacks == [[a, b, a]]  # the caller's stack as it is, duplicate and order kept
    assert memo(np.array([a, b, a])) is value
    assert len(stacks) == 1
    with pytest.raises(ValueError):
        value[0, 0] = 1.0
    # parts of a seen stack, a reversal and the same bytes in another shape are stacks of their own
    for stack in ([a], [a, b], [b, a], [a + b]):
        memo(np.array(stack))
    assert stacks[1:] == [[a], [a, b], [b, a], [a + b]]


@pytest.mark.parametrize("setup_name", ["setup_cp2", "setup_cp3"])
def test_a_row_gets_the_same_bits_alone_inside_a_larger_stack_and_reversed(request, setup_name):
    # Each stack is evaluated afresh, so a row's value must not depend on the stack around it.
    setup = request.getfixturevalue(setup_name)
    data = dr.restricted_pencil(setup, setup.x0)
    chart, pencil = data.ambient_chart, data.ambient
    coords = np.random.default_rng(21).uniform(-0.1, 0.1, (5, chart.coord_dim))
    for name, fn in {"point": chart.point, "pushforward": chart.pushforward, "frame_blocks": chart.frame_blocks,
                     "w1": pencil.w1, "w2": pencil.w2, "p1": pencil.p1}.items():
        stacked = fn(coords)
        assert np.array_equal(fn(coords[::-1])[::-1], stacked), name
        assert np.array_equal(np.concatenate([fn(c) for c in coords[:, None]]), stacked), name


def test_stacked_chart_rejects_a_row_outside_the_box(setup_cp2):
    chart = make_chart(setup_cp2)
    coords = np.zeros((3, chart.coord_dim))
    coords[1, 2] = 0.6
    with pytest.raises(ChartRangeError):
        chart.point(coords)
    with pytest.raises(ChartRangeError):
        chart.pushforward(coords)


def _stencil_rows(centres, step):
    """The (2 d m, d) stack that central_partials hands its fn: c + step e_l, then c - step e_l."""
    rows = []
    oc.central_partials(lambda c: rows.append(c) or c, centres, step)
    return rows[0]


def _guarded(chart, rows):
    """The (m, 2n, d) stack of x- and v-blocks that the rank guard reads at a frame evaluation."""
    blocks = chart.frame_blocks(rows)
    return blocks[:, :2].reshape(len(rows), -1, chart.coord_dim)


def _rank_deficient(mats, index):
    """Copy of a stack of frame blocks whose matrix ``index`` has a zero first column."""
    mats = np.array(mats, copy=True)
    mats[index, :, 0] = 0.0
    return mats


@pytest.mark.parametrize("where", ["reference", "member", "trailing"])
def test_grouped_rank_guard_refuses_every_rank_deficient_row(setup_cp2, where):
    # The guard takes one SVD per run of 2 d matrices, of the run's first, and certifies the
    # others by Weyl's inequality; one rank-deficient matrix, wherever it sits, is refused.
    chart = make_chart(setup_cp2)
    d = chart.coord_dim
    rows = _stencil_rows(np.full((3, d), 0.05), 1e-4)
    if where == "trailing":  # a stencil and then two rows, a run of its own cut short
        rows = np.concatenate([rows, np.full((2, d), 0.05)])
    bad = {"reference": 2 * d, "member": 2 * d + 2 * chart.frame_dim, "trailing": len(rows) - 1}[where]
    mats = _rank_deficient(_guarded(chart, rows), bad)
    oc._certify_rank(np.delete(mats, bad, axis=0), 2 * d)
    with pytest.raises(ChartDegeneracyError):
        oc._certify_rank(mats[bad:bad + 1], 2 * d)
    with pytest.raises(ChartDegeneracyError):
        oc._certify_rank(mats, 2 * d)


def test_grouped_rank_guard_takes_one_svd_per_stencil_centre(monkeypatch, setup_cp3):
    # a healthy CP3 closedness stencil, 8 centres x 24 rows: every row but the reference rows is
    # certified, so the guard's one SVD call takes the 8 reference rows alone
    data = dr.restricted_pencil(setup_cp3, setup_cp3.x0)
    chart = data.ambient_chart
    centres = np.random.default_rng(8).uniform(-0.1, 0.1, (8, chart.coord_dim))
    assert 2 * chart.coord_dim == 24
    rows = _stencil_rows(centres, oc.FD_STEP)
    svd, seen = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: seen.append(a.copy()) or svd(a, *args, **kwargs))
    oc.closedness_residual(data.ambient.w1, centres)
    monkeypatch.undo()
    assert len(seen) == 1
    assert np.array_equal(seen[0], _guarded(chart, rows[::24]))


def test_stacked_pushforward_rejects_a_rank_deficient_row(monkeypatch, setup_cp2):
    # conjugation column 0 vanishes at rows with u_0 > 0.2: the frame blocks, and so the pushforward,
    # lose rank there, and the guard of the frame evaluation refuses the stack
    chart = make_chart(setup_cp2)
    dexp = oc.dexp_apply

    def stalled(alg, xi, frame_matrices):
        trans = dexp(alg, xi, frame_matrices)
        trans[xi @ chart.frame[:, 0] > 0.2, 0] = 0.0
        return trans

    monkeypatch.setattr(oc, "dexp_apply", stalled)
    coords = np.full((3, chart.coord_dim), 0.05)
    assert chart.pushforward(coords).shape == (3, 2 * setup_cp2.alg.dim, chart.coord_dim)
    coords[1, 0] = 0.3
    with pytest.raises(ChartDegeneracyError):
        chart.frame_blocks(coords)
    with pytest.raises(ChartDegeneracyError):
        chart.pushforward(coords)


def test_short_stack_rank_guard_takes_one_svd(monkeypatch, setup_cp2):
    # three matrices, fewer than a stencil: one SVD of every matrix, which refuses the deficient one
    chart = make_chart(setup_cp2)
    mats = _rank_deficient(_guarded(chart, np.full((3, chart.coord_dim), 0.05)), 1)
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: calls.append(len(a)) or svd(a, *args, **kwargs))
    with pytest.raises(ChartDegeneracyError):
        oc._certify_rank(mats, 2 * chart.coord_dim)
    assert calls == [3]
    oc._certify_rank(mats[[0, 2]], 2 * chart.coord_dim)
    assert calls == [3, 2]


def test_stacked_inverse_names_the_singular_row():
    # a constant nondegenerate form, except at rows whose first coordinate is 1
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    field = oc.FormField(lambda c: block * (c[:, :1, None] != 1.0), 2)
    inverse = pp.invert_form(field)
    coords = np.array([[0.0, 0.5], [0.2, 0.1], [1.0, 0.7], [0.3, 0.3]])
    with pytest.raises(DegeneracyError) as err:
        inverse(coords)
    assert err.value.coords == (1.0, 0.7)
    assert np.array_equal(inverse(coords[[0, 1, 3]]), np.stack([-block] * 3))


def test_infinitesimal_action(su2, pauli_elements, setup_su2):
    e1, e2, e3 = pauli_elements
    config = oc.orbit_config(su2, e3)
    point = np.stack([e3, e1])
    # stabiliser of both components gives the zero pair
    iso = lc.kernel(np.vstack([su2.ad(e3), su2.ad(e1)]))
    assert iso.dim == 0
    out = oc.infinitesimal_action(config, e3, point)
    assert np.allclose(out[:3], 0.0, atol=1e-14)
    assert np.allclose(out[3:], e2, atol=1e-12)
