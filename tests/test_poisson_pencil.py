import numpy as np
import pytest

from orbitpencil import orbit_charts as oc
from orbitpencil import poisson_pencil as pp
from orbitpencil.errors import DegeneracyError, InputError


def constant_field(mat, dim):
    return oc.FormField(lambda c: np.broadcast_to(np.array(mat, dtype=float), (len(c), dim, dim)), dim)


def member(p1, p2, t1, t2):
    """The pencil member t1 P1 + t2 P2, with partials t1 dP1 + t2 dP2."""
    return pp.PoissonField(lambda c: t1 * p1(c) + t2 * p2(c), p1.dim,
                           partials=lambda c: t1 * p1.partials(c) + t2 * p2.partials(c))


def symplectic_block(n):
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


# ---------------------------------------------------------------------------
# invert_form
# ---------------------------------------------------------------------------


def test_invert_standard_block():
    j = symplectic_block(2)
    field = constant_field(j, 4)
    inv = pp.invert_form(field)
    coords = np.zeros((1, 4))
    assert np.allclose(inv(coords), -j, atol=1e-14)


def test_invert_twice_roundtrip(data_su2):
    coords = np.full((1, data_su2.sub_chart.coord_dim), 0.02)
    w = data_su2.restricted.w1(coords)
    once = pp.invert_form(data_su2.restricted.w1)
    field_again = oc.FormField(lambda c: once(c), once.dim)
    twice = pp.invert_form(field_again)
    assert np.max(np.abs(twice(coords) - w)) <= 1e-10


def test_invert_su2_base_residual(data_su2):
    # pinned direct solve: |P W - I| stays at solver precision
    coords = np.zeros((1, data_su2.sub_chart.coord_dim))
    p = data_su2.restricted.p1(coords)[0]
    w = data_su2.restricted.w1(coords)[0]
    assert np.linalg.norm(p @ w - np.eye(len(w))) <= 1e-10
    # the base canonical form of the su(2) configuration has determinant 16,
    # so its inverse has determinant 1/16 (pinned)
    assert abs(np.linalg.det(p) - 1.0 / 16.0) <= 1e-9


def test_invert_singular_field_raises():
    singular = constant_field(np.zeros((4, 4)), 4)
    bad = pp.invert_form(singular)
    with pytest.raises(DegeneracyError):
        bad(np.zeros((1, 4)))


# ---------------------------------------------------------------------------
# pencil
# ---------------------------------------------------------------------------


def test_pencil_combinations(data_su2):
    coords = np.full((1, data_su2.sub_chart.coord_dim), 0.01)
    p1 = data_su2.restricted.p1
    # the sum field of compatibility_residual adds values and partials: P1 + P1 = 2 P1 scales
    # every Jacobi term by exactly 4
    residual = pp.jacobi_residual(p1, coords)
    assert residual > 0.0 and pp.compatibility_residual(p1, p1, coords) == 4.0 * residual


def test_pencil_dim_mismatch(data_su2, data_cp2):
    with pytest.raises(InputError):
        pp.compatibility_residual(data_su2.restricted.p1, data_cp2.ambient.p1, np.zeros((1, 4)))


# ---------------------------------------------------------------------------
# Jacobi residual
# ---------------------------------------------------------------------------


def test_jacobi_constant_field_is_zero():
    field = pp.PoissonField(lambda c: np.broadcast_to(symplectic_block(2), (len(c), 4, 4)), 4)
    assert pp.jacobi_residual(field, np.zeros((1, 4))) <= 1e-15


def test_jacobi_su2_canonical(data_su2):
    p1 = data_su2.restricted.p1
    rng = np.random.default_rng(0)
    for _ in range(10):
        coords = rng.uniform(-0.1, 0.1, (1, data_su2.sub_chart.coord_dim))
        assert pp.jacobi_residual(p1, coords) <= 1e-5


def test_jacobi_negative_control(data_su2):
    base = data_su2.restricted.p1

    def corrupted(c):
        mat = np.array(base(c), copy=True)
        mat[..., 0, 1] += c[..., 2] * c[..., 3]
        mat[..., 1, 0] -= c[..., 2] * c[..., 3]
        return mat

    bad = pp.PoissonField(corrupted, base.dim)
    coords = 0.09 * np.array([[1.0, -1.0, 1.0, -1.0]])
    assert pp.jacobi_residual(bad, coords) > 1e-3


def test_jacobi_quadratic_homogeneity(data_su2):
    base = data_su2.restricted.p1

    def corrupted(c):
        mat = np.array(base(c), copy=True)
        mat[..., 0, 1] += c[..., 2] * c[..., 3]
        mat[..., 1, 0] -= c[..., 2] * c[..., 3]
        return mat

    bad = pp.PoissonField(corrupted, base.dim)
    coords = 0.09 * np.array([[1.0, -1.0, 1.0, -1.0]])
    ref = pp.jacobi_residual(bad, coords)
    for lam in (2.0, 10.0):
        scaled = pp.PoissonField(lambda c, s=lam: s * bad(c), bad.dim)
        got = pp.jacobi_residual(scaled, coords)
        assert abs(got - lam ** 2 * ref) <= 1e-6 * lam ** 2 * ref


def test_partials_match_central_differences_of_the_field(data_cp3, ambient_coords):
    # the Jacobi residual is blind to a sign error in dP = -P dW P; this pins dP itself
    _, _, p1, p2 = data_cp3.ambient
    coords = ambient_coords(data_cp3.ambient_chart, 1)
    for field in (p1, p2):
        fd = oc.central_partials(field, coords, 1e-4)
        assert np.max(np.abs(field.partials(coords) - fd)) <= 1e-6


def test_jacobi_of_inverse_forms_inverts_the_centre_row_only(monkeypatch, data_cp2, ambient_coords):
    # closedness has put the stencil of W in its memo; dP = -P dW P reads it there
    chart = data_cp2.ambient_chart
    rows = []
    forms = [oc.FormField(lambda c, form=form: rows.append(len(c)) or form(chart, c), chart.coord_dim)
             for form in (oc.canonical_form_matrix, oc.omega2_matrix)]
    coords = ambient_coords(chart, 1, seed=21)
    for w in forms:
        w(coords)  # the centre, as the nondegeneracy rows evaluate it
        oc.closedness_residual(w, coords)
    seen = sum(rows)
    inverted = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(len(a)) or inv(a))
    p1, p2 = (pp.invert_form(w) for w in forms)
    pp.jacobi_residual(p1, coords)
    pp.compatibility_residual(p1, p2, coords)
    assert inverted == [1, 1]  # the centre of P1, then of P2
    assert sum(rows) == seen


def test_compatibility_su3_regular(data_su3_regular):
    _, _, p1, p2 = data_su3_regular.ambient
    rng = np.random.default_rng(1)
    for _ in range(3):
        coords = rng.uniform(-0.1, 0.1, (1, data_su3_regular.ambient_chart.coord_dim))
        assert pp.compatibility_residual(p1, p2, coords) <= 1e-5
        # a third generic parameter certifies the whole pencil
        assert pp.jacobi_residual(member(p1, p2, 0.3, 0.7), coords) <= 1e-5


def test_pencil_circle_bound(data_su2):
    # three members below tol bound every unit-circle member by 4 tol
    p1, p2 = data_su2.restricted.p1, data_su2.restricted.p2
    coords = np.full((1, data_su2.sub_chart.coord_dim), 0.03)
    tol = max(
        pp.jacobi_residual(p1, coords),
        pp.jacobi_residual(p2, coords),
        pp.compatibility_residual(p1, p2, coords),
    )
    for angle in 2.0 * np.pi * np.arange(16) / 16:
        t1, t2 = np.cos(angle), np.sin(angle)
        assert pp.jacobi_residual(member(p1, p2, t1, t2), coords) <= 4.0 * max(tol, 1e-12)


# ---------------------------------------------------------------------------
# Outer central differences: truncation error ~ FD_STEP^2
# ---------------------------------------------------------------------------


def test_outer_derivative_residuals_scale_like_step_squared(monkeypatch, data_cp2, ambient_coords):
    # at FD_STEP the residual must be about a hundredth of its value at ten times FD_STEP;
    # if rounding dominated, the smaller step would give the larger residual
    w1, w2, _, p2 = data_cp2.ambient
    residuals = {"w1": (oc.closedness_residual, w1), "w2": (oc.closedness_residual, w2),
                 "p2": (pp.jacobi_residual, p2)}
    for coords in ambient_coords(data_cp2.ambient_chart, 2)[:, None]:
        for name, (residual, field) in residuals.items():
            at_step = residual(field, coords)
            monkeypatch.setattr(oc, "FD_STEP", 10.0 * oc.FD_STEP)
            ratio = residual(field, coords) / at_step
            monkeypatch.undo()
            assert 30.0 <= ratio <= 300.0, (name, ratio)


def _loop_partials(field, c, h):
    # reference: one central difference per coordinate of the one row of c, plus point first
    partials = np.empty((1, c.shape[1], field.dim, field.dim))
    for l in range(c.shape[1]):
        plus = field(oc.shifted(c, l, +h))
        minus = field(oc.shifted(c, l, -h))
        partials[:, l] = (plus - minus) / (2.0 * h)
    return partials


def test_residuals_match_the_loop_reference_bit_for_bit(data_cp2, ambient_coords):
    w1, _, p1, _ = data_cp2.ambient
    for coords in ambient_coords(data_cp2.ambient_chart, 2)[:, None]:
        for field in (w1, p1):
            calls = []
            counted = oc.FormField(lambda c, f=field: calls.append(len(c)) or f(c), field.dim)
            assert np.array_equal(oc.central_partials(counted, coords, 1e-4), _loop_partials(field, coords, 1e-4))
            assert calls == [2 * coords.size]  # the whole stencil in one call
        partials, = _loop_partials(w1, coords, oc.FD_STEP)
        cyc = partials + np.transpose(partials, (1, 2, 0)) + np.transpose(partials, (2, 0, 1))
        assert oc.closedness_residual(w1, coords) == float(np.max(np.abs(cyc)))
        # the partials of an inverse form are -P dW P
        p, = p1(coords)
        mixed = np.einsum("li,ljk->ijk", p, -p @ partials @ p)
        cyc = mixed + np.transpose(mixed, (1, 2, 0)) + np.transpose(mixed, (2, 0, 1))
        assert pp.jacobi_residual(p1, coords) == float(np.max(np.abs(cyc)))
