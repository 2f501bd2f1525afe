"""Local differential geometry of the tangent bundle of an adjoint orbit.

The orbit O through a seed element a of a compact algebra g carries the
stabilizer splitting g = k + m with k = ker ad(a) and m = im ad(a); m is
identified with the tangent space at a.  Points of TO are pairs (x, v) of
algebra elements with x on the orbit and v tangent at x; a stack of m points
is one (m, 2, n) array whose row i is [x_i; v_i].  The ambient
invariant product identifies T*O with TO, so the canonical 1-form becomes
theta_(x,v)(dx, dv) = <v, dx>.

Charts: a chart with frame {m_1..m_f} (orthonormal, inside m) and base
fiber offset v0 maps coordinates (u, w) to

    Ad(e^xi(u)) (a, v0 + W(w)),   xi(u) = sum u_i m_i,   W(w) = sum w_i m_i,

the conjugate of a point of the fiber over a.
Conjugation runs on the n x n defining matrices: with X the matrix of xi and
iX = U diag(w) U^H, e^X = U diag(e^{-iw}) U^H and Ad(e^xi) y = e^X Y e^{-X}.
A point conjugates its own two matrices; the matrix of Ad(g) (:func:`exp_ad`)
conjugates every basis matrix at once, since row-major vec(g B g^H) =
(g kron conj(g)) vec(B), so its columns are one product of g kron conj(g)
with the (dim, n^2) basis rows.  Either way the algebra's coefficient map
takes the result back to coefficients in one real matmul per stack row.
Coordinate derivatives are exact, d/du_i Ad(e^xi) y =
Ad(e^xi) [t_i, y] with t_i = dexp_{-X}(M_i) = sum_k (-ad_X)^k M_i / (k+1)!,
which the same eigenbasis diagonalises into the divided difference
(e^{i theta} - 1) / (i theta), theta = w_j - w_k (:func:`dexp_apply`).
The chart guards the pushforward's full column rank: its columns are TO's tangent space.
A stencil's rows lie within a step of their centre, so the guard takes one SVD
per stencil centre and certifies the other rows by Weyl's inequality; a stack
no longer than one stencil takes one SVD of all its rows (:func:`_certify_rank`).

Stacked coordinates: chart points and pushforwards, both forms and their
fields take an (m, d) stack of coordinate rows, a single row being the stack
of one, and the exponential machinery takes leading axes.  Each evaluation
sits in a :class:`CoordinateMemo` keyed by the whole stack, which calls its
fn once per distinct stack and returns the stored, read-only value on a
repeat; a row that reads part of a shared stack slices that stack's value.
The outer derivatives take the stack too:
:func:`central_partials` evaluates the stencils of all m rows in one call and
:func:`closedness_residual` returns the max over them, so a row of sample
points costs one stacked eigh, SVD and inverse, not 2 d m each.  Stacked
matmul, SVD and eigh give each row the bits it gets alone; stacked reductions
need not, so per-row sums stay per row.

Two invariant 2-forms are realised as matrix fields in chart coordinates:
the canonical form (exterior derivative of theta) and the canonical form
plus the pullback of the orbit form  omega_x([x,s1],[x,s2]) = -<x,[s1,s2]>
under the bundle projection.  Both are exact from the chart: with
P = (Px; Pv) the stacked x- and v-rows, d theta = sum dv ^ dx has matrix
Pv^T Px - Px^T Pv, and the orbit form reads the lifts zeta, [x, zeta] = dx,
that the pushforward's evaluation also gives (:meth:`Chart.lifts`).  A
:class:`FormField`, a form or the bivector inverse to one, carries its
partials, by default the outer central differences at FD_STEP, so one
stencil of a form serves its closedness and its inverse's Jacobi residual.
"""

from typing import NamedTuple

import numpy as np

from .errors import (
    ChartDegeneracyError,
    ChartRangeError,
    DomainError,
    InputError,
)
from .lie_core import RANK_RTOL, LieAlgebra, Subspace, _lincomb, _rowwise, kernel, projector_distance, span
from .seeding import uniform_rows

FD_STEP = 1e-4  # step of the outer central differences, the closedness and Jacobi residuals
CHART_BOX = 0.5  # validity box of chart coordinates, |c| <= CHART_BOX
CHART_SCALE = 0.1  # box that sample chart coordinates are drawn from, |c| <= CHART_SCALE


# ---------------------------------------------------------------------------
# Orbit data
# ---------------------------------------------------------------------------


class OrbitConfig(NamedTuple):
    """An adjoint orbit: seed element, stabilizer algebra and its complement."""

    alg: LieAlgebra
    seed: np.ndarray          # the orbit seed a, coefficients
    stabilizer: Subspace      # k = ker ad(a)
    tangent: Subspace         # m = im ad(a), identified with T_a O
    seed_spectrum: np.ndarray  # sorted eigenvalues of the matrix of a (times -i)

    @property
    def orbit_dim(self) -> int:
        return self.tangent.dim


def orbit_config(alg: LieAlgebra, a: np.ndarray) -> OrbitConfig:
    """Stabilizer splitting for the orbit through ``a``."""
    a = np.asarray(a, dtype=float)
    ad_a = alg.ad(a)
    stab = kernel(ad_a)
    tang = span(ad_a)
    if tang.dim == 0:
        raise DomainError("orbit seed is central (ad(seed) = 0): the orbit is a point")
    if stab.dim + tang.dim != alg.dim:
        raise DomainError("kernel and image of ad(seed) do not split the algebra")
    # For the invariant product, im ad(a) is exactly the orthocomplement of
    # the kernel; check rather than assume.
    if projector_distance(tang, kernel(stab.basis.T)) > 1e-10:
        raise DomainError("image of ad(seed) is not the orthocomplement of its kernel")
    spectrum = np.sort(np.linalg.eigvalsh(1j * alg.matrix_of(a)))
    return OrbitConfig(alg=alg, seed=a, stabilizer=stab, tangent=tang, seed_spectrum=spectrum)


def point_residuals(config: OrbitConfig, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(spectrum mismatch of x, fiber residual of v against im ad(x)), per point of an (m, 2, n) stack.

    One eigh of each iX = U diag(w) U^H gives both.  The spectrum is w, ascending.  In that
    eigenbasis ad x scales entry (j, k) by -i (w_j - w_k), so the entries of U^H V U whose gap
    |w_j - w_k| does not count, by the rule of :func:`lie_core.rank_mask` with the largest gap
    for sigma_max, are v's centralizer component; the trace form is the Frobenius product, so
    their norm is the coefficient distance of v from im ad(x)."""
    alg = config.alg
    w, u = np.linalg.eigh(1j * _lincomb(points[..., 0, :], alg.basis))
    spec_err = np.max(np.abs(w - config.seed_spectrum), axis=-1)
    gap = np.abs(w[..., :, None] - w[..., None, :])
    central = gap <= RANK_RTOL * np.maximum(w[..., -1:, None] - w[..., :1, None], 1.0)
    vu = u.conj().mT @ _lincomb(points[..., 1, :], alg.basis) @ u
    return spec_err, np.linalg.norm(np.where(central, vu, 0.0), axis=(-2, -1))


def ad_pairs(alg: LieAlgebra, points: np.ndarray) -> np.ndarray:
    """The (..., 2n, n) stack (ad x; ad v) over the points [x; v] of a (..., 2, n) stack."""
    return _lincomb(points, alg.ad_basis).reshape(points.shape[:-2] + (2 * alg.dim, alg.dim))


def infinitesimal_action(config: OrbitConfig, xi: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Action vector field of xi at (x, v): the stacked pair ([xi,x], [xi,v]) = -(ad x; ad v) xi.

    ``xi`` is one generator (n,) or an (n, a) matrix of them as columns, which
    gives (2n, a), or an (m, n, a) stack of such matrices, one per point; at
    an (m, 2, n) stack of points the result has a leading axis m.
    """
    return -ad_pairs(config.alg, points) @ np.asarray(xi, dtype=float)


# ---------------------------------------------------------------------------
# Exponential machinery
# ---------------------------------------------------------------------------


def _exp_eigh(alg: LieAlgebra, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e^X, w, u) with iX = u diag(w) u^H, X the n x n matrix of xi; leading axes of xi stack."""
    w, u = np.linalg.eigh(1j * _lincomb(xi, alg.basis))
    return (u * np.exp(-1j * w)[..., None, :]) @ u.conj().mT, w, u


def _ad_of(alg: LieAlgebra, g: np.ndarray) -> np.ndarray:
    """Ad(g) on coefficient vectors: column b holds the coefficients of g B_b g^{-1}, over g's leading axes.

    Row b of B (g kron conj(g))^T, B the (dim, n^2) basis rows, is vec(g B_b g^H); each g's rows then
    take one matmul with the coefficient map, a product per g, so a row's bits do not depend on the stack."""
    n = alg.matrix_dim
    kron = (g[..., :, None, :, None] * g.conj()[..., None, :, None, :]).reshape(g.shape[:-2] + (n * n, n * n))
    moved = alg.basis.reshape(alg.dim, n * n) @ kron.mT
    return (moved.view(float) @ alg.coefficient_map).mT


def exp_ad(alg: LieAlgebra, xi: np.ndarray) -> np.ndarray:
    """Ad(e^xi) on coefficient vectors, one matrix per vector of the (..., n) stack xi."""
    return _ad_of(alg, _exp_eigh(alg, xi)[0])


def _conjugate(alg: LieAlgebra, xi: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Ad(e^xi) z as e^X Z e^{-X}, without forming Ad(e^xi); z has shape xi.shape[:-1] + (j, n)."""
    g = _exp_eigh(alg, xi)[0][..., None, :, :]
    return alg.coefficients(g @ _lincomb(z, alg.basis) @ g.conj().mT)


def dexp_apply(alg: LieAlgebra, xi: np.ndarray, frame_matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Ad(e^xi), coefficient rows t_i of dexp_{-X}(M_i)) from one eigh of i X, over xi's leading axes.

    ``frame_matrices`` is the (f, n, n) stack of the M_i.  In the eigenbasis
    u of i X, -ad_X multiplies entry (j, k) by i theta_jk, theta_jk = w_j -
    w_k, so dexp_{-X} scales it by (e^{i theta} - 1) / (i theta) =
    e^{i theta/2} sinc(theta / 2 pi), exactly for any size of xi.  Then
    d/du_i Ad(e^{xi + u m_i}) = Ad(e^xi) ad(t_i) at u = 0.
    """
    g, w, u = _exp_eigh(alg, xi)
    theta = w[..., :, None] - w[..., None, :]
    phi = np.exp(0.5j * theta) * np.sinc(theta / (2.0 * np.pi))
    u, uh = u[..., None, :, :], u.conj().mT[..., None, :, :]
    return _ad_of(alg, g), alg.coefficients(u @ ((uh @ frame_matrices @ u) * phi[..., None, :, :]) @ uh)


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------


def _check_rows(c: np.ndarray) -> None:
    if c.ndim != 2:
        raise InputError(f"expected an (m, d) stack of coordinate rows, got shape {c.shape}")


class CoordinateMemo:
    """``fn`` of an (m, d) stack of float coordinate rows, evaluated once per distinct stack.

    Keyed by the stack's shape and bytes: ``fn`` receives the caller's stack
    as it is, rows in the caller's order, and returns m values (an array
    with leading axis m).  The value is stored read-only and a repeated
    stack returns that same array.  A row inside another stack is evaluated
    again, with the bits it gets alone (see the module docstring).  Values
    live as long as the memo, so whatever ``fn`` reads must not change.
    """

    def __init__(self, fn):
        self._fn = fn
        self._values: dict[tuple, np.ndarray] = {}

    def __call__(self, c: np.ndarray) -> np.ndarray:
        _check_rows(c)
        key = (c.shape, c.tobytes())
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = self._fn(c)
            value.flags.writeable = False
        return value


def _certify_rank(mats: np.ndarray, run: int) -> None:
    """Raise ChartDegeneracyError unless every matrix of the stack has sigma_min > RANK_RTOL sigma_max.

    A stack no longer than ``run`` takes one values-only SVD of all its
    matrices.  A longer one takes one per run of ``run`` consecutive
    matrices, of its first, the layout of a :func:`central_partials`
    stencil.  By Weyl's inequality, |sigma_i(A + E) - sigma_i(A)| <= |E|_2
    <= |E|_F, a matrix at Frobenius distance delta from its run's first has
    full rank when sigma_min - delta > RANK_RTOL (sigma_max + delta); delta
    also carries 1e-12 sigma_max for the rounding of that SVD.  Every matrix
    this does not certify takes an SVD of its own, in one stacked call.
    """
    if len(mats) > run:
        first = np.arange(len(mats)) // run
        sig = np.linalg.svd(mats[::run], compute_uv=False)[first]
        top = sig[:, 0]
        delta = np.linalg.norm(mats - mats[first * run], axis=(-2, -1)) + 1e-12 * top
        mats = mats[sig[:, -1] - delta <= RANK_RTOL * (top + delta)]
        if not len(mats):
            return
    sig = np.linalg.svd(mats, compute_uv=False)
    if np.any(sig[:, -1] <= RANK_RTOL * sig[:, 0]):
        raise ChartDegeneracyError("chart pushforward lost column rank")


class Chart:
    """Local coordinates on TO around a base point (see module docstring).

    Coordinates (u, w) give Ad(e^{frame @ u}) (a, base_v + frame @ w).
    Evaluations are cached per coordinate stack, so a chart instance must be
    treated as immutable.
    """

    def __init__(self, config: OrbitConfig, base_v: np.ndarray, frame: np.ndarray):
        base_v = np.asarray(base_v, dtype=float)
        frame = np.asarray(frame, dtype=float)
        if frame.ndim != 2 or frame.shape[0] != config.alg.dim:
            raise InputError("frame must be an (algebra dim) x f matrix")
        if config.tangent.residual(base_v) > 1e-10 * max(1.0, np.linalg.norm(base_v)):
            raise InputError("base fiber offset must lie in the tangent space at the seed")
        leak = np.linalg.norm(frame - config.tangent.projector() @ frame)
        if leak > 1e-10:
            raise InputError("frame columns must lie in the tangent space at the seed")
        if np.linalg.norm(frame.T @ frame - np.eye(frame.shape[1])) > 1e-10:
            raise InputError("frame columns must be orthonormal")
        self.config = config
        self.base_v = base_v
        self.frame = frame
        self.frame_matrices = np.tensordot(frame.T, config.alg.basis, axes=(1, 0))
        self._points = CoordinateMemo(self._point_at)
        self._pushes = CoordinateMemo(self._pushforward_at)

    @property
    def frame_dim(self) -> int:
        return self.frame.shape[1]

    @property
    def coord_dim(self) -> int:
        return 2 * self.frame.shape[1]

    def sample(self, seed: int, label: str, count: int) -> np.ndarray:
        """Rows 0..count-1 of the stream (seed, label), a (count, coord_dim) stack uniform in the CHART_SCALE box."""
        return uniform_rows(seed, label, range(count), self.coord_dim, CHART_SCALE)

    def _coords(self, coords) -> np.ndarray:
        c = np.asarray(coords, dtype=float)
        if c.ndim != 2 or c.shape[1] != self.coord_dim:
            raise InputError(f"expected an (m, {self.coord_dim}) stack of coordinate rows, got shape {c.shape}")
        if np.max(np.abs(c), initial=0.0) > CHART_BOX:
            raise ChartRangeError(f"coordinates leave the validity box |c| <= {CHART_BOX}")
        return c

    def point(self, coords) -> np.ndarray:
        """The points at an (m, d) stack of coordinates, a read-only (m, 2, n) stack whose row i is [x_i; v_i]."""
        return self._points(self._coords(coords))

    def pushforward(self, coords) -> np.ndarray:
        """Ambient derivative matrices, (m, 2n, coord_dim) at an (m, d) stack.

        Column i < f is the u_i-derivative (conjugation direction), column
        f + i the w_i-derivative (fiber direction).
        """
        return self._pushes(self._coords(coords))[..., :2 * self.config.alg.dim, :]

    def lifts(self, coords) -> np.ndarray:
        """Generators zeta with [x, zeta] = dx, one column per coordinate: (m, n, coord_dim)."""
        return self._pushes(self._coords(coords))[..., 2 * self.config.alg.dim:, :]

    def _fiber_line(self, w: np.ndarray) -> np.ndarray:
        """(k, 2, n) stack of the unconjugated points [a; base_v + frame w] at the rows of w."""
        z = np.empty((len(w), 2, self.config.alg.dim))
        z[:, 0], z[:, 1] = self.config.seed, self.base_v + _rowwise(w, self.frame.T)
        return z

    def _point_at(self, c: np.ndarray) -> np.ndarray:
        """(k, 2, n) stack of [x; v] at the coordinate rows c: one stacked eigh, no Ad(e^xi)."""
        f = self.frame_dim
        return _conjugate(self.config.alg, _rowwise(c[:, :f], self.frame.T), self._fiber_line(c[:, f:]))

    def _pushforward_at(self, c: np.ndarray) -> np.ndarray:
        f = self.frame_dim
        alg = self.config.alg
        n, k = alg.dim, len(c)
        big, trans = dexp_apply(alg, _rowwise(c[:, :f], self.frame.T), self.frame_matrices)
        # The (x, v, lift) rows of each column before big.  Conjugation column i is
        # big @ [t_i, z] = -big @ ad(z) t_i for z = x, v, its lift -big @ t_i; fiber column i is big @ (0, m_i, 0).
        trans = trans[:, None].mT
        blocks = np.zeros((k, 3, n, 2 * f))
        blocks[:, :2, :, :f] = -(_lincomb(self._fiber_line(c[:, f:]), alg.ad_basis) @ trans)
        blocks[:, 2:, :, :f] = -trans
        blocks[:, 1, :, f:] = self.frame
        push = (big[:, None] @ blocks).reshape(k, 3 * n, self.coord_dim)
        _certify_rank(push[:, :2 * n], 2 * self.coord_dim)
        return push


def shifted(coords: np.ndarray, index, step) -> np.ndarray:
    """Copy of a (k, d) stack of rows with one entry of each row shifted by a single addition;
    ``index`` and ``step`` give each row its own entry and step."""
    out = np.array(coords, dtype=float, copy=True)
    out[np.arange(len(out)), index] += step
    return out


def central_partials(fn, coords: np.ndarray, step: float) -> np.ndarray:
    """(m, d, ...) stack whose entry [r, l] is (fn(c + step e_l) - fn(c - step e_l)) / (2 step), c row r.

    ``coords`` is an (m, d) stack.  ``fn`` is called once, on the (2 d m, d)
    stack of the plus point, then the minus point, of each coordinate l of
    each row in turn, and returns their values stacked.
    """
    c = np.asarray(coords, dtype=float)
    _check_rows(c)
    m, d = c.shape
    values = fn(shifted(np.repeat(c, 2 * d, axis=0), np.tile(np.repeat(np.arange(d), 2), m),
                        np.tile([step, -step], m * d)))
    values = values.reshape((m, d, 2) + values.shape[1:])
    return (values[:, :, 0] - values[:, :, 1]) / (2.0 * step)


# ---------------------------------------------------------------------------
# Forms
# ---------------------------------------------------------------------------


def canonical_form_matrix(chart: Chart, coords) -> np.ndarray:
    """Canonical 2-form (exterior derivative of theta) in chart coordinates.

    Exact from the pushforward: d theta = sum dv ^ dx, so W = A - A^T with
    A = Pv^T Px; skew by construction, and no finite differences (those
    remain only in outer derivatives such as :func:`closedness_residual`).
    Works for any chart exposing ``pushforward`` and ``config``, over an
    (m, d) stack of coordinate rows.
    """
    push = chart.pushforward(coords)
    n = chart.config.alg.dim
    a = push[..., n:, :].mT @ push[..., :n, :]
    return a - a.mT


def orbit_form_pullback_matrix(chart: Chart, coords) -> np.ndarray:
    """Pullback of the orbit 2-form under the bundle projection, in chart coords.

    omega(d_a x, d_b x) = -<x, [zeta_a, zeta_b]> with the chart's lifts, [x, zeta] = dx; a lift is
    fixed up to the stabilizer of x, which the form does not see."""
    c = chart._coords(coords)
    n = chart.config.alg.dim
    x = chart.point(c)[:, 0]
    lifts = chart.lifts(c)
    matrix = -lifts.mT @ _rowwise(x, chart.config.alg.structure.reshape(-1, n).T).reshape(x.shape + (n,)) @ lifts
    return 0.5 * (matrix - matrix.mT)


def omega2_matrix(chart: Chart, coords) -> np.ndarray:
    """Canonical form plus the pullback of the orbit form, in chart coords."""
    return canonical_form_matrix(chart, coords) + orbit_form_pullback_matrix(chart, coords)


class FormField:
    """A cached skew matrix field coords -> (dim, dim), a 2-form or a bivector.

    ``fn`` maps a (k, d) stack of coordinates to (k, dim, dim) matrices.
    ``partials(coords)`` gives the field's derivatives, (m, d, dim, dim) at an
    (m, d) stack, by default central differences of the field at FD_STEP."""

    def __init__(self, fn, dim: int, *, partials=None):
        self.dim = int(dim)
        self._values = CoordinateMemo(fn)
        self.partials = partials or (lambda c: central_partials(self, c, FD_STEP))

    def __call__(self, coords) -> np.ndarray:
        return self._values(np.asarray(coords, dtype=float))


def canonical_form_field(chart: Chart) -> FormField:
    return FormField(lambda c: canonical_form_matrix(chart, c), chart.coord_dim)


def combined_form_field(chart: Chart) -> FormField:
    return FormField(lambda c: omega2_matrix(chart, c), chart.coord_dim)


def closedness_residual(form_field: FormField, coords) -> float:
    """Max cyclic-sum residual d_i W_jk + d_j W_ki + d_k W_ij over index triples and over the rows
    of the (m, d) stack coords, with the field's partials (by default one stencil call)."""
    partials = form_field.partials(np.asarray(coords, dtype=float))
    cyc = partials + np.transpose(partials, (0, 2, 3, 1)) + np.transpose(partials, (0, 3, 1, 2))
    return float(np.max(np.abs(cyc)))
