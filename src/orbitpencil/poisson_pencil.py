"""Pencils of Poisson bivectors as inverse form matrices.

A bivector field is a matrix field P(coords); the Jacobi identity is
certified on coordinate functions, which is a complete certificate basis
by the Leibniz rule:

    J_ijk = sum_l ( P_li d_l P_jk + P_lj d_l P_ki + P_lk d_l P_ij ) = 0.

The inner derivatives are the field's partials: dP = -P dW P for P = W^-1,
with dW the central differences that closedness takes of W (no inverse off
the centre), and central differences of P for any other field, all with the
one outer step :data:`orbit_charts.FD_STEP`; residuals land near the
truncation error ~ FD_STEP^2 for genuine Poisson fields.
Fields and residuals take an (m, d) stack of coordinate rows, and residuals
return the max over them; a field and its partials are evaluated on the
whole stack at once, so a row costs one evaluator call per field.
The tolerance ladder is: certify below 1e-5, reject (negative controls)
above 1e-3; the gap guards against silent miscalibration.
"""

import numpy as np

from . import orbit_charts as oc
from .errors import DegeneracyError, InputError
from .orbit_charts import CoordinateMemo, FormField, central_partials

# A pencil member counts as singular below this relative spectral cutoff.
FORM_SINGULAR_RTOL = 1e-8


class PoissonField:
    """A cached skew matrix field; ``evaluator`` as for FormField, and its values must be skew.
    ``partials(coords)`` gives its derivatives, (m, d, dim, dim) at an (m, d) stack, by default
    central differences of the field."""

    def __init__(self, evaluator, dim: int, *, partials=None):
        self.dim = int(dim)
        self._values = CoordinateMemo(evaluator)
        self.partials = partials or (lambda c: central_partials(self, c, oc.FD_STEP))

    def __call__(self, coords) -> np.ndarray:
        return self._values(np.asarray(coords, dtype=float))


def invert_form(form_field: FormField) -> PoissonField:
    """Pointwise inverse of a nondegenerate form field, re-skew-symmetrised.

    One stacked SVD and inverse per stack; both guards act per row and name its coordinates."""

    def evaluator(coords):
        w = form_field(coords)
        sig = np.linalg.svd(w, compute_uv=False)
        singular = sig[:, -1] <= FORM_SINGULAR_RTOL * sig[:, 0]
        if np.any(singular):
            raise DegeneracyError("form matrix is singular at the sampled point",
                                  coords=coords[np.argmax(singular)])
        inv = np.linalg.inv(w)
        inv = 0.5 * (inv - inv.mT)
        resid = np.linalg.norm(inv @ w - np.eye(w.shape[-1]), axis=(-2, -1))
        row = int(np.argmax(resid))
        if resid[row] > 1e-9:
            raise DegeneracyError(
                f"inverse inaccurate (|PW - I| = {resid[row]:.2e}); form too ill-conditioned",
                coords=coords[row],
            )
        return inv

    def partials(coords):
        p = field(coords)[..., None, :, :]
        return -p @ central_partials(form_field, coords, oc.FD_STEP) @ p

    field = PoissonField(evaluator, form_field.dim, partials=partials)
    return field


def jacobi_residual(field: PoissonField, coords) -> float:
    """Max Jacobi-identity residual over coordinate-function triples and over the rows of the (m, d) stack coords.

    The contraction runs one row at a time: a stacked einsum may sum in
    another order, and each row's residual must not depend on its stack."""
    c = np.asarray(coords, dtype=float)
    mixed = np.stack([np.einsum("li,ljk->ijk", center, partials)
                      for center, partials in zip(field(c), field.partials(c))])
    cyc = mixed + np.transpose(mixed, (0, 2, 3, 1)) + np.transpose(mixed, (0, 3, 1, 2))
    return float(np.max(np.abs(cyc)))


def compatibility_residual(p1: PoissonField, p2: PoissonField, coords) -> float:
    """Jacobi residual of the sum P1 + P2, with partials dP1 + dP2; small values certify the pair at the points."""
    if p1.dim != p2.dim:
        raise InputError(f"pencil members disagree in dimension: {p1.dim} vs {p2.dim}")
    total = PoissonField(lambda c: p1(c) + p2(c), p1.dim, partials=lambda c: p1.partials(c) + p2.partials(c))
    return jacobi_residual(total, coords)


def degeneracy_profile(m1: np.ndarray, m2: np.ndarray, t_samples) -> np.ndarray:
    """sigma_min of t1 m1 + t2 m2 per row (t1, t2) of the (P, 2) array t_samples, m1 and m2 two bivector
    matrices at one point: one stacked SVD."""
    t1, t2 = np.asarray(t_samples, dtype=float).T[:, :, None, None]
    return np.linalg.svd(t1 * m1 + t2 * m2, compute_uv=False)[:, -1]


# Pencil parameters (t1, t2) off the degenerate line t1 + t2 = 0, where both members are invertible;
# the bracket row compares the ambient and restricted brackets at each.
OFF_LINE_PARAMETERS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.3, 0.7]])


def unit_circle_parameters() -> np.ndarray:
    """(16, 2) array of parameters (t1, t2) evenly spaced on the unit circle, phased so two land on t1 + t2 = 0."""
    angles = 3.0 * np.pi / 4.0 + 2.0 * np.pi * np.arange(16) / 16
    return np.array([(np.cos(a), np.sin(a)) for a in angles])
