"""Pencils of Poisson bivectors as inverse form matrices.

A bivector field is a matrix field P(coords); the Jacobi identity is
certified on coordinate functions, which is a complete certificate basis
by the Leibniz rule:

    J_ijk = sum_l ( P_li d_l P_jk + P_lj d_l P_ki + P_lk d_l P_ij ) = 0.

A bivector is an :class:`orbit_charts.FormField`; the inner derivatives are
its partials: dP = -P dW P for P = W^-1, dW the form's own partials, which
closedness reads too (no inverse off the centre), and by default central
differences of P, at the one outer step :data:`orbit_charts.FD_STEP`;
residuals land near the truncation error ~ FD_STEP^2 for Poisson fields.
Fields and residuals take an (m, d) stack of coordinate rows, and residuals
return the max over them; a field and its partials are evaluated on the
whole stack at once, so a row costs one evaluator call per field.
The tolerance ladder is: certify below 1e-5, reject (negative controls)
above 1e-3; the gap guards against silent miscalibration.
"""

import numpy as np

from .errors import DegeneracyError, InputError
from .orbit_charts import FormField

# A pencil member counts as singular below this relative spectral cutoff.
FORM_SINGULAR_RTOL = 1e-8


def invert_form(form_field: FormField) -> FormField:
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
        return -p @ form_field.partials(coords) @ p

    field = FormField(evaluator, form_field.dim, partials=partials)
    return field


def jacobi_residual(field: FormField, coords) -> float:
    """Max Jacobi-identity residual over coordinate-function triples and over the rows of the (m, d) stack coords.

    The contraction runs one row at a time: a stacked einsum may sum in
    another order, and each row's residual must not depend on its stack."""
    c = np.asarray(coords, dtype=float)
    mixed = np.stack([np.einsum("li,ljk->ijk", center, partials)
                      for center, partials in zip(field(c), field.partials(c))])
    cyc = mixed + np.transpose(mixed, (0, 2, 3, 1)) + np.transpose(mixed, (0, 3, 1, 2))
    return float(np.max(np.abs(cyc)))


def compatibility_residual(p1: FormField, p2: FormField, coords) -> float:
    """Jacobi residual of the sum P1 + P2, with partials dP1 + dP2; small values certify the pair at the points."""
    if p1.dim != p2.dim:
        raise InputError(f"pencil members disagree in dimension: {p1.dim} vs {p2.dim}")
    total = FormField(lambda c: p1(c) + p2(c), p1.dim, partials=lambda c: p1.partials(c) + p2.partials(c))
    return jacobi_residual(total, coords)

