"""Dense linear algebra of compact matrix Lie algebras.

Conventions used throughout the package:

  * An algebra is handed over as a list of anti-Hermitian matrices.  The
    trace form <X, Y> = -Re tr(XY) is positive definite exactly on compact
    matrix algebras and is automatically invariant, so it is taken as the
    base scalar product.
  * The stored basis is re-orthonormalised against that product once, at
    construction time.  Coefficient vectors therefore live in an ordinary
    Euclidean R^n: orthogonal complements, projectors and kernels never
    need a Gram matrix unless a *different* invariant product is in play.
  * Structure constants are computed once from the matrix realisation and
    cached; every bracket afterwards is a tensor contraction.
  * Every ad(xi) is then a real skew matrix; subspace algebra works with
    these, as the stack ``ads(basis)`` over the columns of a basis, so a
    zero subspace is the empty stack and needs no case of its own.  Group
    elements act by conjugating the n x n matrices instead
    (:mod:`orbitpencil.orbit_charts`), projected back by ``coefficients``:
    one real matmul of the (re, im) entries of each matrix against the
    (2 d^2, n) ``coefficient_map``, built with the algebra.
  * The build guard (closure, Jacobi identity, invariance) refuses a basis
    that fails it, and is the one certificate of those identities.
  * Rank decisions follow one rule (:func:`rank_mask`): a singular value
    counts above RANK_RTOL max(sigma_max, 1).  ``spans`` and ``kernels``
    take one (k, r, c) stack and return a list of Subspaces from one SVD;
    ``span`` and ``kernel`` take one 2-d matrix, the stack of one.
  * Subspaces are compared through their orthogonal projectors (Frobenius
    distance), which is basis independent.
"""

from typing import NamedTuple

import numpy as np

from .errors import DomainError, InputError
from .seeding import normal_rows

# Singular values up to RANK_RTOL * max(sigma_max, 1) count as zero (:func:`rank_mask`).
# All subspace data is O(1) after orthonormalisation, so one cutoff suffices.
RANK_RTOL = 1e-9

ALGEBRA_CHECK_TOL = 1e-12  # relative bound of the algebra_from_matrices guard

# Frobenius distance of projectors below which two subspaces count as equal.
SUBSPACE_TOL = 1e-8


# ---------------------------------------------------------------------------
# Algebra container
# ---------------------------------------------------------------------------


def _rowwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b one vector a[..., :] at a time, so a row's bits do not depend on the stack around it."""
    return (a[..., None, :] @ b)[..., 0, :]


def _lincomb(coeffs: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_a coeffs[..., a] stack[a], e.g. the matrices or ad operators of a stack of elements."""
    return _rowwise(coeffs, stack.reshape(len(stack), -1)).reshape(coeffs.shape[:-1] + stack.shape[1:])


class LieAlgebra(NamedTuple):
    """A compact matrix Lie algebra with an orthonormal basis.

    Attributes:
        name: label such as "su(3)".
        basis: (n, d, d) complex array; basis[i] is the i-th basis matrix,
            orthonormal for <X, Y> = -Re tr(XY).
        structure: (n, n, n) real array c with [E_i, E_j] = sum_k c[i,j,k] E_k.
        ad_basis: (n, n, n) real array; ad_basis[i] is the matrix of ad(E_i)
            acting on coefficient vectors, stored contiguous so that
            :func:`_lincomb` reshapes it without a copy.
        coefficient_map: (2 d^2, n) real array; the (re, im) entries of a
            matrix M, row-major, times it give the coefficients -Re tr(B_k M).
    """

    name: str
    basis: np.ndarray
    structure: np.ndarray
    ad_basis: np.ndarray
    coefficient_map: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def matrix_dim(self) -> int:
        return self.basis.shape[1]

    def matrix_of(self, coeffs: np.ndarray) -> np.ndarray:
        """Matrix realisation of a coefficient vector."""
        coeffs = _as_element(self, coeffs)
        return np.tensordot(coeffs, self.basis, axes=(0, 0))

    def coefficients(self, mats: np.ndarray) -> np.ndarray:
        """Coefficients <B_k, M> = -Re tr(B_k M) of each matrix in a (..., d, d) stack.

        The orthogonal projection onto the basis span; unchecked, so callers
        pass matrices that lie in the span up to rounding.  One row-wise real
        matmul of each matrix's (re, im) entries against ``coefficient_map``.
        """
        d = self.matrix_dim
        flat = np.ascontiguousarray(mats, dtype=complex).reshape(np.shape(mats)[:-2] + (d * d,))
        return _rowwise(flat.view(float), self.coefficient_map)

    def element_from_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Coefficients of a matrix, which must lie in the basis span."""
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (self.matrix_dim, self.matrix_dim):
            raise InputError(
                f"expected a {self.matrix_dim}x{self.matrix_dim} matrix, got {mat.shape}"
            )
        coeffs = self.coefficients(mat)
        recon = self.matrix_of(coeffs)
        err = np.linalg.norm(recon - mat)
        if err > 1e-10 * (1.0 + np.linalg.norm(mat)):
            raise DomainError(f"matrix is not in the span of the basis (residual {err:.2e})")
        return coeffs

    def ad(self, coeffs: np.ndarray) -> np.ndarray:
        """Matrix of ad(x) on coefficient vectors: ad(x) y = [x, y]."""
        coeffs = _as_element(self, coeffs)
        return np.tensordot(coeffs, self.ad_basis, axes=(0, 0))

    def ads(self, basis: np.ndarray) -> np.ndarray:
        """(k, n, n) stack of ad(b) over the columns b of an (n, k) matrix; no columns give (0, n, n)."""
        return _lincomb(np.asarray(basis, dtype=float).T, self.ad_basis)

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Lie bracket [x, y] through the cached structure constants."""
        x = _as_element(self, x)
        y = _as_element(self, y)
        return np.einsum("i,j,ijk->k", x, y, self.structure)


def _as_element(alg: LieAlgebra, coeffs) -> np.ndarray:
    vec = np.asarray(coeffs, dtype=float)
    if vec.shape != (alg.dim,):
        raise InputError(f"expected a coefficient vector of length {alg.dim}, got {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise InputError("coefficient vector contains non-finite entries")
    return vec


def algebra_from_matrices(name, matrices) -> LieAlgebra:
    """Build a LieAlgebra from a spanning list of anti-Hermitian matrices.

    Verifies, to ALGEBRA_CHECK_TOL (relative): closure of the matrix brackets in
    the span, antisymmetry and the Jacobi identity of the structure
    constants, and invariance of the trace product (skewness of every ad).
    A basis that fails one is refused.
    """
    mats = np.asarray(matrices, dtype=complex)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise InputError("basis must be a list of square matrices of equal size")

    herm = np.linalg.norm(mats + np.conj(np.transpose(mats, (0, 2, 1))), axis=(1, 2))
    scale = np.linalg.norm(mats, axis=(1, 2))
    if np.any(herm > 1e-10 * np.maximum(scale, 1.0)):
        raise InputError("basis matrices must be anti-Hermitian")

    gram = -np.real(np.einsum("aij,bji->ab", mats, mats))
    gram = 0.5 * (gram + gram.T)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise InputError(
            "trace product is not positive definite: basis is dependent or the algebra is not compact"
        ) from None
    # Rows of inv(chol) recombine the input into an orthonormal basis.
    basis = np.einsum("ai,ijk->ajk", np.linalg.inv(chol), mats)

    comm = _commutators(basis)
    structure = -np.real(np.einsum("abij,cji->abc", comm, basis))
    structure = 0.5 * (structure - np.transpose(structure, (1, 0, 2)))
    ad_basis = np.ascontiguousarray(np.transpose(structure, (0, 2, 1)))

    closure = closure_residual(comm, basis, structure)
    if closure > ALGEBRA_CHECK_TOL:
        raise InputError(f"matrix brackets leave the basis span (residual {closure:.2e})")

    jac = jacobi_residual_of_structure(structure)
    if jac > ALGEBRA_CHECK_TOL:
        raise InputError(f"structure constants violate the Jacobi identity ({jac:.2e})")

    skew = ad_skewness(ad_basis)
    if skew > ALGEBRA_CHECK_TOL:
        raise InputError(f"trace product is not ad-invariant (ad skewness {skew:.2e})")

    # -Re tr(B_k M) = sum_ij Re(-conj(B_k[i, j])) Re M[j, i] + Im(-conj(B_k[i, j])) Im M[j, i]
    d = basis.shape[1]
    coefficient_map = np.ascontiguousarray(-np.conj(basis.transpose(0, 2, 1))).reshape(-1, d * d).view(float).T
    return LieAlgebra(
        name=str(name),
        basis=basis,
        structure=structure,
        ad_basis=ad_basis,
        coefficient_map=coefficient_map,
    )


def _commutators(basis: np.ndarray) -> np.ndarray:
    """(n, n, d, d) stack of the matrix commutators [B_a, B_b]."""
    comm = np.einsum("aij,bjk->abik", basis, basis)
    return comm - np.transpose(comm, (1, 0, 2, 3))


def closure_residual(comm: np.ndarray, basis: np.ndarray, structure: np.ndarray) -> float:
    """Max over basis pairs of |[B_a, B_b] - sum_c structure[a,b,c] B_c|, comm the stack of [B_a, B_b].

    Each pair's residual is relative to |[B_a, B_b]| floored at 1.
    """
    recon = np.einsum("abc,cij->abij", structure, basis)
    closure = np.linalg.norm(comm - recon, axis=(2, 3))
    comm_scale = np.maximum(np.linalg.norm(comm, axis=(2, 3)), 1.0)
    return float(np.max(closure / comm_scale))


def ad_skewness(ad_basis: np.ndarray) -> float:
    """Max-norm of ad(E_i) + ad(E_i)^T; zero exactly when the base product is invariant."""
    return float(np.max(np.abs(ad_basis + np.transpose(ad_basis, (0, 2, 1)))))


def jacobi_residual_of_structure(structure: np.ndarray) -> float:
    """Max-norm of the Jacobi identity applied to structure constants."""
    cyc = np.einsum("ijm,mkl->ijkl", structure, structure)
    total = cyc + np.transpose(cyc, (1, 2, 0, 3)) + np.transpose(cyc, (2, 0, 1, 3))
    return float(np.max(np.abs(total)))


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------


class Subspace(NamedTuple("Subspace", [("basis", np.ndarray)])):
    """A linear subspace given by an orthonormal column basis (n x k)."""

    __slots__ = ()

    def __new__(cls, basis):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2:
            raise InputError("subspace basis must be a 2-d array of columns")
        k = basis.shape[1]
        if k:
            gram_err = np.linalg.norm(basis.T @ basis - np.eye(k))
            if gram_err > 1e-10:
                raise InputError(f"subspace basis is not orthonormal (residual {gram_err:.2e})")
        return super().__new__(cls, basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def project(self, vec: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ np.asarray(vec, dtype=float))

    def residual(self, vec: np.ndarray) -> float:
        """Norm of the component of ``vec`` outside the subspace."""
        vec = np.asarray(vec, dtype=float)
        return float(np.linalg.norm(vec - self.project(vec)))


def rank_mask(s: np.ndarray) -> np.ndarray:
    """Mask of the singular values that count, over the last axis of a stack of descending ones.

    The one rank rule: sigma counts when sigma > RANK_RTOL max(sigma_max, 1), so an all-noise input
    has rank zero rather than inherit rank from its own rounding errors; a rank is its mask's count."""
    return s > RANK_RTOL * np.maximum(s[..., :1], 1.0)


def _stack(mats, one: bool = False) -> np.ndarray:
    """The float (k, r, c) stack of a 3-d array, or of one 2-d array as the stack of one if ``one``.

    Anything else raises InputError: a list, a tuple or a record (a NamedTuple) is refused."""
    if isinstance(mats, np.ndarray) and mats.ndim == (2 if one else 3):
        return np.asarray(mats[None] if one else mats, dtype=float)
    want = "one 2-d matrix" if one else "a (k, r, c) stack"
    got = f"shape {mats.shape}" if isinstance(mats, np.ndarray) else type(mats).__name__
    raise InputError(f"expected {want}, got {got}")


def spans(mats) -> list[Subspace]:
    """Orthonormalised span of the columns of each matrix of a (k, n, c) stack, from one SVD (rank-revealing).

    Ranks follow :func:`rank_mask`; a stack without entries spans zero subspaces and takes no SVD call."""
    mats = _stack(mats)
    if not mats.size:
        return [zero_subspace(mats.shape[1]) for _ in mats]
    u, s, _ = np.linalg.svd(mats, full_matrices=False)
    return [Subspace(basis=b[:, :r]) for b, r in zip(u, rank_mask(s).sum(axis=-1))]


def span(mat) -> Subspace:
    """Span of the columns of one 2-d matrix: :func:`spans` of the stack of one."""
    return spans(_stack(mat, one=True))[0]


def zero_subspace(n: int) -> Subspace:
    return Subspace(basis=np.zeros((n, 0)))


def full_subspace(n: int) -> Subspace:
    return Subspace(basis=np.eye(n))


def kernels(mats) -> list[Subspace]:
    """Right null space of each matrix of a (k, r, c) stack, as a Subspace of its column index space, from one SVD.

    Ranks follow :func:`rank_mask`, so a matrix that vanishes to rounding has full kernel; a stack
    without entries has full kernels and takes no SVD call."""
    mats = _stack(mats)
    if not mats.size:
        return [full_subspace(mats.shape[2]) for _ in mats]
    # A tall matrix has an economy V^T that is already square, i.e. the full V.
    _, s, vt = np.linalg.svd(mats, full_matrices=mats.shape[1] < mats.shape[2])
    return [Subspace(basis=v[r:].T.copy()) for v, r in zip(vt, rank_mask(s).sum(axis=-1))]


def kernel(mat) -> Subspace:
    """Right null space of one 2-d matrix: :func:`kernels` of the stack of one."""
    return kernels(_stack(mat, one=True))[0]


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    return span(np.hstack([a.basis, b.basis]))


def projector_distance(a: Subspace, b: Subspace) -> float:
    return float(np.linalg.norm(a.projector() - b.projector()))


def subspace_contains(outer: Subspace, inner: Subspace) -> float:
    """Residual of the inclusion inner <= outer (0 means contained)."""
    rest = inner.basis - outer.projector() @ inner.basis
    return float(np.linalg.norm(rest))


def complement_within(inner: Subspace, outer: Subspace) -> Subspace:
    """Orthogonal complement of ``inner`` inside ``outer`` (base product)."""
    if subspace_contains(outer, inner) > SUBSPACE_TOL:
        raise DomainError("inner subspace is not contained in the outer one")
    coeffs = kernel(inner.basis.T @ outer.basis)
    return span(outer.basis @ coeffs.basis)


def subalgebra_residual(alg: LieAlgebra, sub: Subspace) -> float:
    """How far brackets of basis pairs stick out of the subspace."""
    images = alg.ads(sub.basis) @ sub.basis
    return max((float(np.linalg.norm(rest)) for rest in images - sub.projector() @ images), default=0.0)


def _require_subalgebra(alg: LieAlgebra, sub: Subspace) -> None:
    res = subalgebra_residual(alg, sub)
    if res > 1e-10:
        raise DomainError(f"subspace is not closed under the bracket (residual {res:.2e})")


# ---------------------------------------------------------------------------
# Centralizers, normalizers, complements
# ---------------------------------------------------------------------------


def centralizer(alg: LieAlgebra, sub: Subspace) -> Subspace:
    """Joint kernel of ad over a basis of ``sub``: all y with [y, sub] = 0."""
    return kernel(alg.ads(sub.basis).reshape(-1, alg.dim))


def normalizer(alg: LieAlgebra, sub: Subspace) -> Subspace:
    """All xi with [xi, sub] contained in sub; sub must be a subalgebra."""
    _require_subalgebra(alg, sub)
    # [xi, s_j] = -ad(s_j) xi, so project the images of -ad(s_j) off sub.
    return kernel(((np.eye(alg.dim) - sub.projector()) @ alg.ads(sub.basis)).reshape(-1, alg.dim))


def orthogonal_complements(sub: Subspace, prods: np.ndarray) -> list[Subspace]:
    """Complement of ``sub`` with respect to each product of the (k, n, n) stack ``prods``, from one stacked SVD.

    Each returned basis is orthonormal for the *base* product; only its span
    is determined by the product.  The base-product complement is
    ``kernel(sub.basis.T)``.
    """
    comps = kernels(sub.basis.T @ prods)
    for comp in comps:
        if comp.dim + sub.dim != len(sub.basis):
            raise DomainError(f"complement has dimension {comp.dim}, expected {len(sub.basis) - sub.dim}")
    return comps


def fixed_vector_space(alg: LieAlgebra, sub: Subspace, ambient: Subspace) -> Subspace:
    """Joint kernel of ad(z)|_ambient over z in ``sub``.

    ``ambient`` must be invariant under ad(sub); for ambient equal to the
    whole algebra this returns the centralizer of ``sub``.
    """
    images = alg.ads(sub.basis) @ ambient.basis
    leak = np.max(np.linalg.norm((np.eye(alg.dim) - ambient.projector()) @ images, axis=(1, 2)), initial=0.0)
    if leak > SUBSPACE_TOL:
        raise DomainError(f"ambient subspace is not ad-invariant (leak {leak:.2e})")
    coeffs = kernel(images.reshape(-1, ambient.dim))
    return span(ambient.basis @ coeffs.basis)


# ---------------------------------------------------------------------------
# Invariant scalar products
# ---------------------------------------------------------------------------


def product_invariance_residual(alg: LieAlgebra, sub: Subspace, matrix: np.ndarray) -> float:
    """Max norm of M ad(z) + ad(z)^T M over a basis z of ``sub`` and over the (k, n, n) stack of M."""
    ads = alg.ads(sub.basis)
    moved = np.asarray(matrix)[..., None, :, :] @ ads
    return float(np.max(np.abs(moved + ads.mT @ np.asarray(matrix)[..., None, :, :]), initial=0.0))


def _symmetric_frame(frame: np.ndarray) -> np.ndarray:
    """Frobenius-orthonormal basis of the symmetric maps on the span of an orthonormal (n, q) frame:
    (b_i b_j^T + b_j b_i^T) / (2 or sqrt 2) over np.triu_indices(q), each exactly symmetric."""
    rows, cols = np.triu_indices(frame.shape[1])
    outer = frame.T[rows, :, None] * frame.T[cols, None, :]
    return (outer + outer.mT) / np.where(rows == cols, 2.0, np.sqrt(2.0))[:, None, None]


def invariant_product_space(alg: LieAlgebra, sub: Subspace) -> list[np.ndarray]:
    """Basis of symmetric solutions of M ad(z) + ad(z)^T M = 0, z in sub.

    Each ad(z) is skew, so M commutes with it: M keeps the joint kernel c of
    ad(sub), where every symmetric map solves, and its orthocomplement c',
    the span of the images of ad(sub).  Only c' is solved for, in the
    coordinates of :func:`_symmetric_frame` of the identity, whose images
    under every ad(z) are symmetric, so only their upper triangles enter the
    kernel, off-diagonal entries weighted by sqrt 2.  The solutions (the
    frame of c, then the kernel lifted into c') are Frobenius-orthonormal and
    span the base product.  On the su(5) partial flag c' has 36 coordinates
    against 300 in all: at that size LAPACK's bits vary with BLAS threads.
    """
    _require_subalgebra(alg, sub)
    n = alg.dim
    ads = alg.ads(sub.basis)
    moving = span(ads.transpose(1, 0, 2).reshape(n, -1))
    fixed = kernel(moving.basis.T)
    local = moving.basis.T @ ads @ moving.basis
    sym_basis = _symmetric_frame(np.eye(moving.dim))
    rows, cols = np.triu_indices(moving.dim)
    weight = np.where(rows == cols, 1.0, np.sqrt(2.0))
    moved = sym_basis @ local[:, None]
    images = (moved + moved.mT)[..., rows, cols] * weight  # [z, basis element, coordinate]
    # R of a QR has the singular values and right singular vectors of the tall stack, at half the SVD cost.
    coeffs = kernel(np.linalg.qr(images.mT.reshape(len(ads) * len(rows), len(rows)), mode="r"))

    # Sanity: the base product satisfies the constraints, so it must project
    # fully onto the solution span (orthonormal in these coordinates).
    base = (rows == cols).astype(float)
    if np.linalg.norm(base - coeffs.basis @ (coeffs.basis.T @ base)) > 1e-10 * n:
        raise DomainError("base product missing from the invariant solution space")
    lifted = np.tensordot(coeffs.basis.T, _symmetric_frame(moving.basis), axes=1)
    return list(_symmetric_frame(fixed.basis)) + list(lifted)


def draw_invariant_products(alg: LieAlgebra, sub: Subspace, sols: list[np.ndarray], seed: int,
                            indices) -> np.ndarray:
    """Base product plus a seeded random combination of ``sols``, kept SPD, one per index: a (k, n, n) stack.

    ``sols`` is :func:`invariant_product_space` of ``sub``.  Product i takes
    its weights from the stream (seed, "action-products", indices[i]), and its
    perturbation is halved until the smallest eigenvalue stays above 0.1
    times the base one, which keeps every sampled product well conditioned.
    Every step runs on the whole stack (one weight draw, one ``eigvalsh``
    per halving round, one invariance check), and each product is the one
    its index alone gives.
    """
    n = alg.dim
    weights = normal_rows(seed, "action-products", indices, len(sols))
    perturb = sum(w[:, None, None] * s for w, s in zip(weights.T, sols))
    # np.linalg.norm of one matrix is a dot product, not the pairwise sum of a stacked norm.
    perturb = perturb / np.array([max(1.0, np.linalg.norm(p)) for p in perturb])[:, None, None]

    scale = np.ones(len(perturb))
    products = np.empty_like(perturb)
    todo = np.arange(len(perturb))
    floor = 0.1  # 0.1 x the smallest eigenvalue of the base product (identity)
    for _ in range(80):
        candidate = np.eye(n) + scale[todo, None, None] * perturb[todo]
        done = np.min(np.linalg.eigvalsh(candidate), axis=-1) > floor
        products[todo[done]] = candidate[done]
        todo = todo[~done]
        if not len(todo):
            break
        scale[todo] *= 0.5
    else:  # pragma: no cover - the base product is an interior point
        products[todo] = np.eye(n)

    inv_res = product_invariance_residual(alg, sub, products)
    if inv_res > 1e-10:
        raise DomainError(f"sampled product lost invariance (residual {inv_res:.2e})")
    return products

