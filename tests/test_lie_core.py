import numpy as np
import pytest

from orbitpencil import dirac_reduction as dr
from orbitpencil import families
from orbitpencil import lie_core as lc
from orbitpencil.errors import DomainError, InputError


def matrix_commutator_bracket(alg, x, y):
    """Independent bracket oracle through the matrix realisation."""
    mx, my = alg.matrix_of(x), alg.matrix_of(y)
    return alg.element_from_matrix(mx @ my - my @ mx)


# ---------------------------------------------------------------------------
# Algebra construction invariants
# ---------------------------------------------------------------------------


def _einsum_coefficients(alg, mats):
    """Reference for ``coefficients``: -Re tr(B_k M) as one complex einsum."""
    return -np.real(np.einsum("kij,...ji->...k", alg.basis, mats))


@pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("su", 4), ("so", 4), ("so", 5)])
def test_coefficients_match_the_einsum_reference(family, n):
    alg = getattr(families, family)(n)
    rng = np.random.default_rng(n)
    coeffs = rng.standard_normal((7, 3, alg.dim))
    coeffs /= np.linalg.norm(coeffs, axis=-1, keepdims=True)
    mats = np.tensordot(coeffs, alg.basis, axes=(-1, 0))  # a (7, 3, n, n) stack of unit elements
    off_span = 0.3 * (rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n)))
    for stack in (mats, off_span, mats[0, 0], np.empty((0, n, n), dtype=complex)):
        got = alg.coefficients(stack)
        assert got.shape == stack.shape[:-2] + (alg.dim,)
        assert np.max(np.abs(got - _einsum_coefficients(alg, stack)), initial=0.0) <= 1e-15
    assert np.max(np.abs(alg.coefficients(mats) - coeffs)) <= 1e-15


@pytest.mark.parametrize("family,n", [("su", 3), ("su", 4), ("so", 4)])
def test_ads_are_the_ad_of_each_column(family, n):
    alg = getattr(families, family)(n)
    basis = np.random.default_rng(n).standard_normal((alg.dim, 5))
    stack = alg.ads(basis)
    assert stack.shape == (5, alg.dim, alg.dim)
    for column, ad in zip(basis.T, stack, strict=True):
        assert np.array_equal(ad, alg.ad(column))
    assert alg.ads(np.zeros((alg.dim, 0))).shape == (0, alg.dim, alg.dim)


@pytest.mark.parametrize("build", [lambda: families.su(2), lambda: families.su(3), lambda: families.so(4)])
def test_algebra_invariants(build):
    alg = build()
    n = alg.dim
    # closure: recompute matrix brackets and compare with structure constants
    comm = np.einsum("aij,bjk->abik", alg.basis, alg.basis)
    comm = comm - np.transpose(comm, (1, 0, 2, 3))
    recon = np.einsum("abc,cij->abij", alg.structure, alg.basis)
    rel = np.linalg.norm(comm - recon, axis=(2, 3)) / np.maximum(np.linalg.norm(comm, axis=(2, 3)), 1.0)
    assert rel.max() <= 1e-12
    # antisymmetry
    assert np.max(np.abs(alg.structure + np.transpose(alg.structure, (1, 0, 2)))) <= 1e-12
    # Jacobi
    assert lc.jacobi_residual_of_structure(alg.structure) <= 1e-12
    # trace product is ad-invariant (skew ad)
    assert np.max(np.abs(alg.ad_basis + np.transpose(alg.ad_basis, (0, 2, 1)))) <= 1e-12
    assert alg.matrix_dim == alg.basis.shape[1]
    assert n == alg.structure.shape[0]


def test_non_compact_basis_rejected():
    # sl(2, R): trace form indefinite
    e = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    f = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    h = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    with pytest.raises(InputError):
        lc.algebra_from_matrices("sl2", [e, f, h])


def test_basis_must_close():
    # so(3) generators plus a diagonal element do not close under brackets
    mats = list(families.so_generators(3))
    extra = np.diag([1j, -0.5j, -0.5j])
    with pytest.raises(InputError):
        lc.algebra_from_matrices("broken", mats + [extra])


# ---------------------------------------------------------------------------
# bracket / adjoint
# ---------------------------------------------------------------------------


def test_bracket_antisymmetry_random(su3):
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(su3.dim)
        y = rng.standard_normal(su3.dim)
        assert np.linalg.norm(su3.bracket(x, x)) <= 1e-12
        assert np.allclose(su3.bracket(x, y), -su3.bracket(y, x), atol=1e-12)


def test_su2_bracket_table(su2, pauli_elements):
    # symbolic 2x2 oracle: [-i sx/2, -i sy/2] = -i sz/2
    e1, e2, e3 = pauli_elements
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    m1, m2 = -0.5j * sx, -0.5j * sy
    expected = su2.element_from_matrix(m1 @ m2 - m2 @ m1)
    assert np.allclose(expected, e3, atol=1e-14)
    assert np.allclose(su2.bracket(e1, e2), e3, atol=1e-12)
    # bilinearity over the same oracle
    assert np.allclose(su2.bracket(e1 + e2, e1), -e3, atol=1e-12)


def test_bracket_matches_matrix_oracle(su3):
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(su3.dim)
        y = rng.standard_normal(su3.dim)
        assert np.allclose(su3.bracket(x, y), matrix_commutator_bracket(su3, x, y), atol=1e-10)


def test_bracket_dimension_mismatch(su2):
    with pytest.raises(InputError):
        su2.bracket(np.zeros(3), np.zeros(4))


def test_adjoint_operator(su2, su3, pauli_elements):
    assert np.allclose(su2.ad(np.zeros(3)), 0.0)
    e1, e2, e3 = pauli_elements
    ad3 = su2.ad(e3)
    # rotation generator in the (E1, E2)-plane, zero on E3
    assert np.allclose(ad3 @ e1, e2, atol=1e-12)
    assert np.allclose(ad3 @ e2, -e1, atol=1e-12)
    assert np.allclose(ad3 @ e3, 0.0, atol=1e-12)
    # traceless on a compact algebra
    rng = np.random.default_rng(2)
    for _ in range(10):
        assert abs(np.trace(su3.ad(rng.standard_normal(su3.dim)))) <= 1e-10


def test_adjoint_is_homomorphism(su3):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(su3.dim)
    y = rng.standard_normal(su3.dim)
    lhs = su3.ad(su3.bracket(x, y))
    ax, ay = su3.ad(x), su3.ad(y)
    assert np.allclose(lhs, ax @ ay - ay @ ax, atol=1e-10)


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------


def test_subspace_basics(su3):
    rng = np.random.default_rng(4)
    sub = lc.span(rng.standard_normal((8, 3)))
    assert sub.dim == 3
    assert np.allclose(sub.basis.T @ sub.basis, np.eye(3), atol=1e-12)
    vec = sub.basis @ rng.standard_normal(3)
    assert sub.residual(vec) <= 1e-12


def test_kernel_of_noise_matrix_is_full():
    noise = 1e-15 * np.random.default_rng(5).standard_normal((4, 6))
    assert lc.kernel(noise).dim == 6


@pytest.mark.parametrize("shape,rank", [((30, 6), 4), ((4, 9), 3), ((7, 7), 5)])
def test_kernel_economy_and_full_paths(shape, rank):
    # tall matrices take the economy SVD, wide ones the full one
    rng = np.random.default_rng(8)
    rows, cols = shape
    mat = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    ker = lc.kernel(mat)
    assert ker.dim == cols - rank
    assert np.allclose(ker.basis.T @ ker.basis, np.eye(cols - rank), atol=1e-12)
    assert np.max(np.abs(mat @ ker.basis)) <= 1e-10 * np.linalg.norm(mat)


def test_double_complement_roundtrip(su3):
    rng = np.random.default_rng(6)
    for _ in range(10):
        sub = lc.span(rng.standard_normal((su3.dim, 3)))
        comp = lc.kernel(sub.basis.T)
        assert comp.dim == su3.dim - sub.dim
        again = lc.kernel(comp.basis.T)
        assert lc.projector_distance(again, sub) <= 1e-10


# ---------------------------------------------------------------------------
# centralizer / normalizer / complements
# ---------------------------------------------------------------------------


def _ad_rank_oracle(alg, x):
    """Rank of ad(x) through the matrix realisation, not structure constants."""
    cols = []
    mx = alg.matrix_of(x)
    for i in range(alg.dim):
        mi = alg.basis[i]
        cols.append(alg.element_from_matrix(mx @ mi - mi @ mx))
    sig = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    return int(np.sum(sig > 1e-9 * max(sig[0], 1.0)))


def test_centralizer(su2, su3, pauli_elements):
    assert lc.centralizer(su2, lc.zero_subspace(3)).dim == 3
    e1, e2, e3 = pauli_elements
    h = lc.span(e3[:, None])
    cent = lc.centralizer(su2, h)
    # kernel dimension oracle: dim ker ad(E3) = 3 - rank ad(E3)
    assert cent.dim == 3 - _ad_rank_oracle(su2, e3) == 1
    assert cent.residual(e3) <= 1e-10
    # a subalgebra that contains the center (trivial here) and is closed
    assert lc.subalgebra_residual(su2, cent) <= 1e-10


def test_centralizer_of_cp2_isotropy(su3, setup_cp2):
    # stacked-kernel oracle, pinned on first run: the centralizer of the
    # one-dimensional principal isotropy algebra has dimension 4
    h = setup_cp2.isotropy
    stacked = np.vstack([su3.ad(h.basis[:, j]) for j in range(h.dim)])
    sig = np.linalg.svd(stacked, compute_uv=False)
    dim_oracle = su3.dim - int(np.sum(sig > 1e-9 * max(sig[0], 1.0)))
    cent = lc.centralizer(su3, h)
    assert cent.dim == dim_oracle == 4
    assert lc.subalgebra_residual(su3, cent) <= 1e-10


def test_an_all_noise_stack_has_rank_zero():
    # one rank rule, sigma > RANK_RTOL max(sigma_max, 1): rounding noise of O(1) operators carries no rank
    noise = 1e-12 * np.random.default_rng(5).standard_normal((4, 6, 3))
    assert not lc.rank_mask(np.linalg.svd(noise, compute_uv=False)).any()
    assert [k.dim for k in lc.kernels(noise)] == [3] * 4
    assert [s.dim for s in lc.spans(noise)] == [0] * 4
    # above the floor the cutoff is relative to sigma_max
    assert lc.rank_mask(np.array([[4.0, 1.0, 1e-8, 1e-9], [0.5, 1e-9, 0.0, 0.0]])).tolist() == [
        [True, True, True, False], [True, False, False, False]]


@pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("so", 4)])
def test_the_zero_subspace_is_the_empty_stack(family, n):
    # h = 0 runs the same code as any h: the empty stack of ad operators
    alg = getattr(families, family)(n)
    zero, full = lc.zero_subspace(alg.dim), lc.full_subspace(alg.dim)
    assert lc.projector_distance(lc.normalizer(alg, zero), full) == 0.0
    assert lc.subalgebra_residual(alg, zero) == 0.0
    assert lc.product_invariance_residual(alg, zero, np.eye(alg.dim)[None]) == 0.0
    assert lc.subspace_contains(full, zero) == lc.subspace_contains(zero, zero) == 0.0
    xs = np.random.default_rng(n).standard_normal((3, alg.dim))
    assert [s.basis.shape for s in dr.stabilizer_within(alg, zero, xs)] == [(0, 0)] * 3  # in zero's coordinates


def test_normalizer_su2(su2, pauli_elements):
    e1, e2, e3 = pauli_elements
    h = lc.span(e3[:, None])
    norm = lc.normalizer(su2, h)
    assert norm.dim == 1
    assert lc.projector_distance(norm, h) <= 1e-10


def test_normalizer_of_ideal_is_everything():
    # su(2) + su(2) realised as block-diagonal 4x4 matrices
    gens2 = families.su_generators(2)
    mats = []
    for g in gens2:
        top = np.zeros((4, 4), dtype=complex)
        top[:2, :2] = g
        mats.append(top)
    for g in gens2:
        bot = np.zeros((4, 4), dtype=complex)
        bot[2:, 2:] = g
        mats.append(bot)
    alg = lc.algebra_from_matrices("su2+su2", np.asarray(mats))
    assert alg.dim == 6
    first = lc.span(np.eye(6)[:, :3])  # first factor is an ideal
    assert lc.subalgebra_residual(alg, first) <= 1e-12
    assert lc.normalizer(alg, first).dim == 6


def test_normalizer_contains_centralizer_and_sub(su3):
    rng = np.random.default_rng(7)
    # 1-d subspaces are automatically subalgebras
    for _ in range(8):
        h = lc.span(rng.standard_normal((su3.dim, 1)))
        norm = lc.normalizer(su3, h)
        cent = lc.centralizer(su3, h)
        assert lc.subspace_contains(norm, cent) <= 1e-10
        assert lc.subspace_contains(norm, h) <= 1e-10


def test_normalizer_rejects_non_subalgebra(su2, pauli_elements):
    e1, e2, _ = pauli_elements
    not_closed = lc.span(np.column_stack([e1, e2]))
    with pytest.raises(DomainError):
        lc.normalizer(su2, not_closed)


def gram_schmidt_complement_oracle(sub_basis, n):
    """Plain Gram-Schmidt sweep of the standard basis against sub_basis."""
    vecs = [sub_basis[:, j] for j in range(sub_basis.shape[1])]
    out = []
    for i in range(n):
        v = np.eye(n)[:, i].copy()
        for u in vecs + out:
            v -= np.dot(u, v) * u
        if np.linalg.norm(v) > 1e-8:
            out.append(v / np.linalg.norm(v))
    return np.column_stack(out) if out else np.zeros((n, 0))


def test_orthogonal_complement(pauli_elements):
    assert lc.kernel(lc.full_subspace(3).basis.T).dim == 0
    e1, e2, e3 = pauli_elements
    h = lc.span(e3[:, None])
    comp = lc.kernel(h.basis.T)
    oracle = lc.Subspace(basis=gram_schmidt_complement_oracle(h.basis, 3))
    assert lc.projector_distance(comp, oracle) <= 1e-10
    assert max(comp.residual(e1), comp.residual(e2)) <= 1e-10


def test_complement_full_rank_property(su3):
    rng = np.random.default_rng(8)
    for _ in range(50):
        k = rng.integers(1, su3.dim)
        sub = lc.span(rng.standard_normal((su3.dim, k)))
        comp = lc.kernel(sub.basis.T)
        stacked = np.hstack([sub.basis, comp.basis])
        sig = np.linalg.svd(stacked, compute_uv=False)
        assert sig[-1] > 1e-9
        assert sub.dim + comp.dim == su3.dim


def test_complement_with_custom_product(pauli_elements):
    e1, e2, e3 = pauli_elements
    h = lc.span(e3[:, None])
    prod = np.diag([2.0, 2.0, 5.0])
    [comp] = lc.orthogonal_complements(h, prod[None])
    # h is spanned by a multiple of the third internal axis here only up to
    # basis mixing, so check the defining property directly
    assert np.max(np.abs(h.basis.T @ prod @ comp.basis)) <= 1e-10


# ---------------------------------------------------------------------------
# Invariant products and complement independence
# ---------------------------------------------------------------------------


def test_invariant_product_space_no_constraints(su2):
    sols = lc.invariant_product_space(su2, lc.zero_subspace(3))
    assert len(sols) == 6  # n(n+1)/2
    # every symmetric matrix, orthonormal for the Frobenius product
    flat = np.reshape(sols, (6, 9))
    assert np.max(np.abs(flat @ flat.T - np.eye(6))) <= 1e-15
    assert all(np.array_equal(s, s.T) for s in sols)


def test_invariant_product_space_su2_axis(su2, pauli_elements):
    _, _, e3 = pauli_elements
    h = lc.span(e3[:, None])
    sols = lc.invariant_product_space(su2, h)
    # null-space oracle on the 6-dimensional symmetric space gives dim 2,
    # all solutions of the form a*(projector off e3) + b*(projector on e3)
    assert len(sols) == 2
    p3 = np.outer(e3, e3) / np.dot(e3, e3)
    for sol in sols:
        coeff_on = np.trace(sol @ p3)
        coeff_off = (np.trace(sol) - coeff_on) / 2.0
        recon = coeff_off * (np.eye(3) - p3) + coeff_on * p3
        assert np.allclose(sol, recon, atol=1e-10)


def test_invariant_product_space_contains_base(su3, setup_cp2):
    sols = lc.invariant_product_space(su3, setup_cp2.isotropy)
    flat = np.asarray([s.reshape(-1) for s in sols]).T
    target = np.eye(su3.dim).reshape(-1)
    resid = np.linalg.norm(target - flat @ np.linalg.lstsq(flat, target, rcond=None)[0])
    assert resid <= 1e-10


def _full_square_product_space(alg, sub):
    # reference: the n^2-row map of each symmetric basis element, one ad(z) at a time
    n = alg.dim
    sym_basis = []
    for i in range(n):
        for j in range(i, n):
            mat = np.zeros((n, n))
            mat[i, j] = mat[j, i] = 1.0 if i == j else 1.0 / np.sqrt(2.0)
            sym_basis.append(mat)
    sym_basis = np.asarray(sym_basis)
    rows = []
    for z in range(sub.dim):
        a = alg.ad(sub.basis[:, z])
        mapped = np.einsum("sij,jk->sik", sym_basis, a) + np.einsum("ji,sjk->sik", a, sym_basis)
        rows.append(mapped.reshape(len(sym_basis), n * n).T)
    coeffs = lc.kernel(np.vstack(rows))
    return [np.tensordot(coeffs.basis[:, c], sym_basis, axes=(0, 0)) for c in range(coeffs.dim)]


@pytest.mark.parametrize("case", ["su2_axis", "cp2", "cp3", "su5", "so4_block"])
def test_invariant_product_space_spans_the_full_square_solutions(request, case, su2, pauli_elements, so4):
    if case == "su2_axis":
        alg, sub = su2, lc.span(pauli_elements[2][:, None])
    elif case == "so4_block":
        alg, sub = so4, so3_block_subalgebra(so4)
    else:
        setup = request.getfixturevalue(f"setup_{case}")
        alg, sub = setup.alg, setup.isotropy

    def projector(sols):
        flat = np.stack([s.ravel() for s in sols], axis=1)
        return flat @ np.linalg.pinv(flat)

    got, want = lc.invariant_product_space(alg, sub), _full_square_product_space(alg, sub)
    assert len(got) == len(want)
    assert np.max(np.abs(projector(got) - projector(want))) <= 1e-12
    assert all(np.array_equal(s, s.T) for s in got)


@pytest.mark.parametrize("case", ["cp2", "cp3", "su5"])
def test_invariant_products_keep_the_centralizer_and_its_complement(request, case):
    # ad(h) vanishes on the centralizer c and keeps its complement c', so every solution is
    # block diagonal: all symmetric maps of c, then the constrained block on c'
    setup = request.getfixturevalue(f"setup_{case}")
    sols = lc.invariant_product_space(setup.alg, setup.isotropy)
    cent = setup.centralizer
    rest = lc.kernel(cent.basis.T)
    assert max(np.max(np.abs(rest.basis.T @ s @ cent.basis)) for s in sols) <= 1e-14
    fixed = cent.dim * (cent.dim + 1) // 2
    assert all(np.max(np.abs(rest.basis.T @ s @ rest.basis)) <= 1e-14 for s in sols[:fixed])
    assert all(np.max(np.abs(cent.basis.T @ s @ cent.basis)) <= 1e-14 for s in sols[fixed:])


def _draw(alg, sub, seed):
    return lc.draw_invariant_products(alg, sub, lc.invariant_product_space(alg, sub), seed, [0])


def _independence(alg, sub, seed):
    return lc.complement_independence(alg, sub, lc.normalizer(alg, sub), lc.invariant_product_space(alg, sub),
                                      seed=seed, trials=20)


def complement_motion(alg, sub, seed, trials=20):
    """Max distance between the complements alone of the product pairs complement_independence draws."""
    prods = lc.draw_invariant_products(alg, sub, lc.invariant_product_space(alg, sub), seed, range(2 * trials))
    comps = lc.orthogonal_complements(lc.normalizer(alg, sub), prods)
    return max(lc.projector_distance(a, b) for a, b in zip(comps[0::2], comps[1::2]))


def test_random_invariant_product(su2, pauli_elements):
    _, _, e3 = pauli_elements
    h = lc.span(e3[:, None])
    a = _draw(su2, h, seed=42)
    b = _draw(su2, h, seed=42)
    assert np.array_equal(a, b)  # determinism
    assert np.min(np.linalg.eigvalsh(a)) > 0
    assert lc.product_invariance_residual(su2, h, a) <= 1e-10
    # whole algebra: invariant products unique up to scale on a simple algebra
    full = lc.full_subspace(3)
    assert len(lc.invariant_product_space(su2, full)) == 1
    c = _draw(su2, full, seed=3)
    ratio = c[0, 0, 0]
    assert np.allclose(c, ratio * np.eye(3), atol=1e-12)


def test_complement_independence_same_product_is_zero(su2, pauli_elements):
    _, _, e3 = pauli_elements
    h = lc.span(e3[:, None])
    norm = lc.normalizer(su2, h)
    alpha = _draw(su2, h, seed=1)
    [pa] = lc.orthogonal_complements(norm, alpha)
    [pb] = lc.orthogonal_complements(norm, alpha)
    assert lc.projector_distance(pa, pb) == 0.0


def test_complement_independence_su2(su2, pauli_elements):
    _, _, e3 = pauli_elements
    h = lc.span(e3[:, None])
    assert _independence(su2, h, seed=5) <= 1e-8
    # here both complements coincide outright (single isotypic block)
    assert complement_motion(su2, h, seed=5) <= 1e-8


def so3_block_subalgebra(so4_alg):
    gens = families.so_generators(4)
    pairs = [(0, 1), (0, 2), (1, 2)]
    order = []
    idx = 0
    for i in range(4):
        for j in range(i + 1, 4):
            if (i, j) in pairs:
                order.append(idx)
            idx += 1
    vecs = [so4_alg.element_from_matrix(gens[i]) for i in order]
    return lc.span(np.column_stack(vecs))


def test_complement_rigidity_with_abelian_isotropy(su3, setup_cp2):
    # with an abelian isotropy algebra the normalizer coincides with the
    # full fixed-point subalgebra, and invariant pairings between distinct
    # isotypic components vanish, so the complement cannot move at all
    assert _independence(su3, setup_cp2.isotropy, seed=11) <= 1e-8
    assert complement_motion(su3, setup_cp2.isotropy, seed=11) <= 1e-8


def test_complement_independence_witness_on_so4(so4):
    # Nonabelian subalgebra whose adjoint-type representation also occurs in
    # the complement: the complements themselves move with the product while
    # their sums with the subalgebra agree.
    h = so3_block_subalgebra(so4)
    assert lc.subalgebra_residual(so4, h) <= 1e-12
    assert _independence(so4, h, seed=3) <= 1e-8
    assert complement_motion(so4, h, seed=3) > 1e-3


# ---------------------------------------------------------------------------
# Fixed vectors
# ---------------------------------------------------------------------------


def test_fixed_vector_space(su2, su3, pauli_elements, setup_cp2):
    e1, e2, e3 = pauli_elements
    amb = lc.full_subspace(3)
    assert lc.projector_distance(lc.fixed_vector_space(su2, lc.zero_subspace(3), amb), amb) == 0.0
    h = lc.span(e3[:, None])
    fixed = lc.fixed_vector_space(su2, h, amb)
    assert lc.projector_distance(fixed, h) <= 1e-10
    assert lc.projector_distance(lc.subspace_sum(fixed, h), lc.normalizer(su2, h)) <= 1e-8
    # larger algebra cross-check against the normalizer
    h3 = setup_cp2.isotropy
    fixed3 = lc.fixed_vector_space(su3, h3, lc.full_subspace(su3.dim))
    assert lc.projector_distance(lc.subspace_sum(fixed3, h3), lc.normalizer(su3, h3)) <= 1e-8


def test_fixed_vector_space_rejects_variant_ambient(su2, pauli_elements):
    e1, _, e3 = pauli_elements
    with pytest.raises(DomainError):
        lc.fixed_vector_space(su2, lc.span(e3[:, None]), lc.span(e1[:, None]))
