"""Stacked rows: each residual row evaluates all its sample points in one call.

Every stacked path is compared bit for bit with its calls on each stack of
one, the per-point calls it replaced, on fields and charts of their own, so that no value is read back
from a memo the other side filled.  The evaluation-count test pins how many
exponential, form and bivector evaluations one full run makes.
"""

import collections
import pathlib

import numpy as np
import pytest

from orbitpencil import dirac_reduction as dr
from orbitpencil import families
from orbitpencil import lie_core as lc
from orbitpencil import orbit_charts as oc
from orbitpencil import poisson_pencil as pp
from orbitpencil import workbench as wb
from orbitpencil.errors import GenericityError, InputError
from orbitpencil.seeding import uniform_rows, unit_rows

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _fresh(setup):
    """Charts and pencils of their own: nothing shared with another call's memos."""
    return dr.restricted_pencil(setup, setup.x0)


@pytest.fixture(scope="module", params=["cp2", "cp3"])
def stacked_case(request):
    setup = request.getfixturevalue(f"setup_{request.param}")
    data = _fresh(setup)
    sub = dr.sample_regular_coords(setup, data, 4, seed=3)
    rng = np.random.default_rng(5)
    ambient = rng.uniform(-0.1, 0.1, (4, data.ambient_chart.coord_dim))
    return setup, {"ambient": ambient, "restricted": sub}


@pytest.mark.parametrize("which", ["ambient", "restricted"])
def test_residuals_on_the_stack_are_the_max_of_the_rows(stacked_case, which):
    setup, coords = stacked_case
    stack = coords[which]
    rows, stacked = getattr(_fresh(setup), which), getattr(_fresh(setup), which)
    for member in ("w1", "w2"):
        assert oc.closedness_residual(getattr(stacked, member), stack) == max(
            oc.closedness_residual(getattr(rows, member), c) for c in stack[:, None])
    for member in ("p1", "p2"):
        assert pp.jacobi_residual(getattr(stacked, member), stack) == max(
            pp.jacobi_residual(getattr(rows, member), c) for c in stack[:, None])
    assert pp.compatibility_residual(stacked.p1, stacked.p2, stack) == max(
        pp.compatibility_residual(rows.p1, rows.p2, c) for c in stack[:, None])


@pytest.mark.parametrize("which", ["ambient", "restricted"])
def test_partials_on_the_stack_are_the_rows(stacked_case, which):
    setup, coords = stacked_case
    stack = coords[which]
    rows, stacked = getattr(_fresh(setup), which), getattr(_fresh(setup), which)
    for member in ("w1", "w2"):
        calls = []
        field = getattr(stacked, member)
        counted = oc.FormField(lambda c, f=field: calls.append(len(c)) or f(c), field.dim)
        got = oc.central_partials(counted, stack, 1e-4)
        assert calls == [2 * stack.size]  # every stencil of every row in one call
        assert np.array_equal(got, np.concatenate([oc.central_partials(getattr(rows, member), c, 1e-4)
                                                   for c in stack[:, None]]))
    for member in ("p1", "p2"):
        got = getattr(stacked, member).partials(stack)
        assert np.array_equal(got, np.concatenate([getattr(rows, member).partials(c) for c in stack[:, None]]))
    assert pp.compatibility_residual(stacked.p1, stacked.p2, stack) == max(
        pp.compatibility_residual(rows.p1, rows.p2, c) for c in stack[:, None])


def test_stacked_draws_are_the_single_draws(setup_cp3):
    alg, sub = setup_cp3.alg, setup_cp3.isotropy
    sols = lc.invariant_product_space(alg, sub)
    indices = [3, 4, 11, 2 ** 20]
    stacked = lc.draw_invariant_products(alg, sub, sols, 5, indices)
    assert np.array_equal(stacked, np.stack([lc.draw_invariant_products(alg, sub, sols, 5, [i])[0]
                                             for i in indices]))


@pytest.mark.parametrize("family, n, spectrum", [("su", 2, [1, -1]), ("su", 3, [2, -1, -1]), ("so", 4, [1.0, 1.0])])
def test_principal_isotropy_stacks_its_draws(monkeypatch, family, n, spectrum):
    alg = families.su(n) if family == "su" else families.so(n)
    config = oc.orbit_config(alg, families.diagonal_seed(alg, spectrum))
    calls = collections.Counter()
    for name in ("kernel", "kernels", "span", "spans"):
        fn = getattr(dr, name)
        monkeypatch.setattr(dr, name, lambda *a, fn=fn, name=name, **k: calls.update([name]) or fn(*a, **k))
    x0, stab = dr.principal_isotropy(config, samples=8, seed=1)
    monkeypatch.undo()
    assert calls == {"kernels": 1, "span": 1}  # all 16 draws in one stack; only the kept one is spanned
    draws = unit_rows(1, "principal-isotropy", range(16), config.tangent.dim) @ config.tangent.basis.T
    singles = [dr.stabilizer_within(alg, config.stabilizer, x)[0] for x in draws[:, None]]
    for got, want in zip(dr.stabilizer_within(alg, config.stabilizer, draws), singles):
        assert np.array_equal(got.basis, want.basis)
    first = [s.dim for s in singles].index(min(s.dim for s in singles))
    assert np.array_equal(x0, draws[first])
    assert np.array_equal(stab.basis, lc.span(config.stabilizer.basis @ singles[first].basis).basis)


@pytest.mark.parametrize("case", ["cp2", "cp3"])
def test_splitting_and_brackets_on_the_stack_are_the_point_reports(request, case):
    # each (point, form) entry of a stacked call is the entry of that point's stack of one
    setup = request.getfixturevalue(f"setup_{case}")
    sampler = _fresh(setup)
    sub = dr.sample_regular_coords(setup, sampler, 3, seed=9)
    rows, stacked = _fresh(setup), _fresh(setup)
    members = [(1.0, 0.0), (0.0, 1.0), (2.0, -1.0)]

    def forms(data, coords):
        w1, w2 = data.ambient.w1(coords), data.ambient.w2(coords)
        return np.stack([t1 * w1 + t2 * w2 for t1, t2 in members], axis=-3)

    padded = stacked.pad_coords(sub)
    got = dr.splitting_orthogonality(setup, stacked.ambient_chart, padded, forms(stacked, padded))
    want = zip(*(dr.splitting_orthogonality(setup, rows.ambient_chart, rows.pad_coords(s),
                                            forms(rows, rows.pad_coords(s))) for s in sub[:, None]))
    for a, b in zip(got, want, strict=True):
        assert a.shape == (len(sub), len(members)) and np.array_equal(a, np.concatenate(b))

    words = [("v", "v"), ("x", "x", "v", "v"), ("x", "v", "x", "v")]
    got = dr.bracket_agreement(setup, stacked, [dr.invariant_function(setup.alg, w) for w in words], sub)
    fns = [dr.invariant_function(setup.alg, w) for w in words]
    want = zip(*(dr.bracket_agreement(setup, rows, fns, s) for s in sub[:, None]))
    for a, b in zip(got, want, strict=True):
        assert a.shape == (len(sub), 2, len(words), len(words))
        assert np.array_equal(a, np.concatenate(b))

    # block_structure of a (2, m, d, d) stack: each entry is the max and SVDs of its matrix alone,
    # and an empty lead or trail block couples nothing and reads sigma inf
    sub_forms = np.stack([stacked.restricted.w1(sub), stacked.restricted.w2(sub)])
    d = stacked.sub_chart.coord_dim
    for split in (0, stacked.sub_chart.frame_dim, d):
        coupling, lead, trail = dr.block_structure(sub_forms, split)
        assert coupling.shape == lead.shape == trail.shape == (2, len(sub))
        for index in np.ndindex(2, len(sub)):
            form = sub_forms[index]
            if 0 < split < d:
                assert coupling[index] == np.max(np.abs(form[split:, :split]))
                assert lead[index] == np.linalg.svd(form[:split, :split], compute_uv=False)[-1]
                assert trail[index] == np.linalg.svd(form[split:, split:], compute_uv=False)[-1]
            else:
                whole = np.linalg.svd(form, compute_uv=False)[-1]
                assert coupling[index] == 0.0
                assert (lead[index], trail[index]) == ((np.inf, whole) if split == 0 else (whole, np.inf))


def test_point_functions_on_the_stack_are_the_point_values(setup_cp3, data_cp3):
    setup = setup_cp3
    coords = dr.sample_regular_coords(setup, data_cp3, 4, seed=13)
    points = data_cp3.sub_chart.point(coords)
    singles = points[:, None]
    for word in [("v", "v"), ("x", "v", "x", "v"), ("v", "v", "v", "v")]:
        fn = dr.invariant_function(setup.alg, word)
        assert np.array_equal(fn(points), np.concatenate([fn(p) for p in singles]))
        assert np.array_equal(fn.gradient(points), np.concatenate([fn.gradient(p) for p in singles]))
    assert np.array_equal(dr.regularity_distance(setup, points),
                          np.concatenate([dr.regularity_distance(setup, p) for p in singles]))
    assert dr.isotropy_excess(setup, points) == max(dr.isotropy_excess(setup, p) for p in singles)
    assert dr.transversality_deficiency(setup, points) == max(dr.transversality_deficiency(setup, p)
                                                              for p in singles)
    spans = dr.canonical_complement(setup, points)
    for span, p in zip(spans, singles):
        assert np.array_equal(span.basis, dr.canonical_complement(setup, p)[0].basis)
    push = data_cp3.ambient_chart.pushforward(data_cp3.pad_coords(coords))
    strata = dr._stratum_tangent(setup, push)
    for stratum, single in zip(strata, push[:, None]):
        assert np.array_equal(stratum.basis, dr._stratum_tangent(setup, single)[0].basis)


def _einsum_action(alg, xi, points):
    """Reference for ``infinitesimal_action``: ([xi, x], [xi, v]) as one einsum with the structure constants."""
    n = alg.dim
    lead = points.shape[:-2]
    y = points.reshape(-1, n)
    pairs = np.einsum("ai,pj,ijk->apk", xi.reshape(n, -1).T, y, alg.structure)
    return np.moveaxis(pairs.reshape((-1,) + lead + (2 * n,)), 0, -1).reshape(lead + (2 * n,) + xi.shape[1:])


def test_action_spans_of_a_stack_of_bases_are_the_point_calls(setup_cp3, data_cp3):
    setup, alg = setup_cp3, setup_cp3.alg
    coords = dr.sample_regular_coords(setup, data_cp3, 4, seed=13)
    points = data_cp3.sub_chart.point(coords)
    singles = points[:, None]
    # a transversal per point, each orthogonal to n(h) for a product of its own
    prods = lc.draw_invariant_products(alg, setup.isotropy, lc.invariant_product_space(alg, setup.isotropy),
                                       5, range(4))
    bases = np.stack([comp.basis for comp in lc.orthogonal_complements(setup.normalizer, prods)])
    for got, p, basis in zip(dr._action_spans(setup, points, bases), singles, bases, strict=True):
        assert got.dim == setup.transversal.dim
        assert np.array_equal(got.basis, dr._action_spans(setup, p, basis)[0].basis)
        assert np.array_equal(got.basis, dr._action_spans(setup, p, basis[None])[0].basis)
    # one generator, a matrix of them, a matrix per point; at the stack and at one unstacked point
    for xi in (setup.transversal.basis[:, 0], setup.transversal.basis):
        got = oc.infinitesimal_action(setup.config, xi, points)
        assert np.max(np.abs(got - _einsum_action(alg, xi, points))) <= 1e-14
    got = oc.infinitesimal_action(setup.config, bases, points)
    for row, basis, point in zip(got, bases, points, strict=True):
        assert np.max(np.abs(row - _einsum_action(alg, basis, point))) <= 1e-14
        assert np.array_equal(row, oc.infinitesimal_action(setup.config, basis, point))


def test_span_and_kernel_of_a_sequence_are_the_single_calls(su4):
    # each matrix of a (k, r, c) stack, tall, wide, square or empty, gets the subspace it gets alone
    rng = np.random.default_rng(17)
    stacks = [np.stack([rng.standard_normal((15, 6)), rng.standard_normal((15, 6)) @ np.diag([1, 1, 1, 0, 0, 1.0])]),
              np.zeros((2, 15, 0)), np.zeros((2, 0, 15)), rng.standard_normal((2, 4, 15)),
              rng.standard_normal((2, 15, 15))]
    for mats in stacks:
        for many, one in ((lc.spans, lc.span), (lc.kernels, lc.kernel)):
            for got, mat in zip(many(mats), mats, strict=True):
                assert np.array_equal(got.basis, one(mat).basis)


@pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("su", 4), ("so", 4), ("so", 5)])
def test_coefficients_and_ad_on_the_stack_are_the_rows(family, n):
    alg = getattr(families, family)(n)
    xi = 0.4 * unit_rows(7, "stacked-kernels", range(6), alg.dim)
    mats = oc._lincomb(xi, alg.basis)
    coeffs = alg.coefficients(mats)
    assert np.array_equal(coeffs, np.concatenate([alg.coefficients(m) for m in mats[:, None]]))
    assert np.array_equal(coeffs, np.stack([alg.coefficients(m) for m in mats]))
    assert np.array_equal(alg.coefficients(mats.reshape((2, 3) + mats.shape[1:])), coeffs.reshape(2, 3, -1))
    big = oc.exp_ad(alg, xi)
    assert np.array_equal(big, np.concatenate([oc.exp_ad(alg, x) for x in xi[:, None]]))
    assert np.array_equal(big, np.stack([oc.exp_ad(alg, x) for x in xi]))


@pytest.mark.parametrize("case", ["setup_cp2", "setup_cp3", "setup_su3_regular"])
def test_slice_normal_forms_on_the_stack_are_the_rows(request, case):
    setup = request.getfixturevalue(case)
    tangent = setup.config.tangent
    ys = unit_rows(21, "slice-stack", range(8), tangent.dim) @ tangent.basis.T
    ys[3] = 0.8 * setup.x0  # in the slice already: a row that stops at once beside rows that iterate
    zs, total = dr.slice_normal_form(setup, ys)
    rows = [dr.slice_normal_form(setup, y[None]) for y in ys]
    assert np.array_equal(zs, np.concatenate([z for z, _ in rows]))
    assert type(total) is int and total == sum(iterations for _, iterations in rows)
    assert rows[3][1] == 0 and len({iterations for _, iterations in rows}) > 1
    with pytest.raises(InputError, match=r"expected an \(m, \d+\) stack"):
        dr.slice_normal_form(setup, ys[0])


# ---------------------------------------------------------------------------
# Evaluation counts per run
# ---------------------------------------------------------------------------


def _count_evaluations(monkeypatch):
    """Counter of dexp_apply calls and of evaluator calls, per field and in total."""
    counts = collections.Counter()

    def counting(cls, key):
        init = cls.__init__

        def __init__(self, fn, *args, **kwargs):
            def evaluator(c):
                counts[key] += 1
                counts[id(self)] += 1
                return fn(c)
            init(self, evaluator, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", __init__)

    counting(oc.FormField, "FormField")
    dexp = oc.dexp_apply
    monkeypatch.setattr(oc, "dexp_apply", lambda *args: counts.update(["dexp_apply"]) or dexp(*args))
    return counts


def test_evaluation_counts_per_run(monkeypatch):
    # Every row reads the stacks the run evaluates and slices them.  One chain per sample
    # point made 34, 49 and 74 calls here; rows evaluating sub-stacks of their own, 20, 21 and 18;
    # the adapted chart's rows and control, 16, 13 and 12.
    counts = _count_evaluations(monkeypatch)
    report = wb.run_pipeline(wb.load_config(CONFIGS / "su3_projective_plane.json"))
    assert report.verdict == "pass"
    # 13 forms and 12 bivectors, all FormFields
    assert (counts["dexp_apply"], counts["FormField"]) == (12, 25)


@pytest.mark.parametrize("name, calls", [("su3_projective_plane", (70, 36, 2)),
                                         ("su4_projective_space", (69, 36, 2))])
def test_linalg_calls_per_run(monkeypatch, name, calls):
    # (svd, eigh, eigvalsh) calls of a seed-0 verify; point_residuals reads one eigh of its stack.
    counts = collections.Counter()
    for fn in ("svd", "eigh", "eigvalsh"):
        wrapped = getattr(np.linalg, fn)
        monkeypatch.setattr(np.linalg, fn, lambda *args, fn=fn, wrapped=wrapped, **kwargs:
                            counts.update([fn]) or wrapped(*args, **kwargs))
    report = wb.run_pipeline(wb.load_config(CONFIGS / f"{name}.json"))
    assert report.verdict == "pass"
    assert (counts["svd"], counts["eigh"], counts["eigvalsh"]) == calls


def test_no_evaluation_repeats_rows_its_memo_has_evaluated(monkeypatch):
    # A stack whose rows all lie in earlier evaluations of the same memo is a sub-stack the run
    # has already paid for; no row evaluates one.
    repeats = []
    init = oc.CoordinateMemo.__init__

    def __init__(self, fn):
        seen = set()

        def evaluator(c):
            rows = {row.tobytes() for row in c}
            if rows <= seen:
                repeats.append((fn, c.copy()))
            seen.update(rows)
            return fn(c)
        init(self, evaluator)

    monkeypatch.setattr(oc.CoordinateMemo, "__init__", __init__)
    report = wb.run_pipeline(wb.load_config(CONFIGS / "su3_projective_plane.json"))
    assert report.verdict == "pass"
    assert repeats == []


ROWS = ["canonical_closedness", "combined_closedness", "pencil_jacobi_combined",
        "pencil_compatibility", "restricted_closedness", "restricted_compatibility"]


def test_each_outer_derivative_row_calls_each_evaluator_at_most_once(monkeypatch):
    counts = _count_evaluations(monkeypatch)
    ctx = wb.prepare_context(wb.load_config(CONFIGS / "su3_projective_plane.json"))
    for spec in wb.REGISTRY:
        before = dict(counts)
        spec.fn(ctx)
        if spec.name in ROWS:
            per_field = {key: n - before.get(key, 0) for key, n in counts.items() if isinstance(key, int)}
            assert max(per_field.values()) <= 1, spec.name


def _one_candidate_at_a_time(setup, data, count, seed, max_attempts=400):
    # reference: the loop that drew and tested one candidate per step
    out, attempt = [], 0
    while len(out) < count:
        if attempt >= max_attempts:
            raise GenericityError("exhausted")
        coords = uniform_rows(seed, "regular-points", [attempt], data.sub_chart.coord_dim, 0.1)
        attempt += 1
        if dr.is_regular(setup, data.sub_chart.point(coords))[0]:
            out.append(coords[0])
    return out


@pytest.mark.parametrize("reject_half", [False, True])
def test_sample_regular_coords_accepts_what_the_one_at_a_time_loop_accepts(monkeypatch, setup_cp2, reject_half):
    data = _fresh(setup_cp2)
    if reject_half:  # a forced rejection: every point whose first v entry is positive counts as singular
        regular = dr.is_regular
        monkeypatch.setattr(dr, "is_regular", lambda setup, points: regular(setup, points) & (points[:, 1, 0] <= 0))
    want = _one_candidate_at_a_time(setup_cp2, data, 6, seed=4)
    tested = []
    is_regular = dr.is_regular
    monkeypatch.setattr(dr, "is_regular", lambda setup, points: tested.append(len(points)) or is_regular(setup, points))
    got = dr.sample_regular_coords(setup_cp2, data, 6, seed=4)
    assert len(got) == 6 and all(np.array_equal(a, b) for a, b in zip(got, want))
    assert set(tested) == {6}
    assert (len(tested) > 1) == reject_half  # one block of six, unless half the candidates are rejected
    if reject_half:  # the last block stops at max_attempts
        with pytest.raises(GenericityError):
            _one_candidate_at_a_time(setup_cp2, data, 6, seed=4, max_attempts=7)
        with pytest.raises(GenericityError):
            dr.sample_regular_coords(setup_cp2, data, 6, seed=4, max_attempts=7)
        assert tested[-1] == 1


def _lstsq_splitting(setup, chart, coords, forms):
    # reference: the complement lifted by one np.linalg.lstsq per point, as before the stacked solve;
    # the stratum basis is in chart coordinates already
    points = chart.point(coords)
    pushes = chart.pushforward(coords)
    out = []
    for push, comp, strat, point_forms in zip(pushes, dr.canonical_complement(setup, points),
                                              dr._stratum_tangent(setup, pushes), forms):
        cs = strat.basis
        cp = np.linalg.lstsq(push, comp.basis, rcond=None)[0]
        for form in point_forms:
            sigma = np.linalg.svd(cs.T @ form @ cs, compute_uv=False)[-1]
            if comp.dim:
                out.append((np.max(np.abs(cp.T @ form @ cs)), sigma,
                            np.linalg.svd(cp.T @ form @ cp, compute_uv=False)[-1]))
            else:
                out.append((0.0, sigma, float("inf")))
    # (coupling, sigma_stratum, sigma_complement), each (m, F)
    return np.array(out).reshape(forms.shape[:2] + (3,)).transpose(2, 0, 1)


@pytest.mark.parametrize("case", ["cp2", "cp3", "su3_regular"])
def test_splitting_lifts_agree_with_lstsq(monkeypatch, request, case):
    setup = request.getfixturevalue(f"setup_{case}")
    data = _fresh(setup)
    coords = data.pad_coords(dr.sample_regular_coords(setup, data, 4, seed=2))
    w1, w2 = data.ambient.w1(coords), data.ambient.w2(coords)
    forms = np.stack([w1, w2, 0.3 * w1 + 0.7 * w2], axis=1)
    want = _lstsq_splitting(setup, data.ambient_chart, coords, forms)
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: pytest.fail("lstsq called"))
    got = dr.splitting_orthogonality(setup, data.ambient_chart, coords, forms)
    for array, ref in zip(got, want, strict=True):
        assert array.shape == (4, 3)
        assert np.allclose(array, ref, rtol=1e-12, atol=1e-12)


def test_a_bare_coordinate_row_is_refused(data_cp2):
    # Coordinates are (m, d) stacks only; a (d,) row raises InputError naming that shape.
    chart, (w1, _, p1, _) = data_cp2.ambient_chart, data_cp2.ambient
    row = np.zeros(chart.coord_dim)
    calls = [lambda: chart.point(row), lambda: chart.pushforward(row), lambda: w1(row), lambda: p1(row),
             lambda: oc.closedness_residual(w1, row), lambda: pp.jacobi_residual(p1, row),
             lambda: data_cp2.pad_coords(np.zeros(data_cp2.sub_chart.coord_dim))]
    for call in calls:
        with pytest.raises(InputError, match=r"expected an \(m, (d|\d+)\) stack"):
            call()


def test_subspace_functions_take_one_shape(su2):
    # span/kernel take one 2-d matrix, spans/kernels a (k, r, c) array, products a stack;
    # a record is a tuple, and a tuple is refused rather than read as a sequence
    mat = np.eye(3)[:, :2]
    not_one_matrix = (lc.Subspace(mat), su2, np.ones(3), np.ones((2, 3, 3)), [mat])
    for fn in (lc.span, lc.kernel):
        for bad in not_one_matrix:
            with pytest.raises(InputError, match="expected one 2-d matrix"):
                fn(bad)
    for fn in (lc.spans, lc.kernels):
        for bad in (mat, (mat, mat), [mat, np.ones(3)], [mat, mat]):
            with pytest.raises(InputError, match=r"expected a \(k, r, c\) stack"):
                fn(bad)
    with pytest.raises(InputError, match=r"expected a \(k, r, c\) stack"):
        lc.orthogonal_complements(lc.span(mat), np.eye(3))
