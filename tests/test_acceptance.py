"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.  Tolerances are pinned here and nowhere else.
"""

import itertools
import json

import numpy as np
import pytest

from orbitpencil import dirac_reduction as dr
from orbitpencil import families
from orbitpencil import lie_core as lc
from orbitpencil import orbit_charts as oc
from orbitpencil import poisson_pencil as pp
from orbitpencil import workbench as wb
from orbitpencil.cli import main as cli_main
from orbitpencil.seeding import uniform_rows, unit_rows


def verdict(number, label, ok, detail):
    line = f"[criterion {number:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def triple(setup_su2, setup_cp2, setup_su3_regular, data_su2, data_cp2, data_su3_regular):
    return {
        "su(2) sphere": (setup_su2, data_su2),
        "su(3) projective plane": (setup_cp2, data_cp2),
        "su(3) regular": (setup_su3_regular, data_su3_regular),
    }


@pytest.fixture(scope="module")
def sample_points(triple):
    out = {}
    for name, (setup, data) in triple.items():
        chart = data.ambient_chart
        out[name] = uniform_rows(2024, f"acceptance:{name}", range(10), chart.coord_dim, 0.1)[:, None]
    return out


def test_criterion_01_ambient_symplectic(triple, sample_points):
    worst_closed = 0.0
    worst_sigma = np.inf
    for name, (setup, data) in triple.items():
        w1, w2, _, _ = data.ambient
        for coords in sample_points[name]:
            for form in (w1, w2):
                worst_closed = max(worst_closed, oc.closedness_residual(form, coords))
                worst_sigma = min(worst_sigma, np.linalg.svd(form(coords)[0], compute_uv=False)[-1])
    ok = worst_closed <= 1e-5 and worst_sigma > 1e-6
    verdict(1, "ambient forms closed and nondegenerate",
            ok, f"max closedness {worst_closed:.2e} <= 1e-5, min sigma {worst_sigma:.2e} > 1e-6")


def test_criterion_02_pencil_compatibility(triple, sample_points):
    worst = 0.0
    for name, (setup, data) in triple.items():
        _, _, p1, p2 = data.ambient
        for coords in sample_points[name]:
            worst = max(
                worst,
                pp.jacobi_residual(p1, coords),
                pp.jacobi_residual(p2, coords),
                pp.compatibility_residual(p1, p2, coords),
            )
    # quadratic homogeneity meta-check on a field away from the cancellation
    # floor: scaling the bivector scales the residual by the square
    _, _, p1, p2 = triple["su(3) projective plane"][1].ambient
    coords = sample_points["su(3) projective plane"][0]

    def corrupted(c):
        mat = np.array(p1(c), copy=True)
        mat[..., 0, 1] += c[..., 2] * c[..., 3]
        mat[..., 1, 0] -= c[..., 2] * c[..., 3]
        return mat

    bad = oc.FormField(corrupted, p1.dim)
    ref = pp.jacobi_residual(bad, coords)
    homog = 0.0
    for lam in (2.0, 10.0):
        scaled = oc.FormField(lambda c, s=lam: s * bad(c), bad.dim)
        homog = max(homog, abs(pp.jacobi_residual(scaled, coords) - lam ** 2 * ref) / (lam ** 2 * ref))
    ok = worst <= 1e-5 and homog <= 1e-6
    verdict(2, "pencil members satisfy the Jacobi identity",
            ok, f"max residual {worst:.2e} <= 1e-5, homogeneity error {homog:.2e} <= 1e-6")


def test_criterion_03_degeneracy_locus(triple, sample_points):
    # N = W1^-1 (W2 - W1), read as P1 W2 - I: N^2 = 0 and rank N = dim O make t1 P1 + t2 P2
    # = ((t1 + t2) I + t1 N) P2 degenerate exactly on t1 + t2 = 0, with corank dim O there
    worst_square = 0.0
    worst_rank = 0
    for name, (setup, data) in triple.items():
        sub_coords = uniform_rows(2024, f"acceptance-sub:{name}", range(10), data.sub_chart.coord_dim, 0.1)
        charts = [
            (data.ambient, sample_points[name][:, 0], setup.config.tangent.dim),
            (data.restricted, sub_coords, setup.sub_tangent.dim),
        ]
        for pencil, coords, orbit_dim in charts:
            n = pencil.p1(coords) @ pencil.w2(coords) - np.eye(pencil.w2.dim)
            square = np.linalg.norm(n @ n, axis=(-2, -1)) / np.linalg.norm(n, axis=(-2, -1)) ** 2
            sigma = np.linalg.svd(n, compute_uv=False)
            rank = np.sum(sigma > 1e-8 * sigma[:, :1], axis=1)
            worst_square = max(worst_square, float(np.max(square)))
            worst_rank = max(worst_rank, int(np.max(np.abs(rank - orbit_dim))))
    ok = worst_square <= 1e-12 and worst_rank == 0
    verdict(3, "the recursion operator N is nilpotent of rank dim O",
            ok, f"max |N^2| / |N|^2 {worst_square:.2e} <= 1e-12, max rank error {worst_rank} == 0")


def test_criterion_04_restricted_pencil(setup_cp2, data_cp2, regular_coords_cp2):
    assert setup_cp2.isotropy.dim == 1  # nontrivial reduction
    worst_closed = 0.0
    worst_sigma = np.inf
    worst_jacobi = 0.0
    for coords in regular_coords_cp2[:, None]:
        for form in (data_cp2.restricted.w1, data_cp2.restricted.w2):
            worst_closed = max(worst_closed, oc.closedness_residual(form, coords))
            worst_sigma = min(worst_sigma, np.linalg.svd(form(coords)[0], compute_uv=False)[-1])
        worst_jacobi = max(worst_jacobi, pp.compatibility_residual(
            data_cp2.restricted.p1, data_cp2.restricted.p2, coords))
    ok = worst_closed <= 1e-5 and worst_sigma > 1e-6 and worst_jacobi <= 1e-5
    verdict(4, "restricted pair stays a compatible symplectic pencil",
            ok, f"closedness {worst_closed:.2e}, min sigma {worst_sigma:.2e}, sum-Jacobi {worst_jacobi:.2e}")


def test_criterion_05_bracket_agreement(setup_cp2, data_cp2, regular_coords_cp2):
    words = [("v", "v"), ("x", "x", "v", "v"), ("x", "v", "x", "v"), ("v", "v", "v", "v")]
    fns = [dr.invariant_function(setup_cp2.alg, w) for w in words]
    params = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, 0.7)]
    pairs = list(itertools.combinations(fns, 2))
    assert len(pairs) >= 6
    worst = 0.0
    for t in params:
        for coords in regular_coords_cp2[:5, None]:
            # relative residual is the max over every pair i < j of fns
            ambient, restricted = dr.bracket_agreement(setup_cp2, data_cp2, fns, coords, [t])
            worst = max(worst, dr.relative_bracket_residual(ambient, restricted))
    ok = worst <= 1e-5
    verdict(5, "ambient and restricted brackets agree on invariant functions",
            ok, f"max relative residual {worst:.2e} <= 1e-5 over {len(pairs)} pairs x 4 parameters x 5 points")


def test_criterion_06_splitting_orthogonality(setup_cp2, data_cp2, regular_coords_cp2):
    w1, w2, _, _ = data_cp2.ambient
    members = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, 0.7), (2.0, -1.0)]
    worst_pair = 0.0
    worst_sigma = np.inf
    for coords in regular_coords_cp2[:, None]:
        padded = data_cp2.pad_coords(coords)
        m1, m2 = w1(padded), w2(padded)
        forms = np.stack([t1 * m1 + t2 * m2 for t1, t2 in members], axis=1)
        pairing, sigma_stratum, sigma_complement = dr.splitting_orthogonality(
            setup_cp2, data_cp2.ambient_chart, padded, forms)
        worst_pair = max(worst_pair, np.max(pairing))
        worst_sigma = min(worst_sigma, np.min(sigma_complement), np.min(sigma_stratum))
    ok = worst_pair <= 1e-8 and worst_sigma > 1e-6
    verdict(6, "every invariant form splits the regular stratum orthogonally",
            ok, f"max pairing {worst_pair:.2e} <= 1e-8, min block sigma {worst_sigma:.2e} > 1e-6")


def test_criterion_08_complement_independence(su2, setup_cp2, so4, pauli_elements):
    from test_lie_core import complement_motion
    subjects = [
        (su2, lc.span(pauli_elements[2][:, None])),
        (setup_cp2.alg, setup_cp2.isotropy),
    ]
    worst_paired = 0.0
    for alg, sub in subjects:
        paired = lc.complement_independence(alg, sub, lc.normalizer(alg, sub), lc.invariant_product_space(alg, sub),
                                            seed=5, trials=20)
        worst_paired = max(worst_paired, paired)
    # witness configuration: a nonabelian subalgebra whose adjoint-type
    # representation also occurs in its complement, so the complements move
    gens = families.so_generators(4)
    order = [i for i, (a, b) in enumerate(
        [(i, j) for i in range(4) for j in range(i + 1, 4)]) if (a, b) in [(0, 1), (0, 2), (1, 2)]]
    block = lc.span(np.column_stack([so4.element_from_matrix(gens[i]) for i in order]))
    paired = lc.complement_independence(so4, block, lc.normalizer(so4, block),
                                        lc.invariant_product_space(so4, block), seed=3, trials=20)
    worst_paired = max(worst_paired, paired)
    motion = complement_motion(so4, block, seed=3, trials=20)
    ok = worst_paired <= 1e-8 and motion > 1e-3
    verdict(8, "complement plus subalgebra is independent of the invariant product",
            ok, f"max paired distance {worst_paired:.2e} <= 1e-8 over 20-trial runs, "
                f"witness complements move by {motion:.2e} > 1e-3")


def test_criterion_09_slice_identities(triple, setup_cp2, data_cp2):
    worst_commute = 0.0
    for name, (setup, data) in triple.items():
        alg = setup.alg
        for i in range(setup.slice_space.dim):
            for j in range(setup.isotropy.dim):
                worst_commute = max(worst_commute, float(np.linalg.norm(
                    alg.bracket(setup.slice_space.basis[:, i], setup.isotropy.basis[:, j]))))
    config = setup_cp2.config
    moved = lc.span(setup_cp2.alg.ad(setup_cp2.x0) @ config.stabilizer.basis)
    worst_res = 0.0
    worst_iters = 0
    for y in unit_rows(2024, "acceptance-slice", range(50), config.tangent.dim) @ config.tangent.basis.T:
        [z], iterations = dr.slice_normal_form(setup_cp2, y[None], max_iter=200, tol=1e-8)
        worst_res = max(worst_res, float(np.linalg.norm(moved.basis.T @ z)))
        worst_iters = max(worst_iters, iterations)
    deficiency = 0
    for name, (setup, data) in triple.items():
        point = np.stack([setup.config.seed, setup.x0])[None]
        deficiency = max(deficiency, dr.transversality_deficiency(setup, point))
    zero = np.stack([setup_cp2.config.seed, np.zeros(setup_cp2.alg.dim)])[None]
    zero_deficiency = dr.transversality_deficiency(setup_cp2, zero)
    ok = (worst_commute <= 1e-10 and worst_res <= 1e-8 and worst_iters <= 200
          and deficiency == 0 and zero_deficiency > 0)
    verdict(9, "slice commutes, normalises, and spans transversally",
            ok, f"slice-isotropy bracket {worst_commute:.2e} <= 1e-10, "
                f"50 normalisations residual {worst_res:.2e} in <= {worst_iters} iterations, "
                f"deficiency {deficiency} with zero-section control {zero_deficiency}")


def test_criterion_10_local_freeness(triple):
    worst = 0
    for name, (setup, data) in triple.items():
        coords_list = dr.sample_regular_coords(setup, data, 10, seed=2024, stage=f"freeness:{name}")
        worst = max(worst, dr.isotropy_excess(setup, data.sub_chart.point(coords_list)))
    ok = worst == 0
    verdict(10, "centralizer action is locally free at regular points",
            ok, f"max isotropy excess over the center {worst} == 0 at 10 points per configuration")


def test_criterion_11_determinism(tmp_path):
    cfg_dict = {
        "algebra": {"family": "su", "n": 2},
        "seed_element": {"diag_spectrum": [1, -1]},
        "samples": 8,
        "seed": 7,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_dict))
    out_path = tmp_path / "report.json"
    code = cli_main(["verify", "--config", str(cfg_path), "--out", str(out_path)])
    runs = [
        wb.run_pipeline(wb.config_from_dict(cfg_dict)).to_json(),
        wb.run_pipeline(wb.config_from_dict(cfg_dict)).to_json(),
        out_path.read_text(encoding="utf-8"),
    ]
    identical = runs[0] == runs[1] == runs[2]
    passes = json.loads(runs[0])["verdict"] == "pass" and code == 0
    ok = identical and passes
    verdict(11, "reports are byte-identical across reruns, in process and through the CLI",
            ok, f"3 runs, identical={identical}, verdict pass={passes}")
