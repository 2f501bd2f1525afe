"""Fault x row audit of the check registry.

A row earns its place in the report only if some real fault in the
pipeline makes it fail.  Each fault below changes one site of the pipeline
(or, for ``seed_spectrum_nearly_degenerate``, the seed it runs on) by
monkeypatch, and ``run_pipeline`` runs every ``REGISTRY`` row on the
fault's configuration.  Each row runs on its own there, and a stage object
whose build raised fails the rows that read it, so each (fault, row) cell
is one of

    passes   the row's value is within its bound
    trips    the value crosses the bound
    errors   the row raised, itself or through a stage object it reads

``EXPECTED`` lists, per fault, the rows that do not pass; every other row
must pass.  ``UNTRIPPED`` gives the reason for each row that no fault
trips, in one of three kinds:

    guard echo       a construction guard with the same bound stops every
                     fault first (a configuration error, or an exception
                     that makes the row error);
    equivalent-only  every fault that leaves the guards quiet is an
                     equivalent mutant for this row;
    escape           a fault the row should catch goes unseen.

A new row needs an entry in one of the two tables.  Run with ``-s`` to
print the matrix.
"""

import functools
import pathlib

import numpy as np
import pytest

from orbitpencil import dirac_reduction as dr
from orbitpencil import families
from orbitpencil import lie_core as lc
from orbitpencil import orbit_charts as oc
from orbitpencil import workbench as wb

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
CP2, CP3, SU5 = "su3_projective_plane", "su4_projective_space", "su5_partial_flag"

PASSES, TRIPS, ERRORS = "passes", "trips", "errors"
GUARD_ECHO, EQUIVALENT, ESCAPE = "guard echo", "equivalent-only", "escape"


# ---------------------------------------------------------------------------
# Faults: each installs one change on a MonkeyPatch
# ---------------------------------------------------------------------------


def _turn(sub, toward, angle=0.3):
    """``sub`` with its first basis vector turned ``angle`` rad toward the unit vector ``toward``."""
    basis = np.array(sub.basis, copy=True)
    basis[:, 0] = np.cos(angle) * basis[:, 0] + np.sin(angle) * toward
    return lc.Subspace(basis)


def _after_guard(mp, edit):
    """Apply ``edit`` to the setup once ``reduction_setup`` has validated it."""
    build = dr.reduction_setup
    mp.setattr(dr, "reduction_setup", lambda *a, **k: edit(build(*a, **k)))


def _in_point_at(mp, conjugate):
    """Compute the conjugation of ``Chart._point_at``, and nothing else, with ``conjugate``."""
    point_at = oc.Chart._point_at

    def faulty(self, c):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(oc, "conjugate", conjugate)
            return point_at(self, c)

    mp.setattr(oc.Chart, "_point_at", faulty)


def _first_order(alg, xi, z):
    """(1 + ad xi) z in place of Ad(e^xi) z: the conjugation cut after its linear term."""
    return z + (lc._lincomb(xi, alg.ad_basis)[..., None, :, :] @ z[..., None])[..., 0]


def _scale_p1(mp, member):
    """Scale the inverse canonical form of ``data.<member>`` by 1 + 1e-3."""
    build = dr.restricted_pencil

    def faulty(*a, **k):
        data = build(*a, **k)
        p1 = getattr(data, member).p1
        scaled = oc.FormField(lambda c: (1.0 + 1e-3) * p1(c), p1.dim)
        return data._replace(**{member: getattr(data, member)._replace(p1=scaled)})

    mp.setattr(dr, "restricted_pencil", faulty)


def pushforward_column_scaled(mp):
    frame_at = oc.Chart._frame_at

    def faulty(self, c):
        blocks = frame_at(self, c)
        blocks[..., 0] *= 1.0 + 0.5 * c[:, 1, None, None]
        return blocks

    mp.setattr(oc.Chart, "_frame_at", faulty)


def dexp_phase_flipped(mp):
    def faulty(alg, xi, frame_matrices):
        w, u = np.linalg.eigh(1j * lc._lincomb(xi, alg.basis))
        theta = w[..., :, None] - w[..., None, :]
        phi = np.exp(-0.5j * theta) * np.sinc(theta / (2.0 * np.pi))
        u, uh = u[..., None, :, :], u.conj().mT[..., None, :, :]
        return alg.coefficients(u @ ((uh @ frame_matrices @ u) * phi[..., None, :, :]) @ uh)

    mp.setattr(oc, "dexp_apply", faulty)


def point_conjugation_transposed(mp):
    # Ad(e^xi)^T = Ad(e^-xi)
    conjugate = oc.conjugate
    _in_point_at(mp, lambda alg, xi, z: conjugate(alg, -xi, z))


def point_conjugation_first_order(mp):
    _in_point_at(mp, _first_order)


def orbit_pullback_scaled(mp):
    pullback = oc.orbit_form_pullback_matrix
    mp.setattr(oc, "orbit_form_pullback_matrix",
               lambda chart, c: (1.0 + 0.3 * np.asarray(c)[..., 0, None, None]) * pullback(chart, c))


def orbit_pullback_negated(mp):
    pullback = oc.orbit_form_pullback_matrix
    mp.setattr(oc, "orbit_form_pullback_matrix", lambda chart, c: -pullback(chart, c))


def orbit_pullback_zeroed(mp):
    # W2 = W1: one Poisson structure in place of a pencil, closed, nondegenerate and invariant
    pullback = oc.orbit_form_pullback_matrix
    mp.setattr(oc, "orbit_form_pullback_matrix", lambda chart, c: 0.0 * pullback(chart, c))


def canonical_form_from_x_rows(mp):
    # push[:n] where push[n:] belongs: A = Px^T Px is symmetric, so W = 0
    def faulty(chart, coords):
        push = chart.pushforward(coords)
        n = chart.config.alg.dim
        a = push[..., :n, :].mT @ push[..., :n, :]
        return a - a.mT

    mp.setattr(oc, "canonical_form_matrix", faulty)


def canonical_form_non_invariant_weight(mp):
    # theta = <v, D dx> with D = 1 + 0.1 e_0 e_0^T: closed and nondegenerate, not invariant
    canonical = oc.canonical_form_matrix

    def faulty(chart, coords):
        push = chart.pushforward(coords)
        n = chart.config.alg.dim
        extra = 0.1 * push[..., n, :, None] * push[..., 0, None, :]
        return canonical(chart, coords) + extra - extra.mT

    mp.setattr(oc, "canonical_form_matrix", faulty)


def shifted_step_sign_lost(mp):
    shifted = oc.shifted
    mp.setattr(oc, "shifted", lambda coords, index, step: shifted(coords, index, abs(step)))


def transversal_turned_into_normalizer(mp):
    _after_guard(mp, lambda s: s._replace(transversal=_turn(s.transversal, s.normalizer.basis[:, 0])))


def normalizer_missing_a_direction(mp):
    _after_guard(mp, lambda s: s._replace(normalizer=lc.Subspace(s.normalizer.basis[:, 1:])))


def slice_normal_turned(mp):
    _after_guard(mp, lambda s: s._replace(slice_normal=_turn(s.slice_normal, s.slice_space.basis[:, 0])))


def slice_space_turned(mp):
    # before the guard: the setup is built with the turned slice
    setup_type = dr.ReductionSetup

    def faulty(**fields):
        fields["slice_space"] = _turn(fields["slice_space"], fields["slice_normal"].basis[:, 0])
        return setup_type(**fields)

    mp.setattr(dr, "ReductionSetup", faulty)


def slice_space_widened_to_tangent(mp):
    _after_guard(mp, lambda s: s._replace(slice_space=s.config.tangent))


def slice_steps_first_order(mp):
    mp.setattr(dr, "conjugate", _first_order)


def isotropy_missing_a_direction(mp):
    _after_guard(mp, lambda s: s._replace(isotropy=lc.Subspace(s.isotropy.basis[:, 1:])))


def centralizer_missing_a_direction(mp):
    _after_guard(mp, lambda s: s._replace(centralizer=lc.Subspace(s.centralizer.basis[:, 1:])))


def center_missing_a_direction(mp):
    _after_guard(mp, lambda s: s._replace(center=lc.Subspace(s.center.basis[:, 1:])))


def ambient_p1_scaled(mp):
    _scale_p1(mp, "ambient")


def restricted_p1_scaled(mp):
    _scale_p1(mp, "restricted")


def trace_word_reads_one_entry(mp):
    # Re M[0, 0] in place of Re tr(M); the exact gradient is left alone
    build = dr.invariant_function

    def faulty(alg, word):
        fn = build(alg, word)

        def entry(points):
            xv = oc._lincomb(points, alg.basis)
            mats = {"x": xv[..., 0, :, :], "v": xv[..., 1, :, :]}
            values = np.real(functools.reduce(np.matmul, [mats[s] for s in fn.word])[..., 0, 0])
            return values if values.ndim else float(values)

        entry.word, entry.gradient = fn.word, fn.gradient
        return entry

    mp.setattr(dr, "invariant_function", faulty)


def seed_spectrum_nearly_degenerate(mp):
    # two spectrum entries 5e-8 apart: ad(seed) has singular values 5e-8, which the stabilizer, its
    # numerical kernel, takes in; those directions move the seed by 5e-8
    mp.setattr(wb, "build_seed", lambda cfg, alg: families.diagonal_seed(alg, [100, 100.00000005, -200]))


# name -> (configuration, installer)
FAULTS = {
    "pushforward_column_scaled": (CP2, pushforward_column_scaled),
    "dexp_phase_flipped": (CP2, dexp_phase_flipped),
    "point_conjugation_transposed": (CP2, point_conjugation_transposed),
    "point_conjugation_first_order": (CP2, point_conjugation_first_order),
    "orbit_pullback_scaled": (CP2, orbit_pullback_scaled),
    "orbit_pullback_negated": (CP2, orbit_pullback_negated),
    "orbit_pullback_zeroed": (CP2, orbit_pullback_zeroed),
    "canonical_form_from_x_rows": (CP2, canonical_form_from_x_rows),
    "canonical_form_non_invariant_weight": (CP2, canonical_form_non_invariant_weight),
    "shifted_step_sign_lost": (CP2, shifted_step_sign_lost),
    "transversal_turned_into_normalizer": (CP3, transversal_turned_into_normalizer),
    "normalizer_missing_a_direction": (CP2, normalizer_missing_a_direction),
    "slice_normal_turned": (CP2, slice_normal_turned),
    "slice_space_turned": (CP3, slice_space_turned),
    "slice_space_widened_to_tangent": (CP2, slice_space_widened_to_tangent),
    "slice_steps_first_order": (CP2, slice_steps_first_order),
    "isotropy_missing_a_direction": (CP3, isotropy_missing_a_direction),
    "centralizer_missing_a_direction": (CP2, centralizer_missing_a_direction),
    "center_missing_a_direction": (CP2, center_missing_a_direction),
    "ambient_p1_scaled": (CP2, ambient_p1_scaled),
    "restricted_p1_scaled": (CP3, restricted_p1_scaled),
    "restricted_p1_scaled_su5": (SU5, restricted_p1_scaled),
    "trace_word_reads_one_entry": (CP2, trace_word_reads_one_entry),
    "seed_spectrum_nearly_degenerate": (CP2, seed_spectrum_nearly_degenerate),
}


# ---------------------------------------------------------------------------
# Expected matrix
# ---------------------------------------------------------------------------

_CHART_ROWS = {
    "chart_exactness": TRIPS,
    "canonical_closedness": TRIPS,
    "combined_closedness": TRIPS,
    "pencil_jacobi_combined": TRIPS,
    "pencil_compatibility": TRIPS,
    "restricted_closedness": TRIPS,
    "restricted_compatibility": TRIPS,
}

_ORBIT_FORM_ROWS = {
    "combined_closedness": TRIPS,
    "pencil_jacobi_combined": TRIPS,
    "pencil_compatibility": TRIPS,
}

# Every row but orbit_splitting reads the setup: a setup the guard refuses (SetupError) errors them all.
_SETUP_REFUSED = {spec.name: ERRORS for spec in wb.REGISTRY if spec.name != "orbit_splitting"}

# The rows that read the orbit and the setup alone, not the pencil data or a coordinate stack.
_SETUP_READERS = {"orbit_splitting", "control_zero_section_isotropy", "transversality", "control_zero_section_transversality",
                  "slice_isometry"}

# fault -> {row: outcome} for every row that does not pass
EXPECTED = {
    "pushforward_column_scaled": _CHART_ROWS,
    "dexp_phase_flipped": _CHART_ROWS,
    # both forms read the frame blocks and no chart point, so every form row passes; the splitting reads
    # the stratum from the exact pushforward, so it passes too
    "point_conjugation_transposed": {"chart_exactness": TRIPS},
    "point_conjugation_first_order": {"chart_exactness": TRIPS, "spectrum_preservation": TRIPS},
    "orbit_pullback_scaled": _ORBIT_FORM_ROWS,
    # -omega_KKS is closed and invariant too: an equivalent mutant
    "orbit_pullback_negated": {},
    # every form row still passes; N = P1 W2 - I is rounding alone, and |N^2| / |N|^2 reads 0.71 and 1.0
    "orbit_pullback_zeroed": {"pencil_nilpotency": TRIPS, "restricted_pencil_nilpotency": TRIPS},
    "canonical_form_from_x_rows": {
        "canonical_nondegeneracy": TRIPS,
        "combined_nondegeneracy": TRIPS,
        "pencil_jacobi_combined": ERRORS,
        "pencil_compatibility": ERRORS,
        "control_corrupted_jacobi": ERRORS,
        "splitting_nondegeneracy": TRIPS,
        "restricted_nondegeneracy": TRIPS,
        "restricted_compatibility": ERRORS,
        "bracket_agreement": ERRORS,
        "pencil_nilpotency": ERRORS,
        "restricted_pencil_nilpotency": ERRORS,
    },
    "canonical_form_non_invariant_weight": {
        "form_invariance": TRIPS,
        "splitting_pairing": TRIPS,
    },
    "shifted_step_sign_lost": {
        "chart_exactness": TRIPS,
        "control_corrupted_closedness": TRIPS,
        "control_corrupted_jacobi": TRIPS,
    },
    "transversal_turned_into_normalizer": {
        "splitting_pairing": TRIPS,
        "action_complement_independence": TRIPS,
    },
    "normalizer_missing_a_direction": {"action_complement_independence": TRIPS},
    "slice_normal_turned": {"slice_isometry": ERRORS},
    "slice_space_turned": _SETUP_REFUSED,
    "slice_space_widened_to_tangent": {"transversality": TRIPS, "control_zero_section_transversality": TRIPS},
    "slice_steps_first_order": {"slice_isometry": TRIPS},
    # the guard passes, but the pencil data cannot be built at a base point the short isotropy leaves
    # irregular (DomainError), so every row that reads it errors
    "isotropy_missing_a_direction": {
        **{spec.name: ERRORS for spec in wb.REGISTRY if spec.name not in _SETUP_READERS},
        "transversality": TRIPS,
    },
    "centralizer_missing_a_direction": {"control_zero_section_isotropy": TRIPS},
    "center_missing_a_direction": {"local_freeness": TRIPS},
    "ambient_p1_scaled": {"pencil_nilpotency": TRIPS},
    # CP^3 is a symmetric space, where invariant functions Poisson-commute: both bracket matrices read
    # ~1e-15 and bracket_agreement misses the fault; the su(5) partial flag is not symmetric
    "restricted_p1_scaled": {"restricted_pencil_nilpotency": TRIPS},
    "restricted_p1_scaled_su5": {"bracket_agreement": TRIPS, "restricted_pencil_nilpotency": TRIPS},
    "trace_word_reads_one_entry": {"invariant_function_invariance": TRIPS},
    # [k_j, a] reads 5.0e-8 > 1e-8; the setup guard refuses orbit_seed_in_centralizer (3.5e-8 > 1e-10)
    "seed_spectrum_nearly_degenerate": {**_SETUP_REFUSED, "orbit_splitting": TRIPS},
}

# row -> (kind, reason) for every row that no fault trips
UNTRIPPED = {}


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def _column(config, install):
    """{row: outcome} over the rows of the report on the fault's configuration."""
    cfg = wb.load_config(CONFIGS / f"{config}.json")
    with pytest.MonkeyPatch.context() as mp:
        install(mp)
        report = wb.run_pipeline(cfg)
    column = {row.name: PASSES if row.passed else TRIPS for row in report.checks + report.negative_controls}
    return {**column, **{error["check"]: ERRORS for error in report.errors}}


def _render(matrix) -> str:
    marks = {PASSES: ".", TRIPS: "T", ERRORS: "E"}
    names = list(matrix)
    width = max(len(spec.name) for spec in wb.REGISTRY)
    lines = [f"{i:3d} {name} ({FAULTS[name][0]})" for i, name in enumerate(names)]
    lines.append(" " * width + " " + "".join(f"{i % 10}" for i in range(len(names))))
    for spec in wb.REGISTRY:
        cells = [marks[col[spec.name]] for col in matrix.values()]
        lines.append(f"{spec.name:{width}s} " + "".join(cells))
    lines.append(". passes  T trips  E errors")
    return "\n".join(lines)


def test_fault_row_matrix():
    matrix = {name: _column(config, install) for name, (config, install) in FAULTS.items()}
    assert all(sorted(column) == sorted(spec.name for spec in wb.REGISTRY) for column in matrix.values())
    print("\n" + _render(matrix))
    observed = {name: {row: o for row, o in column.items() if o != PASSES} for name, column in matrix.items()}
    assert observed == EXPECTED


def test_every_row_is_tripped_or_explained():
    names = {spec.name for spec in wb.REGISTRY}
    tripped = {row for column in EXPECTED.values() for row, outcome in column.items() if outcome == TRIPS}
    assert set(EXPECTED) == set(FAULTS)
    assert tripped <= names
    assert set(UNTRIPPED) == names - tripped
    assert {kind for kind, _ in UNTRIPPED.values()} <= {GUARD_ECHO, EQUIVALENT, ESCAPE}
