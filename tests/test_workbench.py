import gc
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from orbitpencil import families
from orbitpencil import orbit_charts as oc
from orbitpencil import workbench as wb
from orbitpencil.cli import main as cli_main
from orbitpencil.errors import ConfigError


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SU2_CONFIG = {
    "algebra": {"family": "su", "n": 2},
    "seed_element": {"diag_spectrum": [1, -1]},
    "samples": 8,
    "seed": 0,
}

# The su(2) basis as a custom algebra, under a name that would read as so(n)
SU2_CUSTOM = {"custom": [wb.encode_complex_matrix(m) for m in families.su_generators(2)], "name": "so-named-su2"}

# Every report of a full run carries every registry row: the checks, then the controls.
ALL_ROWS = [spec.name for kind in ("check", "control") for spec in wb.REGISTRY if spec.kind == kind]


@pytest.fixture(scope="module")
def su2_report():
    cfg = wb.config_from_dict(SU2_CONFIG)
    return wb.run_pipeline(cfg)


# ---------------------------------------------------------------------------
# Configuration loading and validation
# ---------------------------------------------------------------------------


def test_load_valid_config(tmp_path):
    path = write_config(tmp_path, {"algebra": {"family": "su", "n": 2},
                                   "seed_element": {"diag_spectrum": [1, -1]}})
    cfg = wb.load_config(path)
    assert wb.build_algebra(cfg).dim == 3
    assert cfg.samples == 10 and cfg.seed == 0 and cfg.checks == "all"


def test_cp2_spectrum_is_centered_and_valid(tmp_path):
    path = write_config(tmp_path, {"algebra": {"family": "su", "n": 3},
                                   "seed_element": {"diag_spectrum": [2, -1, -1]}})
    cfg = wb.load_config(path)
    alg = wb.build_algebra(cfg)
    seed = wb.build_seed(cfg, alg)
    mat = alg.matrix_of(seed)
    assert abs(np.trace(mat)) <= 1e-12
    assert oc.orbit_config(alg, seed).stabilizer.dim == 4


@pytest.mark.parametrize(
    "mutation",
    [
        {"fd_step": 1e-4},
        {"seed_element": {"diag_spectrum": []}},
        {"samples": 4},
        {"algebra": {"family": "su", "n": 9}},
        {"algebra": {"family": "sp", "n": 2}},
        {"algebra": {}},
        {"seed_element": {}},
        {"seed_element": {"diag_spectrum": [1, 1]}},
        {"t_samples": [[1, 0]]},
        {"algebra": {"custom": []}},
        {"checks": ["no_such_check"]},
        {"tolerances": {}},
        {"bogus_field": 1},
        {"algebra": SU2_CUSTOM},  # diag_spectrum needs a built-in family, whatever the custom name
        {"algebra": {"family": ["su"], "n": 3}},  # an unhashable family is unknown, not a TypeError
        {"algebra": {"family": {"x": 1}, "n": 3}},
        # more than MAX_SAMPLES, which bounds a run's memory
        {"samples": 401},
        {"samples": 10**8},
    ],
)
def test_invalid_configs_rejected(tmp_path, capsys, mutation):
    # fd_step, tolerances and t_samples are not fields: a config carrying one is refused like any unknown field
    payload = dict(SU2_CONFIG, **mutation)
    with pytest.raises(ConfigError) as refused:
        wb.config_from_dict(payload)
    if set(mutation) - set(wb._FIELD_PARSERS):
        assert "unknown configuration fields" in str(refused.value)
    assert cli_main(["verify", "--config", write_config(tmp_path, payload)]) == 2
    assert f"configuration error: {refused.value}" in capsys.readouterr().err


def test_config_fields_are_one_list():
    # the record and the parsers name the same fields, in the same order; the report echoes the record's
    assert list(wb._FIELD_PARSERS) == list(wb.WorkbenchConfig._fields)


def test_the_largest_samples_value_runs():
    # samples is bounded by MAX_SAMPLES, and su(2) draws that many regular points
    report = wb.run_pipeline(wb.config_from_dict(dict(SU2_CONFIG, samples=wb.MAX_SAMPLES)))
    assert report.config["samples"] == 400
    assert report.verdict == "pass" and not report.errors


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        wb.load_config(str(path))
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ConfigError):
        wb.load_config(str(path))


def test_custom_algebra_roundtrip():
    mats = families.su_generators(2)
    payload = {
        "algebra": {"custom": [wb.encode_complex_matrix(m) for m in mats], "name": "custom-su2"},
        "seed_element": {"coeffs": [0.0, 0.0, 1.0]},
    }
    cfg = wb.config_from_dict(payload)
    alg = wb.build_algebra(cfg)
    assert alg.dim == 3 and alg.name == "custom-su2"


def test_custom_algebra_bad_entries_rejected(tmp_path, capsys):
    # each entry must be an [re, im] pair of numbers: a bare number, a third number (which would be
    # dropped) and bools (which would read as 0 and 1) are refused, not cut or parsed; so are ragged
    # rows and matrices of unequal size, which no stack holds
    su2 = [wb.encode_complex_matrix(m) for m in families.su_generators(2)]
    customs = [[[[1.0, 2.0]]], [[[[0, 0], [1, 0]], [[-1, 0]]]],
               [[[[0, 1]]], [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]]]]
    for entry in ([0.0, 1.0, 7.0], [False, True]):
        customs.append(json.loads(json.dumps(su2)))
        customs[-1][0][0][0] = entry
    for custom in customs:
        payload = {"algebra": {"custom": custom}, "seed_element": {"coeffs": [1.0] * len(custom)}}
        with pytest.raises(ConfigError):
            wb.build_algebra(wb.config_from_dict(payload))
        assert cli_main(["verify", "--config", write_config(tmp_path, payload)]) == 2
        assert "configuration error: custom matri" in capsys.readouterr().err


def test_custom_basis_that_does_not_close_exits_2(tmp_path, capsys):
    # [B_0, B_1] is the third su(2) generator, outside the span of the first two; the build guard
    # is the one certificate of closure, so the run stops before any row
    payload = {"algebra": {"custom": [wb.encode_complex_matrix(m) for m in families.su_generators(2)[:2]]},
               "seed_element": {"coeffs": [1.0, 0.0]}}
    out_path = tmp_path / "report.json"
    assert cli_main(["verify", "--config", write_config(tmp_path, payload), "--out", str(out_path)]) == 2
    assert "configuration error: custom basis rejected: matrix brackets leave the basis span" in capsys.readouterr().err
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# Pipeline and report
# ---------------------------------------------------------------------------


def test_su2_pipeline_passes(su2_report):
    assert su2_report.verdict == "pass"
    assert su2_report.reduction == "trivial"
    assert su2_report.dims["k"] == 1 and su2_report.dims["m"] == 2 and su2_report.dims["h"] == 0
    # structural identities of the dims table
    n = 3
    assert su2_report.dims["k"] + su2_report.dims["m"] == n
    assert su2_report.dims["p"] + su2_report.dims["n(h)"] == n
    # controls are reported as expected-fail and do not spoil the verdict
    assert all(row.passed for row in su2_report.negative_controls)
    rows = su2_report.checks + su2_report.negative_controls
    names = [row.name for row in rows]
    assert len(names) == len(set(names))  # every enabled check appears exactly once
    assert "bracket_agreement" in names and "pencil_nilpotency" in names


def test_report_rows_have_anchors_and_full_precision(su2_report):
    payload = json.loads(su2_report.to_json())
    for row in payload["checks"] + payload["negative_controls"]:
        assert row["anchor"]
        assert isinstance(row["residual"], float)
        # shortest-roundtrip serialisation: parsing the emitted text gives
        # back the identical float
        assert json.loads(json.dumps(row["residual"])) == row["residual"]


def test_report_roundtrip_and_formats(tmp_path, su2_report):
    json_path = tmp_path / "report.json"
    wb.emit_report(su2_report, json_path, fmt="json")
    loaded = json.loads(json_path.read_text(encoding="utf-8"))
    assert loaded == su2_report.to_dict()
    text_path = tmp_path / "report.txt"
    wb.emit_report(su2_report, text_path, fmt="text")
    text = text_path.read_text()
    assert "verdict: pass" in text
    assert "timing (ms):" in text  # timing lives in the text rendering only
    assert "timing" not in json.loads(json_path.read_text())
    with pytest.raises(ConfigError):
        wb.emit_report(su2_report, tmp_path / "x", fmt="yaml")


def test_check_subset_selection():
    cfg = wb.config_from_dict(dict(SU2_CONFIG, checks=["orbit_splitting", "slice_isometry"]))
    report = wb.run_pipeline(cfg)
    assert [row.name for row in report.checks] == ["orbit_splitting", "slice_isometry"]
    assert report.negative_controls == []
    assert report.verdict == "pass"


def test_a_row_that_raises_reports_its_exception(monkeypatch, tmp_path):
    # a vanishing canonical form is singular: inverting it raises inside the pencil row, and the rows
    # on either side of it still run
    monkeypatch.setattr(oc, "canonical_form_matrix",
                        lambda chart, coords: np.zeros((len(coords), chart.coord_dim, chart.coord_dim)))
    checks = ["canonical_closedness", "pencil_compatibility", "local_freeness"]
    cfg_path = write_config(tmp_path, dict(SU2_CONFIG, checks=checks))
    out_path = tmp_path / "report.json"
    assert cli_main(["verify", "--config", cfg_path, "--out", str(out_path)]) == 1
    report = json.loads(out_path.read_text())
    assert [row["name"] for row in report["checks"]] == ["canonical_closedness", "local_freeness"]
    assert report["verdict"] == "fail"
    error, = report["errors"]
    assert error == {"stage": "pencil", "check": "pencil_compatibility", "type": "DegeneracyError",
                     "message": error["message"]}
    assert error["message"].startswith("form matrix is singular")


def test_a_setup_that_raises_reports_its_exception(monkeypatch):
    # no regular coordinates are drawn: the rows that read them error with the sampler's exception,
    # the others run on the stage objects built before it, and nothing is rebuilt
    from orbitpencil import dirac_reduction as dr
    from orbitpencil.errors import GenericityError

    def exhausted(*args, **kwargs):
        raise GenericityError("no regular point drawn")

    monkeypatch.setattr(dr, "sample_regular_coords", exhausted)
    setups = _counting(monkeypatch, dr, "reduction_setup")
    report = wb.run_pipeline(wb.config_from_dict(SU2_CONFIG))
    assert len(setups) == 1
    assert report.verdict == "fail" and report.reduction == "trivial" and report.dims["h"] == 0
    readers = {"splitting_pairing", "splitting_nondegeneracy", "action_complement_independence",
               "restricted_closedness", "restricted_nondegeneracy", "restricted_compatibility",
               "invariant_function_invariance", "bracket_agreement", "local_freeness",
               "restricted_pencil_nilpotency"}
    assert [e["check"] for e in report.errors] == [spec.name for spec in wb.REGISTRY if spec.name in readers]
    assert {(e["type"], e["message"]) for e in report.errors} == {("GenericityError", "no regular point drawn")}
    assert "error in bracket_agreement (stage brackets): GenericityError: no regular point drawn" in report.to_text()
    ran = [row.name for row in report.checks + report.negative_controls]
    assert sorted(ran) == sorted(set(ALL_ROWS) - readers)
    assert all(row.passed for row in report.checks + report.negative_controls)


def _canonical_form_scaled(monkeypatch):
    """Scale the canonical 2-form by 1e-9, so that canonical_nondegeneracy reads below its bound."""
    form = oc.canonical_form_matrix
    monkeypatch.setattr(oc, "canonical_form_matrix", lambda chart, coords: 1e-9 * form(chart, coords))


def test_a_row_beyond_its_bound_fails_the_run(monkeypatch):
    _canonical_form_scaled(monkeypatch)
    report = wb.run_pipeline(wb.config_from_dict(dict(SU2_CONFIG, checks=["canonical_nondegeneracy"])))
    row, = report.checks
    assert not report.errors and row.residual < row.tolerance and not row.passed
    assert report.verdict == "fail"


def test_nilpotency_row_reads_zero_for_a_pencil_and_inf_for_one_structure():
    # W1 = J, whose inverse -J is exact, and W2 = J + c B with B pairing the first two coordinates:
    # N = -c J B squares to exactly zero for c != 0, and is exactly zero at c = 0, where P1 = P2
    from orbitpencil import dirac_reduction as dr
    from orbitpencil import poisson_pencil as pp

    j = np.zeros((4, 4))
    j[:2, 2:], j[2:, :2] = np.eye(2), -np.eye(2)
    b = np.zeros((4, 4))
    b[0, 1], b[1, 0] = 1.0, -1.0
    w1 = oc.FormField(lambda c: np.broadcast_to(j, (len(c), 4, 4)), 4)
    w2 = oc.FormField(lambda c: j + c[:, 0, None, None] * b, 4)
    pencil = dr.ChartPencil(w1, w2, pp.invert_form(w1), pp.invert_form(w2))

    def row(first_coords):
        coords = np.zeros((len(first_coords), 4))
        coords[:, 0] = first_coords
        return wb._finite(wb._nilpotency(lambda ctx: (pencil, coords))(None))

    assert row([1.0, 2.0]) == 0.0
    assert row([1.0, 0.0]) == 1e300  # the zero N reads inf, not 0 / 0, and the report clamps it


def test_cp2_pipeline_full_run_pin():
    cfg = wb.config_from_dict({
        "algebra": {"family": "su", "n": 3},
        "seed_element": {"diag_spectrum": [2, -1, -1]},
        "samples": 8,
        "seed": 0,
    })
    report = wb.run_pipeline(cfg)
    assert report.verdict == "pass"
    assert report.reduction == "nontrivial"
    assert report.dims["h"] == 1
    assert [row.name for row in report.checks + report.negative_controls] == ALL_ROWS


def test_cli_seed_override(tmp_path):
    cfg_path = write_config(tmp_path, SU2_CONFIG)
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    assert cli_main(["verify", "--config", cfg_path, "--seed", "5",
                     "--checks", "orbit_splitting", "--out", str(spaced)]) == 0
    assert json.loads(spaced.read_text(encoding="utf-8"))["config"]["seed"] == 5
    # an option's value may also follow an '='
    assert cli_main(["verify", f"--config={cfg_path}", "--seed=5",
                     "--checks=orbit_splitting", f"--out={joined}"]) == 0
    assert joined.read_bytes() == spaced.read_bytes()


def test_shipped_configs_are_valid():
    import pathlib

    for path in sorted(pathlib.Path(__file__).resolve().parent.parent.glob("configs/*.json")):
        cfg = wb.load_config(path)
        assert wb.build_algebra(cfg).dim > 0


def test_so_spectrum_validation():
    base = {"algebra": {"family": "so", "n": 3}, "seed_element": {"diag_spectrum": [1.0]}}
    assert wb.config_from_dict(base).samples == 10  # single rotation angle is fine
    with pytest.raises(ConfigError):
        wb.config_from_dict({"algebra": {"family": "so", "n": 5},
                             "seed_element": {"diag_spectrum": [0.0, 0.0]}})


def test_pipeline_nonabelian_isotropy_with_trivial_transversal():
    # isoclinic so(4) seed: one three-dimensional simple factor acts
    # trivially, so the isotropy algebra is nonabelian while its normalizer
    # is everything and the transversal is empty
    cfg = wb.config_from_dict({
        "algebra": {"family": "so", "n": 4},
        "seed_element": {"diag_spectrum": [1.0, 1.0]},
        "samples": 8,
        "seed": 0,
    })
    report = wb.run_pipeline(cfg)
    assert report.verdict == "pass"
    assert report.reduction == "nontrivial"
    assert report.dims["h"] == 3 and report.dims["p"] == 0
    assert report.dims["k"] + report.dims["m"] == 6
    assert report.dims["p"] + report.dims["n(h)"] == 6
    assert [row.name for row in report.checks + report.negative_controls] == ALL_ROWS  # p = 0 drops no row


def test_determinism_repeated_runs(tmp_path):
    cfg = wb.config_from_dict(SU2_CONFIG)
    first = wb.run_pipeline(cfg).to_json()
    second = wb.run_pipeline(cfg).to_json()
    out_path = tmp_path / "report.json"
    assert cli_main(["verify", "--config", write_config(tmp_path, SU2_CONFIG), "--out", str(out_path)]) == 0
    third = out_path.read_text(encoding="utf-8")
    assert first == second == third


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_shared_row_data_is_computed_once(monkeypatch):
    from orbitpencil import dirac_reduction as dr

    splitting = _counting(monkeypatch, dr, "splitting_orthogonality")
    normal_form, normal_forms = dr.slice_normal_form, []
    monkeypatch.setattr(dr, "slice_normal_form",
                        lambda setup, ys, **kw: normal_forms.append(len(ys)) or normal_form(setup, ys, **kw))
    residuals = _counting(monkeypatch, dr, "setup_residuals")
    report = wb.run_pipeline(wb.config_from_dict(SU2_CONFIG))
    assert report.verdict == "pass"
    # splitting_pairing and splitting_nondegeneracy share one stacked call
    # over the regular points, which pairs both pencil generators at once
    assert len(splitting) == 1
    # slice_isometry takes one stacked call over all samples
    assert normal_forms == [SU2_CONFIG["samples"]]
    # reduction_setup validates the setup with one call, and no row computes the residuals again
    assert len(residuals) == 1


def test_run_builds_each_setup_object_once(monkeypatch):
    from orbitpencil import dirac_reduction as dr
    from orbitpencil import lie_core as lc

    products = _counting(monkeypatch, dr, "invariant_product_space")
    # reduction_setup calls its own imported name, the lie_core layer the module one
    normalizers = [_counting(monkeypatch, lc, "normalizer"), _counting(monkeypatch, dr, "normalizer")]
    residuals = _counting(monkeypatch, dr, "setup_residuals")
    active, subspaces_in_normal_form, subspace_calls = [], [], set()
    normal_form = dr.slice_normal_form

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            subspace_calls.add(name)
            subspaces_in_normal_form.extend(active)
            return fn(*args, **kwargs)
        return wrapper

    def tracked_normal_form(*args, **kwargs):
        active.append(1)
        try:
            return normal_form(*args, **kwargs)
        finally:
            active.pop()

    for name in ("span", "spans", "kernel", "kernels"):
        monkeypatch.setattr(dr, name, counting(name, getattr(dr, name)))
    monkeypatch.setattr(dr, "slice_normal_form", tracked_normal_form)
    path = pathlib.Path(__file__).resolve().parent.parent / "configs" / "su3_projective_plane.json"
    report = wb.run_pipeline(wb.load_config(path))
    assert report.verdict == "pass"
    assert len(products) == 1
    assert sum(map(len, normalizers)) == 1
    assert len(residuals) == 1
    # every counter is reached by the run, and none from inside a slice normal form
    assert subspace_calls == {"span", "spans", "kernel", "kernels"}
    assert subspaces_in_normal_form == []


def test_bracket_agreement_takes_one_differential_per_word_point_chart(monkeypatch):
    import pathlib

    from orbitpencil import dirac_reduction as dr
    path = pathlib.Path(__file__).resolve().parent.parent / "configs" / "su3_projective_plane.json"
    ctx = wb.prepare_context(wb.load_config(path))
    gradients = []
    make_function = dr.invariant_function

    def counted_function(alg, word):
        fn = make_function(alg, word)
        gradient = fn.gradient
        fn.gradient = lambda point: gradients.append(1) or gradient(point)
        return fn

    evaluated = set()

    def recording(method):
        def wrapper(chart, coords):
            evaluated.update((chart.coord_dim, row.tobytes()) for row in np.asarray(coords, dtype=float))
            return method(chart, coords)
        return wrapper

    monkeypatch.setattr(dr, "invariant_function", counted_function)
    monkeypatch.setattr(oc.Chart, "point", recording(oc.Chart.point))
    monkeypatch.setattr(oc.Chart, "pushforward", recording(oc.Chart.pushforward))
    assert wb._bracket_agreement(ctx) <= 1e-5
    sampled = ctx.regular_coords
    # 4 words x 2 charts, each on the whole regular stack, shared by every pencil parameter
    assert len(gradients) == len(wb._BRACKET_WORDS) * 2
    allowed = {(len(s), s.tobytes()) for s in sampled}
    allowed |= {(len(c), c.tobytes()) for c in ctx.data.pad_coords(sampled)}
    assert evaluated <= allowed


def test_bracket_agreement_decides_regularity_once_per_point(monkeypatch):
    from orbitpencil import dirac_reduction as dr

    path = pathlib.Path(__file__).resolve().parent.parent / "configs" / "su3_projective_plane.json"
    ctx = wb.prepare_context(wb.load_config(path))
    regularity = _counting(monkeypatch, dr, "is_regular")
    assert wb._bracket_agreement(ctx) <= 1e-5
    # one decision for the regular stack, shared by the 4 off-line pencil parameters
    assert len(regularity) == 1


SO5_FLAG = {"algebra": {"family": "so", "n": 5}, "seed_element": {"diag_spectrum": [2, 1]}}


@pytest.mark.parametrize("seed", range(20))
def test_slice_rows_pass_on_so5_flag(seed):
    # K is a 2-torus and <Ad_k y, x0> has non-global critical points here; each lies in the slice
    # slice_normal_form raises above its bound, so the isometry row passing is the normalisation holding too
    cfg = wb.config_from_dict(dict(SO5_FLAG, seed=seed, checks=["slice_isometry"]))
    report = wb.run_pipeline(cfg)
    assert [(row.name, row.passed) for row in report.checks] == [("slice_isometry", True)]
    assert not report.errors and report.verdict == "pass"


def test_slice_normal_form_iterations_on_su3_regular():
    from orbitpencil import dirac_reduction as dr
    from orbitpencil.seeding import unit_rows

    path = pathlib.Path(__file__).resolve().parent.parent / "configs" / "su3_regular.json"
    base = json.loads(path.read_text())
    worst = 0
    for seed in range(20):
        ctx = wb.prepare_context(wb.config_from_dict(dict(base, seed=seed)))
        tangent = ctx.orbit.tangent
        for y in unit_rows(seed, "slice-normalization", range(ctx.config.samples), tangent.dim) @ tangent.basis.T:
            worst = max(worst, dr.slice_normal_form(ctx.setup, y[None])[1])
    assert worst <= 30


# Each pair shares data: ctx.once blocks or a coordinate stack both rows read.
_MEMO_SHARING_ROWS = [
    ["splitting_pairing", "splitting_nondegeneracy"],
    ["action_complement_independence", "restricted_nondegeneracy"],  # the sub chart at the regular stack
    ["local_freeness", "invariant_function_invariance"],
    ["canonical_nondegeneracy", "pencil_nilpotency"],  # the ambient W1 at the sample stack, which P1 inverts
    ["combined_nondegeneracy", "pencil_compatibility"],  # the ambient W2 at the sample stack, which P2 inverts
    ["restricted_closedness", "restricted_compatibility"],  # the restricted W stencils, which dP reads
    ["restricted_pencil_nilpotency", "bracket_agreement"],  # the restricted bivectors at the regular stack
]


def test_check_subsets_read_the_same_shared_data(tmp_path):
    # su(3) projective plane: a nontrivial transversal, so every shared
    # quantity is nonvacuous
    payload = {"algebra": {"family": "su", "n": 3}, "seed_element": {"diag_spectrum": [2, -1, -1]},
               "samples": 8, "seed": 0}
    cfg_path = write_config(tmp_path, payload)
    full = {row.name: row.residual for row in wb.run_pipeline(wb.config_from_dict(payload)).checks}
    for position in (0, 1):
        # each subset fills the shared data from a different row of each pair
        names = [pair[position] for pair in _MEMO_SHARING_ROWS]
        out_path = tmp_path / f"subset{position}.json"
        assert cli_main(["verify", "--config", cfg_path, "--checks", ",".join(names),
                         "--out", str(out_path)]) == 0
        rows = json.loads(out_path.read_text())["checks"]
        assert sorted(row["name"] for row in rows) == sorted(names)
        for row in rows:
            assert row["residual"] == full[row["name"]], row["name"]


def test_seed_changes_report_but_not_verdict():
    base = wb.run_pipeline(wb.config_from_dict(SU2_CONFIG))
    other = wb.run_pipeline(wb.config_from_dict(dict(SU2_CONFIG, seed=12345)))
    assert base.verdict == other.verdict == "pass"
    assert base.to_json() != other.to_json()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_verify_pass_and_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SU2_CONFIG)
    out_path = tmp_path / "report.json"
    code = cli_main(["verify", "--config", cfg_path, "--out", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text())["verdict"] == "pass"


def test_verify_runs_on_numpy_alone(tmp_path):
    # a fresh interpreter, so modules imported by other tests do not count
    root = pathlib.Path(__file__).resolve().parent.parent
    code = (
        "import json, sys\n"
        "from orbitpencil.cli import main\n"
        f"code = main(['verify', '--config', {str(root / 'configs' / 'su2_sphere.json')!r},"
        f" '--out', {str(tmp_path / 'report.json')!r}])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0, []]


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg_path = write_config(tmp_path, dict(SU2_CONFIG, samples=4))
    assert cli_main(["verify", "--config", cfg_path]) == 2
    assert cli_main(["verify", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_check_failure_exit_code(monkeypatch, tmp_path):
    _canonical_form_scaled(monkeypatch)
    cfg_path = write_config(tmp_path, dict(SU2_CONFIG, checks=["canonical_nondegeneracy"]))
    out_path = tmp_path / "report.json"
    assert cli_main(["verify", "--config", cfg_path, "--out", str(out_path)]) == 1
    report = json.loads(out_path.read_text())
    assert "errors" not in report and [row["pass"] for row in report["checks"]] == [False]


def test_cli_checks_flag_and_text_format(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SU2_CONFIG)
    code = cli_main(["verify", "--config", cfg_path, "--format", "text",
                     "--checks", "orbit_splitting"])
    assert code == 0
    out = capsys.readouterr().out
    assert "orbit_splitting" in out and "verdict: pass" in out


@pytest.mark.parametrize(
    "payload",
    [
        {"algebra": {"family": "su", "n": 3}, "seed_element": {"diag_spectrum": [1, -1]}},
        {"algebra": {"family": "su", "n": 2}, "seed_element": {"coeffs": [1.0, 0.0]}},
        # central seeds, whose orbit is a point
        {"algebra": {"family": "su", "n": 2}, "seed_element": {"coeffs": [0, 0, 0]}},
        {"algebra": {"custom": [[[[0.0, 1.0]]]], "name": "u(1)"}, "seed_element": {"coeffs": [1]}},
        # so(5) takes exactly two rotation angles; a third is refused, not dropped
        {"algebra": {"family": "so", "n": 5}, "seed_element": {"diag_spectrum": [2, 1, 7]}},
    ],
)
def test_cli_seed_rejected_by_the_algebra_exits_2(tmp_path, capsys, payload):
    # passes validate_config, rejected only when the algebra or the orbit is built
    cfg_path = write_config(tmp_path, payload)
    out_path = tmp_path / "report.json"
    assert cli_main(["verify", "--config", cfg_path, "--out", str(out_path)]) == 2
    assert "configuration error: seed element rejected" in capsys.readouterr().err
    assert not out_path.exists()
    with pytest.raises(ConfigError):
        wb.run_pipeline(wb.config_from_dict(payload))


def test_cli_unknown_check_is_config_error(tmp_path):
    cfg_path = write_config(tmp_path, SU2_CONFIG)
    assert cli_main(["verify", "--config", cfg_path, "--checks", "nope"]) == 2


@pytest.mark.parametrize("selection", ["", ","])
def test_cli_empty_check_selection_is_config_error(tmp_path, capsys, selection):
    cfg_path = write_config(tmp_path, SU2_CONFIG)
    out_path = tmp_path / "report.json"
    assert cli_main(["verify", "--config", cfg_path, "--checks", selection, "--out", str(out_path)]) == 2
    assert "checks must name at least one check" in capsys.readouterr().err
    assert not out_path.exists()


def test_cli_empty_checks_list_in_config_is_config_error(tmp_path, capsys):
    assert cli_main(["verify", "--config", write_config(tmp_path, dict(SU2_CONFIG, checks=[]))]) == 2
    assert "checks must name at least one check" in capsys.readouterr().err


def test_negative_seed_is_config_error(tmp_path, capsys):
    assert cli_main(["verify", "--config", write_config(tmp_path, SU2_CONFIG), "--seed", "-1"]) == 2
    assert cli_main(["verify", "--config", write_config(tmp_path, dict(SU2_CONFIG, seed=-3), "neg.json")]) == 2
    assert capsys.readouterr().err.count("seed must be a nonnegative integer") == 2


@pytest.mark.parametrize(
    "mutation",
    [
        {"checks": "orbit_splitting"},
        {"seed": None},
        {"samples": True},
        {"algebra": "su2"},
        {"algebra": {"family": "su", "n": "2"}},
        {"samples": "many"},
        {"samples": [8]},
        {"seed": "zero"},
        {"seed_element": [1, -1]},
        {"checks": {"orbit_splitting": True}},
        {"checks": [["orbit_splitting"]]},
        {"seed_element": {"diag_spectrum": ["a", "b"]}},
        {"seed_element": {"coeffs": ["a", "b", "c"]}},
        {"samples": 1e400},
        {"algebra": {"family": "so", "n": 4}, "seed_element": {"diag_spectrum": [[1, 1], [1, 1]]}},
        {"seed_element": {"coeffs": [0.0, 0.0, float("nan")]}},
        {"seed_element": {"diag_spectrum": 1}},
        {"seed_element": {"coeffs": [0.0, 0.0, float("inf")]}},
        {"algebra": {"custom": "x"}},
        {"algebra": {"family": "su"}},
    ],
)
def test_cli_malformed_field_values_exit_2(tmp_path, capsys, mutation):
    cfg_path = write_config(tmp_path, dict(SU2_CONFIG, **mutation))
    assert cli_main(["verify", "--config", cfg_path]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutation",
    [
        {"samples": 8.7},
        {"seed": 2.5},
        {"samples": "9"},
        {"algebra": {"family": "su", "n": 2.0}},
        {"seed_element": {"diag_spectrum": [1, -1], "coeffs": [1.0, 0.0, 0.0]}},
        {"algebra": {"family": "su", "n": 2, "custom": [[[[0.0, 1.0]]]]}},
        {"seed": 2.0},
        {"checks": "orbit_splitting,slice_isometry"},
        {"seed_element": {"coeffs": ["1.5", 0, 0]}},
        {"seed_element": {"coeffs": [True, False, False]}},
        {"seed_element": {"diag_spectrum": ["1", "-1"]}},
    ],
)
def test_cli_lossy_field_values_exit_2(tmp_path, capsys, mutation):
    # a value that would run only after rounding, parsing, cutting or dropping part of it is refused
    payload = dict(SU2_CONFIG, **mutation)
    with pytest.raises(ConfigError):
        wb.config_from_dict(payload)
    assert cli_main(["verify", "--config", write_config(tmp_path, payload)]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields",
    [
        {"seed": 1.5},
        {"seed": True},
        {"samples": 8.7},
        {"samples": "9"},
        {"checks": "orbit_splitting"},
        {"seed": None},
        {"checks": ("orbit_splitting", 1)},
        {"samples": None},
    ],
)
def test_python_built_configs_follow_the_json_rules(fields):
    # run_pipeline parses a WorkbenchConfig built in Python as config_from_dict parses JSON
    with pytest.raises(ConfigError, match="malformed value"):
        wb.run_pipeline(wb.WorkbenchConfig(**dict(SU2_CONFIG, **fields)))


def test_a_python_built_config_json_cannot_encode_is_refused():
    cfg = wb.WorkbenchConfig({"family": "su", "n": 2}, {"coeffs": np.array([1.0, 0.0, 0.0])})
    with pytest.raises(ConfigError, match="cannot echo"):
        wb.run_pipeline(cfg)


def test_a_python_built_config_reports_as_its_json(tmp_path):
    # a tuple of check names is kept as the list JSON parsing makes of it
    fields = dict(SU2_CONFIG, checks=("orbit_splitting", "slice_isometry"))
    cfg = wb.WorkbenchConfig(**fields)
    built = wb.run_pipeline(cfg)
    assert built.to_json() == wb.run_pipeline(wb.load_config(write_config(tmp_path, fields))).to_json()
    assert cfg.checks == ("orbit_splitting", "slice_isometry")  # run_pipeline leaves the caller's record as it is
    assert built.config["checks"] == ["orbit_splitting", "slice_isometry"]


@pytest.mark.parametrize(
    "mutation,key",
    [
        ({"algebra": {"family": "su", "n": 2, "nmae": "x"}}, "nmae"),
        ({"seed_element": {"coeffs": [0, 0, 1], "diag_spectrun": [5, -5]}}, "diag_spectrun"),
    ],
)
def test_unknown_key_inside_algebra_or_seed_element_exits_2(tmp_path, capsys, mutation, key):
    # a misspelled key would run without effect and be echoed into the report
    payload = dict(SU2_CONFIG, **mutation)
    with pytest.raises(ConfigError, match=key):
        wb.config_from_dict(payload)
    assert cli_main(["verify", "--config", write_config(tmp_path, payload)]) == 2
    assert key in capsys.readouterr().err


def test_cli_freezes_the_heap_it_starts_with_and_run_pipeline_does_not(tmp_path, monkeypatch):
    frozen = []
    prepare = wb.prepare_context
    monkeypatch.setattr(wb, "prepare_context", lambda cfg: frozen.append(gc.get_freeze_count()) or prepare(cfg))
    gc.unfreeze()
    try:
        wb.run_pipeline(wb.config_from_dict(dict(SU2_CONFIG, checks=["orbit_splitting"])))
        assert frozen == [0] and gc.get_freeze_count() == 0
        assert cli_main(["verify", "--config", write_config(tmp_path, SU2_CONFIG), "--checks", "orbit_splitting",
                         "--out", str(tmp_path / "report.json")]) == 0
        assert frozen[1] > 0
    finally:
        gc.unfreeze()


def test_cli_non_utf8_config_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"algebra": {"family": "su", "n": 2}, "name": "\xe9t\xe9"}')
    assert cli_main(["verify", "--config", str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--config", "cfg.json", "--nope", "1"],
        ["verify", "--config"],
        ["verify", "--config", "cfg.json", "--seed", "x"],
        ["verify", "--config", "cfg.json", "--format", "xml"],
        ["check", "--config", "cfg.json"],
        ["verify", "--seed", "1"],
        ["list-checks", "--seed", "1"],
    ],
    ids=["unknown-option", "no-value", "seed-not-int", "unknown-format", "unknown-command", "no-config",
         "list-checks-option"],
)
def test_cli_malformed_command_line_exits_2(tmp_path, capsys, argv):
    write_config(tmp_path, SU2_CONFIG)
    argv = [str(tmp_path / arg) if arg == "cfg.json" else arg for arg in argv]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: workbench verify --config PATH")
    assert len([line for line in captured.err.splitlines() if line.startswith("workbench: error: ")]) == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["verify", "-h"], ["list-checks", "--help"]])
def test_cli_help_prints_the_usage(capsys, argv):
    assert cli_main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: workbench verify --config PATH") and captured.err == ""
    assert "--opt=value" in captured.out


def test_cli_list_checks(capsys):
    assert cli_main(["list-checks"]) == 0
    out = capsys.readouterr().out
    assert "bracket_agreement" in out
    assert "control_corrupted_jacobi" in out
    for spec in wb.REGISTRY:
        assert spec.name in out
