import numpy as np
import pytest

from orbitpencil import dirac_reduction as dr
from orbitpencil import families
from orbitpencil import lie_core as lc
from orbitpencil import orbit_charts as oc
from orbitpencil.errors import GenericityError, InputError


@pytest.mark.parametrize("n,expected", [(2, 3), (3, 8), (4, 15)])
def test_su_dimensions(n, expected):
    assert families.su(n).dim == expected


@pytest.mark.parametrize("n,expected", [(3, 3), (4, 6), (5, 10)])
def test_so_dimensions(n, expected):
    assert families.so(n).dim == expected


def test_su_generators_are_anti_hermitian_traceless():
    gens = families.su_generators(3)
    for g in gens:
        assert np.allclose(g, -g.conj().T)
        assert abs(np.trace(g)) <= 1e-14


def test_diagonal_seed_su_centering():
    alg = families.su(3)
    seed = families.diagonal_seed(alg, [3, 0, 0])
    mat = alg.matrix_of(seed)
    assert abs(np.trace(mat)) <= 1e-12
    assert np.allclose(np.diag(mat), 1j * np.array([2.0, -1.0, -1.0]), atol=1e-12)


def test_diagonal_seed_so_blocks():
    alg = families.so(5)
    seed = families.diagonal_seed(alg, [1.0, 0.4])
    mat = alg.matrix_of(seed)
    expected = np.zeros((5, 5), dtype=complex)
    expected[0, 1], expected[1, 0] = -1.0, 1.0
    expected[2, 3], expected[3, 2] = -0.4, 0.4
    assert np.allclose(mat, expected, atol=1e-12)
    for angles in ([1.0], [1.0, 0.4, 7.0]):  # exactly one angle per block, none dropped
        with pytest.raises(InputError):
            families.diagonal_seed(alg, angles)


@pytest.mark.parametrize("generators,spectrum", [
    (families.su_generators(2), [1.0, -1.0]),
    (families.so_generators(4), [1.0, 1.0]),
])
def test_diagonal_seed_follows_the_basis_not_the_name(generators, spectrum):
    # a real basis takes rotation angles and a complex one a spectrum, whatever the algebra is called
    seeds = [families.diagonal_seed(lc.algebra_from_matrices(name, generators), spectrum)
             for name in ("su(2)", "so(4)", "so-named-su2", "custom")]
    assert all(np.array_equal(seed, seeds[0]) for seed in seeds)


def test_seed_must_match_dimension():
    with pytest.raises(InputError):
        families.diagonal_seed(families.su(3), [1, -1])


def test_principal_isotropy_needs_enough_samples(setup_su2):
    with pytest.raises(InputError):
        dr.principal_isotropy(setup_su2.config, samples=4, seed=0)


def test_sample_regular_coords_refuses_an_irregular_row(monkeypatch, setup_cp2, data_cp2):
    # the stack is drawn once: an irregular row is an error, not a reason to draw more
    regular = dr.is_regular
    monkeypatch.setattr(dr, "is_regular", lambda setup, points: regular(setup, points) & (np.arange(len(points)) != 3))
    with pytest.raises(GenericityError, match="1 of 5 sampled"):
        dr.sample_regular_coords(setup_cp2, data_cp2, count=5, seed=0)


def test_so4_isoclinic_configuration_has_nonabelian_isotropy():
    # one factor of the 2x2 splitting acts trivially: the principal isotropy
    # is a full three-dimensional simple subalgebra and its normalizer is
    # the whole algebra (it is an ideal)
    alg = families.so(4)
    seed = families.diagonal_seed(alg, [1.0, 1.0])
    config = oc.orbit_config(alg, seed)
    setup = dr.reduction_setup(config, samples=16, seed=0)
    dims = setup.dims()
    assert dims["h"] == 3 and dims["n(h)"] == 6 and dims["p"] == 0
    assert dims["g_hat"] == 3 and dims["z(g_hat)"] == 0
    assert lc.subalgebra_residual(alg, setup.isotropy) <= 1e-10
