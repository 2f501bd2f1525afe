import numpy as np
import pytest

from orbitpencil import dirac_reduction as dr
from orbitpencil import families
from orbitpencil import orbit_charts as oc


@pytest.fixture(scope="session")
def su2():
    return families.su(2)


@pytest.fixture(scope="session")
def su3():
    return families.su(3)


@pytest.fixture(scope="session")
def su4():
    return families.su(4)


@pytest.fixture(scope="session")
def so4():
    return families.so(4)


@pytest.fixture(scope="session")
def pauli_elements(su2):
    """Coefficients of E_k = -i sigma_k / 2 in the internal basis."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return [su2.element_from_matrix(-0.5j * s) for s in (sx, sy, sz)]


def _setup_for(alg, spectrum, seed=0):
    a = families.diagonal_seed(alg, spectrum)
    config = oc.orbit_config(alg, a)
    setup = dr.reduction_setup(config, samples=16, seed=seed)
    return setup


@pytest.fixture(scope="session")
def setup_su2(su2):
    return _setup_for(su2, [1, -1])


@pytest.fixture(scope="session")
def setup_cp2(su3):
    return _setup_for(su3, [2, -1, -1])


@pytest.fixture(scope="session")
def setup_su3_regular(su3):
    return _setup_for(su3, [1, 2, -3])


@pytest.fixture(scope="session")
def data_su2(setup_su2):
    base = oc.TangentBundlePoint(x=setup_su2.config.seed, v=setup_su2.x0)
    return dr.restricted_pencil(setup_su2, base)


@pytest.fixture(scope="session")
def data_cp2(setup_cp2):
    base = oc.TangentBundlePoint(x=setup_cp2.config.seed, v=setup_cp2.x0)
    return dr.restricted_pencil(setup_cp2, base)


@pytest.fixture(scope="session")
def data_su3_regular(setup_su3_regular):
    base = oc.TangentBundlePoint(x=setup_su3_regular.config.seed, v=setup_su3_regular.x0)
    return dr.restricted_pencil(setup_su3_regular, base)


@pytest.fixture(scope="session")
def setup_cp3(su4):
    return _setup_for(su4, [3, -1, -1, -1])


@pytest.fixture(scope="session")
def data_cp3(setup_cp3):
    base = oc.TangentBundlePoint(x=setup_cp3.config.seed, v=setup_cp3.x0)
    return dr.restricted_pencil(setup_cp3, base)


@pytest.fixture(scope="session")
def setup_su5():
    # the partial flag U(5)/(U(1) x U(1) x U(3)), configs/su5_partial_flag.json
    return _setup_for(families.su(5), [3, 1, -1, -1, -1])


@pytest.fixture(scope="session")
def data_su5(setup_su5):
    base = oc.TangentBundlePoint(x=setup_su5.config.seed, v=setup_su5.x0)
    return dr.restricted_pencil(setup_su5, base)


@pytest.fixture(scope="session")
def regular_coords_cp2(setup_cp2, data_cp2):
    return dr.sample_regular_coords(setup_cp2, data_cp2, 10, seed=7)


@pytest.fixture(scope="session")
def ambient_coords():
    def make(chart, count, seed=11):
        rng = np.random.default_rng(seed)
        return rng.uniform(-0.1, 0.1, (count, chart.coord_dim))

    return make
