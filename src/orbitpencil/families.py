"""Standard generator enumerations for the built-in algebra families.

The orderings are fixed so that configuration files reproduce identical
algebras byte for byte:

  su(n): first the n-1 diagonal generators i(E_kk - E_{k+1,k+1}), then for
         each pair i < j (lexicographic) the real rotation E_ij - E_ji
         followed by the imaginary reflection i(E_ij + E_ji).
  so(n): E_ij - E_ji for each pair i < j, lexicographic.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .lie_core import LieAlgebra, algebra_from_matrices


def su_generators(n: int) -> np.ndarray:
    if n < 2:
        raise InputError("su(n) needs n >= 2")
    mats = []
    for k in range(n - 1):
        mat = np.zeros((n, n), dtype=complex)
        mat[k, k] = 1j
        mat[k + 1, k + 1] = -1j
        mats.append(mat)
    for i in range(n):
        for j in range(i + 1, n):
            mat = np.zeros((n, n), dtype=complex)
            mat[i, j] = 1.0
            mat[j, i] = -1.0
            mats.append(mat)
            mat = np.zeros((n, n), dtype=complex)
            mat[i, j] = 1j
            mat[j, i] = 1j
            mats.append(mat)
    return np.asarray(mats)


def so_generators(n: int) -> np.ndarray:
    if n < 3:
        raise InputError("so(n) needs n >= 3")
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            mat = np.zeros((n, n), dtype=complex)
            mat[i, j] = 1.0
            mat[j, i] = -1.0
            mats.append(mat)
    return np.asarray(mats)


def su(n: int) -> LieAlgebra:
    return algebra_from_matrices(f"su({n})", su_generators(n))


def so(n: int) -> LieAlgebra:
    return algebra_from_matrices(f"so({n})", so_generators(n))


def diagonal_seed(alg: LieAlgebra, spectrum) -> np.ndarray:
    """Seed element from a spectrum, as coefficients in the algebra basis.

    For su(n): i * diag(spectrum - mean), the mean subtracted to enforce a
    vanishing trace.  For so(n): the entries are the rotation angles of the
    floor(n/2) 2x2 diagonal blocks, exactly one per block.
    """
    spec = np.asarray(spectrum, dtype=float)
    d = alg.matrix_dim
    if alg.name.startswith("so"):
        blocks = d // 2
        if spec.size != blocks:
            raise InputError(f"so({d}) seed needs {blocks} rotation angles, got {spec.size}")
        mat = np.zeros((d, d), dtype=complex)
        for b in range(blocks):
            mat[2 * b, 2 * b + 1] = -spec[b]
            mat[2 * b + 1, 2 * b] = spec[b]
        return alg.element_from_matrix(mat)
    if spec.size != d:
        raise InputError(f"expected a spectrum of length {d}, got {spec.size}")
    centered = spec - np.mean(spec)
    return alg.element_from_matrix(1j * np.diag(centered))
