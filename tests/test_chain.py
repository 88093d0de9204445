"""Tridiagonal assembly, the numeric decomposition by numpy's eigh and
the twisted-factorisation eigenvectors."""

import math
import random

import numpy as np
import pytest

from conftest import Q_POOL, draw_valid_spec
from qchain import chain, families
from qchain.chain import SignConvention, SpinChain
from qchain.families import Family


def test_spinchain_shape_validation():
    with pytest.raises(ValueError):
        SpinChain(couplings=(1.0,), fields=(0.5,))
    with pytest.raises(ValueError):
        SpinChain(couplings=(1.0, -2.0), fields=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        SpinChain(couplings=(0.0,), fields=(0.5, 0.5))


def test_spinchain_sites():
    c = SpinChain(couplings=(1.0, 2.0), fields=(0.1, 0.2, 0.3))
    assert c.n_sites == 3
    assert c.last_site == 2


def test_mirror_residual():
    symmetric = SpinChain(couplings=(1.0, 1.0), fields=(0.5, 0.0, 0.5))
    skew = SpinChain(couplings=(1.0, 2.0), fields=(0.5, 0.0, 0.5))
    assert symmetric.mirror_residual() == 0.0
    assert skew.mirror_residual() == 1.0


def test_assemble_matrix_sign_conventions():
    c = SpinChain(couplings=(1.0, 1.0), fields=(0.5, 0.0, 0.5))
    neg = chain.assemble_matrix(c)
    pos = chain.assemble_matrix(c, SignConvention.POSITIVE)
    assert neg[0, 1] == -1.0
    assert pos[0, 1] == 1.0
    assert np.array_equal(neg, neg.T)
    assert np.array_equal(np.diag(neg), np.diag(pos))


def test_numeric_rejects_bad_input():
    with pytest.raises(ValueError):
        chain.numeric_decomposition(np.ones((2, 3)))
    with pytest.raises(ValueError):
        chain.numeric_decomposition(np.array([[0.0, 1.0], [2.0, 0.0]]))


@pytest.mark.parametrize("call, message", [
    (lambda: SpinChain(couplings=[[1.0]], fields=(0.5, 0.5)),
     "couplings and fields must be one-dimensional"),
    (lambda: chain.numeric_decomposition(np.ones((3, 3))), "matrix must be tridiagonal"),
], ids=["spinchain-ndim", "numeric-not-tridiagonal"])
def test_chain_refusals(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_numeric_two_site_exchange():
    dec = chain.numeric_decomposition(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert dec.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-15)
    root = 1 / math.sqrt(2)
    assert np.abs(dec.eigenvectors) == pytest.approx(np.full((2, 2), root), abs=1e-15)
    # first significant entry of each column is positive
    assert dec.eigenvectors[0, 0] > 0
    assert dec.eigenvectors[0, 1] > 0


def test_numeric_free_three_site():
    M = chain.assemble_matrix(SpinChain(couplings=(1.0, 1.0), fields=(0.0, 0.0, 0.0)))
    dec = chain.numeric_decomposition(M)
    assert dec.eigenvalues == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2)], abs=1e-14)


def test_numeric_diagonal_permutation():
    dec = chain.numeric_decomposition(np.diag([3.0, -1.0, 2.0]))
    assert dec.eigenvalues == pytest.approx([-1.0, 2.0, 3.0], abs=1e-15)
    assert np.abs(dec.eigenvectors).sum() == pytest.approx(3.0, abs=1e-14)


def test_numeric_random_tridiagonal_property():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randrange(2, 13)
        c = SpinChain(
            couplings=tuple(rng.uniform(0.1, 3.0) for _ in range(n - 1)),
            fields=tuple(rng.uniform(-2.0, 2.0) for _ in range(n)),
        )
        M = chain.assemble_matrix(c)
        dec = chain.numeric_decomposition(M)
        assert np.max(np.abs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(n))) < 1e-12
        assert np.max(np.abs(dec.reconstruction() - M)) < 1e-12 * (1 + np.max(np.abs(M)))
        assert all(a <= b for a, b in zip(dec.eigenvalues, dec.eigenvalues[1:]))


def _twisted_columns(diag, off, eigenvalues):
    mantissa, exponent = chain._twisted_vectors(diag, off, eigenvalues)
    return np.ldexp(mantissa, exponent)


def test_twisted_vectors_are_the_eigenvectors():
    rng = random.Random(47)
    for _ in range(25):
        n = rng.randrange(1, 13)
        off = np.array([rng.choice((-1, 1)) * rng.uniform(0.1, 3.0) for _ in range(n - 1)])
        diag = np.array([rng.uniform(-2.0, 2.0) for _ in range(n)])
        M = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        values, vectors = np.linalg.eigh(M)
        Z = _twisted_columns(diag, off, values)
        assert np.all(Z[0] == 1.0)
        Z /= np.linalg.norm(Z, axis=0)
        assert np.max(np.abs(Z - vectors * np.sign(vectors[0]))) < 1e-10


def test_twisted_vectors_survive_an_exactly_zero_pivot():
    # at eps = 0 the first top-down and bottom-up pivots are exactly 0;
    # replaced by eps_machine |b_i| they give (1, 0, -1), not NaN
    root = math.sqrt(2.0)
    Z = _twisted_columns(np.zeros(3), np.ones(2), [-root, 0.0, root])
    assert np.all(np.isfinite(Z))
    assert np.max(np.abs(Z[:, 1] - [1.0, 0.0, -1.0])) < 1e-15
    assert np.max(np.abs(Z[:, 0] - [1.0, -root, 1.0])) < 1e-15


def test_twisted_vectors_carry_the_exponent_apart():
    # z_i = 2**(-20 i) solves the matrix with off-diagonal 1, diagonal
    # -(t + 1/t) inside and -t, -1/t at the ends (t = 2**-20) at eps = 0;
    # the last of 100 entries, 2**-1980, is far below the float range
    n, t = 100, 2.0 ** -20
    diag = np.full(n, -(t + 1 / t))
    diag[0], diag[-1] = -t, -1 / t
    mantissa, exponent = chain._twisted_vectors(diag, np.ones(n - 1), [0.0])
    assert np.max(np.abs(mantissa[:, 0] - 0.5)) < 1e-14
    assert exponent[:, 0].tolist() == [1 - 20 * i for i in range(n)]


def test_numeric_sign_convention_deterministic():
    M = chain.assemble_matrix(SpinChain(couplings=(0.3, 0.7), fields=(0.2, -0.1, 0.4)))
    first = chain.numeric_decomposition(M)
    second = chain.numeric_decomposition(M.copy())
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    for col in range(3):
        lead = next(v for v in first.eigenvectors[:, col] if abs(v) > 1e-12)
        assert lead > 0


def test_analytic_decomposition_carries_exact_eigenvalues():
    rng = random.Random(32)
    spec = draw_valid_spec(rng, Family.Q_KRAWTCHOUK, 4)
    dec = chain.analytic_decomposition(families.orthogonality_data(spec))
    assert dec.exact_eigenvalues is not None
    assert list(dec.eigenvalues) == pytest.approx(
        [float(e) for e in dec.exact_eigenvalues], rel=1e-15
    )
    assert chain.numeric_decomposition(
        chain.assemble_matrix(families.recurrence_coefficients(spec))
    ).exact_eigenvalues is None


def test_verify_decomposition_agreement():
    rng = random.Random(33)
    for family in Family:
        spec = draw_valid_spec(rng, family, 5)
        data = families.orthogonality_data(spec)
        M = chain.assemble_matrix(data.chain)
        dec = chain.analytic_decomposition(data)
        report = chain.verify_decomposition(dec, M)
        scale = 1.0 + float(np.max(np.abs(dec.eigenvalues)))
        assert report.orthogonality_residual < 1e-12
        assert report.reconstruction_residual < 1e-12 * scale
        assert report.eigenvalue_gap < 1e-12 * scale
        assert report.max_residual() >= report.orthogonality_residual


def test_analytic_and_numeric_columns_match():
    # same sign convention on both routes, columns comparable entrywise
    rng = random.Random(34)
    for q in Q_POOL:
        spec = families.pst_spec(q, 3)
        data = families.orthogonality_data(spec)
        analytic = chain.analytic_decomposition(data)
        numeric = chain.numeric_decomposition(chain.assemble_matrix(data.chain))
        assert np.max(np.abs(analytic.eigenvectors - numeric.eigenvectors)) < 1e-10
