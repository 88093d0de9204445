"""Family validation windows, spectra, and orthonormal data."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import Q_POOL, Q_SMALL, draw_valid_spec
from qchain import chain, families
from qchain.families import Family, InvalidSpecError
from qchain.qseries import RationalQ

ALL_FAMILIES = tuple(Family)


def test_pst_spec_small_chain():
    spec = families.pst_spec(RationalQ(3, 1), 2)
    assert spec.family is Family.Q_KRAWTCHOUK
    built = families.recurrence_coefficients(spec)
    expected = math.sqrt(6) / 18
    assert built.couplings == pytest.approx([expected, expected], rel=1e-14)
    assert built.fields == pytest.approx([1 / 3, 1 / 9, 1 / 3], rel=1e-14)
    assert families.eigenvalues(spec) == [0, Fraction(1, 3), Fraction(4, 9)]


def test_describe_mentions_family_and_size():
    spec = families.pst_spec(RationalQ(3, 1), 2)
    text = spec.describe()
    assert "q-krawtchouk" in text
    assert "N=2" in text
    assert "p=1/9" in text


@pytest.mark.parametrize(
    "bad",
    [
        lambda: families.q_krawtchouk(3, RationalQ(3, 1), Fraction(0)),
        lambda: families.q_krawtchouk(3, RationalQ(3, 1), Fraction(-1, 9)),
        lambda: families.affine_q_krawtchouk(3, RationalQ(3, 1), Fraction(1, 2)),
        lambda: families.quantum_q_krawtchouk(3, RationalQ(3, 1), Fraction(1, 9)),
        lambda: families.dual_q_krawtchouk(3, RationalQ(1, 3), Fraction(1, 2)),
        lambda: families.q_hahn(3, RationalQ(1, 3), Fraction(4), Fraction(1, 2)),
        lambda: families.dual_q_hahn(3, RationalQ(1, 3), Fraction(7, 2), Fraction(1, 2)),
        lambda: families.q_racah(3, RationalQ(1, 3), Fraction(1, 2), Fraction(1, 2), Fraction(2)),
    ],
)
def test_validate_rejects_out_of_window(bad):
    spec = bad()
    report = families.validate(spec)
    assert not report.valid
    assert report.violations
    with pytest.raises(InvalidSpecError):
        families.require_valid(spec)


def test_validate_accepts_sampler_output():
    rng = random.Random(21)
    for family in ALL_FAMILIES:
        spec = draw_valid_spec(rng, family, 4)
        assert families.validate(spec).valid
        assert not families.validate(spec).violations


def test_eigenvalues_are_exact_and_indexed():
    rng = random.Random(22)
    for family in ALL_FAMILIES:
        spec = draw_valid_spec(rng, family, 5)
        eigs = families.eigenvalues(spec)
        assert len(eigs) == spec.N + 1
        assert all(isinstance(e, Fraction) for e in eigs)
        for k, e in enumerate(eigs):
            assert families.eigenvalue(spec, k) == e


def test_orthonormal_matrix_diagonalizes_recurrence():
    # full validity windows, so the spectral scale can be large; the
    # reconstruction bound is relative to it
    rng = random.Random(23)
    for family in ALL_FAMILIES:
        for N in (1, 3, 6):
            spec = draw_valid_spec(rng, family, N)
            U = families.orthonormal_matrix(spec)
            eps = np.array([float(e) for e in families.eigenvalues(spec)])
            M = chain.assemble_matrix(families.recurrence_coefficients(spec))
            scale = 1.0 + float(np.max(np.abs(eps)))
            assert np.max(np.abs(U.T @ U - np.eye(N + 1))) < 1e-12
            assert np.max(np.abs(U @ np.diag(eps) @ U.T - M)) < 1e-12 * scale


def test_orthogonality_weights_positive():
    rng = random.Random(24)
    for family in ALL_FAMILIES:
        spec = draw_valid_spec(rng, family, 4)
        data = families.orthogonality_data(spec)
        assert all(w.sign == 1 for w in data.weights)
        assert all(h.sign == 1 for h in data.norms)


def test_quantum_flip_flag():
    # only the quantum family with q < 1 and odd N swaps the data order
    flipped = families.orthogonality_data(
        families.quantum_q_krawtchouk(3, RationalQ(1, 3), Fraction(54))
    ).flipped
    assert flipped
    for spec in (
        families.quantum_q_krawtchouk(4, RationalQ(1, 3), Fraction(162)),
        families.quantum_q_krawtchouk(3, RationalQ(3, 1), Fraction(2, 3)),
        families.q_krawtchouk(3, RationalQ(1, 3), Fraction(27)),
    ):
        assert not families.orthogonality_data(spec).flipped


def test_site_signs_unit_and_anchored():
    rng = random.Random(25)
    for family in ALL_FAMILIES:
        spec = draw_valid_spec(rng, family, 5)
        signs = families.site_signs(spec)
        assert signs[0] == 1
        assert set(np.unique(signs)) <= {-1.0, 1.0}


def test_site_signs_alternate_for_qracah_interior():
    spec = families.q_racah(3, RationalQ(1, 3), Fraction(5, 4), Fraction(5, 4), Fraction(54))
    assert list(families.site_signs(spec)) == [1, -1, 1, -1]
    pst = families.pst_spec(RationalQ(3, 5), 4)
    assert list(families.site_signs(pst)) == [1, 1, 1, 1, 1]


def test_recurrence_coefficients_positive_couplings():
    rng = random.Random(26)
    for family in ALL_FAMILIES:
        spec = draw_valid_spec(rng, family, 6)
        built = families.recurrence_coefficients(spec)
        assert len(built.couplings) == spec.N
        assert len(built.fields) == spec.N + 1
        assert all(J > 0 for J in built.couplings)


def test_pst_chain_closed_form_matches_recurrence():
    for q in (RationalQ(3, 1), RationalQ(3, 5)):
        for N in (1, 2, 5):
            J, h = families.pst_chain_closed_form(q, N)
            built = families.recurrence_coefficients(families.pst_spec(q, N))
            assert J == pytest.approx(list(built.couplings), rel=1e-13)
            assert h == pytest.approx(list(built.fields), rel=1e-13)


def test_qracah_delta_example():
    spec = families.q_racah(1, RationalQ(1, 3), Fraction(1), Fraction(2), Fraction(4))
    assert families.qracah_delta(spec) == Fraction(9, 2)


def test_size_zero_chain():
    spec = families.q_krawtchouk(0, RationalQ(3, 1), Fraction(1, 2))
    built = families.recurrence_coefficients(spec)
    assert len(built.couplings) == 0
    assert len(built.fields) == 1
    assert families.orthonormal_matrix(spec).shape == (1, 1)


def test_constructor_q_pool_round_trip():
    # params survive the spec container unchanged
    for q in Q_POOL:
        spec = families.q_hahn(2, q, Fraction(1, 2), Fraction(1, 3))
        assert spec.q is q
        assert spec.N == 2
        assert dict(spec.params) == {"alpha": Fraction(1, 2), "beta": Fraction(1, 3)}


def test_q_small_pool_for_qracah():
    rng = random.Random(27)
    for q in Q_SMALL:
        spec = draw_valid_spec(rng, Family.Q_RACAH, 3, q=q)
        assert families.validate(spec).valid


def test_every_family_has_one_table_record():
    assert set(families.FAMILIES) == set(Family)
    for family, record in families.FAMILIES.items():
        values = {name: Fraction(1, 2) for name in record.params}
        spec = families.make_spec(family, 2, RationalQ(1, 3), **values)
        assert spec.params == tuple(values.items())


@pytest.mark.parametrize(
    "spec,base",
    [
        # gamma = beta q**-N: (gamma q/beta; q)_N vanishes in the weight
        (families.q_racah(6, RationalQ(1, 3), Fraction(7, 8), Fraction(7, 4),
                          Fraction(5103, 4)), "gamma*q/beta"),
        # alpha = q**-N: (alpha q; q)_N vanishes in the series
        (families.q_racah(2, RationalQ(5, 9), Fraction(81, 25), Fraction(702, 125),
                          Fraction(81, 8)), "alpha*q"),
    ],
)
def test_exactly_degenerate_specs_rejected(spec, base):
    report = families.validate(spec)
    assert not report.valid
    assert report.violations == (
        f"degenerate parameters: {base} * q**{spec.N - 1} = 1 zeroes "
        f"the denominator factor ({base}; q)_{spec.N}",
    )
    with pytest.raises(InvalidSpecError, match="degenerate parameters"):
        families.require_valid(spec)
