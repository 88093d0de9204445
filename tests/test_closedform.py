"""Closed-form transfer amplitudes against the direct spectral sum."""

import math
import random
from fractions import Fraction

import pytest

from conftest import SERIES_FAMILIES, draw_valid_spec
from qchain import closedform, evolve, families
from qchain.closedform import Method, PhaseConditionUnmetError
from qchain.families import Family, InvalidSpecError
from qchain.qseries import NotOddOddError, RationalQ, q_pochhammer_exact


def closed_value(spec, r, s):
    name = spec.family
    params = dict(spec.params)
    if name is Family.Q_KRAWTCHOUK:
        return closedform.f_T_qkrawtchouk(params["p"], spec.q, spec.N, r, s)
    if name is Family.AFFINE_Q_KRAWTCHOUK:
        return closedform.f_T_affine(params["p"], spec.q, spec.N, r, s)
    if name is Family.QUANTUM_Q_KRAWTCHOUK:
        return closedform.f_T_quantum(params["p"], spec.q, spec.N, r, s)
    if name is Family.DUAL_Q_KRAWTCHOUK:
        return closedform.f_T_dual_qk(params["c"], spec.q, spec.N, r, s)
    return closedform.f_T_qracah(
        params["alpha"], params["beta"], params["gamma"], spec.q, spec.N, r, s
    )


def test_regularized_pair_identity():
    # (A; q)_m / (q**(1-m)/A; q)_n
    #   = (A; q)_{m-n} * (-1)**n * (A*q**(m-1))**n * q**(-n*(n-1)/2)
    # whenever the left side is finite; the right side extends it to the
    # removable points where numerator and denominator vanish together
    rng = random.Random(51)
    for _ in range(200):
        q = Fraction(rng.randrange(1, 7), rng.randrange(1, 7))
        if q == 1:
            continue
        A = Fraction(rng.randrange(-9, 10), rng.randrange(2, 8))
        if A == 0:
            continue
        m = rng.randrange(0, 7)
        n = rng.randrange(0, m + 1)
        denom = q_pochhammer_exact(q ** (1 - m) / A, q, n)
        if denom == 0:
            continue
        lhs = q_pochhammer_exact(A, q, m) / denom
        rhs = (
            q_pochhammer_exact(A, q, m - n)
            * (-1) ** n
            * (A * q ** (m - 1)) ** n
            * Fraction(1, q ** (n * (n - 1) // 2)) ** 0
            / q ** (n * (n - 1) // 2)
        )
        assert lhs == rhs


def test_qk_endpoint_matches_radical():
    # |f_{N,0}| = (-1;q)_N * sqrt(p**N q**(N(N+1)/2) / ((-pq;q)_N (-p q**N;q)_N))
    cases = (
        (Fraction(1, 9), RationalQ(3, 1), 2),
        (Fraction(1, 4), RationalQ(3, 1), 3),
        (Fraction(27), RationalQ(1, 3), 3),
        (Fraction(2), RationalQ(3, 5), 4),
    )
    for p, q, N in cases:
        x = q.as_fraction
        radical = float(p ** N * x ** (N * (N + 1) // 2)) / float(
            q_pochhammer_exact(-p * x, x, N) * q_pochhammer_exact(-p * x ** N, x, N)
        )
        display = float(q_pochhammer_exact(-1, x, N)) * math.sqrt(radical)
        got = closedform.f_T_qkrawtchouk(p, q, N, N, 0)
        assert got.value == pytest.approx(display, rel=1e-13)
        assert got.method is Method.CLOSED_FORM


def test_pst_point_reaches_unit_endpoint():
    for num, den, N in ((3, 1, 2), (3, 5, 3), (5, 3, 4)):
        q = RationalQ(num, den)
        p = q.as_fraction ** -N
        got = closedform.f_T_qkrawtchouk(p, q, N, N, 0)
        assert got.value == pytest.approx(1.0, abs=1e-12)


def test_pst_point_antidiagonal():
    q = RationalQ(3, 5)
    N = 3
    p = q.as_fraction ** -N
    for r in range(N + 1):
        for s in range(r, N + 1):
            got = closed_value(families.q_krawtchouk(N, q, p), r, s)
            expected = 1.0 if r + s == N else 0.0
            assert got.value == pytest.approx(expected, abs=1e-10)


def test_affine_two_site_formula():
    # N=1 endpoint reduces to 2*sqrt(p*q*(1 - p*q)), peaking at p*q = 1/2
    for p, q in ((Fraction(1, 6), RationalQ(3, 1)), (Fraction(3, 2), RationalQ(1, 3))):
        pq = p * q.as_fraction
        assert pq == Fraction(1, 2)
        got = closedform.f_T_affine(p, q, 1, 1, 0)
        assert got.value == pytest.approx(1.0, abs=1e-12)
    p, q = Fraction(1, 12), RationalQ(3, 1)
    expected = 2 * math.sqrt((1 / 4) * (1 - 1 / 4))
    assert closedform.f_T_affine(p, q, 1, 1, 0).value == pytest.approx(expected, rel=1e-13)


def test_quantum_two_site_values():
    got = closedform.f_T_quantum(Fraction(1), RationalQ(3, 1), 1, 1, 0)
    assert got.value == pytest.approx(2 * math.sqrt(2) / 3, rel=1e-13)
    # p*q = 2 is the lone two-site point with unit transfer
    top = closedform.f_T_quantum(Fraction(2, 3), RationalQ(3, 1), 1, 1, 0)
    assert top.value == pytest.approx(1.0, abs=1e-12)


def test_dual_qk_two_site_values():
    # N=1 endpoint is 2*sqrt(-c)/(1 - c), equal to 1 only at c = -1
    for q in (RationalQ(1, 3), RationalQ(3, 1)):
        assert closedform.f_T_dual_qk(Fraction(-1), q, 1, 1, 0).value == pytest.approx(
            1.0, abs=1e-12
        )
    got = closedform.f_T_dual_qk(Fraction(-4), RationalQ(1, 3), 1, 1, 0)
    assert got.value == pytest.approx(0.8, abs=1e-12)
    assert got.value == pytest.approx(2 * math.sqrt(4) / 5, rel=1e-14)


def test_dual_qk_interior_value():
    got = closedform.f_T_dual_qk(Fraction(-18), RationalQ(3, 1), 2, 2, 0)
    assert got.value == pytest.approx(0.215943996787808, abs=1e-12)
    assert got.residual_vs_direct < 1e-12


def test_qracah_two_site_value():
    got = closedform.f_T_qracah(
        Fraction(1), Fraction(2), Fraction(4), RationalQ(1, 3), 1, 1, 0
    )
    assert abs(got.value) == pytest.approx(2 * math.sqrt(10) / 7, rel=1e-13)
    assert got.value < 0


def test_qracah_single_site():
    got = closedform.f_T_qracah(
        Fraction(1, 2), Fraction(1, 2), Fraction(2), RationalQ(1, 3), 0, 0, 0
    )
    assert got.value == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("spec", [
    families.q_racah(3, RationalQ(5, 9), Fraction(19, 5), Fraction(189, 40), Fraction(45, 8)),
    families.q_racah(3, RationalQ(1, 5), Fraction(775, 27), Fraction(225, 4), Fraction(13)),
    families.q_racah(4, RationalQ(1, 3), Fraction(7), Fraction(22), Fraction(63, 5)),
    families.q_racah(3, RationalQ(1, 9), Fraction(51), Fraction(540), Fraction(351, 2)),
], ids=lambda spec: spec.describe())
def test_qracah_endpoint_with_a_negative_prefactor(spec):
    # the series prefactor is negative here, so the endpoint formula
    # negates its product magnitude
    got = closedform.closed_form_result(spec, spec.N, 0)
    assert got.method is Method.CLOSED_FORM
    _, direct = closedform.direct_spectral_sum(families.orthogonality_data(spec), spec.N, 0)
    assert abs(got.value - direct) <= 1e-9
    assert got.residual_vs_direct <= 1e-9


def test_qhahn_two_site_value():
    value = closedform.f_T_qhahn_N0(Fraction(1), Fraction(2), RationalQ(1, 3), 1)
    assert value == pytest.approx(2 * math.sqrt(6) / 7, rel=1e-13)


def test_dual_qhahn_two_site_value():
    value = closedform.f_T_dual_qhahn_N0(Fraction(3, 4), Fraction(3, 4), RationalQ(1, 3), 1)
    assert value == pytest.approx(0.8, abs=1e-12)


def test_affine_quantum_interior_coincidence():
    # the two sums give the same rational at mirrored parameters
    affine = closedform.f_T_affine(Fraction(1), RationalQ(1, 3), 2, 1, 1)
    quantum = closedform.f_T_quantum(Fraction(1), RationalQ(3, 1), 2, 1, 1)
    assert affine.value == pytest.approx(float(Fraction(31, 81)), abs=1e-13)
    assert quantum.value == pytest.approx(float(Fraction(31, 81)), abs=1e-13)


def test_quantum_large_q_odd_size():
    # q > 1 with odd N exercises the sign of the series head
    got = closedform.f_T_quantum(Fraction(9, 10), RationalQ(5, 3), 3, 2, 1)
    assert got.residual_vs_direct < 1e-9 * (1 + abs(got.value))
    spec = families.quantum_q_krawtchouk(3, RationalQ(5, 3), Fraction(9, 10))
    _, direct = closedform.direct_spectral_sum(families.orthogonality_data(spec), 2, 1)
    assert got.value == pytest.approx(direct, abs=1e-12)


def test_symmetry_residual_and_magnitude():
    rng = random.Random(52)
    for family in SERIES_FAMILIES:
        for _ in range(4):
            N = rng.randrange(1, 6)
            spec = draw_valid_spec(rng, family, N, phase=True)
            r = rng.randrange(0, N + 1)
            s = rng.randrange(0, N + 1)
            one = closed_value(spec, r, s)
            other = closed_value(spec, s, r)
            assert abs(one.value - other.value) < 1e-10
            assert abs(one.value) <= 1 + 1e-9
            assert one.residual_vs_direct < 1e-9 * (1 + abs(one.value))


def test_qk_fallback_beyond_antidiagonal():
    spec = draw_valid_spec(random.Random(53), Family.Q_KRAWTCHOUK, 3, phase=True)
    p = dict(spec.params)["p"]
    deep = closedform.f_T_qkrawtchouk(p, spec.q, 3, 3, 2)
    assert deep.method is Method.FALLBACK_DIRECT_SUM
    assert deep.residual_vs_direct == 0.0
    shallow = closedform.f_T_qkrawtchouk(p, spec.q, 3, 2, 1)
    assert shallow.method is Method.CLOSED_FORM


def test_matched_transfer_time_routes():
    qk = families.pst_spec(RationalQ(3, 5), 3)
    assert closedform.matched_transfer_time(qk).pi_multiple == 27
    # the canonical route is tried before the minimal matched time
    dual = families.dual_q_krawtchouk(2, RationalQ(1, 3), Fraction(-4))
    assert closedform.matched_transfer_time(dual).pi_multiple == 1
    # a closed form carries the time its direct sum found
    for spec in (qk, dual):
        assert closedform.closed_form_result(spec, spec.N, 0).time == \
            closedform.matched_transfer_time(spec)
    with pytest.raises(PhaseConditionUnmetError):
        closedform.matched_transfer_time(
            families.dual_q_hahn(3, RationalQ(1, 3), Fraction(1, 5), Fraction(3, 7))
        )


def test_n0_formulas_propagate_phase_condition():
    with pytest.raises(PhaseConditionUnmetError):
        closedform.f_T_dual_qhahn_N0(Fraction(1, 5), Fraction(3, 7), RationalQ(1, 3), 3)


def _with_q(spec, q):
    return families.make_spec(spec.family, spec.N, q, **dict(spec.params))


# one spec per family with a parameter outside its window, at q = 1/3;
# the three modulated spectra are chosen so no time aligns their phases
INVALID_SPECS = (
    families.q_krawtchouk(3, RationalQ(1, 3), -1),
    families.affine_q_krawtchouk(3, RationalQ(1, 3), -1),
    families.quantum_q_krawtchouk(3, RationalQ(1, 3), -1),
    families.dual_q_krawtchouk(3, RationalQ(1, 3), Fraction(3, 11)),
    families.q_hahn(3, RationalQ(1, 3), -1, Fraction(7, 10)),
    families.dual_q_hahn(3, RationalQ(1, 3), Fraction(-1, 5), Fraction(-3, 7)),
    families.q_racah(3, RationalQ(1, 3), -1, Fraction(1, 5), Fraction(3, 7)),
)
MODULATED = (Family.DUAL_Q_KRAWTCHOUK, Family.DUAL_Q_HAHN, Family.Q_RACAH)
ENDPOINT_FORMULAS = {
    Family.Q_HAHN: closedform.f_T_qhahn_N0,
    Family.DUAL_Q_HAHN: closedform.f_T_dual_qhahn_N0,
}


@pytest.mark.parametrize("spec", INVALID_SPECS, ids=lambda spec: spec.family.value)
def test_closed_form_result_error_precedence(spec):
    # one order for every entry point: record, sites, odd/odd and
    # exactness, matched time, U; each variant below would fail one of
    # the later checks, yet the record fails first, in the time search too
    N = spec.N
    if spec.family in MODULATED:
        assert evolve.matched_phase_time(families.eigenvalues(spec)) is None
    float_q, even_q = _with_q(spec, 1 / 3), _with_q(spec, RationalQ(1, 2))
    for target in (spec, float_q, even_q):
        for search in (closedform.matched_transfer_time, evolve.transfer_time):
            with pytest.raises(InvalidSpecError) as err:
                search(target)
            assert err.value.violations == families.validate(target).violations
    for target, r, s in ((spec, N, 0), (spec, 1, 1), (spec, N + 1, 0), (spec, 0, -1),
                         (float_q, N, 0), (even_q, N, 0)):
        with pytest.raises(InvalidSpecError) as err:
            closedform.closed_form_result(target, r, s)
        assert err.value.violations == families.validate(target).violations
    if spec.family in ENDPOINT_FORMULAS:
        for target in (spec, float_q, even_q):
            with pytest.raises(InvalidSpecError):
                ENDPOINT_FORMULAS[spec.family](*dict(target.params).values(), target.q, N)


@pytest.mark.parametrize("spec, error", [
    # a float q: no exact spectrum
    (families.q_hahn(3, 0.6, 0.5, 0.7), evolve.NonRationalSpectrumError),
    # 1/q = 2 is not odd/odd
    (families.q_hahn(3, RationalQ(1, 2), Fraction(1, 2), Fraction(7, 10)), NotOddOddError),
], ids=["float-q", "not-odd-odd"])
def test_qhahn_closed_form_error_order(spec, error):
    # a valid q-Hahn record: the sites are checked next, then odd/odd and
    # exactness, at the endpoint and in the interior alike
    assert families.validate(spec).valid
    for r, s in ((3, 0), (1, 1)):
        with pytest.raises(error):
            closedform.closed_form_result(spec, r, s)
    with pytest.raises(ValueError, match=r"sites must lie in 0\.\.3"):
        closedform.closed_form_result(spec, 5, 0)


def test_endpoint_value_is_a_sign_and_an_exact_square():
    # (-2/3) sqrt(3) sqrt(1/2) has the square 4/9 * 3/2 = 2/3
    assert closedform._endpoint(Fraction(-2, 3), Fraction(3), Fraction(1, 2)) == (
        -1, Fraction(2, 3))
    with pytest.raises(closedform.NegativeRadicandError, match="radicand -1/5 is negative"):
        closedform._endpoint(Fraction(1), Fraction(2), Fraction(-1, 5))


def test_closed_form_beyond_the_float_range_reads_as_inf(monkeypatch):
    # a formula whose square leaves the float range finishes as an
    # infinity of its sign, which the residual then reports
    spec = families.q_hahn(3, RationalQ(1, 3), Fraction(1, 2), Fraction(5, 4))
    values = []
    for sign in (1, -1):
        monkeypatch.setattr(closedform, "_qhahn_endpoint",
                            lambda spec, sign=sign: (sign, Fraction(10) ** 700))
        result = closedform.closed_form_result(spec, 3, 0)
        assert result.residual_vs_direct == math.inf
        values.append(result.value)
    assert sorted(values) == [-math.inf, math.inf]


def test_sites_validated():
    with pytest.raises(ValueError):
        closedform.f_T_affine(Fraction(1, 54), RationalQ(3, 1), 2, 3, 0)
    with pytest.raises(ValueError):
        closedform.direct_spectral_sum(
            families.orthogonality_data(families.pst_spec(RationalQ(3, 1), 2)), -1, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: closedform.f_T_qkrawtchouk(None, RationalQ(3, 5), 3, 3, 0),
     "parameter p must be numeric, got None"),
    (lambda: closedform.f_T_dual_qk("x", RationalQ(3, 5), 3, 3, 0),
     "parameter c must be numeric, got 'x'"),
], ids=["none", "string"])
def test_closed_forms_refuse_a_non_number(call, message):
    with pytest.raises(TypeError) as err:
        call()
    assert str(err.value) == message


def test_argmax_p():
    q = RationalQ(3, 1)
    center = Fraction(1, 9)
    grid = [center * Fraction(11, 10) ** k for k in range(-10, 11)]
    best, value = closedform.argmax_p(q, 2, grid)
    assert best == center
    assert value == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        closedform.argmax_p(q, 2, [])


def test_no_transfer_samples_stay_below_one():
    rng = random.Random(54)
    for family in (Family.AFFINE_Q_KRAWTCHOUK, Family.DUAL_Q_KRAWTCHOUK):
        for _ in range(5):
            spec = draw_valid_spec(rng, family, rng.randrange(2, 5), phase=True)
            got = closed_value(spec, spec.N, 0)
            assert abs(got.value) <= 1 - 1e-6


def test_transfer_report_time_agrees_with_matched_transfer_time():
    # one search serves both: where a matched time exists, the report
    # certifies at exactly that time
    rng = random.Random(55)
    matched_families = set()
    for family in Family:
        for phase in (False, True):
            for _ in range(3):
                spec = draw_valid_spec(rng, family, rng.randrange(1, 5), phase=phase)
                try:
                    matched = closedform.matched_transfer_time(spec)
                except PhaseConditionUnmetError:
                    continue
                assert evolve.transfer_report(spec).time == matched
                matched_families.add(family)
    assert matched_families == set(Family)
