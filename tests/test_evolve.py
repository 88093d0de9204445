"""Time evolution, exact phase arithmetic, and transfer verdicts."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import Q_POOL, draw_valid_spec, sample_spec
from qchain import chain, closedform, evolve, families
from qchain.evolve import ExactPhaseTime, ParityEntry, ParityTable, TransferVerdict
from qchain.families import Family, InvalidSpecError
from qchain.qseries import NotOddOddError, ParityClass, RationalQ


def pst_setup(num, den, N):
    spec = families.pst_spec(RationalQ(num, den), N)
    return spec, chain.analytic_decomposition(families.orthogonality_data(spec))


def test_correlation_at_zero_is_identity():
    _, dec = pst_setup(3, 5, 3)
    for r in range(4):
        for s in range(4):
            amp = evolve.correlation(dec, r, s, 0.0)
            assert amp.re == pytest.approx(1.0 if r == s else 0.0, abs=1e-14)
            assert amp.im == 0.0


def test_correlation_matrix_unitary():
    _, dec = pst_setup(3, 1, 2)
    for t in (0.3, 2.0, 11.5, 9 * math.pi):
        F = np.array([[complex(evolve.correlation(dec, r, s, t)) for s in range(3)]
                      for r in range(3)])
        assert np.max(np.abs(F @ F.conj().T - np.eye(3))) < 1e-12
    assert abs(F[2, 0]) == pytest.approx(1.0, abs=1e-10)  # transfer at T = 9 pi


def test_float_time_bound():
    _, dec = pst_setup(3, 5, 2)
    evolve.correlation(dec, 0, 0, 1e8)
    with pytest.raises(evolve.TimeBoundExceededError):
        evolve.correlation(dec, 0, 0, 1.0000001e8)
    with pytest.raises(evolve.TimeBoundExceededError):
        evolve.correlation(dec, 0, 0, -2e8)


def test_exact_phase_matches_float_route():
    _, dec = pst_setup(3, 5, 2)
    t = ExactPhaseTime(Fraction(3))
    for r in range(3):
        for s in range(3):
            exact = evolve.correlation_exact_phase(dec, r, s, t)
            approx = evolve.correlation(dec, r, s, 3 * math.pi)
            assert exact.re == pytest.approx(approx.re, abs=5e-13)
            assert exact.im == pytest.approx(approx.im, abs=5e-13)


def test_amplitude_magnitude():
    amp = evolve.Amplitude(re=0.6, im=-0.8)
    assert amp.magnitude == pytest.approx(1.0, rel=1e-15)


def test_exact_phase_time_forms():
    t = ExactPhaseTime(Fraction(9))
    assert str(t) == "9*pi"
    assert t.to_float() == pytest.approx(9 * math.pi, rel=1e-16)
    assert t.doubled().pi_multiple == 18
    third = ExactPhaseTime(Fraction(1, 3))
    assert str(third) == "1/3*pi"


def test_pst_time_values():
    assert evolve.pst_time(RationalQ(3, 1), 4).pi_multiple == 81
    assert evolve.pst_time(RationalQ(3, 5), 3).pi_multiple == 27
    with pytest.raises(NotOddOddError):
        evolve.pst_time(RationalQ(1, 2), 3)


def test_endpoint_transfer_at_pst_time():
    for num, den, N in ((3, 1, 3), (3, 5, 4), (5, 3, 2)):
        _, dec = pst_setup(num, den, N)
        t = evolve.pst_time(RationalQ(num, den), N)
        amp = evolve.correlation_exact_phase(dec, N, 0, t)
        assert amp.magnitude == pytest.approx(1.0, abs=1e-12)


def test_huge_pi_multiple_keeps_precision():
    # 3**20 * pi is far beyond the float-route bound
    q = RationalQ(3, 1)
    _, dec = pst_setup(3, 1, 20)
    t = evolve.pst_time(q, 20)
    assert t.to_float() > 1e9
    amp = evolve.correlation_exact_phase(dec, 20, 0, t)
    assert amp.magnitude == pytest.approx(1.0, abs=1e-12)


def test_phase_residue_parity_at_transfer_time():
    q = RationalQ(3, 5)
    spectrum = families.eigenvalues(families.pst_spec(q, 3))
    t = evolve.pst_time(q, 3)
    residues = evolve.phase_residues(spectrum, t)
    assert all(res.denominator == 1 for res in residues)
    assert [int(res) % 2 for res in residues] == [k % 2 for k in range(4)]
    doubled = evolve.phase_residues(spectrum, t.doubled())
    assert all(res.denominator == 1 and int(res) % 2 == 0 for res in doubled)


def test_exact_phase_matrix_period_and_mirror():
    q = RationalQ(3, 1)
    data = families.orthogonality_data(families.pst_spec(q, 3))
    t = evolve.pst_time(q, 3)
    F = evolve.exact_phase_matrix(data, t)
    target = np.fliplr(np.eye(4))
    assert np.max(np.abs(F - target)) < 1e-12
    F2 = evolve.exact_phase_matrix(data, t.doubled())
    assert np.max(np.abs(F2 - np.eye(4))) < 1e-12


@st.composite
def phase_arguments(draw):
    """(tau, eps) with eps a Fraction and tau a rational multiple, often an
    integer one of 1/eps's denominator so that tau*eps is an integer."""
    eps = Fraction(draw(st.integers(-10 ** 30, 10 ** 30)), draw(st.integers(1, 10 ** 12)))
    scale = draw(st.sampled_from((1, 1, 1, 2, 3, 10 ** 9 + 7)))
    tau = Fraction(draw(st.integers(-3 ** 60, 3 ** 60)) * eps.denominator, scale)
    return tau, eps


@settings(max_examples=500, deadline=None)
@given(phase_arguments())
@example((Fraction(9), Fraction(4, 9)))
@example((Fraction(3) ** 40, Fraction(1, 3) + Fraction(1, 9)))
@example((Fraction(1, 2), Fraction(1)))
def test_phase_is_reduced_on_integers(arguments):
    # the phase of tau*eps, reduced modulo 2 on integers, is bit for bit
    # the one of its Fraction residue, and exactly +-1 on an integer one
    tau, eps = arguments
    residue = (tau * eps) % 2
    phase = evolve._phase(tau, eps)
    if residue.denominator == 1:
        assert (phase.real, phase.imag) == ((1.0 if residue == 0 else -1.0), 0.0)
    else:
        angle = -math.pi * float(residue)
        assert phase.real.hex() == math.cos(angle).hex()
        assert phase.imag.hex() == math.sin(angle).hex()


def reference_parity_table(spectrum, t):
    """phase_parity_check in plain Fraction arithmetic."""
    entries = []
    for k, eps in enumerate(spectrum):
        value = t.pi_multiple * eps
        is_integer = value.denominator == 1
        entries.append(ParityEntry(k, value, is_integer, is_integer and int(value) % 2 == k % 2))
    return ParityTable(t, tuple(entries))


def reference_search(data):
    """The three-step rule: Q**N pi, then P**N pi, then the matched time,
    else Q**N pi; each candidate checked by a full Fraction parity table."""
    q, N, spectrum = data.spec.q, data.spec.N, data.spectrum
    canonical = reference_parity_table(spectrum, ExactPhaseTime(Fraction(q.num) ** N))
    if canonical.all_pass:
        return canonical.time
    mirrored = reference_parity_table(spectrum, ExactPhaseTime(Fraction(q.den) ** N))
    if mirrored.all_pass:
        return mirrored.time
    matched = evolve.matched_phase_time(spectrum)
    return canonical.time if matched is None else matched


@st.composite
def valid_exact_specs(draw, min_N=0):
    """A valid sampler draw of any family, N = min_N..6, q from the odd/odd pool."""
    family = draw(st.sampled_from(tuple(Family)))
    spec = sample_spec(draw(st.randoms(use_true_random=False)), family, draw(st.integers(min_N, 6)))
    if not families.validate(spec).valid:
        reject()
    return spec


@settings(max_examples=300, deadline=None)
@given(valid_exact_specs())
# the canonical time, P**N, the matched solver, and no aligning time
@example(families.pst_spec(RationalQ(3, 5), 4))
@example(families.dual_q_hahn(1, RationalQ(1, 3), Fraction(4), Fraction(19, 2)))
@example(families.dual_q_krawtchouk(3, RationalQ(3), Fraction(-2001, 100)))
@example(families.dual_q_hahn(2, RationalQ(1, 3), Fraction(18), Fraction(57, 2)))
def test_time_search_equals_the_three_step_rule(spec):
    # the search tests its candidates on integers, as odd multiples of
    # the matched time; the answer is the plain rule's
    data = families.orthogonality_data(spec)
    assert evolve.search_transfer_time(data) == reference_search(data)


@settings(max_examples=300, deadline=None)
@given(valid_exact_specs(min_N=1))
def test_the_aligned_times_are_the_odd_multiples_of_the_matched_time(spec):
    # integrality puts tau in (M/g) Z; every phase is then (-1)**k at the
    # odd multiples of the matched time and at no even one, and with no
    # matched time neither Q**N pi nor P**N pi aligns
    q, N, spectrum = spec.q, spec.N, families.eigenvalues(spec)
    matched = evolve.matched_phase_time(spectrum)
    if matched is None:
        for base in (q.num, q.den):
            t = ExactPhaseTime(Fraction(base) ** N)
            assert not evolve.phase_parity_check(spectrum, t).all_pass
        return
    for j in range(1, 6):
        table = evolve.phase_parity_check(spectrum, ExactPhaseTime(j * matched.pi_multiple))
        assert table.all_pass == (j % 2 == 1)


def test_phase_parity_check_table():
    q = RationalQ(3, 5)
    spectrum = families.eigenvalues(families.pst_spec(q, 3))
    table = evolve.phase_parity_check(spectrum, evolve.pst_time(q, 3))
    assert len(table.entries) == 4
    assert table.all_pass
    for entry in table.entries:
        assert entry.is_integer
        assert entry.parity_matches
        assert entry.k in range(4)


def test_bracket_integer_values_and_parity():
    q = RationalQ(3, 1)
    assert [evolve.bracket_integer(q, 4, k) for k in range(5)] == [0, 27, 36, 39, 40]
    for num, den in ((3, 1), (5, 3), (1, 3), (7, 5), (9, 7)):
        qq = RationalQ(num, den)
        for k in range(13):
            assert evolve.bracket_integer(qq, 12, k) % 2 == k % 2
    # even 2-adic classes have k-independent odd parity
    for num, den in ((1, 2), (2, 1), (3, 4), (4, 3), (5, 8)):
        qq = RationalQ(num, den)
        parities = {evolve.bracket_integer(qq, 12, k) % 2 for k in range(1, 13)}
        assert parities == {1}


@pytest.mark.parametrize("call, error, message", [
    (lambda: evolve.correlation_exact_phase(
        chain.numeric_decomposition(np.array([[0.0, -1.0], [-1.0, 0.0]])),
        1, 0, ExactPhaseTime(Fraction(1))),
     evolve.NonRationalSpectrumError,
     "the decomposition has no exact eigenvalues; "
     "exact phases need rational q and rational parameters"),
    (lambda: evolve.bracket_integer(RationalQ(3, 5), 2, 3), ValueError,
     "need 0 <= k <= N, got k=3, N=2"),
    (lambda: evolve.bracket_integer(RationalQ(3, 5), 2, -1), ValueError,
     "need 0 <= k <= N, got k=-1, N=2"),
], ids=["exact-phase-without-exact-eigenvalues", "bracket-k-above-N", "bracket-k-negative"])
def test_evolve_refusals(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_classify_q():
    odd = evolve.classify_q(RationalQ(3, 5))
    assert odd.parity_class is ParityClass.ODD_ODD
    assert odd.pst_possible
    even = evolve.classify_q(RationalQ(1, 2))
    assert even.parity_class is ParityClass.EVEN_OVER_ODD
    assert not even.pst_possible
    assert even.explanation
    over_even = evolve.classify_q(RationalQ(4, 3))
    assert over_even.parity_class is ParityClass.ODD_OVER_EVEN
    assert not over_even.pst_possible


def test_matched_phase_time_cases():
    matched = evolve.matched_phase_time(families.eigenvalues(
        families.dual_q_krawtchouk(2, RationalQ(1, 3), Fraction(-4))))
    assert matched is not None
    assert matched.pi_multiple == Fraction(1, 3)
    none = evolve.matched_phase_time(families.eigenvalues(
        families.dual_q_hahn(3, RationalQ(1, 3), Fraction(1, 5), Fraction(3, 7))))
    assert none is None
    # a lone nonzero eigenvalue leaves no k >= 1 to fix a parity
    assert evolve.matched_phase_time([Fraction(1)]) is None
    # an all-zero spectrum aligns at every time with no k >= 1, and at
    # none once eps_1 = 0 must be odd
    assert evolve.matched_phase_time([]).pi_multiple == 1
    assert evolve.matched_phase_time([Fraction(0)]).pi_multiple == 1
    assert evolve.matched_phase_time([Fraction(0)] * 2) is None
    assert evolve.matched_phase_time([Fraction(0)] * 3) is None
    # eps_0 != 0 enters the lattice M/g but not the parity test
    spectrum = [Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)]
    matched = evolve.matched_phase_time(spectrum)
    assert matched.pi_multiple == 3
    table = evolve.phase_parity_check(spectrum, matched)
    assert [e.k for e in table.entries if not e.parity_matches] == [0]


def test_transfer_report_perfect():
    report = evolve.transfer_report(families.pst_spec(RationalQ(3, 5), 3))
    assert report.verdict is TransferVerdict.PERFECT
    assert report.time.pi_multiple == 27
    assert report.parity.all_pass
    assert report.endpoint_magnitude == pytest.approx(1.0, abs=1e-12)
    assert report.period_residual < 1e-12
    assert report.mirror_residual is not None and report.mirror_residual < 1e-12
    assert len(report.site_amplitudes) == 4
    assert report.site_amplitudes[-1].magnitude == pytest.approx(
        report.endpoint_magnitude, rel=1e-15
    )


def test_transfer_report_imperfect():
    spec = families.affine_q_krawtchouk(2, RationalQ(3, 1), Fraction(1, 54))
    report = evolve.transfer_report(spec)
    assert report.verdict is TransferVerdict.IMPERFECT
    assert report.parity.all_pass
    assert report.endpoint_magnitude < 1 - 1e-6
    assert report.mirror_residual is None


def test_transfer_report_without_matched_time():
    spec = families.dual_q_hahn(3, RationalQ(1, 3), Fraction(1, 5), Fraction(3, 7))
    report = evolve.transfer_report(spec)
    assert report.verdict is TransferVerdict.IMPERFECT
    assert not report.parity.all_pass
    assert report.time.pi_multiple == 1
    assert report.endpoint_magnitude < 1 - 1e-6


def test_transfer_time_tries_p_to_the_n_before_the_matched_solver():
    # 1/q = P/Q = 3/1: the canonical time Q**N pi = pi fails, P**N pi =
    # 9 pi aligns every phase, and the search takes it before the
    # matched solver's smaller 3 pi
    spec = families.dual_q_krawtchouk(2, RationalQ(1, 3), Fraction(-2, 9))
    data = families.orthogonality_data(spec)
    t = evolve.search_transfer_time(data)
    table = evolve.phase_parity_check(data.spectrum, t)
    assert t.pi_multiple == 9
    assert table.time == t and table.all_pass
    assert evolve.matched_phase_time(data.spectrum).pi_multiple == 3
    assert evolve.transfer_time(spec) == closedform.matched_transfer_time(spec) == t
    assert evolve.transfer_report(spec).time == t


@pytest.mark.parametrize("spec", [
    families.quantum_q_krawtchouk(1, RationalQ(1, 3), 6),
    families.q_hahn(1, RationalQ(3, 5), Fraction(10, 3), Fraction(5, 2)),
    families.dual_q_krawtchouk(1, RationalQ(1, 3), -1),
], ids=lambda spec: spec.family.value)
def test_every_perfect_report_has_a_mirror_residual(spec):
    # perfect transfer needs a mirror-symmetric chain; the record decides
    # symmetry exactly in every family, here on N = 1 chains with h_0 = h_1
    # outside q-Krawtchouk
    report = evolve.transfer_report(spec)
    assert report.perfect
    assert families.orthogonality_data(spec).mirror_symmetric
    assert report.mirror_residual is not None and report.mirror_residual < 1e-12


def test_mirror_test_agrees_with_the_chain():
    # exact symmetry on (a_n, c_n) against the float chain's residual
    rng = random.Random(43)
    for family in Family:
        for N in (1, 2, 3):
            data = families.orthogonality_data(draw_valid_spec(rng, family, N))
            assert not data.mirror_symmetric
            assert data.chain.mirror_residual() > 1e-9
    for N in (0, 1, 2, 5):
        data = families.orthogonality_data(families.pst_spec(RationalQ(1, 3), N))
        assert data.mirror_symmetric
        assert data.chain.mirror_residual() < 1e-12


def test_float_q_exact_phase_entry_points_refuse():
    spec = families.q_krawtchouk(3, 0.6, 2.0)
    for call in (
        lambda: evolve.transfer_report(spec),
        lambda: evolve.transfer_time(spec),
        lambda: closedform.matched_transfer_time(spec),
        lambda: closedform.closed_form_result(spec, 3, 0),
    ):
        with pytest.raises(evolve.NonRationalSpectrumError, match="exact phases need rational q"):
            call()


@pytest.mark.parametrize("spec, error", [
    (families.q_krawtchouk(3, RationalQ(1, 2), 5), NotOddOddError),
    # a float parameter: the spectrum is not exact
    (families.q_krawtchouk(3, RationalQ(3, 5), 2.0), evolve.NonRationalSpectrumError),
    # an exact q-Racah spec that fails Favard's criterion
    (families.q_racah(1, RationalQ(1, 3), Fraction(69, 16), Fraction(104, 23), Fraction(27, 8)),
     InvalidSpecError),
    (families.dual_q_krawtchouk(3, RationalQ(1, 3), -1), None),
    # invalid and 1/q = 2: the record fails before the odd/odd check
    (families.q_krawtchouk(3, RationalQ(1, 2), -1), InvalidSpecError),
])
def test_transfer_report_error_precedence(spec, error):
    # the record first, then odd/odd, then the exact spectrum
    if error is None:
        assert isinstance(evolve.transfer_report(spec), evolve.TransferReport)
        return
    with pytest.raises(error):
        evolve.transfer_report(spec)


def test_random_specs_unit_magnitudes():
    rng = random.Random(41)
    for family in Family:
        spec = draw_valid_spec(rng, family, 4)
        report = evolve.transfer_report(spec)
        assert report.endpoint_magnitude <= 1 + 1e-9
        for amp in report.site_amplitudes:
            assert amp.magnitude <= 1 + 1e-9
