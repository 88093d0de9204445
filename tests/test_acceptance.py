"""End-to-end acceptance checks, one per criterion, each reporting a
single pass or fail line in the terminal summary.

Random draws are seeded and use parameter windows where every stated
bound is meaningful: the absolute spectral-residual checks sample
regimes with moderate eigenvalue scale (float64 cannot certify an
absolute 1e-10 against spectra of size 1e9; the scale-free relative
property across the wild regimes is covered by the unit tests).
"""

import math
import random
from fractions import Fraction

import numpy as np

from conftest import (
    SERIES_FAMILIES,
    SWEEP_FAMILIES,
    draw_valid_spec,
    rational_between,
    record_criterion,
    sweep_axes,
)
from qchain import chain, closedform, evolve, families
from qchain.families import Family
from qchain.qseries import RationalQ

PQ_PAIRS = ((1, 3), (3, 5), (5, 3), (1, 5), (7, 3))


def pst_cases():
    for P, Q in PQ_PAIRS:
        q = RationalQ(Q, P)
        for N in range(1, 9):
            yield families.pst_spec(q, N), evolve.pst_time(q, N)


def test_criterion_01_exact_transfer():
    worst = 0.0
    count = 0
    for spec, t in pst_cases():
        dec = chain.analytic_decomposition(families.orthogonality_data(spec))
        amp = evolve.correlation_exact_phase(dec, spec.N, 0, t)
        worst = max(worst, abs(amp.magnitude - 1.0))
        count += 1
    record_criterion(
        1,
        worst < 1e-10,
        f"|f_N0(Q^N pi)| = 1 within 1e-10 on {count} chains (worst {worst:.2e})",
    )


def test_criterion_02_mirror_transfer():
    worst = 0.0
    for spec, t in pst_cases():
        F = evolve.exact_phase_matrix(families.orthogonality_data(spec), t)
        target = np.fliplr(np.eye(spec.N + 1))
        worst = max(worst, float(np.max(np.abs(F - target))))
    record_criterion(
        2, worst < 1e-10, f"f_rs(T) = delta(r+s, N) within 1e-10 (worst {worst:.2e})"
    )


def test_criterion_03_periodicity():
    worst = 0.0
    all_even = True
    for spec, t in pst_cases():
        doubled = t.doubled()
        F = evolve.exact_phase_matrix(families.orthogonality_data(spec), doubled)
        worst = max(worst, float(np.max(np.abs(F - np.eye(spec.N + 1)))))
        for res in evolve.phase_residues(families.eigenvalues(spec), doubled):
            all_even = all_even and res.denominator == 1 and int(res) % 2 == 0
    record_criterion(
        3,
        worst < 1e-10 and all_even,
        f"f(2T) = I within 1e-10 (worst {worst:.2e}); residues all even: {all_even}",
    )


def _moderate_scale_draw(rng, family):
    # windows chosen so the eigenvalue scale stays small enough for the
    # absolute residual bound to be attainable in float64
    N = rng.randrange(1, 11)
    if family is Family.Q_RACAH:
        q = rng.choice((RationalQ(9, 11), RationalQ(13, 15)))
        x = q.as_fraction
        return families.q_racah(
            N,
            q,
            rational_between(rng, x ** -1 / 4, Fraction(3, 4) * x ** -1),
            rational_between(rng, x ** -1 / 4, Fraction(3, 4) * x ** -1),
            rational_between(rng, x ** -N, Fraction(5, 4) * x ** -N),
        )
    q = rng.choice((RationalQ(3, 1), RationalQ(5, 3), RationalQ(9, 5)))
    x = q.as_fraction
    if family is Family.Q_KRAWTCHOUK:
        return families.q_krawtchouk(N, q, rational_between(rng, x ** -N / 50, 3 * x ** -N))
    if family is Family.AFFINE_Q_KRAWTCHOUK:
        return families.affine_q_krawtchouk(N, q, rational_between(rng, 0, x ** -N))
    if family is Family.QUANTUM_Q_KRAWTCHOUK:
        return families.quantum_q_krawtchouk(N, q, rational_between(rng, x ** -1, 5 * x ** -1))
    if family is Family.DUAL_Q_KRAWTCHOUK:
        return families.dual_q_krawtchouk(N, q, -rational_between(rng, Fraction(1, 50), 40))
    if family is Family.Q_HAHN:
        lo, hi = x ** -1, 9 * x ** -1
        return families.q_hahn(N, q, rational_between(rng, lo, hi), rational_between(rng, lo, hi))
    return families.dual_q_hahn(
        N, q, rational_between(rng, 0, x ** -N), rational_between(rng, 0, x ** -N)
    )


def test_criterion_04_spectral_structure():
    rng = random.Random(104)
    worst = 0.0
    for family in Family:
        drawn = 0
        while drawn < 50:
            spec = _moderate_scale_draw(rng, family)
            if not families.validate(spec).valid:
                continue
            drawn += 1
            data = families.orthogonality_data(spec)
            dec = chain.analytic_decomposition(data)
            M = chain.assemble_matrix(data.chain)
            worst = max(worst, chain.verify_decomposition(dec, M).max_residual())
    record_criterion(
        4,
        worst < 1e-10,
        f"orthogonality, reconstruction, eigensolver gap < 1e-10 on 350 specs (worst {worst:.2e})",
    )


def test_criterion_05_closed_form_vs_direct():
    rng = random.Random(105)
    worst = 0.0
    for family in SERIES_FAMILIES:
        for _ in range(50):
            N = rng.randrange(1, 7)
            spec = draw_valid_spec(rng, family, N, phase=True)
            r = rng.randrange(0, N + 1)
            s = rng.randrange(0, N + 1)
            params = dict(spec.params)
            if family is Family.Q_KRAWTCHOUK:
                got = closedform.f_T_qkrawtchouk(params["p"], spec.q, N, r, s)
            elif family is Family.AFFINE_Q_KRAWTCHOUK:
                got = closedform.f_T_affine(params["p"], spec.q, N, r, s)
            elif family is Family.QUANTUM_Q_KRAWTCHOUK:
                got = closedform.f_T_quantum(params["p"], spec.q, N, r, s)
            elif family is Family.DUAL_Q_KRAWTCHOUK:
                got = closedform.f_T_dual_qk(params["c"], spec.q, N, r, s)
            else:
                got = closedform.f_T_qracah(
                    params["alpha"], params["beta"], params["gamma"], spec.q, N, r, s
                )
            _, direct = closedform.direct_spectral_sum(families.orthogonality_data(spec), r, s)
            worst = max(worst, abs(got.value - direct) / (1 + abs(direct)))
    record_criterion(
        5,
        worst < 1e-9,
        f"five closed forms vs direct sums, 250 specs, relative error < 1e-9 (worst {worst:.2e})",
    )


def test_criterion_06_endpoint_hand_values():
    q13 = RationalQ(1, 3)
    cases = []

    affine = closedform.f_T_affine(Fraction(1, 6), RationalQ(3, 1), 1, 1, 0)
    _, affine_direct = closedform.direct_spectral_sum(families.orthogonality_data(
        families.affine_q_krawtchouk(1, RationalQ(3, 1), Fraction(1, 6))), 1, 0)
    cases.append(("affine peak", affine.value, 1.0, affine_direct))

    quantum = closedform.f_T_quantum(Fraction(1), RationalQ(3, 1), 1, 1, 0)
    _, quantum_direct = closedform.direct_spectral_sum(families.orthogonality_data(
        families.quantum_q_krawtchouk(1, RationalQ(3, 1), Fraction(1))), 1, 0)
    cases.append(("quantum", quantum.value, 2 * math.sqrt(2) / 3, quantum_direct))

    dual = closedform.f_T_dual_qk(Fraction(-4), q13, 1, 1, 0)
    _, dual_direct = closedform.direct_spectral_sum(families.orthogonality_data(
        families.dual_q_krawtchouk(1, q13, Fraction(-4))), 1, 0)
    cases.append(("dual qK", dual.value, 0.8, dual_direct))

    racah = closedform.f_T_qracah(Fraction(1), Fraction(2), Fraction(4), q13, 1, 1, 0)
    _, racah_direct = closedform.direct_spectral_sum(families.orthogonality_data(
        families.q_racah(1, q13, Fraction(1), Fraction(2), Fraction(4))), 1, 0)
    cases.append(("q-Racah", abs(racah.value), 2 * math.sqrt(10) / 7, abs(racah_direct)))

    hahn = closedform.f_T_qhahn_N0(Fraction(1), Fraction(2), q13, 1)
    _, hahn_direct = closedform.direct_spectral_sum(families.orthogonality_data(
        families.q_hahn(1, q13, Fraction(1), Fraction(2))), 1, 0)
    cases.append(("q-Hahn", hahn, 2 * math.sqrt(6) / 7, abs(hahn_direct)))

    dhahn = closedform.f_T_dual_qhahn_N0(Fraction(3, 4), Fraction(3, 4), q13, 1)
    _, dhahn_direct = closedform.direct_spectral_sum(families.orthogonality_data(
        families.dual_q_hahn(1, q13, Fraction(3, 4), Fraction(3, 4))), 1, 0)
    cases.append(("dual q-Hahn", dhahn, 0.8, abs(dhahn_direct)))

    worst_formula = max(abs(value - expected) for _, value, expected, _ in cases)
    worst_direct = max(abs(value - abs(direct)) for _, value, _, direct in cases)
    record_criterion(
        6,
        worst_formula < 1e-12 and worst_direct < 1e-9,
        "six endpoint hand values within 1e-12 of formula and 1e-9 of direct "
        f"(worst {worst_formula:.2e}, {worst_direct:.2e})",
    )


def test_criterion_07_no_transfer_sweeps():
    top = 0.0
    points = 0
    for family in SWEEP_FAMILIES:
        for N in range(2, 7):
            for _, specs in sweep_axes(family, N):
                for spec in specs:
                    assert families.validate(spec).valid
                    top = max(top, evolve.transfer_report(spec).endpoint_magnitude)
                    points += 1
    record_criterion(
        7,
        top <= 1 - 1e-6,
        f"six families stay below 1 - 1e-6 on {points} grid points (max {top:.6f})",
    )


def test_criterion_08_parity_classification():
    even_ok = True
    for num, den in ((1, 2), (2, 1), (3, 4), (4, 3), (5, 8)):
        q = RationalQ(num, den)
        parities = {evolve.bracket_integer(q, 12, k) % 2 for k in range(1, 13)}
        even_ok = even_ok and parities == {1}
    odd_ok = True
    for num, den in ((3, 1), (5, 3), (1, 3), (7, 5), (9, 7)):
        q = RationalQ(num, den)
        for k in range(13):
            odd_ok = odd_ok and evolve.bracket_integer(q, 12, k) % 2 == k % 2
    record_criterion(
        8,
        even_ok and odd_ok,
        "bracket parity exact for k <= 12: five even classes k-independent, "
        "five odd/odd classes alternating",
    )


def test_criterion_09_classical_limit():
    worst = 0.0
    for q in (RationalQ(10001, 10000), RationalQ(9999, 10000)):
        for N in range(1, 9):
            J, _ = families.pst_chain_closed_form(q, N)
            classical = np.array(
                [math.sqrt((n + 1) * (N - n)) / 2 for n in range(N)]
            )
            worst = max(worst, float(np.max(np.abs(J - classical) / classical)))
    record_criterion(
        9,
        worst < 1e-3,
        f"couplings at q = 1 +/- 1e-4 match sqrt((n+1)(N-n))/2 within 1e-3 (worst {worst:.2e})",
    )


def test_criterion_10_grid_argmax():
    q3 = RationalQ(3, 1)
    center = Fraction(1, 9)
    grid = [center * Fraction(11, 10) ** k for k in range(-50, 51)]
    best, value = closedform.argmax_p(q3, 2, grid)
    first_ok = best == center and abs(value - 1.0) < 1e-10

    q35 = RationalQ(3, 5)
    center2 = Fraction(125, 27)
    grid2 = [center2 * Fraction(11, 10) ** k for k in range(-20, 21)]
    best2, value2 = closedform.argmax_p(q35, 3, grid2)
    second_ok = best2 == center2 and abs(value2 - 1.0) < 1e-10

    record_criterion(
        10,
        first_ok and second_ok,
        f"argmax over log grids returns p = q^-N with value 1 "
        f"(got p = {best}, {best2})",
    )
