"""Analytic transfer-time values of the correlation amplitudes.

At a phase-matched time every phase equals (-1)**k and the spectral sum
for f_{r,s} collapses family by family: a balanced 4phi3 for the
q-Krawtchouk chain, double sums with 3phi3 kernels for the affine and
quantum variants, a 3phi2-kernel double sum for the dual chain, a
very-well-poised 10phi9-kernel double sum for q-Racah, and bare
product endpoint formulas for the q-Hahn and dual q-Hahn limits.

The double sums carry removable singularities: a weight factor
(A; q)_m vanishes at the same indices where a kernel denominator
(q^(1-m)/A; q)_n blows up, and the product has a finite limit that
contributes.  Both factors are therefore cancelled analytically
through

    (A; q)_m / (q^(1-m)/A; q)_n
        = (A; q)_{m-n} (-1)^n (A q^(m-1))^n q^(-n(n-1)/2),

which is an identity of rational functions, so every term is computed
in exact Fraction arithmetic with no limits taken numerically.  The
only floating steps are the final square roots of norms, taken through
LogSign so nothing can overflow.

The series are stated in the raw polynomial gauge, where couplings may
be negative; results are mapped to the positive-coupling chain by the
site sign vector before being returned, and every result carries the
residual against the brute-force spectral sum at the same phases, so
the transformation identities behind the closed forms are verified
numerically on each call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

import numpy as np

from . import families
from .evolve import ExactPhaseTime, phase_parity_check, transfer_time
from .families import Family, FamilySpec
from .qseries import (
    DenominatorZeroError,
    LogSign,
    RationalQ,
    basic_hypergeometric_exact,
    q_pochhammer_exact,
    vwp_pair_reduce_exact,
)

__all__ = [
    "ClosedFormResult",
    "Method",
    "NegativeRadicandError",
    "PhaseConditionUnmetError",
    "argmax_p",
    "closed_form_result",
    "direct_spectral_sum",
    "f_T_affine",
    "f_T_dual_qhahn_N0",
    "f_T_dual_qk",
    "f_T_qhahn_N0",
    "f_T_qkrawtchouk",
    "f_T_qracah",
    "f_T_quantum",
    "matched_transfer_time",
]

Parameter = Union[int, float, Fraction]


class PhaseConditionUnmetError(ValueError):
    """No exact time aligns every phase to (-1)**k for this spec."""


class NegativeRadicandError(ArithmeticError):
    """An endpoint radicand went negative; the spec validation should
    have excluded this parameter point."""


class Method(enum.Enum):
    CLOSED_FORM = "closed-form"
    FALLBACK_DIRECT_SUM = "fallback-direct-sum"


@dataclass(frozen=True)
class ClosedFormResult:
    value: float
    method: Method
    residual_vs_direct: float


# ----------------------------------------------------------------------
# shared plumbing

def _fraction(value: Parameter, name: str) -> Fraction:
    """Exact view of a parameter; floats convert to their exact binary
    rational so the phase arithmetic stays exact."""
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"parameter {name} must be numeric, got {value!r}") from exc


def matched_transfer_time(spec: FamilySpec) -> ExactPhaseTime:
    """A time with every phase equal to (-1)**k, or an error.

    The time is the one :func:`qchain.evolve.transfer_time` picks (Q**N,
    then P**N times pi for 1/q = P/Q, then the minimal matched time);
    raises when its parity table fails, which means the spectrum admits
    no such time at all.
    """
    t = transfer_time(spec)
    if phase_parity_check(spec, t).all_pass:
        return t
    raise PhaseConditionUnmetError(
        f"no rational multiple of pi aligns the phases of {spec.describe()} "
        "to (-1)**k"
    )


def direct_spectral_sum(spec: FamilySpec, r: int, s: int) -> float:
    """Brute-force f_{r,s} at a matched time.

    With phases (-1)**k the correlation is a signed real sum over the
    orthonormal rows; the matched time must exist but its value does
    not enter the sum.
    """
    _check_sites(spec.N, r, s)
    matched_transfer_time(spec)
    U = families.orthonormal_matrix(spec)
    alternating = (-1.0) ** np.arange(spec.N + 1)
    return float(np.sum(U[r] * U[s] * alternating))


def _check_sites(N: int, r: int, s: int) -> None:
    if not (0 <= r <= N and 0 <= s <= N):
        raise ValueError(f"sites must lie in 0..{N}, got (r, s) = ({r}, {s})")


def _gauge_sign(spec: FamilySpec, r: int, s: int) -> float:
    # the series live in the raw polynomial gauge; our chain flips row
    # signs to keep the couplings positive
    signs = families.site_signs(spec)
    return float(signs[r] * signs[s])


def _norm_scale(spec: FamilySpec, r: int, s: int) -> LogSign:
    norms = families.orthogonality_data(spec).norms
    return (norms[r] * norms[s]).sqrt()


def _poch(a: Fraction, q: Fraction, n: int) -> Fraction:
    return q_pochhammer_exact(a, q, n)


def _sqrt_of(value: Fraction) -> LogSign:
    if value < 0:
        raise NegativeRadicandError(
            f"endpoint radicand {value} is negative; the parameter point "
            "should not have validated"
        )
    return LogSign.from_fraction(value).sqrt()


def _regularized_pair(A: Fraction, qx: Fraction, m: int, n: int) -> Fraction:
    """(A; q)_m / (q^(1-m)/A; q)_n with the shared zero cancelled.

    The bases multiply to q^(1-m), so the last n factors of the
    numerator match the n factors of the denominator up to explicit
    nonzero monomials; requires n <= m.
    """
    return (
        _poch(A, qx, m - n)
        * Fraction(-1) ** n
        * (A * qx ** (m - 1)) ** n
        * qx ** (-(n * (n - 1) // 2))
    )


def _finish(
    spec: FamilySpec, r: int, s: int, rational: Fraction, direct: float
) -> ClosedFormResult:
    value = _gauge_sign(spec, r, s) * (
        LogSign.from_fraction(rational) / _norm_scale(spec, r, s)
    ).to_float()
    return ClosedFormResult(value, Method.CLOSED_FORM, abs(value - direct))


def _endpoint_result(
    spec: FamilySpec, value_ls: LogSign, direct: float
) -> ClosedFormResult:
    value = _gauge_sign(spec, spec.N, 0) * value_ls.to_float()
    return ClosedFormResult(value, Method.CLOSED_FORM, abs(value - direct))


def _is_endpoint(N: int, r: int, s: int) -> bool:
    return {r, s} == ({0, N} if N else {0})


# ----------------------------------------------------------------------
# q-Krawtchouk: balanced 4phi3

def f_T_qkrawtchouk(
    p: Parameter, q: RationalQ, N: int, r: int, s: int
) -> ClosedFormResult:
    """f_{r,s}(T) for the q-Krawtchouk chain via a balanced 4phi3.

    For r + s > N the series would terminate through a vanishing
    denominator parameter instead of a numerator one, which breaks the
    identity behind the closed form; those entries fall back to the
    direct spectral sum and are marked accordingly.  At the transfer
    point p = q**-N the prefactor contains (1; q)_{N-r-s}, which kills
    every entry except the anti-diagonal r + s = N.
    """
    px = _fraction(p, "p")
    spec = families.q_krawtchouk(N, q, px)
    families.require_valid(spec)
    direct = direct_spectral_sum(spec, r, s)
    if r + s > N:
        return ClosedFormResult(direct, Method.FALLBACK_DIRECT_SUM, 0.0)
    qx = q.as_fraction
    pre = (
        _poch(-qx ** -s, qx, r)
        * _poch(-qx ** -r, qx, s)
        * _poch(qx ** -N / px, qx, N - r - s)
        * _poch(qx ** -N, qx, r + s)
        / (_poch(qx ** -N, qx, r) * _poch(qx ** -N, qx, s))
    )
    try:
        series = basic_hypergeometric_exact(
            [qx ** -r, qx ** -s, px * qx ** N, qx ** (-r - s) / px],
            [-qx ** -r, -qx ** -s, qx ** (1 + N - r - s)],
            qx,
            qx,
        )
    except DenominatorZeroError:
        return ClosedFormResult(direct, Method.FALLBACK_DIRECT_SUM, 0.0)
    return _finish(spec, r, s, pre * series, direct)


def argmax_p(
    q: RationalQ, N: int, p_grid: Sequence[Parameter]
) -> Tuple[Parameter, float]:
    """Grid maximiser of |f_{N,0}(T)| over the coupling parameter p."""
    if len(p_grid) == 0:
        raise ValueError("p grid must not be empty")
    best_p = None
    best_value = -1.0
    for p in p_grid:
        value = abs(f_T_qkrawtchouk(p, q, N, N, 0).value)
        if value > best_value:
            best_p, best_value = p, value
    return best_p, best_value


# ----------------------------------------------------------------------
# affine q-Krawtchouk: 3phi3 kernels

def f_T_affine(
    p: Parameter, q: RationalQ, N: int, r: int, s: int
) -> ClosedFormResult:
    """f_{r,s}(T) for the affine q-Krawtchouk chain.

    General entries run the double sum of 3phi3 kernels; with one site
    at index 0 the kernel terminates immediately and the sum collapses
    to a single 2phi1, and the (N, 0) endpoint reduces to
    (-1; q)_N (pq)^(N/2) sqrt((pq; q)_N).
    """
    px = _fraction(p, "p")
    spec = families.affine_q_krawtchouk(N, q, px)
    families.require_valid(spec)
    direct = direct_spectral_sum(spec, r, s)
    qx = q.as_fraction
    minus_one = _poch(Fraction(-1), qx, N)
    if _is_endpoint(N, r, s):
        value_ls = LogSign.from_fraction(minus_one) * _sqrt_of(
            (px * qx) ** N * _poch(px * qx, qx, N)
        )
        return _endpoint_result(spec, value_ls, direct)
    if min(r, s) == 0:
        outer = max(r, s)
        series = basic_hypergeometric_exact(
            [qx ** (outer - N), Fraction(0)],
            [-qx ** (1 - N)],
            qx,
            qx ** -outer / px,
        )
        return _finish(spec, r, s, minus_one * series, direct)
    total = Fraction(0)
    for m in range(N + 1):
        outer_weight = (px * qx ** (r + s)) ** -m / (
            _poch(qx, qx, m)
            * _poch(-qx ** (1 - N), qx, m)
            * _poch(qx ** -N, qx, m)
        )
        for n in range(min(r, s, m) + 1):
            pairs = _regularized_pair(qx ** (r - N), qx, m, n) * _regularized_pair(
                qx ** (s - N), qx, m, n
            )
            if pairs == 0:
                continue
            kernel = (
                _poch(qx ** -r, qx, n)
                * _poch(qx ** -s, qx, n)
                * _poch(qx ** -m, qx, n)
                / (_poch(qx, qx, n) * _poch(px * qx, qx, n))
            )
            extra = (
                Fraction(-1) ** n
                * qx ** (n * (n - 1) // 2)
                * (px * qx ** (2 * N - m + 3)) ** n
            )
            total += outer_weight * pairs * kernel * extra
    return _finish(spec, r, s, minus_one * total, direct)


# ----------------------------------------------------------------------
# quantum q-Krawtchouk: 3phi3 kernels

def f_T_quantum(
    p: Parameter, q: RationalQ, N: int, r: int, s: int
) -> ClosedFormResult:
    """f_{r,s}(T) for the quantum q-Krawtchouk chain.

    The endpoint radicand (-1)**N (pq; q)_N is nonnegative throughout
    the validated parameter range; a negative value here means the
    validation let a bad spec through.
    """
    px = _fraction(p, "p")
    spec = families.quantum_q_krawtchouk(N, q, px)
    families.require_valid(spec)
    direct = direct_spectral_sum(spec, r, s)
    qx = q.as_fraction
    minus_one = _poch(Fraction(-1), qx, N)
    if _is_endpoint(N, r, s):
        radicand = Fraction(-1) ** N * _poch(px * qx, qx, N)
        value_ls = (
            LogSign.from_fraction(minus_one * px ** -N)
            * _sqrt_of(qx ** -(N * (3 * N + 1) // 2))
            * _sqrt_of(radicand)
        )
        return _endpoint_result(spec, value_ls, direct)
    head = (
        Fraction(-1) ** N
        * minus_one
        * _poch(px * qx, qx, N)
        / _poch(qx, qx, N)
    )
    if qx > 1 and N % 2:
        # (q; q)_N alternates sign for q > 1; the positive-weight gauge
        # needs the positive head that the q < 1 convention produces.
        head = -head
    total = Fraction(0)
    for m in range(N + 1):
        outer_weight = (px * qx ** (r + s + 1 - N)) ** m / (
            _poch(qx, qx, m)
            * _poch(-qx ** (1 - N), qx, m)
            * _poch(qx ** -N, qx, m)
        )
        for n in range(min(N - r, N - s, m) + 1):
            pairs = _regularized_pair(qx ** -r, qx, m, n) * _regularized_pair(
                qx ** -s, qx, m, n
            )
            if pairs == 0:
                continue
            kernel = (
                _poch(qx ** (r - N), qx, n)
                * _poch(qx ** (s - N), qx, n)
                * _poch(qx ** -m, qx, n)
                / (_poch(qx, qx, n) * _poch(qx ** -N / px, qx, n))
            )
            extra = (
                Fraction(-1) ** n
                * qx ** (n * (n - 1) // 2)
                * (qx ** (N - m + 2) / px) ** n
            )
            total += outer_weight * pairs * kernel * extra
    return _finish(spec, r, s, head * total, direct)


# ----------------------------------------------------------------------
# dual q-Krawtchouk: 3phi2 kernels

def f_T_dual_qk(
    c: Parameter, q: RationalQ, N: int, r: int, s: int
) -> ClosedFormResult:
    """f_{r,s}(T) for the dual q-Krawtchouk chain.

    The modulated spectrum aligns its phases only for special c, which
    matched_transfer_time verifies before anything is summed.
    """
    cx = _fraction(c, "c")
    spec = families.dual_q_krawtchouk(N, q, cx)
    families.require_valid(spec)
    direct = direct_spectral_sum(spec, r, s)
    qx = q.as_fraction
    q2 = qx * qx
    minus_one = _poch(Fraction(-1), qx, N)
    edge = cx * qx ** (1 - N)
    if _is_endpoint(N, r, s):
        value_ls = (
            LogSign.from_fraction(minus_one / _poch(edge, q2, N))
            * _sqrt_of((-cx) ** N)
            * _sqrt_of(qx ** -(N * (N - 1) // 2))
        )
        return _endpoint_result(spec, value_ls, direct)
    head = _poch(edge, qx, N) * minus_one / _poch(edge, q2, N)
    total = Fraction(0)
    for m in range(N + 1):
        outer_weight = (
            _poch(edge, q2, m)
            * (-cx) ** -m
            * qx ** ((N - r - s) * m - m * (m - 1) // 2)
            / (
                _poch(qx, qx, m)
                * _poch(-qx ** (1 - N), qx, m)
                * _poch(qx ** -N, qx, m)
            )
        )
        for n in range(min(r, s, m) + 1):
            pairs = _regularized_pair(qx ** (r - N), qx, m, n) * _regularized_pair(
                qx ** (s - N), qx, m, n
            )
            if pairs == 0:
                continue
            kernel = (
                _poch(qx ** -r, qx, n)
                * _poch(qx ** -s, qx, n)
                * _poch(qx ** -m, qx, n)
                / _poch(qx, qx, n)
            )
            total += outer_weight * pairs * kernel * (cx * qx ** (N + 2)) ** n
    return _finish(spec, r, s, head * total, direct)


# ----------------------------------------------------------------------
# q-Racah: very-well-poised 10phi9 kernels

def f_T_qracah(
    alpha: Parameter,
    beta: Parameter,
    gamma: Parameter,
    q: RationalQ,
    N: int,
    r: int,
    s: int,
) -> ClosedFormResult:
    """f_{r,s}(T) for the q-Racah chain via 10phi9 kernels.

    The +-sqrt very-well-poised parameter pair is reduced analytically
    to (1 - a q^(2n)) / (1 - a), so the square root of
    a = alpha beta q^(N-m+1) is never materialised.  Four of the nine
    kernel denominators cancel against weight factors through the
    regularized pair identity.  For the (N, 0) endpoint the product
    formula supplies the magnitude while the series prefactor supplies
    the sign; the printed radical alone is ambiguous when
    (gamma/beta q^(1-N); q^2)_N is negative.
    """
    ax = _fraction(alpha, "alpha")
    bx = _fraction(beta, "beta")
    gx = _fraction(gamma, "gamma")
    spec = families.q_racah(N, q, ax, bx, gx)
    families.require_valid(spec)
    direct = direct_spectral_sum(spec, r, s)
    qx = q.as_fraction
    q2 = qx * qx
    ab = ax * bx
    edge = gx / bx * qx ** (1 - N)
    minus_one = _poch(Fraction(-1), qx, N)
    head = _poch(edge, qx, N) * minus_one / _poch(edge, q2, N)
    if _is_endpoint(N, r, s):
        radicand = (
            Fraction(-1) ** N
            * _poch(ax * qx, qx, N)
            * _poch(bx * qx, qx, N)
            * _poch(gx * qx, qx, N)
            * _poch(ab / gx * qx, qx, N)
            / (_poch(ab * qx ** 2, qx, N) * _poch(ab * qx ** (N + 1), qx, N))
        )
        magnitude = (
            LogSign.from_fraction(abs(minus_one / _poch(edge, q2, N)))
            * _sqrt_of((gx / bx) ** N)
            * _sqrt_of(qx ** -(N * (N - 1) // 2))
            * _sqrt_of(radicand)
        )
        signed = magnitude if head > 0 else -magnitude
        return _endpoint_result(spec, signed, direct)
    z = gx / bx * qx ** (N + 2)
    total = Fraction(0)
    for m in range(N + 1):
        a = ab * qx ** (N - m + 1)
        outer_weight = (
            qx ** m
            * _poch(edge, q2, m)
            / (
                _poch(qx, qx, m)
                * _poch(gx / ab * qx ** -N, qx, m)
                * _poch(qx ** -N / bx, qx, m)
                * _poch(qx ** (-N - 1) / ab, qx, m)
                * _poch(-qx ** (1 - N), qx, m)
                * _poch(qx ** -N, qx, m)
            )
        )
        for n in range(min(r, s, m) + 1):
            pairs = (
                _regularized_pair(qx ** (r - N), qx, m, n)
                * _regularized_pair(qx ** (s - N), qx, m, n)
                * _regularized_pair(qx ** (-N - r - 1) / ab, qx, m, n)
                * _regularized_pair(qx ** (-N - s - 1) / ab, qx, m, n)
            )
            if pairs == 0:
                continue
            bottom = (
                _poch(qx, qx, n)
                * _poch(ax * qx, qx, n)
                * _poch(gx * qx, qx, n)
                * _poch(ab * qx ** (N + 2), qx, n)
            )
            if bottom == 0:
                raise DenominatorZeroError(
                    "a 10phi9 kernel denominator vanished; the parameter "
                    "point sits on a pole of the closed form"
                )
            kernel = (
                _poch(a, qx, n)
                * vwp_pair_reduce_exact(a, qx, n)
                * _poch(bx * qx ** (N - m + 1), qx, n)
                * _poch(ab / gx * qx ** (N - m + 1), qx, n)
                * _poch(qx ** -m, qx, n)
                * _poch(qx ** -r, qx, n)
                * _poch(qx ** -s, qx, n)
                * _poch(ab * qx ** (r + 1), qx, n)
                * _poch(ab * qx ** (s + 1), qx, n)
                / bottom
            )
            total += outer_weight * pairs * kernel * z ** n
    return _finish(spec, r, s, head * total, direct)


# ----------------------------------------------------------------------
# q-Hahn and dual q-Hahn endpoints

def f_T_qhahn_N0(alpha: Parameter, beta: Parameter, q: RationalQ, N: int) -> float:
    """Endpoint amplitude f_{N,0}(T) for the q-Hahn chain."""
    ax = _fraction(alpha, "alpha")
    bx = _fraction(beta, "beta")
    spec = families.q_hahn(N, q, ax, bx)
    families.require_valid(spec)
    matched_transfer_time(spec)
    qx = q.as_fraction
    radicand = (
        _poch(ax * qx, qx, N)
        * _poch(bx * qx, qx, N)
        / (_poch(ax * bx * qx ** 2, qx, N) * _poch(ax * bx * qx ** (N + 1), qx, N))
        * (ax * qx) ** N
    )
    value_ls = LogSign.from_fraction(_poch(Fraction(-1), qx, N)) * _sqrt_of(radicand)
    return _gauge_sign(spec, N, 0) * value_ls.to_float()


def f_T_dual_qhahn_N0(
    gamma: Parameter, delta: Parameter, q: RationalQ, N: int
) -> float:
    """Endpoint amplitude f_{N,0}(T) for the dual q-Hahn chain.

    For delta = gamma the base-q**2 product in the denominator splits
    and the magnitude collapses to
    (-1; q)_N (gamma q)^(N/2) / |(-gamma q; q)_N|.  The sign comes
    from the prefactor (gamma delta q^2; q)_N / (gamma delta q^2;
    q^2)_N of the underlying series, which the printed radical form
    does not carry.
    """
    gx = _fraction(gamma, "gamma")
    dx = _fraction(delta, "delta")
    spec = families.dual_q_hahn(N, q, gx, dx)
    families.require_valid(spec)
    matched_transfer_time(spec)
    qx = q.as_fraction
    minus_one = _poch(Fraction(-1), qx, N)
    gdq2 = gx * dx * qx ** 2
    head = _poch(gdq2, qx, N) * minus_one / _poch(gdq2, qx * qx, N)
    if gx == dx:
        magnitude = LogSign.from_fraction(
            abs(minus_one / _poch(-gx * qx, qx, N))
        ) * _sqrt_of((gx * qx) ** N)
    else:
        radicand = _poch(gx * qx, qx, N) * _poch(dx * qx, qx, N) * (gx * qx) ** N
        magnitude = LogSign.from_fraction(
            abs(minus_one / _poch(gdq2, qx * qx, N))
        ) * _sqrt_of(radicand)
    signed = magnitude if head > 0 else -magnitude
    return _gauge_sign(spec, N, 0) * signed.to_float()


# ----------------------------------------------------------------------
# one entry for every family

def closed_form_result(spec: FamilySpec, r: int, s: int) -> ClosedFormResult:
    """f_{r,s}(T) of any family with rational q, by its closed form.

    The q-Hahn limits carry endpoint product formulas only: the (N, 0)
    entry uses them, every other entry the direct sum.
    """
    v, q, N = dict(spec.params), spec.q, spec.N
    # each lambda looks its formula up when called, so a wrapped module
    # attribute is the one that runs
    series = {
        Family.Q_KRAWTCHOUK: lambda: f_T_qkrawtchouk(v["p"], q, N, r, s),
        Family.AFFINE_Q_KRAWTCHOUK: lambda: f_T_affine(v["p"], q, N, r, s),
        Family.QUANTUM_Q_KRAWTCHOUK: lambda: f_T_quantum(v["p"], q, N, r, s),
        Family.DUAL_Q_KRAWTCHOUK: lambda: f_T_dual_qk(v["c"], q, N, r, s),
        Family.Q_RACAH: lambda: f_T_qracah(v["alpha"], v["beta"], v["gamma"], q, N, r, s),
        Family.Q_HAHN: lambda: f_T_qhahn_N0(v["alpha"], v["beta"], q, N),
        Family.DUAL_Q_HAHN: lambda: f_T_dual_qhahn_N0(v["gamma"], v["delta"], q, N),
    }[spec.family]
    if spec.family not in (Family.Q_HAHN, Family.DUAL_Q_HAHN):
        return series()
    direct = direct_spectral_sum(spec, r, s)
    if not _is_endpoint(N, r, s):
        return ClosedFormResult(direct, Method.FALLBACK_DIRECT_SUM, 0.0)
    value = series()
    return ClosedFormResult(value, Method.CLOSED_FORM, abs(value - direct))
