"""Analytic transfer-time values of the correlation amplitudes.

At a phase-matched time every phase equals (-1)**k and the spectral sum
for f_{r,s} collapses family by family: a balanced 4phi3 for the
q-Krawtchouk chain, double sums with 3phi3 kernels for the affine and
quantum variants, a 3phi2-kernel double sum for the dual chain, a
very-well-poised 10phi9-kernel double sum for q-Racah, and bare
product endpoint formulas for the q-Hahn and dual q-Hahn limits.

Every family runs through one driver, which keeps the error order of
every spec-taking entry point: it derives the spec's record
(InvalidSpecError), then takes the direct spectral sum, which checks
the sites, the odd/odd class and exactness and the matched time before
U is built; only then does it evaluate the family's formula and
finish the value from the same record.  A formula returns None only
for an entry it does not cover, which the direct sum answers: the
q-Krawtchouk entries with r + s > N, and every entry of the q-Hahn and
dual q-Hahn limits but the endpoint, so their public endpoint
functions are that driver's value at (N, 0).  No formula guards a
denominator: on a spec that derives its record none of them vanishes,
as the q-Krawtchouk and q-Racah docstrings show.  The four double sums
share one summation routine, so each family states only its outer
weight, its regularized-pair bases and its inner kernel; the routine
owns the loop, the (q, -q^(1-N), q^(-N); q)_m denominators, the pair
product and the skip of vanishing pairs.  The affine chain's entries
with a site at 0 take a single 2phi1, the double sum's exact value in
a fraction of its time.

The double sums carry removable singularities: a weight factor
(A; q)_m vanishes at the same indices where a kernel denominator
(q^(1-m)/A; q)_n blows up, and the product has a finite limit that
contributes.  Both factors are therefore cancelled analytically
through

    (A; q)_m / (q^(1-m)/A; q)_n
        = (A; q)_{m-n} (-1)^n (A q^(m-1))^n q^(-n(n-1)/2),

which is an identity of rational functions, so every term is computed
in exact Fraction arithmetic with no limits taken numerically.  The
series are stated for the weight with w(0) = 1, the normalisation of
the exact norms in the spec's chain-data record, and the endpoint
formulas give a sign and an exact square; the one floating step is the
final square root, taken through the split the point table uses, so
nothing can overflow.

The series are stated in the raw polynomial gauge, where couplings may
be negative; results are mapped to the positive-coupling chain by the
site sign vector before being returned, and every result carries the
residual against the brute-force spectral sum at the same phases, so
the transformation identities behind the closed forms are verified
numerically on each call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from . import families
from .evolve import ExactPhaseTime, phase_parity_check, search_transfer_time
from .families import Family, FamilySpec
from .qseries import RationalQ, _root, basic_hypergeometric_exact, vwp_pair_reduce_exact
from .qseries import q_pochhammer_exact as _poch

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
# a series value for the weight with w(0) = 1, or an endpoint's sign and square
Value = Union[Fraction, Tuple[int, Fraction]]


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
    """f_{r,s}(T), the route that produced it, its distance from the
    direct sum, and the matched time T the direct sum found."""

    value: float
    method: Method
    residual_vs_direct: float
    time: ExactPhaseTime


# ----------------------------------------------------------------------
# shared plumbing

def _fraction(value: Parameter, name: str) -> Fraction:
    """Exact view of a parameter; floats convert to their exact binary
    rational so the phase arithmetic stays exact."""
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"parameter {name} must be numeric, got {value!r}") from exc


def matched_transfer_time(
    source: Union[FamilySpec, families.OrthogonalityData]
) -> ExactPhaseTime:
    """A time with every phase equal to (-1)**k, or an error.

    ``source`` is a spec, whose record is derived first, or its record.
    The time is the one :func:`qchain.evolve.search_transfer_time` picks
    from the record (Q**N, then P**N times pi for 1/q = P/Q, when it is
    an odd multiple of the minimal matched time, else the matched time);
    raises when the parity table at that time fails, which means the
    spectrum admits no such time at all.
    """
    data = (source if isinstance(source, families.OrthogonalityData)
            else families.orthogonality_data(source))
    t = search_transfer_time(data)
    if phase_parity_check(data.spectrum, t).all_pass:
        return t
    raise PhaseConditionUnmetError(
        f"no rational multiple of pi aligns the phases of {data.spec.describe()} "
        "to (-1)**k"
    )


def direct_spectral_sum(
    data: families.OrthogonalityData, r: int, s: int
) -> Tuple[ExactPhaseTime, float]:
    """The matched time T and brute-force f_{r,s}(T), from the spec's record.

    With phases (-1)**k the correlation is a signed real sum over the
    orthonormal rows; the matched time must exist but its value does
    not enter the sum.  Its search reads the record's spectrum, the one
    U's point table reads.
    """
    spec = data.spec
    _check_sites(spec.N, r, s)
    time = matched_transfer_time(data)
    U = families.orthonormal_matrix(data)
    alternating = (-1.0) ** np.arange(spec.N + 1)
    return time, float(np.sum(U[r] * U[s] * alternating))


def _check_sites(N: int, r: int, s: int) -> None:
    if not (0 <= r <= N and 0 <= s <= N):
        raise ValueError(f"sites must lie in 0..{N}, got (r, s) = ({r}, {s})")


def _endpoint(factor: Fraction, *radicands: Fraction) -> Tuple[int, Fraction]:
    """factor * prod sqrt(radicand) as its sign and exact square."""
    for radicand in radicands:
        if radicand < 0:
            raise NegativeRadicandError(
                f"endpoint radicand {radicand} is negative; the parameter point "
                "should not have validated"
            )
    return (1 if factor > 0 else -1), factor * factor * math.prod(radicands)


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


def _finish(data: families.OrthogonalityData, r: int, s: int, value: Value) -> float:
    """f_{r,s} in the chain's gauge from the spec's validated record.

    A Fraction v is the series value for the weight with w(0) = 1,
    which still carries the exact norms: its square is v**2 / (d_r d_s).
    A pair is an endpoint formula's sign and square, already normalised.
    The square root is the one rounding; beyond the float range it
    reads as inf.  The series live in the raw polynomial gauge, so the
    site signs s_r s_s map them to the positive-coupling chain.
    """
    if isinstance(value, Fraction):
        value = value, value * value / (data.norms[r] * data.norms[s])
    sign, square = value
    try:
        magnitude = math.ldexp(*_root(square))
    except OverflowError:
        magnitude = math.inf
    return float(data.signs[r] * data.signs[s]) * (-magnitude if sign < 0 else magnitude)


def _series_result(
    spec: FamilySpec, r: int, s: int, formula: Callable[[], Optional[Value]]
) -> ClosedFormResult:
    """Derive the record, take the direct sum, then evaluate ``formula``;
    its None marks an entry the closed form does not cover, answered by
    the direct sum."""
    data = families.orthogonality_data(spec)
    time, direct = direct_spectral_sum(data, r, s)
    value = formula()
    if value is None:
        return ClosedFormResult(direct, Method.FALLBACK_DIRECT_SUM, 0.0, time)
    value = _finish(data, r, s, value)
    return ClosedFormResult(value, Method.CLOSED_FORM, abs(value - direct), time)


def _double_sum(qx: Fraction, N: int, top: int, weight: Callable[[int], Fraction],
                bases: Sequence[Fraction], kernel: Callable[[int, int], Fraction]) -> Fraction:
    """sum_{m=0}^{N} weight(m) / (q, -q^(1-N), q^(-N); q)_m
    * sum_{n=0}^{min(top, m)} prod_A (A; q)_m / (q^(1-m)/A; q)_n
      * (q^(-m); q)_n / (q; q)_n * kernel(m, n)

    over the regularized-pair bases A; a term whose pair product
    vanishes is skipped before its kernel is evaluated.
    """
    total = Fraction(0)
    for m in range(N + 1):
        outer = weight(m) / (
            _poch(qx, qx, m) * _poch(-qx ** (1 - N), qx, m) * _poch(qx ** -N, qx, m))
        for n in range(min(top, m) + 1):
            pairs = math.prod(_regularized_pair(A, qx, m, n) for A in bases)
            if pairs != 0:
                total += outer * pairs * kernel(m, n) * _poch(qx ** -m, qx, n) / _poch(qx, qx, n)
    return total


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
    direct spectral sum and are marked accordingly.  For r + s <= N no
    denominator parameter (-q^-r, -q^-s, q^(1+N-r-s)) is a power q^-j,
    j >= 0, so the 4phi3 never divides by zero.  At the transfer point
    p = q**-N the prefactor contains (1; q)_{N-r-s}, which kills every
    entry except the anti-diagonal r + s = N.
    """
    px = _fraction(p, "p")

    def formula() -> Optional[Value]:
        if r + s > N:
            return None
        pre = (
            _poch(-q ** -s, q, r)
            * _poch(-q ** -r, q, s)
            * _poch(q ** -N / px, q, N - r - s)
            * _poch(q ** -N, q, r + s)
            / (_poch(q ** -N, q, r) * _poch(q ** -N, q, s))
        )
        return pre * basic_hypergeometric_exact(
            [q ** -r, q ** -s, px * q ** N, q ** (-r - s) / px],
            [-q ** -r, -q ** -s, q ** (1 + N - r - s)],
            q,
            q,
        )

    return _series_result(families.q_krawtchouk(N, q, px), r, s, formula)


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

    def formula() -> Value:
        minus_one = _poch(Fraction(-1), q, N)
        if _is_endpoint(N, r, s):
            return _endpoint(minus_one, (px * q) ** N * _poch(px * q, q, N))
        if min(r, s) == 0:
            outer = max(r, s)
            return minus_one * basic_hypergeometric_exact(
                [q ** (outer - N), Fraction(0)], [-q ** (1 - N)], q, q ** -outer / px)

        def kernel(m: int, n: int) -> Fraction:
            return (_poch(q ** -r, q, n) * _poch(q ** -s, q, n) / _poch(px * q, q, n)
                    * (-px * q ** (2 * N - m + 3)) ** n * q ** (n * (n - 1) // 2))

        return minus_one * _double_sum(
            q, N, min(r, s), lambda m: (px * q ** (r + s)) ** -m,
            (q ** (r - N), q ** (s - N)), kernel)

    return _series_result(families.affine_q_krawtchouk(N, q, px), r, s, formula)


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

    def formula() -> Value:
        minus_one = _poch(Fraction(-1), q, N)
        if _is_endpoint(N, r, s):
            return _endpoint(minus_one * px ** -N, q ** -(N * (3 * N + 1) // 2),
                             Fraction(-1) ** N * _poch(px * q, q, N))

        def kernel(m: int, n: int) -> Fraction:
            return (_poch(q ** (r - N), q, n) * _poch(q ** (s - N), q, n)
                    / _poch(q ** -N / px, q, n)
                    * (-q ** (N - m + 2) / px) ** n * q ** (n * (n - 1) // 2))

        return minus_one * _double_sum(
            q, N, min(N - r, N - s), lambda m: (px * q ** (r + s + 1 - N)) ** m,
            (q ** -r, q ** -s), kernel)

    return _series_result(families.quantum_q_krawtchouk(N, q, px), r, s, formula)


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

    def formula() -> Value:
        q2 = q * q
        minus_one = _poch(Fraction(-1), q, N)
        edge = cx * q ** (1 - N)
        if _is_endpoint(N, r, s):
            return _endpoint(minus_one / _poch(edge, q2, N), (-cx) ** N,
                             q ** -(N * (N - 1) // 2))
        head = _poch(edge, q, N) * minus_one / _poch(edge, q2, N)

        def weight(m: int) -> Fraction:
            return _poch(edge, q2, m) * (-cx) ** -m * q ** ((N - r - s) * m - m * (m - 1) // 2)

        def kernel(m: int, n: int) -> Fraction:
            return _poch(q ** -r, q, n) * _poch(q ** -s, q, n) * (cx * q ** (N + 2)) ** n

        return head * _double_sum(
            q, N, min(r, s), weight, (q ** (r - N), q ** (s - N)), kernel)

    return _series_result(families.dual_q_krawtchouk(N, q, cx), r, s, formula)


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
    regularized pair identity.  The other three, (alpha q, gamma q,
    alpha beta q^(N+2); q)_n with n <= N, never vanish for a spec that
    derives its record: a zero of the first two is one of its poles, and
    alpha beta q^(N+2+j) = 1 with j < N zeroes a factor
    1 - alpha beta q^k, k <= 2N+1, that its recurrence divides by.  For
    the (N, 0) endpoint the product formula supplies the magnitude while
    the series prefactor supplies the sign; the printed radical alone is
    ambiguous when (gamma/beta q^(1-N); q^2)_N is negative.
    """
    ax = _fraction(alpha, "alpha")
    bx = _fraction(beta, "beta")
    gx = _fraction(gamma, "gamma")

    def formula() -> Value:
        q2 = q * q
        ab = ax * bx
        edge = gx / bx * q ** (1 - N)
        minus_one = _poch(Fraction(-1), q, N)
        head = _poch(edge, q, N) * minus_one / _poch(edge, q2, N)
        if _is_endpoint(N, r, s):
            radicand = (
                Fraction(-1) ** N
                * _poch(ax * q, q, N)
                * _poch(bx * q, q, N)
                * _poch(gx * q, q, N)
                * _poch(ab / gx * q, q, N)
                / (_poch(ab * q ** 2, q, N) * _poch(ab * q ** (N + 1), q, N))
            )
            _, square = _endpoint(minus_one / _poch(edge, q2, N), (gx / bx) ** N,
                                  q ** -(N * (N - 1) // 2), radicand)
            return (1 if head > 0 else -1), square

        def weight(m: int) -> Fraction:
            return q ** m * _poch(edge, q2, m) / (
                _poch(gx / ab * q ** -N, q, m)
                * _poch(q ** -N / bx, q, m)
                * _poch(q ** (-N - 1) / ab, q, m)
            )

        def kernel(m: int, n: int) -> Fraction:
            a = ab * q ** (N - m + 1)
            return (
                _poch(a, q, n)
                * vwp_pair_reduce_exact(a, q, n)
                * _poch(bx * q ** (N - m + 1), q, n)
                * _poch(ab / gx * q ** (N - m + 1), q, n)
                * _poch(q ** -r, q, n)
                * _poch(q ** -s, q, n)
                * _poch(ab * q ** (r + 1), q, n)
                * _poch(ab * q ** (s + 1), q, n)
                / (_poch(ax * q, q, n) * _poch(gx * q, q, n)
                   * _poch(ab * q ** (N + 2), q, n))
                * (gx / bx * q ** (N + 2)) ** n
            )

        bases = (q ** (r - N), q ** (s - N), q ** (-N - r - 1) / ab, q ** (-N - s - 1) / ab)
        return head * _double_sum(q, N, min(r, s), weight, bases, kernel)

    return _series_result(families.q_racah(N, q, ax, bx, gx), r, s, formula)


# ----------------------------------------------------------------------
# q-Hahn and dual q-Hahn endpoints

def _qhahn_endpoint(spec: FamilySpec) -> Tuple[int, Fraction]:
    """The q-Hahn f_{N,0}(T), normalised, in the raw polynomial gauge."""
    ax, bx, q, N = spec.param("alpha"), spec.param("beta"), spec.q, spec.N
    radicand = (
        _poch(ax * q, q, N)
        * _poch(bx * q, q, N)
        / (_poch(ax * bx * q ** 2, q, N) * _poch(ax * bx * q ** (N + 1), q, N))
        * (ax * q) ** N
    )
    return _endpoint(_poch(Fraction(-1), q, N), radicand)


def f_T_qhahn_N0(alpha: Parameter, beta: Parameter, q: RationalQ, N: int) -> float:
    """Endpoint amplitude f_{N,0}(T) for the q-Hahn chain: the value of
    :func:`closed_form_result` at (N, 0)."""
    spec = families.q_hahn(N, q, _fraction(alpha, "alpha"), _fraction(beta, "beta"))
    return closed_form_result(spec, N, 0).value


def _dual_qhahn_endpoint(spec: FamilySpec) -> Tuple[int, Fraction]:
    """The dual q-Hahn f_{N,0}(T), normalised, in the raw polynomial gauge.

    For delta = gamma the same radicand collapses, through
    (gamma^2 q^2; q^2)_N = (gamma q; q)_N (-gamma q; q)_N, to the
    magnitude (-1; q)_N (gamma q)^(N/2) / |(-gamma q; q)_N|.  The sign
    comes from the prefactor (gamma delta q^2; q)_N / (gamma delta q^2;
    q^2)_N of the underlying series, which the printed radical form
    does not carry.
    """
    gx, dx, q, N = spec.param("gamma"), spec.param("delta"), spec.q, spec.N
    minus_one = _poch(Fraction(-1), q, N)
    gdq2 = gx * dx * q ** 2
    head = _poch(gdq2, q, N) * minus_one / _poch(gdq2, q * q, N)
    _, square = _endpoint(minus_one / _poch(gdq2, q * q, N),
                          _poch(gx * q, q, N) * _poch(dx * q, q, N) * (gx * q) ** N)
    return (1 if head > 0 else -1), square


def f_T_dual_qhahn_N0(
    gamma: Parameter, delta: Parameter, q: RationalQ, N: int
) -> float:
    """Endpoint amplitude f_{N,0}(T) for the dual q-Hahn chain: the value
    of :func:`closed_form_result` at (N, 0); see
    :func:`_dual_qhahn_endpoint`."""
    spec = families.dual_q_hahn(N, q, _fraction(gamma, "gamma"), _fraction(delta, "delta"))
    return closed_form_result(spec, N, 0).value


# ----------------------------------------------------------------------
# one entry for every family

def closed_form_result(spec: FamilySpec, r: int, s: int) -> ClosedFormResult:
    """f_{r,s}(T) of any family with rational q, by its closed form.

    The q-Hahn limits carry endpoint product formulas only: the (N, 0)
    entry uses them and every other entry the direct sum.
    """
    v, q, N = dict(spec.params), spec.q, spec.N
    endpoint = {Family.Q_HAHN: _qhahn_endpoint, Family.DUAL_Q_HAHN: _dual_qhahn_endpoint}
    if spec.family in endpoint:
        return _series_result(spec, r, s, lambda: (
            endpoint[spec.family](spec) if _is_endpoint(N, r, s) else None))
    # each lambda looks its formula up when called, so a wrapped module
    # attribute is the one that runs
    return {
        Family.Q_KRAWTCHOUK: lambda: f_T_qkrawtchouk(v["p"], q, N, r, s),
        Family.AFFINE_Q_KRAWTCHOUK: lambda: f_T_affine(v["p"], q, N, r, s),
        Family.QUANTUM_Q_KRAWTCHOUK: lambda: f_T_quantum(v["p"], q, N, r, s),
        Family.DUAL_Q_KRAWTCHOUK: lambda: f_T_dual_qk(v["c"], q, N, r, s),
        Family.Q_RACAH: lambda: f_T_qracah(v["alpha"], v["beta"], v["gamma"], q, N, r, s),
    }[spec.family]()
