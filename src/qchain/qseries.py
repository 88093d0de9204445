"""q-arithmetic kernel: rational deformation parameters, q-shifted
factorials, and terminating basic hypergeometric series.

Conventions
-----------
For a base ``q > 0``, ``q != 1``:

    [n]_q          = (1 - q**n) / (1 - q)
    (a; q)_n       = prod_{k=0}^{n-1} (1 - a q**k)
    (a1, a2; q)_n  = (a1; q)_n (a2; q)_n

A basic hypergeometric sum with A numerator and B denominator
parameters is

    sum_n  (a1,...,aA; q)_n / ((q, b1,...,bB; q)_n)
           * ((-1)**n q**binom(n,2))**(1 + B - A) * z**n

and is only evaluated here when some numerator parameter equals
``q**-m`` for an integer ``m >= 0``, which truncates the sum at ``n = m``.

There is one series kernel, and it is exact.  A float series is the
exact sum at the binary values of its inputs, rounded once, so the huge
alternating terms that appear away from q = 1 cancel without error.

An exact value reaches floats by one correct rounding: :func:`_float`
saturates beyond the float range, and :func:`_split` (:func:`_root` for
a square root) keeps a binary exponent apart, so nothing overflows.

Exact series are summed on integers.  With every parameter, q and z in
lowest terms, each term ratio t_n / t_{n-1} is an unreduced pair of
integers, and the sum is nested as 1 + r_0 (1 + r_1 (1 + ...)) from the
innermost term out, so its denominator is a plain product and a single
gcd, in the one Fraction built at the end, reduces it.  Whether an exact
parameter a equals q**-m is an integer test too: a.numerator ==
q.denominator**m and a.denominator == q.numerator**m.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

__all__ = [
    "ParityClass",
    "RationalQ",
    "q_number",
    "q_pochhammer_exact",
    "basic_hypergeometric",
    "basic_hypergeometric_exact",
    "vwp_pair_reduce_exact",
    "QSeriesError",
    "NonTerminatingSeriesError",
    "DenominatorZeroError",
    "PoleAtOneError",
    "NotOddOddError",
]

Exactish = Union[int, Fraction]
Scalar = Union[int, float, Fraction]


class QSeriesError(ValueError):
    """Base class for series evaluation failures."""


class NonTerminatingSeriesError(QSeriesError):
    """No numerator parameter is a nonpositive integer power of q."""


class DenominatorZeroError(QSeriesError):
    """A denominator q-shifted factorial vanishes before the series ends."""


class PoleAtOneError(QSeriesError):
    """Degenerate very-well-poised pair with unit base."""


class NotOddOddError(ValueError):
    """1/q is not a ratio of two odd integers, so no exact transfer time exists."""


class ParityClass(enum.Enum):
    """Parity type of 1/q = P/Q in lowest terms."""

    ODD_ODD = "odd/odd"
    EVEN_OVER_ODD = "even/odd"
    ODD_OVER_EVEN = "odd/even"


@dataclass(frozen=True)
class RationalQ:
    """Positive rational deformation parameter q = num/den, q != 1.

    The pair is reduced on construction.  Writing the inverse in lowest
    terms as 1/q = P/Q (so P = den, Q = num after reduction), the parity
    class of (P, Q) decides whether phases built from powers of 1/q can
    ever align to the alternating pattern (-1)**k.
    """

    num: int
    den: int = 1

    def __post_init__(self) -> None:
        if self.den == 0:
            raise ZeroDivisionError("q must have a nonzero denominator")
        if self.num * self.den <= 0:
            raise ValueError("q must be positive")
        g = math.gcd(self.num, self.den)
        num, den = abs(self.num) // g, abs(self.den) // g
        if num == den:
            raise ValueError("q = 1 is excluded")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_fraction(cls, value: Fraction) -> "RationalQ":
        return cls(value.numerator, value.denominator)

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def inverse(self) -> Fraction:
        """1/q = P/Q in lowest terms."""
        return Fraction(self.den, self.num)

    @property
    def inv_parity_class(self) -> ParityClass:
        p, qq = self.den, self.num
        if p % 2 == 1 and qq % 2 == 1:
            return ParityClass.ODD_ODD
        if p % 2 == 0:
            return ParityClass.EVEN_OVER_ODD
        return ParityClass.ODD_OVER_EVEN

    def require_odd_odd(self) -> None:
        if self.inv_parity_class is not ParityClass.ODD_ODD:
            raise NotOddOddError(
                f"1/q = {self.den}/{self.num} is {self.inv_parity_class.value}; "
                "an exact transfer time needs odd/odd"
            )

    def __float__(self) -> float:
        return self.num / self.den

    def __str__(self) -> str:
        return f"{self.num}/{self.den}" if self.den != 1 else str(self.num)


def _float(value: Scalar) -> float:
    """float(value), or an infinity of its sign beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _split(value: Scalar) -> Tuple[float, int]:
    """(m, e) with value = m * 2**e and m correctly rounded, |m| in
    [1/2, 1) or m = 0.  A Fraction of any size takes one integer
    division of its numerator and denominator, shifted to equal length."""
    if isinstance(value, float):
        return math.frexp(value)
    return _split_ratio(value.numerator, value.denominator)


def _split_ratio(num: int, den: int) -> Tuple[float, int]:
    """:func:`_split` of num/den for den > 0, reduced or not: the same
    rational gives the same pair, an exact zero (0.0, -1)."""
    if not num:
        return 0.0, -1
    shift = num.bit_length() - den.bit_length()
    if shift > 0:
        den <<= shift
    else:
        num <<= -shift
    m, e = math.frexp(num / den)
    return m, e + shift


def _root(value: Union[Scalar, Tuple[int, int]]) -> Tuple[float, int]:
    """(m, e) with sqrt(value) = m * 2**e, for a nonnegative value or a
    (num, den > 0) pair of one."""
    m, e = _split_ratio(*value) if type(value) is tuple else _split(value)
    if e % 2:
        m, e = 2 * m, e - 1
    return math.sqrt(m), e // 2


def _exact(value: Scalar) -> Optional[Fraction]:
    """Fraction view of an exact input, None for floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, RationalQ):
        return value.as_fraction
    if isinstance(value, int):
        return Fraction(value)
    return None


def q_number(n: int, q: Scalar) -> Scalar:
    """The q-integer [n]_q = (1 - q**n) / (1 - q).

    Exact inputs (int, Fraction, RationalQ) give an exact Fraction;
    float input gives a float.  ``n`` may be negative, for example
    [-1]_q = -1/q and -[-k]_q = 1/q + ... + 1/q**k.
    """
    qx = _exact(q)
    if qx is not None:
        if qx == 1:
            raise ZeroDivisionError("[n]_q needs q != 1")
        return (1 - qx ** n) / (1 - qx)
    qf = float(q)
    if qf == 1.0:
        raise ZeroDivisionError("[n]_q needs q != 1")
    return (1.0 - qf ** n) / (1.0 - qf)


def q_pochhammer_exact(a: Exactish, q: Union[Exactish, RationalQ], n: int) -> Fraction:
    """Exact (a; q)_n for rational a and q."""
    if n < 0:
        raise ValueError("(a; q)_n needs n >= 0 here")
    ax = Fraction(a)
    qx = q.as_fraction if isinstance(q, RationalQ) else Fraction(q)
    out = Fraction(1)
    power = Fraction(1)
    for _ in range(n):
        out *= 1 - ax * power
        power *= qx
    return out


_TERMINATION_CAP = 4096
_TERMINATION_TOL = 1e-12


def _pair_power_index(num: int, den: int, qn: int, qd: int, cap: int) -> Optional[int]:
    """m in 0..cap with num/den == (qn/qd)**-m, on the integers alone.

    Both pairs are in lowest terms with positive denominators, and
    qn/qd is positive and != 1.  Powers of coprime integers stay
    coprime, so num/den == (qn/qd)**-m exactly when num == qd**m and
    den == qn**m.  m is counted off the side whose base is at least 2
    (one is, as q != 1) by exact division, at most cap + 1 times.
    """
    if num <= 0:
        return None
    if qd > qn:
        x, base, y, other = num, qd, den, qn
    else:
        x, base, y, other = den, qn, num, qd
    m = 0
    while m <= cap and x % base == 0:
        x //= base
        m += 1
    if x != 1 or m > cap or other ** m != y:
        return None
    return m


def _neg_power_index(a: Scalar, q: Scalar) -> Optional[int]:
    """Smallest m >= 0 with a == q**-m, None if there is no such m.

    Exact parameters are matched exactly, by an integer test; floats
    within relative 1e-12 of a power.  Candidates above 4096 are not
    considered.
    """
    ax, qx = _exact(a), _exact(q)
    if ax is not None and qx is not None:
        if ax.numerator <= 0:
            return None
        if ax == 1:
            return 0
        if qx.numerator <= 0 or qx == 1:
            return None
        return _pair_power_index(
            ax.numerator, ax.denominator, qx.numerator, qx.denominator, _TERMINATION_CAP)
    try:
        af, qf = float(a), float(q)
    except OverflowError:
        return None
    if af <= 0.0 or not math.isfinite(af):
        return None
    if af == 1.0:
        return 0
    if qf <= 0.0 or qf == 1.0:
        return None
    guess = -math.log(af) / math.log(qf)
    if not math.isfinite(guess):
        return None
    for m in (round(guess) - 1, round(guess), round(guess) + 1):
        if m < 0 or m > _TERMINATION_CAP:
            continue
        if abs(af * qf ** m - 1.0) < _TERMINATION_TOL:
            return m
    return None


def basic_hypergeometric(
    numer: Sequence[Scalar],
    denom: Sequence[Scalar],
    q: Scalar,
    z: Scalar,
) -> float:
    """Evaluate a terminating basic hypergeometric sum, rounded once.

    Arguments are the numerator parameter list ``(a1, ..., aA)``, the
    denominator list ``(b1, ..., bB)`` (the implicit ``(q; q)_n`` is
    supplied here), the base and the argument.  The factor
    ``((-1)**n q**binom(n,2))**(1+B-A)`` is included, so both the
    balanced ``A = B + 1`` normalisation and the unbalanced variants
    used for transfer amplitudes evaluate correctly.

    The result is the correctly rounded value of the exact sum at the
    inputs' binary values: a float q, parameter or z is read as the
    rational it holds, and summed by :func:`basic_hypergeometric_exact`.
    A parameter that :func:`_neg_power_index` finds within relative
    1e-12 of ``q**-m`` is taken as exactly that power, so a float
    q**-m still ends the sum at n = m.  A value beyond the float range
    saturates to +-inf.

    Raises
    ------
    NonTerminatingSeriesError
        when no numerator parameter has the form ``q**-m``.
    DenominatorZeroError
        when a denominator factor vanishes at an index strictly below
        the termination index.
    """
    qx = _exact(q)
    if qx is None:
        qx = Fraction(q)

    def binary(a: Scalar) -> Fraction:
        m = _neg_power_index(a, q)
        return qx ** -m if m is not None else Fraction(a)

    return _float(basic_hypergeometric_exact(
        [binary(a) for a in numer], [binary(b) for b in denom], qx, Fraction(z)))


def basic_hypergeometric_exact(
    numer: Sequence[Exactish],
    denom: Sequence[Exactish],
    q: Union[Exactish, RationalQ],
    z: Exactish,
) -> Fraction:
    """Exact rational value of a terminating basic hypergeometric sum.

    Same series as :func:`basic_hypergeometric` but all inputs must be
    exact (int / Fraction / RationalQ).  Summing in rational arithmetic
    sidesteps the cancellation between the huge alternating terms that
    these series produce away from q = 1; this is the one series kernel,
    and :func:`basic_hypergeometric` rounds it for float inputs.

    The termination index and any vanishing denominator are found by the
    integer test of :func:`_pair_power_index`.  Each term ratio is formed
    as an unreduced integer pair and the sum is nested Horner-style from
    the last term, so the only reduction is the gcd of the returned
    Fraction.
    """
    numer_x = [_exact(a) for a in numer]
    denom_x = [_exact(b) for b in denom]
    qx = _exact(q)
    zx = _exact(z)
    if any(v is None for v in numer_x + denom_x + [qx, zx]):
        raise TypeError("exact series evaluation needs exact parameters")
    qn, qd = qx.numerator, qx.denominator
    if qn <= 0 or qn == qd:
        raise ValueError("series base must be positive and != 1")
    numer_pairs = [(a.numerator, a.denominator) for a in numer_x]
    denom_pairs = [(b.numerator, b.denominator) for b in denom_x]
    # each search is capped at the running stop: only a smaller index can
    # lower the stop, and only a denominator index below it is an error
    top = None
    cap = _TERMINATION_CAP
    for a_num, a_den in numer_pairs:
        m = _pair_power_index(a_num, a_den, qn, qd, cap)
        if m is not None:
            top, cap = m, m - 1
    if top is None:
        raise NonTerminatingSeriesError(
            "no numerator parameter of the form q**-m, refusing an infinite sum"
        )
    for b_num, b_den in denom_pairs:
        j = _pair_power_index(b_num, b_den, qn, qd, top - 1)
        if j is not None:
            raise DenominatorZeroError(
                f"denominator parameter q**-{j} vanishes before the series "
                f"terminates at n = {top}"
            )
    excess = 1 + len(denom_x) - len(numer_x)
    # The ratio t_n / t_{n-1}, with k = n - 1, over integers:
    #   qd z_num (-1)**excess qn**(k excess) prod_a (a_den qd**k - a_num qn**k) prod_b b_den
    #   ------------------------------------------------------------------------------------
    #   z_den (qd**n - qn**n) prod_a a_den prod_b (b_den qd**k - b_num qn**k)
    # The powers of qd from the three factorials and the excess factor
    # cancel down to the one qd; qn**(k |excess|) moves below when
    # excess < 0.  No factor vanishes: a zero (1 - b q**k) with k < top
    # was refused above, and a zero (1 - a q**k) would have made k the stop.
    head = qd * zx.numerator * (-1 if excess % 2 else 1)
    for _, b_den in denom_pairs:
        head *= b_den
    foot = zx.denominator
    for _, a_den in numer_pairs:
        foot *= a_den
    ratios = []
    qn_k = qd_k = 1  # qn**k, qd**k
    for _ in range(top):
        num, den = head, foot
        for a_num, a_den in numer_pairs:
            num *= a_den * qd_k - a_num * qn_k
        for b_num, b_den in denom_pairs:
            den *= b_den * qd_k - b_num * qn_k
        if excess > 0:
            num *= qn_k ** excess
        elif excess < 0:
            den *= qn_k ** -excess
        qn_k *= qn
        qd_k *= qd
        ratios.append((num, den * (qd_k - qn_k)))
    # Horner from the inside out, 1 + r_0 (1 + r_1 (1 + ...)): the
    # denominator is the plain product of the ratio denominators, and the
    # one gcd is taken by the Fraction at the end.
    total_num = total_den = 1
    for num, den in reversed(ratios):
        total_den *= den
        total_num = total_den + num * total_num
    return Fraction(total_num, total_den)


def vwp_pair_reduce_exact(
    base: Exactish, q: Union[Exactish, RationalQ], m: int
) -> Fraction:
    """Order-m product of the very-well-poised parameter pair, exactly.

    For the pair ``q sqrt(base), -q sqrt(base)`` over ``sqrt(base),
    -sqrt(base)`` the order-m q-shifted factorial ratio telescopes to

        (1 - base * q**(2m)) / (1 - base)

    which is evaluated directly in rational arithmetic, so no square
    root of ``base`` is ever taken and negative ``base`` is fine.
    """
    bx = Fraction(base)
    if bx == 1:
        raise PoleAtOneError("very-well-poised pair undefined at base = 1")
    qx = q.as_fraction if isinstance(q, RationalQ) else Fraction(q)
    return (1 - bx * qx ** (2 * m)) / (1 - bx)
