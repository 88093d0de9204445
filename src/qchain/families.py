"""Seven finite q-orthogonal polynomial families and their chain data.

Each family lives on the grid x = 0..N and is one set of textbook data
from Koekoek, Lesky and Swarttouw, *Hypergeometric Orthogonal
Polynomials and Their q-Analogues* (Springer 2010), chapter 14, held in
one :class:`FamilyDef` record of the table :data:`FAMILIES`: parameter
names and window, the terminating series defining P_n(x), the raise and
lower coefficients (a_n, c_n) of its three-term recurrence, the
modulation of the eigenvalue map k -> eps_k, and the exact bases of its
denominators.  Each record and its formulas form one block below,
headed by its KLS section; everything after the table reads it.

:func:`_values` binds a spec to the tuple (arithmetic, N, Q, q,
*params) with Q[e] = q**e, and every table formula but the window is a
plain function of that tuple and its indices: ``series(values, n, x)``,
``recurrence(values, n)``, ``poles(values)`` and ``modulation(values,
k)``.  Each formula is written once against a few coarse operations of
its binding's :class:`Arithmetic`: product and quotient, the q-linear
factor x - y q**k, the q-bracket [k] and one product-over-product
``ratio``.  The binding alone decides the arithmetic: plain (num, den)
integer tuples when q and every parameter are exact, where an operation
costs a few integer products and takes no gcd, floats otherwise, where
each operation runs left to right as the formula states it; so a spec
with a rational q and a float parameter computes exactly as its
all-float twin.  A value leaves the binding reduced by one gcd only
when it is read: as one Fraction (:func:`_reduced`) for each eps_k,
each series argument and the tied q-Racah delta, and as a reduced
integer pair for the record's (a_n, c_n), h_n and J_n**2 on their
first read.  A chain record derives from one binding and keeps it, and
its point table and series check read that binding;
:func:`eigenvalues` and :func:`evaluate` each bind their own, a float
spec's :func:`evaluate` the exact binary twin's.

The recurrence is the only chain data a family states.
:func:`orthogonality_data` derives the rest from it once, as one
:class:`OrthogonalityData` record, and alone decides validity (the
window, the poles, then Favard's criterion: every J_n**2 =
a_n c_{n+1} is positive); :func:`validate` reports its verdict.  The
record keeps the spec, the exact (a_n, c_n), the signed couplings J_n,
fields h_n = a_n + c_n and gauge signs s_n, and decides mirror
symmetry, the condition of perfect transfer, exactly on its reduced
integer pairs, so no family states its transfer point.  Its squared norms d_n,
spectrum eps_k, positive-coupling chain, point table (the orthonormal
matrix before its columns are normalised) and checked U are cached
properties, derived on first use, so validating an exact spec reduces
no Fraction and sums no norms and no series, and every U built from
one record is a copy of one matrix.  An exact spec's table holds
P_n(eps_x), run through the recurrence on integers; its last step
checks the spectrum, and one exact series checks the table.  A float
spec's table holds the twisted-factorisation eigenvectors of its float
chain at the closed-form eigenvalues, and one float series checks it.  Every entry
point that takes a spec derives its record first, so an invalid spec
fails there before any other check; the functions below the entry
points, here and in chain, evolve and closedform, take the record.
The weights are never written down: they are the Christoffel numbers
1/sum_n P_n(x)**2/d_n, which normalising the columns of
P_n(x)/sqrt(d_n) supplies.

The q-Hahn and dual q-Hahn recurrences are the gamma -> 0 and
alpha -> 0 limits of the q-Racah one (with delta tied as
1/(beta q**(N+1))).
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .chain import SpinChain, _frozen_array, _twisted_vectors
from .qseries import (
    RationalQ,
    basic_hypergeometric,
    basic_hypergeometric_exact,
    q_number,
)
from .qseries import _TERMINATION_TOL, _float, _root, _split_ratio

__all__ = [
    "FAMILIES",
    "Family",
    "FamilyDef",
    "FamilySpec",
    "OrthogonalityData",
    "ValidationReport",
    "InvalidSpecError",
    "NumericalCheckError",
    "make_spec",
    "q_krawtchouk",
    "affine_q_krawtchouk",
    "quantum_q_krawtchouk",
    "dual_q_krawtchouk",
    "q_hahn",
    "dual_q_hahn",
    "q_racah",
    "pst_spec",
    "validate",
    "evaluate",
    "orthogonality_data",
    "orthonormal_matrix",
    "recurrence_coefficients",
    "eigenvalue",
    "eigenvalues",
    "pst_chain_closed_form",
    "qracah_delta",
]

Scalar = Union[int, float, Fraction]
# a spec bound by _values: (arithmetic, N, {e: q**e}, q, *params)
Values = tuple


class InvalidSpecError(ValueError):
    """A spec :func:`orthogonality_data` refuses; ``violations`` is what
    :func:`validate` reports for it."""

    def __init__(self, message: str, violations: Sequence[str] = ()) -> None:
        super().__init__(message)
        self.violations = tuple(violations) or (message,)


class Family(enum.Enum):
    Q_KRAWTCHOUK = "q-krawtchouk"
    AFFINE_Q_KRAWTCHOUK = "affine-q-krawtchouk"
    QUANTUM_Q_KRAWTCHOUK = "quantum-q-krawtchouk"
    DUAL_Q_KRAWTCHOUK = "dual-q-krawtchouk"
    Q_HAHN = "q-hahn"
    DUAL_Q_HAHN = "dual-q-hahn"
    Q_RACAH = "q-racah"


@dataclass(frozen=True)
class FamilySpec:
    """A family tag, chain length parameter N, base q, and parameters.

    ``q`` is a RationalQ for exact work or a plain positive float for
    parameter scans.  Parameter values keep their exactness: ints and
    Fractions stay exact, floats stay floats.
    """

    family: Family
    N: int
    q: Union[RationalQ, float]
    params: Tuple[Tuple[str, Scalar], ...]

    def __post_init__(self) -> None:
        if self.N < 0:
            raise ValueError("N must be nonnegative")
        expected = FAMILIES[self.family].params
        got = tuple(name for name, _ in self.params)
        if got != expected:
            raise ValueError(
                f"{self.family.value} takes parameters {expected}, got {got}"
            )
        if not isinstance(self.q, RationalQ):
            qf = float(self.q)
            if qf <= 0.0 or qf == 1.0:
                raise ValueError("q must be positive and != 1")
            object.__setattr__(self, "q", qf)

    def param(self, name: str) -> Scalar:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    @property
    def qf(self) -> float:
        """q as a float; an exact q beyond the float range reads as inf."""
        return self.q if self.qx is None else _float(self.qx)

    @cached_property
    def qx(self) -> Optional[Fraction]:
        """Exact q, or None when q is a float; derived once per spec."""
        return self.q.as_fraction if isinstance(self.q, RationalQ) else None

    @cached_property
    def is_exact(self) -> bool:
        """q and every parameter exact; derived once per spec."""
        if self.qx is None:
            return False
        return all(isinstance(v, (int, Fraction)) for _, v in self.params)

    def describe(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family.value}(N={self.N}, q={self.q}, {parts})"


def make_spec(family: Family, N: int, q, **params: Scalar) -> FamilySpec:
    """A spec of any family from keyword parameters; an int or Fraction
    q becomes a RationalQ."""
    if not isinstance(q, (RationalQ, float, int, Fraction)):
        raise TypeError("q must be RationalQ or a number")
    if isinstance(q, (int, Fraction)) and not isinstance(q, RationalQ):
        q = RationalQ.from_fraction(Fraction(q))
    ordered = tuple((name, params[name]) for name in FAMILIES[family].params)
    return FamilySpec(family, N, q, ordered)


def q_krawtchouk(N: int, q, p: Scalar) -> FamilySpec:
    return make_spec(Family.Q_KRAWTCHOUK, N, q, p=p)


def affine_q_krawtchouk(N: int, q, p: Scalar) -> FamilySpec:
    return make_spec(Family.AFFINE_Q_KRAWTCHOUK, N, q, p=p)


def quantum_q_krawtchouk(N: int, q, p: Scalar) -> FamilySpec:
    return make_spec(Family.QUANTUM_Q_KRAWTCHOUK, N, q, p=p)


def dual_q_krawtchouk(N: int, q, c: Scalar) -> FamilySpec:
    return make_spec(Family.DUAL_Q_KRAWTCHOUK, N, q, c=c)


def q_hahn(N: int, q, alpha: Scalar, beta: Scalar) -> FamilySpec:
    return make_spec(Family.Q_HAHN, N, q, alpha=alpha, beta=beta)


def dual_q_hahn(N: int, q, gamma: Scalar, delta: Scalar) -> FamilySpec:
    return make_spec(Family.DUAL_Q_HAHN, N, q, gamma=gamma, delta=delta)


def q_racah(N: int, q, alpha: Scalar, beta: Scalar, gamma: Scalar) -> FamilySpec:
    """q-Racah spec; the fourth textbook parameter is tied as
    delta = 1 / (beta q**(N+1)) so the grid has exactly N+1 points."""
    return make_spec(Family.Q_RACAH, N, q, alpha=alpha, beta=beta, gamma=gamma)


def pst_spec(q: RationalQ, N: int) -> FamilySpec:
    """The q-Krawtchouk spec with p = q**-N, the perfect transfer point.

    Requires 1/q to be a ratio of two odd integers, otherwise no exact
    transfer time exists and the construction is refused.
    """
    if not isinstance(q, RationalQ):
        q = RationalQ.from_fraction(Fraction(q))
    q.require_odd_odd()
    return q_krawtchouk(N, q, q.as_fraction ** (-N))


def qracah_delta(spec: FamilySpec) -> Scalar:
    """The tied q-Racah parameter delta = 1/(beta q**(N+1)), in the
    spec's arithmetic."""
    ar, N, Q, _, _, beta, _ = _values(spec)
    return ar.value(ar.div(ar.one, ar.mul(beta, Q[N + 1])))


# ----------------------------------------------------------------------
# the one binding of a spec and its two arithmetics

# a product whose denominator reaches this many bits cancels its cross
# factors first (see _cancelled)
_CANCEL_BITS = 1024

# an exact value of a binding: num/den as an unreduced integer pair
Pair = Tuple[int, int]


def _cancelled(n1: int, d1: int, n2: int, d2: int) -> Pair:
    """(n1/d1) (n2/d2) as a pair once its denominator d1 d2 reaches
    _CANCEL_BITS: the cross factors gcd(n1, d2) and gcd(n2, d1) are
    cancelled first, as Fraction does, since there a gcd of the factors
    costs less than carrying their common content through the products
    that follow and into the final reduction.  Below that bound a
    product forms (n1 n2, d1 d2) with no gcd.  Without the cancellation
    the (a_n, c_n) pairs of pst_spec(3/5, 400) reach five times the bits
    of their reduced values, and its recurrence runs 1.4 times as long
    as in Fraction arithmetic."""
    g, h = math.gcd(n1, d2), math.gcd(n2, d1)
    return (n1 // g) * (n2 // h), (d1 // h) * (d2 // g)


def _pair_mul(x: Pair, y: Pair) -> Pair:
    xn, xd = x
    yn, yd = y
    d = xd * yd
    if d.bit_length() < _CANCEL_BITS:
        return xn * yn, d
    return _cancelled(xn, xd, yn, yd)


def _pair_div(x: Pair, y: Pair) -> Pair:
    xn, xd = x
    yn, yd = y
    d = xd * yn
    if d.bit_length() < _CANCEL_BITS:
        return xn * yd, d
    return _cancelled(xn, xd, yd, yn)


def _pair_less(x: Pair, y: Pair, z: Pair) -> Pair:
    yn, yd = y
    zn, zd = z
    d = yd * zd
    if d.bit_length() < _CANCEL_BITS:
        n = yn * zn
    else:
        n, d = _cancelled(yn, yd, zn, zd)
    xn, xd = x
    return xn * d - n * xd, xd * d


def _pair_bracket(Q: dict, k: int) -> Pair:
    kn, kd = Q[k]
    u, v = Q[1]
    return _pair_div((kd - kn, kd), (v - u, v))


def _pair_ratio(nums: Sequence[Pair], dens: Sequence[Pair]) -> Pair:
    n = d = m = e = 1
    for xn, xd in nums:
        n *= xn
        d *= xd
    for yn, yd in dens:
        m *= yn
        e *= yd
    if (d * m).bit_length() < _CANCEL_BITS and e.bit_length() < _CANCEL_BITS:
        return n * e, d * m
    # the products one at a time, as _pair_mul and _pair_div cancel them
    one = 1, 1
    return _pair_div(reduce(_pair_mul, nums, one), reduce(_pair_mul, dens, one))


def _reduced(pair: Pair) -> Fraction:
    """An exact value as a Fraction, reduced by one gcd (ZeroDivisionError
    on a zero denominator)."""
    return Fraction(*pair)


def _lowest(n: int, d: int) -> Pair:
    """n/d in lowest terms with a positive denominator, as Fraction
    reduces it: one gcd.  Needs d != 0."""
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


class Arithmetic(NamedTuple):
    """The operations every table formula computes with, in one of two
    implementations that a binding carries as its first entry: integer
    pairs (num, den) for an exact spec (:data:`_PAIRS`), floats
    otherwise (:data:`_FLOATS`)."""

    one: Scalar
    zero: Scalar
    neg: Callable  # -x
    mul: Callable  # x y
    div: Callable  # x / y
    less: Callable  # x - y z, the q-linear factor with z = Q[k]
    bracket: Callable  # [k] = (1 - Q[k]) / (1 - Q[1]) of the powers Q
    ratio: Callable  # prod(nums) / prod(dens), a plain product when dens is empty
    value: Callable  # a value as it leaves the binding


# A pair operation costs a few integer products and takes no gcd while
# its denominator stays below _CANCEL_BITS; a zero denominator is
# carried, not raised (every operation keeps it zero, and _reduced
# raises ZeroDivisionError), so the record decides a division by zero
# on its h_n.
_PAIRS = Arithmetic(
    one=(1, 1), zero=(0, 1), neg=lambda x: (-x[0], x[1]), mul=_pair_mul, div=_pair_div,
    less=_pair_less, bracket=_pair_bracket, ratio=_pair_ratio, value=_reduced)

# Each float operation runs left to right in the order the formula
# states it, a ratio as its numerator product over its denominator
# product, so the same formula rounds the same way whatever its layout.
_FLOATS = Arithmetic(
    one=1.0, zero=0.0, neg=operator.neg, mul=operator.mul, div=operator.truediv,
    less=lambda x, y, z: x - y * z, bracket=lambda Q, k: (1 - Q[k]) / (1 - Q[1]),
    ratio=lambda nums, dens: math.prod(nums) / math.prod(dens), value=lambda x: x)


def _values(spec: FamilySpec) -> Values:
    """The arithmetic, N, the powers Q[e] = q**e for e = -N-1..2N+2, q
    and the parameters in table order: unreduced integer pairs for an
    exact spec, floats otherwise.  Every table formula but the window
    reads this tuple.  The exact powers come from repeated
    multiplication of q = u/v, u**e and v**e, one product per power."""
    N = spec.N
    if not spec.is_exact:
        q = spec.qf
        return (_FLOATS, N, {e: q ** e for e in range(-N - 1, 2 * N + 3)}, q,
                *(float(value) for _, value in spec.params))
    u, v = spec.qx.numerator, spec.qx.denominator
    Q, up, vp = {}, 1, 1
    for e in range(2 * N + 3):
        Q[e] = up, vp
        if 0 < e <= N + 1:
            Q[-e] = vp, up
        up, vp = up * u, vp * v
    # an int or a Fraction parameter, read as its lowest terms
    return (_PAIRS, N, Q, Q[1], *((x.numerator, x.denominator) for _, x in spec.params))


def _scalars(spec: FamilySpec, *names: str) -> Tuple[Scalar, ...]:
    """q and the named parameters as a window decides them: exact
    values for an exact spec, floats otherwise, so an exact window
    never rounds."""
    if spec.is_exact:
        return (spec.qx, *(spec.param(name) for name in names))
    return (spec.qf, *(_float(spec.param(name)) for name in names))


def _shown(value: Scalar) -> Scalar:
    """A window value as its message prints it: the float, unless an
    exact value lies beyond the float range, which prints exactly."""
    try:
        shown = float(value)
    except OverflowError:
        return value
    return shown if shown or not value else value


def _positive(spec: FamilySpec, *names: str) -> List[str]:
    _, *values = _scalars(spec, *names)
    return [f"{name} must be positive, got {_shown(v)}"
            for name, v in zip(names, values) if not v > 0]


def _from_AC(ar: Arithmetic, q: Scalar, A: Scalar, C: Scalar) -> Tuple[Scalar, Scalar]:
    """(a_n, c_n) from the raise/lower coefficients A_n, C_n of the grid
    variable: a_n = -A_n / (1 - q), c_n = -C_n / (1 - q).  Callers give
    the identically vanishing A_N and C_0 as exact zeros: the full
    expressions can hit a removable 0/0 there."""
    q_minus_one = ar.less(q, ar.one, ar.one)
    return ar.div(A, q_minus_one), ar.div(C, q_minus_one)


@dataclass(frozen=True)
class FamilyDef:
    """The textbook data of one family.

    ``series``, ``recurrence``, ``poles`` and ``modulation`` are plain
    functions of one binding of a spec, the tuple ``(N, Q, q, *params)``
    of :func:`_values`, and of their indices, so a spec is computed in a
    single arithmetic: unreduced integer pairs when q and every
    parameter are exact, floats otherwise.  ``window`` reads the spec
    itself, since its messages are stated on the spec's own values; it
    decides exactly for an exact spec and in floats otherwise.

    ``series(values, n, x)`` gives the numerator and denominator
    parameters and the argument of the series for P_n(x).
    ``recurrence(values, n)`` gives the raise and lower coefficients
    (a_n, c_n) of

        eps(x) P_n(x) = (a_n + c_n) P_n(x) - a_n P_{n+1}(x) - c_n P_{n-1}(x),

    with a_N = c_0 = 0; it is the only chain data a family states.
    ``modulation(values, k)`` multiplies the eigenvalue factor -[-k]
    that all families share; ``poles(values)`` names the exact bases a
    of the (a; q)_j, j < N, in the denominators of the series and of
    the family's textbook weight.
    """

    params: Tuple[str, ...]
    window: Callable[[FamilySpec], List[str]]
    series: Callable[[Values, int, int], Tuple[list, list, Scalar]]
    recurrence: Callable[[Values, int], Tuple[Scalar, Scalar]]
    poles: Callable[[Values], Tuple[Tuple[str, Scalar], ...]] = lambda values: ()
    modulation: Callable[[Values, int], Scalar] = lambda values, k: values[0].one


FAMILIES: Dict[Family, FamilyDef] = {}


# q-Krawtchouk, KLS 14.15
def _qk_series(values: Values, n: int, x: int) -> Tuple[list, list, Scalar]:
    ar, N, Q, q, p = values
    return [Q[-n], Q[-x], ar.neg(ar.mul(p, Q[n]))], [Q[-N], ar.zero], q


def _qk_recurrence(values: Values, n: int) -> Tuple[Scalar, Scalar]:
    ar, N, Q, q, p = values
    one, less, m = ar.one, ar.less, ar.neg(p)  # 1 + p q**k = 1 - m q**k
    shared = less(one, m, Q[2 * n])
    A = ar.zero if n == N else ar.ratio(
        (less(one, one, Q[n - N]), less(one, m, Q[n])), (shared, less(one, m, Q[2 * n + 1])))
    C = ar.zero if n == 0 else ar.ratio(
        (m, Q[2 * n - N - 1], less(one, m, Q[n + N]), less(one, one, Q[n])),
        (less(one, m, Q[2 * n - 1]), shared))
    return _from_AC(ar, q, A, C)


FAMILIES[Family.Q_KRAWTCHOUK] = FamilyDef(
    params=("p",),
    window=lambda spec: _positive(spec, "p"),
    series=_qk_series,
    recurrence=_qk_recurrence,
)


# affine q-Krawtchouk, KLS 14.16
def _affine_window(spec: FamilySpec) -> List[str]:
    out = _positive(spec, "p")
    q, p = _scalars(spec, "p")
    bound = 1 / q if q < 1 else q ** -spec.N
    if not out and not p < bound:
        out.append(f"need 0 < p < {_shown(bound)} for q = {spec.q}, got {_shown(p)}")
    return out


def _affine_series(values: Values, n: int, x: int) -> Tuple[list, list, Scalar]:
    ar, N, Q, q, p = values
    return [Q[-n], ar.zero, Q[-x]], [ar.mul(p, q), Q[-N]], q


def _affine_recurrence(values: Values, n: int) -> Tuple[Scalar, Scalar]:
    ar, N, Q, q, p = values
    return (ar.mul(ar.neg(ar.bracket(Q, n - N)), ar.less(ar.one, p, Q[n + 1])),
            ar.ratio((ar.bracket(Q, n), p, Q[n - N]), ()))


FAMILIES[Family.AFFINE_Q_KRAWTCHOUK] = FamilyDef(
    params=("p",),
    window=_affine_window,
    series=_affine_series,
    recurrence=_affine_recurrence,
    poles=lambda values: (("p*q", values[0].mul(values[4], values[3])),),
)


# quantum q-Krawtchouk, KLS 14.14
def _quantum_window(spec: FamilySpec) -> List[str]:
    out = _positive(spec, "p")
    q, p = _scalars(spec, "p")
    try:
        bound = q ** -spec.N if q < 1 else 1 / q
    except OverflowError:  # a float bound beyond the float range
        bound = math.inf
    if not out and not p > bound:
        out.append(f"need p > {_shown(bound)} for q = {spec.q}, got {_shown(p)}")
    return out


def _quantum_series(values: Values, n: int, x: int) -> Tuple[list, list, Scalar]:
    ar, N, Q, _, p = values
    return [Q[-n], Q[-x]], [Q[-N]], ar.mul(p, Q[n + 1])


def _quantum_recurrence(values: Values, n: int) -> Tuple[Scalar, Scalar]:
    ar, N, Q, q, p = values
    return (ar.ratio((ar.neg(ar.bracket(Q, n - N)),), (p, Q[2 * n + 1])),
            ar.ratio((ar.neg(ar.bracket(Q, n)), ar.less(ar.one, p, Q[n])), (p, Q[2 * n])))


FAMILIES[Family.QUANTUM_Q_KRAWTCHOUK] = FamilyDef(
    params=("p",),
    window=_quantum_window,
    series=_quantum_series,
    recurrence=_quantum_recurrence,
)


# dual q-Krawtchouk, KLS 14.17
def _dual_qk_window(spec: FamilySpec) -> List[str]:
    c = _scalars(spec, "c")[1]
    return [] if c < 0 else [f"c must be negative, got {_shown(c)}"]


def _dual_qk_series(values: Values, n: int, x: int) -> Tuple[list, list, Scalar]:
    ar, N, Q, q, c = values
    return [Q[-n], Q[-x], ar.mul(c, Q[x - N])], [Q[-N], ar.zero], q


def _dual_qk_recurrence(values: Values, n: int) -> Tuple[Scalar, Scalar]:
    ar, N, Q, q, c = values
    # the bracket arguments are fixed by the trace identity
    # sum(h) = sum(eps), which the test suite checks exactly
    return (ar.neg(ar.bracket(Q, n - N)),
            ar.ratio((ar.neg(c), Q[-N], ar.bracket(Q, n)), ()))


def _dual_qk_modulation(values: Values, k: int) -> Scalar:
    ar, N, Q, _, c = values
    return ar.less(ar.one, c, Q[k - N])


FAMILIES[Family.DUAL_Q_KRAWTCHOUK] = FamilyDef(
    params=("c",),
    window=_dual_qk_window,
    series=_dual_qk_series,
    recurrence=_dual_qk_recurrence,
    poles=lambda values: (("c*q", values[0].mul(values[4], values[3])),),
    modulation=_dual_qk_modulation,
)


# q-Hahn, KLS 14.6
def _qhahn_series(values: Values, n: int, x: int) -> Tuple[list, list, Scalar]:
    ar, N, Q, q, a, b = values
    return [Q[-n], ar.mul(ar.mul(a, b), Q[n + 1]), Q[-x]], [ar.mul(a, q), Q[-N]], q


def _qhahn_recurrence(values: Values, n: int) -> Tuple[Scalar, Scalar]:
    ar, N, Q, q, a, b = values
    one, less, ab = ar.one, ar.less, ar.mul(a, b)
    shared = less(one, ab, Q[2 * n + 1])
    A = ar.zero if n == N else ar.ratio(
        (less(one, a, Q[n + 1]), less(one, ab, Q[n + 1]), less(one, one, Q[n - N])),
        (shared, less(one, ab, Q[2 * n + 2])))
    C = ar.zero if n == 0 else ar.ratio(
        (ar.neg(a), Q[n - N], less(one, one, Q[n]), less(one, b, Q[n]),
         less(one, ab, Q[N + n + 1])),
        (less(one, ab, Q[2 * n]), shared))
    return _from_AC(ar, q, A, C)


def _qhahn_poles(values: Values) -> Tuple[Tuple[str, Scalar], ...]:
    ar, N, Q, q, a, b = values
    return ("alpha*q", ar.mul(a, q)), ("q**-N/beta", ar.div(Q[-N], b))


FAMILIES[Family.Q_HAHN] = FamilyDef(
    params=("alpha", "beta"),
    window=lambda spec: _positive(spec, "alpha", "beta"),
    series=_qhahn_series,
    recurrence=_qhahn_recurrence,
    poles=_qhahn_poles,
)


# dual q-Hahn, KLS 14.7
def _dual_qhahn_recurrence(values: Values, n: int) -> Tuple[Scalar, Scalar]:
    ar, N, Q, q, g, dd = values
    one, less = ar.one, ar.less
    A = ar.mul(less(one, one, Q[n - N]), less(one, g, Q[n + 1]))
    C = ar.ratio((g, q, less(one, one, Q[n]), less(dd, one, Q[n - N - 1])), ())
    return _from_AC(ar, q, A, C)


def _dual_qhahn_series(values: Values, n: int, x: int) -> Tuple[list, list, Scalar]:
    ar, N, Q, q, g, dd = values
    return [Q[-n], Q[-x], ar.mul(ar.mul(g, dd), Q[x + 1])], [ar.mul(g, q), Q[-N]], q


def _dual_qhahn_poles(values: Values) -> Tuple[Tuple[str, Scalar], ...]:
    ar, N, Q, q, g, dd = values
    return (("gamma*q", ar.mul(g, q)), ("gamma*delta*q**(N+2)", ar.mul(ar.mul(g, dd), Q[N + 2])),
            ("delta*q", ar.mul(dd, q)))


def _dual_qhahn_modulation(values: Values, k: int) -> Scalar:
    ar, _, Q, _, g, dd = values
    return ar.less(ar.one, ar.mul(g, dd), Q[k + 1])


FAMILIES[Family.DUAL_Q_HAHN] = FamilyDef(
    params=("gamma", "delta"),
    window=lambda spec: _positive(spec, "gamma", "delta"),
    series=_dual_qhahn_series,
    recurrence=_dual_qhahn_recurrence,
    poles=_dual_qhahn_poles,
    modulation=_dual_qhahn_modulation,
)


# q-Racah, KLS 14.2, with delta = 1/(beta q**(N+1)); the product gamma
# delta is formed as gamma / (beta q**(N+1)) throughout
def _qracah_series(values: Values, n: int, x: int) -> Tuple[list, list, Scalar]:
    ar, N, Q, q, a, b, g = values
    mul = ar.mul
    return ([Q[-n], mul(mul(a, b), Q[n + 1]), Q[-x], mul(ar.div(g, mul(b, Q[N + 1])), Q[x + 1])],
            [mul(a, q), Q[-N], mul(g, q)], q)


def _qracah_recurrence(values: Values, n: int) -> Tuple[Scalar, Scalar]:
    ar, N, Q, q, a, b, g = values
    one, less, ab = ar.one, ar.less, ar.mul(a, b)
    shared = less(one, ab, Q[2 * n + 1])
    A = ar.zero if n == N else ar.ratio(
        (less(one, a, Q[n + 1]), less(one, ab, Q[n + 1]),
         less(one, one, Q[n - N]), less(one, g, Q[n + 1])),
        (shared, less(one, ab, Q[2 * n + 2])))
    C = ar.zero if n == 0 else ar.ratio(
        (q, less(one, one, Q[n]), less(one, b, Q[n]),
         less(g, ab, Q[n]), less(ar.div(one, ar.mul(b, Q[N + 1])), a, Q[n])),
        (less(one, ab, Q[2 * n]), shared))
    return _from_AC(ar, q, A, C)


def _qracah_poles(values: Values) -> Tuple[Tuple[str, Scalar], ...]:
    ar, N, Q, q, a, b, g = values
    mul, div = ar.mul, ar.div
    bQ = mul(b, Q[N + 1])
    return (
        ("alpha*q", mul(a, q)),
        ("gamma*q", mul(g, q)),
        ("gamma*delta*q/alpha", div(mul(div(g, bQ), q), a)),
        ("gamma*q/beta", div(mul(g, q), b)),
        ("delta*q", div(q, bQ)),
    )


def _qracah_modulation(values: Values, k: int) -> Scalar:
    ar, N, Q, _, _, b, g = values
    return ar.less(ar.one, ar.div(g, ar.mul(b, Q[N + 1])), Q[k + 1])


FAMILIES[Family.Q_RACAH] = FamilyDef(
    params=("alpha", "beta", "gamma"),
    window=lambda spec: _positive(spec, "alpha", "beta", "gamma") + (
        [] if _scalars(spec)[0] < 1 else [f"q-racah needs 0 < q < 1, got q = {spec.q}"]),
    series=_qracah_series,
    recurrence=_qracah_recurrence,
    poles=_qracah_poles,
    modulation=_qracah_modulation,
)


# ----------------------------------------------------------------------
# polynomial point values

def evaluate(spec: FamilySpec, n: int, x: int) -> float:
    """Value of the degree-n polynomial at grid node x, both in 0..N.

    Normalised so that P_n(0) = 1 for every family.  Every spec is
    summed in rational arithmetic (the alternating series cancel badly
    in floats once N grows).  A float spec is summed as its exact binary
    twin, whose q and parameters are the exact values of the floats its
    binding reads, so no product of that binding is rounded or
    overflows on the way.  The value is rounded once, correctly, and a
    value beyond the double range saturates to +-inf instead of raising.
    """
    if not (0 <= n <= spec.N and 0 <= x <= spec.N):
        raise ValueError("need 0 <= n, x <= N")
    if not spec.is_exact:
        spec = make_spec(spec.family, spec.N, Fraction(spec.qf),
                         **{name: Fraction(float(value)) for name, value in spec.params})
    return _float(_point_value(spec.family, _values(spec), n, x))


def _point_value(family: Family, values: Values, n: int, x: int) -> Scalar:
    """P_n(x), summed from the family's series on the binding ``values``:
    a Fraction for an exact binding, a float otherwise."""
    numer, denom, z = FAMILIES[family].series(values, n, x)
    if values[0] is _PAIRS:
        return basic_hypergeometric_exact(
            [_reduced(v) for v in numer], [_reduced(v) for v in denom],
            _reduced(values[3]), _reduced(z))
    return basic_hypergeometric(numer, denom, values[3], z)


# ----------------------------------------------------------------------
# the Jacobi core: couplings, norms and the orthonormal matrix

class NumericalCheckError(ArithmeticError):
    """A computed result failed its own residual check."""


# largest |U^T U - I| accepted from an orthonormal matrix build
_ORTHONORMALITY_BOUND = 1e-9
# largest relative gap of a float spec's series P_1(N) from its table
_SERIES_BOUND = 1e-9
# the exponent a zero mantissa takes when U's columns find their largest
_NO_EXPONENT = np.iinfo(np.int64).min


def _recurrence_rows(data: "OrthogonalityData") -> List[Tuple[int, int, int, int, int]]:
    """Per degree n = 0..N, the integers (r_n, H_n, B_n, top_n, bottom_n)
    that run the recurrence of :func:`_recurrence_columns`, from the
    record's reduced ``pairs``: the row scale r_n, the least positive
    integer making H_n = r_n h_n and B_n = r_n r_{n-1} b_n integers
    (b_0 = 0), and top_n / bottom_n = 1 / (R_n prod_{j<n} a_j) with
    bottom_n > 0.  Each r_{n-1} b_n takes one gcd against r_{n-1}."""
    a, _, h, J2 = data.pairs
    rows, scale = [], 1
    top, bottom = 1, 1
    for n, (hn, hd) in enumerate(h):
        if n:  # r_{n-1} b_n in lowest terms, from J_{n-1}**2 = jn/jd
            jn, jd = J2[n - 1]
            g = math.gcd(scale, jd)
            bn, bd = jn * (scale // g), jd // g
        else:
            bn, bd = 0, 1
        scale = math.lcm(hd, bd)
        signed = (top, bottom) if bottom > 0 else (-top, -bottom)
        rows.append((scale, hn * (scale // hd), bn * (scale // bd), *signed))
        an, ad = a[n]
        top *= ad
        bottom *= scale * an
    return rows


def _recurrence_columns(data: "OrthogonalityData") -> List[List[Tuple[int, int]]]:
    """Per grid node x, the pairs (num, den) with P_n(x) = num/den and
    den > 0 for n = 0..N, from the recurrence at eps_x on integers.

    With the record's h_n = a_n + c_n and b_n = J_{n-1}**2 = a_{n-1} c_n,
    the polynomials pi_n = P_n prod_{j<n} a_j satisfy pi_{n+1} = (h_n -
    eps) pi_n - b_n pi_{n-1}, the characteristic polynomials of the
    leading minors of the Jacobi matrix (Golub and Welsch, *Math. Comp.*
    23, 1969).
    The row scales r_n of :func:`_recurrence_rows` make H_n = r_n h_n
    and B_n = r_n r_{n-1} b_n integers, so at eps = u/v the scaled
    pi~_n = v**n R_n pi_n, R_n = prod_{j<n} r_j, run on integers alone:

        pi~_{n+1} = (v H_n - r_n u) pi~_n - v**2 B_n pi~_{n-1},

    and P_n = pi~_n / (v**n R_n prod_{j<n} a_j), left unreduced.  The
    last step pi~_{N+1} is the characteristic polynomial of the whole
    matrix, so it vanishes at every eps_x exactly when the spectrum is
    the matrix's; that, distinct eigenvalues, and the family's series
    at (n, x) = (N, N) are checked, each failure raising
    NumericalCheckError.
    """
    spec, spectrum = data.spec, data.spectrum
    N = spec.N
    if len(set(spectrum)) != N + 1:
        raise NumericalCheckError(f"eigenvalue map of {spec.describe()} repeats a value")
    rows = _recurrence_rows(data)
    columns = []
    for x, eps in enumerate(spectrum):
        u, v = eps.numerator, eps.denominator
        vv = v * v
        before, pi, power = 0, 1, 1
        column = []
        for r, H, B, top, bottom in rows:
            column.append((pi * top, power * bottom))
            before, pi = pi, (v * H - r * u) * pi - vv * B * before
            power *= v
        if pi:
            raise NumericalCheckError(
                f"eps_{x} = {eps} of {spec.describe()} is not a root of the "
                "characteristic polynomial of its recurrence")
        columns.append(column)
    series = _point_value(spec.family, data.values, N, N)
    num, den = columns[N][N]
    if series.numerator * den != num * series.denominator:
        raise NumericalCheckError(
            f"series P_N(N) of {spec.describe()} disagrees with its recurrence")
    return columns


def _twisted_columns(data: "OrthogonalityData") -> Tuple[np.ndarray, np.ndarray]:
    """s_n P_n(x) sqrt(d_0/d_n) for n, x = 0..N as (mantissa, exponent)
    arrays, row 0 equal to 1: the eigenvectors of the float ``chain``'s
    matrix (off-diagonal -|J_n|) at each eps_x of ``spectrum`` by
    :func:`~qchain.chain._twisted_vectors`.  The family's float series
    at (n, x) = (1, N), where it has two terms, checks the table:
    P_1(N) = s_1 z_1 sqrt(d_1/d_0) must agree to _SERIES_BOUND
    relative, or NumericalCheckError."""
    spec, chain = data.spec, data.chain
    mantissa, exponent = _twisted_vectors(chain.fields, -chain.couplings, data.spectrum)
    N = spec.N
    if N:
        (m0, e0), (m1, e1) = _root(data.norms[0]), _root(data.norms[1])
        table = float(np.ldexp(data.signs[1] * mantissa[1, N] * m1 / m0,
                               exponent[1, N] + e1 - e0))
        series = _point_value(spec.family, data.values, 1, N)
        gap = abs(table / series - 1) if series else math.inf
        if not gap <= _SERIES_BOUND:
            raise NumericalCheckError(
                f"series P_1(N) of {spec.describe()} disagrees with its twisted "
                f"eigenvectors by {gap:.1e} (bound {_SERIES_BOUND:.0e})")
    return mantissa, exponent


@dataclass(frozen=True)
class OrthogonalityData:
    """A spec's chain record, derived once by :func:`orthogonality_data`
    from the recurrence alone and handed to every reader below the
    spec-taking entry points.

    ``values`` is the binding of :func:`_values` the record was derived
    from, which the point table reads.  ``raw`` holds, in that binding's
    arithmetic, the raise and lower coefficients (a_n, c_n) of the
    recurrence and the Jacobi data h_n = a_n + c_n (n = 0..N) and
    J_n**2 = a_n c_{n+1} (n = 0..N-1) formed from them once: unreduced
    (num, den) integer tuples for an exact spec, floats otherwise.  An exact
    record's integer core is ``pairs``, the same four sequences as
    (num, den > 0) integer pairs in lowest terms, one gcd per value on
    first read; the point table, ``norms`` and ``mirror_symmetric`` run
    on it.  ``a``, ``c``, ``h`` and ``J2`` are those values as
    Fractions (a float spec's floats), built only when read, so
    deriving a record to validate it takes no gcd and a report builds
    none of them.  ``floats`` holds the signed couplings J_n =
    sign(a_n) sqrt(J_n**2), the fields h_n and the gauge signs s_n
    that turn the raw couplings into positive ones, computed by the
    derivation from ``raw`` directly; ``couplings``, ``fields`` and
    ``signs`` are them as read-only float arrays, built on first read.
    ``norms``, ``spectrum``, ``chain``, ``point_table`` and ``U`` are
    derived on first use, so the exact work behind U and its float part
    both run once per record however often :func:`orthonormal_matrix`
    reads it.
    """

    spec: FamilySpec
    values: Values
    raw: Tuple[Tuple[Scalar, ...], ...]
    floats: Tuple[List[float], List[float], List[float]]

    couplings = cached_property(lambda self: _frozen_array(self.floats[0]))
    fields = cached_property(lambda self: _frozen_array(self.floats[1]))
    signs = cached_property(lambda self: _frozen_array(self.floats[2]))

    @cached_property
    def pairs(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """(a, c, h, J2) of an exact record as (num, den > 0) pairs in
        lowest terms, reduced from ``raw`` on first read."""
        return tuple(tuple(_lowest(*v) for v in part) for part in self.raw)

    def _jacobi(self, i: int) -> Tuple[Scalar, ...]:
        if self.spec.is_exact:
            return tuple(Fraction(n, d) for n, d in self.pairs[i])
        return self.raw[i]

    a = cached_property(lambda self: self._jacobi(0))
    c = cached_property(lambda self: self._jacobi(1))
    h = cached_property(lambda self: self._jacobi(2))
    J2 = cached_property(lambda self: self._jacobi(3))

    @property
    def mirror_symmetric(self) -> bool:
        """h_n = h_{N-n} and J_n**2 = J_{N-1-n}**2 for every n, which
        perfect transfer needs (Kay, *IJQI* 8 (2010) 641), decided on
        the record's reduced ``pairs``, so exactly, for an exact spec."""
        _, _, h, J2 = self.pairs if self.spec.is_exact else self.raw
        return h == h[::-1] and J2 == J2[::-1]

    @cached_property
    def norm_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """An exact record's squared norms d(0..N) as (num, den > 0)
        integer pairs, unreduced: d_n = rho_n * sum_m 1/rho_m with
        rho_n = prod_{j<n} c_{j+1}/a_j (d_{n+1}/d_n = c_{n+1}/a_n, KLS
        2010, ch. 14).  Each rho_n is formed from the reduced ``pairs``
        and reduced by one gcd, as Fraction would; the sum of the 1/rho_m
        is S/L over the lcm L of their numerators, and d_n is the pair
        (rho_n num * S, rho_n den * L)."""
        a, c = self.pairs[:2]
        rho = [(1, 1)]
        for n in range(self.spec.N):
            (rn, rd), (cn, cd), (an, ad) = rho[n], c[n + 1], a[n]
            rho.append(_lowest(rn * cn * ad, rd * cd * an))
        L = math.lcm(*(rn for rn, _ in rho))
        S = sum(rd * (L // rn) for rn, rd in rho)
        return tuple((rn * S, rd * L) for rn, rd in rho)

    @cached_property
    def norms(self) -> Tuple[Scalar, ...]:
        """The squared norms d(0..N) of P_n for the weight with w(0) = 1:
        Fractions of ``norm_pairs``, built when read, for an exact spec;
        for a float one, d_n = rho_n * sum_m 1/rho_m in floats."""
        if self.spec.is_exact:
            return tuple(Fraction(n, d) for n, d in self.norm_pairs)
        a, c = self.a, self.c
        rho = [1.0]
        for n in range(self.spec.N):
            rho.append(rho[n] * c[n + 1] / a[n])
        # a float rho can underflow to 0 or overflow
        total = sum(1 / r for r in rho) if all(rho) else math.inf
        return tuple(r * total for r in rho)

    @cached_property
    def spectrum(self) -> Tuple[Scalar, ...]:
        """eps_0..eps_N by :func:`eigenvalues`, Fractions for an exact spec."""
        return tuple(eigenvalues(self.spec))

    @cached_property
    def chain(self) -> SpinChain:
        """The chain with the positive couplings |J_n| and the fields h_n;
        NumericalCheckError when a coupling underflows to 0.0 in floats."""
        if not self.couplings.all():
            raise NumericalCheckError(
                f"couplings of {self.spec.describe()} underflow to 0 in floats")
        return SpinChain(np.abs(self.couplings), self.fields)

    @cached_property
    def point_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """s_n P_n(x)/sqrt(d_n) for n, x = 0..N as read-only arrays
        (mantissa, exponent) with entry = mantissa * 2**exponent, each
        value held as a correctly rounded mantissa and a binary exponent
        so that no size of exact value overflows.  An exact spec runs
        on its integer core: the recurrence at each eps_x of
        ``spectrum`` on integers from the reduced ``pairs``
        (:func:`_recurrence_columns`, O(N**2) integer steps, which also
        check the spectrum and one series value), each unreduced entry
        split into two flat lists of mantissas and exponents, and the
        square roots of ``norm_pairs`` split directly, so the table
        builds no Fraction beyond its series check.  A float spec, whose
        series and recurrence are both unstable in floats, takes the
        eigenvectors of its float ``chain`` at each eps_x by twisted
        factorisation (:func:`_twisted_columns`, O(N) per column, which
        also checks one series value), scaled to 1/sqrt(d_0) in row 0
        since P_0 = 1."""
        N = self.spec.N
        if self.spec.is_exact:
            root_m, root_e = (np.array(part) for part in zip(*map(_root, self.norm_pairs)))
            columns = _recurrence_columns(self)
            mantissa, exponent = [], []
            for n in range(N + 1):
                for column in columns:
                    m, e = _split_ratio(*column[n])
                    mantissa.append(m)
                    exponent.append(e)
            shape = (N + 1, N + 1)
            mantissa = np.reshape(mantissa, shape) / (self.signs * root_m)[:, None]
            exponent = np.reshape(exponent, shape) - root_e[:, None]
        else:
            root_m, root_e = _root(self.norms[0])
            mantissa, exponent = _twisted_columns(self)
            mantissa /= root_m
            exponent -= root_e
        return _frozen_array(mantissa), _frozen_array(exponent, dtype=np.int64)

    @cached_property
    def U(self) -> np.ndarray:
        """The checked, read-only orthonormal matrix of
        :func:`orthonormal_matrix`: each column of ``point_table`` shifted
        by its largest exponent, scaled and normalised, then checked;
        NumericalCheckError (raised anew on every read) when max
        |U^T U - I| exceeds _ORTHONORMALITY_BOUND."""
        N = self.spec.N
        mantissa, exponent = self.point_table
        top = np.where(mantissa != 0.0, exponent, _NO_EXPONENT).max(axis=0)
        U = np.ldexp(mantissa, exponent - top)
        U /= np.sqrt(np.add.reduce(U * U, axis=0))  # np.linalg.norm(U, axis=0)
        residual = float(np.max(np.abs(U.T @ U - np.eye(N + 1))))
        if not residual <= _ORTHONORMALITY_BOUND:
            raise NumericalCheckError(
                f"orthonormal matrix of {self.spec.describe()} is off by {residual:.1e} "
                f"(bound {_ORTHONORMALITY_BOUND:.0e})")
        U.flags.writeable = False
        return U


def _refusal(spec: FamilySpec, *violations: str) -> InvalidSpecError:
    return InvalidSpecError(f"{spec.describe()}: " + "; ".join(violations), violations)


def orthogonality_data(spec: FamilySpec) -> OrthogonalityData:
    """The spec's chain record from one recurrence pass; the one
    function that decides validity.

    The rules run in order on one window evaluation and one binding:
    the window; no vanishing denominator factor
    (:func:`_degeneracy`), exactly for an exact spec and within
    rounding for a float one; Favard's criterion, under which the
    Jacobi matrix belongs to a positive measure on N+1 points exactly
    when every J_n**2 = a_n c_{n+1} is positive, decided exactly for an
    exact spec; finite couplings and fields; finite float norms.  A
    negative a_n flips the sign of J_n, a gauge choice absorbed into
    s_0 = +1, s_{n+1} = s_n * sign(a_n).  Exact norms are positive
    whenever Favard's criterion holds, so only a float spec evaluates
    its norms here, to catch their overflow.

    Every rule reads the binding's values as they come: an exact spec's
    (a_n, c_n), h_n and J_n**2 stay unreduced (num, den) tuples, decided
    on their integers (see :class:`OrthogonalityData`): a zero
    denominator, the sign of num * den, and the floats num / den.

    Raises InvalidSpecError at the first rule broken, with the message
    "<spec.describe()>: <violations>"; its ``violations`` are what
    :func:`validate` reports.
    """
    fam = FAMILIES[spec.family]
    violations = fam.window(spec)
    N, exact = spec.N, spec.is_exact
    try:
        if not violations:
            values = _values(spec)
            violations = _degeneracy(spec, values)
        if violations:
            raise _refusal(spec, *violations)
        a, c = zip(*(fam.recurrence(values, n) for n in range(N + 1)))
        if exact:
            h = tuple((an * cd + cn * ad, ad * cd) for (an, ad), (cn, cd) in zip(a, c))
            # a zero denominator of a_n or c_n is one of h_n; a float
            # binding raised at its division already
            if not all(hd for _, hd in h):
                raise ZeroDivisionError
        else:
            h = tuple(map(operator.add, a, c))
    except ZeroDivisionError as err:
        raise _refusal(spec, "couplings not positive: the recurrence divides by zero") from err
    except OverflowError as err:
        raise _refusal(spec, "non-finite couplings") from err
    J2 = tuple(map(values[0].mul, a[:N], c[1:]))
    if exact:  # a pair n/d has the sign of n d
        positive = [n != 0 and (n > 0) == (d > 0) for n, d in J2 + a[:N]]
    else:  # a NaN J_n**2 is left to the finiteness rule
        positive = [not j2 <= 0 for j2 in J2] + [an > 0 for an in a[:N]]
    if not all(positive[:N]):
        raise _refusal(spec, f"orthogonality data has mixed signs: J_{positive.index(False)}**2 <= 0")
    sign = [1 if s else -1 for s in positive[N:]]
    try:
        if exact:
            couplings = [math.ldexp(*_root((abs(n), abs(d)))) * s for (n, d), s in zip(J2, sign)]
            fields = [n / d for n, d in h]
        else:
            couplings = [math.ldexp(*_root(j2)) * s for j2, s in zip(J2, sign)]
            fields = list(h)
    except OverflowError:
        couplings = fields = [math.inf]
    if not all(math.isfinite(v) for v in couplings + fields):
        raise _refusal(spec, "non-finite couplings")
    gauge = [1.0]
    for s in sign:
        gauge.append(gauge[-1] * s)
    data = OrthogonalityData(spec, values, (a, c, h, J2), (couplings, fields, gauge))
    if not spec.is_exact and not all(d < math.inf for d in data.norms):
        raise _refusal(spec, "weight or norm overflow/underflow")
    return data


def orthonormal_matrix(data: OrthogonalityData) -> np.ndarray:
    """The full (N+1) x (N+1) matrix U[n, x] = s_n sqrt(w(x)/d_n) P_n(x)
    of the spec whose record ``data`` is.

    Rows are indexed by degree (chain site), columns by grid node
    (eigenvalue label).  Rows and columns are orthonormal for a valid
    spec, and column x is the eigenvector of eigenvalue(spec, x) for
    the assembled chain matrix with negative off-diagonal.

    Column x of s_n P_n(x)/sqrt(d_n) has squared length
    sum_n P_n(x)**2/d_n = 1/w(x) (Christoffel numbers; Golub and Welsch,
    *Math. Comp.* 23, 1969), so U is that matrix with unit columns and
    needs no weight formula.  The record's ``point_table`` of those
    entries as mantissas and binary exponents is derived once per
    record, from the recurrence on integers for an exact spec and from
    the twisted factorisation of the float chain at its closed-form
    eigenvalues for a float one.  The record's ``U`` shifts each column
    by its largest exponent, scales, normalises the columns and checks
    the result, also once per record; each call returns a fresh,
    writable copy of it.

    Raises NumericalCheckError when max |U^T U - I| exceeds 1e-9, which
    float Jacobi data too ill-conditioned for their eigenvectors cause
    (twisted vectors are computed one eigenvalue at a time, so the
    residual tracks their error), and when building the table finds an
    exact spectrum that is not the recurrence's or a series value that
    disagrees with the table.
    """
    return data.U.copy()


def recurrence_coefficients(spec: FamilySpec) -> SpinChain:
    """Chain couplings J_n (n = 0..N-1) and on-site energies h_n (n = 0..N)
    of a valid spec: the ``chain`` of its :func:`orthogonality_data` record.

    These are the three-term recurrence coefficients of the orthonormal
    family, arranged so that the hopping matrix with -J off-diagonal
    has the family's eigenvalue map as its spectrum.  Couplings are
    reported as positive magnitudes; the gauge signs live in the
    record's ``signs`` and are already folded into the orthonormal
    matrix.
    """
    return orthogonality_data(spec).chain


# ----------------------------------------------------------------------
# eigenvalue maps

def eigenvalue(spec: FamilySpec, k: int) -> Scalar:
    """eps_k of the hopping matrix; see :func:`eigenvalues`."""
    if not (0 <= k <= spec.N):
        raise ValueError("need 0 <= k <= N")
    return eigenvalues(spec)[k]


def eigenvalues(spec: FamilySpec) -> list:
    """eps_0..eps_N of the hopping matrix, exact (Fractions) for exact specs.

    All seven maps share the factor -[-k] = 1/q + ... + 1/q**k; the
    dual families modulate it by a parameter-dependent linear factor,
    so their maps need not be monotone in k.
    """
    values = _values(spec)
    ar, _, Q = values[:3]
    modulation = FAMILIES[spec.family].modulation
    return [ar.value(ar.mul(ar.neg(ar.bracket(Q, -k)) if k else ar.zero, modulation(values, k)))
            for k in range(spec.N + 1)]


# ----------------------------------------------------------------------
# transfer-point closed forms and validation

def pst_chain_closed_form(q, N: int) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-form transfer-point couplings and energies.

        J_n = sqrt([n+1][N-n]) * q / (q**(N-n) + q**(n+1))
              * sqrt((1+q**(N-n))(1+q**(n+1))
                     / ((q**(N-n)+q**(n+2))(q**(N-n+1)+q**(n+1))))
        h_n = [n] (1+q**n) / ((q**(N-n)+q**n)(q**(N-n+1)+q**n))
              + [N-n] (1+q**(N-n)) / ((q**(N-n)+q**n)(q**(N-n)+q**(n+1)))

    Valid for any positive q != 1 (plain float allowed); mirror
    symmetric: h_n = h_{N-n} and J_n = J_{N-1-n}.
    """
    qf = float(q)
    J = np.empty(N)
    h = np.empty(N + 1)
    for n in range(N):
        bracket = float(q_number(n + 1, qf)) * float(q_number(N - n, qf))
        inner = (
            (1 + qf ** (N - n)) * (1 + qf ** (n + 1))
            / ((qf ** (N - n) + qf ** (n + 2)) * (qf ** (N - n + 1) + qf ** (n + 1)))
        )
        J[n] = math.sqrt(bracket) * qf / (qf ** (N - n) + qf ** (n + 1)) * math.sqrt(inner)
    for n in range(N + 1):
        first = 0.0
        if n:
            first = (
                float(q_number(n, qf)) * (1 + qf ** n)
                / ((qf ** (N - n) + qf ** n) * (qf ** (N - n + 1) + qf ** n))
            )
        second = 0.0
        if n < N:
            second = (
                float(q_number(N - n, qf)) * (1 + qf ** (N - n))
                / ((qf ** (N - n) + qf ** n) * (qf ** (N - n) + qf ** (n + 1)))
            )
        h[n] = first + second
    return J, h


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: Tuple[str, ...]

    def __bool__(self) -> bool:
        return self.valid


def _degeneracy(spec: FamilySpec, values: Values) -> List[str]:
    """Specs with a denominator factor 1 - a q**j = 0 (j < N) of the
    series or the textbook weight, read from the spec's binding.  The
    recurrence can still pass Favard's criterion there, but the series
    or the closed forms divide by that factor.  An exact spec's factor
    is tested on its integers; a float spec's is zero within the float
    series' termination tolerance, where its recurrence answers with
    the noise of a cancelled factor."""
    N, Q = values[1:3]
    exact = spec.is_exact
    for name, base in FAMILIES[spec.family].poles(values):
        for j in range(N):
            if exact:
                (bn, bd), (qn, qd) = base, Q[-j]
                hit = bn * qd == qn * bd  # base * q**j = 1
            else:
                hit = abs(base * Q[j] - 1.0) <= _TERMINATION_TOL
            if hit:
                return [f"degenerate parameters: {name} * q**{j} = 1 zeroes "
                        f"the denominator factor ({name}; q)_{j + 1}"]
    return []


def validate(spec: FamilySpec) -> ValidationReport:
    """:func:`orthogonality_data` as a report: valid, or the violations
    its InvalidSpecError carries.  Nothing else is checked, so every
    reader of a record refuses exactly what this refuses."""
    try:
        orthogonality_data(spec)
    except InvalidSpecError as err:
        return ValidationReport(False, err.violations)
    return ValidationReport(True, ())
