"""Seven finite q-orthogonal polynomial families and their chain data.

Each family lives on the grid x = 0..N and is one set of textbook data
from Koekoek, Lesky and Swarttouw, *Hypergeometric Orthogonal
Polynomials and Their q-Analogues* (Springer 2010), chapter 14, held in
one :class:`FamilyDef` record of the table :data:`FAMILIES`: parameter
names and window, the terminating series defining P_n(x), the weight
w(x) and squared norms d_n (so that U[n, x] = sqrt(w(x)/d_n) P_n(x) is
orthonormal), the recurrence giving chain couplings J_n and energies
h_n, the modulation of the eigenvalue map k -> eps_k, and the exact
bases of its denominators.  Each record and its formulas form one block
below, headed by its KLS section; everything after the table reads it.
A record's ``series`` is a binder: called once per spec, it computes the
powers of q and the scaled parameters the series need and returns the
function giving the series arguments of P_n(x) for each (n, x), so all
(N+1)**2 entries of the orthonormal matrix share one binding.

Weights and norms are held as LogSign pairs because they span many
orders of magnitude.  Families whose textbook weight carries a uniform
sign (the quantum q-Krawtchouk weight has sign (-1)**N for 0 < q < 1)
are normalised here to strictly positive data.  :func:`orthogonality_data`
derives a spec's float chain data once, as one :class:`OrthogonalityData`
record of weights, norms, signed couplings J_n, fields h_n and gauge
signs s_n, which the orthonormal matrix, the chain couplings,
validation and the closed forms read.

The q-Hahn and dual q-Hahn data are the gamma -> 0 and alpha -> 0
limits of the q-Racah data (with delta tied as 1/(beta q**(N+1))); the
limit expressions were worked out by hand and are cross-checked against
q-Racah at gamma, alpha = 1e-8 in the test suite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .chain import SpinChain, _frozen_array
from .qseries import (
    DenominatorZeroError,
    LogSign,
    RationalQ,
    _exact,
    basic_hypergeometric,
    basic_hypergeometric_exact,
    q_number,
    q_pochhammer,
)

__all__ = [
    "FAMILIES",
    "Family",
    "FamilyDef",
    "FamilySpec",
    "OrthogonalityData",
    "ValidationReport",
    "InvalidSpecError",
    "make_spec",
    "q_krawtchouk",
    "affine_q_krawtchouk",
    "quantum_q_krawtchouk",
    "dual_q_krawtchouk",
    "q_hahn",
    "dual_q_hahn",
    "q_racah",
    "pst_spec",
    "is_transfer_point",
    "validate",
    "require_valid",
    "evaluate",
    "orthogonality_data",
    "orthonormal_matrix",
    "site_signs",
    "recurrence_coefficients",
    "eigenvalue",
    "eigenvalues",
    "pst_chain_closed_form",
    "qracah_delta",
]

Scalar = Union[int, float, Fraction]
# (n, x) -> numerator parameters, denominator parameters and argument
SeriesEntry = Callable[[int, int], Tuple[Sequence[Scalar], Sequence[Scalar], Scalar]]


class InvalidSpecError(ValueError):
    """A family spec failed validation but was used anyway."""


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
        return float(self.q)

    @cached_property
    def qx(self) -> Optional[Fraction]:
        """Exact q, or None when q is a float; derived once per spec."""
        return self.q.as_fraction if isinstance(self.q, RationalQ) else None

    @property
    def is_exact(self) -> bool:
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
    """The tied q-Racah parameter delta = 1/(beta q**(N+1))."""
    beta = spec.param("beta")
    if isinstance(beta, (int, Fraction)) and spec.qx is not None:
        return 1 / (Fraction(beta) * spec.qx ** (spec.N + 1))
    return 1.0 / (float(beta) * spec.qf ** (spec.N + 1))


# ----------------------------------------------------------------------
# exact/float helpers

def _scaled_qpow(spec: FamilySpec, value: Scalar, e: int) -> Scalar:
    """value * q**e, exact when both parts are exact."""
    vx = _exact(value)
    if vx is not None and spec.qx is not None:
        return vx * spec.qx ** e
    return float(value) * spec.qf ** e


def _scaled_powers(spec: FamilySpec, value: Scalar, first: int, last: int) -> list:
    """value * q**e for e = first..last, indexed from 0."""
    return [_scaled_qpow(spec, value, e) for e in range(first, last + 1)]


def _series_base(spec: FamilySpec) -> Tuple[Scalar, list]:
    """q, and q**-e for e = 0..N: exact when q is exact, floats otherwise."""
    q = spec.qx if spec.qx is not None else spec.qf
    return q, [q ** -e for e in range(spec.N + 1)]


def _product(a: Scalar, b: Scalar) -> Scalar:
    ax, bx = _exact(a), _exact(b)
    if ax is not None and bx is not None:
        return ax * bx
    return float(a) * float(b)


_poch = q_pochhammer
_ls = LogSign.from_float
_lspow = LogSign.from_pow


def _one_plus(c: float, qf: float, e: int) -> LogSign:
    """LogSign of 1 + c*q**e for c > 0, safe when c*q**e overflows."""
    t = math.log(c) + e * math.log(qf)
    return LogSign(1, float(np.logaddexp(0.0, t)))


def _floats(spec: FamilySpec) -> tuple:
    """N, float q and the float parameters, in table order."""
    return (spec.N, spec.qf, *(float(value) for _, value in spec.params))


def _positive(spec: FamilySpec, *names: str) -> List[str]:
    values = {name: float(spec.param(name)) for name in names}
    return [f"{name} must be positive, got {v}" for name, v in values.items() if not v > 0.0]


def _brackets(spec: FamilySpec, n: int) -> Tuple[float, float]:
    """The q-numbers [n] and [n - N] of the bracket-form recurrences."""
    bn = float(q_number(n, spec.qf)) if n else 0.0
    return bn, float(q_number(n - spec.N, spec.qf))


def _from_AC(AC: Callable[[FamilySpec, int], Tuple[float, float]]):
    """Recurrence from the raise/lower coefficients A_n, C_n of the grid
    variable.  ``AC`` returns the identically vanishing A_N and C_0 as
    exact zeros: the full expressions can hit a removable 0/0 there."""

    def recurrence(spec: FamilySpec, n: int) -> Tuple[float, float]:
        A, C = AC(spec, n)
        one_minus_q = 1.0 - spec.qf
        return -(A + C) / one_minus_q, -A / one_minus_q

    return recurrence


def _gd_factor(spec: FamilySpec, gd: Scalar, k: int, exact: bool) -> Scalar:
    """Eigenvalue factor 1 - gamma delta q**(k+1)."""
    return 1 - _scaled_qpow(spec, gd if exact else float(gd), k + 1)


@dataclass(frozen=True)
class FamilyDef:
    """The textbook data of one family.

    ``series(spec)`` binds a spec's series arguments and returns
    ``entry(n, x)``, which gives the numerator and denominator parameters
    and the argument of the series for P_n(x).  The binder computes
    everything that does not depend on (n, x) once: the powers q**-e for
    e = 0..N and the family's scaled parameters value * q**e, so an
    entry only picks list items.  ``recurrence(spec, n)`` gives
    h_n and the raw J_n over sqrt(d_{n+1}/d_n), whose sign
    :func:`site_signs` absorbs; ``modulation`` multiplies the eigenvalue
    factor -[-k] that all families share; ``poles`` names the exact
    bases a of the (a; q)_j, j < N, in weight and series denominators.
    """

    params: Tuple[str, ...]
    window: Callable[[FamilySpec], List[str]]
    series: Callable[[FamilySpec], SeriesEntry]
    weights_norms: Callable[[FamilySpec], Tuple[list, list]]
    recurrence: Callable[[FamilySpec, int], Tuple[float, float]]
    poles: Callable[[FamilySpec], Tuple[Tuple[str, Fraction], ...]] = lambda spec: ()
    modulation: Callable[[FamilySpec, int, bool], Scalar] = lambda spec, k, exact: 1
    transfer_point: Callable[[FamilySpec], bool] = lambda spec: False


FAMILIES: Dict[Family, FamilyDef] = {}


# q-Krawtchouk, KLS 14.15
def _qk_at_transfer_point(spec: FamilySpec) -> bool:
    """p = q**-N exactly, where the chain transfers perfectly."""
    return spec.is_exact and spec.param("p") == spec.qx ** (-spec.N)


def _qk_weights_norms(spec: FamilySpec) -> Tuple[list, list]:
    N, qf, p = _floats(spec)
    if _qk_at_transfer_point(spec):
        return _qk_pst_weights_norms(N, qf)
    w = [
        _poch(qf ** -N, qf, x) / _poch(qf, qf, x) * _lspow(-p, -x)
        for x in range(N + 1)
    ]
    tail = _poch(-p * qf, qf, N) * _lspow(p, -N) * _lspow(qf, -N * (N + 1) / 2)
    d = [
        _poch(qf, qf, n)
        * _poch(-p * qf ** (N + 1), qf, n)
        / _poch(-p, qf, n)
        / _poch(qf ** -N, qf, n)
        * (_one_plus(p, qf, 0) / _one_plus(p, qf, 2 * n))
        * tail
        * _lspow(-p, n)
        * _lspow(qf, n * n - N * n)
        for n in range(N + 1)
    ]
    return w, d


def _qk_pst_weights_norms(N: int, qf: float) -> Tuple[list, list]:
    """Simplified transfer-point forms of the q-Krawtchouk data."""
    full = _poch(qf, qf, N)
    w = [
        full / _poch(qf, qf, x) / _poch(qf, qf, N - x) * _lspow(qf, x * (x - 1) / 2)
        for x in range(N + 1)
    ]
    d = []
    for n in range(N + 1):
        lo, hi = min(n, N - n), abs(N - 2 * n)
        mid = _lspow(qf, lo) * _one_plus(1.0, qf, hi)  # q**n + q**(N-n), safely
        d.append(
            _ls(2.0)
            * _poch(qf, qf, n) * _poch(-qf, qf, n)
            * _poch(qf, qf, N - n) * _poch(-qf, qf, N - n)
            / (full * mid)
        )
    return w, d


def _qk_series(spec: FamilySpec) -> SeriesEntry:
    q, inv = _series_base(spec)
    pq = _scaled_powers(spec, -spec.param("p"), 0, spec.N)  # -p q**n
    return lambda n, x: ([inv[n], inv[x], pq[n]], [inv[spec.N], 0], q)


def _qk_AC(spec: FamilySpec, n: int) -> Tuple[float, float]:
    N, qf, p = _floats(spec)
    A = 0.0 if n == N else (
        (1 - qf ** (n - N)) * (1 + p * qf ** n)
        / ((1 + p * qf ** (2 * n)) * (1 + p * qf ** (2 * n + 1)))
    )
    C = 0.0 if n == 0 else (
        -p * qf ** (2 * n - N - 1)
        * (1 + p * qf ** (n + N)) * (1 - qf ** n)
        / ((1 + p * qf ** (2 * n - 1)) * (1 + p * qf ** (2 * n)))
    )
    return A, C


FAMILIES[Family.Q_KRAWTCHOUK] = FamilyDef(
    params=("p",),
    window=lambda spec: _positive(spec, "p"),
    series=_qk_series,
    weights_norms=_qk_weights_norms,
    recurrence=_from_AC(_qk_AC),
    transfer_point=_qk_at_transfer_point,
)


# affine q-Krawtchouk, KLS 14.16
def _affine_window(spec: FamilySpec) -> List[str]:
    out = _positive(spec, "p")
    p, qf = float(spec.param("p")), spec.qf
    bound = 1.0 / qf if qf < 1.0 else qf ** -spec.N
    if not out and not p < bound:
        out.append(f"need 0 < p < {bound} for q = {spec.q}, got {p}")
    return out


def _affine_weights_norms(spec: FamilySpec) -> Tuple[list, list]:
    N, qf, p = _floats(spec)
    full = _poch(qf, qf, N)
    w = [
        _poch(p * qf, qf, x) * full / _poch(qf, qf, x) / _poch(qf, qf, N - x)
        * _lspow(p * qf, -x)
        for x in range(N + 1)
    ]
    d = [
        _poch(qf, qf, n) * _poch(qf, qf, N - n) / _poch(p * qf, qf, n) / full
        * _lspow(p * qf, n - N)
        for n in range(N + 1)
    ]
    return w, d


def _affine_series(spec: FamilySpec) -> SeriesEntry:
    q, inv = _series_base(spec)
    pq = _scaled_qpow(spec, spec.param("p"), 1)
    return lambda n, x: ([inv[n], 0, inv[x]], [pq, inv[spec.N]], q)


def _affine_recurrence(spec: FamilySpec, n: int) -> Tuple[float, float]:
    N, qf, p = _floats(spec)
    bn, bnN = _brackets(spec, n)
    h = bn * p * qf ** (n - N) - bnN * (1 - p * qf ** (n + 1))
    return h, -bnN * (1 - p * qf ** (n + 1))


FAMILIES[Family.AFFINE_Q_KRAWTCHOUK] = FamilyDef(
    params=("p",),
    window=_affine_window,
    series=_affine_series,
    weights_norms=_affine_weights_norms,
    recurrence=_affine_recurrence,
    poles=lambda spec: (("p*q", spec.param("p") * spec.qx),),
)


# quantum q-Krawtchouk, KLS 14.14
def _quantum_window(spec: FamilySpec) -> List[str]:
    out = _positive(spec, "p")
    p, qf = float(spec.param("p")), spec.qf
    bound = qf ** -spec.N if qf < 1.0 else 1.0 / qf
    if not out and not p > bound:
        out.append(f"need p > {bound} for q = {spec.q}, got {p}")
    return out


def _quantum_weights_norms(spec: FamilySpec) -> Tuple[list, list]:
    N, qf, p = _floats(spec)
    w = [
        _poch(p * qf, qf, N - x) / _poch(qf, qf, x) / _poch(qf, qf, N - x)
        * LogSign(-1 if x % 2 else 1, 0.0)
        * _lspow(qf, x * (x - 1) / 2)
        for x in range(N + 1)
    ]
    full = _poch(qf, qf, N)
    d = [
        _poch(qf, qf, N - n) * _poch(qf, qf, n) * _poch(p * qf, qf, n)
        / (full * full)
        * LogSign(-1 if (N - n) % 2 else 1, 0.0)
        * _lspow(p, N)
        * _lspow(qf, N * n + N * (N + 1) / 2 - n * (n + 1) / 2)
        for n in range(N + 1)
    ]
    return w, d


def _quantum_series(spec: FamilySpec) -> SeriesEntry:
    _, inv = _series_base(spec)
    pq = _scaled_powers(spec, spec.param("p"), 1, spec.N + 1)  # p q**(n+1)
    return lambda n, x: ([inv[n], inv[x]], [inv[spec.N]], pq[n])


def _quantum_recurrence(spec: FamilySpec, n: int) -> Tuple[float, float]:
    _, qf, p = _floats(spec)
    bn, bnN = _brackets(spec, n)
    h = -bn * (1 - p * qf ** n) / (p * qf ** (2 * n)) - bnN / (p * qf ** (2 * n + 1))
    return h, -bnN / (p * qf ** (2 * n + 1))


FAMILIES[Family.QUANTUM_Q_KRAWTCHOUK] = FamilyDef(
    params=("p",),
    window=_quantum_window,
    series=_quantum_series,
    weights_norms=_quantum_weights_norms,
    recurrence=_quantum_recurrence,
)


# dual q-Krawtchouk, KLS 14.17
def _dual_qk_weights_norms(spec: FamilySpec) -> Tuple[list, list]:
    N, qf, c = _floats(spec)
    w = [
        _poch(c * qf ** -N, qf, x) * _poch(qf ** -N, qf, x)
        / _poch(qf, qf, x) / _poch(c * qf, qf, x)
        * (_one_plus(-c, qf, 2 * x - N) / _one_plus(-c, qf, -N))
        * _lspow(c, -x)
        * _lspow(qf, x * (2 * N - x))
        for x in range(N + 1)
    ]
    head = _poch(1.0 / c, qf, N)
    d = [
        _poch(qf, qf, n) * head / _poch(qf ** -N, qf, n)
        * _lspow(c * qf ** -N, n)
        for n in range(N + 1)
    ]
    return w, d


def _dual_qk_series(spec: FamilySpec) -> SeriesEntry:
    q, inv = _series_base(spec)
    cq = _scaled_powers(spec, spec.param("c"), -spec.N, 0)  # c q**(x-N)
    return lambda n, x: ([inv[n], inv[x], cq[x]], [inv[spec.N], 0], q)


def _dual_qk_recurrence(spec: FamilySpec, n: int) -> Tuple[float, float]:
    N, qf, c = _floats(spec)
    bn, bnN = _brackets(spec, n)
    # note: the bracket arguments here are fixed by the trace identity
    # sum(h) = sum(eps), see the test suite
    return -bnN - c * qf ** -N * bn, -bnN


FAMILIES[Family.DUAL_Q_KRAWTCHOUK] = FamilyDef(
    params=("c",),
    window=lambda spec: (
        [] if float(spec.param("c")) < 0.0
        else [f"c must be negative, got {float(spec.param('c'))}"]),
    series=_dual_qk_series,
    weights_norms=_dual_qk_weights_norms,
    recurrence=_dual_qk_recurrence,
    poles=lambda spec: (("c*q", spec.param("c") * spec.qx),),
    modulation=lambda spec, k, exact: 1 - _scaled_qpow(
        spec, spec.param("c") if exact else float(spec.param("c")), k - spec.N),
)


# q-Hahn, KLS 14.6
def _qhahn_weights_norms(spec: FamilySpec) -> Tuple[list, list]:
    N, qf, a, b = _floats(spec)
    w = [
        _poch(a * qf, qf, x) * _poch(qf ** -N, qf, x)
        / _poch(qf, qf, x) / _poch(qf ** -N / b, qf, x)
        * _lspow(a * b * qf, -x)
        for x in range(N + 1)
    ]
    head = _poch(a * b * qf ** 2, qf, N) / _lspow(a * qf, N) / _poch(b * qf, qf, N)
    d = [
        head
        * _poch(qf, qf, n) * _poch(b * qf, qf, n) * _poch(a * b * qf ** (N + 2), qf, n)
        / _poch(qf ** -N, qf, n) / _poch(a * qf, qf, n) / _poch(a * b * qf, qf, n)
        * _ls((1 - a * b * qf) / (1 - a * b * qf ** (2 * n + 1)))
        * _lspow(-a * qf ** (1 - N), n)
        * _lspow(qf, n * (n - 1) / 2)
        for n in range(N + 1)
    ]
    return w, d


def _qhahn_series(spec: FamilySpec) -> SeriesEntry:
    q, inv = _series_base(spec)
    alpha = spec.param("alpha")
    abq = _scaled_powers(spec, _product(alpha, spec.param("beta")), 1, spec.N + 1)
    aq = _scaled_qpow(spec, alpha, 1)
    return lambda n, x: ([inv[n], abq[n], inv[x]], [aq, inv[spec.N]], q)


def _qhahn_AC(spec: FamilySpec, n: int) -> Tuple[float, float]:
    N, qf, a, b = _floats(spec)
    ab = a * b
    A = 0.0 if n == N else (
        (1 - a * qf ** (n + 1)) * (1 - ab * qf ** (n + 1)) * (1 - qf ** (n - N))
        / ((1 - ab * qf ** (2 * n + 1)) * (1 - ab * qf ** (2 * n + 2)))
    )
    C = 0.0 if n == 0 else (
        -a * qf ** (n - N)
        * (1 - qf ** n) * (1 - b * qf ** n) * (1 - ab * qf ** (N + n + 1))
        / ((1 - ab * qf ** (2 * n)) * (1 - ab * qf ** (2 * n + 1)))
    )
    return A, C


FAMILIES[Family.Q_HAHN] = FamilyDef(
    params=("alpha", "beta"),
    window=lambda spec: _positive(spec, "alpha", "beta"),
    series=_qhahn_series,
    weights_norms=_qhahn_weights_norms,
    recurrence=_from_AC(_qhahn_AC),
    poles=lambda spec: (
        ("alpha*q", spec.param("alpha") * spec.qx),
        ("q**-N/beta", spec.qx ** -spec.N / spec.param("beta")),
    ),
)


# dual q-Hahn, KLS 14.7
def _dual_qhahn_weights_norms(spec: FamilySpec) -> Tuple[list, list]:
    N, qf, g, dd = _floats(spec)
    gd = g * dd
    w = [
        _poch(g * qf, qf, x) * _poch(gd * qf, qf, x) * _poch(qf ** -N, qf, x)
        / _poch(qf, qf, x) / _poch(gd * qf ** (N + 2), qf, x) / _poch(dd * qf, qf, x)
        * _ls((1 - gd * qf ** (2 * x + 1)) / (1 - gd * qf))
        * _lspow(-g * qf, -x)
        * _lspow(qf, N * x - x * (x - 1) / 2)
        for x in range(N + 1)
    ]
    head = _poch(qf ** (-N - 1) / gd, qf, N) / _poch(qf ** -N / dd, qf, N)
    d = [
        head
        * _poch(qf, qf, n) * _poch(qf ** -N / dd, qf, n)
        / _poch(qf ** -N, qf, n) / _poch(g * qf, qf, n)
        * _lspow(gd * qf, n)
        for n in range(N + 1)
    ]
    return w, d


def _dual_qhahn_AC(spec: FamilySpec, n: int) -> Tuple[float, float]:
    N, qf, g, dd = _floats(spec)
    A = (1 - qf ** (n - N)) * (1 - g * qf ** (n + 1))
    C = g * qf * (1 - qf ** n) * (dd - qf ** (n - N - 1))
    return A, C


def _dual_qhahn_gamma_delta(spec: FamilySpec) -> Scalar:
    return _product(spec.param("gamma"), spec.param("delta"))


def _dual_qhahn_series(spec: FamilySpec) -> SeriesEntry:
    q, inv = _series_base(spec)
    gdq = _scaled_powers(spec, _dual_qhahn_gamma_delta(spec), 1, spec.N + 1)
    gq = _scaled_qpow(spec, spec.param("gamma"), 1)
    return lambda n, x: ([inv[n], inv[x], gdq[x]], [gq, inv[spec.N]], q)


FAMILIES[Family.DUAL_Q_HAHN] = FamilyDef(
    params=("gamma", "delta"),
    window=lambda spec: _positive(spec, "gamma", "delta"),
    series=_dual_qhahn_series,
    weights_norms=_dual_qhahn_weights_norms,
    recurrence=_from_AC(_dual_qhahn_AC),
    poles=lambda spec: (
        ("gamma*q", spec.param("gamma") * spec.qx),
        ("gamma*delta*q**(N+2)", _dual_qhahn_gamma_delta(spec) * spec.qx ** (spec.N + 2)),
        ("delta*q", spec.param("delta") * spec.qx),
    ),
    modulation=lambda spec, k, exact: _gd_factor(
        spec, _dual_qhahn_gamma_delta(spec), k, exact),
)


# q-Racah, KLS 14.2, with delta = 1/(beta q**(N+1))
def _qracah_gamma_delta(spec: FamilySpec) -> Scalar:
    g, b = spec.param("gamma"), spec.param("beta")
    gx, bx = _exact(g), _exact(b)
    if gx is not None and bx is not None and spec.qx is not None:
        return gx / (bx * spec.qx ** (spec.N + 1))
    return float(g) / (float(b) * spec.qf ** (spec.N + 1))


def _qracah_weights_norms(spec: FamilySpec) -> Tuple[list, list]:
    N, qf, a, b, g = _floats(spec)
    dd = 1.0 / (b * qf ** (N + 1))
    gd = g * dd
    w = [
        _poch(a * qf, qf, x) * _poch(qf ** -N, qf, x)
        * _poch(g * qf, qf, x) * _poch(gd * qf, qf, x)
        / _poch(qf, qf, x) / _poch(gd * qf / a, qf, x)
        / _poch(g * qf / b, qf, x) / _poch(dd * qf, qf, x)
        * _ls((1 - gd * qf ** (2 * x + 1)) / (1 - gd * qf))
        * _lspow(a * b * qf, -x)
        for x in range(N + 1)
    ]
    head = (_poch(a * b * qf ** 2, qf, N) * _poch(b / g, qf, N)
            / _poch(a * b * qf / g, qf, N) / _poch(b * qf, qf, N))
    d = [
        head
        * _poch(qf, qf, n) * _poch(a * b * qf / g, qf, n)
        * _poch(a * b * qf ** (N + 2), qf, n) * _poch(b * qf, qf, n)
        / _poch(qf ** -N, qf, n) / _poch(a * qf, qf, n)
        / _poch(a * b * qf, qf, n) / _poch(g * qf, qf, n)
        * _ls((1 - a * b * qf) / (1 - a * b * qf ** (2 * n + 1)))
        * _lspow(g * qf ** -N / b, n)
        for n in range(N + 1)
    ]
    return w, d


def _qracah_series(spec: FamilySpec) -> SeriesEntry:
    q, inv = _series_base(spec)
    alpha, N = spec.param("alpha"), spec.N
    abq = _scaled_powers(spec, _product(alpha, spec.param("beta")), 1, N + 1)
    gdq = _scaled_powers(spec, _qracah_gamma_delta(spec), 1, N + 1)
    aq = _scaled_qpow(spec, alpha, 1)
    gq = _scaled_qpow(spec, spec.param("gamma"), 1)
    return lambda n, x: ([inv[n], abq[n], inv[x], gdq[x]], [aq, inv[N], gq], q)


def _qracah_AC(spec: FamilySpec, n: int) -> Tuple[float, float]:
    N, qf, a, b, g = _floats(spec)
    dd = 1.0 / (b * qf ** (N + 1))
    ab = a * b
    A = 0.0 if n == N else (
        (1 - a * qf ** (n + 1)) * (1 - ab * qf ** (n + 1))
        * (1 - qf ** (n - N)) * (1 - g * qf ** (n + 1))
        / ((1 - ab * qf ** (2 * n + 1)) * (1 - ab * qf ** (2 * n + 2)))
    )
    C = 0.0 if n == 0 else (
        qf * (1 - qf ** n) * (1 - b * qf ** n)
        * (g - ab * qf ** n) * (dd - a * qf ** n)
        / ((1 - ab * qf ** (2 * n)) * (1 - ab * qf ** (2 * n + 1)))
    )
    return A, C


FAMILIES[Family.Q_RACAH] = FamilyDef(
    params=("alpha", "beta", "gamma"),
    window=lambda spec: _positive(spec, "alpha", "beta", "gamma") + (
        [] if spec.qf < 1.0 else [f"q-racah needs 0 < q < 1, got q = {spec.q}"]),
    series=_qracah_series,
    weights_norms=_qracah_weights_norms,
    recurrence=_from_AC(_qracah_AC),
    poles=lambda spec: (
        ("alpha*q", spec.param("alpha") * spec.qx),
        ("gamma*q", spec.param("gamma") * spec.qx),
        ("gamma*delta*q/alpha", _qracah_gamma_delta(spec) * spec.qx / spec.param("alpha")),
        ("gamma*q/beta", spec.param("gamma") * spec.qx / spec.param("beta")),
        ("delta*q", qracah_delta(spec) * spec.qx),
    ),
    modulation=lambda spec, k, exact: _gd_factor(
        spec, _qracah_gamma_delta(spec), k, exact),
)


def is_transfer_point(spec: FamilySpec) -> bool:
    """Whether the spec sits exactly at a perfect-transfer point."""
    return FAMILIES[spec.family].transfer_point(spec)


# ----------------------------------------------------------------------
# polynomial point values

def evaluate(spec: FamilySpec, n: int, x: int) -> float:
    """Value of the degree-n polynomial at grid node x, both in 0..N.

    Normalised so that P_n(0) = 1 for every family.  Exact specs are
    summed in rational arithmetic (the alternating series cancel badly
    in floats once N grows), float specs term by term in log space.
    """
    if not (0 <= n <= spec.N and 0 <= x <= spec.N):
        raise ValueError("need 0 <= n, x <= N")
    return _point_values(spec)(n, x).to_float()


def _point_values(spec: FamilySpec) -> Callable[[int, int], LogSign]:
    """P_n(x) as a LogSign, from the spec's series arguments bound once;
    exact-arithmetic route when possible."""
    entry = FAMILIES[spec.family].series(spec)
    exact = spec.is_exact

    def value(n: int, x: int) -> LogSign:
        numer, denom, z = entry(n, x)
        if exact:
            return LogSign.from_fraction(basic_hypergeometric_exact(numer, denom, spec.qx, z))
        return LogSign.from_float(basic_hypergeometric(numer, denom, spec.q, z))

    return value


# ----------------------------------------------------------------------
# weights, norms and chain couplings

@dataclass(frozen=True)
class OrthogonalityData:
    """A spec's float chain data, derived once by :func:`orthogonality_data`.

    ``weights`` w(0..N) and ``norms`` d(0..N) are LogSign pairs;
    ``flipped`` records whether a uniform sign was factored out of the
    textbook expressions to make them positive, which leaves spectral
    sums unchanged.  ``couplings`` are the raw recurrence couplings J_n
    (n = 0..N-1, sign included), ``fields`` the energies h_n, and
    ``signs`` the gauge signs s_n of :func:`site_signs`.  The arrays are
    read-only.
    """

    weights: Tuple[LogSign, ...]
    norms: Tuple[LogSign, ...]
    flipped: bool
    couplings: np.ndarray
    fields: np.ndarray
    signs: np.ndarray


def orthogonality_data(spec: FamilySpec) -> OrthogonalityData:
    """Weights and norms, sign-normalised to positive, and the chain data.

    J_n is the recurrence's raw coupling times sqrt(d_{n+1}/d_n).  The
    textbook orthonormal recurrence can produce negative J_n in some
    admissible parameter regions (q-Racah especially); that sign is a
    gauge choice, absorbed into s_0 = +1, s_{n+1} = s_n * sign(J_n).

    Raises InvalidSpecError, with the message :func:`validate` reports,
    when the spec is outside its window, when the data cannot be
    normalised to a finite positive measure, or when the recurrence
    fails or gives a zero or non-finite coupling or field.
    """
    fam = FAMILIES[spec.family]
    structural = fam.window(spec)
    if structural:
        raise InvalidSpecError(f"{spec.describe()}: " + "; ".join(structural))
    w, d = fam.weights_norms(spec)
    signs = {t.sign for t in w} | {t.sign for t in d}
    if 0 in signs:
        raise InvalidSpecError(f"degenerate weight or norm in {spec.describe()}")
    if len(signs) > 1:
        raise InvalidSpecError(f"orthogonality data of {spec.describe()} has mixed signs")
    flipped = signs == {-1}
    if flipped:
        w, d = [-t for t in w], [-t for t in d]
    if any(not math.isfinite(t.logmag) for t in w + d):
        raise InvalidSpecError("weight or norm overflow/underflow")
    N = spec.N
    J = np.empty(N)
    h = np.empty(N + 1)
    try:
        for n in range(N + 1):
            h[n], j = fam.recurrence(spec, n)
            if n < N:
                J[n] = j * (d[n + 1] / d[n]).sqrt().to_float()
        if np.any(J == 0.0):
            raise ValueError("couplings must be strictly positive")
    except (ValueError, ZeroDivisionError) as err:
        raise InvalidSpecError(f"couplings not positive: {err}") from err
    if not np.all(np.isfinite(J)) or not np.all(np.isfinite(h)):
        raise InvalidSpecError("non-finite couplings")
    gauge = np.cumprod(np.concatenate(([1.0], np.where(J > 0, 1.0, -1.0))))
    return OrthogonalityData(
        tuple(w), tuple(d), flipped,
        _frozen_array(J), _frozen_array(h), _frozen_array(gauge),
    )


def orthonormal_matrix(spec: FamilySpec) -> np.ndarray:
    """The full (N+1) x (N+1) matrix U[n, x] = s_n sqrt(w(x)/d_n) P_n(x).

    Rows are indexed by degree (chain site), columns by grid node
    (eigenvalue label).  Rows and columns are orthonormal for a valid
    spec, and column x is the eigenvector of eigenvalue(spec, x) for
    the assembled chain matrix with negative off-diagonal.
    """
    N = spec.N
    data = orthogonality_data(spec)
    value = _point_values(spec)
    out = np.empty((N + 1, N + 1))
    for n in range(N + 1):
        for x in range(N + 1):
            scale = (data.weights[x] / data.norms[n]).sqrt()
            out[n, x] = data.signs[n] * (scale * value(n, x)).to_float()
    return out


def site_signs(spec: FamilySpec) -> np.ndarray:
    """Per-site signs s_n turning raw couplings into positive ones.

    Conjugating the raw Jacobi matrix by diag(s) flips every negative
    off-diagonal entry, so the chain with couplings |J_n| has
    eigenvector matrix diag(s) * U_raw.  In the parameter regions the
    positivity claims cover, every s_n is +1.
    """
    return orthogonality_data(spec).signs


def recurrence_coefficients(spec: FamilySpec) -> SpinChain:
    """Chain couplings J_n (n = 0..N-1) and on-site energies h_n (n = 0..N).

    These are the three-term recurrence coefficients of the orthonormal
    family, arranged so that the hopping matrix with -J off-diagonal
    has the family's eigenvalue map as its spectrum.  Couplings are
    reported as positive magnitudes; the gauge signs live in
    :func:`site_signs` and are already folded into the orthonormal
    matrix.
    """
    data = orthogonality_data(spec)
    return SpinChain(np.abs(data.couplings), data.fields, source=spec)


# ----------------------------------------------------------------------
# eigenvalue maps

def eigenvalue(spec: FamilySpec, k: int) -> Scalar:
    """eps_k of the hopping matrix, exact (Fraction) for exact specs.

    All seven maps share the factor -[-k] = 1/q + ... + 1/q**k; the
    dual families modulate it by a parameter-dependent linear factor,
    so their maps need not be monotone in k.
    """
    if not (0 <= k <= spec.N):
        raise ValueError("need 0 <= k <= N")
    exact = spec.is_exact
    q: Scalar = spec.qx if exact else spec.qf
    base = -q_number(-k, q) if k else (Fraction(0) if exact else 0.0)
    return base * FAMILIES[spec.family].modulation(spec, k, exact)


def eigenvalues(spec: FamilySpec) -> list:
    return [eigenvalue(spec, k) for k in range(spec.N + 1)]


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


def _exact_degeneracy(spec: FamilySpec) -> List[str]:
    """Exact specs with a denominator factor 1 - a q**j = 0 (j < N),
    which float positivity checks miss: rounding leaves a tiny factor."""
    for name, base in FAMILIES[spec.family].poles(spec) if spec.is_exact else ():
        for j in range(spec.N):
            if base * spec.qx ** j == 1:
                return [f"degenerate parameters: {name} * q**{j} = 1 zeroes "
                        f"the denominator factor ({name}; q)_{j + 1}"]
    return []


def validate(spec: FamilySpec) -> ValidationReport:
    """Structural parameter ranges, for exact specs a check for exactly
    vanishing denominators, and a direct positivity check of the
    weights, norms, and couplings on the whole support."""
    violations = FAMILIES[spec.family].window(spec) or _exact_degeneracy(spec)
    if violations:
        return ValidationReport(False, tuple(violations))
    try:
        orthogonality_data(spec)
    except (InvalidSpecError, ZeroDivisionError, DenominatorZeroError, ValueError) as err:
        return ValidationReport(False, (str(err),))
    return ValidationReport(True, ())


def require_valid(spec: FamilySpec) -> None:
    report = validate(spec)
    if not report.valid:
        raise InvalidSpecError(
            f"{spec.describe()}: " + "; ".join(report.violations)
        )
