"""Single-excitation time evolution and transfer certification.

The correlation amplitude between sites r and s at time t is

    f_{r,s}(t) = sum_k U[r, k] U[s, k] exp(-i t eps_k),

evaluated along two routes.  The floating route takes any moderate real
t and refuses once t is so large that reducing t*eps modulo 2*pi in
double precision is meaningless.  The exact route takes rational q and
a rational multiple of pi, forms t*eps_k/pi as an exact fraction with
unbounded integers, reduces it modulo 2, and only then touches floating
point; times like 3**40 * pi therefore lose nothing.

Transfer certification asks whether every phase can be brought to
(-1)**k.  For the bare spectrum eps_k = -[-k] this is a parity question
about 1/q = P/Q: when P and Q are both odd the scaled phase integers
alternate parity with k, and otherwise their parity is k-independent,
so no time works.  The matched-time solver generalises the same
parity argument to the modulated spectra of the dual families.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import families
from .chain import SpectralDecomposition
from .families import FamilySpec
from .qseries import ParityClass, RationalQ

__all__ = [
    "FLOAT_TIME_BOUND",
    "PST_TOLERANCE",
    "Amplitude",
    "ExactPhaseTime",
    "NonRationalSpectrumError",
    "ParityEntry",
    "ParityTable",
    "QClassification",
    "TimeBoundExceededError",
    "TransferReport",
    "TransferVerdict",
    "bracket_integer",
    "classify_q",
    "correlation",
    "correlation_matrix",
    "correlation_exact_phase",
    "exact_phase_matrix",
    "fidelity_scan",
    "matched_phase_time",
    "phase_parity_check",
    "phase_residues",
    "pst_time",
    "transfer_report",
    "transfer_time",
]

# Beyond this the spacing of representable doubles exceeds the phase
# resolution needed for eigenvalues of order one.
FLOAT_TIME_BOUND = 1.0e8

PST_TOLERANCE = 1.0e-10


class TimeBoundExceededError(ValueError):
    """Floating-point time too large for a trustworthy phase."""


class NonRationalSpectrumError(ValueError):
    """Exact-phase evaluation needs an exactly rational spectrum."""


@dataclass(frozen=True)
class Amplitude:
    """One correlation value f_{r,s}(t) as a complex number."""

    re: float
    im: float

    @property
    def magnitude(self) -> float:
        return math.hypot(self.re, self.im)

    def __complex__(self) -> complex:
        return complex(self.re, self.im)


@dataclass(frozen=True)
class ExactPhaseTime:
    """A time t = pi_multiple * pi with an exact rational multiple."""

    pi_multiple: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.pi_multiple, Fraction):
            object.__setattr__(self, "pi_multiple", Fraction(self.pi_multiple))

    def to_float(self) -> float:
        return float(self.pi_multiple) * math.pi

    def doubled(self) -> "ExactPhaseTime":
        return ExactPhaseTime(2 * self.pi_multiple)

    def __str__(self) -> str:
        return f"{self.pi_multiple}*pi"


# ----------------------------------------------------------------------
# floating-point route

def _check_time(t: float) -> None:
    if not math.isfinite(t) or abs(t) > FLOAT_TIME_BOUND:
        raise TimeBoundExceededError(
            f"|t| = {abs(t):.3g} exceeds the floating-phase bound "
            f"{FLOAT_TIME_BOUND:.0e}; use the exact-phase route"
        )


def correlation(dec: SpectralDecomposition, r: int, s: int, t: float) -> Amplitude:
    """f_{r,s}(t) by direct spectral sum with floating phases."""
    _check_time(t)
    phases = np.exp(-1j * t * dec.eigenvalues)
    value = np.sum(dec.eigenvectors[r] * dec.eigenvectors[s] * phases)
    return Amplitude(float(value.real), float(value.imag))


def correlation_matrix(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """The full matrix f(t) = U exp(-i t diag(eps)) U^T (complex)."""
    _check_time(t)
    phases = np.exp(-1j * t * dec.eigenvalues)
    return (dec.eigenvectors * phases) @ dec.eigenvectors.T


def fidelity_scan(
    dec: SpectralDecomposition, r: int, s: int, t_grid: Sequence[float]
) -> List[float]:
    """|f_{r,s}(t)| per grid point, in input order."""
    return [correlation(dec, r, s, t).magnitude for t in t_grid]


# ----------------------------------------------------------------------
# exact-phase route

def _exact_spectrum(spec: FamilySpec) -> Tuple[Fraction, ...]:
    eps = families.eigenvalues(spec)
    out = []
    for k, value in enumerate(eps):
        if isinstance(value, (int, Fraction)):
            out.append(Fraction(value))
        else:
            raise NonRationalSpectrumError(
                f"eigenvalue {k} of {spec.describe()} is not exactly rational; "
                "exact phases need rational q and rational parameters"
            )
    return tuple(out)


def phase_residues(spec: FamilySpec, t: ExactPhaseTime) -> Tuple[Fraction, ...]:
    """t*eps_k/pi reduced modulo 2, one exact residue in [0, 2) per k."""
    return tuple((t.pi_multiple * e) % 2 for e in _exact_spectrum(spec))


def _phase_pair(residue: Fraction) -> Tuple[float, float]:
    """(re, im) of exp(-i pi residue); integer residues avoid trig."""
    if residue.denominator == 1:
        return ((1.0 if residue % 2 == 0 else -1.0), 0.0)
    angle = -math.pi * float(residue)
    return (math.cos(angle), math.sin(angle))


def correlation_exact_phase(
    spec: FamilySpec, r: int, s: int, t: ExactPhaseTime
) -> Amplitude:
    """f_{r,s}(t) with phases from exact residue reduction.

    When every residue is an integer the phases are exactly +-1 and the
    result is a signed real sum with no trigonometric rounding at all.
    """
    residues = phase_residues(spec, t)
    U = families.orthonormal_matrix(spec)
    re = 0.0
    im = 0.0
    for k, residue in enumerate(residues):
        weight = U[r, k] * U[s, k]
        cos_part, sin_part = _phase_pair(residue)
        re += weight * cos_part
        im += weight * sin_part
    return Amplitude(re, im)


def exact_phase_matrix(spec: FamilySpec, t: ExactPhaseTime) -> np.ndarray:
    """The full matrix f(t) through the exact-phase route (complex)."""
    residues = phase_residues(spec, t)
    U = families.orthonormal_matrix(spec)
    phases = np.array([complex(*_phase_pair(r)) for r in residues])
    return (U * phases) @ U.T


# ----------------------------------------------------------------------
# transfer times and parity

def pst_time(q: RationalQ, N: int) -> ExactPhaseTime:
    """The canonical transfer time T = Q**N * pi for 1/q = P/Q odd/odd."""
    q.require_odd_odd()
    return ExactPhaseTime(Fraction(q.num) ** N)


def matched_phase_time(spec: FamilySpec) -> Optional[ExactPhaseTime]:
    """Smallest t = tau*pi with every phase equal to (-1)**k, or None.

    Integrality forces tau into (M/g) * Z where M clears the spectrum's
    denominators and g is the gcd of the cleared integers e_k; the phase
    pattern then reads t*e_k mod 2 for the multiplier t, so a solution
    exists iff every even e_k sits at even k and the odd e_k agree on
    the parity of their positions.
    """
    eps = _exact_spectrum(spec)
    nonzero = [e for e in eps if e != 0]
    if not nonzero:
        return ExactPhaseTime(Fraction(1))
    scale = math.lcm(*(e.denominator for e in nonzero))
    cleared = [e * scale for e in eps]
    g = math.gcd(*(int(c) for c in cleared))
    units = [int(c) // g for c in cleared]
    position_parities = set()
    for k, unit in enumerate(units):
        if k == 0:
            continue
        if unit % 2 == 0:
            if k % 2 == 1:
                return None
        else:
            position_parities.add(k % 2)
    if len(position_parities) != 1:
        return None
    multiplier = 1 if position_parities == {1} else 2
    return ExactPhaseTime(Fraction(multiplier * scale, g))


@dataclass(frozen=True)
class ParityEntry:
    """One row of the phase-parity table: the exact value t*eps_k/pi."""

    k: int
    value: Fraction
    is_integer: bool
    parity_matches: bool


@dataclass(frozen=True)
class ParityTable:
    time: ExactPhaseTime
    entries: Tuple[ParityEntry, ...]

    @property
    def all_pass(self) -> bool:
        return all(e.parity_matches for e in self.entries)

    def __bool__(self) -> bool:
        return self.all_pass


def phase_parity_check(spec: FamilySpec, t: ExactPhaseTime) -> ParityTable:
    """Per-eigenvalue check that t*eps_k/pi is an integer of parity k.

    The all-pass verdict is exactly the condition under which the
    transfer-point closed forms apply: every phase equals (-1)**k.
    """
    entries = []
    for k, eps in enumerate(_exact_spectrum(spec)):
        value = t.pi_multiple * eps
        is_integer = value.denominator == 1
        matches = is_integer and int(value) % 2 == k % 2
        entries.append(ParityEntry(k, value, is_integer, matches))
    return ParityTable(t, tuple(entries))


# ----------------------------------------------------------------------
# parity classification of q

@dataclass(frozen=True)
class QClassification:
    parity_class: ParityClass
    pst_possible: bool
    explanation: str


def _odd_parts(value: Fraction) -> Tuple[int, int, int]:
    """Write value = 2**e * (P/Q) with P, Q odd; return (e, P, Q)."""
    num, den = value.numerator, value.denominator
    a = (num & -num).bit_length() - 1
    b = (den & -den).bit_length() - 1
    return a - b, num >> a, den >> b


def bracket_integer(q: RationalQ, N: int, k: int) -> int:
    """The exact phase integer of eigenvalue k at the scaled time.

    With 1/q = 2**e * P/Q (P, Q odd), the partial sum 1/q + ... + 1/q**k
    equals a power of two times an integer over Q**N; this returns that
    integer.  For e = 0 it is P*Q**(N-1) + ... + P**k * Q**(N-k), whose
    parity is k mod 2.  For e != 0 the normalised integer is odd for
    every k, which is why no time can produce alternating phases.
    """
    if not 0 <= k <= N:
        raise ValueError(f"need 0 <= k <= N, got k={k}, N={N}")
    e, _, odd_den = _odd_parts(q.inverse)
    partial = sum((q.inverse ** j for j in range(1, k + 1)), Fraction(0))
    scaled = partial * Fraction(odd_den) ** N
    if e > 0:
        scaled /= Fraction(2) ** e
    elif e < 0:
        scaled *= Fraction(2) ** (-e * k)
    if scaled.denominator != 1:
        raise AssertionError(f"bracket for q={q}, N={N}, k={k} not integral")
    return int(scaled)


def classify_q(q: RationalQ) -> QClassification:
    """Parity class of 1/q and what it means for transfer times."""
    e, odd_num, odd_den = _odd_parts(q.inverse)
    cls = q.inv_parity_class
    if cls is ParityClass.ODD_ODD:
        text = (
            f"1/q = {q.den}/{q.num} has odd numerator and denominator; "
            f"the phase integers at t = {q.num}**N * pi have parity k mod 2, "
            "so the phases align to (-1)**k and transfer times exist"
        )
        return QClassification(cls, True, text)
    if cls is ParityClass.EVEN_OVER_ODD:
        shape = f"2**{e} * {odd_num}/{odd_den}"
    else:
        shape = f"{odd_num}/(2**{-e} * {odd_den})"
    text = (
        f"1/q = {q.den}/{q.num} = {shape}; after pulling out the power of "
        "two, the phase integer is odd for every k, so its parity cannot "
        "alternate with k and no time aligns the phases to (-1)**k"
    )
    return QClassification(cls, False, text)


# ----------------------------------------------------------------------
# transfer certification

class TransferVerdict(enum.Enum):
    PERFECT = "perfect"
    IMPERFECT = "imperfect"


@dataclass(frozen=True)
class TransferReport:
    """End-to-end transfer certificate at the chosen exact time."""

    spec: FamilySpec
    time: ExactPhaseTime
    parity: ParityTable
    endpoint_magnitude: float
    site_amplitudes: Tuple[Amplitude, ...]
    period_residual: float
    verdict: TransferVerdict
    mirror_residual: Optional[float]

    @property
    def perfect(self) -> bool:
        return self.verdict is TransferVerdict.PERFECT


def transfer_time(spec: FamilySpec) -> ExactPhaseTime:
    """The transfer time: Q**N, then P**N, then the matched solver.

    1/q = P/Q must be odd/odd.  The dual families sometimes align
    phases at P**N * pi or at a smaller rational multiple instead of
    the canonical Q**N * pi; if nothing aligns, the canonical time is
    returned, and the parity table at that time says so.
    """
    q = spec.q
    q.require_odd_odd()
    canonical = ExactPhaseTime(Fraction(q.num) ** spec.N)
    for t in (canonical, ExactPhaseTime(Fraction(q.den) ** spec.N)):
        if phase_parity_check(spec, t).all_pass:
            return t
    matched = matched_phase_time(spec)
    return matched if matched is not None else canonical


def transfer_report(spec: FamilySpec) -> TransferReport:
    """Certify or refute end-to-end transfer for a rational-q spec."""
    t = transfer_time(spec)
    table = phase_parity_check(spec, t)
    N = spec.N
    F = exact_phase_matrix(spec, t)
    F2 = exact_phase_matrix(spec, t.doubled())
    endpoint = abs(F[N, 0])
    sites = tuple(
        Amplitude(float(F[r, 0].real), float(F[r, 0].imag)) for r in range(N + 1)
    )
    period_residual = float(np.abs(F2 - np.eye(N + 1)).max())
    verdict = (
        TransferVerdict.PERFECT
        if endpoint >= 1.0 - PST_TOLERANCE
        else TransferVerdict.IMPERFECT
    )
    mirror = None
    if families.is_transfer_point(spec):
        target = np.fliplr(np.eye(N + 1))
        mirror = float(np.abs(F - target).max())
    return TransferReport(
        spec=spec,
        time=t,
        parity=table,
        endpoint_magnitude=endpoint,
        site_amplitudes=sites,
        period_residual=period_residual,
        verdict=verdict,
        mirror_residual=mirror,
    )
