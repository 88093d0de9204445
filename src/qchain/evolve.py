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
parity argument to the modulated spectra of the dual families: the
aligned times are the odd multiples of the matched time.

The entry points :func:`transfer_time` and :func:`transfer_report` take
a spec and derive its chain record first, so an invalid spec fails
before anything else.  The time search checks the odd/odd class and
exactness, then reads the record's exact spectrum, which also serves
the parity table and both exact-phase matrices; both matrices copy the
record's checked U, so its exact and float parts run once per report,
and the record's exact mirror test decides whether a report measures
the mirror residual.  Phases and the candidate times are decided on
integers: t*eps_k/pi is reduced modulo 2 as an unreduced integer pair,
and Q**N and P**N are tested as odd multiples of the matched time.
Below them each function takes what it reads:
:func:`exact_phase_matrix` and :func:`search_transfer_time` the record,
:func:`correlation_exact_phase` a decomposition with exact eigenvalues,
as :func:`correlation` takes one, and :func:`phase_residues`,
:func:`phase_parity_check` and :func:`matched_phase_time` the exact
spectrum.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

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
    "correlation_exact_phase",
    "exact_phase_matrix",
    "matched_phase_time",
    "phase_parity_check",
    "phase_residues",
    "pst_time",
    "require_odd_odd_and_exact",
    "search_transfer_time",
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


# ----------------------------------------------------------------------
# exact-phase route

# the exact eigenvalues eps_0..eps_N, as Fractions
Spectrum = Sequence[Fraction]


def _require_exact(spec: FamilySpec) -> None:
    """NonRationalSpectrumError unless q and every parameter are exact."""
    if not spec.is_exact:
        what = "q" if spec.qx is None else "eigenvalue 0"
        raise NonRationalSpectrumError(
            f"{what} of {spec.describe()} is not exactly rational; "
            "exact phases need rational q and rational parameters"
        )


def phase_residues(spectrum: Spectrum, t: ExactPhaseTime) -> Tuple[Fraction, ...]:
    """t*eps_k/pi reduced modulo 2, one exact residue in [0, 2) per k."""
    return tuple((t.pi_multiple * e) % 2 for e in spectrum)


def _residue(tau: Fraction, eps: Fraction) -> Tuple[int, int]:
    """tau*eps modulo 2 on integers, as (r, d) with residue r/d and
    0 <= r < 2d, unreduced: d is the product of the denominators."""
    d = tau.denominator * eps.denominator
    return tau.numerator * eps.numerator % (2 * d), d


def _phase(tau: Fraction, eps: Fraction) -> complex:
    """exp(-i pi tau eps), from the residue of tau*eps modulo 2: an
    integer residue gives exactly +-1, any other one cos and sin of
    -pi times the correctly rounded residue."""
    r, d = _residue(tau, eps)
    if r % d == 0:
        return complex(-1.0 if r else 1.0, 0.0)
    angle = -math.pi * (r / d)
    return complex(math.cos(angle), math.sin(angle))


def correlation_exact_phase(
    dec: SpectralDecomposition, r: int, s: int, t: ExactPhaseTime
) -> Amplitude:
    """f_{r,s}(t) with phases from exact residue reduction.

    The phases come from the decomposition's exact eigenvalues.  When
    every residue is an integer the phases are exactly +-1 and the
    result is a signed real sum with no trigonometric rounding at all.
    """
    if dec.exact_eigenvalues is None:
        raise NonRationalSpectrumError(
            "the decomposition has no exact eigenvalues; "
            "exact phases need rational q and rational parameters"
        )
    U = dec.eigenvectors
    re = 0.0
    im = 0.0
    for k, eps in enumerate(dec.exact_eigenvalues):
        weight = U[r, k] * U[s, k]
        phase = _phase(t.pi_multiple, eps)
        re += weight * phase.real
        im += weight * phase.imag
    return Amplitude(re, im)


def exact_phase_matrix(data: families.OrthogonalityData, t: ExactPhaseTime) -> np.ndarray:
    """The full matrix f(t) of the spec whose record ``data`` is, through
    the exact-phase route (complex).  Each phase is reduced on integers
    from the record's exact spectrum; U is a copy of the record's
    checked U, which the first build derives, so later builds from the
    same record redo neither its exact nor its float part."""
    _require_exact(data.spec)
    phases = np.array([_phase(t.pi_multiple, eps) for eps in data.spectrum])
    U = families.orthonormal_matrix(data)
    return (U * phases) @ U.T


# ----------------------------------------------------------------------
# transfer times and parity

def pst_time(q: RationalQ, N: int) -> ExactPhaseTime:
    """The canonical transfer time T = Q**N * pi for 1/q = P/Q odd/odd."""
    q.require_odd_odd()
    return ExactPhaseTime(Fraction(q.num) ** N)


def matched_phase_time(spectrum: Spectrum) -> Optional[ExactPhaseTime]:
    """Smallest t = tau*pi with every phase equal to (-1)**k, or None.

    Integrality forces tau into (M/g) * Z where M clears the spectrum's
    denominators and g is the gcd of the cleared integers c_k.  At
    tau = m*M/g, t*eps_k/pi = m*c_k/g has the parity of k for every
    k >= 1 exactly when m is odd (k = 1 rules out even m) and each c_k/g
    has the parity of k.  So the aligned times are the odd multiples of
    the returned time, and there are none when it is None.  k = 0 is
    not read; every family has eps_0 = 0.  An all-zero spectrum keeps
    every phase at 1, which is (-1)**k only when there is no k >= 1.
    """
    nonzero = [e for e in spectrum if e]
    if not nonzero:
        return ExactPhaseTime(Fraction(1)) if len(spectrum) <= 1 else None
    scale = math.lcm(*(e.denominator for e in nonzero))
    cleared = [e.numerator * (scale // e.denominator) for e in spectrum]
    g = math.gcd(*cleared)
    if {(c // g - k) % 2 for k, c in enumerate(cleared) if k} != {0}:
        return None
    return ExactPhaseTime(Fraction(scale, g))


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


def phase_parity_check(spectrum: Spectrum, t: ExactPhaseTime) -> ParityTable:
    """Per-eigenvalue check that t*eps_k/pi is an integer of parity k.

    The all-pass verdict is exactly the condition under which the
    transfer-point closed forms apply: every phase equals (-1)**k.
    """
    tn, td = t.pi_multiple.numerator, t.pi_multiple.denominator
    entries = []
    for k, eps in enumerate(spectrum):
        n, d = tn * eps.numerator, td * eps.denominator
        value = Fraction(n, d)
        # aligned: n/d is an integer of the parity of k, decided on integers
        entries.append(ParityEntry(k, value, value.denominator == 1,
                                   n % (2 * d) == (k % 2) * d))
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
    """The transfer time: Q**N, then P**N, then the matched time.

    1/q = P/Q must be odd/odd.  The dual families sometimes align
    phases at P**N * pi or only at a smaller rational multiple instead
    of the canonical Q**N * pi; if nothing aligns, the canonical time is
    returned, and the parity table at that time says so.  The spec's
    record comes first, so this refuses what validate refuses.
    """
    return search_transfer_time(families.orthogonality_data(spec))


def require_odd_odd_and_exact(spec: FamilySpec) -> None:
    """1/q = P/Q odd/odd (NotOddOddError) and an exact spectrum, checked
    before the spectrum is derived; a float q fails the exactness check."""
    if isinstance(spec.q, RationalQ):
        spec.q.require_odd_odd()
    _require_exact(spec)


def search_transfer_time(data: families.OrthogonalityData) -> ExactPhaseTime:
    """The time :func:`transfer_time` picks from the record's exact
    spectrum, after :func:`require_odd_odd_and_exact`.  The aligned
    times are the odd multiples of :func:`matched_phase_time`'s, so it
    takes Q**N pi if it is one, else P**N pi if it is one, else the
    matched time; Q**N pi when there is none.  Tested on integers: a is
    an odd multiple of c/d exactly when a*d = c modulo 2c."""
    spec = data.spec
    require_odd_odd_and_exact(spec)
    q, N = spec.q, spec.N
    matched = matched_phase_time(data.spectrum)
    if matched is None:
        return ExactPhaseTime(Fraction(q.num ** N))
    c, d = matched.pi_multiple.numerator, matched.pi_multiple.denominator
    for a in (q.num ** N, q.den ** N):
        if a * d % (2 * c) == c:
            return ExactPhaseTime(Fraction(a))
    return matched


def transfer_report(spec: FamilySpec) -> TransferReport:
    """Certify or refute end-to-end transfer for a rational-q spec.

    The spec's record is derived once; its exact spectrum serves the
    time search and the point table, and both U builds copy the record's
    checked U, so U's exact and float parts each run once.
    Errors come in the order every spec-taking entry point keeps: the
    record (InvalidSpecError, raised for exactly the specs
    :func:`qchain.families.validate` refuses and carrying its
    violations), the odd/odd check, the exactness check
    (NonRationalSpectrumError), then U (NumericalCheckError).  The
    mirror residual is measured exactly when the record is mirror
    symmetric.
    """
    data = families.orthogonality_data(spec)
    t = search_transfer_time(data)
    table = phase_parity_check(data.spectrum, t)
    N = spec.N
    F = exact_phase_matrix(data, t)
    F2 = exact_phase_matrix(data, t.doubled())
    endpoint = abs(F[N, 0])
    sites = tuple(Amplitude(z.real, z.imag) for z in F[:, 0].tolist())
    period_residual = float(np.abs(F2 - np.eye(N + 1)).max())
    verdict = (
        TransferVerdict.PERFECT
        if endpoint >= 1.0 - PST_TOLERANCE
        else TransferVerdict.IMPERFECT
    )
    mirror = None
    if data.mirror_symmetric:
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
