"""Command-line surface: build chains, dump spectra, run time scans,
certify transfer, evaluate closed forms.

Spec files are JSON objects

    {"family": "q-krawtchouk", "N": 2, "q": {"num": 3, "den": 1},
     "params": {"p": "1/9"}, "sign": "neg"}

where parameter values may be integers, "num/den" strings, {"num", "den"}
objects (all exact), or plain floats.  The family tag "chain" takes
explicit data instead: params {"J": [...], "h": [...]} with N couplings
and N+1 on-site energies, which is exactly what ``build --format json``
emits, so a built chain re-ingests as a spec.  The optional "sign" field
picks the off-diagonal sign convention of the hopping matrix; the two
conventions are unitarily equivalent and flip every cross-site
amplitude by (-1)**(r+s).

Times are written as rational multiples of pi ("9pi", "3/2pi") to route
through the exact-phase engine; bare decimal seconds are accepted but
flagged on standard error, and refused beyond the floating safety
bound.  Grid endpoints and scan values are read exactly, a decimal as
its exact rational, so a linear grid is exact; a log grid is spaced in
floating point.  A float q takes the float routes (pst-check,
closed-form and scan refuse it).  With a rational q, float parameters
become their exact binary rationals, the same numbers, in evolve,
pst-check, closed-form and scan, while build and spectrum take the
float route; printed spec lines and refusals name the spec as given.
scan evaluates the endpoint magnitude at each point's would-be transfer
time, where a failing parity table is part of the answer rather than an
error.  Reals print at 17 significant digits, exact values as
"num/den", tables as CSV with a header row and LF line endings, so
identical invocations produce byte-identical output.

Exit codes are a stable contract: 0 success or Perfect verdict,
1 Imperfect verdict, 2 parse error, 3 validation failure, 4 floating
time beyond the safety bound, 5 deformation outside the odd/odd parity
class, 6 phase condition unmet, 7 numerical check failed (a float
result missed its own residual bound, or the eigensolver did not
converge, so no number is printed).  Every command reads all of its
arguments before it derives a record, so a bad argument exits 2 even
with a spec that would fail validation.  A command returns its output
lines and exit code, and ``main`` alone writes them, to standard output
or the ``-o`` file, inside the failure table, so a failed write exits
2 as well.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import closedform, evolve, families
from .chain import (
    SignConvention,
    SpectralDecomposition,
    SpinChain,
    analytic_decomposition,
    assemble_matrix,
    numeric_decomposition,
    verify_decomposition,
)
from .closedform import PhaseConditionUnmetError
from .evolve import ExactPhaseTime, TimeBoundExceededError, TransferVerdict
from .families import Family, FamilySpec, InvalidSpecError, NumericalCheckError
from .qseries import NotOddOddError, RationalQ

__all__ = [
    "EXIT_OK",
    "EXIT_IMPERFECT",
    "EXIT_PARSE",
    "EXIT_VALIDATION",
    "EXIT_TIME_BOUND",
    "EXIT_NOT_ODD_ODD",
    "EXIT_PHASE",
    "EXIT_NUMERICAL",
    "SpecFile",
    "SpecParseError",
    "entry",
    "load_spec_file",
    "main",
    "parse_spec_data",
    "parse_time",
]

EXIT_OK = 0
EXIT_IMPERFECT = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_TIME_BOUND = 4
EXIT_NOT_ODD_ODD = 5
EXIT_PHASE = 6
EXIT_NUMERICAL = 7


class SpecParseError(ValueError):
    """A spec file failed to parse; the message lists every problem."""


# ----------------------------------------------------------------------
# spec files

CHAIN_FAMILY_TAG = "chain"


@dataclass(frozen=True)
class SpecFile:
    """A parsed spec file: a polynomial family or an explicit chain."""

    spec: Optional[FamilySpec]
    chain: Optional[SpinChain]
    sign: SignConvention

    @property
    def N(self) -> int:
        if self.spec is not None:
            return self.spec.N
        return self.chain.last_site

    def describe(self) -> str:
        if self.spec is not None:
            return self.spec.describe()
        return f"chain(N={self.chain.last_site})"

    def require_rational_q(self, what: str) -> FamilySpec:
        """The family spec, which must have exact rational q."""
        if self.spec is None:
            raise SpecParseError(f"{what} needs a polynomial family spec, "
                                 f"not an explicit chain")
        if not isinstance(self.spec.q, RationalQ):
            raise SpecParseError(f"{what} needs exact rational q, "
                                 f"got q = {self.spec.q!r}")
        return self.spec


def _parse_exact_or_float(
    value: object, where: str, errors: List[str]
) -> Union[Fraction, float, None]:
    """Numbers stay exact when they can: ints, "num/den" strings and
    {"num", "den"} objects become Fractions, floats stay floats."""
    if isinstance(value, bool):
        errors.append(f"{where}: expected a number, got {value!r}")
        return None
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        errors.append(f"{where}: expected a finite number, got {value!r}")
        return None
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            errors.append(f"{where}: cannot read {value!r} as num/den")
            return None
    if isinstance(value, dict):
        extra = set(value) - {"num", "den"}
        missing = {"num", "den"} - set(value)
        if extra or missing:
            errors.append(f"{where}: a rational object needs exactly "
                          f"the keys num and den, got {sorted(value)}")
            return None
        if not all(isinstance(value[k], int) for k in ("num", "den")):
            errors.append(f"{where}: num and den must be integers")
            return None
        if value["den"] == 0:
            errors.append(f"{where}: zero denominator")
            return None
        return Fraction(value["num"], value["den"])
    errors.append(f"{where}: expected a number, got {value!r}")
    return None


def _parse_q(value: object, errors: List[str]) -> Union[RationalQ, float, None]:
    raw = _parse_exact_or_float(value, "q", errors)
    if raw is None:
        return None
    try:
        # a float q passes the same checks as its exact binary value
        exact = RationalQ.from_fraction(Fraction(raw))
    except ValueError as exc:
        errors.append(f"q: {exc}")
        return None
    return raw if isinstance(raw, float) else exact


def _parse_number_list(
    value: object, where: str, errors: List[str]
) -> Optional[List[float]]:
    if not isinstance(value, list):
        errors.append(f"{where}: expected a list of numbers")
        return None
    out = []
    for i, item in enumerate(value):
        parsed = _parse_exact_or_float(item, f"{where}[{i}]", errors)
        if parsed is None:
            return None
        try:
            out.append(float(parsed))
        except OverflowError:
            errors.append(f"{where}[{i}]: {item!r} lies beyond the double range")
            return None
    return out


def parse_spec_data(data: object) -> SpecFile:
    """Parse a decoded JSON object into a SpecFile.

    Structural problems are collected and reported together; a spec
    that parses but violates a family constraint is left to the
    per-command validation so it exits with the validation code.
    """
    errors: List[str] = []
    if not isinstance(data, dict):
        raise SpecParseError("spec file must be a JSON object")
    known = {"family", "N", "q", "params", "sign"}
    for key in sorted(set(data) - known):
        errors.append(f"unknown key {key!r}")
    family = data.get("family")
    if not isinstance(family, str):
        errors.append("family: required string tag")
        family = None
    elif family != CHAIN_FAMILY_TAG and family not in {f.value for f in families.FAMILIES}:
        tags = ", ".join(sorted(f.value for f in families.FAMILIES) + [CHAIN_FAMILY_TAG])
        errors.append(f"family: unknown tag {family!r}; expected one of {tags}")
        family = None
    sign = SignConvention.NEGATIVE
    if "sign" in data:
        try:
            sign = SignConvention(data["sign"])
        except ValueError:
            errors.append(f"sign: expected \"pos\" or \"neg\", got {data['sign']!r}")
    params = data.get("params")
    if not isinstance(params, dict):
        errors.append("params: required object")
        params = {}

    if family == CHAIN_FAMILY_TAG:
        J = _parse_number_list(params.get("J", []), "params.J", errors)
        h = _parse_number_list(params.get("h"), "params.h", errors)
        for key in sorted(set(params) - {"J", "h"}):
            errors.append(f"params.{key}: explicit chains take only J and h")
        if "N" in data and isinstance(data["N"], int) and J is not None:
            if data["N"] != len(J):
                errors.append(f"N = {data['N']} disagrees with {len(J)} couplings")
        if errors:
            raise SpecParseError("; ".join(errors))
        try:
            chain = SpinChain(np.array(J, dtype=float), np.array(h, dtype=float))
        except ValueError as exc:
            # shape and positivity are value constraints, not syntax
            raise InvalidSpecError(f"chain: {exc}") from exc
        return SpecFile(spec=None, chain=chain, sign=sign)

    N = data.get("N")
    if not isinstance(N, int) or isinstance(N, bool) or N < 0:
        errors.append(f"N: required integer >= 0, got {data.get('N')!r}")
        N = None
    q = _parse_q(data.get("q"), errors) if "q" in data else None
    if "q" not in data:
        errors.append("q: required")
    if family is not None:
        wanted = families.FAMILIES[Family(family)].params
        for key in sorted(set(params) - set(wanted)):
            errors.append(f"params.{key}: {family} takes only {', '.join(wanted)}")
        values = {}
        for key in wanted:
            if key not in params:
                errors.append(f"params.{key}: required for {family}")
                continue
            parsed = _parse_exact_or_float(params[key], f"params.{key}", errors)
            if parsed is not None:
                values[key] = parsed
    if errors:
        raise SpecParseError("; ".join(errors))
    spec = families.make_spec(Family(family), N, q, **values)
    return SpecFile(spec=spec, chain=None, sign=sign)


def load_spec_file(path: str) -> SpecFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SpecParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"{path} is not valid JSON: {exc}") from exc
    return parse_spec_data(data)


# ----------------------------------------------------------------------
# formatting

def _real(x: float) -> str:
    # 17 significant digits always round-trip a binary64
    value = float(x)
    if value == 0.0:
        value = 0.0  # canonical zero, never "-0"
    return f"{value:.17g}"


def _exact(value: object) -> str:
    if isinstance(value, (int, Fraction)):
        return str(Fraction(value))
    return "-"


def _param_repr(value: Union[Fraction, float]) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return _real(value)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


# ----------------------------------------------------------------------
# time and grid arguments

_PI_MULTIPLE = re.compile(r"^([+-]?\d+(?:/0*[1-9]\d*)?)\s*\*?\s*pi$")


def parse_time(text: str) -> Union[ExactPhaseTime, float]:
    """"9pi" and "3/2pi" give exact phase times; bare numbers give
    floating seconds."""
    match = _PI_MULTIPLE.match(text.strip())
    if match:
        t = ExactPhaseTime(Fraction(match.group(1)))
        # the time is printed in seconds, so it must fit a double
        _finite(t.pi_multiple * Fraction(math.pi), "time", text)
        return t
    try:
        value = float(text)
    except ValueError:
        raise SpecParseError(
            f"cannot read time {text!r}; use a pi multiple like 9pi or "
            "3/2pi, or a decimal number of seconds"
        ) from None
    if not math.isfinite(value):
        # a decimal that rounds to inf is checked exactly, so it is named
        # as beyond the double range; inf and nan stay as they are
        with contextlib.suppress(ValueError):
            value = Fraction(text)
    return _finite(value, "time", text)


def _parse_grid_value(text: str) -> Fraction:
    """A grid value, exact.  What only float reads is inf or nan, which
    is refused, or before Python 3.11 a decimal with underscores, taken
    at its double's exact value."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        try:
            value = float(text)
        except ValueError:
            raise SpecParseError(f"cannot read grid value {text!r}") from None
        return Fraction(_finite(value, "grid value", text))


def _finite(value: Union[Fraction, float], where: str, text: str) -> Union[Fraction, float]:
    try:
        if math.isfinite(value):
            return value
    except OverflowError:  # a rational beyond the double range
        raise SpecParseError(f"{where}: {text!r} lies beyond the double range") from None
    raise SpecParseError(f"{where}: expected a finite number, got {text!r}")


def _parse_count(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SpecParseError(f"grid count must be an integer, got {text!r}") from None


def _linear_grid(lo: Fraction, hi: Fraction, count: int) -> List[Fraction]:
    if count <= 0:
        raise SpecParseError("empty grid: count must be positive")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


def _log_grid(lo: float, hi: float, count: int) -> List[float]:
    # geomspace starts at lo exactly, so a one-point grid is [lo]
    if count <= 0:
        raise SpecParseError("empty grid: count must be positive")
    if lo <= 0 or hi <= 0:
        raise SpecParseError("log-spaced grids need positive endpoints")
    return [float(x) for x in np.geomspace(lo, hi, count)]


# ----------------------------------------------------------------------
# shared evaluation plumbing

def _record(sf: SpecFile) -> Optional[families.OrthogonalityData]:
    """The validated record of a family spec; None for an explicit chain."""
    return None if sf.spec is None else families.orthogonality_data(sf.spec)


@contextlib.contextmanager
def _exact_twin(given: FamilySpec) -> Iterator[FamilySpec]:
    """``given`` with float parameters replaced by their exact binary
    rationals, which are the same numbers, so the exact-phase routes
    apply whenever q itself is rational.  A refusal of the twin is
    raised again naming ``given``, with the same violations."""
    twin = replace(given, params=tuple(
        (name, Fraction(v) if isinstance(v, float) else v) for name, v in given.params))
    try:
        yield twin
    except InvalidSpecError as err:
        raise InvalidSpecError(
            f"{given.describe()}: " + "; ".join(err.violations), err.violations) from err


def _decomposition(
    sf: SpecFile, data: Optional[families.OrthogonalityData]
) -> SpectralDecomposition:
    """Decomposition honouring the sign convention, from the spec's
    record (None for an explicit chain).

    The analytic route is stated for the negative convention; the
    positive one conjugates by diag((-1)**site), which flips eigenvector
    rows and leaves the spectrum alone.
    """
    if data is None:
        return numeric_decomposition(assemble_matrix(sf.chain, sf.sign))
    dec = analytic_decomposition(data)
    if sf.sign is SignConvention.POSITIVE:
        twist = np.where(np.arange(dec.size) % 2 == 0, 1.0, -1.0)
        dec = type(dec)(
            dec.eigenvalues,
            dec.eigenvectors * twist[:, None],
            dec.exact_eigenvalues,
        )
    return dec


def _sign_twist(sf: SpecFile, r: int, s: int) -> float:
    if sf.sign is SignConvention.POSITIVE and (r + s) % 2 == 1:
        return -1.0
    return 1.0


def _check_site(sf: SpecFile, name: str, value: int) -> int:
    if not 0 <= value <= sf.N:
        raise SpecParseError(f"{name} = {value} outside sites 0..{sf.N}")
    return value


# ----------------------------------------------------------------------
# subcommands: each returns its output lines and exit code, which main writes

Result = Tuple[List[str], int]


def cmd_build(args: argparse.Namespace) -> Result:
    sf = load_spec_file(args.spec)
    chain = sf.chain if sf.spec is None else families.recurrence_coefficients(sf.spec)
    if args.format == "json":
        payload = {
            "family": CHAIN_FAMILY_TAG,
            "N": chain.last_site,
            "params": {
                "J": [float(x) for x in chain.couplings],
                "h": [float(x) for x in chain.fields],
            },
            "sign": sf.sign.value,
        }
        return [json.dumps(payload)], EXIT_OK
    lines = ["section,index,value"]
    for n, J in enumerate(chain.couplings):
        lines.append(f"J,{n},{_real(J)}")
    for n, h in enumerate(chain.fields):
        lines.append(f"h,{n},{_real(h)}")
    return lines, EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> Result:
    sf = load_spec_file(args.spec)
    data = _record(sf)
    matrix = assemble_matrix(sf.chain if data is None else data.chain, sf.sign)
    dec = _decomposition(sf, data)
    report = verify_decomposition(dec, matrix)
    lines = [f"# spectrum of {sf.describe()} [sign={sf.sign.value}]"]
    lines.append("k,eps_exact,eps")
    exact = dec.exact_eigenvalues or (None,) * dec.size
    for k in range(dec.size):
        lines.append(f"{k},{_exact(exact[k])},{_real(dec.eigenvalues[k])}")
    lines.append("# eigenvectors U[site, k]")
    for row in dec.eigenvectors:
        lines.append(",".join(_real(x) for x in row))
    lines.append(f"# reconstruction residual: {report.reconstruction_residual:.3e}")
    return lines, EXIT_OK


def _evolve_times(args: argparse.Namespace) -> List[Union[ExactPhaseTime, float]]:
    if args.times is not None:
        if not args.times:
            raise SpecParseError("empty grid: give at least one time")
        return [parse_time(text) for text in args.times]
    lo, hi, count = args.grid
    # every grid time lies between the endpoints and runs as a double
    lo_v, hi_v = (_finite(_parse_grid_value(x), "grid value", x) for x in (lo, hi))
    return [float(t) for t in _linear_grid(lo_v, hi_v, _parse_count(count))]


def cmd_evolve(args: argparse.Namespace) -> Result:
    sf = load_spec_file(args.spec)
    r = _check_site(sf, "r", args.r)
    s = _check_site(sf, "s", args.s)
    times = _evolve_times(args)
    # one decomposition for every time, of the exact twin whenever q is
    # rational; _decomposition folds in the sign convention
    exact = sf.spec is not None and isinstance(sf.spec.q, RationalQ)
    if exact:
        with _exact_twin(sf.spec) as twin:
            data = families.orthogonality_data(twin)
    else:
        data = _record(sf)
    if any(isinstance(t, float) for t in times):
        _note("floating times run through inexact trigonometric phases")
    if not exact and any(isinstance(t, ExactPhaseTime) for t in times):
        _note("no exact rational spectrum; pi-multiple times evaluated "
              "in floating point")
    dec = _decomposition(sf, data)

    lines = ["t,re_f,im_f,abs_f"]
    for t in times:
        exact_time = isinstance(t, ExactPhaseTime)
        t_value = t.to_float() if exact_time else float(t)
        if exact_time and exact:
            amp = evolve.correlation_exact_phase(dec, r, s, t)
        else:
            amp = evolve.correlation(dec, r, s, t_value)
        lines.append(
            f"{_real(t_value)},{_real(amp.re)},{_real(amp.im)},"
            f"{_real(np.hypot(amp.re, amp.im))}"
        )
    return lines, EXIT_OK


def cmd_pst_check(args: argparse.Namespace) -> Result:
    sf = load_spec_file(args.spec)
    spec = sf.require_rational_q("pst-check")
    classification = evolve.classify_q(spec.q)
    try:
        with _exact_twin(spec) as twin:
            report = evolve.transfer_report(twin)
    except NotOddOddError as exc:
        _note(f"{exc}")
        _note(classification.explanation)
        return [], EXIT_NOT_ODD_ODD
    lines = [
        f"spec: {sf.describe()}",
        f"classification: {classification.parity_class.value}; "
        f"{classification.explanation}",
        f"T = {report.time}",
        "k,t_eps_over_pi,integer,parity_ok",
    ]
    for entry_ in report.parity.entries:
        lines.append(
            f"{entry_.k},{entry_.value},"
            f"{'yes' if entry_.is_integer else 'no'},"
            f"{'yes' if entry_.parity_matches else 'no'}"
        )
    lines.append(f"|f_N0(T)| = {_real(report.endpoint_magnitude)}")
    lines.append(f"period residual |f(2T) - I|: {report.period_residual:.3e}")
    if report.mirror_residual is not None:
        lines.append(f"mirror residual: {report.mirror_residual:.3e}")
    lines.append(
        "verdict: "
        + ("Perfect" if report.verdict is TransferVerdict.PERFECT else "Imperfect")
    )
    return lines, EXIT_OK if report.verdict is TransferVerdict.PERFECT else EXIT_IMPERFECT


def cmd_closed_form(args: argparse.Namespace) -> Result:
    sf = load_spec_file(args.spec)
    spec = sf.require_rational_q("closed-form")
    r = _check_site(sf, "r", args.r)
    s = _check_site(sf, "s", args.s)
    # the closed form derives the twin's record and finds the matched time
    with _exact_twin(spec) as twin:
        result = closedform.closed_form_result(twin, r, s)
    value = _sign_twist(sf, r, s) * result.value
    return [
        f"spec: {sf.describe()}",
        f"T = {result.time}",
        f"value = {_real(value)}",
        f"method = {result.method.value}",
        f"residual_vs_direct = {result.residual_vs_direct:.3e}",
    ], EXIT_OK


def cmd_scan(args: argparse.Namespace) -> Result:
    sf = load_spec_file(args.spec)
    spec = sf.require_rational_q("scan")
    name = args.param
    wanted = families.FAMILIES[spec.family].params
    if name not in wanted:
        raise SpecParseError(
            f"{spec.family.value} has no parameter {name!r}; "
            f"expected one of {', '.join(wanted)}"
        )
    if args.values is not None:
        if not args.values:
            raise SpecParseError("empty grid: give at least one value")
        grid: List[Union[Fraction, float]] = [_parse_grid_value(text) for text in args.values]
    else:
        lo, hi, count = args.grid
        lo_v, hi_v = _parse_grid_value(lo), _parse_grid_value(hi)
        if args.log:
            grid = _log_grid(float(_finite(lo_v, "grid value", lo)),
                             float(_finite(hi_v, "grid value", hi)), _parse_count(count))
        else:
            grid = _linear_grid(lo_v, hi_v, _parse_count(count))
    rows: List[Tuple[Union[Fraction, float], float]] = []
    for value in grid:
        given = replace(spec, params=tuple(dict(spec.params, **{name: value}).items()))
        # endpoint magnitude at the would-be transfer time; a failing
        # parity table is part of the answer, not an error
        with _exact_twin(given) as point:
            magnitude = evolve.transfer_report(point).endpoint_magnitude
        rows.append((value, magnitude))
    best = max(range(len(rows)), key=lambda i: rows[i][1])
    lines = [f"{name},abs_f_N0"]
    for value, magnitude in rows:
        lines.append(f"{_param_repr(value)},{_real(magnitude)}")
    lines.append(
        f"# max |f_N0| = {_real(rows[best][1])} at "
        f"{name} = {_param_repr(rows[best][0])}"
    )
    return lines, EXIT_OK


# ----------------------------------------------------------------------
# argument parsing and dispatch

# argparse only recognises plain negative integers and decimals as
# values, not fractions like -1/2, exponent forms, or pi multiples;
# widen the matcher so such tokens parse as arguments, not options
_NEGATIVE_TOKEN = re.compile(
    r"^-\d+(/\d+)?(\*?pi)?$|^-\d*\.?\d+([eE][+-]?\d+)?$"
)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The qchain argument parser, built once per process: it holds no
    state between parses, and building it costs ten times a parse."""
    parser = argparse.ArgumentParser(
        prog="qchain",
        description="q-deformed spin chains: build, diagonalise, evolve, "
        "certify transfer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p._negative_number_matcher = _NEGATIVE_TOKEN
        p.add_argument("spec", help="path to a JSON spec file")
        p.add_argument("-o", "--output", default=None,
                       help="write to this file instead of standard output")
        p.set_defaults(func=func)
        return p

    p = add("build", cmd_build, "couplings J and on-site energies h")
    p.add_argument("--format", choices=("table", "json"), default="table",
                   help="table: CSV rows; json: re-ingestable chain spec")

    add("spectrum", cmd_spectrum,
        "eigenvalues, eigenvectors, reconstruction residual")

    p = add("evolve", cmd_evolve, "correlation amplitude over a time grid")
    p.add_argument("-r", type=int, required=True, help="observation site")
    p.add_argument("-s", type=int, required=True, help="start site")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--times", nargs="*",
                       help="explicit times: pi multiples like 9pi or decimals")
    group.add_argument("--grid", nargs=3, metavar=("START", "STOP", "COUNT"),
                       help="linear grid of floating times")

    add("pst-check", cmd_pst_check,
        "parity table, transfer time, endpoint amplitude, verdict")

    p = add("closed-form", cmd_closed_form,
            "analytic transfer-time amplitude with residual")
    p.add_argument("-r", type=int, required=True, help="observation site")
    p.add_argument("-s", type=int, required=True, help="start site")

    p = add("scan", cmd_scan, "endpoint amplitude across a parameter grid")
    p.add_argument("--param", required=True, help="parameter name to vary")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--values", nargs="*", help="explicit parameter values")
    group.add_argument("--grid", nargs=3, metavar=("START", "STOP", "COUNT"),
                       help="parameter grid endpoints and size")
    p.add_argument("--log", action="store_true",
                   help="space the grid geometrically")
    return parser


# each failure's stderr label and exit code; the first matching row wins
_FAILURES = (
    (SpecParseError, "parse error", EXIT_PARSE),
    (InvalidSpecError, "validation failed", EXIT_VALIDATION),
    (TimeBoundExceededError, "time bound", EXIT_TIME_BOUND),
    (NotOddOddError, "parity class", EXIT_NOT_ODD_ODD),
    (PhaseConditionUnmetError, "phase condition", EXIT_PHASE),
    (NumericalCheckError, "numerical check failed", EXIT_NUMERICAL),
    (np.linalg.LinAlgError, "numerical check failed", EXIT_NUMERICAL),
    (OSError, "i/o error", EXIT_PARSE),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and write its lines, to ``-o`` when given; a
    command that returns no lines writes nothing."""
    args = _build_parser().parse_args(argv)
    try:
        lines, code = args.func(args)
        if lines:
            text = "\n".join(lines) + "\n"
            if args.output is None:
                sys.stdout.write(text)
            else:
                with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
                    handle.write(text)
        return code
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        label, code = next((label, code) for kind, label, code in _FAILURES
                           if isinstance(exc, kind))
        _note(f"{label}: {exc}")
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
