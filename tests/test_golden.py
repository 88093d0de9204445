"""Golden CLI transcripts: stdout bytes, exit codes and stderr text.

Each case runs ``qchain.cli.main`` inside ``tests/golden/specs`` (so file
names print without directories) and renders the result as a
transcript, which must equal ``tests/golden/expected/<case>.txt`` byte
for byte.  The cases cover every family, an explicit chain, a float-q
spec, every subcommand, errors of every exit code 2-7 (exit 2 for each
kind of unreadable input and for an unwritable output) and one
parameter window violation per family.

A deliberate output change is re-blessed in two steps.  First

    PYTHONPATH=src python tests/test_golden.py --compare

runs every case against its committed transcript and prints one line
per case that differs: ``numeric <case> <max |new - old|/max(1, |old|)>``
when only printed numbers moved (residual lines are listed apart and
left out of the maximum), ``STRUCTURAL <case>: <first differing line>``
for anything else, and ``added <case>`` for a case with no transcript
yet.  It exits 1 on any structural change.  Then

    PYTHONPATH=src python tests/test_golden.py

rewrites every transcript; commit that on its own, so its diff can be
reviewed against the comparison.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import os
import re
import sys
from pathlib import Path
from typing import List, Optional, Tuple

import pytest

from qchain import cli

GOLDEN = Path(__file__).parent / "golden"
SPECS = GOLDEN / "specs"
EXPECTED = GOLDEN / "expected"

# spec file stem -> (parameter to scan, its values)
EXACT_FAMILIES = {
    "qk": ("p", ["125/27", "1", "5"]),
    "affine": ("p", ["1/54", "1/81", "1/100"]),
    "quantum": ("p", ["1", "2", "1/2"]),
    "dual-qk": ("c", ["-10019/1200", "-4", "-1/2"]),
    "q-hahn": ("alpha", ["1/2", "1/4", "2"]),
    "dual-q-hahn": ("gamma", ["1/216", "1/100", "1/50"]),
    "q-racah": ("gamma", ["729/8", "100", "200"]),
}

WINDOW_SPECS = (
    "window-qk",
    "window-affine",
    "window-quantum",
    "window-dual-qk",
    "window-q-hahn",
    "window-dual-q-hahn",
    "window-q-racah",
    "mixed-signs",
)


def _cases() -> List[Tuple[str, List[str]]]:
    cases = []
    for stem, (param, values) in EXACT_FAMILIES.items():
        path = f"{stem}.json"
        cases += [
            (f"{stem}-build", ["build", path]),
            (f"{stem}-build-json", ["build", path, "--format", "json"]),
            (f"{stem}-spectrum", ["spectrum", path]),
            (f"{stem}-evolve-pi", ["evolve", path, "-r", "3", "-s", "0",
                                   "--times", "1pi", "3/2pi"]),
            (f"{stem}-evolve-decimal", ["evolve", path, "-r", "3", "-s", "0",
                                        "--times", "0.5", "1.5"]),
            (f"{stem}-pst-check", ["pst-check", path]),
            (f"{stem}-closed-form-interior", ["closed-form", path, "-r", "1", "-s", "1"]),
            (f"{stem}-closed-form-endpoint", ["closed-form", path, "-r", "3", "-s", "0"]),
            (f"{stem}-scan", ["scan", path, "--param", param, "--values", *values]),
        ]
    cases += [
        ("qk-evolve-transfer", ["evolve", "qk.json", "-r", "3", "-s", "0",
                                "--times", "27pi", "54pi"]),
        ("qk-evolve-grid", ["evolve", "qk.json", "-r", "2", "-s", "1",
                            "--grid", "0", "2", "3"]),
        ("qk-scan-log", ["scan", "qk.json", "--param", "p",
                         "--grid", "1/27", "125/9", "4", "--log"]),
        ("qk-pos-evolve", ["evolve", "qk-pos.json", "-r", "3", "-s", "0",
                           "--times", "27pi", "0.5"]),
        ("qk-pos-spectrum", ["spectrum", "qk-pos.json"]),
        ("qk-pos-closed-form", ["closed-form", "qk-pos.json", "-r", "2", "-s", "1"]),
        ("q-racah-scan-grid", ["scan", "q-racah.json", "--param", "beta",
                               "--grid", "2", "3", "3"]),
        # the endpoint formula with a negative series prefactor
        ("q-racah-negative-endpoint", ["closed-form", "q-racah-negative-endpoint.json",
                                       "-r", "3", "-s", "0"]),
        ("q-racah-float-build", ["build", "q-racah-float.json"]),
        ("q-racah-float-pst-check", ["pst-check", "q-racah-float.json"]),
        ("q-racah-float-scan", ["scan", "q-racah-float.json", "--param", "beta",
                                "--values", "2.75", "11/4"]),
        ("q-racah-float-evolve", ["evolve", "q-racah-float.json", "-r", "3", "-s", "0",
                                  "--times", "1pi", "0.5", "1.0"]),
        # the spec line names the floats as given, not the exact twin
        ("q-racah-float-closed-form", ["closed-form", "q-racah-float.json",
                                       "-r", "2", "-s", "0"]),
        # an N = 1 chain outside q-Krawtchouk that is mirror symmetric
        # (h_0 = h_1) and transfers perfectly, so it prints its mirror residual
        ("quantum-mirror-n1-pst-check", ["pst-check", "quantum-mirror-n1.json"]),
        ("chain-build", ["build", "chain.json"]),
        ("chain-build-json", ["build", "chain.json", "--format", "json"]),
        ("chain-spectrum", ["spectrum", "chain.json"]),
        ("chain-evolve", ["evolve", "chain.json", "-r", "3", "-s", "0",
                          "--times", "0.5", "1pi"]),
        ("chain-pst-check", ["pst-check", "chain.json"]),
        ("hahn-float6-build", ["build", "hahn-float6.json"]),
        ("hahn-float6-spectrum", ["spectrum", "hahn-float6.json"]),
        ("hahn-float6-evolve", ["evolve", "hahn-float6.json", "-r", "6", "-s", "0",
                                "--times", "1.0", "1pi"]),
        ("hahn-float6-pst-check", ["pst-check", "hahn-float6.json"]),
        ("hahn-float6-scan", ["scan", "hahn-float6.json", "--param", "alpha",
                              "--values", "0.5"]),
        ("hahn-float12-spectrum", ["spectrum", "hahn-float12.json"]),
        ("hahn-float12-evolve", ["evolve", "hahn-float12.json", "-r", "12", "-s", "0",
                                 "--times", "1.0", "1pi"]),
        # exit 2: parse errors
        ("error-unknown-tag", ["build", "bad-tag.json"]),
        ("error-bad-params", ["build", "bad-params.json"]),
        ("error-bad-json", ["build", "bad-json.json"]),
        ("error-missing-file", ["build", "absent.json"]),
        ("error-scan-parameter", ["scan", "q-hahn.json", "--param", "gamma",
                                  "--values", "1"]),
        ("error-site", ["closed-form", "qk.json", "-r", "4", "-s", "0"]),
        ("error-float-q-one", ["build", "float-q-one.json"]),
        ("error-float-q-negative", ["build", "float-q-negative.json"]),
        ("error-nan", ["spectrum", "nan.json"]),
        ("error-infinity", ["build", "infinity.json"]),
        ("error-scan-nan", ["scan", "qk.json", "--param", "p", "--values", "nan"]),
        ("error-time-nan", ["evolve", "qk.json", "-r", "3", "-s", "0", "--times", "nan"]),
        ("error-grid-inf", ["evolve", "qk.json", "-r", "3", "-s", "0",
                            "--grid", "0", "inf", "3"]),
        ("error-q-no-den", ["build", "parse-q-no-den.json"]),
        ("error-p-zero-den", ["build", "parse-p-zero-den.json"]),
        ("error-p-slash-zero", ["build", "parse-p-slash-zero.json"]),
        ("error-p-bool", ["build", "parse-p-bool.json"]),
        ("error-output-dir", ["build", "qk.json", "-o", "missing-dir/out.txt"]),
        # exit 3: validation, one window violation per family
        *((f"error-{stem}", ["build", f"{stem}.json"]) for stem in WINDOW_SPECS),
        ("error-scan-window", ["scan", "quantum.json", "--param", "p",
                               "--values", "1", "1/9"]),
        # an exact window beyond the float range, and its float twin
        ("error-window-quantum-overflow", ["build", "window-quantum-overflow.json"]),
        ("error-window-quantum-overflow-float", ["build", "window-quantum-overflow-float.json"]),
        # a float spec whose exact q is beyond the float range reads q as inf
        ("error-q-beyond-float-range", ["build", "q-beyond-float-range.json"]),
        # exit 4: floating time bound
        ("error-time-bound", ["evolve", "qk.json", "-r", "3", "-s", "0",
                              "--times", "1e9"]),
        # exit 5: q outside the odd/odd class
        ("error-even-q", ["pst-check", "even-q.json"]),
        ("error-even-q-closed-form", ["closed-form", "even-q.json", "-r", "2", "-s", "0"]),
        ("error-even-q-scan", ["scan", "even-q.json", "--param", "p", "--values", "4"]),
        # exit 6: no phase-matched time
        ("error-no-matched-time", ["closed-form", "no-matched-time.json",
                                   "-r", "3", "-s", "0"]),
        # exit 7: float Jacobi data too ill-conditioned for the
        # orthonormality check of its twisted eigenvectors
        ("error-numerical-check", ["spectrum", "qk-float120.json"]),
        # exit 7: a valid exact spec whose couplings underflow in floats
        ("error-couplings-underflow", ["build", "underflow-couplings.json"]),
    ]
    return cases


CASES = _cases()


def transcript(argv: List[str]) -> str:
    """Run the CLI in the spec directory and render its result."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(SPECS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return (
        f"$ qchain {' '.join(argv)}\n"
        f"exit: {code}\n"
        f"--- stdout\n{out.getvalue()}"
        f"--- stderr\n{err.getvalue()}"
    )


def test_case_names_unique():
    names = [name for name, _ in CASES]
    assert len(names) == len(set(names))
    assert sorted(p.stem for p in EXPECTED.glob("*.txt")) == sorted(names)


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_transcript(name, argv):
    expected = (EXPECTED / f"{name}.txt").read_text(encoding="utf-8")
    assert transcript(argv) == expected


def bless() -> None:
    EXPECTED.mkdir(exist_ok=True)
    for stale in EXPECTED.glob("*.txt"):
        stale.unlink()
    for name, argv in CASES:
        with open(EXPECTED / f"{name}.txt", "w", encoding="utf-8", newline="\n") as handle:
            handle.write(transcript(argv))


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_VERBATIM = ("$ ", "exit:")


def compare(old: str, new: str) -> Optional[tuple]:
    """How transcript ``new`` differs from ``old``.

    None when they are equal; ("STRUCTURAL", first differing line of
    ``new``) when anything besides the value of a printed number
    differs, including the command and exit lines; otherwise
    ("numeric", largest |new - old|/max(1, |old|) over the numbers of
    lines without "residual", the changed residual lines as
    "old -> new").
    """
    if old == new:
        return None
    worst = 0.0
    residuals = []
    for was, now in itertools.zip_longest(old.splitlines(), new.splitlines()):
        if was == now:
            continue
        if was is None or now is None or now.startswith(_VERBATIM) or (
                _NUMBER.sub("#", was) != _NUMBER.sub("#", now)):
            return "STRUCTURAL", now if now is not None else "<missing line>"
        if "residual" in now:
            residuals.append(f"{was} -> {now}")
            continue
        for a, b in zip(_NUMBER.findall(was), _NUMBER.findall(now)):
            x, y = float(a), float(b)
            worst = max(worst, abs(y - x) / max(1.0, abs(x)))
    return "numeric", worst, residuals


def compare_all() -> int:
    """Print how every case differs from its transcript; 1 on any
    structural change, else 0."""
    status = 0
    for name, argv in CASES:
        path = EXPECTED / f"{name}.txt"
        if not path.exists():
            print(f"added {name}")
            continue
        outcome = compare(path.read_text(encoding="utf-8"), transcript(argv))
        if outcome is None:
            continue
        if outcome[0] == "STRUCTURAL":
            print(f"STRUCTURAL {name}: {outcome[1]}")
            status = 1
            continue
        _, worst, residuals = outcome
        print(f"numeric {name} {worst:.1e}")
        for line in residuals:
            print(f"    residual {line}")
    return status


def test_compare_tells_numbers_from_structure():
    old = "$ qchain spectrum a.json\nexit: 0\nk,eps\n0,1.5\n1,-200\n# residual: 1e-16\n"
    assert compare(old, old) is None
    moved = old.replace("1.5", "1.5000000000000002").replace("-200", "-200.00000001")
    moved = moved.replace("1e-16", "2e-16")
    kind, worst, residuals = compare(old, moved)
    assert kind == "numeric"
    assert worst == pytest.approx(5e-11, rel=1e-6)
    assert residuals == ["# residual: 1e-16 -> # residual: 2e-16"]
    assert compare(old, old.replace("exit: 0", "exit: 7")) == ("STRUCTURAL", "exit: 7")
    assert compare(old, old.replace("k,eps", "k,eps_exact")) == ("STRUCTURAL", "k,eps_exact")
    assert compare(old, old.replace("1.5", "nan")) == ("STRUCTURAL", "0,nan")
    assert compare(old, old + "extra\n") == ("STRUCTURAL", "extra")
    assert compare(old + "extra\n", old) == ("STRUCTURAL", "<missing line>")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Re-bless or compare the golden transcripts.")
    parser.add_argument("--compare", action="store_true",
                        help="report how each case differs instead of rewriting")
    sys.exit(compare_all() if parser.parse_args().compare else bless())
