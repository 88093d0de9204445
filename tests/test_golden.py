"""Golden CLI transcripts: stdout bytes, exit codes and stderr text.

Each case runs ``qchain.cli.main`` inside ``tests/golden/specs`` (so file
names print without directories) and renders the result as a
transcript, which must equal ``tests/golden/expected/<case>.txt`` byte
for byte.  The cases cover every family, an explicit chain, a float-q
spec, every subcommand, one error per exit code 2-6 and one parameter
window violation per family.

A deliberate output change is re-blessed with

    PYTHONPATH=src python tests/test_golden.py

which rewrites every transcript; review the diff before committing it.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path
from typing import List, Tuple

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
        ("q-racah-float-build", ["build", "q-racah-float.json"]),
        ("q-racah-float-pst-check", ["pst-check", "q-racah-float.json"]),
        ("q-racah-float-scan", ["scan", "q-racah-float.json", "--param", "beta",
                                "--values", "2.75", "11/4"]),
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
        # exit 2: parse errors
        ("error-unknown-tag", ["build", "bad-tag.json"]),
        ("error-bad-params", ["build", "bad-params.json"]),
        ("error-bad-json", ["build", "bad-json.json"]),
        ("error-missing-file", ["build", "absent.json"]),
        ("error-scan-parameter", ["scan", "q-hahn.json", "--param", "gamma",
                                  "--values", "1"]),
        ("error-site", ["closed-form", "qk.json", "-r", "4", "-s", "0"]),
        # exit 3: validation, one window violation per family
        *((f"error-{stem}", ["build", f"{stem}.json"]) for stem in WINDOW_SPECS),
        ("error-scan-window", ["scan", "quantum.json", "--param", "p",
                               "--values", "1", "1/9"]),
        # exit 4: floating time bound
        ("error-time-bound", ["evolve", "qk.json", "-r", "3", "-s", "0",
                              "--times", "1e9"]),
        # exit 5: q outside the odd/odd class
        ("error-even-q", ["pst-check", "even-q.json"]),
        # exit 6: no phase-matched time
        ("error-no-matched-time", ["closed-form", "no-matched-time.json",
                                   "-r", "3", "-s", "0"]),
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


if __name__ == "__main__":
    sys.exit(bless())
