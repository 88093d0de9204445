"""Command-line interface contract: formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qchain import chain, cli, evolve, families
from qchain.qseries import RationalQ

PST = {
    "family": "q-krawtchouk",
    "N": 3,
    "q": {"num": 3, "den": 5},
    "params": {"p": "125/27"},
    "sign": "neg",
}


def write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def spec_file(tmp_path, **overrides):
    data = dict(PST)
    data.update(overrides)
    return write_spec(tmp_path, data)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_table(tmp_path, capsys):
    code, out, err = run(capsys, ["build", spec_file(tmp_path)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "section,index,value"
    sections = [line.split(",")[0] for line in lines[1:]]
    assert sections == ["J"] * 3 + ["h"] * 4
    assert float(lines[1].split(",")[2]) == pytest.approx(2.2149414561643725, rel=1e-16)


def test_build_json_is_chain_spec(tmp_path, capsys):
    code, out, _ = run(capsys, ["build", spec_file(tmp_path), "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "chain"
    assert data["N"] == 3
    assert len(data["params"]["J"]) == 3
    assert len(data["params"]["h"]) == 4
    assert data["sign"] == "neg"


def test_build_round_trip_through_chain_spec(tmp_path, capsys):
    code, out, _ = run(capsys, ["build", spec_file(tmp_path), "--format", "json"])
    assert code == 0
    chain_path = write_spec(tmp_path, json.loads(out), name="chain.json")
    code, out, _ = run(capsys, ["spectrum", chain_path])
    assert code == 0
    lines = out.splitlines()
    start = lines.index("k,eps_exact,eps") + 1
    stop = lines.index("# eigenvectors U[site, k]")
    eps = [float(line.split(",")[2]) for line in lines[start:stop]]
    assert eps == pytest.approx([0.0, 5 / 3, 40 / 9, 245 / 27], abs=1e-12)
    assert all(line.split(",")[1] == "-" for line in lines[start:stop])


def test_spectrum_exact_column(tmp_path, capsys):
    code, out, _ = run(capsys, ["spectrum", spec_file(tmp_path)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# spectrum of q-krawtchouk(N=3, q=3/5, p=125/27)")
    assert lines[1] == "k,eps_exact,eps"
    assert lines[2] == "0,0,0"
    assert lines[3].startswith("1,5/3,1.666666666666666")
    assert lines[5].startswith("3,245/27,")
    assert "# eigenvectors U[site, k]" in lines
    residual = float(lines[-1].rsplit(" ", 1)[1])
    assert residual < 1e-12


def test_spectrum_single_site(tmp_path, capsys):
    path = spec_file(tmp_path, N=0, q={"num": 3, "den": 1}, params={"p": "1/2"})
    code, out, _ = run(capsys, ["spectrum", path])
    assert code == 0
    assert "0,0,0" in out.splitlines()
    assert "1" in out.splitlines()


def test_evolve_exact_pi_times(tmp_path, capsys):
    path = spec_file(tmp_path)
    code, out, err = run(
        capsys, ["evolve", path, "-r", "3", "-s", "0", "--times", "27pi", "54pi"]
    )
    assert code == 0
    assert err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert float(rows[0][0]) == pytest.approx(27 * math.pi, rel=1e-16)
    assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[1][3]) == pytest.approx(0.0, abs=1e-12)


def test_evolve_builds_u_and_spectrum_once(tmp_path, capsys, monkeypatch):
    built = {"U": 0, "spectrum": 0}
    orthonormal_matrix, eigenvalues = families.orthonormal_matrix, families.eigenvalues

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            built[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(families, "orthonormal_matrix", counted("U", orthonormal_matrix))
    monkeypatch.setattr(families, "eigenvalues", counted("spectrum", eigenvalues))
    code, out, _ = run(
        capsys, ["evolve", spec_file(tmp_path), "-r", "3", "-s", "0",
                 "--times", "27pi", "54pi", "9/5pi"]
    )
    assert code == 0 and len(out.splitlines()) == 4
    assert built == {"U": 1, "spectrum": 1}


@pytest.mark.parametrize("argv, derivations", [
    pytest.param(argv, derivations, id=argv[0]) for argv, derivations in (
        (["build"], 1),
        (["spectrum"], 1),
        (["evolve", "-r", "3", "-s", "0", "--times", "27pi", "0.5"], 1),
        (["pst-check"], 1),
        (["closed-form", "-r", "3", "-s", "0"], 1),
        # one per grid value
        (["scan", "--param", "p", "--values", "1/27", "1", "5"], 3),
    )
])
def test_each_command_derives_the_record_once(argv, derivations, tmp_path, capsys,
                                              monkeypatch):
    # the validated record feeds the chain, the spectrum, U and the
    # transfer report
    records = []
    derive = families.orthogonality_data

    def counted(spec):
        records.append(spec)
        return derive(spec)

    monkeypatch.setattr(families, "orthogonality_data", counted)
    code, _, _ = run(capsys, [argv[0], spec_file(tmp_path), *argv[1:]])
    assert code == 0
    assert len(records) == derivations


def test_evolve_decimal_time_flagged(tmp_path, capsys):
    code, out, err = run(
        capsys, ["evolve", spec_file(tmp_path), "-r", "3", "-s", "0", "--times", "1.5"]
    )
    assert code == 0
    assert "inexact" in err
    assert out.splitlines()[1].startswith("1.5,")


def test_evolve_time_bound(tmp_path, capsys):
    code, _, err = run(
        capsys, ["evolve", spec_file(tmp_path), "-r", "3", "-s", "0", "--times", "1e9"]
    )
    assert code == 4
    assert "exceeds" in err


def test_evolve_grid(tmp_path, capsys):
    code, out, _ = run(
        capsys, ["evolve", spec_file(tmp_path), "-r", "3", "-s", "0", "--grid", "0", "2", "3"]
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 3
    assert [float(r.split(",")[0]) for r in rows] == [0.0, 1.0, 2.0]


def test_evolve_sign_twist(tmp_path, capsys):
    pos = spec_file(tmp_path, sign="pos")
    code, out, _ = run(capsys, ["evolve", pos, "-r", "3", "-s", "0", "--times", "27pi"])
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(-1.0, abs=1e-12)
    assert float(row[3]) == pytest.approx(1.0, abs=1e-12)
    # decimal and pi-multiple times, of the family spec and of its explicit
    # chain, are all twisted once: f_{3,0}(t) = exp(-i t M)[3, 0] for the
    # positive-convention matrix M
    built = families.recurrence_coefficients(
        families.q_krawtchouk(3, Fraction(3, 5), Fraction(125, 27)))
    explicit = write_spec(tmp_path, {
        "family": "chain", "N": 3, "sign": "pos",
        "params": {"J": built.couplings.tolist(), "h": built.fields.tolist()},
    }, "chain.json")
    eps, V = np.linalg.eigh(chain.assemble_matrix(built, chain.SignConvention.POSITIVE))
    expected = np.sum(V[3] * V[0] * np.exp(-0.5j * eps))
    for path in (pos, explicit):
        code, out, _ = run(capsys, ["evolve", path, "-r", "3", "-s", "0", "--times",
                                    "0.5", "1/2pi", "1.5707963267948966"])
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        assert complex(rows[0][1], rows[0][2]) == pytest.approx(expected, abs=1e-12)
        assert rows[1][1:] == pytest.approx(rows[2][1:], abs=1e-12)


def test_evolve_builds_u_once_for_mixed_times(tmp_path, capsys, monkeypatch):
    # the decimal time reuses the exact spectrum and U of the pi-multiples
    builds = []
    build = families.orthonormal_matrix

    def counted(data):
        builds.append(data)
        return build(data)

    monkeypatch.setattr(families, "orthonormal_matrix", counted)
    code, out, _ = run(capsys, ["evolve", spec_file(tmp_path), "-r", "3", "-s", "0",
                                "--times", "27pi", "1.5", "54pi", "9/5pi"])
    assert code == 0
    assert len(builds) == 1
    spec = families.q_krawtchouk(3, Fraction(3, 5), Fraction(125, 27))
    amp = evolve.correlation(
        chain.analytic_decomposition(families.orthogonality_data(spec)), 3, 0, 1.5)
    assert [float(v) for v in out.splitlines()[2].split(",")[1:3]] == [amp.re, amp.im]


def test_evolve_runs_a_float_parameter_on_its_exact_twin(capsys, monkeypatch):
    # a rational q with a float parameter: pi-multiple and decimal times
    # share the exact twin's one U, so the output is the twin's byte for byte
    builds = []
    build = families.orthonormal_matrix

    def counted(data):
        builds.append(data)
        return build(data)

    monkeypatch.setattr(families, "orthonormal_matrix", counted)
    specs = Path(__file__).parent / "golden" / "specs"
    argv = ["-r", "3", "-s", "0", "--times", "1pi", "0.5", "1.0"]
    code, out, _ = run(capsys, ["evolve", str(specs / "q-racah-float.json"), *argv])
    assert code == 0 and len(builds) == 1
    assert (code, out) == run(capsys, ["evolve", str(specs / "q-racah.json"), *argv])[:2]


def pst80_spec_file(tmp_path):
    """The exact pst_spec(3/5, 80): q-Krawtchouk at q = 3/5, p = (5/3)**80,
    a graded chain whose couplings span 17 decades."""
    p = Fraction(5, 3) ** 80
    return spec_file(tmp_path, N=80, params={"p": f"{p.numerator}/{p.denominator}"})


def assert_pst80_reconstructs(out):
    # the spectrum's residual within 1e-9 of the largest entry, 8.7e17
    pst80 = families.recurrence_coefficients(families.pst_spec(RationalQ(3, 5), 80))
    residual = float(out.splitlines()[-1].split(": ")[1])
    assert residual <= 1e-9 * np.max(np.abs(chain.assemble_matrix(pst80)))


@pytest.mark.parametrize("command", [["spectrum"], ["evolve", "-r", "0", "-s", "80",
                                                    "--times", "0.5"]])
def test_ql_non_convergence_exits_numerical(tmp_path, capsys, monkeypatch, command):
    # the graded q-Krawtchouk chain at q = 3/5, N = 80, built as an
    # explicit chain, answers; an eigensolver that does not converge is a
    # failed numerical check, not a crash
    built = str(tmp_path / "chain80.json")
    assert cli.main(["build", pst80_spec_file(tmp_path), "--format", "json", "-o", built]) == 0
    code, out, _ = run(capsys, [command[0], built, *command[1:]])
    assert code == 0
    if command[0] == "spectrum":
        assert_pst80_reconstructs(out)
    else:
        assert float(out.splitlines()[1].split(",")[3]) <= 1 + 1e-9

    def diverges(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", diverges)
    code, out, err = run(capsys, [command[0], built, *command[1:]])
    assert (code, out) == (cli.EXIT_NUMERICAL, "")
    assert err.splitlines()[-1] == "numerical check failed: Eigenvalues did not converge"


def test_spectrum_checks_a_graded_family_spec(tmp_path, capsys):
    # the analytic route's eigenvalues are checked against the numeric
    # decomposition, which must converge on the graded N = 80 chain too
    code, out, _ = run(capsys, ["spectrum", pst80_spec_file(tmp_path)])
    assert code == 0
    assert_pst80_reconstructs(out)


def test_pst_check_perfect(tmp_path, capsys):
    code, out, _ = run(capsys, ["pst-check", spec_file(tmp_path)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "spec: q-krawtchouk(N=3, q=3/5, p=125/27)"
    assert any(line.startswith("classification: odd/odd") for line in lines)
    assert "T = 27*pi" in lines
    assert "0,0,yes,yes" in lines
    assert "3,245,yes,yes" in lines
    assert lines[-1] == "verdict: Perfect"


def test_pst_check_imperfect(tmp_path, capsys):
    path = spec_file(
        tmp_path,
        family="affine-q-krawtchouk",
        N=2,
        q={"num": 3, "den": 1},
        params={"p": "1/54"},
    )
    code, out, _ = run(capsys, ["pst-check", path])
    assert code == 1
    assert out.splitlines()[-1] == "verdict: Imperfect"
    assert "T = 9*pi" in out.splitlines()


def test_pst_check_even_q(tmp_path, capsys):
    path = spec_file(tmp_path, N=2, q={"num": 1, "den": 2}, params={"p": 4})
    code, _, err = run(capsys, ["pst-check", path])
    assert code == 5
    assert "odd/odd" in err


def test_closed_form_value(tmp_path, capsys):
    path = spec_file(
        tmp_path,
        family="quantum-q-krawtchouk",
        N=1,
        q={"num": 3, "den": 1},
        params={"p": 1},
    )
    code, out, _ = run(capsys, ["closed-form", path, "-r", "1", "-s", "0"])
    assert code == 0
    lines = out.splitlines()
    assert "T = 3*pi" in lines
    assert "value = 0.94280904158206336" in lines  # 2*sqrt(2)/3, correctly rounded
    assert "method = closed-form" in lines
    residual = [l for l in lines if l.startswith("residual_vs_direct")][0]
    assert float(residual.split(" = ")[1]) < 1e-9


def test_closed_form_phase_condition(tmp_path, capsys):
    path = spec_file(
        tmp_path,
        family="dual-q-hahn",
        q={"num": 1, "den": 3},
        params={"gamma": "1/5", "delta": "3/7"},
    )
    code, _, err = run(capsys, ["closed-form", path, "-r", "3", "-s", "0"])
    assert code == 6
    assert "phase condition" in err


def test_scan_values(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["scan", spec_file(tmp_path), "--param", "p", "--values", "125/27", "1", "5"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,abs_f_N0"
    assert lines[1].startswith("125/27,")
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-12)
    assert lines[-1].startswith("# max |f_N0| = ")
    assert lines[-1].endswith("at p = 125/27")


def test_scan_log_grid(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["scan", spec_file(tmp_path), "--param", "p", "--grid", "1/27", "125/9", "5", "--log"],
    )
    assert code == 0
    rows = out.splitlines()[1:-1]
    assert len(rows) == 5
    values = [float(r.split(",")[0]) for r in rows]
    assert values[0] == pytest.approx(1 / 27, rel=1e-12)
    assert values[-1] == pytest.approx(125 / 9, rel=1e-12)
    ratios = [b / a for a, b in zip(values, values[1:])]
    assert ratios == pytest.approx([ratios[0]] * 4, rel=1e-9)


@pytest.mark.parametrize("count, values", [("0", None), ("-1", None), ("1", [1 / 27])])
def test_scan_log_grid_counts(count, values, tmp_path, capsys):
    # a log grid of no point is refused; a one-point grid is its start
    code, out, err = run(capsys, ["scan", spec_file(tmp_path), "--param", "p",
                                  "--grid", "1/27", "125/9", count, "--log"])
    if values is None:
        assert (code, out, err) == (2, "", "parse error: empty grid: count must be positive\n")
    else:
        assert code == 0
        assert [float(row.split(",")[0]) for row in out.splitlines()[1:-1]] == values


def test_scan_empty_grid(tmp_path, capsys):
    code, _, err = run(
        capsys, ["scan", spec_file(tmp_path), "--param", "p", "--grid", "1", "2", "0"]
    )
    assert code == 2
    assert "empty grid" in err


def test_scan_unknown_parameter(tmp_path, capsys):
    code, _, err = run(capsys, ["scan", spec_file(tmp_path), "--param", "z", "--values", "1"])
    assert code == 2
    assert "no parameter 'z'" in err


def test_parse_errors_are_collected(tmp_path, capsys):
    path = write_spec(
        tmp_path, {"family": "nope", "N": -2, "params": {"p": 1}, "sign": "maybe"}
    )
    code, _, err = run(capsys, ["build", path])
    assert code == 2
    assert "unknown tag 'nope'" in err
    assert "sign" in err
    assert "N" in err
    assert "q: required" in err


@pytest.mark.parametrize("text", ["nan", "inf", "+inf", "Infinity"])
def test_non_finite_times_and_grid_values_are_parse_errors(tmp_path, capsys, text):
    path = spec_file(tmp_path)
    for argv, where in (
        (["scan", path, "--param", "p", "--values", text], "grid value"),
        (["scan", path, "--param", "p", "--grid", "1", text, "3", "--log"], "grid value"),
        (["evolve", path, "-r", "3", "-s", "0", "--times", text], "time"),
        (["evolve", path, "-r", "3", "-s", "0", "--grid", "0", text, "3"], "grid value"),
    ):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"{where}: expected a finite number, got {text!r}" in err


_BEYOND = "1" * 401


@pytest.mark.parametrize("data, argv, first", [
    (PST, ["evolve", "-r", "0", "-s", "0", "--times", "1/0pi"],
     "parse error: cannot read time '1/0pi'; use a pi multiple like 9pi or 3/2pi, "
     "or a decimal number of seconds"),
    (PST, ["evolve", "-r", "0", "-s", "0", "--times", _BEYOND + "pi"],
     f"parse error: time: '{_BEYOND}pi' lies beyond the double range"),
    (PST, ["evolve", "-r", "2", "-s", "0", "--grid", "0", "1e400", "3"],
     "parse error: grid value: '1e400' lies beyond the double range"),
    (PST, ["scan", "--param", "p", "--grid", "1", "1e400", "3", "--log"],
     "parse error: grid value: '1e400' lies beyond the double range"),
    ({"family": "chain", "params": {"J": [int(_BEYOND)], "h": [0, 0]}}, ["build"],
     f"parse error: params.J[0]: {_BEYOND} lies beyond the double range"),
    ({"family": "chain", "params": {"J": [1], "h": [f"{_BEYOND}/3", 0]}}, ["spectrum"],
     f"parse error: params.h[0]: '{_BEYOND}/3' lies beyond the double range"),
], ids=["time-over-zero", "time", "evolve-grid", "scan-log-grid", "build-chain", "spectrum-chain"])
def test_values_beyond_the_double_range_are_parse_errors(tmp_path, capsys, data, argv, first):
    # a pi multiple needs a nonzero denominator and a value read as a
    # double must fit one: both are parse errors naming the value
    path = write_spec(tmp_path, data)
    code, out, err = run(capsys, [argv[0], path] + argv[1:])
    assert (code, out) == (2, "")
    assert err.splitlines() == [first]


_EVOLVE = ["evolve", "-r", "3", "-s", "0"]
_SCAN = ["scan", "--param", "p"]


@pytest.mark.parametrize("data, argv, code, first", [
    ([1, 2], ["build"], 2, "parse error: spec file must be a JSON object"),
    (dict(PST, extra=1), ["build"], 2, "parse error: unknown key 'extra'"),
    (dict(PST, family=3), ["build"], 2, "parse error: family: required string tag"),
    (dict(PST, params=[1]), ["build"], 2,
     "parse error: params: required object; params.p: required for q-krawtchouk"),
    ({"family": "chain", "N": 5, "params": {"J": [1], "h": [0, 0], "x": 1}}, ["build"], 2,
     "parse error: params.x: explicit chains take only J and h; "
     "N = 5 disagrees with 1 couplings"),
    ({"family": "chain", "params": {"J": 1, "h": [0, 0]}}, ["build"], 2,
     "parse error: params.J: expected a list of numbers"),
    (dict(PST, family="q-hahn", params={"alpha": "1/2"}), ["build"], 2,
     "parse error: params.beta: required for q-hahn"),
    (dict(PST, params={"p": {"num": 1.5, "den": 2}}), ["build"], 2,
     "parse error: params.p: num and den must be integers"),
    (dict(PST, params={"p": [1]}), ["build"], 2,
     "parse error: params.p: expected a number, got [1]"),
    (PST, _EVOLVE + ["--grid", "0", "1", "x"], 2,
     "parse error: grid count must be an integer, got 'x'"),
    (PST, _EVOLVE + ["--grid", "abc", "1", "3"], 2, "parse error: cannot read grid value 'abc'"),
    (PST, _EVOLVE + ["--times"], 2, "parse error: empty grid: give at least one time"),
    (PST, _SCAN + ["--values"], 2, "parse error: empty grid: give at least one value"),
    (PST, _SCAN + ["--grid", "0", "1", "3", "--log"], 2,
     "parse error: log-spaced grids need positive endpoints"),
    (PST, _EVOLVE + ["--grid", "0", "1", "0"], 2, "parse error: empty grid: count must be positive"),
    (PST, _EVOLVE + ["--times", "1xpi"], 2,
     "parse error: cannot read time '1xpi'; use a pi multiple like 9pi or 3/2pi, "
     "or a decimal number of seconds"),
    ({"family": "chain", "params": {"J": [0], "h": [0, 0]}}, ["build"], 3,
     "validation failed: chain: couplings must be strictly positive"),
    ({"family": "chain", "params": {"J": [], "h": []}}, ["build"], 3,
     "validation failed: chain: need len(fields) == len(couplings) + 1"),
    (PST, _EVOLVE + ["--grid", "0", "1", "1"], 0,
     "floating times run through inexact trigonometric phases"),
    (PST, _EVOLVE + ["--grid", "0", "0.5", "3"], 0,
     "floating times run through inexact trigonometric phases"),
])
def test_spec_and_argument_errors(tmp_path, capsys, data, argv, code, first):
    path = write_spec(tmp_path, data)
    got, out, err = run(capsys, [argv[0], path] + argv[1:])
    assert got == code
    assert err.splitlines()[0] == first
    assert bool(out) == (code == 0)


def test_validation_exit_code(tmp_path, capsys):
    path = spec_file(tmp_path, N=2, q={"num": 3, "den": 1}, params={"p": "-1/9"})
    code, _, err = run(capsys, ["build", path])
    assert code == 3
    assert "validation failed" in err


@pytest.mark.parametrize("argv, message", [
    (["evolve", "-r", "9", "-s", "0", "--times", "1pi"], "r = 9 outside sites 0..3"),
    (["evolve", "-r", "3", "-s", "0", "--times", "nan"],
     "time: expected a finite number, got 'nan'"),
    (["closed-form", "-r", "9", "-s", "0"], "r = 9 outside sites 0..3"),
    (["scan", "--param", "p", "--values", "nan"],
     "grid value: expected a finite number, got 'nan'"),
], ids=["evolve-site", "evolve-time", "closed-form-site", "scan-value"])
def test_argument_errors_come_before_validation(argv, message, tmp_path, capsys):
    # every command reads all of its arguments before it derives a
    # record, so a bad argument exits 2 even when the spec is invalid
    path = spec_file(tmp_path, params={"p": "-1/9"})
    assert run(capsys, [argv[0], path, *argv[1:]]) == (2, "", f"parse error: {message}\n")


# a rational q with float parameters: the window refuses alpha = -0.6,
# and the exact twin of alpha = 5.1 has mixed signs
@pytest.mark.parametrize("alpha, violation", [
    (-0.6, "alpha must be positive, got -0.6"),
    (5.1, "orthogonality data has mixed signs: J_0**2 <= 0"),
], ids=["window", "mixed-signs"])
@pytest.mark.parametrize("argv", [
    ["build"], ["spectrum"], ["pst-check"], ["closed-form", "-r", "3", "-s", "0"],
    ["evolve", "-r", "3", "-s", "0", "--times", "1pi"], ["scan", "--param", "beta"],
], ids=lambda argv: argv[0])
def test_a_refused_float_parameter_spec_is_named_as_given(alpha, violation, argv, tmp_path,
                                                          capsys):
    # commands that compute on the exact twin still name the spec file's
    # floats, as build and spectrum do
    path = spec_file(tmp_path, q="1/3", family="q-hahn", params={"alpha": alpha, "beta": 1.25})
    if argv[0] == "scan":
        argv = argv + ["--values", "1.25"]  # a grid value parses exact: beta = 5/4
    spec = f"q-hahn(N=3, q=1/3, alpha={alpha}, beta={'5/4' if argv[0] == 'scan' else 1.25})"
    code, out, err = run(capsys, [argv[0], path, *argv[1:]])
    assert (code, out) == (3, "")
    assert err == f"validation failed: {spec}: {violation}\n"


def test_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, ["build", str(tmp_path / "absent.json")])
    assert code == 2
    assert err


def test_output_file_deterministic(tmp_path, capsys):
    path = spec_file(tmp_path)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main(["spectrum", path, "-o", str(first)]) == 0
    assert cli.main(["spectrum", path, "-o", str(second)]) == 0
    capsys.readouterr()
    a = first.read_bytes()
    assert a == second.read_bytes()
    assert a.endswith(b"\n")
    assert b"\r" not in a


def test_stdout_deterministic(tmp_path, capsys):
    path = spec_file(tmp_path)
    _, out_one, _ = run(capsys, ["pst-check", path])
    _, out_two, _ = run(capsys, ["pst-check", path])
    assert out_one == out_two


def test_negative_fraction_values(tmp_path, capsys):
    path = spec_file(
        tmp_path,
        family="dual-q-krawtchouk",
        N=2,
        q={"num": 1, "den": 3},
        params={"c": "-4"},
    )
    code, out, _ = run(capsys, ["scan", path, "--param", "c", "--values", "-4", "-1/2"])
    assert code == 0
    assert out.splitlines()[1].startswith("-4,")
    assert out.splitlines()[2].startswith("-1/2,")


def test_family_tags_come_from_the_family_table():
    tags = sorted(family.value for family in families.FAMILIES)
    with pytest.raises(cli.SpecParseError) as err:
        cli.parse_spec_data({"family": "nope", "N": 1, "q": 3, "params": {}})
    assert str(err.value) == (
        "family: unknown tag 'nope'; expected one of " + ", ".join(tags + ["chain"])
    )
    for tag in tags:
        names = families.FAMILIES[families.Family(tag)].params
        parsed = cli.parse_spec_data(
            {"family": tag, "N": 1, "q": "1/3", "params": {name: "1/2" for name in names}}
        )
        assert parsed.spec.family.value == tag
        assert parsed.spec.params == tuple((name, Fraction(1, 2)) for name in names)


def test_runtime_dependency_is_numpy_alone():
    # site hooks may load third-party modules before any import of ours,
    # so only the modules the import itself adds are counted
    code = ("import sys; before = set(sys.modules); import qchain, qchain.cli; "
            "added = {name.partition('.')[0] for name in set(sys.modules) - before}; "
            "print(sorted(added - set(sys.stdlib_module_names) - {'numpy', 'qchain'}))")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
