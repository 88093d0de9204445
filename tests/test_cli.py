"""Command-line interface contract: formats, exit codes, determinism."""

import json
import math
from fractions import Fraction

import pytest

from qchain import cli, families

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
    assert "value = 0.94280904158206325" in lines
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


def test_validation_exit_code(tmp_path, capsys):
    path = spec_file(tmp_path, N=2, q={"num": 3, "den": 1}, params={"p": "-1/9"})
    code, _, err = run(capsys, ["build", path])
    assert code == 3
    assert "validation failed" in err


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
