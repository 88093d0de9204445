"""The layer fingerprint tool runs and covers every layer."""

import fingerprint


def test_fingerprint_runs_on_a_few_specs(capsys):
    specs = fingerprint.draw_specs(draws=1, max_n=2)
    assert len(specs) == 2 * 2 * 7
    assert {spec.family for spec in specs} == set(fingerprint.Family)
    assert sum(spec.is_exact for spec in specs) == len(specs) // 2
    layers = fingerprint.fingerprints(specs)
    assert tuple(layers) == fingerprint.LAYERS
    assert layers["table"][1] == layers["U"][1] == len(specs)
    assert layers["closed_form"][1] == 2 * len(specs)
    # the float twins raise at least in the exact-only transfer report
    assert layers["errors"][1] >= len(specs) // 2
    assert fingerprint.fingerprints(specs) == layers

    fingerprint.main(["--draws", "1", "--max-n", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"specs {len(specs)}"
    assert lines[1:] == [f"{name} {digest} {count}" for name, (digest, count) in layers.items()]


def test_compare_reports_the_layers_that_moved(tmp_path, capsys):
    argv = ["--draws", "1", "--max-n", "2"]
    assert fingerprint.main(argv) == 0
    saved = capsys.readouterr().out
    path = tmp_path / "old.txt"
    path.write_text(saved)
    assert fingerprint.main(argv + ["--compare", str(path)]) == 0
    assert capsys.readouterr().out == ""

    lines = saved.splitlines()
    name, digest, count = lines[1].split()
    lines[1] = f"{name} {'0' * len(digest)} {count}"
    path.write_text("\n".join(lines) + "\n")
    assert fingerprint.main(argv + ["--compare", str(path)]) == 1
    assert capsys.readouterr().out == f"differs {name}\n"
