"""End-to-end command-line behavior: formats, exit codes, determinism."""

import json
import re

import numpy as np
import pytest

from restrictlab.cli import main
from restrictlab.fourier import Signal2D, signal_to_json
from restrictlab.zmod import make_ring

WALLTIME = re.compile(r"walltime_s=[0-9.]+")


def normalized(path):
    return WALLTIME.sub("walltime_s=X", path.read_text())


def rows_of(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_energy_known_row(tmp_path):
    out = tmp_path / "energy.csv"
    assert main(["energy", "--n", "15", "--output", str(out)]) == 0
    header, rows = rows_of(out)
    assert header == ["N", "omega", "subset_size", "energy", "bound", "max_rep"]
    assert rows == [["15", "2", "15", "675", "900", "4"]]
    assert path_has_metadata(out)


def path_has_metadata(path):
    last = path.read_text().rstrip("\n").splitlines()[-1]
    return last.startswith("# seed=") and "version=" in last and "walltime_s=" in last


def test_energy_range_and_filter(tmp_path):
    out = tmp_path / "energy.csv"
    assert main(["energy", "--n", "3..9", "--squarefree-only", "--output", str(out)]) == 0
    _, rows = rows_of(out)
    assert [row[0] for row in rows] == ["3", "5", "6", "7"]


def test_restrict_verify_row_count(tmp_path):
    out = tmp_path / "verify.csv"
    code = main(
        ["restrict-verify", "--n", "15", "--trials", "1000", "--seed", "7", "--output", str(out)]
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == [
        "N",
        "omega",
        "squarefree",
        "r",
        "lhs",
        "rhs",
        "ratio",
        "constant",
        "satisfied",
        "witness_kind",
    ]
    assert len(rows) == 1000
    assert all(row[8] == "true" for row in rows)


def test_decay_csv(tmp_path):
    out = tmp_path / "decay.csv"
    assert main(["decay", "--n", "5", "35", "--output", str(out)]) == 0
    _, rows = rows_of(out)
    assert rows[0][0] == "5" and rows[0][4] == "1"
    assert rows[1][0] == "35"
    assert abs(float(rows[1][4]) - 7**0.5) < 1e-9


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--n", "15", "--sizes", "2..4", "--trials", "5", "--seed", "1", "--output", str(out)]
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == [
        "N",
        "S_size",
        "E_size",
        "trials",
        "exact_rate",
        "mean_iterations",
        "ds_threshold",
        "improved_threshold",
    ]
    assert [row[2] for row in rows] == ["2", "3", "4"]
    assert all(row[6] == "7.5" for row in rows)


def test_gated_commands_reject_square_factor(tmp_path):
    for command in ["restrict-verify", "dual-verify", "certificate", "uncertainty"]:
        assert main([command, "--n", "12", "--output", str(tmp_path / "x.csv")]) == 2


def test_squarefree_filter_unblocks_grid(tmp_path):
    out = tmp_path / "cert.csv"
    code = main(["certificate", "--n", "12", "15", "--squarefree-only", "--output", str(out)])
    assert code == 0
    _, rows = rows_of(out)
    assert [row[0] for row in rows] == ["15"]


def test_sharpness_allows_square_factor(tmp_path):
    out = tmp_path / "probe.csv"
    code = main(
        ["sharpness", "--n", "25", "--trials", "5", "--seed", "0", "--output", str(out)]
    )
    assert code == 0
    _, rows = rows_of(out)
    ratios = {row[3]: float(row[6]) for row in rows}
    assert abs(ratios[format(4 / 3, ".12g")] - 5**0.25) < 1e-9


def test_usage_errors():
    assert main(["energy", "--n", "5..x"]) == 2
    assert main(["energy", "--n", "1"]) == 2
    assert main(["energy", "--n", "15", "--seed", "-3"]) == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["sweep", "--n", "15", "--sizes", "abc"]) == 2
    assert main(["recover", "--n", "15"]) == 2
    assert main(["recover", "--n", "15", "10", "--sizes", "3"]) == 2


def test_uncertainty_csv(tmp_path):
    out = tmp_path / "unc.csv"
    code = main(
        ["uncertainty", "--n", "6", "--trials", "500", "--seed", "2", "--output", str(out)]
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["N", "omega", "max_support", "method", "supports_checked", "found", "min_margin"]
    assert rows[0][2] == "8"
    assert rows[0][5] == "false"


def test_recover_random_instance(tmp_path):
    out = tmp_path / "rec.csv"
    code = main(
        ["recover", "--n", "15", "--sizes", "5", "--seed", "4", "--output", str(out)]
    )
    assert code == 0
    _, rows = rows_of(out)
    assert rows[0][6] == "true"
    assert rows[0][7] == "converged"


def test_recover_from_signal_file(tmp_path):
    ring = make_ring(7)
    vals = np.zeros((7, 7), dtype=np.complex128)
    vals[1, 4] = 3.0
    vals[6, 2] = 1.0 - 2.0j
    sig = tmp_path / "sig.json"
    sig.write_text(signal_to_json(Signal2D(ring, vals)))
    out = tmp_path / "rec.json"
    code = main(
        ["recover", "--n", "7", "--input", str(sig), "--format", "json", "--output", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["n"] == 7
    assert data["exact"] is True
    assert len(data["missing"]) == 7
    grid = np.array([complex(a, b) for a, b in data["values"]]).reshape(7, 7)
    assert np.abs(grid - vals).max() < 1e-6


def test_recover_rejects_modulus_mismatch(tmp_path):
    ring = make_ring(5)
    sig = tmp_path / "sig.json"
    sig.write_text(signal_to_json(Signal2D(ring, np.zeros((5, 5)))))
    assert main(["recover", "--n", "7", "--input", str(sig)]) == 2


def test_summarize_flags_injected_violation(tmp_path):
    ok = tmp_path / "ok.csv"
    assert main(["restrict-verify", "--n", "6", "--trials", "4", "--output", str(ok)]) == 0
    assert main(["summarize", str(ok), "--output", str(tmp_path / "sum.csv")]) == 0

    bad = tmp_path / "bad.csv"
    lines = ok.read_text().splitlines()
    forged = lines[1].split(",")
    forged[8] = "false"
    lines.insert(2, ",".join(forged))
    bad.write_text("\n".join(lines) + "\n")
    assert main(["summarize", str(bad), "--output", str(tmp_path / "sum2.csv")]) == 1


def test_summarize_schema_mismatch(tmp_path):
    verify = tmp_path / "verify.csv"
    energy = tmp_path / "energy.csv"
    assert main(["restrict-verify", "--n", "6", "--trials", "2", "--output", str(verify)]) == 0
    assert main(["energy", "--n", "6", "--output", str(energy)]) == 0
    assert main(["summarize", str(verify), str(energy)]) == 2
    assert main(["summarize", str(tmp_path / "missing.csv")]) == 2


def test_summarize_empty_input(tmp_path):
    out = tmp_path / "sum.csv"
    assert main(["summarize", "--output", str(out)]) == 0
    _, rows = rows_of(out)
    assert rows == []


def test_summarize_aggregates_by_modulus(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["restrict-verify", "--n", "6", "15", "--trials", "3", "--output", str(a)]) == 0
    assert main(["dual-verify", "--n", "15", "--trials", "3", "--output", str(b)]) == 0
    out = tmp_path / "sum.csv"
    assert main(["summarize", str(a), str(b), "--output", str(out)]) == 0
    header, rows = rows_of(out)
    assert header == ["N", "rows", "max_ratio", "satisfied"]
    assert [row[0] for row in rows] == ["6", "15"]
    assert [row[1] for row in rows] == ["3", "6"]


def test_csv_rerun_identical_up_to_walltime(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["restrict-verify", "--n", "15", "--trials", "40", "--seed", "9"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert normalized(a) == normalized(b)


def test_json_rerun_identical_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["dual-verify", "--n", "15", "--trials", "10", "--seed", "3", "--format", "json"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_thread_count_does_not_change_sweep_output(tmp_path, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", "--n", "15", "--sizes", "2..5", "--trials", "6", "--seed", "3"]
    monkeypatch.setenv("RESTRICTLAB_THREADS", "1")
    assert main(args + ["--output", str(a)]) == 0
    monkeypatch.setenv("RESTRICTLAB_THREADS", "4")
    assert main(args + ["--output", str(b)]) == 0
    assert normalized(a) == normalized(b)


def test_bad_thread_env(monkeypatch, tmp_path):
    monkeypatch.setenv("RESTRICTLAB_THREADS", "zero")
    args = ["sweep", "--n", "15", "--sizes", "2", "--trials", "1", "--output", str(tmp_path / "x.csv")]
    assert main(args) == 2
    monkeypatch.setenv("RESTRICTLAB_THREADS", "0")
    assert main(args) == 2


def test_version_flag_exits_cleanly(capsys):
    assert main(["--version"]) == 0
    captured = capsys.readouterr()
    assert "0.1.0" in captured.out


def test_stdout_when_no_output_file(capsys):
    assert main(["energy", "--n", "6"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("N,omega,")
    assert "120" in captured.out


def test_unreadable_input_and_unwritable_output_are_usage_errors(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    assert main(["recover", "--n", "15", "--input", str(missing / "signal.json")]) == 2
    assert main(["energy", "--n", "6", "--output", str(missing / "x.csv")]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2 and all(line.startswith("error: ") for line in errors)
    assert not missing.exists()


def test_restrict_verify_at_six_fifths(tmp_path):
    out = tmp_path / "verify.csv"
    assert main(["restrict-verify", "--n", "15", "--r", "6/5", "--trials", "50", "--output", str(out)]) == 0
    header, rows = rows_of(out)
    assert rows
    column = {name: [row[header.index(name)] for row in rows] for name in ("r", "constant", "satisfied")}
    assert set(column["r"]) == {"1.2"}
    assert set(column["constant"]) == {""}
    assert set(column["satisfied"]) == {"true"}


def test_recover_rejects_non_finite_input(tmp_path, capsys):
    for bad in ("NaN", "Infinity"):
        sig = tmp_path / "sig.json"
        sig.write_text('{"n": 3, "values": [' + "[0.0, 0.0], " * 8 + "[" + bad + ", 0.0]]}")
        assert main(["recover", "--n", "3", "--input", str(sig)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ")


def test_recover_rejects_malformed_pairs(tmp_path):
    for pair in ([1.0], [1.0, 2.0, 3.0], ["x", 0.0]):
        sig = tmp_path / "sig.json"
        sig.write_text(json.dumps({"n": 3, "values": [[0.0, 0.0]] * 8 + [pair]}))
        assert main(["recover", "--n", "3", "--input", str(sig)]) == 2


def test_uncertainty_without_random_draws_is_a_usage_error(capsys):
    for trials in ("0", "-5"):
        args = ["uncertainty", "--n", "15", "--max-support", "56", "--trials", trials]
        assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "found" not in captured.err


@pytest.mark.parametrize("max_support", ["0", "-3"])
def test_uncertainty_max_support_below_one_is_a_usage_error(max_support, capsys):
    # the zone at N=15 holds sizes 1 to 56, so the error names the argument, not the zone
    assert main(["uncertainty", "--n", "15", "--max-support", max_support, "--trials", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: ") and "max_support" in errors[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["recover", "--n", "15", "--sizes", "3", "--max-iterations", "0"],
        ["sweep", "--n", "15", "--sizes", "3", "--trials", "2", "--max-iterations", "-5"],
    ],
)
def test_nonpositive_max_iterations_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert "max_iterations" in captured.err


@pytest.mark.parametrize("row", ["15,0.7", "15,abc,true"])
def test_summarize_rejects_a_malformed_data_row(row, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"N,ratio,satisfied\n{row}\n")
    assert main(["summarize", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(bad) in captured.err
