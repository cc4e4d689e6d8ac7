"""End-to-end command-line behavior: formats, exit codes, determinism."""

import json
import re
import time
import tracemalloc

import numpy as np
import pytest

from restrictlab import cli, fourier, parabola, restriction
from restrictlab.cli import main
from restrictlab.families import structured_coefficients, structured_values
from restrictlab.fourier import Signal2D, _dft_matrix, _idft_matrix, signal_to_json
from restrictlab.parabola import _pair_classes, build_parabola
from restrictlab.restriction import (
    RestrictionParams,
    _square_columns,
    verify_dual,
    verify_main_theorem,
    verify_restriction,
)
from restrictlab.rng import spawn_rng
from restrictlab.zmod import make_ring
from test_restriction import _assert_near_dense, _unchunked_quantities

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


@pytest.mark.parametrize(("n", "ds", "improved"), [(15, "7.5", "14.0625"), (30, "15", "28.125")])
def test_recover_and_sweep_report_the_same_lines(n, ds, improved, tmp_path):
    lines = ["ds_threshold", "improved_threshold"]
    for argv in (["recover", "--sizes", "3"], ["sweep", "--sizes", "3", "--trials", "1"]):
        out = tmp_path / f"{argv[0]}.csv"
        assert main(argv + ["--n", str(n), "--output", str(out)]) == 0
        header, rows = rows_of(out)
        assert [rows[0][header.index(column)] for column in lines] == [ds, improved]


def test_support_size_outside_one_to_n_squared_is_a_usage_error(capsys):
    # both commands check the size before the sampler or the solver sees it
    for argv in (
        ["recover", "--sizes", "0"],
        ["recover", "--sizes", "226"],
        ["sweep", "--sizes", "0", "--trials", "1"],
        ["sweep", "--sizes", "0", "--trials", "0"],
    ):
        assert main(argv + ["--n", "15"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: support size must be in [1, 225], got {argv[2]}\n"


def test_sweep_with_no_size_left_is_a_usage_error(tmp_path, capsys):
    assert main(["sweep", "--n", "3", "--sizes", "10", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no support sizes left after dropping those above N^2\n"
    # a size that fits one of several moduli is still dropped only where it does not fit
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "3", "15", "--sizes", "10", "--trials", "1", "--output", str(out)]) == 0
    assert [row[:3] for row in rows_of(out)[1]] == [["15", "15", "10"]]


def test_gated_commands_reject_square_factor(tmp_path):
    for command in ["restrict-verify", "dual-verify", "certificate", "uncertainty"]:
        assert main([command, "--n", "12", "--output", str(tmp_path / "x.csv")]) == 2
    for trials in ("0", "3"):  # the certified 4/3 check refuses before any signal is scored
        assert main(["restrict-verify", "--n", "9", "--trials", trials, "--r", "4/3"]) == 2


@pytest.mark.parametrize("n", [9, 25])
def test_restrict_verify_at_six_fifths_takes_a_square_factor(tmp_path, n):
    # r = 6/5 has no certified constant; Hickman-Wright's estimate covers every N
    out = tmp_path / "rv.csv"
    assert main(["restrict-verify", "--n", str(n), "--r", "6/5", "--trials", "3", "--output", str(out)]) == 0
    header, rows = rows_of(out)
    assert len(rows) == 3
    assert all(row[header.index("r")] == "1.2" and row[header.index("constant")] == "" for row in rows)


def test_squarefree_filter_unblocks_grid(tmp_path):
    out = tmp_path / "cert.csv"
    code = main(["certificate", "--n", "12", "15", "--squarefree-only", "--output", str(out)])
    assert code == 0
    _, rows = rows_of(out)
    assert [row[0] for row in rows] == ["15"]


def test_squarefree_filter_means_the_same_for_every_command(tmp_path):
    for command in ("energy", "decay", "sharpness"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--n", "9", "10", "--squarefree-only", "--output", str(out)]) == 0
        assert {row[0] for row in rows_of(out)[1]} == {"10"}, command
    assert main(["sharpness", "--n", "9", "25", "--squarefree-only", "--output", str(out)]) == 2


def test_sharpness_allows_square_factor(tmp_path):
    out = tmp_path / "probe.csv"
    code = main(
        ["sharpness", "--n", "25", "--trials", "5", "--seed", "0", "--output", str(out)]
    )
    assert code == 0
    _, rows = rows_of(out)
    ratios = {row[3]: float(row[6]) for row in rows}
    assert abs(ratios[format(4 / 3, ".12g")] - 5**0.25) < 1e-9


def test_long_integer_lists_are_refused_before_any_is_built(capsys):
    # a range is counted from its ends, so a huge one is refused before it is built
    tracemalloc.start()
    assert main(["energy", "--n", "2..1000000000000"]) == 2
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20
    assert main(["sweep", "--n", "15", "--sizes", "1..60000", "60001..100001", "--trials", "1"]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert errors == [
        f"error: --n names 999999999999 values, over the limit of {cli.MAX_LIST_VALUES}",
        f"error: --sizes names 100001 values, over the limit of {cli.MAX_LIST_VALUES}",
    ]
    assert len(cli._parse_int_tokens(["1..60000", "60001..100000"], "--sizes")) == cli.MAX_LIST_VALUES


def test_usage_errors():
    assert main(["energy", "--n", "5..x"]) == 2
    assert main(["energy", "--n", "1"]) == 2
    assert main(["energy", "--n", "15", "--seed", "-3"]) == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["sweep", "--n", "15", "--sizes", "abc"]) == 2
    assert main(["recover", "--n", "15"]) == 2
    assert main(["recover", "--n", "15", "10", "--sizes", "3"]) == 2


def test_huge_moduli_are_refused_before_factoring(tmp_path, capsys, monkeypatch):
    # 2^61 - 1 is prime: trial division would spin for minutes, so no
    # make_ring call may see it, from --n or from a signal file
    def refuse(n):
        assert n <= cli.MAX_MODULUS, f"make_ring({n}) called"
        return make_ring(n)

    monkeypatch.setattr(cli, "make_ring", refuse)
    monkeypatch.setattr(fourier, "make_ring", refuse)
    huge = 2**61 - 1
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({"n": huge, "values": [[0.0, 0.0]] * 4}))
    assert main(["energy", "--n", "6", str(huge)]) == 2
    assert main(["recover", "--n", "15", "--input", str(sig)]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert errors[0] == f"error: modulus must be in [2, {cli.MAX_MODULUS}], got {huge}"
    assert errors[1].startswith(f"error: bad signal file {sig}: expected {huge * huge} [re, im] pairs")
    monkeypatch.undo()
    args = cli.build_parser().parse_args(["energy", "--n", str(cli.MAX_MODULUS)])
    assert [ring.modulus for ring in cli._resolve_moduli(args)] == [cli.MAX_MODULUS]
    assert main(["energy", "--n", str(cli.MAX_MODULUS + 1)]) == 2


def test_trial_divisions_of_a_list_are_bounded_before_factoring(tmp_path, capsys, monkeypatch):
    # 100,000 values just below 10^12 would factor for about 13 minutes; the
    # bound counts isqrt(n) // 2 + 1 divisions per value before make_ring runs.
    def refuse(n):
        raise AssertionError(f"make_ring({n}) called")

    monkeypatch.setattr(cli, "make_ring", refuse)
    assert main(["energy", "--n", "999999900001..1000000000000"]) == 2
    error = capsys.readouterr().err
    assert error.startswith("error: --n needs about 50000000001 trial divisions")
    assert error.endswith(f"over the limit of {cli.MAX_FACTOR_STEPS}\n") and error.count("\n") == 1
    monkeypatch.undo()
    out = tmp_path / "energy.csv"
    assert main(["energy", "--n", "2..100000", "--output", str(out)]) == 0
    _, rows = rows_of(out)
    assert len(rows) == 99999
    assert rows[-1] == ["100000", "2", "100000", "300000000000", "40000000000", "400"]


def test_recover_refuses_an_oversized_signal_file_before_parsing(tmp_path, capsys, monkeypatch):
    ring = make_ring(15)
    values = spawn_rng(3, 15).standard_normal((15, 15))
    sig = tmp_path / "sig.json"
    # an indented file of full-length floats is within the limit
    sig.write_text(json.dumps(fourier.grid_to_json_dict(Signal2D(ring, values)), indent=4))
    out = str(tmp_path / "r.csv")
    assert main(["recover", "--n", "15", "--input", str(sig), "--max-iterations", "5", "--output", out]) == 0
    text = signal_to_json(Signal2D(ring, np.zeros((15, 15))))
    sig.write_text(text + " " * (cli.SIGNAL_FILE_PAIR_BYTES * 15 * 15))

    def refuse(fh):
        raise AssertionError("json.load called")

    monkeypatch.setattr(json, "load", refuse)
    assert main(["recover", "--n", "15", "--input", str(sig)]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1
    assert errors[0].startswith(f"error: signal file {sig} has {sig.stat().st_size} bytes, over the ")


def test_memory_budget_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # Estimates only: nothing is allocated before the check refuses.
    out = str(tmp_path / "x.csv")
    assert main(["sharpness", "--n", "20000", "--trials", "1", "--output", out]) == 2
    assert main(["sharpness", "--n", "2..5", "20000", "--trials", "1", "--output", out]) == 2
    assert main(["dual-verify", "--n", "20001", "--output", out]) == 2  # squarefree, so the budget refuses it
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 3 and all("MB budget" in line for line in errors)
    assert "sharpness at N=20000" in errors[0] and "sharpness at N=20000" in errors[1]
    assert "dual-verify at N=20001" in errors[2]
    # The full parabola's energy is a closed form: no budget applies to it.
    p = 10007
    assert main(["energy", "--n", str(p), "--output", out]) == 0
    assert rows_of(tmp_path / "x.csv")[1] == [[str(p), "1", str(p), str(2 * p * p - p), str(2 * p * p), "2"]]
    monkeypatch.setattr(cli, "MEMORY_BUDGET", 0)
    assert main(["energy", "--n", "3", "4", "15", str(p), "--output", out]) == 0
    assert [row[5] for row in rows_of(tmp_path / "x.csv")[1]] == ["2", "4", "4", "2"]
    # decay's peak is a closed form too: it holds no grid at any modulus.
    assert main(["decay", "--n", "15", "16", "20000", "--output", out]) == 0
    assert [row[5:] for row in rows_of(tmp_path / "x.csv")[1]] == [["0", "5"], ["8", "8"], ["10000", "10000"]]
    monkeypatch.setattr(cli, "MEMORY_BUDGET", cli.pair_sum_bytes(make_ring(15)))
    assert main(["dual-verify", "--n", "15", "--trials", "3", "--output", out]) == 0
    assert main(["dual-verify", "--n", "21", "--trials", "3", "--output", out]) == 2


def test_recover_and_sweep_memory_budget(tmp_path, capsys, monkeypatch):
    # Estimates only: nothing is allocated before the check refuses.
    out = str(tmp_path / "x.csv")
    assert main(["sweep", "--n", "20000", "--sizes", "3", "--trials", "1", "--output", out]) == 2
    assert main(["sweep", "--n", "15", "20000", "--sizes", "3", "--trials", "1", "--output", out]) == 2
    assert main(["recover", "--n", "20000", "--sizes", "3", "--output", out]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 3 and all("MB budget" in line for line in errors)
    assert "sweep at N=20000" in errors[0] and "recover at N=20000" in errors[2]
    # every benchmark and battery modulus (N <= 105) is far under the budget
    assert cli.recover_bytes(make_ring(105)) < cli.MEMORY_BUDGET // 100
    monkeypatch.setattr(cli, "MEMORY_BUDGET", cli.recover_bytes(make_ring(15)))
    assert main(["recover", "--n", "15", "--sizes", "3", "--output", out]) == 0
    assert main(["sweep", "--n", "15", "--sizes", "3", "--trials", "1", "--output", out]) == 0
    assert main(["recover", "--n", "16", "--sizes", "3", "--output", out]) == 2
    assert main(["sweep", "--n", "15", "16", "--sizes", "3", "--trials", "1", "--output", out]) == 2


def test_scoring_search_and_certificate_memory_budget(tmp_path, capsys, monkeypatch):
    # Estimates only: nothing is allocated before the check refuses.
    out = str(tmp_path / "x.csv")
    assert main(["restrict-verify", "--n", "3001", "--trials", "1", "--output", out]) == 2
    assert main(["sharpness", "--n", "9", "3001", "--trials", "1", "--output", out]) == 2
    assert main(["uncertainty", "--n", "1001", "--trials", "1", "--output", out]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 3 and all("MB budget" in line for line in errors)
    assert "restrict-verify at N=3001" in errors[0] and "sharpness at N=3001" in errors[1]
    assert "uncertainty at N=1001" in errors[2]
    # certificate reads max_rep from the closed form: no budget applies to it.
    certified = ["1", "2", "1.189207115", "1.189207115", "true"]
    for budget in (0, cli.MEMORY_BUDGET):
        monkeypatch.setattr(cli, "MEMORY_BUDGET", budget)
        assert main(["certificate", "--n", "10007", "999999999989", "--output", out]) == 0
        _, rows = rows_of(tmp_path / "x.csv")
        assert rows == [["10007", "1", *certified], ["999999999989", "1", *certified]]
    assert cli.restriction_bytes(make_ring(3001)) == 8 * 16 * 3001**2 + 256  # a chunk of one grid
    assert main(["uncertainty", "--n", "15", "--max-support", str(10**9), "--output", out]) == 2
    assert "max_support" in capsys.readouterr().err  # the zone check, not the budget
    # every benchmark and battery modulus (N <= 105) is far under the budget
    assert cli.restriction_bytes(make_ring(105)) < cli.MEMORY_BUDGET // 100
    assert cli.uncertainty_bytes(make_ring(105), 1377) < cli.MEMORY_BUDGET // 10
    # up to N = 181 a scoring chunk holds about 1 MB of grids, so the
    # estimate grows little with N there; at N = 61 and 64 it passes N = 15's
    monkeypatch.setattr(cli, "MEMORY_BUDGET", cli.restriction_bytes(make_ring(15)))
    assert main(["restrict-verify", "--n", "15", "--trials", "3", "--output", out]) == 0
    assert main(["sharpness", "--n", "15", "--trials", "3", "--output", out]) == 0
    assert main(["restrict-verify", "--n", "61", "--trials", "3", "--output", out]) == 2
    assert main(["sharpness", "--n", "64", "--trials", "3", "--output", out]) == 2
    monkeypatch.setattr(cli, "MEMORY_BUDGET", cli.uncertainty_bytes(make_ring(15), 4))
    assert main(["uncertainty", "--n", "15", "--max-support", "4", "--trials", "50", "--output", out]) == 0
    assert main(["uncertainty", "--n", "21", "--max-support", "4", "--trials", "50", "--output", out]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["restrict-verify", "--n", "105", "--trials", "30"],
        ["restrict-verify", "--n", "105", "--trials", "30", "--r", "6/5"],
        ["sharpness", "--n", "121", "--trials", "10"],
    ],
)
def test_restriction_bytes_covers_one_modulus(tmp_path, argv):
    # One command at one modulus, after a warm-up run that pays one-time
    # costs, with the DFT tables cold: within what tracemalloc sees numpy
    # allocate, up to one more (N, N) grid of per-call objects.
    out = str(tmp_path / "x.csv")
    assert main(argv + ["--output", out]) == 0
    n = int(argv[2])
    _dft_matrix.cache_clear()
    _idft_matrix.cache_clear()
    tracemalloc.start()
    assert main(argv + ["--output", out]) == 0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= cli.restriction_bytes(make_ring(n)) + 16 * n * n


@pytest.mark.parametrize(
    "argv",
    [
        ["restrict-verify", "--n", "6", "10", "15", "--trials", "2"],
        ["dual-verify", "--n", "6", "10", "15", "--trials", "2"],
        ["sharpness", "--n", "6", "10", "15", "--trials", "2"],
        ["sweep", "--n", "6", "10", "--sizes", "2", "--trials", "1"],
        ["energy", "--n", "6", "10", "15"],
        ["decay", "--n", "6", "10", "15"],
        ["certificate", "--n", "6", "10", "15"],
        ["uncertainty", "--n", "6", "10", "15", "--max-support", "2", "--trials", "20"],
    ],
)
def test_commands_keep_one_modulus_of_tables(tmp_path, argv):
    # Each modulus passes the memory check alone, so a list of moduli must
    # not keep the earlier moduli's tables cached, whatever was cached before.
    for n in (2, 3):
        _dft_matrix(n), _idft_matrix(n), _pair_classes(n), _square_columns(n)
    assert main(argv + ["--output", str(tmp_path / "x.csv")]) == 0
    for cache in (_dft_matrix, _idft_matrix, _pair_classes, _square_columns):
        assert cache.cache_info().currsize <= 1, cache


@pytest.mark.parametrize("moduli", [["300..420"], ["1364", "1365"]])
def test_decay_peak_is_under_one_megabyte(tmp_path, moduli):
    # decay builds no grid and no |S_q| table: a modulus costs a few integer
    # operations.  1 MB covers the CLI's own objects (parser, rows, report
    # text), which tracemalloc puts at 0.15-0.4 MB; one (N, N) float grid at
    # N = 1364 would take 15 MB.
    tracemalloc.start()
    assert main(["decay", "--n", *moduli, "--output", str(tmp_path / "x.csv")]) == 0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 1 << 20


def test_decay_reports_the_closed_form_at_any_modulus(tmp_path):
    # The largest prime under MAX_MODULUS: factoring it is the whole cost.
    out = tmp_path / "x.csv"
    started = time.perf_counter()
    assert main(["decay", "--n", "999999999989", "--output", str(out)]) == 0
    assert time.perf_counter() - started < 1.0
    assert rows_of(out)[1] == [["999999999989", "1", "true", "999999.999994", "1", "0", "1"]]
    assert main(["decay", "--n", "20000", "--output", str(out)]) == 0
    assert rows_of(out)[1] == [["20000", "2", "false", "20000", "141.421356237", "10000", "10000"]]


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


def test_recover_takes_sizes_or_input_not_both(tmp_path, capsys):
    ring = make_ring(15)
    sig = tmp_path / "sig.json"
    sig.write_text(signal_to_json(Signal2D(ring, np.zeros((15, 15)))))
    for sizes in ("0", "3"):
        assert main(["recover", "--n", "15", "--sizes", sizes, "--input", str(sig)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument" in captured.err


def test_the_reused_parser_leaks_no_state(tmp_path, capsys, monkeypatch):
    # main reuses one parser per process: each run of this sequence reports
    # what the same run reports through a freshly built parser
    ring = make_ring(7)
    vals = np.zeros((7, 7), dtype=np.complex128)
    vals[1, 4] = 3.0
    sig = tmp_path / "sig.json"
    sig.write_text(signal_to_json(Signal2D(ring, vals)))
    sequence = [
        ["recover", "--n", "7", "--sizes", "3"],
        ["recover", "--n", "7", "--input", str(sig)],  # the exclusive group takes the other source
        ["sweep", "--n", "7", "--sizes", "2", "--trials", "1"],
        ["sweep", "--n", "7", "--trials", "1"],  # --sizes is still required
        ["restrict-verify", "--n", "15", "--r", "6/5", "--trials", "2"],
        ["restrict-verify", "--n", "15", "--trials", "2"],  # --r is back at 4/3
        ["certificate", "--n", "15", "--format", "json"],
        ["certificate", "--n", "15"],  # CSV again
    ]

    def run_all():
        runs = []
        for argv in sequence:
            code = main(argv)
            out, err = capsys.readouterr()
            runs.append((code, WALLTIME.sub("walltime_s=X", out), err))
        return runs

    assert cli.build_parser() is cli.build_parser()
    reused = run_all()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert run_all() == reused
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0, 0, 0, 0]
    assert "--sizes" in reused[3][2]
    r_column = [line.split(",")[3] for line in reused[4][1].splitlines()[1:3] + reused[5][1].splitlines()[1:3]]
    assert r_column == ["1.2", "1.2", "1.33333333333", "1.33333333333"]
    assert json.loads(reused[6][1])["command"] == "certificate"
    assert reused[7][1].startswith("N,omega,lambda_size,")


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


def test_summarize_streams_its_reports(tmp_path, monkeypatch):
    # a 20,000-row report is aggregated in far less memory than its rows,
    # and more distinct moduli than MAX_LIST_VALUES is a usage error
    big = tmp_path / "big.csv"
    rows = [f"{6 + i % 4},0,true,1.33,0.1,0.2,{0.5 + (i % 7) / 10},1.41,true,trial_{i}" for i in range(20_000)]
    big.write_text(",".join(cli.VERIFY_COLUMNS) + "\n" + "\n".join(rows) + "\n")
    out = tmp_path / "sum.csv"
    tracemalloc.start()
    assert main(["summarize", str(big), "--output", str(out)]) == 0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20
    assert rows_of(out)[1] == [[str(n), "5000", "1.1", "true"] for n in (6, 7, 8, 9)]
    monkeypatch.setattr(cli, "MAX_LIST_VALUES", 3)
    assert main(["summarize", str(big)]) == 2
    monkeypatch.setattr(cli, "MAX_LIST_VALUES", 4)
    assert main(["summarize", str(big), "--output", str(out)]) == 0


def test_csv_rerun_identical_up_to_walltime(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["restrict-verify", "--n", "15", "--trials", "40", "--seed", "9"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert normalized(a) == normalized(b)


def _one_member_at_a_time(argv, n, seed):
    # the report of a verify command, each row from the single-member check on that member alone
    args = cli.build_parser().parse_args(argv)
    ring = make_ring(n)
    sigma = build_parabola(ring)
    rng = spawn_rng(seed, n)
    if args.command == "dual-verify":
        members = structured_coefficients(ring, args.trials, rng)
        reports = [verify_dual(c, sigma, witness_kind=label) for label, c in members]
    else:
        params = RestrictionParams(s=2.0, r=6.0 / 5.0, constant=None)
        reports = [
            verify_main_theorem(Signal2D(ring, v), sigma, witness_kind=label)
            if args.r == "4/3"
            else verify_restriction(Signal2D(ring, v), sigma, params, witness_kind=label)
            for label, v in structured_values(ring, args.trials, rng)
        ]
    rows = [cli._fields(report, cli.VERIFY_COLUMNS) for report in reports]
    return WALLTIME.sub("walltime_s=X", cli._render(args, cli.VERIFY_COLUMNS, rows, 0.0))


@pytest.mark.parametrize("n", [6, 10, 15, 35, 105])
def test_chunked_verify_rows_equal_one_member_at_a_time(tmp_path, monkeypatch, n):
    # restrict-verify (at 4/3 and 6/5) and dual-verify score their members a
    # chunk at a time; each report, CSV and JSON, equals byte for byte the one
    # built from verify_main_theorem, verify_restriction or verify_dual on
    # each member alone, a chunk of one.  22 members at the default chunk
    # (5 grids at N = 105) and at chunks of 3 grids (3 N coefficient rows)
    # leave a partial last chunk.  The restriction side's lhs and rhs also
    # equal, bit for bit, the kernel's expressions on each grid alone, and
    # lhs is within 1e-14 of the dense transform's.
    out = tmp_path / "x.txt"
    commands = (["restrict-verify"], ["restrict-verify", "--r", "6/5"], ["dual-verify"])
    ring = make_ring(n)
    sigma = build_parabola(ring)
    grids_in = [(label, v.copy()) for label, v in structured_values(ring, 22, spawn_rng(5, n))]
    for grids in (None, 3):
        if grids is not None:
            monkeypatch.setattr(parabola, "_PIECE_BYTES", grids * 16 * n * n)
        for command in commands:
            for fmt in ("csv", "json"):
                argv = command + ["--n", str(n), "--trials", "22", "--seed", "5", "--format", fmt]
                assert main(argv + ["--output", str(out)]) == 0
                assert normalized(out) == _one_member_at_a_time(argv, n, 5), (grids, argv)
        for r in (4.0 / 3.0, 6.0 / 5.0):
            reports = restriction.verify_signals(sigma, grids_in, RestrictionParams(s=2.0, r=r))
            lhs = []
            for (label, v), report in zip(grids_in, reports, strict=True):
                assert (report.lhs, report.rhs) == _unchunked_quantities(n, v, sigma, 2.0, r), (grids, r, label)
                lhs.append(report.lhs)
            _assert_near_dense(n, lhs, [v for _, v in grids_in], sigma)


def test_numpy_bools_format_as_python_bools():
    # a satisfied cell from a numpy comparison writes what a Python bool writes
    args = cli.build_parser().parse_args(["certificate", "--n", "6"])
    for value in (True, False):
        numpy_value = np.float64(0.5) <= (1.0 if value else 0.25)
        assert type(numpy_value) is np.bool_ and cli._fmt_cell(numpy_value) == cli._fmt_cell(value)
        for fmt in ("csv", "json"):
            args.format = fmt
            texts = [WALLTIME.sub("", cli._render(args, ("satisfied",), [[v]], 0.0)) for v in (numpy_value, value)]
            assert texts[0] == texts[1]
    assert [cli._fmt_cell(v) for v in (np.bool_(True), np.bool_(False))] == ["true", "false"]


def test_json_rerun_identical_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["dual-verify", "--n", "15", "--trials", "10", "--seed", "3", "--format", "json"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_ignores_the_thread_variable(tmp_path, monkeypatch):
    # sweep has one execution path and reads no thread count from the environment
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", "--n", "15", "--sizes", "2..5", "--trials", "6", "--seed", "3"]
    assert main(args + ["--output", str(a)]) == 0
    monkeypatch.setenv("RESTRICTLAB_THREADS", "zero")
    assert main(args + ["--output", str(b)]) == 0
    assert normalized(a) == normalized(b)


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
