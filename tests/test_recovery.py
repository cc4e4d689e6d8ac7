"""Erasure problems, the l1 solver, least squares, and the threshold sweep."""

import tracemalloc

import numpy as np
import pytest

from restrictlab import recovery
from restrictlab.families import sparse_values
from restrictlab.fourier import Signal2D, Spectrum2D, _dft_matrix, _idft_matrix, dft, dft_array
from restrictlab.parabola import build_parabola, extend_from
from restrictlab.recovery import (
    LoganParams,
    RecoveryProblem,
    erase,
    least_squares_recover,
    logan_recover,
    project_feasible,
    random_instance,
    recover_bytes,
    threshold_sweep,
)
from restrictlab.rng import spawn_rng
from restrictlab.zmod import make_ring


def _planted(n, size, seed, unimodular=False):
    ring = make_ring(n)
    rng = spawn_rng(seed, n, size)
    return random_instance(ring, size, rng, unimodular=unimodular)


def test_erase_zeroes_the_parabola_rows():
    n = 10
    ring = make_ring(n)
    rng = spawn_rng(41, n)
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    truth = Signal2D(ring, vals)
    problem = erase(truth)
    sigma = build_parabola(ring)
    assert problem.unobserved.sum() == n
    assert np.allclose(problem.observed.values[sigma.rows, sigma.cols], 0.0, atol=0)
    fhat = dft(truth).values
    off = ~problem.unobserved
    assert np.allclose(problem.observed.values[off], fhat[off], atol=0)


def test_erase_refuses_non_integer_cells():
    ring = make_ring(6)
    f = Signal2D(ring, spawn_rng(42, 6).standard_normal((6, 6)))
    with pytest.raises(ValueError, match="must be an integer, got 1.7"):
        erase(f, unobserved=[(1.7, 2)])
    with pytest.raises(ValueError, match="must be an integer, got 0.5"):
        erase(f, support_hint=[(0.5, 1)])
    # numpy integers mark the cells of the same Python integers
    problem = erase(f, unobserved=[(np.int64(1), np.uint8(2))], support_hint=[(np.int32(0), np.int64(1))])
    assert np.array_equal(problem.unobserved, erase(f, unobserved=[(1, 2)]).unobserved)
    assert problem.support_hint == ((0, 1),)


def test_erase_with_custom_mask():
    n = 6
    ring = make_ring(n)
    rng = spawn_rng(42, n)
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    missing = [(0, 0), (1, 2), (5, 5)]
    problem = erase(Signal2D(ring, vals), unobserved=missing)
    assert problem.unobserved.sum() == 3
    for a, b in missing:
        assert problem.unobserved[a, b]


def test_problem_rejects_observed_data_in_the_hole():
    n = 5
    ring = make_ring(n)
    sigma = build_parabola(ring)
    bad = np.ones((n, n), dtype=np.complex128)
    mask = np.zeros((n, n), dtype=bool)
    mask[sigma.rows, sigma.cols] = True
    with pytest.raises(ValueError):
        RecoveryProblem(ring, mask, Spectrum2D(ring, bad))


def test_problem_rejects_a_truth_that_disagrees_off_the_hole():
    n = 5
    ring = make_ring(n)
    truth = Signal2D(ring, spawn_rng(43, n).standard_normal((n, n)))
    problem = erase(truth)
    RecoveryProblem(ring, problem.unobserved, problem.observed, true_signal=truth)
    moved = truth.values.copy()
    moved[0, 0] += 1e-6
    with pytest.raises(ValueError, match="disagrees"):
        RecoveryProblem(ring, problem.unobserved, problem.observed, true_signal=Signal2D(ring, moved))


def test_erase_transforms_once(monkeypatch):
    calls = []

    def counting(n, values):
        calls.append(n)
        return dft_array(n, values)

    monkeypatch.setattr(recovery, "dft_array", counting)
    problem = _planted(15, 4, 44)
    assert calls == [15]
    assert problem.true_signal is not None


def test_projection_is_idempotent_and_feasible():
    n = 15
    problem = _planted(n, 5, seed=43)
    ring = problem.ring
    rng = spawn_rng(44, n)
    u = Signal2D(ring, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    proj = project_feasible(u, problem)
    off = ~problem.unobserved
    assert np.allclose(dft(proj).values[off], problem.observed.values[off], atol=1e-10)
    again = project_feasible(proj, problem)
    assert np.allclose(again.values, proj.values, atol=1e-10)


def test_projection_fixes_the_truth():
    problem = _planted(15, 4, seed=45)
    proj = project_feasible(problem.true_signal, problem)
    assert np.allclose(proj.values, problem.true_signal.values, atol=1e-10)


@pytest.mark.parametrize("size", [1, 3, 5, 7])
def test_logan_exact_below_threshold(size):
    problem = _planted(15, size, seed=46)
    result = logan_recover(problem)
    assert result.exact is True
    assert result.status == "converged"
    assert result.residual < 1e-8
    assert np.abs(result.recovered.values - problem.true_signal.values).max() < 1e-6


def test_logan_exact_below_threshold_unimodular():
    problem = _planted(15, 6, seed=47, unimodular=True)
    result = logan_recover(problem)
    assert result.exact is True


def test_logan_misses_spectrum_concentrated_truth():
    # A signal whose spectrum lives entirely on the erased rows leaves zero
    # observed data, and the zero signal beats it in l1 norm.
    n = 15
    ring = make_ring(n)
    sigma = build_parabola(ring)
    truth = extend_from(sigma, np.ones(n))
    problem = erase(truth)
    assert np.allclose(problem.observed.values, 0.0, atol=1e-12)
    result = logan_recover(problem)
    assert result.exact is False
    assert np.abs(result.recovered.values).max() < 1e-6


def test_logan_result_objective_is_feasible_best():
    problem = _planted(15, 5, seed=48)
    result = logan_recover(problem)
    truth_obj = float(np.abs(problem.true_signal.values).sum())
    assert result.final_objective <= truth_obj * (1 + 1e-9)


def test_least_squares_exact_with_known_support():
    problem = _planted(15, 5, seed=49)
    result = least_squares_recover(problem)
    assert result.status == "solved"
    assert result.exact is True
    assert np.abs(result.recovered.values - problem.true_signal.values).max() < 1e-6


@pytest.mark.parametrize(
    "n,size,missing",
    [
        (6, 3, [(0, 0), (1, 2), (5, 5)]),
        (10, 4, [(a, (a * a + 3 * b + 1) % 10) for a in range(10) for b in range(3)]),  # 30 cells
    ],
)
def test_least_squares_exact_on_a_custom_erased_set(n, size, missing):
    # The Gram is built from the mask's own points, not from the parabola.
    ring = make_ring(n)
    vals = sparse_values(ring, spawn_rng(53, n), size)
    support = tuple((int(i) // n, int(i) % n) for i in np.flatnonzero(vals))
    problem = erase(Signal2D(ring, vals), unobserved=missing, support_hint=support)
    assert not np.array_equal(problem.unobserved, erase(Signal2D(ring, vals)).unobserved)
    result = least_squares_recover(problem)
    assert result.status == "solved"
    assert result.exact is True
    assert np.abs(result.recovered.values - vals).max() < 1e-12
    assert result.residual < 1e-12


def test_logan_params_reject_nonpositive_max_iterations():
    for cap in (0, -5):
        with pytest.raises(ValueError, match="max_iterations"):
            LoganParams(max_iterations=cap)


def test_logan_params_refuse_a_non_integer_cap():
    with pytest.raises(ValueError, match="max_iterations must be an integer, got 2.5"):
        LoganParams(max_iterations=2.5)
    assert LoganParams(max_iterations=np.int64(5)).max_iterations == 5


def test_least_squares_needs_hint():
    n = 6
    ring = make_ring(n)
    rng = spawn_rng(50, n)
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    problem = erase(Signal2D(ring, vals))
    with pytest.raises(ValueError):
        least_squares_recover(problem)


def test_least_squares_singular_when_support_covers_everything():
    n = 6
    ring = make_ring(n)
    rng = spawn_rng(51, n)
    vals = sparse_values(ring, rng, 4)
    full = tuple((a, b) for a in range(n) for b in range(n))
    problem = erase(Signal2D(ring, vals), support_hint=full)
    result = least_squares_recover(problem)
    assert result.status == "singular"
    # The minimum-norm solution still reproduces the observed spectrum.
    assert result.residual < 1e-8


def test_solvers_agree_below_threshold():
    for trial in range(5):
        problem = _planted(15, 4, seed=60 + trial)
        a = logan_recover(problem)
        b = least_squares_recover(problem)
        assert a.exact and b.exact
        assert np.abs(a.recovered.values - b.recovered.values).max() < 1e-6


def test_random_instance_support_size_and_hint():
    ring = make_ring(10)
    rng = spawn_rng(52, 10)
    problem = random_instance(ring, 7, rng)
    vals = problem.true_signal.values
    assert int((np.abs(vals) > 0).sum()) == 7
    assert problem.support_hint is not None
    assert len(problem.support_hint) == 7
    for a, b in problem.support_hint:
        assert np.abs(vals[a, b]) > 0


def test_sweep_thresholds_and_rates():
    ring = make_ring(15)
    rows = threshold_sweep(ring, [2, 5, 7], trials=10, seed=8)
    assert [row.e_size for row in rows] == [2, 5, 7]
    for row in rows:
        assert row.s_size == 15
        assert row.ds_threshold == 7.5
        assert row.improved_threshold == 225.0 / 16.0
        assert row.trials == 10
        assert row.exact_rate == 1.0
        assert row.exact_count == 10
        assert row.failures == 0


def test_sweep_empty_and_validation():
    ring = make_ring(15)
    assert threshold_sweep(ring, [3], trials=0, seed=1) == []
    with pytest.raises(ValueError):
        threshold_sweep(ring, [3], trials=-1, seed=1)
    for trials in (0, 1):  # the sizes are checked even when no trial runs
        with pytest.raises(ValueError):
            threshold_sweep(ring, [3, 0], trials=trials, seed=1)


def test_sweep_refuses_a_non_integer_size():
    ring = make_ring(15)
    with pytest.raises(ValueError, match="support size must be an integer, got 2.7"):
        threshold_sweep(ring, [2.7], 1, 0)
    assert threshold_sweep(ring, [np.int64(2)], 1, 0) == threshold_sweep(ring, [2], 1, 0)


def test_recover_bytes_covers_one_solve():
    assert recover_bytes(make_ring(15)) == 18 * 16 * 15 * 15
    assert recover_bytes(make_ring(20000)) == 18 * 16 * 20000 * 20000
    # One planted instance and its solve, as recover and each sweep trial run
    # them: within what tracemalloc sees numpy allocate, up to a few kB of
    # per-call objects, with the DFT tables cold.
    for n in (105, 160):
        ring = make_ring(n)
        _dft_matrix.cache_clear()
        _idft_matrix.cache_clear()
        tracemalloc.start()
        logan_recover(random_instance(ring, 5, spawn_rng(42, n)), LoganParams(max_iterations=100))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= recover_bytes(ring) + 16_384, n


def test_sweep_rerun_is_identical():
    ring = make_ring(15)
    a = threshold_sweep(ring, [4], trials=6, seed=13)
    b = threshold_sweep(ring, [4], trials=6, seed=13)
    assert a == b
    # each size draws from its own streams, whatever else is swept with it
    both = threshold_sweep(ring, [3, 5], trials=8, seed=77)
    assert both == threshold_sweep(ring, [3], trials=8, seed=77) + threshold_sweep(ring, [5], trials=8, seed=77)


# Trajectory pins: (iterations, status, exact, repr(final_objective),
# repr(residual)) of fixed solves, recorded before the DR loop was made lean.
# A rewrite of the loop that keeps every floating-point operation and its
# order reproduces them exactly; any reordering moves the objective's last
# digits or the iteration count.
TRAJECTORY_PINS = {
    (6, 2, 90, False, None): (76, "converged", True, "2.0623065324841696", "4.363164428774504e-16"),
    (6, 8, 91, False, None): (102, "converged", True, "6.0169841002741915", "5.688534171927759e-16"),
    (6, 24, 90, False, None): (208, "converged", False, "23.029993956565214", "4.020750997977176e-16"),
    (15, 5, 92, False, None): (100, "converged", True, "6.957006972246627", "4.673544754013095e-16"),
    (15, 30, 93, False, None): (99, "converged", True, "29.13323783885132", "4.963979884350114e-16"),
    (15, 6, 94, True, None): (69, "converged", True, "6.000000000000011", "4.736538113172605e-16"),
    (35, 12, 95, False, None): (135, "converged", True, "12.594197852556034", "6.295154367429912e-16"),
    (35, 40, 96, False, None): (123, "converged", True, "53.25402910695634", "5.94763751063706e-16"),
    (15, 30, 93, False, 60): (60, "max_iterations", True, "29.13323783958475", "5.323373700289498e-16"),
}


@pytest.mark.parametrize("key", sorted(TRAJECTORY_PINS, key=repr), ids=repr)
def test_logan_trajectory_pins(key):
    n, size, seed, unimodular, cap = key
    params = LoganParams() if cap is None else LoganParams(max_iterations=cap)
    result = logan_recover(_planted(n, size, seed, unimodular=unimodular), params)
    got = (result.iterations, result.status, result.exact, repr(result.final_objective), repr(result.residual))
    assert got == TRAJECTORY_PINS[key]


def test_logan_trajectory_pin_spectrum_concentrated_miss():
    ring = make_ring(15)
    problem = erase(extend_from(build_parabola(ring), np.ones(15)))
    result = logan_recover(problem)
    got = (result.iterations, result.status, result.exact, repr(result.final_objective), repr(result.residual))
    assert got == (51, "converged", False, "1.993958430834274e-14", "9.782279054608348e-31")


def test_sweep_mean_iterations_pin():
    rows = threshold_sweep(make_ring(35), [3, 17, 40], trials=2, seed=5)
    assert [row.mean_iterations for row in rows] == [85.0, 116.0, 169.0]
    assert [row.exact_count for row in rows] == [2, 2, 2]
