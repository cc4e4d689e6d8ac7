"""Recovery of sparse signals from spectra observed off a frequency set S.

The flagship solver minimizes the l1 norm subject to matching the observed
spectrum off S (Douglas-Rachford splitting between the complex soft-threshold
and the affine projection onto the data constraint).  A least-squares path
handles the case where the spatial support is known.  Exact recovery is
guaranteed when |support| * |S| < N^2 / 2, with an improved parabola-specific
line at N^2 / (4 * 2^omega) for squarefree N.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .families import sparse_values
from .fourier import Signal2D, Spectrum2D, _dft_matrix, dft_array, idft_array
from .parabola import ParabolaSet, build_parabola
from .rng import spawn_rng
from .zmod import RingContext

# Douglas-Rachford step: the soft-threshold level of each shrink.
STEP = 1.0
# A stalled solve stops once its shrink iterate misfits the observed
# spectrum by at most this, relative to the observations' norm.
FEASIBILITY_TOL = 1e-9
# The objective has stalled when it moved by at most this, relative,
# over the last STALL_WINDOW iterations.
OBJECTIVE_TOL = 1e-9
# Iterations between the two objectives the stall test compares.
STALL_WINDOW = 50
# A recovered signal is exact when no cell is farther than this from the truth.
EXACT_TOL = 1e-6
# A converged miss whose l1 value is this close, relative, to the truth's is
# reported as non_unique: both are minimizers.
TIE_TOL = 1e-6


def _as_mask(ring: RingContext, unobserved) -> np.ndarray:
    n = ring.modulus
    if unobserved is None:
        unobserved = build_parabola(ring)
    if isinstance(unobserved, ParabolaSet):
        if unobserved.ring.modulus != n:
            raise ValueError("frequency set and ring use different moduli")
        mask = np.zeros((n, n), dtype=bool)
        mask[unobserved.rows, unobserved.cols] = True
        return mask
    arr = np.asarray(unobserved)
    if arr.dtype == bool:
        if arr.shape != (n, n):
            raise ValueError(f"mask must have shape ({n}, {n}), got {arr.shape}")
        return arr.copy()
    mask = np.zeros((n, n), dtype=bool)
    for m1, m2 in unobserved:
        mask[int(m1) % n, int(m2) % n] = True
    return mask


@dataclass(frozen=True, eq=False)
class RecoveryProblem:
    """Observed spectrum with a mask of unobserved (erased) frequencies."""

    ring: RingContext
    unobserved: np.ndarray  # (N, N) bool, True where the spectrum is missing
    observed: Spectrum2D  # values zeroed on the unobserved set
    true_signal: Signal2D | None = None
    support_hint: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        n = self.ring.modulus
        mask = np.asarray(self.unobserved, dtype=bool)
        if mask.shape != (n, n):
            raise ValueError(f"unobserved mask must have shape ({n}, {n})")
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "unobserved", mask)
        if np.any(self.observed.values[mask] != 0):
            raise ValueError("observed spectrum must be zero on the unobserved set")
        if self.true_signal is not None:
            truth_hat = dft_array(n, self.true_signal.values)
            gap = np.abs(truth_hat[~mask] - self.observed.values[~mask])
            if gap.size and float(gap.max()) > 1e-10:
                raise ValueError("true_signal disagrees with the observed spectrum off S")


def erase(
    f: Signal2D,
    unobserved=None,
    *,
    support_hint: Sequence[tuple[int, int]] | None = None,
) -> RecoveryProblem:
    """Transform f, delete the frequencies in S (default: the parabola)."""
    n = f.ring.modulus
    mask = _as_mask(f.ring, unobserved)
    spectrum = dft_array(n, f.values).copy()
    spectrum[mask] = 0.0
    problem = RecoveryProblem(
        ring=f.ring,
        unobserved=mask,
        observed=Spectrum2D(f.ring, spectrum),
        support_hint=tuple((int(a), int(b)) for a, b in support_hint) if support_hint else None,
    )
    # f's spectrum is the observation off S by construction, so the truth is
    # attached after __post_init__ instead of being transformed again there.
    object.__setattr__(problem, "true_signal", f)
    return problem


def project_feasible(u: Signal2D, problem: RecoveryProblem) -> Signal2D:
    """Nearest signal whose spectrum matches the observations off S.

    The transform is unitary, so overwriting the observed coordinates in the
    frequency domain is the exact orthogonal projection; it is idempotent and
    1-Lipschitz by construction.
    """
    n = problem.ring.modulus
    spectrum = dft_array(n, u.values).copy()
    off = ~problem.unobserved
    spectrum[off] = problem.observed.values[off]
    return Signal2D(problem.ring, idft_array(n, spectrum))


@dataclass(frozen=True)
class LoganParams:
    """The l1 solver's one setting, its iteration cap.

    Step, stall and tolerance values are the module constants STEP,
    FEASIBILITY_TOL, OBJECTIVE_TOL, STALL_WINDOW, EXACT_TOL and TIE_TOL.
    """

    max_iterations: int = 20000

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Outcome of one recovery attempt."""

    recovered: Signal2D
    iterations: int
    final_objective: float
    residual: float
    exact: bool | None  # None when no ground truth is attached
    status: str  # converged | max_iterations | non_unique | solved | singular


def _fit(problem: RecoveryProblem, values: np.ndarray) -> tuple[float, bool | None]:
    """Relative misfit of values' spectrum off S, and agreement with the truth (None without one)."""
    off = ~problem.unobserved
    obs_off = problem.observed.values[off]
    spectrum = dft_array(problem.ring.modulus, values)
    residual = float(np.linalg.norm(spectrum[off] - obs_off)) / max(1.0, float(np.linalg.norm(obs_off)))
    if problem.true_signal is None:
        return residual, None
    return residual, bool(np.abs(values - problem.true_signal.values).max() <= EXACT_TOL)


def logan_recover(problem: RecoveryProblem, params: LoganParams = LoganParams()) -> RecoveryResult:
    """l1 minimization subject to the observed spectrum, via Douglas-Rachford.

    Iterates x = shrink(y), z = P(2x - y), y += z - x, where P is the affine
    data projection.  Every z is feasible; the best one seen (by l1 value) is
    returned, so the reported objective never exceeds that of any feasible
    iterate encountered.  Stops once the objective has stalled over the
    trailing STALL_WINDOW and the shrink iterate is feasible to
    FEASIBILITY_TOL (the feasibility residual is evaluated only once the
    objective has stalled), or at max_iterations with a distinct status.
    """
    ring = problem.ring
    n = ring.modulus
    off = ~problem.unobserved
    obs = problem.observed.values
    obs_off = obs[off]
    obs_norm = max(1.0, float(np.linalg.norm(obs_off)))

    yhat = np.where(off, obs, 0.0)
    y = idft_array(n, yhat)
    # Buffers reused by every iteration: mag holds |y| and then the shrink
    # factor max(1 - STEP / max(|y|, 1e-300), 0), which keeps the phase of y.
    mag = np.empty((n, n))
    x = np.empty((n, n), dtype=np.complex128)
    best_obj = np.inf
    best_z = None
    objectives: list[float] = []
    status = "max_iterations"
    iterations = params.max_iterations
    for k in range(1, params.max_iterations + 1):
        np.abs(y, out=mag)
        np.maximum(mag, 1e-300, out=mag)
        np.divide(STEP, mag, out=mag)
        np.subtract(1.0, mag, out=mag)
        np.maximum(mag, 0.0, out=mag)
        np.multiply(y, mag, out=x)
        xhat = dft_array(n, x)
        zhat = 2.0 * xhat
        zhat -= yhat
        np.copyto(zhat, obs, where=off)
        z = idft_array(n, zhat)
        y += z
        y -= x
        yhat += zhat
        yhat -= xhat
        obj = float(np.abs(z, out=mag).sum())
        if obj < best_obj:
            best_obj, best_z = obj, z
        objectives.append(obj)
        if len(objectives) > STALL_WINDOW:
            prev = objectives[-1 - STALL_WINDOW]
            if abs(obj - prev) <= OBJECTIVE_TOL * max(1.0, abs(obj)):
                residual = float(np.linalg.norm(xhat[off] - obs_off)) / obs_norm
                if residual <= FEASIBILITY_TOL:
                    status = "converged"
                    iterations = k
                    break

    assert best_z is not None
    final_residual, exact = _fit(problem, best_z)
    if status == "converged" and exact is False:
        truth_obj = float(np.abs(problem.true_signal.values).sum())
        if abs(best_obj - truth_obj) <= TIE_TOL * max(1.0, truth_obj):
            status = "non_unique"
    return RecoveryResult(
        recovered=Signal2D(ring, best_z),
        iterations=iterations,
        final_objective=best_obj,
        residual=final_residual,
        exact=exact,
        status=status,
    )


def least_squares_recover(problem: RecoveryProblem) -> RecoveryResult:
    """Least-squares fit of the observed spectrum on a known spatial support T.

    The DFT is unitary, so the normal equations are the k x k system
    (I - A^H A) c = idft(observed)[T], with A the DFT block on the erased rows
    S and the columns T (A = E_T^H when S is the parabola).  A Gram with
    s_min <= 1e-12 s_max (non-unique recovery) is reported via status
    "singular" with lstsq's minimum-norm solution.
    """
    if problem.support_hint is None:
        raise ValueError("least_squares_recover needs a support_hint on the problem")
    ring = problem.ring
    n = ring.modulus
    x1, x2 = np.array(problem.support_hint).T
    m1, m2 = np.nonzero(problem.unobserved)
    a = _dft_matrix(n)[1][(np.outer(m1, x1) + np.outer(m2, x2)) % n] / n
    gram = np.eye(x1.size) - a.conj().T @ a
    rhs = idft_array(n, problem.observed.values)[x1, x2]
    coeffs, _, _, sv = np.linalg.lstsq(gram, rhs, rcond=None)
    singular = bool(sv[-1] <= 1e-12 * max(float(sv[0]), 1e-12))
    vals = np.zeros((n, n), dtype=np.complex128)
    vals[x1, x2] = coeffs
    residual, exact = _fit(problem, vals)
    return RecoveryResult(
        recovered=Signal2D(ring, vals),
        iterations=1,
        final_objective=float(np.abs(vals).sum()),
        residual=residual,
        exact=exact,
        status="singular" if singular else "solved",
    )


@dataclass(frozen=True)
class SweepRow:
    """Aggregated recovery statistics for one support size."""

    n: int
    s_size: int
    e_size: int
    trials: int
    exact_count: int
    non_unique: int
    failures: int
    exact_rate: float
    mean_iterations: float
    ds_threshold: float  # N^2 / (2 |S|)
    improved_threshold: float  # N^2 / (4 * 2^omega), bounded-factor regime


def random_instance(
    ring: RingContext,
    e_size: int,
    rng: np.random.Generator,
    *,
    unobserved=None,
    unimodular: bool = False,
) -> RecoveryProblem:
    """Planted instance: random support of e_size, random amplitudes, erased S."""
    n = ring.modulus
    vals = sparse_values(ring, rng, e_size, unimodular=unimodular)
    # no drawn amplitude is zero, so the nonzero cells are the sorted support
    support = tuple((int(i) // n, int(i) % n) for i in np.flatnonzero(vals))
    return erase(Signal2D(ring, vals), unobserved, support_hint=support)


def _map_ordered(fn: Callable, items: Sequence, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def threshold_sweep(
    ring: RingContext,
    support_sizes: Iterable[int],
    trials: int,
    seed: int,
    *,
    unimodular: bool = False,
    params: LoganParams = LoganParams(),
    threads: int = 1,
) -> list[SweepRow]:
    """Empirical exact-recovery rates by support size, the parabola erased.

    Each trial draws from its own (seed, size, trial)-keyed stream, so results
    do not depend on thread count or scheduling.  trials = 0 yields no rows.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if trials == 0:
        return []
    n = ring.modulus
    mask = _as_mask(ring, None)
    s_size = int(mask.sum())
    ds = n * n / (2.0 * s_size) if s_size else np.inf
    improved = n * n / (4.0 * 2**ring.omega)
    rows: list[SweepRow] = []
    for e_size in support_sizes:
        e_size = int(e_size)
        if not (1 <= e_size <= n * n):
            raise ValueError(f"support size must be in [1, {n * n}], got {e_size}")

        def run_trial(trial: int, _e=e_size) -> tuple[bool, bool, int]:
            rng = spawn_rng(seed, _e, trial)
            problem = random_instance(ring, _e, rng, unobserved=mask, unimodular=unimodular)
            result = logan_recover(problem, params)
            return bool(result.exact), result.status == "non_unique", result.iterations

        outcomes = _map_ordered(run_trial, range(trials), threads)
        exact_count = sum(1 for ok, _, _ in outcomes if ok)
        non_unique = sum(1 for _, tie, _ in outcomes if tie)
        rows.append(
            SweepRow(
                n=n,
                s_size=s_size,
                e_size=e_size,
                trials=trials,
                exact_count=exact_count,
                non_unique=non_unique,
                failures=trials - exact_count,
                exact_rate=exact_count / trials,
                mean_iterations=float(np.mean([it for _, _, it in outcomes])),
                ds_threshold=ds,
                improved_threshold=improved,
            )
        )
    return rows
