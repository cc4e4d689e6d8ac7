"""Acceptance gate: ten numbered criteria, one verdict line each.

Every expected value here was computed by an oracle that does not share code
with the implementation under test (definition-level loops, closed forms, or
an independent algebraic identity) and then frozen.
"""

import math

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES

from restrictlab.cli import main
from restrictlab.families import structured_coefficients, structured_values
from restrictlab.parabola import build_parabola, decay_profile, energy_exact
from restrictlab.recovery import threshold_sweep, logan_recover, least_squares_recover, random_instance
from restrictlab.restriction import (
    dual_ratios,
    restriction_quantities,
    sharpness_probe,
    uncertainty_search,
)
from restrictlab.rng import spawn_rng
from restrictlab.zmod import make_ring

FUZZ_MODULI = [6, 10, 15, 30, 35, 105]
RANDOM_TRIALS = 10_000
STRUCTURED_TRIALS = 1_000
CHUNK = 250


def record(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def quadruple_scan(points, n):
    """Additive energy by checking all |U|^4 quadruples, nothing shared."""
    count = 0
    pts = [(int(a), int(b)) for a, b in points]
    for a1, a2 in pts:
        for b1, b2 in pts:
            s1 = a1 + b1
            s2 = a2 + b2
            for c1, c2 in pts:
                t1 = s1 - c1
                t2 = s2 - c2
                for d1, d2 in pts:
                    if (t1 - d1) % n == 0 and (t2 - d2) % n == 0:
                        count += 1
    return count


def test_criterion_01_energy_matches_quadruple_scan():
    moduli = [3, 5, 6, 10, 15, 21, 35]
    details = []
    ok = True
    for n in moduli:
        ring = make_ring(n)
        sigma = build_parabola(ring)
        energy = energy_exact(sigma).energy
        points = list(zip(sigma.rows.tolist(), sigma.cols.tolist()))
        scanned = quadruple_scan(points, n)
        if energy != scanned:
            ok = False
        if n % 2 == 1:
            closed = math.prod(2 * p * p - p for p, _ in ring.prime_factors)
            if energy != closed:
                ok = False
        details.append(f"{n}:{energy}")
    record(1, ok, "histogram energy equals the quadruple scan on " + ", ".join(details))


def test_criterion_02_subset_energy_bound():
    violations = 0
    checked = 0
    for n in range(2, 61):
        ring = make_ring(n)
        if not ring.squarefree:
            continue
        sigma = build_parabola(ring)
        rng = spawn_rng(1002, n)
        for trial in range(200):
            size = int(rng.integers(1, n + 1))
            subset = [int(t) for t in rng.choice(n, size=size, replace=False)]
            report = energy_exact(sigma, subset)
            checked += 1
            if report.energy > 2**ring.omega * size * size:
                violations += 1
    record(
        2,
        violations == 0,
        f"{checked} random subsets across squarefree moduli up to 60, "
        f"{violations} energy bound violations",
    )


def test_criterion_03_restriction_estimate_fuzz():
    worst = 0.0
    worst_at = None
    ok = True
    for n in FUZZ_MODULI:
        ring = make_ring(n)
        sigma = build_parabola(ring)
        limit = 2.0 ** (ring.omega / 4.0) + 1e-9
        done = 0
        chunk_index = 0
        while done < RANDOM_TRIALS:
            count = min(CHUNK, RANDOM_TRIALS - done)
            rng = spawn_rng(1003, n, chunk_index)
            batch = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
            lhs, rhs = restriction_quantities(ring, batch, sigma)
            ratios = lhs / rhs
            top = float(ratios.max())
            margin = top / (limit - 1e-9)
            if margin > worst:
                worst, worst_at = margin, n
            if top > limit:
                ok = False
            done += count
            chunk_index += 1
        rng = spawn_rng(1004, n)
        for label, vals in structured_values(ring, STRUCTURED_TRIALS, rng):
            lhs, rhs = restriction_quantities(ring, vals, sigma)
            ratio = float(lhs) if rhs == 0.0 else float(lhs / rhs)
            if rhs == 0.0:
                ratio = 0.0
            margin = ratio / (limit - 1e-9)
            if margin > worst:
                worst, worst_at = margin, n
            if ratio > limit:
                ok = False
    record(
        3,
        ok,
        f"{RANDOM_TRIALS} random + {STRUCTURED_TRIALS} structured signals per "
        f"modulus in {FUZZ_MODULI}; worst ratio/constant = {worst:.6f} at N={worst_at}",
    )


def test_criterion_04_extension_bound_fuzz():
    worst = 0.0
    worst_at = None
    ok = True
    witness_checked = 0
    for n in FUZZ_MODULI:
        ring = make_ring(n)
        sigma = build_parabola(ring)
        limit = 2.0 ** (ring.omega / 4.0) + 1e-9
        done = 0
        chunk_index = 0
        while done < RANDOM_TRIALS:
            count = min(CHUNK, RANDOM_TRIALS - done)
            rng = spawn_rng(1005, n, chunk_index)
            batch = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
            ratios = dual_ratios(ring, batch, sigma)
            top = float(ratios.max())
            margin = top / (limit - 1e-9)
            if margin > worst:
                worst, worst_at = margin, n
            if top > limit:
                ok = False
            done += count
            chunk_index += 1
        rng = spawn_rng(1006, n)
        for label, coeffs in structured_coefficients(ring, STRUCTURED_TRIALS, rng):
            ratio = float(dual_ratios(ring, coeffs[None, :], sigma)[0])
            if ratio > limit:
                ok = False
            margin = ratio / (limit - 1e-9)
            if margin > worst:
                worst, worst_at = margin, n
        # Single-character inputs sit at the flat end: their ratio is 1.
        for t in range(n):
            coeffs = np.zeros(n, dtype=np.complex128)
            coeffs[t] = 1.0
            ratio = float(dual_ratios(ring, coeffs[None, :], sigma)[0])
            witness_checked += 1
            if ratio < 1.0 - 1e-9:
                ok = False
    record(
        4,
        ok,
        f"extension-side fuzz over {FUZZ_MODULI}; worst ratio/constant = "
        f"{worst:.6f} at N={worst_at}; {witness_checked} single-character "
        f"witnesses all reach ratio 1",
    )


def test_criterion_05_decay_dichotomy():
    ok = True
    prime_part = []
    for p in [5, 7, 11, 13]:
        profile = decay_profile(build_parabola(make_ring(p)))
        if abs(profile.max_ratio - 1.0) > 1e-9:
            ok = False
        prime_part.append(f"{p}:{profile.max_ratio:.3f}")
    profile = decay_profile(build_parabola(make_ring(35)))
    witness = profile.witness
    # By CRT |S(m)| mod 35 is the product of the mod-5 and mod-7 Gauss sums,
    # and for an odd prime p, |S_p| is p at m = (0,0) mod p, sqrt(p) when
    # m2 != 0 mod p, and 0 otherwise.  The nontrivial levels are 7*sqrt(5)
    # (ratio sqrt(7), m = (0,0) mod 7), 5*sqrt(7) (ratio sqrt(5), m = (0,0)
    # mod 5) and sqrt(35) (ratio 1).  7^2*5 > 5^2*7, so the maximum ratio is
    # sqrt(N / p_min) = sqrt(35 / 5), attained in the (0,0) mod 7 class.
    pinned_level = math.sqrt(35.0 / 5.0)
    level_ok = abs(profile.max_ratio - pinned_level) <= 1e-6
    witness_ok = witness[0] % 7 == 0 and witness[1] % 7 == 0
    if not (level_ok and witness_ok):
        ok = False
    record(
        5,
        ok,
        f"prime ratios {', '.join(prime_part)}; N=35 pinned max ratio sqrt(7) "
        f"with a witness in the (0,0) mod 7 class, measured "
        f"{profile.max_ratio:.6f} at witness {witness}",
    )


@pytest.mark.slow
def test_criterion_06_uncertainty_forbidden_zone():
    sigma = build_parabola(make_ring(6))
    exhaustive = uncertainty_search(sigma, 6, seed=1006)
    ok = exhaustive.method == "exhaustive" and not exhaustive.found
    checked = [f"size<=6 exhaustive ({exhaustive.supports_checked} supports)"]
    for size in (7, 8):
        verdict = uncertainty_search(sigma, size, samples=10_000_000, seed=1006 + size)
        if verdict.found:
            ok = False
        checked.append(f"size {size} randomized ({verdict.supports_checked} samples)")
    record(
        6,
        ok,
        "N=6 support search below 36/4 = 9 found no spectrum-on-curve signal: "
        + "; ".join(checked),
    )


@pytest.mark.slow
def test_criterion_07_exact_recovery_rates():
    ok = True
    summaries = []
    for n, top in ((15, 7), (35, 17)):
        ring = make_ring(n)
        rows = threshold_sweep(ring, range(1, top + 1), trials=500, seed=1007)
        rate = min(row.exact_rate for row in rows)
        if rate < 1.0:
            ok = False
        summaries.append(f"N={n}: sizes 1..{top} rate {rate:.3f}")
    record(7, ok, "500 trials per support size, " + "; ".join(summaries))


def test_criterion_08_solver_agreement():
    ring = make_ring(15)
    worst_truth = 0.0
    worst_pair = 0.0
    ok = True
    for trial in range(100):
        rng = spawn_rng(1008, trial)
        size = 1 + trial % 7
        problem = random_instance(ring, size, rng)
        a = logan_recover(problem)
        b = least_squares_recover(problem)
        truth = problem.true_signal.values
        da = float(np.abs(a.recovered.values - truth).max())
        db = float(np.abs(b.recovered.values - truth).max())
        dab = float(np.abs(a.recovered.values - b.recovered.values).max())
        worst_truth = max(worst_truth, da, db)
        worst_pair = max(worst_pair, dab)
        if da > 1e-6 or db > 1e-6 or dab > 1e-6:
            ok = False
    record(
        8,
        ok,
        f"100 known-support instances at N=15: worst solver error "
        f"{worst_truth:.2e}, worst disagreement {worst_pair:.2e}",
    )


def test_criterion_09_sharpness_contrast():
    ok = True
    grow = []
    for n in [9, 25, 49]:
        probe = sharpness_probe(make_ring(n), trials=200, seed=1009)
        grow.append((n, probe.best_ratio))
    ratios = [ratio for _, ratio in grow]
    if not (ratios[0] < ratios[1] < ratios[2]):
        ok = False
    if not (ratios[1] > 2**0.25 and ratios[2] > 2**0.25):
        ok = False
    controls = []
    for n in [10, 26, 51]:
        ring = make_ring(n)
        probe = sharpness_probe(ring, trials=200, seed=1009)
        limit = 2.0 ** (ring.omega / 4.0) + 1e-9
        controls.append((n, probe.best_ratio, limit))
        if probe.best_ratio > limit:
            ok = False
    record(
        9,
        ok,
        "square-factor ratios "
        + ", ".join(f"{n}:{ratio:.4f}" for n, ratio in grow)
        + " climb past 2^(1/4); squarefree controls "
        + ", ".join(f"{n}:{ratio:.4f}<={limit:.4f}" for n, ratio, limit in controls),
    )


def test_criterion_10_thread_count_determinism(tmp_path, monkeypatch):
    runs = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("RESTRICTLAB_THREADS", threads)
        paths = []
        for name, args in (
            ("sweep", ["sweep", "--n", "15", "--sizes", "2..6", "--trials", "20", "--seed", "1010"]),
            ("verify", ["restrict-verify", "--n", "15", "--trials", "50", "--seed", "1010"]),
            ("dual", ["dual-verify", "--n", "35", "--trials", "50", "--seed", "1010"]),
        ):
            out = tmp_path / f"{name}-{threads}.csv"
            assert main(args + ["--output", str(out)]) == 0
            paths.append(out)
        runs[threads] = [p.read_text() for p in paths]
    import re

    walltime = re.compile(r"walltime_s=[0-9.]+")
    same = all(
        walltime.sub("walltime_s=", a) == walltime.sub("walltime_s=", b)
        for a, b in zip(runs["1"], runs["4"])
    )
    record(
        10,
        same,
        "sweep, restriction, and extension reports are byte-identical across "
        "thread counts 1 and 4 (wall-time metadata token excluded)",
    )
