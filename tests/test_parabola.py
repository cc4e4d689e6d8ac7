"""Parabola geometry: energy counts, exponential sums, restrict and extend."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from restrictlab import parabola
from restrictlab.fourier import Signal2D, _dft_matrix, _root_table, dft, lp_norm
from restrictlab.parabola import (
    build_parabola,
    decay_peak,
    decay_profile,
    energy_exact,
    exp_sum,
    extend_from,
    pair_sum_bytes,
    restrict_to,
)
from restrictlab.rng import spawn_rng
from restrictlab.restriction import dual_ratios
from restrictlab.zmod import make_ring


def energy_quadruple_scan(points, n):
    """O(k^4) additive energy straight from the definition."""
    count = 0
    for a in points:
        for b in points:
            for c in points:
                for d in points:
                    if (a[0] + b[0] - c[0] - d[0]) % n == 0 and (a[1] + b[1] - c[1] - d[1]) % n == 0:
                        count += 1
    return count


def test_parabola_points():
    sigma = build_parabola(make_ring(5))
    assert len(sigma) == 5
    assert sigma.point_set == {(0, 0), (1, 1), (2, 4), (3, 4), (4, 1)}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 9, 10, 12])
def test_full_energy_matches_quadruple_scan(n):
    sigma = build_parabola(make_ring(n))
    points = list(zip(sigma.rows.tolist(), sigma.cols.tolist()))
    report = energy_exact(sigma)
    assert report.energy == energy_quadruple_scan(points, n)
    assert report.subset_size == n


@pytest.mark.parametrize("n", [5, 6, 10, 15])
def test_subset_energy_matches_quadruple_scan(n):
    sigma = build_parabola(make_ring(n))
    rng = spawn_rng(21, n)
    for trial in range(5):
        size = int(rng.integers(1, n + 1))
        subset = sorted(int(t) for t in rng.choice(n, size=size, replace=False))
        report = energy_exact(sigma, subset)
        points = [(t, t * t % n) for t in subset]
        assert report.energy == energy_quadruple_scan(points, n)
        assert report.subset_size == size


def test_energy_closed_form_odd_squarefree():
    # Product of (2 p^2 - p) over prime factors, for odd squarefree moduli.
    for n in [3, 5, 15, 21, 35, 105]:
        ring = make_ring(n)
        expected = math.prod(2 * p * p - p for p, _ in ring.prime_factors)
        assert energy_exact(build_parabola(ring)).energy == expected


def test_energy_known_values():
    known = {3: 15, 5: 45, 6: 120, 10: 360, 15: 675, 21: 1365, 35: 4095}
    for n, expected in known.items():
        assert energy_exact(build_parabola(make_ring(n))).energy == expected


def test_even_modulus_exceeds_odd_product_formula():
    # The two-adic prime contributes 2 p^2 = 8 per factor rather than 2p^2 - p.
    ring = make_ring(6)
    odd_product = math.prod(2 * p * p - p for p, _ in ring.prime_factors)
    assert odd_product == 90
    assert energy_exact(build_parabola(ring)).energy == 120


def test_max_rep_is_power_of_two_for_squarefree():
    for n in [3, 5, 6, 10, 15, 21, 30, 35]:
        ring = make_ring(n)
        report = energy_exact(build_parabola(ring))
        assert report.max_rep == 2**ring.omega
        assert report.bound == 2**ring.omega * n * n


def test_energy_bound_holds_on_random_subsets():
    for n in [6, 15, 35]:
        ring = make_ring(n)
        sigma = build_parabola(ring)
        rng = spawn_rng(22, n)
        for trial in range(50):
            size = int(rng.integers(1, n + 1))
            subset = rng.choice(n, size=size, replace=False)
            report = energy_exact(sigma, [int(t) for t in subset])
            assert report.energy <= report.bound == 2**ring.omega * size * size


def energy_by_reduced_histogram(sigma, idx):
    """(energy, max_rep) from the pair sums reduced mod N before binning."""
    n = sigma.ring.modulus
    a, b = sigma.rows[idx], sigma.cols[idx]
    s1 = (a[:, None] + a[None, :]) % n
    s2 = (b[:, None] + b[None, :]) % n
    counts = np.bincount((s1 * n + s2).ravel(), minlength=n * n).astype(np.int64)
    return int((counts * counts).sum()), int(counts.max())


def test_folded_histogram_matches_reduced_sums():
    # energy_exact bins unreduced sums into (2N)^2 cells and folds them mod N,
    # and multiplies the full-set counts over the prime powers of N; the
    # integers must be those of reducing every pair sum mod N first.  360,
    # 420, 1001 and 1155 have three or four prime-power factors.
    for n in [*range(2, 301), 360, 420, 1001, 1155]:
        sigma = build_parabola(make_ring(n))
        report = energy_exact(sigma)
        assert (report.energy, report.max_rep) == energy_by_reduced_histogram(sigma, np.arange(n))
    for n in [4, 8, 9, 12, 18, 25, 27, 30, 49, 72, 100, 105, 128, 243]:
        sigma = build_parabola(make_ring(n))
        rng = spawn_rng(23, n)
        for trial in range(10):
            size = int(rng.integers(1, n + 1))
            idx = np.sort(rng.choice(n, size=size, replace=False))
            report = energy_exact(sigma, [int(t) for t in idx])
            assert (report.energy, report.max_rep) == energy_by_reduced_histogram(sigma, idx)
            assert report.subset_size == size


def test_prime_energy_closed_form():
    # Mod an odd prime a pair sum determines the unordered pair {s, t}: the
    # p(p-1)/2 sums with s != t have 2 representations, the p with s = t one,
    # so E = 2p^2 - p.  Mod 2 the four pairs land on 2 sums twice each: E = 8.
    primes = [p for p in range(2, 301) if distinct_primes(p) == [p]]
    assert len(primes) == 62
    for p in primes:
        report = energy_exact(build_parabola(make_ring(p)))
        assert (report.energy, report.max_rep) == ((8, 2) if p == 2 else (2 * p * p - p, 2)), p


def test_squarefree_energy_density_is_product_of_kappas():
    # E(Sigma_N) / N^2 = prod_{p | N} kappa_p with kappa_2 = 2, kappa_p = 2 - 1/p,
    # over every squarefree divisor of 30030 = 2 * 3 * 5 * 7 * 11 * 13.
    kappa = {2: Fraction(2), **{p: 2 - Fraction(1, p) for p in (3, 5, 7, 11, 13)}}
    checked = 0
    for n in range(2, 30031):
        if 30030 % n:
            continue
        ring = make_ring(n)
        report = energy_exact(build_parabola(ring))
        assert Fraction(report.energy, n * n) == math.prod(kappa[p] for p, _ in ring.prime_factors), n
        assert report.max_rep == 2**ring.omega
        checked += 1
    assert checked == 63


def test_resource_estimates_follow_the_prime_powers():
    # decay_profile holds the (N, N) magnitudes and one tiled factor
    # (16 N^2) with np.tile's (N, q) intermediate (8 N q), plus, at the
    # largest prime power q || N, W_q, its gathered t^2 rows and their
    # product (48 q^2): what tracemalloc sees numpy allocate, up to a few kB
    # of per-call objects, with the DFT matrix cache cold.
    for n in (101, 202, 243, 388, 1001):
        ring = make_ring(n)
        sigma = build_parabola(ring)
        q = max(p**e for p, e in ring.prime_factors)
        _dft_matrix.cache_clear()
        tracemalloc.start()
        decay_profile(sigma)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 16 * n * n + 8 * n * q + 48 * q * q + 16_384, n


def prime_powers(limit):
    """Every prime power q = p^k <= limit as (q, p, k), ascending in q, from a sieve."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    found = []
    for p in np.flatnonzero(sieve).tolist():
        q, k = p, 1
        while q <= limit:
            found.append((q, p, k))
            q, k = q * p, k + 1
    return sorted(found)


def test_full_energy_closed_forms_match_the_pair_sum_histogram():
    # The per-prime-power closed forms against the (2q)^2 pair-sum histogram.
    checked = prime_powers(1024)
    assert len(checked) == 198 and checked[-1] == (1024, 2, 10)
    for q, p, k in checked:
        ring = make_ring(q)
        assert ring.prime_factors == ((p, k),)
        t = np.arange(q, dtype=np.intp)
        counts = parabola._pair_counts(t, t * t % q, q)
        report = energy_exact(build_parabola(ring))
        assert (report.energy, report.max_rep) == (int((counts * counts).sum()), int(counts.max())), q


def test_full_energy_is_q_times_a_gcd_sum():
    # With u = t1 - t3 = t4 - t2 a coincidence needs 2u(t3 - t2) = 0 mod q,
    # so E(q) = q * sum_{u mod q} gcd(2u, q), summed here in Python integers.
    for q, _, _ in prime_powers(5000):
        gcd_sum = sum(math.gcd(2 * u, q) for u in range(q))
        assert energy_exact(build_parabola(make_ring(q))).energy == q * gcd_sum, q


def test_odd_max_rep_is_the_largest_square_root_count():
    # For odd q, r(m1, m2) is the number of square roots of 2 m2 - m1^2 mod q.
    for q, p, _ in prime_powers(10**5):
        if p == 2:
            continue
        d = np.arange(q, dtype=np.int64)
        roots = np.bincount(d * d % q)
        assert energy_exact(build_parabola(make_ring(q))).max_rep == int(roots.max()), q


def test_full_energy_at_a_prime_near_the_modulus_cap_allocates_nothing():
    ring = make_ring(999999999989)
    p = ring.modulus
    assert ring.prime_factors == ((p, 1),)
    tracemalloc.start()
    report = energy_exact(build_parabola(ring))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (report.energy, report.max_rep) == (2 * p * p - p, 2)
    assert peak < 64 * 1024


def test_index_arrays_match_the_point_formula():
    for n in range(2, 61):
        sigma = build_parabola(make_ring(n))
        points = [(t, t * t % n) for t in range(n)]
        assert sigma.rows.dtype == sigma.cols.dtype == np.intp
        assert list(zip(sigma.rows.tolist(), sigma.cols.tolist())) == points
        assert sigma.point_set == frozenset(points)
        assert len(sigma) == n


def test_pair_sum_estimate_covers_one_chunk():
    # The class tables' build, then one chunk of rows through the L^4 and
    # L^2 norms: at small N within what tracemalloc sees numpy allocate, up
    # to a few kB of per-call objects, with the table cache cold.
    assert pair_sum_bytes(make_ring(105)) == 56 * 5565 + 3 * parabola._PIECE_BYTES
    assert pair_sum_bytes(make_ring(20001)) == 104 * (20001 * 20002 // 2)
    for n in (101, 202, 243, 388, 1001):
        ring = make_ring(n)
        sigma = build_parabola(ring)
        rows = max(1, parabola._PIECE_BYTES // (8 * n * (n + 1)))
        coeffs = spawn_rng(40, n).standard_normal((rows, n)) + 1j
        parabola._pair_classes.cache_clear()
        tracemalloc.start()
        dual_ratios(ring, coeffs, sigma)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= pair_sum_bytes(ring) + 16_384, n


def test_subset_as_point_pairs():
    sigma = build_parabola(make_ring(7))
    by_param = energy_exact(sigma, [1, 2, 4])
    by_pairs = energy_exact(sigma, [(1, 1), (2, 4), (4, 2)])
    assert by_param.energy == by_pairs.energy


def test_subset_point_off_curve_rejected():
    sigma = build_parabola(make_ring(7))
    with pytest.raises(ValueError):
        energy_exact(sigma, [(1, 2)])


def test_subset_items_are_integer_indices_or_two_integer_points():
    # integers (0-d integer arrays too) and points of exactly two integers;
    # a float is not truncated, and a point of three coordinates is refused
    sigma = build_parabola(make_ring(7))
    want = energy_exact(sigma, [1, 2, 4])
    assert energy_exact(sigma, [np.array(1), np.int64(2), np.array([4, 2])]) == want
    assert energy_exact(sigma, [(1, 1), [2, 4], 11]) == want
    for bad in ([(1, 1, 1)], [3.7], [np.array([1, 2, 3])], [np.array(3.0)], [(1.0, 1.0)], [(1,)], ["ab"]):
        with pytest.raises(ValueError, match="integer index or a point of two integers"):
            energy_exact(sigma, bad)


def test_pair_sum_rows_have_the_same_bits_in_a_batch_as_alone():
    # einsum sums a batch row of more than np.getbufsize() values in pieces
    # but a lone row in one pass, so a size group of more classes than half
    # that is summed a row at a time.  43 squarefree N up to 210 have such a
    # group (97 the first); N = 2, whose one-pair product skips the fused
    # multiply-add of the vector loop, is the documented exception.
    large = 0
    for n in range(3, 211):
        if not make_ring(n).squarefree:
            continue
        rng = spawn_rng(45, n)
        rows = rng.standard_normal((24, n)) + 1j * rng.standard_normal((24, n))
        alone = np.concatenate([parabola._pair_sum_energy(n, row[None]) for row in rows])
        assert np.array_equal(parabola._pair_sum_energy(n, rows), alone), n
        large += max(left.shape[1] for left, _ in parabola._pair_classes(n)) > np.getbufsize() // 2
    assert large == 43


def test_exp_sum_matches_direct_sum():
    for n in [5, 6, 12, 35]:
        sigma = build_parabola(make_ring(n))
        rng = spawn_rng(23, n)
        for trial in range(10):
            m1, m2 = int(rng.integers(n)), int(rng.integers(n))
            direct = sum(
                np.exp(-2j * np.pi * ((m1 * t + m2 * t * t) % n) / n) for t in range(n)
            )
            assert abs(exp_sum(sigma, (m1, m2)) - direct) < 1e-9


def test_exp_sum_reads_row_one_of_the_dft_matrix_bit_for_bit():
    # the (N,) root table is row 1 of W, so exp_sum keeps the bits of the
    # sum it read from the cached (N, N) matrix, at every N <= 385
    for n in range(2, 386):
        sigma = build_parabola(make_ring(n))
        row = _dft_matrix(n)[1]
        assert np.array_equal(_root_table(n), row), n
        rng = spawn_rng(25, n)
        for m in [(0, 0), (1, 1), (0, n - 1), decay_peak(sigma.ring)[2], tuple(rng.integers(n, size=2))]:
            phases = (m[0] * sigma.rows + m[1] * sigma.cols) % n
            assert exp_sum(sigma, m) == complex(row[phases].sum()), (n, m)


def test_exp_sum_memory_is_linear_in_n():
    # a few (N,) arrays, the parabola's index arrays included: at N = 20001
    # about 1.1 MB, where the (N, N) DFT matrix would take 6.4 GB
    n = 20001
    sigma = build_parabola(make_ring(n))
    tracemalloc.start()
    exp_sum(sigma, (3, 5))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 80 * n


def test_exp_sum_at_zero_equals_curve_size():
    for n in [5, 8, 15]:
        sigma = build_parabola(make_ring(n))
        assert abs(exp_sum(sigma, (0, 0)) - n) < 1e-12


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_prime_moduli_have_flat_decay(p):
    profile = decay_profile(build_parabola(make_ring(p)))
    assert abs(profile.max_magnitude - math.sqrt(p)) < 1e-9
    assert abs(profile.max_ratio - 1.0) < 1e-9


def test_decay_profile_thirty_five():
    # Two prime blocks: magnitudes multiply, so the largest nontrivial value
    # freezes one block at its full weight 7 and the other at sqrt(5).
    profile = decay_profile(build_parabola(make_ring(35)))
    assert abs(profile.max_magnitude - 7.0 * math.sqrt(5.0)) < 1e-9
    assert abs(profile.max_ratio - math.sqrt(7.0)) < 1e-9
    m1, m2 = profile.witness
    assert m1 % 7 == 0 and m2 % 7 == 0
    mags = profile.magnitudes
    top = [
        (int(a), int(b))
        for a, b in np.argwhere(np.abs(mags - profile.max_magnitude) < 1e-9)
    ]
    assert all(a % 7 == 0 and b % 7 == 0 for a, b in top)
    assert (m1, m2) == min(top)


def test_decay_profile_thirty_five_secondary_level():
    # Freezing the five block instead gives 5 sqrt(7), attained but smaller.
    profile = decay_profile(build_parabola(make_ring(35)))
    mags = profile.magnitudes
    level = 5.0 * math.sqrt(7.0)
    hits = np.argwhere(np.abs(mags - level) < 1e-9)
    assert len(hits) > 0
    assert all(a % 5 == 0 and b % 5 == 0 for a, b in hits)
    assert level < profile.max_magnitude


def distinct_primes(n):
    """Prime divisors of n by trial division, ascending."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def gauss_sum_magnitudes(n, primes):
    """|S(m)| on the whole grid as the CRT product of per-prime Gauss sums.

    For odd p, |S_p(m)| is p at m = (0,0) mod p, sqrt(p) when m2 != 0 mod p
    and 0 otherwise.  For p = 2, t^2 = t mod 2, so S_2(m) = 1 + (-1)^(m1+m2).
    """
    m1 = np.arange(n)[:, None]
    m2 = np.arange(n)[None, :]
    mags = np.ones((n, n))
    for p in primes:
        if p == 2:
            mags = mags * np.where((m1 + m2) % 2 == 0, 2.0, 0.0)
        else:
            m2_zero = np.where(m1 % p == 0, float(p), 0.0)
            mags = mags * np.where(m2 % p != 0, math.sqrt(p), m2_zero)
    return mags


def test_decay_matches_gauss_sum_oracle():
    checked = 0
    for n in range(2, 201):
        primes = distinct_primes(n)
        if math.prod(primes) != n:
            continue
        profile = decay_profile(build_parabola(make_ring(n)))
        expected = gauss_sum_magnitudes(n, primes)
        assert np.allclose(profile.magnitudes, expected, rtol=0, atol=1e-8), n
        ratio = math.sqrt(n) if primes[0] == 2 else math.sqrt(n / primes[0])
        assert abs(profile.max_ratio - ratio) < 1e-9, n
        checked += 1
    assert checked == 121


def test_decay_profile_matches_direct_product():
    # The factored profile, and decay_peak's closed form, against the one
    # product |W @ W[t^2 rows]| at N and its peak under a 1e-12 tie rule, for
    # every N including non-squarefree composites such as 12, 72, 200, and
    # at the prime powers 243, 256, 343 and 512.
    for n in [*range(2, 301), 243, 256, 343, 512]:
        w = _dft_matrix(n)
        direct = np.abs(w @ w[np.arange(n) ** 2 % n])
        ring = make_ring(n)
        profile = decay_profile(build_parabola(ring))
        assert np.max(np.abs(profile.magnitudes - direct)) <= 1e-12 * n, n
        masked = direct.copy()
        masked[0, 0] = -1.0
        top = masked.max()
        flat = int(np.argmax(masked >= top * (1.0 - 1e-12)))
        magnitude, ratio, witness = decay_peak(ring)
        assert witness == (flat // n, flat % n), n
        assert math.isclose(magnitude, top, rel_tol=1e-12), n
        assert math.isclose(ratio, top / math.sqrt(n), rel_tol=1e-12), n
        assert (profile.max_magnitude, profile.max_ratio, profile.witness) == (magnitude, ratio, witness), n
        if len(ring.prime_factors) == 1:
            assert np.array_equal(profile.magnitudes, direct), n


@pytest.mark.parametrize("n", [2, 12, 64, 100, 3, 35, 45, 243, 385])
def test_exp_sum_at_the_peak_witness_reaches_the_peak(n):
    # even N peak at (N/2, N/2), odd N at (0, N/p)
    sigma = build_parabola(make_ring(n))
    magnitude, _, witness = decay_peak(sigma.ring)
    assert math.isclose(abs(exp_sum(sigma, witness)), magnitude, rel_tol=1e-12)


def test_decay_matches_brute_force_scan():
    for n in [6, 10, 12]:
        sigma = build_parabola(make_ring(n))
        profile = decay_profile(sigma)
        best = 0.0
        for m1 in range(n):
            for m2 in range(n):
                if (m1, m2) == (0, 0):
                    continue
                best = max(best, abs(exp_sum(sigma, (m1, m2))))
        assert abs(profile.max_magnitude - best) < 1e-9


def test_restrict_reads_spectrum_on_curve():
    n = 7
    ring = make_ring(n)
    sigma = build_parabola(ring)
    rng = spawn_rng(24, n)
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = Signal2D(ring, vals)
    fhat = dft(f)
    got = restrict_to(sigma, fhat)
    want = np.array([fhat.values[t, t * t % n] for t in range(n)])
    assert np.allclose(got, want, atol=0)


def test_extend_spectrum_supported_on_curve():
    n = 10
    ring = make_ring(n)
    sigma = build_parabola(ring)
    rng = spawn_rng(25, n)
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    f = extend_from(sigma, coeffs)
    fhat = dft(f).values
    mask = np.zeros((n, n), dtype=bool)
    mask[sigma.rows, sigma.cols] = True
    assert np.allclose(fhat[~mask], 0.0, atol=1e-12)
    assert np.allclose(fhat[sigma.rows, sigma.cols], coeffs, atol=1e-12)


def test_extend_is_adjoint_of_restrict():
    # <restrict(dft f), c> over the curve equals <f, extend(c)> over the grid.
    n = 15
    ring = make_ring(n)
    sigma = build_parabola(ring)
    rng = spawn_rng(26, n)
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    f = Signal2D(ring, vals)
    lhs = np.sum(restrict_to(sigma, dft(f)) * np.conj(coeffs))
    g = extend_from(sigma, coeffs)
    rhs = np.sum(vals * np.conj(g.values))
    assert abs(lhs - rhs) < 1e-10


def test_extension_fourth_power_equals_energy_over_square():
    for n in [5, 6, 15]:
        ring = make_ring(n)
        sigma = build_parabola(ring)
        f = extend_from(sigma, np.ones(n))
        energy = energy_exact(sigma).energy
        assert abs(lp_norm(f, 4) ** 4 - energy / (n * n)) < 1e-9


def test_extend_rejects_bad_coefficients():
    sigma = build_parabola(make_ring(6))
    with pytest.raises(ValueError):
        extend_from(sigma, np.ones(5))
    with pytest.raises(ValueError):
        extend_from(sigma, np.array([np.nan] * 6))


def test_restrict_rejects_mismatched_modulus():
    sigma = build_parabola(make_ring(6))
    other = make_ring(7)
    spectrum = dft(Signal2D(other, np.ones((7, 7))))
    with pytest.raises(ValueError):
        restrict_to(sigma, spectrum)
