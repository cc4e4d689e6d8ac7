"""Certified inequalities, certificates, the support search, and the probe."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from restrictlab.families import structured_coefficients, structured_values
from restrictlab.fourier import Signal2D, _dft_matrix, _idft_matrix, dft, dft_array, idft_array
from restrictlab.parabola import build_parabola, embed_coefficients, energy_constant, energy_exact, extend_from
from restrictlab.recovery import recovery_thresholds
from restrictlab.restriction import (
    RANK_RTOL,
    RestrictionParams,
    certified_constant,
    dual_ratios,
    duality_chain,
    extension_matrix,
    restriction_lhs,
    restriction_quantities,
    sharpness_probe,
    stride_box_values,
    uncertainty_bytes,
    uncertainty_search,
    universal_certificate,
    verify_dual,
    verify_duals,
    verify_l1_l2,
    verify_main_theorem,
    verify_restriction,
    verify_signals,
    zone_edge,
)
from restrictlab import parabola, restriction
from restrictlab.parabola import _PIECE_BYTES
from restrictlab.restriction import (
    _CHUNK_BYTES,
    _SCREEN_PROBE,
    _SCREEN_SLACK,
    _extension_norms,
    _fourth_power_bound,
    _frobenius2,
    _gram_products,
    _grams,
    _lambda_max_bound,
    _margin,
    _margins,
    _power_sums,
    _random_supports,
    _scan_chunk,
    _scan_plan,
    _square_columns,
    _top_eigenvalue,
)
from restrictlab.rng import spawn_rng
from restrictlab.zmod import make_ring

SQUAREFREE = [2, 3, 5, 6, 7, 10, 13, 15, 21, 30, 35]


def test_certified_constant_values():
    assert math.isclose(certified_constant(make_ring(5)), 1.0 * 2**0.25)
    assert math.isclose(certified_constant(make_ring(15)), 2**0.5)
    assert math.isclose(certified_constant(make_ring(30)), 2**0.75)
    assert math.isclose(certified_constant(make_ring(105)), 2**0.75)


@pytest.mark.parametrize("n", SQUAREFREE)
def test_main_estimate_on_structured_family(n):
    ring = make_ring(n)
    sigma = build_parabola(ring)
    rng = spawn_rng(31, n)
    for label, vals in structured_values(ring, 35, rng):
        report = verify_main_theorem(Signal2D(ring, vals), sigma, witness_kind=label)
        assert report.satisfied, label
        assert report.ratio <= certified_constant(ring) + 1e-9


@pytest.mark.parametrize("n", SQUAREFREE)
def test_main_estimate_on_random_batch(n):
    ring = make_ring(n)
    sigma = build_parabola(ring)
    rng = spawn_rng(32, n)
    batch = rng.standard_normal((300, n, n)) + 1j * rng.standard_normal((300, n, n))
    lhs, rhs = restriction_quantities(ring, batch, sigma)
    ratios = lhs / rhs
    assert float(ratios.max()) <= certified_constant(ring) + 1e-9


def test_ratio_is_scale_invariant():
    n = 15
    ring = make_ring(n)
    rng = spawn_rng(33, n)
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    base = verify_main_theorem(Signal2D(ring, vals))
    scaled = verify_main_theorem(Signal2D(ring, 17.5j * vals))
    assert math.isclose(base.ratio, scaled.ratio, rel_tol=1e-12)


def test_zero_signal_is_trivially_satisfied():
    n = 6
    ring = make_ring(n)
    report = verify_main_theorem(Signal2D(ring, np.zeros((n, n))))
    assert report.lhs == 0.0 and report.rhs == 0.0
    assert report.ratio == 0.0
    assert report.satisfied


def test_main_theorem_gate_rejects_square_factor():
    ring = make_ring(12)
    with pytest.raises(ValueError):
        verify_main_theorem(Signal2D(ring, np.ones((12, 12))))


def test_verify_restriction_works_without_gate():
    ring = make_ring(12)
    report = verify_restriction(Signal2D(ring, np.ones((12, 12))))
    assert report.constant is None
    assert report.satisfied


def test_restriction_lhs_matches_direct_average():
    n = 10
    ring = make_ring(n)
    sigma = build_parabola(ring)
    rng = spawn_rng(34, n)
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    fhat = dft(Signal2D(ring, vals))
    direct = (
        sum(abs(fhat.values[t, t * t % n]) ** 2 for t in range(n)) / n
    ) ** 0.5
    assert math.isclose(restriction_lhs(fhat, sigma), direct, rel_tol=1e-12)
    with pytest.raises(ValueError):
        restriction_lhs(fhat, sigma, s=0.5)


def test_params_validation():
    with pytest.raises(ValueError):
        RestrictionParams(s=2.0, r=2.5)
    with pytest.raises(ValueError):
        RestrictionParams(s=2.0, r=0.9)
    for s, r in ((math.inf, math.inf), (math.inf, 2.0), (2.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="^need 1 <= r <= s < inf"):
            RestrictionParams(s=s, r=r)
    # the kernels check their own exponents: s = 0 or r = 0 divided by zero,
    # and r = -1 returned an rhs
    ring = make_ring(15)
    ones = np.ones((15, 15))
    # and an infinite exponent returned x**inf ** (1/inf), not the sup norm
    cases = [(0.0, 4.0 / 3.0, "s"), (2.0, 0.0, "r"), (2.0, -1.0, "r"), (0.5, 1.0, "s")]
    cases += [(2.0, math.inf, "r"), (2.0, -math.inf, "r"), (math.inf, 2.0, "s"), (-math.inf, 2.0, "s")]
    for s, r, name in cases:
        with pytest.raises(ValueError, match=f"^{name} must be >= 1 and finite"):
            restriction_quantities(ring, ones, s=s, r=r)
    with pytest.raises(ValueError, match="^r must be >= 1 and finite"):
        restriction_quantities(ring, ones, None, 2.0, 4.0 / 3.0, math.inf)
    for s in (0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^s must be >= 1 and finite"):
            restriction_lhs(dft(Signal2D(ring, ones)), build_parabola(ring), s=s)


@pytest.mark.parametrize("n", [6, 10, 15, 21, 35])
def test_universal_certificate_is_tight(n):
    # The parabola has one point per row, so the size certificate is 1 and the
    # energy certificate turns into the full certified constant.
    cert = universal_certificate(build_parabola(make_ring(n)))
    ring = make_ring(n)
    assert cert.lambda_size == 1.0
    assert cert.lambda_energy == 2**ring.omega
    assert math.isclose(cert.implied_constant, cert.certified_constant, rel_tol=1e-12)
    assert cert.implied_constant <= cert.certified_constant + 1e-9
    assert cert.implied_constant == cert.lambda_energy**0.25
    assert cert.satisfied


def test_quantities_derived_from_the_paper_constant():
    # Each quantity against its formula, with 2^omega counted from the factorization.
    for n in range(2, 301):
        ring = make_ring(n)
        omega = len(ring.prime_factors)
        assert energy_constant(ring) == 2**omega
        assert energy_exact(build_parabola(ring)).bound == 2**omega * n * n
        assert recovery_thresholds(ring, n) == (n * n / (2.0 * n), n * n / (4.0 * 2**omega))
        if all(e == 1 for _, e in ring.prime_factors):
            assert certified_constant(ring) == 2.0 ** (omega / 4.0)
            assert zone_edge(ring) == math.ceil(n * n / 2**omega) - 1


def test_universal_certificate_gate():
    with pytest.raises(ValueError):
        universal_certificate(build_parabola(make_ring(18)))


@pytest.mark.parametrize(
    "check",
    [
        lambda sigma: certified_constant(sigma.ring),
        lambda sigma: verify_main_theorem(Signal2D(sigma.ring, np.ones((12, 12))), sigma),
        lambda sigma: verify_dual(np.ones(12), sigma),
        lambda sigma: verify_l1_l2(np.ones(12), sigma),
        universal_certificate,
        lambda sigma: zone_edge(sigma.ring),
        lambda sigma: uncertainty_search(sigma, 3),
    ],
    ids=[
        "certified_constant",
        "verify_main_theorem",
        "verify_dual",
        "verify_l1_l2",
        "universal_certificate",
        "zone_edge",
        "uncertainty_search",
    ],
)
def test_certified_checks_share_one_squarefree_gate(check):
    with pytest.raises(ValueError, match="modulus 12 is not squarefree"):
        check(build_parabola(make_ring(12)))


def test_dual_constant_coefficients_fifteen():
    sigma = build_parabola(make_ring(15))
    report = verify_dual(np.ones(15), sigma, witness_kind="constant")
    assert math.isclose(report.ratio, 3.0**0.25, rel_tol=1e-9)
    assert report.satisfied


def test_dual_single_character_ratio_is_one():
    # A delta vector has one nonzero class sum, c_t^2 = 1, so the pair path
    # is exact: every delta gives 1.0 to the bit, alone and in a batch.
    for n in [5, 6, 15, 35, 105]:
        ring = make_ring(n)
        sigma = build_parabola(ring)
        coeffs = np.zeros(n, dtype=np.complex128)
        coeffs[3 % n] = 1.0
        report = verify_dual(coeffs, sigma, witness_kind="delta")
        assert math.isclose(report.ratio, 1.0, rel_tol=1e-9)
        assert all(verify_dual(delta, sigma).ratio == 1.0 for delta in np.eye(n))
        assert np.all(dual_ratios(ring, np.eye(n), sigma) == 1.0)


@pytest.mark.parametrize("n", [n for n in range(2, 61) if make_ring(n).squarefree] + [105])
def test_dual_ratio_of_the_constant_vector_is_the_energy(n):
    # For c = 1 the class sums are the pair-sum multiplicities r(m), so
    # mean_x |N f|^4 = sum_m r(m)^2 = E(Sigma), and the ratio is
    # (E / N^2)^(1/4) with E the exact integer count.
    ring = make_ring(n)
    sigma = build_parabola(ring)
    want = (energy_exact(sigma).energy / n**2) ** 0.25
    assert math.isclose(float(dual_ratios(ring, np.ones(n), sigma)), want, rel_tol=1e-15)


@pytest.mark.parametrize("n", SQUAREFREE)
def test_dual_estimate_fuzz(n):
    ring = make_ring(n)
    sigma = build_parabola(ring)
    rng = spawn_rng(35, n)
    limit = certified_constant(ring) + 1e-9
    for label, coeffs in structured_coefficients(ring, 25, rng):
        report = verify_dual(coeffs, sigma, witness_kind=label)
        assert report.satisfied, label
        assert report.ratio <= limit
    batch = rng.standard_normal((200, n)) + 1j * rng.standard_normal((200, n))
    ratios = dual_ratios(ring, batch, sigma)
    assert float(ratios.max()) <= limit


def test_dual_gate():
    sigma = build_parabola(make_ring(4))
    with pytest.raises(ValueError):
        verify_dual(np.ones(4), sigma)


@pytest.mark.parametrize("n", [6, 15, 35, 49, 105])
def test_dual_wrapper_is_a_batch_of_one(n):
    # 25 rows span several row chunks at N = 105; N = 49 is not squarefree,
    # so only dual_ratios takes its single rows.
    ring = make_ring(n)
    sigma = build_parabola(ring)
    coeffs = spawn_rng(37, n).standard_normal((25, n)) + 0.5j
    ratios = dual_ratios(ring, coeffs, sigma)
    for c, ratio in zip(coeffs, ratios):
        assert float(dual_ratios(ring, c, sigma)) == float(ratio)
        if ring.squarefree:
            assert verify_dual(c, sigma).ratio == float(ratio)


def test_only_other_exponents_build_the_extension_grid(monkeypatch):
    # L^2 and L^4 come from the coefficients; L^1 still reads the grid.
    ring = make_ring(15)
    sigma = build_parabola(ring)
    calls = []
    kernel = restriction._extension_kernel

    def counting(sigma, rows):
        calls.append(rows.shape)
        return kernel(sigma, rows)

    monkeypatch.setattr(restriction, "_extension_kernel", counting)
    coeffs = spawn_rng(39, 15).standard_normal((4, 15)) + 1j
    dual_ratios(ring, coeffs, sigma)
    verify_dual(coeffs[0], sigma)
    assert calls == []
    verify_l1_l2(coeffs[0], sigma)
    assert calls == [(1, 15)]


def _extension_norms_by_inverse_transform(ring, coeffs, sigma, p, q):
    a = np.abs(idft_array(ring.modulus, embed_coefficients(sigma, coeffs)))
    return (a**p).mean(axis=(-2, -1)) ** (1.0 / p), (a**q).mean(axis=(-2, -1)) ** (1.0 / q)


@pytest.mark.parametrize(
    "n",
    [n for n in range(2, 61) if make_ring(n).squarefree] + [105] + [4, 8, 9, 12, 18, 25, 27, 49, 50, 121],
)
def test_extension_kernel_matches_inverse_transform(n):
    # The pair sums, Parseval and the N x N product per coefficient row give
    # the norms of the embedded grid's inverse transform, for every batch
    # shape and both exponent pairs; the non-squarefree moduli have pair
    # classes of up to about p pairs.
    ring = make_ring(n)
    sigma = build_parabola(ring)
    rng = spawn_rng(38, n)
    for shape in ((n,), (4, n), (2, 3, n)):
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for p, q in ((4, 2), (2, 1)):
            got = _extension_norms(ring, coeffs, sigma, p, q)
            want = _extension_norms_by_inverse_transform(ring, coeffs, sigma, p, q)
            for g, w in zip(got, want):
                assert g.shape == shape[:-1]
                np.testing.assert_allclose(g, w, rtol=1e-13, atol=0.0)
    coeffs = rng.standard_normal((3, n)) + 0j
    coeffs[1] = 0.0
    ratios = dual_ratios(ring, coeffs, sigma)
    assert ratios[1] == 0.0 and ratios[0] > 0.0 and ratios[2] > 0.0
    # extend_from runs the same kernel: within 1e-13 of the largest value on
    # a random row (single cells cancel), and the same bits on the constant
    # and delta vectors that the trajectory pins use
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = idft_array(n, embed_coefficients(sigma, c))
    assert np.abs(extend_from(sigma, c).values - want).max() <= 1e-13 * np.abs(want).max()
    for c in [np.ones(n)] + list(np.eye(n)):
        assert np.array_equal(extend_from(sigma, c).values, idft_array(n, embed_coefficients(sigma, c)))


@pytest.mark.parametrize("n, size", [(15, 6), (35, 12), (105, 24), (4, 2), (9, 4), (12, 4)])
def test_square_columns_are_the_distinct_squares(n, size):
    # |Q| = prod (p + 1) / 2 on odd squarefree N; cells[t] points at the
    # column of t^2 in row t of the (N, |Q|) product
    columns, cells = _square_columns(n)
    squares = np.unique(np.arange(n) ** 2 % n)
    assert squares.size == size and columns.shape == (n, size)
    assert columns.flags.c_contiguous and np.array_equal(columns, _dft_matrix(n)[:, squares])
    assert np.array_equal(squares[cells % size], np.arange(n) ** 2 % n) and np.array_equal(cells // size, np.arange(n))
    for table in (columns, cells):
        with pytest.raises(ValueError):
            table[0] = 0


def _on_parabola(n, grid, sigma):
    # the transform on the parabola from the columns Q = {t^2} of W alone:
    # W @ grid @ W[:, Q] read at (t, t^2) and divided by N
    w = _dft_matrix(n)
    squares = np.unique(sigma.cols)
    u = np.matmul(w, np.matmul(grid, np.ascontiguousarray(w[:, squares])))
    return u[sigma.rows, np.searchsorted(squares, sigma.cols)] / n


def _unchunked_quantities(n, grid, sigma, s=2.0, r=4.0 / 3.0):
    # the kernel's expressions on one (N, N) grid, with numpy's reductions
    # over the whole grid and scalar roots
    return (np.abs(_on_parabola(n, grid, sigma)) ** s).mean() ** (1.0 / s), (np.abs(grid) ** r).sum() ** (1.0 / r) / n


def _assert_near_dense(n, lhs, grids, sigma, s=2.0):
    # lhs against the full W @ X @ W / N read on the parabola: the products
    # of a subset of columns may round differently, within 1e-14
    dense = [(np.abs(dft_array(n, grid)[sigma.rows, sigma.cols]) ** s).mean() ** (1.0 / s) for grid in grids]
    np.testing.assert_allclose(np.reshape(lhs, -1), dense, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 15, 25, 35, 51, 105])
def test_restriction_lhs_matches_the_column_restricted_product_bit_for_bit(n):
    # lhs equals, bit for bit, the product with the columns t^2 of W read on
    # the parabola of each grid alone, on single grids, a batch in one chunk
    # and a batch over several chunks, and the dense transform within 1e-14.
    # At 4, 5, 7, 25 and 51 OpenBLAS rounds the two products differently.
    ring = make_ring(n)
    sigma = build_parabola(ring)
    rng = spawn_rng(39, n)
    step = _PIECE_BYTES // (16 * n * n)
    for shape in ((n, n), (5, n, n), (2 * step + 3, n, n)):
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        grids = vals.reshape(-1, n, n)
        want = [(np.abs(_on_parabola(n, grid, sigma)) ** 2.0).mean() ** 0.5 for grid in grids]
        lhs, _ = restriction_quantities(ring, vals, sigma)
        assert lhs.shape == shape[:-2]
        assert np.array_equal(lhs.reshape(-1), want)
        _assert_near_dense(n, lhs, grids, sigma)


@pytest.mark.parametrize(
    "n, lead",
    [
        (105, (250,)),  # the benchmark's N = 105 batch
        (105, (51 * (_PIECE_BYTES // (16 * 105 * 105)) + 1,)),  # the last chunk holds one grid
        (35, (10, 25)),
        (6, (3, 700)),  # a chunk boundary inside the leading axes
    ],
)
def test_chunked_batch_matches_the_unchunked_batch_bit_for_bit(n, lead):
    ring = make_ring(n)
    sigma = build_parabola(ring)
    rng = spawn_rng(41, n)
    shape = lead + (n, n)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    last = values.reshape(-1, n, n)[-1:]
    for s, r in ((2.0, 4.0 / 3.0), (4.0, 6.0 / 5.0)):
        lhs, rhs = restriction_quantities(ring, values, sigma, s, r)
        assert lhs.shape == rhs.shape == values.shape[:-2]
        want = [_unchunked_quantities(n, grid, sigma, s, r) for grid in values.reshape(-1, n, n)]
        assert np.array_equal(np.stack([lhs.reshape(-1), rhs.reshape(-1)], axis=1), want)
        _assert_near_dense(n, lhs, values.reshape(-1, n, n), sigma, s)
        # a grid gets the same bits in a batch of one as inside the larger batch
        one_lhs, one_rhs = restriction_quantities(ring, last, sigma, s, r)
        assert one_lhs.shape == one_rhs.shape == (1,)
        assert one_lhs[0] == lhs.reshape(-1)[-1] and one_rhs[0] == rhs.reshape(-1)[-1]


@pytest.mark.parametrize("n", [9, 15])
def test_single_grid_quantities_keep_the_lone_grid_reductions(n):
    # a single (N, N) grid runs as a chunk of one and gets the bits of
    # numpy's reductions over the lone grid, as 0-d arrays
    ring = make_ring(n)
    sigma = build_parabola(ring)
    grid = spawn_rng(43, n).standard_normal((n, n)) + 1j
    lhs, rhs = restriction_quantities(ring, grid, sigma)
    want_lhs, want_rhs = _unchunked_quantities(n, grid, sigma)
    assert lhs.shape == rhs.shape == ()
    assert lhs == want_lhs and rhs == want_rhs
    with pytest.raises(ValueError, match="trailing axes"):
        restriction_quantities(ring, grid.reshape(-1), sigma)


@pytest.mark.parametrize("n", [7, 12, 25, 35, 51])
def test_each_batch_row_equals_its_grid_scored_alone(n):
    # Gaussian and structured grids in one batch: every row's lhs and rhs
    # equal those of the grid scored alone, bit for bit, and the dense
    # expressions on that grid, zero cells included; so does the rhs of a
    # second exponent scored in the same call
    ring = make_ring(n)
    sigma = build_parabola(ring)
    rng = spawn_rng(45, n)
    grids = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(6)]
    grids += [vals for _, vals in structured_values(ring, 12, spawn_rng(46, n))]
    batch = np.stack(grids)
    for s, r in ((2.0, 4.0 / 3.0), (2.0, 6.0 / 5.0), (4.0, 6.0 / 5.0), (2.0, 1.0), (3.0, 1.5)):
        lhs, rhs = restriction_quantities(ring, batch, sigma, s, r)
        alone = [restriction_quantities(ring, grid, sigma, s, r) for grid in grids]
        assert np.array_equal(np.stack([lhs, rhs], axis=1), alone), (s, r)
        want = [_unchunked_quantities(n, grid, sigma, s, r) for grid in grids]
        assert np.array_equal(alone, want), (s, r)
        _assert_near_dense(n, lhs, grids, sigma, s)
        both = restriction_quantities(ring, batch, sigma, s, 1.5, r)
        assert np.array_equal(both[0], lhs) and np.array_equal(both[2], rhs), (s, r)
        assert np.array_equal(both[1], [_unchunked_quantities(n, grid, sigma, s, 1.5)[1] for grid in grids]), (s, r)


def _edge_grids(n):
    # all zero, all nonzero Gaussian, signed zeros, and subnormal magnitudes
    rng = spawn_rng(47, n)
    gaussian = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    signed = gaussian.copy()
    parts = signed.reshape(-1).view(np.float64).reshape(-1, 2)
    parts[0::4] = (-0.0, 0.0)
    parts[1::4] = (0.0, -0.0)
    parts[2::4, 0] = -0.0  # a nonzero cell with a -0.0 real part
    tiny = np.zeros(n * n, dtype=np.complex128)
    tiny[0::3] = 5e-324
    tiny[1::3] = 1j * 2.5e-310
    tiny[-1] = 1.0
    return [np.zeros((n, n), dtype=np.complex128), gaussian, signed, tiny.reshape(n, n)]


@pytest.mark.parametrize("n", [2, 7, 12, 35, 105])
def test_power_sums_skip_zero_cells_bit_for_bit(n):
    # the power paid only on nonzero cells sums to the dense expression's
    # bits, for a lone grid and as rows of a batch, and so does each
    # exponent of a call that takes |v| once for all five
    ring = make_ring(n)
    grids = [vals for _, vals in structured_values(ring, 14, spawn_rng(48, n))]  # each kind twice
    grids += _edge_grids(n)
    assert {bool(np.all(grid)) for grid in grids} == {True, False}  # both paths run
    batch = np.stack(grids)
    exponents = (1.0, 6.0 / 5.0, 4.0 / 3.0, 3.0 / 2.0, 2.0)
    for grid in grids:
        for r, sums in zip(exponents, _power_sums(grid, *exponents)):
            want = (np.abs(grid) ** r).sum(axis=(-2, -1))
            assert np.array_equal(_power_sums(grid, r)[0], want) and np.array_equal(sums, want), r
    for r, sums in zip(exponents, _power_sums(batch, *exponents)):
        want = (np.abs(batch) ** r).sum(axis=(-2, -1))
        assert np.array_equal(_power_sums(batch, r)[0], want) and np.array_equal(sums, want), r


@pytest.mark.parametrize("n, batch", [(35, 200), (35, 1000), (105, 60)])
def test_batched_quantities_hold_a_few_chunks(n, batch):
    # tracemalloc peak of one batched call, the input excluded: a few chunks
    # plus the outputs, whatever the batch size
    ring = make_ring(n)
    sigma = build_parabola(ring)
    values = spawn_rng(44, n).standard_normal((batch, n, n)) + 1j
    restriction_quantities(ring, values[:2], sigma)
    tracemalloc.start()
    restriction_quantities(ring, values, sigma)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 3 * _PIECE_BYTES + 16 * batch


def test_uncertainty_bytes_covers_one_search():
    assert uncertainty_bytes(make_ring(105), 1377) == 40 * 105**3 + _CHUNK_BYTES  # the gather
    assert uncertainty_bytes(make_ring(35), 306) == 40 * 35**3 + 16 * 35**4 + 16 * 35**3 + _CHUNK_BYTES
    assert uncertainty_bytes(make_ring(1001), 10) > 16 * 1001**3
    # exhaustive, GEMM and gather scans: within what tracemalloc sees numpy
    # allocate, with the DFT tables cold
    for n, k, samples in ((6, 4, 500), (15, 56, 300), (30, 100, 100), (35, 60, 50)):
        ring = make_ring(n)
        sigma = build_parabola(ring)
        _dft_matrix.cache_clear()
        _idft_matrix.cache_clear()
        tracemalloc.start()
        uncertainty_search(sigma, k, samples=samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= uncertainty_bytes(ring, k), (n, k)


@pytest.mark.parametrize("other", [5, 21])
def test_kernels_reject_parabola_of_another_modulus(other):
    ring = make_ring(15)
    sigma = build_parabola(make_ring(other))
    message = rf"mod {other}\b.*mod 15\b"
    with pytest.raises(ValueError, match=message):
        restriction_quantities(ring, np.ones((15, 15)), sigma)
    with pytest.raises(ValueError, match=message):
        restriction_quantities(ring, np.ones((2, 15, 15)), sigma)
    with pytest.raises(ValueError, match=message):
        dual_ratios(ring, np.ones((2, 15)), sigma)
    with pytest.raises(ValueError, match=message):
        verify_restriction(Signal2D(ring, np.ones((15, 15))), sigma)
    with pytest.raises(ValueError, match=message):
        restriction_lhs(dft(Signal2D(ring, np.ones((15, 15)))), sigma)


def test_extension_wrappers_check_coefficients():
    sigma = build_parabola(make_ring(15))
    bad = [np.ones(14), np.ones((1, 15)), np.full(15, np.nan)]
    for check in (verify_dual, verify_l1_l2):
        for coeffs in bad:
            with pytest.raises(ValueError):
                check(coeffs, sigma)
    with pytest.raises(ValueError):
        verify_l1_l2(np.ones(4), build_parabola(make_ring(4)))
    # the chunked checks refuse what the single-member ones refuse, the gate included
    grid = np.ones((15, 15))
    for coeffs in bad:
        with pytest.raises(ValueError):
            list(verify_duals(sigma, [("ok", np.ones(15)), ("bad", coeffs)]))
    for values in (np.ones(225), np.ones((1, 15, 15)), np.full((15, 15), np.inf)):
        with pytest.raises(ValueError):
            list(verify_signals(sigma, [("ok", grid), ("bad", values)]))
    for check in (verify_duals, verify_signals):
        with pytest.raises(ValueError, match="squarefree"):
            list(check(build_parabola(make_ring(4)), []))


@pytest.mark.parametrize("n", [5, 6, 15, 35])
def test_l1_l2_bound(n):
    ring = make_ring(n)
    sigma = build_parabola(ring)
    rng = spawn_rng(36, n)
    limit = 2.0 ** (ring.omega / 2.0)
    for label, coeffs in structured_coefficients(ring, 20, rng):
        report = verify_l1_l2(coeffs, sigma, witness_kind=label)
        assert report.satisfied, label
        assert report.ratio <= limit + 1e-9
        assert math.isclose(report.constant, limit, rel_tol=1e-12)


def test_l1_l2_flat_extension_ratio_is_one():
    n = 15
    sigma = build_parabola(make_ring(n))
    coeffs = np.zeros(n, dtype=np.complex128)
    coeffs[7] = 2.0
    report = verify_l1_l2(coeffs, sigma)
    assert math.isclose(report.ratio, 1.0, rel_tol=1e-9)


def test_duality_chain_ordering():
    n = 15
    ring = make_ring(n)
    sigma = build_parabola(ring)
    rng = spawn_rng(37, n)
    for trial in range(10):
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        chain = duality_chain(coeffs, sigma)
        f = extend_from(sigma, coeffs)
        assert math.isclose(
            chain.l4_fourth_power, float((np.abs(f.values) ** 4).sum()), rel_tol=1e-9
        )
        assert math.isclose(chain.pairing, chain.l4_fourth_power, rel_tol=1e-9)
        assert chain.pairing <= chain.cauchy_schwarz * (1 + 1e-12)
        assert chain.cauchy_schwarz <= chain.restriction_bound * (1 + 1e-12)
        assert math.isclose(
            chain.h_norm_43, chain.l4_fourth_power ** 0.75, rel_tol=1e-9
        )


def test_extension_matrix_has_orthonormal_columns():
    sigma = build_parabola(make_ring(6))
    ext = extension_matrix(sigma)
    assert ext.shape == (36, 6)
    gram = ext.conj().T @ ext
    assert np.allclose(gram, np.eye(6), atol=1e-12)


def test_uncertainty_small_exhaustive():
    verdict = uncertainty_search(build_parabola(make_ring(2)), 1)
    assert verdict.method == "exhaustive"
    assert not verdict.found
    assert verdict.supports_checked == 4

    verdict = uncertainty_search(build_parabola(make_ring(3)), 4)
    assert verdict.method == "exhaustive"
    assert not verdict.found
    assert verdict.supports_checked == math.comb(9, 4)
    assert verdict.min_margin > 0


def test_uncertainty_randomized_mode():
    # C(36, 8) = 30.3M supports is above the exhaustive cap
    verdict = uncertainty_search(build_parabola(make_ring(6)), 8, samples=3000, seed=5)
    assert verdict.method == "randomized"
    assert verdict.supports_checked == 3000
    assert not verdict.found


def test_uncertainty_rejects_a_batch_below_one():
    for sigma, size in ((build_parabola(make_ring(6)), 8), (build_parabola(make_ring(3)), 4)):
        for batch in (0, -5):
            with pytest.raises(ValueError, match="batch"):
                uncertainty_search(sigma, size, samples=100, batch=batch)


def test_uncertainty_randomized_needs_a_sample():
    sigma = build_parabola(make_ring(6))
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples"):
            uncertainty_search(sigma, 8, samples=samples)
    # the exhaustive path draws nothing, so samples does not matter there
    verdict = uncertainty_search(build_parabola(make_ring(3)), 4, samples=0)
    assert verdict.method == "exhaustive" and verdict.supports_checked == math.comb(9, 4)


def test_uncertainty_zone_validation():
    sigma = build_parabola(make_ring(6))
    with pytest.raises(ValueError):
        uncertainty_search(sigma, 0)
    with pytest.raises(ValueError):
        uncertainty_search(sigma, 9)  # 36 / 2^2 is the first size not covered
    with pytest.raises(ValueError):
        uncertainty_search(build_parabola(make_ring(12)), 3)


def test_uncertainty_determinism():
    sigma = build_parabola(make_ring(6))
    a = uncertainty_search(sigma, 7, samples=2000, seed=9)
    b = uncertainty_search(sigma, 7, samples=2000, seed=9)
    assert a.method == "randomized"  # C(36, 7) = 8.3M supports is above the exhaustive cap
    assert a.min_margin == b.min_margin
    assert a.supports_checked == b.supports_checked


def test_uncertainty_exhaustive_matches_full_scan_golden():
    # Translation-normalized scan of the 6,545 supports through (0, 0); the
    # count and the margin are those of the full 58,905-support scan.
    verdict = uncertainty_search(build_parabola(make_ring(6)), 4)
    assert verdict.method == "exhaustive"
    assert not verdict.found
    assert verdict.supports_checked == 58905
    assert math.isclose(verdict.min_margin, 0.688633848236, rel_tol=1e-9)


def _support_batch(n, k, count, seed):
    return _random_supports(np.random.default_rng(seed), count, n * n, k)


def _masks(cells, n):
    """(B, N^2) boolean masks of a (B, k) array of flat cell indices."""
    masks = np.zeros((cells.shape[0], n * n), dtype=bool)
    np.put_along_axis(masks, cells, True, axis=1)
    return masks


def _cells(masks):
    """(B, k) flat cell indices, ascending, of masks with k cells each."""
    return np.nonzero(masks)[1].reshape(masks.shape[0], -1)


@pytest.mark.parametrize(
    "count, universe, k", [(2000, 36, 8), (500, 225, 56), (500, 225, 4), (300, 36, 1), (300, 36, 35)]
)
def test_mask_draw_selects_the_argpartition_cells(count, universe, k):
    # The sampled scans (the golden 07-uncertainty N=15 row among them) keep
    # their supports only if the mask marks the cells the index draw took.
    masks = _random_supports(np.random.default_rng(k), count, universe, k)
    u = np.random.default_rng(k).random((count, universe))
    reference = np.argpartition(u, k, axis=1)[:, :k]
    assert masks.shape == (count, universe) and masks.dtype == bool
    assert np.array_equal(_cells(masks), np.sort(reference, axis=1))


class _TiedUniforms:
    """Generator stub whose uniforms take 4 values, so rows tie at the k-th smallest."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, shape):
        return self.rng.integers(0, 4, size=shape) / 4


@pytest.mark.parametrize("universe, k", [(36, 8), (36, 1), (225, 56)])
def test_mask_draw_breaks_ties_as_argpartition_does(universe, k):
    masks = _random_supports(_TiedUniforms(universe + k), 200, universe, k)
    u = _TiedUniforms(universe + k).random((200, universe))
    threshold = np.partition(u, k - 1, axis=1)[:, k - 1 : k]
    assert np.count_nonzero(np.count_nonzero(u <= threshold, axis=1) > k) >= 100  # rows taking the fallback
    assert np.all(np.count_nonzero(masks, axis=1) == k)
    assert np.array_equal(_cells(masks), np.sort(np.argpartition(u, k, axis=1)[:, :k], axis=1))


def test_exhaustive_masks_hold_k_cells_through_cell_zero(monkeypatch):
    seen = []
    scan_chunk = restriction._scan_chunk

    def recording(ext, masks, k, products, level):
        seen.append(masks)
        return scan_chunk(ext, masks, k, products, level)

    monkeypatch.setattr(restriction, "_scan_chunk", recording)
    verdict = uncertainty_search(build_parabola(make_ring(6)), 4, batch=1000)
    masks = np.concatenate(seen)
    assert verdict.method == "exhaustive" and len(seen) == 7
    assert masks.shape == (math.comb(35, 3), 36)
    assert np.all(np.count_nonzero(masks, axis=1) == 4) and np.all(masks[:, 0])
    expected = [(0,) + c for c in itertools.combinations(range(1, 36), 3)]
    assert np.array_equal(_cells(masks), np.array(expected))


def _zone_edge(n):
    return math.ceil(n * n / 2 ** make_ring(n).omega) - 1


@pytest.mark.parametrize("n", [3, 6, 10, 14, 15])
def test_screened_min_margin_is_the_unscreened_minimum(n):
    ext = extension_matrix(build_parabola(make_ring(n)))
    products = _gram_products(ext)
    # 1, 64 and 65 Grams: a single probe, a chunk of probes only, one Gram past them
    for k, count in itertools.product((n - 1, n, min(n + 3, n * n - 1), _zone_edge(n)), (1, 64, 65, 500)):
        masks = _support_batch(n, k, count, seed=10 * n + k)
        gathered = _grams(ext, masks, None)
        gemm = _grams(ext, masks, products)
        assert np.allclose(gemm, gathered, atol=1e-14)
        for gram in (gathered, gemm):
            lam = np.linalg.eigvalsh(gram)[:, -1]
            assert _margin(_top_eigenvalue(gram, k)) == _margins(gram).min()
            # a level carried from earlier chunks: below, inside and above the chunk's range
            for level in (lam.min() - 0.1, float(np.median(lam)), lam.max() + 0.1):
                assert _top_eigenvalue(gram, k, level) == max(level, lam.max())


@pytest.mark.parametrize("n, k, count", [(6, 4, 6545), (15, 56, 2000), (21, 110, 400)])
def test_min_margin_solves_each_gram_at_most_once(n, k, count, monkeypatch):
    # A random chunk with every repeated Gram dropped (at N=6, k=4 supports
    # repeat, and symmetric supports give equal Grams), so a matrix solved
    # twice can only be a second solve of one Gram.
    ext = extension_matrix(build_parabola(make_ring(n)))
    gram = _grams(ext, _support_batch(n, k, count, seed=n), _gram_products(ext))
    first = {}
    for i, g in enumerate(gram):
        first.setdefault(g.tobytes(), i)
    gram = gram[sorted(first.values())]
    assert len(gram) > _SCREEN_PROBE  # the screens run past the probes
    expected = _margins(gram).min()
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        solved.extend(m.tobytes() for m in a.reshape(-1, n, n))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    assert _margin(_top_eigenvalue(gram, k)) == expected
    assert 0 < len(solved) == len(set(solved))
    # A search of three chunks carries the largest lambda_max from chunk to
    # chunk: only the first chunk solves probe Grams, so it solves fewer
    # matrices than chunks that each set their own level, and its
    # min_margin is the unscreened minimum.
    sigma = build_parabola(make_ring(n))
    top_eigenvalue = restriction._top_eigenvalue
    levels = []

    def carried(gram, k, level=-math.inf):
        levels.append(level)
        return top_eigenvalue(gram, k, level)

    def search(top):
        monkeypatch.setattr(restriction, "_top_eigenvalue", top)
        solved.clear()
        verdict = uncertainty_search(sigma, k, samples=count, seed=n, batch=-(-count // 3))
        assert not verdict.found and verdict.supports_checked in (count, math.comb(n * n, k))
        return verdict.min_margin, len(solved)

    margin, carried_solves = search(carried)
    assert len(levels) == 3 and levels[0] == -math.inf
    assert levels[1] > -math.inf and levels[1:] == sorted(levels[1:])
    per_chunk_margin, per_chunk_solves = search(lambda gram, k, level: max(level, top_eigenvalue(gram, k)))
    unscreened = search(lambda gram, k, level: max(level, float(eigvalsh(gram)[:, -1].max())))[0]
    assert margin == per_chunk_margin == unscreened
    assert carried_solves < per_chunk_solves


@pytest.mark.parametrize("n", [3, 6, 10, 14, 15, 21, 22, 30])
def test_screening_bounds_are_sound(n):
    # Both stages must bound eigvalsh's lambda_max on every Gram: random
    # supports of each size up to the zone edge; m whole lines (Grams
    # (m/N) I and block-diagonal ones, where the fourth-power bound is
    # tight); and supports of N^2 - 2 .. N^2 cells, rank deficient with
    # lambda_max = 1.  The fourth-power bound must hold with its own slack,
    # without the eigvalsh slack the screen adds.
    ext = extension_matrix(build_parabola(make_ring(n)))
    products = _gram_products(ext)
    rng = np.random.default_rng(n)
    count = 8 if n <= 15 else 3
    cells = np.arange(n * n).reshape(n, n)
    batches = [(k, _support_batch(n, k, count, seed=n * k)) for k in range(1, _zone_edge(n) + 1)]
    lines = [cells[:m].reshape(1, -1) for m in range(1, n + 1)]
    lines += [cells[:, :m].T.reshape(1, -1) for m in range(1, n + 1)]
    lines += [rng.permuted(np.tile(cells.ravel(), (3, 1)), axis=1)[:, : n * n - off] for off in (0, 1, 2)]
    batches += [(t.shape[1], _masks(t, n)) for t in lines]
    tightest = np.inf
    for k, masks in batches:
        for gram in (_grams(ext, masks, None), _grams(ext, masks, products)):
            lam = np.linalg.eigvalsh(gram)[:, -1]
            phi2 = _frobenius2(gram)
            fourth = _fourth_power_bound(gram, phi2)
            assert np.all(fourth >= lam)
            assert np.all(_lambda_max_bound(phi2, k, n) + _SCREEN_SLACK >= lam)
            tightest = min(tightest, (fourth - lam).min())
    assert tightest < 1e-12  # the tight cases were reached


def test_margins_match_direct_svd():
    for n in (6, 10, 15):
        ext = extension_matrix(build_parabola(make_ring(n)))
        for k in (2, n - 1, n + 2):
            masks = _support_batch(n, k, 40, seed=n * k)
            margins = _margins(_grams(ext, masks, None))
            for t, margin in zip(masks, margins):
                off = np.flatnonzero(~t)
                s_min = np.linalg.svd(ext[off], compute_uv=False)[-1]
                assert math.isclose(margin, s_min, rel_tol=1e-10)


def test_margin_is_translation_invariant():
    rng = np.random.default_rng(3)
    for n in (6, 10, 15):
        ext = extension_matrix(build_parabola(make_ring(n)))
        for k in (3, n, n + 5):
            t = _cells(_support_batch(n, k, 20, seed=n + k))
            a1, a2 = rng.integers(0, n, size=(2, 20, 1))
            shifted = ((t // n + a1) % n) * n + (t % n + a2) % n
            both = _margins(_grams(ext, _masks(np.concatenate([t, shifted]), n), None))
            assert np.allclose(both[:20], both[20:], rtol=0, atol=1e-12)


def test_gram_by_gemm_choice():
    assert _scan_plan(6, 4, 6545)[1]  # N=6 exhaustive at size 4
    assert _scan_plan(6, 8, 50_000)[1]
    assert _scan_plan(15, 56, 5_000)[1]
    assert not _scan_plan(105, 5, 100)[1]  # P alone would be 1.9 GB
    assert not _scan_plan(15, 4, 500)[1]  # indicator wider than the row stack
    for n in (2, 3, 6, 15, 35, 105):
        for b in (1, 64, 5_000, 100_000):
            for k in (1, 4, n, n * n // 4):
                chunk, gemm = _scan_plan(n, k, b)
                if gemm:
                    assert n**3 <= chunk * k  # P is no larger than the gather


@pytest.mark.parametrize("n", [10, 14, 15])
def test_zone_edge_scan_matches_unscreened_scan(n, monkeypatch):
    sigma = build_parabola(make_ring(n))
    k = _zone_edge(n)
    screened = uncertainty_search(sigma, k, samples=1500, seed=n, batch=500)

    def solve_all(gram, k, level):
        return max(level, float(np.linalg.eigvalsh(gram)[:, -1].max()))

    monkeypatch.setattr(restriction, "_top_eigenvalue", solve_all)
    unscreened = uncertainty_search(sigma, k, samples=1500, seed=n, batch=500)
    assert not screened.found and not unscreened.found
    assert screened.supports_checked == unscreened.supports_checked == 1500
    assert screened.min_margin == unscreened.min_margin


def test_chunk_size_caps_chunk_bytes():
    # The CLI battery's chunks and the zone-scan benchmark's exhaustive one
    # stay at their batch; the benchmark's randomized chunks, criterion 6's,
    # the CLI default at N=15 and large N are capped.
    for n, k, batch in ((6, 4, 6545), (15, 4, 500), (6, 4, 500)):
        assert _scan_plan(n, k, batch)[0] == batch
    for n, k, batch, chunk in ((6, 8, 50_000, 11_366), (15, 56, 5_000, 1_818), (6, 6, 100_000, 11_366),
                               (6, 7, 100_000, 11_366), (6, 8, 100_000, 11_366), (42, 220, 100_000, 81)):
        assert _scan_plan(n, k, batch)[0] == chunk
    assert _scan_plan(15, 56, 100_000) == (_CHUNK_BYTES // (33 * 225 + 8 * 225), True) == (1_818, True)  # one GEMM
    assert _scan_plan(42, 220, 100_000) == (_CHUNK_BYTES // (33 * 42**2 + 16 * 220 * 42), False)  # row gather
    assert _scan_plan(6, 8, 0)[0] == 1
    for n in (2, 6, 15, 30, 42, 105):
        for k in (1, n, n * n // 8, n * n // 2):
            b, gemm = _scan_plan(n, k, 100_000)
            per_support = 33 * n * n + (8 * n * n if gemm else 16 * k * n)
            assert b == 1 or b * per_support <= _CHUNK_BYTES


def test_uncertainty_verdict_does_not_depend_on_chunking(monkeypatch):
    # The draws split sequentially and the minimum over chunks is exact, so
    # on the row-gather build (N=15, k=4) every chunking gives the same bits.
    # The one-GEMM build (N=15, k=56 and N=6, k=4) may round a row of the
    # product differently at another chunk size (BLAS blocking), and chunks
    # of 77 switch N=6, k=4 to the gather, so there min_margin agrees to
    # rounding and the verdict exactly.
    sigma15, sigma6 = build_parabola(make_ring(15)), build_parabola(make_ring(6))

    def scans(batch):
        return (uncertainty_search(sigma15, 4, samples=1200, seed=3, batch=batch),
                uncertainty_search(sigma15, 56, samples=1200, seed=3, batch=batch),
                uncertainty_search(sigma6, 4, batch=batch))

    runs = [scans(batch) for batch in (1200, 500, 77)]
    monkeypatch.setattr(restriction, "_CHUNK_BYTES", 1_000_000)  # caps each scan below 1200
    runs.append(scans(1200))
    for i, verdicts in enumerate(zip(*runs)):
        first = verdicts[0]
        for v in verdicts[1:]:
            assert (v.found, v.method, v.supports_checked) == (False, first.method, first.supports_checked)
            if i == 0:
                assert v.min_margin == first.min_margin
            else:
                assert math.isclose(v.min_margin, first.min_margin, rel_tol=1e-13)


@pytest.mark.parametrize("n", [6, 10])
def test_scan_chunk_returns_witness_for_deficient_support(n):
    # Outside the zone: fewer than N off-support rows, so rank < N.
    ext = extension_matrix(build_parabola(make_ring(n)))
    for off_count in (1, 2):
        k = n * n - off_count
        cells = np.random.default_rng(n + off_count).permuted(np.tile(np.arange(n * n), (3, 1)), axis=1)[:, :k]
        for products in (None, _gram_products(ext)):
            top, t_flat, coeff = _scan_chunk(ext, _masks(cells, n), k, products)
            assert _margin(top) <= RANK_RTOL
            assert np.array_equal(t_flat, np.sort(cells[0]))  # the drawn set, ascending
            off = np.setdiff1d(np.arange(n * n), t_flat)
            assert math.isclose(np.linalg.norm(coeff), 1.0, rel_tol=1e-12)
            assert np.linalg.norm(ext[off] @ coeff) < 1e-10


def test_probe_prime_square_growth():
    ratios = {}
    for n in [9, 25, 49]:
        probe = sharpness_probe(make_ring(n), trials=30, seed=0)
        ratios[n] = probe.best_ratio
    assert math.isclose(ratios[9], 3.0**0.25, rel_tol=1e-9)
    assert math.isclose(ratios[25], 5.0**0.25, rel_tol=1e-9)
    assert math.isclose(ratios[49], 7.0**0.25, rel_tol=1e-9)
    assert ratios[9] < ratios[25] < ratios[49]
    assert ratios[25] > 2**0.25
    assert ratios[49] > 2**0.25


def test_probe_rejects_a_negative_trial_count():
    with pytest.raises(ValueError, match="trials"):
        sharpness_probe(make_ring(9), trials=-5)
    probe = sharpness_probe(make_ring(9), trials=0)  # the 4 stride boxes alone
    assert all(report.witness_kind.startswith("stride_box(") for report in probe.best)
    assert [report.r for report in probe.best] == [4.0 / 3.0, 6.0 / 5.0]
    assert all(report.constant is None for report in probe.best)


def test_probe_reports_both_exponents():
    probe = sharpness_probe(make_ring(9), trials=5, seed=1)
    assert [report.r for report in probe.best] == [4.0 / 3.0, 6.0 / 5.0]
    assert all(report.constant is None for report in probe.best)
    assert (probe.best_ratio, probe.best_witness) == (probe.best[0].ratio, probe.best[0].witness_kind)


@pytest.mark.parametrize("n", [9, 12, 18, 25])
def test_stride_box_translates_score_like_the_box_at_the_origin(n):
    # A translate multiplies the transform by a unimodular character and
    # permutes |f|, so the probe scores only the box at (0, 0).
    ring = make_ring(n)
    sigma = build_parabola(ring)
    divisors = [d for d in range(1, n + 1) if n % (d * d) == 0]
    for d1, d2 in itertools.product(divisors, repeat=2):
        translates = [stride_box_values(ring, d1, d2, a, b) for a, b in itertools.product(range(d1), range(d2))]
        for r in (4.0 / 3.0, 6.0 / 5.0):
            lhs0, rhs0 = restriction_quantities(ring, translates[0], sigma, 2.0, r)
            lhs, rhs = restriction_quantities(ring, np.stack(translates), sigma, 2.0, r)
            np.testing.assert_allclose(lhs, lhs0, rtol=1e-12, err_msg=f"d1={d1} d2={d2} r={r}")
            np.testing.assert_allclose(rhs, rhs0, rtol=1e-12, err_msg=f"d1={d1} d2={d2} r={r}")


def _probe_peak(ring, trials):
    tracemalloc.start()
    sharpness_probe(ring, trials=trials, seed=0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def test_probe_memory_does_not_grow_with_trials():
    # only one chunk of candidates and the best report at each exponent are
    # kept: at N = 9 a chunk holds 809 grids, so 2,000 trials fill 3 chunks
    # and 20,000 fill 25, within a few grids of the same peak
    ring = make_ring(9)
    assert restriction._chunk_grids(9) == 809
    sharpness_probe(ring, trials=2)
    assert _probe_peak(ring, 20_000) <= _probe_peak(ring, 2_000) + 3 * 16 * 9 * 9


def test_probe_holds_one_chunk_of_candidates():
    # 4 stride boxes and 200 draws at N = 49 fill 8 chunks of 27 grids; all
    # 204 grids together take 204 * 16 N^2 bytes, the probe one chunk and
    # what scores it, within restriction_bytes
    ring = make_ring(49)
    assert restriction._chunk_grids(49) == 27
    sharpness_probe(ring, trials=2)
    tracemalloc.start()
    probe = sharpness_probe(ring, trials=200, seed=0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert [report.r for report in probe.best] == [4.0 / 3.0, 6.0 / 5.0]
    assert all(report.constant is None for report in probe.best)
    assert peak <= restriction.restriction_bytes(ring) < 204 * 16 * 49 * 49


def _eager_probe(ring, trials, seed):
    # every candidate's report at both exponents, one candidate at a time, in candidate order
    sigma = build_parabola(ring)
    reports = ([], [])
    for label, vals in restriction._probe_candidates(ring, trials, seed):
        lhs, rhs_43 = restriction_quantities(ring, vals, sigma, 2.0, 4.0 / 3.0)
        rhs_65 = restriction_quantities(ring, vals, sigma, 2.0, 6.0 / 5.0)[1]
        for kept, r, rhs in zip(reports, (4.0 / 3.0, 6.0 / 5.0), (rhs_43, rhs_65)):
            params = RestrictionParams(s=2.0, r=r, constant=None)
            kept.append(restriction._report(ring, params, float(lhs), float(rhs), label))
    return reports


def _first_maxima(reports):
    # the first largest ratio at each exponent, and the later candidates that tie with it
    best = tuple(max(kept, key=lambda report: report.ratio) for kept in reports)  # max keeps the first
    tied = [[i for i, report in enumerate(kept) if report.ratio == top.ratio][1:] for kept, top in zip(reports, best)]
    return best, [kept.index(top) for kept, top in zip(reports, best)], tied


def _eager_probe_best(ring, trials, seed):
    best, _, tied = _first_maxima(_eager_probe(ring, trials, seed))
    return best, sum(map(len, tied))


def test_probe_picks_what_scoring_every_candidate_picks():
    # the probe builds a report only for a new best; an eager reference that
    # builds them all and keeps the first maximum picks the same reports
    ties = 0
    for n in range(2, 61):
        ring = make_ring(n)
        for seed in (0, 3):
            want, tied = _eager_probe_best(ring, 40, seed)
            assert sharpness_probe(ring, trials=40, seed=seed).best == want, (n, seed)
            ties += tied
            if (n, seed) == (11, 0):  # the full grid's stride box ties with a later one-cell draw
                assert tied > 0 and want[0].witness_kind == "stride_box(d1=1,d2=1,a=0,b=0)"
    assert ties > 0


def _verdict(v):
    return v.found, v.method, v.supports_checked, v.min_margin


def test_probe_pick_does_not_depend_on_the_chunk_size(monkeypatch):
    # With pieces of 1 and of 3 grids the probe still picks the eager
    # reference's first maximum, also where a later tie sits in another
    # chunk.  The same pieces (1 row, or 4 or 5 rows, at N >= 3; at N = 2 a
    # lone row's one-pair product can round differently) leave dual_ratios
    # rows bit for bit, and 1-Gram slices of the fourth-power screen leave each
    # uncertainty verdict, supports_checked and min_margin as they were.
    default = parabola._PIECE_BYTES
    searches = {6: (4, 8), 15: (56, 4)}
    straddled = {1: 0, 3: 0}
    for n in range(2, 31):
        monkeypatch.setattr(parabola, "_PIECE_BYTES", default)
        ring = make_ring(n)
        sigma = build_parabola(ring)
        coeffs = spawn_rng(47, n).standard_normal((12, n)) + 1j
        ratios = dual_ratios(ring, coeffs, sigma)
        verdicts = [_verdict(uncertainty_search(sigma, k, samples=500, seed=1)) for k in searches.get(n, ())]
        for seed in (0, 3):
            want, first, tied = _first_maxima(_eager_probe(ring, 24, seed))
            for grids in (1, 3):
                monkeypatch.setattr(parabola, "_PIECE_BYTES", grids * 16 * n * n)
                assert restriction._chunk_grids(n) == grids
                assert sharpness_probe(ring, trials=24, seed=seed).best == want, (n, seed, grids)
                straddled[grids] += sum(i // grids != f // grids for f, later in zip(first, tied) for i in later)
                if n > 2:
                    assert np.array_equal(dual_ratios(ring, coeffs, sigma), ratios), (n, grids)
        monkeypatch.setattr(parabola, "_PIECE_BYTES", 16 * n * n)  # one Gram per slice
        assert [_verdict(uncertainty_search(sigma, k, samples=500, seed=1)) for k in searches.get(n, ())] == verdicts
    assert straddled[1] > 0 and straddled[3] > 0


def test_probe_squarefree_stays_bounded():
    for n in [10, 26]:
        ring = make_ring(n)
        probe = sharpness_probe(ring, trials=60, seed=2)
        assert probe.best_ratio <= certified_constant(ring) + 1e-9


def test_symmetric_stride_box_ratio_is_one():
    # Equal strides in both directions give no gain; the asymmetric box is
    # what pushes the ratio to p^(1/4) at N = p^2.
    ring = make_ring(25)
    sigma = build_parabola(ring)
    vals = stride_box_values(ring, 5, 5, 0, 0)
    report = verify_restriction(
        Signal2D(ring, vals), sigma, RestrictionParams(s=2.0, r=4.0 / 3.0)
    )
    assert math.isclose(report.ratio, 1.0, rel_tol=1e-9)
    asym = stride_box_values(ring, 5, 1, 0, 0)
    asym_report = verify_restriction(
        Signal2D(ring, asym), sigma, RestrictionParams(s=2.0, r=4.0 / 3.0)
    )
    assert math.isclose(asym_report.ratio, 5.0**0.25, rel_tol=1e-9)
