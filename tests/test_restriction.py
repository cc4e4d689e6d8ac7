"""Certified inequalities, certificates, the support search, and the probe."""

import itertools
import math

import numpy as np
import pytest

from restrictlab.families import structured_coefficients, structured_values
from restrictlab.fourier import Signal2D, _dft_matrix, dft, idft_array
from restrictlab.parabola import build_parabola, embed_coefficients, extend_from
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
    uncertainty_search,
    universal_certificate,
    verify_dual,
    verify_l1_l2,
    verify_main_theorem,
    verify_restriction,
)
from restrictlab import restriction
from restrictlab.restriction import (
    _CHUNK_BYTES,
    _SCREEN_PROBE,
    _SCREEN_SLACK,
    _chunk_size,
    _extension_norms,
    _fourth_power_bound,
    _frobenius2,
    _gram_by_gemm,
    _gram_products,
    _grams,
    _lambda_max_bound,
    _margins,
    _min_margin,
    _random_supports,
    _scan_chunk,
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
    # the kernels check their own exponents: s = 0 or r = 0 divided by zero,
    # and r = -1 returned an rhs
    ring = make_ring(15)
    ones = np.ones((15, 15))
    for s, r, name in ((0.0, 4.0 / 3.0, "s"), (2.0, 0.0, "r"), (2.0, -1.0, "r"), (0.5, 1.0, "s")):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            restriction_quantities(ring, ones, s=s, r=r)
    with pytest.raises(ValueError, match="^s must be >= 1"):
        restriction_lhs(dft(Signal2D(ring, ones)), build_parabola(ring), s=0.0)


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
    ],
    ids=["certified_constant", "verify_main_theorem", "verify_dual", "verify_l1_l2", "universal_certificate"],
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
    for n in [5, 6, 15, 35]:
        sigma = build_parabola(make_ring(n))
        coeffs = np.zeros(n, dtype=np.complex128)
        coeffs[3 % n] = 1.0
        report = verify_dual(coeffs, sigma, witness_kind="delta")
        assert math.isclose(report.ratio, 1.0, rel_tol=1e-9)


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


@pytest.mark.parametrize("n", [6, 15, 35])
def test_dual_wrapper_is_a_batch_of_one(n):
    ring = make_ring(n)
    sigma = build_parabola(ring)
    coeffs = spawn_rng(37, n).standard_normal((5, n)) + 0.5j
    ratios = dual_ratios(ring, coeffs, sigma)
    for c, ratio in zip(coeffs, ratios):
        assert verify_dual(c, sigma).ratio == float(ratio)


def _extension_norms_by_inverse_transform(ring, coeffs, sigma, p, q):
    a = np.abs(idft_array(ring.modulus, embed_coefficients(sigma, coeffs)))
    return (a**p).mean(axis=(-2, -1)) ** (1.0 / p), (a**q).mean(axis=(-2, -1)) ** (1.0 / q)


@pytest.mark.parametrize("n", [n for n in range(2, 61) if make_ring(n).squarefree] + [105])
def test_extension_kernel_matches_inverse_transform(n):
    # One N x N product per coefficient row gives the norms of the embedded
    # grid's inverse transform, for every batch shape and both exponent pairs.
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


@pytest.mark.parametrize("n", [6, 15, 35, 105])
def test_restriction_lhs_matches_dense_transform_bit_for_bit(n):
    # lhs from the scaled transform equals the W @ X @ W / N formula read on
    # the parabola, bit for bit, on single grids and batches.
    ring = make_ring(n)
    sigma = build_parabola(ring)
    w = _dft_matrix(n)
    rng = spawn_rng(39, n)
    for shape in ((n, n), (5, n, n)):
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        on_parab = (np.matmul(w, np.matmul(vals, w)) / n)[..., sigma.rows, sigma.cols]
        want = (np.abs(on_parab) ** 2.0).mean(axis=-1) ** 0.5
        lhs, _ = restriction_quantities(ring, vals, sigma)
        assert lhs.shape == shape[:-2]
        assert np.array_equal(lhs, want)


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


def _zone_edge(n):
    return math.ceil(n * n / 2 ** make_ring(n).omega) - 1


@pytest.mark.parametrize("n", [3, 6, 10, 14, 15])
def test_screened_min_margin_is_the_unscreened_minimum(n):
    ext = extension_matrix(build_parabola(make_ring(n)))
    products = _gram_products(ext)
    # 1, 64 and 65 Grams: a single probe, a chunk of probes only, one Gram past them
    for k, count in itertools.product((n - 1, n, min(n + 3, n * n - 1), _zone_edge(n)), (1, 64, 65, 500)):
        supports = _support_batch(n, k, count, seed=10 * n + k)
        gathered = _grams(ext, supports, None)
        gemm = _grams(ext, supports, products)
        assert np.allclose(gemm, gathered, atol=1e-14)
        for gram in (gathered, gemm):
            assert _min_margin(gram, k) == _margins(gram).min()


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
    assert _min_margin(gram, k) == expected
    assert 0 < len(solved) == len(set(solved))


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
    batches = [_support_batch(n, k, count, seed=n * k) for k in range(1, _zone_edge(n) + 1)]
    batches += [cells[:m].reshape(1, -1) for m in range(1, n + 1)]
    batches += [cells[:, :m].T.reshape(1, -1) for m in range(1, n + 1)]
    batches += [rng.permuted(np.tile(cells.ravel(), (3, 1)), axis=1)[:, : n * n - off] for off in (0, 1, 2)]
    tightest = np.inf
    for supports in batches:
        for gram in (_grams(ext, supports, None), _grams(ext, supports, products)):
            lam = np.linalg.eigvalsh(gram)[:, -1]
            phi2 = _frobenius2(gram)
            fourth = _fourth_power_bound(gram, phi2)
            assert np.all(fourth >= lam)
            assert np.all(_lambda_max_bound(phi2, supports.shape[1], n) + _SCREEN_SLACK >= lam)
            tightest = min(tightest, (fourth - lam).min())
    assert tightest < 1e-12  # the tight cases were reached


def test_margins_match_direct_svd():
    for n in (6, 10, 15):
        ext = extension_matrix(build_parabola(make_ring(n)))
        for k in (2, n - 1, n + 2):
            supports = _support_batch(n, k, 40, seed=n * k)
            margins = _margins(_grams(ext, supports, None))
            for t, margin in zip(supports, margins):
                off = np.setdiff1d(np.arange(n * n), t)
                s_min = np.linalg.svd(ext[off], compute_uv=False)[-1]
                assert math.isclose(margin, s_min, rel_tol=1e-10)


def test_margin_is_translation_invariant():
    rng = np.random.default_rng(3)
    for n in (6, 10, 15):
        ext = extension_matrix(build_parabola(make_ring(n)))
        for k in (3, n, n + 5):
            t = _support_batch(n, k, 20, seed=n + k)
            a1, a2 = rng.integers(0, n, size=(2, 20, 1))
            shifted = ((t // n + a1) % n) * n + (t % n + a2) % n
            both = _margins(_grams(ext, np.concatenate([t, shifted]), None))
            assert np.allclose(both[:20], both[20:], rtol=0, atol=1e-12)


def test_gram_by_gemm_choice():
    assert _gram_by_gemm(6, 6545, 4)  # N=6 exhaustive at size 4
    assert _gram_by_gemm(6, 50_000, 8)
    assert _gram_by_gemm(15, 5_000, 56)
    assert not _gram_by_gemm(105, 100, 5)  # P alone would be 1.9 GB
    assert not _gram_by_gemm(15, 500, 4)  # indicator wider than the row stack
    for n in (2, 3, 6, 15, 35, 105):
        for b in (1, 64, 5_000, 100_000):
            for k in (1, 4, n, n * n // 4):
                if _gram_by_gemm(n, b, k):
                    assert n**3 <= b * k  # P is no larger than the gather


@pytest.mark.parametrize("n", [10, 14, 15])
def test_zone_edge_scan_matches_unscreened_scan(n, monkeypatch):
    sigma = build_parabola(make_ring(n))
    k = _zone_edge(n)
    screened = uncertainty_search(sigma, k, samples=1500, seed=n, batch=500)
    monkeypatch.setattr(restriction, "_min_margin", lambda gram, k: float(_margins(gram).min()))
    unscreened = uncertainty_search(sigma, k, samples=1500, seed=n, batch=500)
    assert not screened.found and not unscreened.found
    assert screened.supports_checked == unscreened.supports_checked == 1500
    assert screened.min_margin == unscreened.min_margin


def test_chunk_size_caps_chunk_bytes():
    # Every chunk of the zone-scan benchmark, the CLI battery and criterion 6
    # stays at its batch; the CLI default at N=15 and large N are capped.
    for n, k, batch in ((6, 4, 6545), (6, 8, 50_000), (15, 56, 5_000), (15, 4, 500), (6, 4, 500),
                        (6, 6, 100_000), (6, 7, 100_000), (6, 8, 100_000)):
        assert _chunk_size(n, k, batch) == batch
    assert _chunk_size(15, 56, 100_000) == _CHUNK_BYTES // (16 * 225 + 16 * 56 * 15) < 100_000
    assert _chunk_size(42, 220, 100_000) == 1524
    assert _chunk_size(6, 8, 0) == 1
    for n in (2, 6, 15, 30, 42, 105):
        for k in (1, n, n * n // 8, n * n // 2):
            b = _chunk_size(n, k, 100_000)
            per_support = 16 * n * n + (8 * n * n if _gram_by_gemm(n, b, k) else 16 * k * n)
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
        supports = _support_batch(n, n * n - off_count, 3, seed=n + off_count)
        for products in (None, _gram_products(ext)):
            margin, t_flat, coeff = _scan_chunk(ext, supports, products)
            assert margin <= RANK_RTOL
            assert np.array_equal(t_flat, np.sort(supports[0]))
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
    assert len(sharpness_probe(make_ring(9), trials=0).reports) == 32  # the stride boxes alone


def test_probe_reports_both_exponents():
    probe = sharpness_probe(make_ring(9), trials=5, seed=1)
    exponents = {report.r for report in probe.reports}
    assert exponents == {4.0 / 3.0, 6.0 / 5.0}
    assert all(report.constant is None for report in probe.reports)


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
