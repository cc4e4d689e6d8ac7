"""Transform pairs on (Z/NZ)^2 checked against a direct double-sum oracle."""

import json
import math

import numpy as np
import pytest

from restrictlab.families import character_values
from restrictlab.fourier import (
    Signal2D,
    Spectrum2D,
    _dft_matrix,
    _idft_matrix,
    dft,
    dft_array,
    idft,
    idft_array,
    lp_norm,
    normalized_lp_norm,
    signal_from_json,
    signal_to_json,
    spectrum_from_json,
)
from restrictlab.parabola import build_parabola
from restrictlab.restriction import extension_matrix
from restrictlab.rng import spawn_rng
from restrictlab.zmod import make_ring


def dft_double_sum(values):
    """O(N^4) transform straight from the definition, no matrix tricks."""
    n = values.shape[0]
    out = np.zeros((n, n), dtype=np.complex128)
    for m1 in range(n):
        for m2 in range(n):
            acc = 0.0 + 0.0j
            for x1 in range(n):
                for x2 in range(n):
                    phase = -2j * np.pi * ((m1 * x1 + m2 * x2) % n) / n
                    acc += values[x1, x2] * np.exp(phase)
            out[m1, m2] = acc / n
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 12])
def test_dft_matches_double_sum(n):
    rng = spawn_rng(11, n)
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = Signal2D(make_ring(n), vals)
    got = dft(f).values
    want = dft_double_sum(vals)
    assert np.allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 5, 6, 15, 35])
def test_inverse_round_trip(n):
    ring = make_ring(n)
    rng = spawn_rng(12, n)
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = Signal2D(ring, vals)
    back = idft(dft(f))
    assert np.allclose(back.values, vals, atol=1e-10)
    spectrum = Spectrum2D(ring, vals)
    back_spectrum = dft(idft(spectrum))
    assert np.allclose(back_spectrum.values, vals, atol=1e-10)


@pytest.mark.parametrize("n", [3, 6, 10, 15])
def test_plancherel_counting_measure(n):
    # The 1/N factor on both directions makes the transform unitary on C^(N^2).
    ring = make_ring(n)
    rng = spawn_rng(13, n)
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = Signal2D(ring, vals)
    fhat = dft(f)
    assert np.isclose(
        (np.abs(vals) ** 2).sum(),
        (np.abs(fhat.values) ** 2).sum(),
        rtol=1e-12,
    )


def test_delta_transforms_to_constant():
    n = 15
    ring = make_ring(n)
    vals = np.zeros((n, n), dtype=np.complex128)
    vals[0, 0] = 1.0
    fhat = dft(Signal2D(ring, vals))
    assert np.allclose(fhat.values, np.full((n, n), 1.0 / n), atol=1e-12)


def test_translation_becomes_modulation():
    n = 12
    ring = make_ring(n)
    rng = spawn_rng(14, n)
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a, b = 5, 9
    shifted = np.roll(np.roll(vals, a, axis=0), b, axis=1)
    fhat = dft(Signal2D(ring, vals)).values
    ghat = dft(Signal2D(ring, shifted)).values
    m1 = np.arange(n)[:, None]
    m2 = np.arange(n)[None, :]
    phase = np.exp(-2j * np.pi * ((a * m1 + b * m2) % n) / n)
    assert np.allclose(ghat, phase * fhat, atol=1e-10)


def test_batched_matches_single():
    n = 10
    rng = spawn_rng(15, n)
    batch = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
    got = dft_array(n, batch)
    for i in range(4):
        single = dft_array(n, batch[i])
        assert np.allclose(got[i], single, atol=1e-12)
    assert np.allclose(idft_array(n, got), batch, atol=1e-10)


@pytest.mark.parametrize("n", [2, 6, 15, 35])
def test_idft_matches_conjugate_formula_bit_for_bit(n):
    # The cached conj(W) must give exactly what conjugating W per call gave.
    rng = spawn_rng(16, n)
    wc = _dft_matrix(n).conj()
    for shape in ((n, n), (3, n, n)):
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = np.matmul(wc, np.matmul(vals, wc)) / n
        assert np.array_equal(idft_array(n, vals), want)


@pytest.mark.parametrize("n", [2, 3, 6, 15, 35, 105])
def test_scaled_transforms_match_division_by_n(n):
    # The 1/N is a real multiply on the product's float64 view.  Every nonzero
    # real or imaginary part must carry the bits of the old complex / n; a zero
    # part may differ only in its sign, so values compare equal everywhere.
    rng = spawn_rng(17, n)
    w = _dft_matrix(n)
    delta = np.zeros((n, n), dtype=np.complex128)
    delta[0, 0] = 1.0
    grids = [
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
        rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n)),
        delta,
        np.stack([delta, np.ones((n, n), dtype=np.complex128)]),
    ]
    for vals in grids:
        for transform, mat in ((dft_array, w), (idft_array, w.conj())):
            got = transform(n, vals)
            want = np.matmul(mat, np.matmul(vals, mat)) / n
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            nonzero = want.view(np.float64) != 0.0
            assert np.array_equal(got.view(np.int64)[nonzero], want.view(np.int64)[nonzero])


def test_cached_inverse_matrix_is_read_only():
    wc = _idft_matrix(7)
    assert wc is _idft_matrix(7)
    assert np.array_equal(wc, _dft_matrix(7).conj())
    with pytest.raises(ValueError):
        wc[0, 0] = 0.0


def _same_floats(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.float64), want.view(np.float64))


@pytest.mark.parametrize("n", range(2, 61))
def test_root_table_reads_match_exp_formulas_bit_for_bit(n):
    # extension_matrix and character_values read the cached conj(W); every
    # real and imaginary part must equal what their own np.exp formulas gave.
    # Compared as floats, so the one difference left is the sign of a zero:
    # at phase 0 the table's imaginary part is -0.0, the formula's +0.0.
    # character_values is checked on every (m1, m2) up to N = 30.
    ring = make_ring(n)
    sigma = build_parabola(ring)
    x1 = np.repeat(np.arange(n), n)
    x2 = np.tile(np.arange(n), n)
    phase = (np.outer(x1, sigma.rows) + np.outer(x2, sigma.cols)) % n
    assert _same_floats(extension_matrix(sigma), np.exp(2j * np.pi * phase / n) / n)
    if n > 30:  # the np.exp reference on all N^4 cells costs ~66 ns a cell
        return
    g1 = np.arange(n)[:, None]
    g2 = np.arange(n)[None, :]
    m2 = np.arange(n)[:, None, None]
    for m1 in range(n):
        want = np.exp(2j * np.pi * ((m1 * g1 + m2 * g2) % n) / n)  # all m2 at once
        got = np.stack([character_values(ring, m1, b) for b in range(n)])
        assert _same_floats(got, want)


def test_norms():
    ring = make_ring(5)
    f = Signal2D(ring, np.ones((5, 5)))
    assert np.isclose(lp_norm(f, 2), 5.0)
    assert np.isclose(lp_norm(f, 4.0 / 3.0), 25.0 ** 0.75)
    assert np.isclose(normalized_lp_norm(f, 2), 1.0)
    assert np.isclose(normalized_lp_norm(f, 1), 1.0)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)
    # a NaN exponent fails every comparison; an infinite one gave 1.0, not the sup norm
    for norm in (lp_norm, normalized_lp_norm):
        for p in (float("nan"), math.inf, -math.inf):
            with pytest.raises(ValueError, match="p must be >= 1 and finite"):
                norm(f, p)


def test_flat_input_accepted():
    n = 6
    ring = make_ring(n)
    flat = np.arange(n * n, dtype=float)
    f = Signal2D(ring, flat)
    assert f.values.shape == (n, n)
    assert f.values[1, 2] == flat[n + 2]


def test_wrong_shape_rejected():
    ring = make_ring(6)
    with pytest.raises(ValueError):
        Signal2D(ring, np.zeros((5, 6)))


def test_non_finite_rejected():
    ring = make_ring(4)
    vals = np.zeros((4, 4))
    vals[2, 2] = np.inf
    with pytest.raises(ValueError):
        Signal2D(ring, vals)


def test_values_are_write_locked():
    ring = make_ring(4)
    f = Signal2D(ring, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_json_round_trip():
    n = 7
    ring = make_ring(n)
    rng = spawn_rng(16, n)
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = Signal2D(ring, vals)
    text = signal_to_json(f)
    data = json.loads(text)
    assert data["n"] == n
    assert len(data["values"]) == n * n
    assert all(len(pair) == 2 for pair in data["values"])
    back = signal_from_json(text)
    assert back.ring.modulus == n
    assert np.allclose(back.values, vals, atol=0)

    spectrum = spectrum_from_json(signal_to_json(Spectrum2D(ring, vals)))
    assert isinstance(spectrum, Spectrum2D)
    assert np.allclose(spectrum.values, vals, atol=0)


def test_json_row_major_order():
    n = 3
    ring = make_ring(n)
    vals = np.arange(9, dtype=float).reshape(3, 3)
    data = json.loads(signal_to_json(Signal2D(ring, vals)))
    flat = [pair[0] for pair in data["values"]]
    assert flat == list(range(9))


def test_json_bad_payload_rejected():
    with pytest.raises(ValueError):
        signal_from_json(json.dumps({"n": 3, "values": [[0.0, 0.0]] * 5}))
    with pytest.raises(ValueError):
        signal_from_json(json.dumps({"n": 3, "values": [[0.0, "x"]] * 9}))


@pytest.mark.parametrize(
    "pair", [[1.0], [1.0, 2.0, 3.0], ["x", 0.0], [None, 0.0], {"re": 1.0}, 1.0]
)
def test_json_pair_must_be_two_numbers(pair):
    values = [[0.0, 0.0]] * 8 + [pair]
    with pytest.raises(ValueError):
        signal_from_json(json.dumps({"n": 3, "values": values}))


@pytest.mark.parametrize("load", [signal_from_json, spectrum_from_json])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_json_non_finite_values_rejected(load, bad):
    # json writes these as NaN / Infinity and reads them back; the grid rejects them
    text = json.dumps({"n": 3, "values": [[0.0, 0.0]] * 8 + [[0.0, bad]]})
    assert "NaN" in text or "Infinity" in text
    with pytest.raises(ValueError, match="finite"):
        load(text)


def test_json_values_load_exactly():
    values = [[0.0, -0.0], [-0.0, 0.0], [1.5, -2.5], [1e-300, 3.0]]
    f = signal_from_json(json.dumps({"n": 2, "values": values}))
    got = f.values.reshape(-1).view(np.float64).reshape(-1, 2)
    assert np.array_equal(got, values)
    assert np.array_equal(np.signbit(got), np.signbit(values))
