"""Keyed random streams plus a few randomized algebraic properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restrictlab.fourier import Signal2D, dft
from restrictlab.parabola import build_parabola, energy_exact
from restrictlab.restriction import verify_main_theorem
from restrictlab.rng import spawn_rng
from restrictlab.zmod import make_ring


def test_same_key_same_stream():
    a = spawn_rng(3, 15, 2).standard_normal(8)
    b = spawn_rng(3, 15, 2).standard_normal(8)
    assert np.array_equal(a, b)


def test_different_path_different_stream():
    a = spawn_rng(3, 15, 2).standard_normal(8)
    b = spawn_rng(3, 15, 3).standard_normal(8)
    c = spawn_rng(4, 15, 2).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_trial_keys_are_pairwise_distinct():
    streams = [spawn_rng(5, 15, trial).standard_normal(6) for trial in range(6)]
    for i in range(len(streams)):
        for j in range(i + 1, len(streams)):
            assert not np.array_equal(streams[i], streams[j])


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        spawn_rng(-1)


def test_non_integer_seed_or_key_is_refused_not_truncated():
    for key, shown in (((1.5,), "1.5"), ((1, 2.5), "2.5"), ((np.float64(1.0), 2), "1.0")):
        with pytest.raises(ValueError, match=f"must be an integer, got .*{shown}"):
            spawn_rng(*key)
    # numpy integers address the stream of the same Python integers
    a = spawn_rng(np.int64(3), np.int32(15), np.uint8(2)).standard_normal(8)
    assert np.array_equal(a, spawn_rng(3, 15, 2).standard_normal(8))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_transform_preserves_energy(seed):
    n = 12
    ring = make_ring(n)
    rng = spawn_rng(seed, n)
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    fhat = dft(Signal2D(ring, vals))
    assert np.isclose((np.abs(vals) ** 2).sum(), (np.abs(fhat.values) ** 2).sum(), rtol=1e-10)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_energy_monotone_under_subset(seed):
    n = 21
    sigma = build_parabola(make_ring(n))
    rng = spawn_rng(seed, n, 1)
    big = sorted(int(t) for t in rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
    small = sorted(int(t) for t in rng.choice(big, size=int(rng.integers(1, len(big) + 1)), replace=False))
    assert energy_exact(sigma, small).energy <= energy_exact(sigma, big).energy


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.25, max_value=8.0),
    st.floats(min_value=0.0, max_value=6.28),
)
def test_ratio_ignores_complex_scaling(seed, magnitude, angle):
    n = 15
    ring = make_ring(n)
    rng = spawn_rng(seed, n, 2)
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    scale = magnitude * np.exp(1j * angle)
    base = verify_main_theorem(Signal2D(ring, vals))
    scaled = verify_main_theorem(Signal2D(ring, scale * vals))
    assert np.isclose(base.ratio, scaled.ratio, rtol=1e-9)
    assert scaled.satisfied
