"""Deterministic families of test functions for the fuzz harnesses."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .fourier import _idft_matrix
from .zmod import RingContext


def delta_values(ring: RingContext, x1: int, x2: int) -> np.ndarray:
    n = ring.modulus
    vals = np.zeros((n, n), dtype=np.complex128)
    vals[x1 % n, x2 % n] = 1.0
    return vals


def character_values(ring: RingContext, m1: int, m2: int) -> np.ndarray:
    """exp(+2 pi i <x, m> / N) on the grid, read from the inverse root table."""
    n = ring.modulus
    x1 = np.arange(n)[:, None]
    x2 = np.arange(n)[None, :]
    return _idft_matrix(n)[1][(m1 * x1 + m2 * x2) % n]


def box_values(ring: RingContext, a: int, b: int, w: int, h: int) -> np.ndarray:
    """Indicator of the contiguous box [a, a+w) x [b, b+h), wrapping mod N."""
    n = ring.modulus
    vals = np.zeros((n, n), dtype=np.complex128)
    rows = (a + np.arange(w)) % n
    cols = (b + np.arange(h)) % n
    vals[np.ix_(rows, cols)] = 1.0
    return vals


def stride_box_values(ring: RingContext, d1: int, d2: int, a: int, b: int) -> np.ndarray:
    """Indicator of {a + d1*i} x {b + d2*j} as a value grid."""
    n = ring.modulus
    vals = np.zeros((n, n), dtype=np.complex128)
    vals[a % d1 :: d1, :][:, b % d2 :: d2] = 1.0
    return vals


def sparse_values(
    ring: RingContext,
    rng: np.random.Generator,
    size: int,
    *,
    unimodular: bool = False,
    indicator: bool = False,
) -> np.ndarray:
    n = ring.modulus
    flat = rng.choice(n * n, size=size, replace=False)
    vals = np.zeros(n * n, dtype=np.complex128)
    if indicator:
        vals[flat] = 1.0
    elif unimodular:
        vals[flat] = np.exp(2j * np.pi * rng.random(size))
    else:
        vals[flat] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return vals.reshape(n, n)


def structured_values(
    ring: RingContext, count: int, rng: np.random.Generator
) -> Iterator[tuple[str, np.ndarray]]:
    """Exactly count labeled grids cycling through the structured kinds.

    Seven kinds, in this order: deltas, characters, contiguous boxes, stride
    boxes over divisors, sparse indicators, sparse Gaussian supports and
    sparse unimodular supports.
    """
    n = ring.modulus
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    kinds = 7
    for i in range(count):
        kind = i % kinds
        if kind == 0:
            x1, x2 = int(rng.integers(n)), int(rng.integers(n))
            yield f"delta({x1},{x2})", delta_values(ring, x1, x2)
        elif kind == 1:
            m1, m2 = int(rng.integers(n)), int(rng.integers(n))
            yield f"character({m1},{m2})", character_values(ring, m1, m2)
        elif kind == 2:
            w, h = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
            a, b = int(rng.integers(n)), int(rng.integers(n))
            yield f"box({a},{b},{w}x{h})", box_values(ring, a, b, w, h)
        elif kind == 3:
            d1 = int(divisors[rng.integers(len(divisors))])
            d2 = int(divisors[rng.integers(len(divisors))])
            a, b = int(rng.integers(d1)), int(rng.integers(d2))
            yield f"stride_box(d1={d1},d2={d2},a={a},b={b})", stride_box_values(ring, d1, d2, a, b)
        elif kind == 4:
            size = int(rng.integers(1, max(2, n * n // 4)))
            yield f"sparse_indicator({size})", sparse_values(ring, rng, size, indicator=True)
        elif kind == 5:
            size = int(rng.integers(1, max(2, n * n // 4)))
            yield f"sparse_gaussian({size})", sparse_values(ring, rng, size)
        else:
            size = int(rng.integers(1, n + 1))
            yield f"sparse_unimodular({size})", sparse_values(ring, rng, size, unimodular=True)


def structured_coefficients(
    ring: RingContext, count: int, rng: np.random.Generator
) -> Iterator[tuple[str, np.ndarray]]:
    """Labeled coefficient vectors (length N) for the dual-side fuzz."""
    n = ring.modulus
    kinds = 5
    for i in range(count):
        kind = i % kinds
        if kind == 0:
            t = int(rng.integers(n))
            c = np.zeros(n, dtype=np.complex128)
            c[t] = 1.0
            yield f"delta_coeff({t})", c
        elif kind == 1:
            yield "constant_coeff", np.ones(n, dtype=np.complex128)
        elif kind == 2:
            yield "unimodular_coeff", np.exp(2j * np.pi * rng.random(n))
        else:
            size = int(rng.integers(1, n + 1))
            idx = rng.choice(n, size=size, replace=False)
            c = np.zeros(n, dtype=np.complex128)
            if kind == 3:
                c[idx] = 1.0
                yield f"indicator_coeff({size})", c
            else:
                c[idx] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
                yield f"sparse_coeff({size})", c
