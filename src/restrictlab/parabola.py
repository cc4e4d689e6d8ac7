"""The parabola {(t, t^2) : t in Z/NZ} as a frequency set.

Exponential sums over it, exact additive energy of its subsets, and the
restriction / extension maps it induces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .fourier import Signal2D, Spectrum2D, _dft_matrix, idft_array
from .zmod import RingContext


@dataclass(frozen=True, eq=False)
class ParabolaSet:
    """The N points (t, t^2 mod N), in t order."""

    ring: RingContext
    points: tuple[tuple[int, int], ...]

    @cached_property
    def rows(self) -> np.ndarray:
        # first coordinates, i.e. t itself
        return np.array([p[0] for p in self.points], dtype=np.intp)

    @cached_property
    def cols(self) -> np.ndarray:
        # second coordinates t^2 mod N
        return np.array([p[1] for p in self.points], dtype=np.intp)

    @cached_property
    def point_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.points)

    def __len__(self) -> int:
        return len(self.points)


def build_parabola(ring: RingContext) -> ParabolaSet:
    """All N points (t, t^2 mod N); distinct because t is the first coordinate."""
    n = ring.modulus
    return ParabolaSet(ring, tuple((t, (t * t) % n) for t in range(n)))


@dataclass(frozen=True)
class EnergyReport:
    """Exact additive-energy count for a subset U of the parabola."""

    subset_size: int
    energy: int
    bound: int  # 2^omega * |U|^2, certified for squarefree moduli
    max_rep: int


@dataclass(frozen=True, eq=False)
class DecayProfile:
    """|S(m)| over the full frequency grid with its worst nontrivial ratio."""

    n: int
    magnitudes: np.ndarray  # (N, N), entry [m1, m2] = |S(m)|
    max_magnitude: float  # over m != (0, 0)
    max_ratio: float  # max_magnitude / sqrt(N)
    witness: tuple[int, int]


def exp_sum(sigma: ParabolaSet, m: tuple[int, int]) -> complex:
    """S(m) = sum_t exp(-2 pi i (m1 t + m2 t^2) / N)."""
    n = sigma.ring.modulus
    m1, m2 = int(m[0]) % n, int(m[1]) % n
    phases = (m1 * sigma.rows + m2 * sigma.cols) % n
    return complex(_dft_matrix(n)[1, phases].sum())


def decay_profile(sigma: ParabolaSet) -> DecayProfile:
    """Exhaustive scan of |S(m)| over all N^2 - 1 nontrivial frequencies.

    With W[a, b] = exp(-2 pi i a b / N), S(m) = sum_t W[m1, t] W[t^2, m2], so
    one product W @ W[t^2 rows] gives the whole profile.  For prime N the
    worst ratio |S(m)|/sqrt(N) is 1; composite squarefree N exceeds it.
    """
    n = sigma.ring.modulus
    w = _dft_matrix(n)
    mags = np.abs(w @ w[sigma.cols])
    masked = mags.copy()
    masked[0, 0] = -1.0
    max_mag = float(masked.max())
    # Ties happen for exact symmetry reasons; take the row-major smallest
    # frequency among them so the witness does not depend on rounding noise.
    flat = int(np.argmax(masked >= max_mag * (1.0 - 1e-12)))
    witness = (flat // n, flat % n)
    return DecayProfile(
        n=n,
        magnitudes=mags,
        max_magnitude=max_mag,
        max_ratio=max_mag / float(np.sqrt(n)),
        witness=witness,
    )


def _subset_indices(sigma: ParabolaSet, subset: Iterable | None) -> np.ndarray:
    """Normalize a subset given as t-indices or as points to sorted t-indices."""
    n = sigma.ring.modulus
    if subset is None:
        return np.arange(n, dtype=np.intp)
    items = list(subset)
    if not items:
        raise ValueError("subset must be nonempty")
    ts: set[int] = set()
    for item in items:
        if isinstance(item, tuple) or (isinstance(item, (list, np.ndarray)) and len(item) == 2):
            a, b = int(item[0]) % n, int(item[1]) % n
            if (b - a * a) % n != 0:
                raise ValueError(f"point ({a}, {b}) is not on the parabola mod {n}")
            ts.add(a)
        else:
            ts.add(int(item) % n)
    return np.array(sorted(ts), dtype=np.intp)


def energy_exact(sigma: ParabolaSet, subset: Iterable | None = None) -> EnergyReport:
    """Exact E(U) = #{(x, y, x', y') in U^4 : x + y = x' + y'}.

    Computed by histogramming all |U|^2 pairwise sums and summing squared
    multiplicities; integer arithmetic throughout, valid for every modulus.
    The sums are binned unreduced, each coordinate in [0, 2N - 2], and the
    (2N)^2 bins are folded mod N afterwards, so no pair pays for a %.
    """
    n = sigma.ring.modulus
    idx = _subset_indices(sigma, subset)
    a = sigma.rows[idx]
    b = sigma.cols[idx]
    codes = ((a[:, None] + a[None, :]) * (2 * n) + (b[:, None] + b[None, :])).ravel()
    wide = np.bincount(codes, minlength=4 * n * n)
    counts = wide.reshape(2, n, 2, n).sum(axis=(0, 2), dtype=np.int64)
    energy = int((counts * counts).sum())
    size = int(idx.size)
    return EnergyReport(
        subset_size=size,
        energy=energy,
        bound=(2**sigma.ring.omega) * size * size,
        max_rep=int(counts.max()),
    )


def restrict_to(sigma: ParabolaSet, spectrum: Spectrum2D) -> np.ndarray:
    """Values of a spectrum on the parabola, in t order."""
    if spectrum.ring.modulus != sigma.ring.modulus:
        raise ValueError("spectrum and parabola live over different moduli")
    return spectrum.values[sigma.rows, sigma.cols].copy()


def coefficient_vector(
    sigma: ParabolaSet, coefficients: Sequence[complex] | np.ndarray
) -> np.ndarray:
    """One finite complex coefficient per parabola point; ValueError otherwise."""
    n = sigma.ring.modulus
    c = np.asarray(coefficients, dtype=np.complex128)
    if c.shape != (n,):
        raise ValueError(f"expected {n} coefficients, got shape {c.shape}")
    if not np.all(np.isfinite(c.view(np.float64))):
        raise ValueError("coefficients must be finite")
    return c


def extend_from(sigma: ParabolaSet, coefficients: Sequence[complex] | np.ndarray) -> Signal2D:
    """The unique signal whose spectrum equals c on the parabola and 0 off it.

    This is the adjoint of restrict_to composed with the inverse transform:
    f(x) = (1/N) sum_t c(t) exp(+2 pi i <x, (t, t^2)> / N).
    """
    grid = embed_coefficients(sigma, coefficient_vector(sigma, coefficients))
    return Signal2D(sigma.ring, idft_array(sigma.ring.modulus, grid))


def embed_coefficients(sigma: ParabolaSet, coefficients: np.ndarray) -> np.ndarray:
    """Place one or a batch of coefficient vectors (..., N) on the frequency grid."""
    n = sigma.ring.modulus
    c = np.asarray(coefficients, dtype=np.complex128)
    if c.shape[-1] != n:
        raise ValueError(f"expected trailing axis {n}, got shape {c.shape}")
    grid = np.zeros(c.shape[:-1] + (n, n), dtype=np.complex128)
    grid[..., sigma.rows, sigma.cols] = c
    return grid
