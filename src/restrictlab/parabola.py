"""The parabola {(t, t^2) : t in Z/NZ} as a frequency set.

Exponential sums over it, exact additive energy of its subsets with the
paper's bound 2^omega (energy_constant), and its restriction / extension maps.
The full parabola's energy, its largest pair-sum class and the peak of its
exponential sums are closed forms in the factorization of N; a subset's
energy is counted from its pair sums.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .fourier import Signal2D, Spectrum2D, _dft_matrix, _root_table, idft_array
from .zmod import RingContext, as_int


@dataclass(frozen=True, eq=False)
class ParabolaSet:
    """The N points (t, t^2 mod N), in t order; the index arrays are built on first use.

    t * t is exact in intp (int64) for N < 3 * 10^9, far above any modulus
    whose (N,)-arrays a budgeted command builds.
    """

    ring: RingContext

    @cached_property
    def rows(self) -> np.ndarray:
        # first coordinates, i.e. t itself
        return np.arange(self.ring.modulus, dtype=np.intp)

    @cached_property
    def cols(self) -> np.ndarray:
        # second coordinates t^2 mod N
        return self.rows * self.rows % self.ring.modulus

    @cached_property
    def point_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(self.rows.tolist(), self.cols.tolist()))

    def __len__(self) -> int:
        return self.ring.modulus


def build_parabola(ring: RingContext) -> ParabolaSet:
    """The parabola mod N: all N points (t, t^2 mod N), distinct because t is the first coordinate.

    O(1): nothing is built until rows, cols or point_set is read.
    """
    return ParabolaSet(ring)


def energy_constant(ring: RingContext) -> int:
    """2^omega(N), exact: on squarefree N no pair sum of the parabola has more representations.

    The one source of the certified constant 2^(omega/4), the energy bound 2^omega |U|^2,
    the forbidden zone |T| < N^2 / 2^omega and the recovery line N^2 / (4 * 2^omega).
    """
    return 1 << ring.omega


@dataclass(frozen=True)
class EnergyReport:
    """Exact additive-energy count for a subset U of the parabola."""

    subset_size: int
    energy: int
    bound: int  # energy_constant * |U|^2, certified for squarefree moduli
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
    """S(m) = sum_t exp(-2 pi i (m1 t + m2 t^2) / N) for integers m1, m2, from the (N,) root table: O(N) memory."""
    n = sigma.ring.modulus
    m1, m2 = as_int(m[0], "m1") % n, as_int(m[1], "m2") % n
    phases = (m1 * sigma.rows + m2 * sigma.cols) % n
    return complex(_root_table(n)[phases].sum())


def _gauss_magnitudes(q: int) -> np.ndarray:
    """|S_q(a, b)| on the (q, q) grid: the one product |W @ W[t^2 rows]| mod q, built per call."""
    # W from the uncached builder outlives no call.
    w = _dft_matrix.__wrapped__(q)
    return np.abs(w @ w[np.arange(q) ** 2 % q])


def decay_peak(ring: RingContext) -> tuple[float, float, tuple[int, int]]:
    """(max |S(m)| over m != (0, 0), that maximum / sqrt(N), its row-major first m), in closed form.

    With p the smallest prime factor of N: for even N the maximum is N,
    reached only at (N/2, N/2), with ratio sqrt(N); for odd N it is
    N / sqrt(p), reached first at (0, N/p), with ratio sqrt(N/p).  Each
    value is the square root of an integer; no grid is built.

    Proof.  By CRT |S_N(m)|^2 = prod_{q || N} |S_q(m mod q)|^2, as in
    decay_profile.  The values below depend only on p-adic valuations, which
    the unit u_q there does not change.
    - Odd q = p^e: let j = v_p(b), with j = e at b = 0.  Then
      |S_q(a, b)|^2 = p^(e+j) if p^j | a, and 0 otherwise: it is p^j times a
      Gauss sum mod p^(e-j) whose quadratic coefficient is a unit.  Over
      m != 0 mod q the largest value is q^2 / p, reached exactly where
      p^(e-1) | a and v_p(b) = e - 1.
    - q = 2^e: let j = v_2(b) < e and k = e - j.  S_q(a, b) is 0 unless
      2^j | a, and then 2^j times a sum mod 2^k with an odd quadratic
      coefficient.  That sum has |.|^2 = 2^(k+1) when its linear coefficient
      is even (k >= 2), 4 when it is odd (k = 1), and 0 otherwise.  So
      |S_q|^2 = q^2 only at (0, 0) and (q/2, q/2), and every other cell is
      at most q^2 / 2.
    Every factor is at most q^2, and m != 0 is nonzero mod some q, whose
    factor is then q^2 only at (q/2, q/2) for q = 2^e, and at most q^2 / p
    for odd q.  So for even N the peak is N^2, only at (N/2, N/2).  For odd
    N it is N^2 / p for the smallest p, where m = 0 mod N/p^e and the
    p-component is as above; the first such point in row-major order is
    (0, N/p).  N = 35 gives 7 sqrt(5), ratio sqrt(7), at (0, 7).
    """
    n = ring.modulus
    p = ring.prime_factors[0][0]
    if p == 2:
        return float(n), math.sqrt(n), (n // 2, n // 2)
    return math.sqrt(n * (n // p)), math.sqrt(n // p), (0, n // p)


def decay_profile(sigma: ParabolaSet) -> DecayProfile:
    """|S(m)| over the full N x N frequency grid, per prime power, then multiplied; the peak from decay_peak.

    With W[a, b] = exp(-2 pi i a b / N), S(m) = sum_t W[m1, t] W[t^2, m2], so
    one product W @ W[t^2 rows] gives the whole grid at modulus N.  By CRT
    the sum factors over the prime powers q || N: S_N(m) = prod_q S_q(u_q m)
    with u_q = (N/q)^-1 mod q.  The unit u_q drops out of the magnitude:
    |S_q(m)|^2 is an integer, and the Galois map that raises exp(2 pi i / q)
    to the power u_q fixes integers and sends it to |S_q(u_q m)|^2.  So |S_N|
    is the product of the q x q grids |S_q| tiled over the N x N grid.  A
    prime power is its own grid, with the bits of the product at N.  The
    maximum, its ratio and its witness are decay_peak's exact values, not
    read off the grid: for prime N the worst ratio |S(m)|/sqrt(N) is 1, and
    composite N exceeds it.
    """
    n = sigma.ring.modulus
    mags = None
    for p, e in sigma.ring.prime_factors:
        q = p**e
        factor = np.tile(_gauss_magnitudes(q), (n // q, n // q))
        mags = factor if mags is None else np.multiply(mags, factor, out=mags)
        del factor  # else it lives on while the next prime power's tile is built
    max_magnitude, max_ratio, witness = decay_peak(sigma.ring)
    return DecayProfile(
        n=n,
        magnitudes=mags,
        max_magnitude=max_magnitude,
        max_ratio=max_ratio,
        witness=witness,
    )


def _subset_index(item, n: int) -> int:
    """The t of one subset item: an integer index, or a point (t, t^2) of exactly two integers; ValueError otherwise."""
    try:
        return operator.index(item) % n
    except TypeError:
        pass
    try:
        a, b = (operator.index(x) % n for x in item)
    except (TypeError, ValueError):
        raise ValueError(f"a subset item is an integer index or a point of two integers, got {item!r}") from None
    if (b - a * a) % n != 0:
        raise ValueError(f"point ({a}, {b}) is not on the parabola mod {n}")
    return a


def _subset_indices(sigma: ParabolaSet, subset: Iterable) -> np.ndarray:
    """Normalize a subset given as t-indices or as points to sorted t-indices."""
    n = sigma.ring.modulus
    ts = {_subset_index(item, n) for item in subset}
    if not ts:
        raise ValueError("subset must be nonempty")
    return np.array(sorted(ts), dtype=np.intp)


def _pair_counts(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """(N, N) int64 multiplicities of the pair sums (a_i + a_j, b_i + b_j) mod N.

    The sums are binned unreduced, each coordinate in [0, 2N - 2], and the
    (2N)^2 bins are folded mod N afterwards, so no pair pays for a %.
    """
    codes = ((a[:, None] + a[None, :]) * (2 * n) + (b[:, None] + b[None, :])).ravel()
    wide = np.bincount(codes, minlength=4 * n * n)
    return wide.reshape(2, n, 2, n).sum(axis=(0, 2), dtype=np.int64)


def _prime_power_energy(p: int, k: int) -> tuple[int, int]:
    """(E, max_rep) of the full parabola mod q = p^k, in closed form.

    r(m) is the number of pairs (t1, t2) with t1 + t2 = m1 and
    t1^2 + t2^2 = m2 (mod q); E = sum_m r(m)^2 and max_rep = max_m r(m).

    E: in a coincidence p_t1 + p_t2 = p_t3 + p_t4 put u = t1 - t3 = t4 - t2.
    The second coordinate becomes 2u(t3 - t2) = 0, so each u leaves
    q * gcd(2u, q) choices of (t2, t3), and E = q * sum_{u mod q} gcd(2u, q).
    Pillai's sum_{u mod p^j} gcd(u, p^j) = (j + 1) p^j - j p^(j-1) gives
    E = p^k ((k + 1) p^k - k p^(k-1)) for odd p, and for p = 2, where the
    sum is 4 times Pillai's at j = k - 1, E = (k + 1) 4^k.

    max_rep for odd p: (t1, t2) -> (t1 + t2, t1 - t2) is a bijection and
    2(t1^2 + t2^2) = (t1 + t2)^2 + (t1 - t2)^2, so r(m) is the number of
    square roots of 2 m2 - m1^2 mod p^k.  A unit has 2 or none, p^(2i) w
    (w a unit, 2i < k) has 2 p^i or none, another nonzero value none, and 0
    has p^floor(k/2).  The largest count is p^(k/2) for even k and
    2 p^((k-1)/2) for odd k.

    max_rep for p = 2: with t2 = m1 - t1, r(m) is the number of t mod q with
    2t(t - m1) = m2 - m1^2.  For odd m1, t(t - m1) has an odd derivative, so
    by Hensel it takes each value mod 2^(k-1) at most twice, and
    r <= min(4, q).  For m1 = 2a, s = t - a turns the equation into
    2 s^2 = m2 - 2a^2, so r is twice the number of square roots of a value
    mod 2^(k-1).  Mod 2^j that number is at most 2^ceil(j/2) for j != 1
    (reached at 0 for even j, at 4^((j-3)/2) for odd j >= 3), and 1 at
    j = 1.  So max_rep = 2^(floor(k/2) + 1): at m = (0, 0) for odd k, at
    m = (0, 2 * 4^((k-4)/2)) for even k >= 4, and at m = (1, 1) for k = 2.
    """
    q, half = p**k, p ** (k // 2)
    if p == 2:
        return (k + 1) * q * q, 2 * half
    return q * ((k + 1) * q - k * (q // p)), half if k % 2 == 0 else 2 * half


_PIECE_BYTES = 1 << 20  # one piece of a batch: scored grids or rows, Gram slices, pair products; stays in cache


def _items_per_piece(item_bytes: int) -> int:
    """Items of item_bytes each in one piece: about _PIECE_BYTES of them, at least one."""
    return max(1, _PIECE_BYTES // item_bytes)


@lru_cache(maxsize=1)  # one modulus at a time, like the DFT matrices
def _pair_classes(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The unordered pairs t <= t' of the parabola mod N, grouped by the class of p_t + p_t'.

    One (left, right) pair of (s, M) index tables per class size s, for the
    M classes of s unordered pairs; column j lists one class, and every
    pair appears once.  left indexes a coefficient row c and right the
    doubled row [c, 2c]: an off-diagonal pair stands for two ordered pairs,
    so it reads 2c_t'.  Grouping by size keeps the tables at N(N+1)/2
    entries each, however large a class is (on non-squarefree N a class
    can hold about p pairs).
    """
    # in place and freed early, so the build peaks at 56 P bytes (pair_sum_bytes)
    t, u = np.triu_indices(n)
    code = t + u
    code %= n
    code *= n
    norm = t * t
    norm += u * u
    norm %= n
    code += norm
    del norm
    order = np.argsort(code, kind="stable")
    starts = np.flatnonzero(np.diff(code[order], prepend=-1))
    del code
    left, right = t[order], u[order]
    del t, u, order
    right += n * (left != right)
    sizes = np.diff(starts, append=left.size)
    groups = []
    for s in np.flatnonzero(np.bincount(sizes)):
        cells = starts[sizes == s] + np.arange(s)[:, None]
        groups.append((left[cells], right[cells]))
    return tuple(groups)


def _pair_sum_energy(n: int, rows: np.ndarray) -> np.ndarray:
    """sum_m |b_m|^2 for each row c of a (B, N) complex batch, b_m = sum c_t c_t' over p_t + p_t' = m.

    The sum runs over ordered pairs (t, t') of parabola points p_t = (t, t^2),
    so the constant row c = 1 gives b_m = r(m), the pair-sum multiplicity,
    and the additive energy E(Sigma) = sum_m r(m)^2.  Rows go in pieces of
    _items_per_piece products (16 bytes per unordered pair), gathered into
    two buffers that the pieces share, so fresh pages are touched once per
    call, not per piece.  Each row's sums run in a fixed order (slot by slot
    within a class, then over the size groups), so a row has the same bits
    in every batch.  einsum sums a batch row of more than np.getbufsize()
    values in buffer-sized pieces but a lone row in one pass, so a group of
    more classes than half that (N = 97 and some moduli above) is summed a
    row at a time, each row as a lone row is.  The one exception is N = 2,
    where the product of one complex pair skips the fused multiply-add of
    the vector loop, and a row can move by an ulp with the batch.
    """
    groups = _pair_classes(n)
    step = _items_per_piece(8 * n * (n + 1))
    size = min(step, rows.shape[0]) * max(left.size for left, _ in groups)
    prod_buf, gather_buf = np.empty(size, dtype=np.complex128), np.empty(size, dtype=np.complex128)
    out = np.empty(rows.shape[0])
    for i in range(0, rows.shape[0], step):
        c = rows[i : i + step]
        doubled = np.concatenate((c, 2.0 * c), axis=1)
        total = 0.0
        for left, right in groups:
            shape = (c.shape[0],) + left.shape
            prod = prod_buf[: c.shape[0] * left.size].reshape(shape)
            gather = gather_buf[: prod.size].reshape(shape)
            # every index is in range; a mode other than "raise" lets np.take
            # write straight into out instead of through a temporary
            np.take(c, left, axis=1, out=prod, mode="clip")
            np.take(doubled, right, axis=1, out=gather, mode="clip")
            prod *= gather
            b = prod[:, 0]
            for j in range(1, left.shape[0]):
                b += prod[:, j]
            flat = b.view(np.float64)
            if flat.shape[1] > np.getbufsize():
                total = total + np.concatenate([np.einsum("ij,ij->i", row, row) for row in np.split(flat, len(flat))])
            else:
                total = total + np.einsum("ij,ij->i", flat, flat)
        out[i : i + step] = total
    return out


def pair_sum_bytes(ring: RingContext) -> int:
    """Peak bytes the pair-sum norms allocate at modulus N, for one piece of rows.

    Building the class tables peaks at seven int64 arrays over the
    P = N(N+1)/2 unordered pairs (56 P).  The rows then share two gather
    buffers of one piece, twice _PIECE_BYTES (32 P for a single row wider
    than that), and a piece holds a few arrays of N per row; the estimate
    allows three times _PIECE_BYTES.
    """
    n = ring.modulus
    pairs = n * (n + 1) // 2
    return 56 * pairs + 3 * max(_PIECE_BYTES, 16 * pairs)


def energy_exact(sigma: ParabolaSet, subset: Iterable | None = None) -> EnergyReport:
    """Exact E(U) = #{(x, y, x', y') in U^4 : x + y = x' + y'} and max_rep, the largest pair-sum class.

    A subset is counted at modulus N: the squared multiplicities of its
    |U|^2 pairwise sums, summed, in integer arithmetic.  The full parabola
    takes a few integer operations at any modulus: by CRT it is the product
    of the parabolas mod each q || N, so its pair-sum multiplicities, and
    with them E and max_rep, are products of the closed forms of
    _prime_power_energy.
    """
    ring = sigma.ring
    n = ring.modulus
    if subset is None:
        size, energy, max_rep = n, 1, 1
        for p, e in ring.prime_factors:
            energy_q, max_q = _prime_power_energy(p, e)
            energy, max_rep = energy * energy_q, max_rep * max_q
    else:
        idx = _subset_indices(sigma, subset)
        counts = _pair_counts(sigma.rows[idx], sigma.cols[idx], n)
        size, energy, max_rep = int(idx.size), int((counts * counts).sum()), int(counts.max())
    return EnergyReport(
        subset_size=size,
        energy=energy,
        bound=energy_constant(ring) * size * size,
        max_rep=max_rep,
    )


def restrict_to(sigma: ParabolaSet, spectrum: Spectrum2D) -> np.ndarray:
    """Values of a spectrum on the parabola, in t order."""
    if spectrum.ring.modulus != sigma.ring.modulus:
        raise ValueError(f"parabola is mod {sigma.ring.modulus} but the spectrum is mod {spectrum.ring.modulus}")
    return spectrum.values[sigma.rows, sigma.cols].copy()


def extend_from(sigma: ParabolaSet, coefficients: Sequence[complex] | np.ndarray) -> Signal2D:
    """The unique signal whose spectrum equals c on the parabola and 0 off it.

    This is the adjoint of restrict_to composed with the inverse transform:
    f(x) = (1/N) sum_t c(t) exp(+2 pi i <x, (t, t^2)> / N).
    """
    c = np.asarray(coefficients, dtype=np.complex128)
    if c.shape != (len(sigma),):  # before embedding, which would transform a whole batch of rows
        raise ValueError(f"expected {len(sigma)} coefficients, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    return Signal2D(sigma.ring, idft_array(sigma.ring.modulus, embed_coefficients(sigma, c)))


def embed_coefficients(sigma: ParabolaSet, coefficients: np.ndarray) -> np.ndarray:
    """Place one or a batch of coefficient vectors (..., N) on the frequency grid."""
    n = sigma.ring.modulus
    c = np.asarray(coefficients, dtype=np.complex128)
    if c.shape[-1:] != (n,):
        raise ValueError(f"expected trailing axis {n}, got shape {c.shape}")
    grid = np.zeros(c.shape[:-1] + (n, n), dtype=np.complex128)
    grid[..., sigma.rows, sigma.cols] = c
    return grid
