"""Arithmetic in Z/NZ: factorization, CRT, and modular square roots."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class RingContext:
    """Modulus together with its factorization, shared by all computations."""

    modulus: int
    prime_factors: tuple[tuple[int, int], ...]  # (p, multiplicity), p ascending
    omega: int
    squarefree: bool


def make_ring(n: int) -> RingContext:
    """Factor n by trial division and build its ring context.  Rejects n < 2."""
    try:
        n = int(operator.index(n))
    except TypeError:
        raise ValueError(f"modulus must be an integer, got {n!r}") from None
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    factors: list[tuple[int, int]] = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return RingContext(
        modulus=n,
        prime_factors=tuple(factors),
        omega=len(factors),
        squarefree=all(e == 1 for _, e in factors),
    )


def crt_combine(residues: Sequence[tuple[int, int]]) -> int:
    """Combine (value, modulus) pairs into the residue mod the product.

    Moduli must be pairwise coprime; a shared factor raises ValueError.
    """
    if not residues:
        raise ValueError("need at least one (value, modulus) pair")
    for _, m in residues:
        if m < 1:
            raise ValueError(f"modulus must be positive, got {m}")
    value, modulus = residues[0][0] % residues[0][1], residues[0][1]
    for v, m in residues[1:]:
        g = math.gcd(modulus, m)
        if g != 1:
            raise ValueError(f"moduli are not pairwise coprime (shared factor {g})")
        # lift: value + modulus*k = v (mod m)
        k = ((v - value) * pow(modulus, -1, m)) % m
        value += modulus * k
        modulus *= m
    return value % modulus


def tonelli_shanks(c: int, p: int) -> int:
    """One square root of the quadratic residue c modulo an odd prime p."""
    c %= p
    if c == 0:
        return 0
    if pow(c, (p - 1) // 2, p) != 1:
        raise ValueError(f"{c} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        return pow(c, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, cc, t, r = s, pow(z, q, p), pow(c, q, p), pow(c, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = (t2 * t2) % p
            i += 1
        b = pow(cc, 1 << (m - i - 1), p)
        m, cc = i, (b * b) % p
        t, r = (t * cc) % p, (r * b) % p
    return r


def _prime_roots(c: int, p: int) -> tuple[int, ...]:
    """All z in [0, p) with z^2 = c (mod p) for a prime p, ascending.

    p = 2 and c = 0 have the one root c; for odd p and c != 0, Euler's
    criterion decides whether roots exist, and Tonelli-Shanks finds r and
    p - r.
    """
    c %= p
    if p == 2 or c == 0:
        return (c,)
    if pow(c, (p - 1) // 2, p) != 1:
        return ()
    r = tonelli_shanks(c, p)
    return tuple(sorted((r, p - r)))


def square_roots_mod(c: int, ring: RingContext) -> tuple[int, ...]:
    """All z in [0, N) with z^2 = c (mod N), ascending.

    Squarefree N goes per-prime then CRT; other N fall back to a direct scan,
    which is fine at the modulus sizes this package targets.
    """
    n = ring.modulus
    c %= n
    if not ring.squarefree:
        return tuple(z for z in range(n) if (z * z) % n == c)
    per_prime = [[(r, p) for r in _prime_roots(c, p)] for p, _ in ring.prime_factors]
    if any(not roots for roots in per_prime):
        return ()
    return tuple(sorted(crt_combine(list(combo)) for combo in itertools.product(*per_prime)))


def count_square_roots(c: int, ring: RingContext) -> int:
    """Number of square roots of c mod N.

    For squarefree N this is the product over p | N of the per-prime counts
    (1 for p = 2; 1, 2, or 0 for odd p by the Euler criterion), with no root
    enumerated.  Non-squarefree rings fall back to counting the scan.
    """
    if not ring.squarefree:
        return len(square_roots_mod(c, ring))
    total = 1
    for p, _ in ring.prime_factors:
        cp = c % p
        if p == 2 or cp == 0:
            continue  # exactly one root
        if pow(cp, (p - 1) // 2, p) == 1:
            total *= 2
        else:
            return 0
    return total
