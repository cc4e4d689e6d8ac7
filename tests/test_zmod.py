"""Ring contexts, CRT, and modular square roots against scan oracles."""

import math

import pytest

from restrictlab.zmod import (
    RingContext,
    count_square_roots,
    crt_combine,
    make_ring,
    square_roots_mod,
    tonelli_shanks,
)


def test_make_ring_factors_and_flags():
    ring = make_ring(15)
    assert ring.modulus == 15
    assert ring.prime_factors == ((3, 1), (5, 1))
    assert ring.omega == 2
    assert ring.squarefree

    ring = make_ring(12)
    assert ring.prime_factors == ((2, 2), (3, 1))
    assert ring.omega == 2
    assert not ring.squarefree

    ring = make_ring(2)
    assert ring.prime_factors == ((2, 1),)
    assert ring.omega == 1
    assert ring.squarefree


@pytest.mark.parametrize("bad", [1, 0, -5])
def test_make_ring_rejects_small(bad):
    with pytest.raises(ValueError):
        make_ring(bad)


def test_make_ring_accepts_index_like():
    import numpy as np

    ring = make_ring(np.int64(21))
    assert ring.modulus == 21
    assert isinstance(ring.modulus, int)


def test_factorization_reconstructs_modulus():
    for n in range(2, 400):
        ring = make_ring(n)
        prod = 1
        for p, mult in ring.prime_factors:
            prod *= p**mult
        assert prod == n
        assert ring.omega == len(ring.prime_factors)
        assert ring.squarefree == all(mult == 1 for _, mult in ring.prime_factors)


def test_crt_combine_example():
    assert crt_combine([(2, 3), (3, 5)]) == 8


def test_crt_combine_matches_scan():
    cases = [
        [(1, 2), (2, 3), (4, 7)],
        [(0, 5), (6, 11)],
        [(4, 9), (2, 5)],
    ]
    for residues in cases:
        modulus = math.prod(m for _, m in residues)
        got = crt_combine(residues)
        assert 0 <= got < modulus
        for r, m in residues:
            assert got % m == r % m


def test_crt_combine_rejects_common_factor():
    with pytest.raises(ValueError):
        crt_combine([(1, 6), (2, 4)])


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 101, 10007])
def test_tonelli_shanks_square_round_trip(p):
    for a in range(1, min(p, 40)):
        c = a * a % p
        root = tonelli_shanks(c, p)
        assert root * root % p == c


@pytest.mark.parametrize("c, p", [(2, 3), (3, 7), (2, 13), (3, 17), (2, 101)])
def test_tonelli_shanks_rejects_non_residue(c, p):
    with pytest.raises(ValueError, match="not a quadratic residue"):
        tonelli_shanks(c, p)


def _roots_by_scan(c, n):
    return tuple(x for x in range(n) if x * x % n == c % n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 9, 12, 15, 21, 30, 35, 36, 67, 105, 134, 303])
def test_square_roots_match_scan(n):
    ring = make_ring(n)
    for c in range(n):
        expected = _roots_by_scan(c, n)
        got = square_roots_mod(c, ring)
        assert got == expected
        assert count_square_roots(c, ring) == len(expected)


def test_square_roots_sorted_and_deterministic():
    ring = make_ring(105)
    roots = square_roots_mod(4, ring)
    assert list(roots) == sorted(roots)
    assert roots == square_roots_mod(4, ring)


def test_root_count_multiplicative_for_squarefree():
    ring = make_ring(15)
    # c = 4 is a nonzero square mod 3 and mod 5, so 2 * 2 roots in total.
    assert count_square_roots(4, ring) == 4
    assert square_roots_mod(4, ring) == (2, 7, 8, 13)


def test_ring_context_is_frozen():
    ring = make_ring(6)
    with pytest.raises(AttributeError):
        ring.modulus = 7  # type: ignore[misc]
    assert isinstance(ring, RingContext)
