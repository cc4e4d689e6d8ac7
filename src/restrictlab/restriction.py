"""Numerical verification of restriction inequalities on the parabola.

The central estimate, certified for squarefree N with constant 2^(omega(N)/4)
(certified_constant, from parabola.energy_constant):

    ((1/N) sum_t |fhat(t, t^2)|^2)^(1/2)
        <= 2^(omega/4) * (1/N) * (sum_x |f(x)|^(4/3))^(3/4)

together with its dual L^4 extension bound, the L^1-L^2 consequence, the
support-size uncertainty search, and a sharpness probe for non-squarefree
moduli where the constant genuinely grows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .families import sparse_values, stride_box_values
from .fourier import Signal2D, _dft_matrix, _root_table, _scaled, dft, idft_array, lp_norm
from .parabola import (
    ParabolaSet,
    _items_per_piece,
    _pair_sum_energy,
    build_parabola,
    embed_coefficients,
    energy_constant,
    energy_exact,
    extend_from,
    restrict_to,
)
from .rng import spawn_rng
from .zmod import RingContext

SATISFACTION_TOL = 1e-9
RANK_RTOL = 1e-8  # absolute rank cutoff: an off-support singular value <= RANK_RTOL counts as zero


@dataclass(frozen=True)
class RestrictionParams:
    """Exponent pair (s, r) and optional certified constant for a check."""

    s: float = 2.0
    r: float = 4.0 / 3.0
    constant: float | None = None

    def __post_init__(self) -> None:
        if not (1.0 <= self.r <= self.s < math.inf):
            raise ValueError(f"need 1 <= r <= s < inf, got r={self.r}, s={self.s}")


@dataclass(frozen=True)
class RestrictionReport:
    """One verified instance of a restriction-type inequality."""

    n: int
    omega: int
    squarefree: bool
    s: float
    r: float
    lhs: float
    rhs: float  # right-hand side without the constant
    ratio: float
    constant: float | None
    satisfied: bool
    witness_kind: str = ""


def certified_constant(ring: RingContext) -> float:
    """The squarefree constant 2^(omega(N)/4); the certified checks' one gate, ValueError otherwise."""
    if not ring.squarefree:
        raise ValueError(f"modulus {ring.modulus} is not squarefree")
    return energy_constant(ring) ** 0.25


def zone_edge(ring: RingContext) -> int:
    """The largest support size inside the forbidden zone |T| < N^2 / 2^omega; squarefree N only."""
    certified_constant(ring)  # the squarefree gate
    return (ring.modulus**2 - 1) // energy_constant(ring)


def _check_exponents(**exponents: float) -> None:
    """ValueError unless every named exponent is finite and at least 1."""
    for name, e in exponents.items():
        if not 1 <= e < math.inf:
            raise ValueError(f"{name} must be >= 1 and finite, got {e}")


def restriction_lhs(spectrum, sigma: ParabolaSet, s: float = 2.0) -> float:
    """((1/|Sigma|) sum_t |F(t, t^2)|^s)^(1/s) for a spectrum F."""
    _check_exponents(s=s)
    vals = restrict_to(sigma, spectrum)
    return float((np.abs(vals) ** s).mean() ** (1.0 / s))


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0 if lhs < 1e-12 else math.inf
    return lhs / rhs


def _parabola_over(ring: RingContext, sigma: ParabolaSet | None) -> ParabolaSet:
    """sigma, or the parabola of ring when None; ValueError if the moduli differ."""
    if sigma is None:
        return build_parabola(ring)
    if sigma.ring.modulus != ring.modulus:
        raise ValueError(f"parabola is mod {sigma.ring.modulus} but the ring is mod {ring.modulus}")
    return sigma


def _roots(sums: list[float], e: float) -> np.ndarray:
    # each sum ** (1/e), value by value with C pow: numpy's vectorized power can
    # round differently, and a grid must get the same bits alone as in a batch
    return np.fromiter(map(pow, sums, itertools.repeat(1.0 / e)), float, len(sums))


def _power_sums(values: np.ndarray, *rs: float) -> list[np.ndarray]:
    """sum |v|^r over the last two axes for each r, paying the power only on nonzero cells.

    Each is equal bit for bit to (np.abs(values) ** r).sum(axis=(-2, -1)):
    pow(0, r) is +0.0 and the power is taken value by value, so the array
    summed holds the same values in the same layout, and the pairwise sum
    runs over identical data.  Without a zero cell it is that dense
    expression.  |v|, the zero mask and the nonzero cells are taken once for
    all the exponents, and the zero array is refilled for each.
    """
    a = np.abs(values)
    nonzero = a != 0
    if nonzero.all():
        return [(a**r).sum(axis=(-2, -1)) for r in rs]
    cells = a[nonzero]
    del a  # so |f| and the zero array are never held at once
    powered = np.zeros_like(nonzero, dtype=np.float64)
    sums = []
    for r in rs:
        powered[nonzero] = cells**r
        sums.append(powered.sum(axis=(-2, -1)))
    return sums


def _chunk_grids(n: int) -> int:
    """Complex (N, N) grids of one scoring chunk: one piece; restriction_quantities' temporaries stay under two."""
    return _items_per_piece(16 * n * n)


@lru_cache(maxsize=1)  # one modulus at a time, like the DFT matrices
def _square_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(W[:, Q], cells): the columns of W that the parabola reads, and where it reads the product.

    Q is the sorted distinct squares t^2 mod N, so the transform's value at
    (t, t^2) is U[t, j] with U = W X W[:, Q] and Q[j] = t^2; cells[t] is that
    (t, j) flattened row-major.  |Q| = prod (p + 1) / 2 over the primes of
    an odd squarefree N (24 of 105 at N = 105).  W[:, Q] is a contiguous
    (N, |Q|) copy; both arrays are read-only.
    """
    squares, slot = np.unique(np.arange(n) ** 2 % n, return_inverse=True)
    columns = np.ascontiguousarray(_dft_matrix(n)[:, squares])
    cells = np.arange(n) * squares.size + slot
    columns.setflags(write=False)
    cells.setflags(write=False)
    return columns, cells


def restriction_quantities(
    ring: RingContext,
    values: np.ndarray,
    sigma: ParabolaSet | None = None,
    s: float = 2.0,
    r: float = 4.0 / 3.0,
    *more_r: float,
) -> tuple[np.ndarray, ...]:
    """(lhs, rhs) arrays for one or a batch (..., N, N) of signal grids; one more rhs per exponent in more_r.

    lhs is the averaged L^s norm of the transform on the parabola; rhs is
    N^(-d/2) times the counting L^r norm of the signal, constant excluded.
    Every exponent must be at least 1.  The rhs of every exponent reads one
    |f| and one zero mask (_power_sums) and equals, bit for bit, the rhs of
    a call with that exponent alone.

    The transform is read only where the parabola reads it: the N values
    (t, t^2) of W X W / N are cells of W X W[:, Q] / N, Q the |Q| distinct
    squares mod N (_square_columns), so a grid costs 2 N^2 |Q| multiply-adds,
    not the 2 N^3 of the dense transform, and a chunk of B grids makes two
    products of B N |Q| values.  The 1/N is _scaled's real multiply on the N
    values read.  A product over a subset of W's columns may round
    differently from the dense one: lhs is within about an ulp of the dense
    transform's reading, not equal to it bit for bit.

    The grids are flattened to (B, N, N), a lone grid to (1, N, N), and run
    in consecutive chunks of _chunk_grids(N) whole grids, so the transform's
    temporaries stay a few chunks in size whatever B is.  Each grid's
    transform is its own matrix product, each sum runs pairwise along one
    grid's contiguous values, and the roots are taken value by value, so a
    grid gets the same bits alone, in any batch and at any chunk size.
    """
    rs = (r, *more_r)
    for e in rs:
        _check_exponents(s=s, r=e)
    n = ring.modulus
    sigma = _parabola_over(ring, sigma)
    values = np.asarray(values)
    if values.shape[-2:] != (n, n):
        raise ValueError(f"expected trailing axes ({n}, {n}), got shape {values.shape}")
    grids = values.reshape(-1, n, n)
    w, (columns, cells) = _dft_matrix(n), _square_columns(n)
    means: list[float] = []
    sums: list[list[float]] = [[] for _ in rs]
    step = _chunk_grids(n)
    for i in range(0, len(grids), step):
        chunk = grids[i : i + step]
        product = np.matmul(w, np.matmul(chunk, columns)).reshape(len(chunk), -1)
        # a C-contiguous (B, N) copy, so that each row sums pairwise, as a lone grid's mean does
        on_parab = _scaled(np.take(product, cells, axis=1), n)
        del product  # else it lives on through _power_sums and the next chunk's products
        means += ((np.abs(on_parab) ** s).sum(axis=-1) / n).tolist()
        for kept, chunk_sums in zip(sums, _power_sums(chunk, *rs)):
            kept += chunk_sums.tolist()
    shape = values.shape[:-2]
    return _roots(means, s).reshape(shape), *((_roots(kept, e) / n).reshape(shape) for kept, e in zip(sums, rs))


def _labeled_chunks(
    labeled: Iterable[tuple[str, np.ndarray]], shape: tuple[int, ...]
) -> Iterator[tuple[list[str], np.ndarray]]:
    """(labels, stack) for consecutive chunks of labeled complex arrays of one shape, in their order.

    A chunk is one piece of such arrays (_items_per_piece).  Every chunk is
    written into one reused buffer, the last chunk into its leading rows,
    so a chunk is valid only until the next one is drawn.  ValueError for
    an array of another shape.
    """
    buf = np.empty((_items_per_piece(16 * math.prod(shape)), *shape), dtype=np.complex128)
    labels: list[str] = []
    for label, member in labeled:
        if np.shape(member) != shape:
            raise ValueError(f"expected shape {shape}, got {np.shape(member)} for {label!r}")
        buf[len(labels)] = member
        labels.append(label)
        if len(labels) == len(buf):
            yield labels, buf
            labels = []
    if labels:
        yield labels, buf[: len(labels)]


def restriction_bytes(ring: RingContext) -> int:
    """Peak bytes of scoring test signals a chunk at a time at modulus N (restrict-verify, sharpness).

    With B = _chunk_grids(N), one piece of grids, and a grid of 16 N^2
    bytes: the chunk buffer and the transform's two products (3 B grids,
    kept from the dense transform: each product holds B N |Q| values, and
    |Q| <= (N + 2) / 2, since t and -t share a square, so the two
    take about B grids); the grid being built, W, W[:, Q] and conj(W), and a
    family's index arrays (5 grids); and each chunk grid's label and floats
    (under 256 bytes a grid).  _power_sums holds |f| (8 N^2 a grid), its
    mask (N^2), the zero array, and the nonzero cells' values and their
    powers (under 8 N^2 each), |f| freed before the zero array is made:
    under two grids a grid, after the transform's products are freed.  From
    N = 182 on a chunk is one grid, and this is 8 grids and 256 bytes.
    """
    n = ring.modulus
    b = _chunk_grids(n)
    return 16 * n * n * (3 * b + 5) + 256 * b


def _report(
    ring: RingContext,
    params: RestrictionParams,
    lhs: float,
    rhs: float,
    witness_kind: str,
) -> RestrictionReport:
    ratio = _ratio(lhs, rhs)
    satisfied = True if params.constant is None else ratio <= params.constant + SATISFACTION_TOL
    return RestrictionReport(
        n=ring.modulus,
        omega=ring.omega,
        squarefree=ring.squarefree,
        s=params.s,
        r=params.r,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        constant=params.constant,
        satisfied=satisfied,
        witness_kind=witness_kind,
    )


def _scored(
    sigma: ParabolaSet,
    labeled: Iterable[tuple[str, np.ndarray]],
    shape: tuple[int, ...],
    norms: Callable[..., tuple[np.ndarray, np.ndarray]],
    params: RestrictionParams,
) -> Iterator[RestrictionReport]:
    """The report of each labeled member of one shape, in order, scored a chunk of members at a time.

    The one report loop of every check, a lone member being a chunk of one.
    A chunk must be finite; norms(ring, chunk, sigma, s, r) gives its (lhs,
    rhs) arrays: restriction_quantities for (N, N) signal grids,
    _extension_norms for (N,) coefficient rows.
    """
    ring = sigma.ring
    for labels, chunk in _labeled_chunks(labeled, shape):
        if not np.all(np.isfinite(chunk.view(np.float64))):
            raise ValueError("values must be finite")
        lhs, rhs = norms(ring, chunk, sigma, params.s, params.r)
        for label, lhs_i, rhs_i in zip(labels, lhs.tolist(), rhs.tolist()):
            yield _report(ring, params, lhs_i, rhs_i, label)


def verify_restriction(
    f: Signal2D,
    sigma: ParabolaSet | None = None,
    params: RestrictionParams = RestrictionParams(),
    witness_kind: str = "",
) -> RestrictionReport:
    """Evaluate lhs, rhs, and ratio for any exponent pair; no squarefree gate."""
    return next(verify_signals(_parabola_over(f.ring, sigma), [(witness_kind, f.values)], params))


def verify_main_theorem(
    f: Signal2D,
    sigma: ParabolaSet | None = None,
    witness_kind: str = "",
) -> RestrictionReport:
    """Check the certified (s, r) = (2, 4/3) estimate; squarefree moduli only."""
    return next(verify_signals(_parabola_over(f.ring, sigma), [(witness_kind, f.values)]))


def verify_signals(
    sigma: ParabolaSet,
    labeled: Iterable[tuple[str, np.ndarray]],
    params: RestrictionParams | None = None,
) -> Iterator[RestrictionReport]:
    """The report of each labeled (N, N) signal grid, in order, scored a chunk of grids at a time.

    params None checks the certified (2, 4/3) estimate (squarefree N only).
    verify_restriction and verify_main_theorem return the report of a
    stream of one; restriction_quantities gives a grid the same bits in any
    chunk.  The grids are copied into one reused chunk of _chunk_grids(N),
    so the iterable may yield each from a buffer it reuses.
    """
    if params is None:
        params = RestrictionParams(s=2.0, r=4.0 / 3.0, constant=certified_constant(sigma.ring))
    return _scored(sigma, labeled, (sigma.ring.modulus,) * 2, restriction_quantities, params)


@dataclass(frozen=True)
class UniversalCertificate:
    """Size and energy certificates with the constant they imply."""

    n: int
    omega: int
    lambda_size: float  # |Sigma| / N^(d/2)
    lambda_energy: int  # max additive representation count over Sigma
    implied_constant: float  # lambda_energy^(1/4), since lambda_size is 1
    certified_constant: float  # 2^(omega/4)
    satisfied: bool  # implied_constant <= certified_constant + SATISFACTION_TOL


def universal_certificate(sigma: ParabolaSet) -> UniversalCertificate:
    """Certificates from the full parabola's largest pair-sum class; squarefree moduli only.

    lambda_energy bounds every subset at once: for U inside Sigma each pair-sum
    multiplicity is at most the full-set maximum, so E(U) <= max_rep * |U|^2.
    max_rep is energy_exact's closed form, a product over the prime powers of
    N, so a certificate costs a few integer operations at any modulus.
    """
    ring = sigma.ring
    constant = certified_constant(ring)  # the squarefree gate, before the energy count
    max_rep = energy_exact(sigma).max_rep
    implied = max_rep**0.25
    return UniversalCertificate(
        n=ring.modulus,
        omega=ring.omega,
        lambda_size=len(sigma) / float(ring.modulus),  # N^(d/2) = N when d = 2
        lambda_energy=max_rep,
        implied_constant=implied,
        certified_constant=constant,
        satisfied=implied <= constant + SATISFACTION_TOL,
    )


def _extension_norms(
    ring: RingContext, coefficients: np.ndarray, sigma: ParabolaSet | None, p: float, q: float
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized L^p and L^q norms of the extensions of coefficient rows (..., N).

    For f = extend_from(c), N f(x) = sum_t c_t e(<x, p_t>/N) over the
    parabola points p_t = (t, t^2), and the norm of exponent e is
    (mean_x |N f|^e)^(1/e) / N.  Two exponents come from the coefficients,
    with no N x N grid:

        e = 2:  mean_x |N f|^2 = sum_t |c_t|^2                  (Parseval),
        e = 4:  mean_x |N f|^4 = sum_m |b_m|^2,  b_m = sum_{p_t + p_t' = m} c_t c_t',

    the second being the additive-energy identity, with b_m from
    parabola._pair_sum_energy.  Cauchy-Schwarz within each class m gives
    |b_m|^2 <= r(m) sum |c_t c_t'|^2, so sum_m |b_m|^2 <= max_rep ||c||_2^4,
    and max_rep <= 2^omega on squarefree N: the L^4 bound made visible.
    Every other exponent (1, for verify_l1_l2) reads the grid f, the inverse
    transform of c laid on the parabola.  Each row's sums run in a fixed order, so a
    single row gets the same bits as that row inside a batch, except where
    _pair_sum_energy's rows move with the batch (its docstring).
    """
    sigma = _parabola_over(ring, sigma)
    n = ring.modulus
    c = np.asarray(coefficients, dtype=np.complex128)
    if c.shape[-1:] != (n,):
        raise ValueError(f"expected trailing axis {n}, got shape {c.shape}")
    rows = np.ascontiguousarray(c.reshape(-1, n))

    def power_mean(e: float) -> np.ndarray:
        # mean_x |N f(x)|^e, one per row
        if e == 2:
            return _frobenius2(rows)
        if e == 4:
            return _pair_sum_energy(n, rows)
        return (np.abs(n * idft_array(n, embed_coefficients(sigma, rows))) ** e).mean(axis=(-2, -1))

    def norm(e: float) -> np.ndarray:
        return (power_mean(e) ** (1.0 / e) / n).reshape(c.shape[:-1])

    return norm(p), norm(q)


def verify_dual(
    coefficients: Sequence[complex] | np.ndarray,
    sigma: ParabolaSet,
    witness_kind: str = "",
) -> RestrictionReport:
    """L^4 bound for signals with spectrum supported on the parabola.

    For f = extend_from(c):  ||f||_4 <= 2^(omega/4) * N^(-1/2) * ||f||_2 in
    counting norms, which is the same ratio as normalized L^4 over L^2.
    The one report of verify_duals on c alone.
    """
    return next(verify_duals(sigma, [(witness_kind, coefficients)]))


def verify_duals(
    sigma: ParabolaSet, labeled: Iterable[tuple[str, Sequence[complex] | np.ndarray]]
) -> Iterator[RestrictionReport]:
    """verify_dual's report of each labeled coefficient vector, in order, scored a chunk of rows at a time.

    A chunk is one piece of (N,) rows, and _pair_sum_energy runs its own
    pieces of rows below that.  A report equals verify_dual's on its vector
    alone bit for bit wherever _extension_norms gives a row the same bits in
    any batch: everywhere but N = 2 (_pair_sum_energy).
    """
    params = RestrictionParams(s=4.0, r=2.0, constant=certified_constant(sigma.ring))
    return _scored(sigma, labeled, (sigma.ring.modulus,), _extension_norms, params)


def dual_ratios(ring: RingContext, coefficients: np.ndarray, sigma: ParabolaSet | None = None) -> np.ndarray:
    """Batch of ||f||_4 / (N^(-1/2) ||f||_2) ratios for coefficient rows (..., N)."""
    lhs, rhs = _extension_norms(ring, coefficients, sigma, 4, 2)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(rhs == 0.0, 0.0, lhs / np.where(rhs == 0.0, 1.0, rhs))
    return np.asarray(out, dtype=float)


def verify_l1_l2(
    coefficients: Sequence[complex] | np.ndarray,
    sigma: ParabolaSet,
    witness_kind: str = "",
) -> RestrictionReport:
    """Normalized ||f||_2 <= K^2 * normalized ||f||_1 for parabola spectra.

    K is the dual L^4 constant; the exponent q/(q-2) equals 2 at q = 4.
    """
    params = RestrictionParams(s=2.0, r=1.0, constant=certified_constant(sigma.ring) ** 2)
    return next(_scored(sigma, [(witness_kind, coefficients)], (sigma.ring.modulus,), _extension_norms, params))


@dataclass(frozen=True)
class DualityChain:
    """Intermediate quantities of the L^4 bound derivation, for step checks.

    With f = extend_from(c), g = f * conj(f)^2 and h = conj(g):
    pairing       = sum_x |f|^4 = <f, h> moved to the frequency side,
    cauchy_schwarz= ||f||_2 * (sum_t |hhat(t, t^2)|^2)^(1/2),
    restriction   = ||f||_2 * sqrt(N) * 2^(omega/4) * (1/N) * ||h||_{4/3},
    and ||h||_{4/3} = (sum |f|^4)^(3/4) closes the loop.
    """

    l4_fourth_power: float
    pairing: float
    cauchy_schwarz: float
    restriction_bound: float
    h_norm_43: float


def duality_chain(coefficients: Sequence[complex] | np.ndarray, sigma: ParabolaSet) -> DualityChain:
    """Evaluate each step of the dual derivation on one coefficient vector."""
    ring = sigma.ring
    n = ring.modulus
    f = extend_from(sigma, coefficients)
    fv = f.values
    g = fv * np.conj(fv) ** 2
    h = np.conj(g)
    t0 = float((np.abs(fv) ** 4).sum())
    fhat_sigma = restrict_to(sigma, dft(f))
    hhat_sigma = restrict_to(sigma, dft(Signal2D(ring, h)))
    pairing = float(abs(np.sum(fhat_sigma * np.conj(hhat_sigma))))
    f_l2 = lp_norm(f, 2)
    cs = float(f_l2 * np.sqrt((np.abs(hhat_sigma) ** 2).sum()))
    h_norm = lp_norm(h, 4.0 / 3.0)
    bound = float(f_l2 * np.sqrt(n) * certified_constant(ring) * h_norm / n)
    return DualityChain(
        l4_fourth_power=t0,
        pairing=pairing,
        cauchy_schwarz=cs,
        restriction_bound=bound,
        h_norm_43=h_norm,
    )


@dataclass(frozen=True, eq=False)
class UncertaintyVerdict:
    """Outcome of a support search below the forbidden-zone line N^2 / 2^omega."""

    n: int
    max_support: int
    found: bool
    support: tuple[tuple[int, int], ...] | None
    coefficients: np.ndarray | None
    method: str  # "exhaustive" or "randomized"
    supports_checked: int
    min_margin: float  # smallest off-support singular value seen (absolute, not scaled)


def extension_matrix(sigma: ParabolaSet) -> np.ndarray:
    """N^2 x N matrix E with E[x, t] = (1/N) exp(+2 pi i <x, (t, t^2)> / N).

    Entries are read from the conjugated root table at the phase
    <x, (t, t^2)> mod N.  Columns are orthonormal characters; extend_from(c)
    is E @ c laid on the grid.
    """
    n = sigma.ring.modulus
    x1 = np.repeat(np.arange(n), n)
    x2 = np.tile(np.arange(n), n)
    phase = (np.outer(x1, sigma.rows) + np.outer(x2, sigma.cols)) % n
    return _root_table(n).conj()[phase] / n


def _gram_products(ext: np.ndarray) -> np.ndarray:
    """(N^2, 2N^2) float64 view of conj(E[x, t]) * E[x, s].

    Row x holds the complex (N, N) outer product of row x of E with itself, so
    for a 0/1 indicator row 1_T the product 1_T @ P is the Gram E_T^H E_T laid
    out as N^2 complex numbers: one real GEMM builds a whole chunk of Grams.
    """
    n2, n = ext.shape
    return (ext.conj()[:, :, None] * ext[:, None, :]).view(np.float64).reshape(n2, 2 * n * n)


_CHUNK_BYTES = 16 << 20  # per-chunk budget for the draw, the Grams and what builds them


def _scan_plan(n: int, k: int, batch: int | None) -> tuple[int, bool]:
    """(supports per chunk, whether one GEMM builds the Grams) for a scan of batch supports of size k.

    A support costs, in bytes: its row of float64 uniforms (8 N^2) and the
    partition copy that finds their k-th smallest (8 N^2), its boolean mask
    (N^2), its (N, N) complex Gram (16 N^2), and what builds the Gram.  The
    one-GEMM build needs P = _gram_products(E) (16 N^4 bytes) and a float64
    indicator of each support (8 N^2); the gather it replaces, a (k, N)
    complex row stack per support (16 k N).  The chunk is batch (None: no
    cap), capped so its arrays fit in _CHUNK_BYTES at the GEMM's per-support
    cost; the GEMM is picked when it then uses no more memory than the
    gather would.  Else the chunk is capped at the gather's cost.  The GEMM
    only wins as the chunk grows, so a chunk capped for the gather is never
    one the GEMM would build.  The exhaustive path draws no uniforms, so its chunks are
    counted high.  _CHUNK_BYTES comes from a measured sweep of 8 to 64 MB,
    made while every chunk solved its own probe Grams; larger chunks stream
    more fresh memory.  The verdict does not depend on the chunk size: the
    generator's draws split sequentially and the maximum lambda_max over
    chunks is exact.  min_margin can move in its last bits, because BLAS may
    round a row of the one-GEMM build differently at another chunk size, and
    the cap can switch the build.
    """
    common = 33 * n * n  # uniforms, partition copy, mask and Gram
    cap = math.inf if batch is None else batch
    chunk = max(1, min(cap, _CHUNK_BYTES // (common + 8 * n * n)))
    if 2 * n**4 + chunk * n * n <= 2 * chunk * k * n:
        return chunk, True
    return max(1, min(cap, _CHUNK_BYTES // (common + 16 * k * n))), False


def _grams(ext: np.ndarray, masks: np.ndarray, products: np.ndarray | None) -> np.ndarray:
    """(B, N, N) Grams E_T^H E_T, one per (B, N^2) boolean support mask.

    With products, one GEMM of the masks as a float64 indicator; without,
    a gather of each support's rows of E, its cells read in ascending order.
    """
    b = masks.shape[0]
    if products is None:
        rows = ext[np.nonzero(masks)[1].reshape(b, -1)]  # (B, k, N)
        return np.matmul(rows.conj().transpose(0, 2, 1), rows)
    n = ext.shape[1]
    return (masks.astype(np.float64) @ products).view(np.complex128).reshape(b, n, n)


def _margin(lam: float | np.ndarray) -> float | np.ndarray:
    """Smallest off-support singular value of a support whose Gram E_T^H E_T has largest eigenvalue lam.

    With orthonormal columns the off-T rows satisfy
    (E_offT)^H E_offT = I - (E_T)^H E_T, so s_min(off) = sqrt(1 - lambda_max).
    The map is monotone in floating point, so the largest lambda_max gives
    the smallest margin bit for bit.
    """
    return np.sqrt(np.clip(1.0 - lam, 0.0, None))


def _margins(gram: np.ndarray) -> np.ndarray:
    """_margin of each Gram of a (B, N, N) batch."""
    return _margin(np.linalg.eigvalsh(gram)[:, -1])


_SCREEN_PROBE = 64  # Grams solved first to set the screening level
_SCREEN_SLACK = 1e-12  # covers rounding in eigvalsh (and in the first-stage bound)
_POWER_SLACK = 16 * np.finfo(float).eps  # times N^2 ||G||_F^4: rounding in the G^4 bound


def _frobenius2(m: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each item of a (B, ...) C-contiguous complex batch."""
    flat = m.reshape(m.shape[0], -1).view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def _wolkowicz_styan(tau: float | np.ndarray, spread: np.ndarray, r: int) -> np.ndarray:
    """Upper bound on the largest of r reals with sum tau and sum of squared deviations spread.

    max <= tau/r + sqrt((r-1)/r * spread) (Wolkowicz and Styan, Linear
    Algebra Appl. 29, 1980); equality when the other r - 1 values are equal.
    """
    return tau / r + np.sqrt(np.clip((r - 1) / r * spread, 0.0, None))


def _lambda_max_bound(phi2: np.ndarray, k: int, n: int) -> np.ndarray:
    """First stage: bound on lambda_max of each Gram of |T| = k rows from phi2 = ||G||_F^2.

    G = E_T^H E_T has rank at most r = min(k, N), so its r largest
    eigenvalues carry its trace tau = k/N (exact: every row of E has squared
    norm 1/N) and its squared Frobenius norm phi^2; their spread about the
    mean is phi^2 - tau^2/r.  This cuts well while k is at most about N; at
    the zone edge k is near N^2/2^omega and the bound exceeds every level.
    """
    r = min(k, n)
    tau = k / n
    return _wolkowicz_styan(tau, phi2 - tau * tau / r, r)


def _fourth_power_bound(gram: np.ndarray, phi2: np.ndarray) -> np.ndarray:
    """Second stage: bound on lambda_max of each Gram from the same bound on G^4.

    G^4 has the eigenvalues lambda^4, trace ||G^2||_F^2 and spread
    ||G^4 - (tr/N) I||_F^2 about its mean; Wolkowicz-Styan over all N of them
    (valid at any rank) bounds lambda_max^4, and the fourth root bounds
    lambda_max.  Raising to the fourth power pulls the top eigenvalue away
    from the rest, so the bound is far tighter than the first stage's, for
    two batched N x N products per Gram.

    Slack.  Let eps = 2^-52 and F = ||G||_F^2 (phi2).  A complex N x N
    product errs by at most 2N eps ||X||_F ||Y||_F in Frobenius norm, so the
    computed G^2 is off by 2N eps F and G^4 by 6N eps F^2, and the trace, a
    sum of 2N^2 squares of the computed G^2, by (N^2 + 4N) eps F^2.  The
    spread is formed centered, as the norm of G^4 - (tr/N) I, so these
    errors move its square root by at most their own size (triangle
    inequality): no difference of two near-equal sums of squares loses
    digits.  (The uncentered ||G^4||_F^2 - tr^2/N would put an error of
    about N sqrt(eps) F^2 on the bound when the eigenvalues are nearly
    equal.)  With the rounding of that norm itself, the bound on
    lambda_max^4 is off by less than 8 N^2 eps F^2 for every N >= 2;
    _POWER_SLACK adds twice that before the fourth root.  eigvalsh's own
    error is covered by _SCREEN_SLACK where the bound is compared.
    """
    b, n, _ = gram.shape
    g2 = np.matmul(gram, gram)
    tau = _frobenius2(g2)
    g4 = np.matmul(g2, g2)
    g4.reshape(b, -1)[:, :: n + 1] -= (tau / n)[:, None]
    bound4 = _wolkowicz_styan(tau, _frobenius2(g4), n)
    return (bound4 + _POWER_SLACK * n * n * phi2 * phi2) ** 0.25


def _top_eigenvalue(gram: np.ndarray, k: int, level: float = -math.inf) -> float:
    """max(level, largest lambda_max over gram), solving only Grams whose bound can exceed the level, each once.

    With no level (a scan's first chunk), the min(B, _SCREEN_PROBE) Grams
    with the largest first-stage bounds (one Frobenius norm each) are solved
    first and their largest lambda_max sets it; a later chunk screens
    against the largest lambda_max of the chunks before it and solves no
    probes.  A Gram whose bound plus slack is below the level cannot exceed
    it.  The other first-stage survivors go to the fourth-power bound in
    slices of one piece of Grams (_items_per_piece), and only its survivors
    are solved.  So the result is the unscreened maximum bit for bit, not an
    estimate.
    """
    n = gram.shape[1]
    phi2 = _frobenius2(gram)
    bound = _lambda_max_bound(phi2, k, n)
    solved = np.zeros(0, dtype=np.intp)
    if level == -math.inf:
        solved = np.argpartition(bound, -min(gram.shape[0], _SCREEN_PROBE))[-_SCREEN_PROBE:]
        level = np.linalg.eigvalsh(gram[solved])[:, -1].max()
    alive = bound + _SCREEN_SLACK >= level
    alive[solved] = False
    alive = np.flatnonzero(alive)
    keep = np.zeros(alive.size, dtype=bool)
    step = _items_per_piece(gram[0].nbytes)
    for i in range(0, alive.size, step):
        s = alive[i : i + step]
        keep[i : i + step] = _fourth_power_bound(gram[s], phi2[s]) + _SCREEN_SLACK >= level
    return float(np.linalg.eigvalsh(gram[alive[keep]])[:, -1].max(initial=level))


def _scan_chunk(
    ext: np.ndarray, masks: np.ndarray, k: int, products: np.ndarray | None, level: float = -math.inf
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """(top, witness support, witness coefficients) over one chunk of k-cell support masks.

    top is _top_eigenvalue of the chunk's Grams at the given level.  The
    witness is the first support whose margin is <= RANK_RTOL, as sorted
    flat cell indices, with a unit coefficient vector whose extension
    vanishes off it; both are None when the chunk has no such support.  The
    vector is the top eigenvector of that support's Gram E_T^H E_T: the
    columns of E are orthonormal, so ||E_offT c||^2 = 1 - c^H E_T^H E_T c,
    which is zero at eigenvalue 1.  A level carried from earlier chunks
    found no witness there, so a witness can only be one of this chunk's.
    """
    gram = _grams(ext, masks, products)
    top = _top_eigenvalue(gram, k, level)
    if _margin(top) > RANK_RTOL:
        return top, None, None
    first = int(np.flatnonzero(_margins(gram) <= RANK_RTOL)[0])
    return top, np.flatnonzero(masks[first]), np.linalg.eigh(gram[first])[1][:, -1]


def _random_supports(rng: np.random.Generator, count: int, universe: int, k: int) -> np.ndarray:
    """(count, universe) boolean masks, each marking the k cells of its row's smallest uniforms.

    A row marks the cells at or below its k-th smallest uniform.  A tie at
    that value marks more than k cells; such a row takes the k cells
    np.argpartition picks instead.  So every mask holds exactly the cells of
    np.argpartition(u, k, axis=1)[:, :k] on the same draw.
    """
    u = rng.random((count, universe))
    masks = u <= np.partition(u, k - 1, axis=1)[:, k - 1 : k]
    if np.count_nonzero(masks) > count * k:  # every row has k marks or more
        for i in np.flatnonzero(np.count_nonzero(masks, axis=1) > k):
            masks[i] = False
            masks[i, np.argpartition(u[i], k)[:k]] = True
    return masks


def _exhaustive_supports(combos: Iterator[tuple[int, ...]], count: int, universe: int, k: int) -> np.ndarray:
    """(count, universe) boolean masks: cell 0 plus each of the next count (k - 1)-cell combos."""
    flat = itertools.chain.from_iterable(itertools.islice(combos, count))
    cells = np.fromiter(flat, np.intp, count * (k - 1))
    masks = np.zeros((count, universe), dtype=bool)
    masks[:, 0] = True
    np.put_along_axis(masks, cells.reshape(count, k - 1), True, axis=1)
    return masks


_EXHAUSTIVE_CAP = 2_500_000  # the scan is exhaustive when C(N^2, max_support) is at most this


def uncertainty_bytes(ring: RingContext, max_support: int) -> int:
    """Peak bytes of uncertainty_search at modulus N, from shapes alone.

    Building the N^2 x N extension matrix E peaks at 40 N^3 bytes: the
    int64 phases (8 N^3), the gathered roots and E (16 N^3 each).  When
    _scan_plan picks the GEMM, P = _gram_products(E) adds 16 N^4 and the
    conj(E) that builds it 16 N^3.  A chunk's arrays take _CHUNK_BYTES, or
    one support's 41 N^2 + 16 k N when that is more (_scan_plan).  The
    estimate adds these peaks.  The chunk is sized with no batch cap, never
    fewer supports than the search uses, so the GEMM is counted whenever the
    search could pick it.  k is max_support clamped to [1, N^2], so a size
    outside the zone reaches the search's own check.
    """
    n = ring.modulus
    k = min(max(1, max_support), n * n)
    products = 16 * n**4 + 16 * n**3 if _scan_plan(n, k, None)[1] else 0
    return 40 * n**3 + products + max(_CHUNK_BYTES, 41 * n * n + 16 * k * n)


def uncertainty_search(
    sigma: ParabolaSet,
    max_support: int,
    *,
    samples: int = 1_000_000,
    seed: int = 0,
    batch: int | None = None,
) -> UncertaintyVerdict:
    """Look for a nonzero signal with spectrum on the parabola and small support.

    A support T admits one iff the rows of the extension matrix off T have rank
    below N (a smallest singular value at most RANK_RTOL counts as zero).
    Rank deficiency is monotone in T, so scanning supports of size exactly
    max_support covers every smaller support as well.  All sizes inside the
    forbidden zone max_support < N^2 / 2^omega must come back empty; a size
    above zone_edge(ring) is rejected: the paper's bound does not cover it.

    The exhaustive path (when C(N^2, max_support) <= _EXHAUSTIVE_CAP) scans
    only the supports that contain cell (0, 0).  Translating T by a multiplies
    the rows of E by a diagonal unitary, E_{(T+a)^c} = E_{T^c} D_a, so T and
    T + a have the same off-support singular values, and every T has a
    translate through (0, 0).  supports_checked counts the supports decided:
    C(N^2, max_support) when nothing is found; on a find it counts only the
    representatives scanned so far.  The randomized path draws samples
    supports and rejects samples < 1: zero draws would decide nothing.
    Supports go in chunks of at most batch (None: no cap; batch < 1 is
    rejected), fewer where a chunk's arrays would pass _CHUNK_BYTES.
    """
    ring = sigma.ring
    edge = zone_edge(ring)
    n = ring.modulus
    universe = n * n
    if not (1 <= max_support <= edge):
        raise ValueError(f"max_support must be in [1, {edge}], below N^2/2^omega, for N={n}, got {max_support}")
    if batch is not None and batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    ext = extension_matrix(sigma)
    total = math.comb(universe, max_support)
    exhaustive = total <= _EXHAUSTIVE_CAP
    method = "exhaustive" if exhaustive else "randomized"
    if not exhaustive and samples < 1:
        raise ValueError(f"the randomized search needs samples >= 1, got {samples}")
    scanned = math.comb(universe - 1, max_support - 1) if exhaustive else samples
    chunk, gemm = _scan_plan(n, max_support, scanned if batch is None else min(batch, scanned))
    products = _gram_products(ext) if gemm else None
    if exhaustive:
        draw, source = _exhaustive_supports, itertools.combinations(range(1, universe), max_support - 1)
    else:
        draw, source = _random_supports, spawn_rng(seed, n, max_support)
    checked = 0
    top = -math.inf  # largest lambda_max so far: the next chunk's screening level
    while checked < scanned:
        masks = draw(source, min(chunk, scanned - checked), universe, max_support)
        top, t_flat, coeff = _scan_chunk(ext, masks, max_support, products, top)
        checked += masks.shape[0]
        if t_flat is not None:
            break
    found = t_flat is not None
    return UncertaintyVerdict(
        n=n,
        max_support=max_support,
        found=found,
        support=tuple((int(i) // n, int(i) % n) for i in t_flat) if found else None,
        coefficients=coeff,
        method=method,
        supports_checked=total if exhaustive and not found else checked,
        min_margin=float(_margin(top)),
    )


@dataclass(frozen=True, eq=False)
class ProbeResult:
    """Best restriction ratios over a structured family, both test exponents."""

    n: int
    omega: int
    squarefree: bool
    best: tuple[RestrictionReport, RestrictionReport]  # the first largest ratio at r = 4/3, then at r = 6/5

    @property
    def best_ratio(self) -> float:  # at r = 4/3
        return self.best[0].ratio

    @property
    def best_witness(self) -> str:
        return self.best[0].witness_kind


def _square_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % (d * d) == 0]


def _probe_candidates(ring: RingContext, trials: int, seed: int) -> Iterator[tuple[str, np.ndarray]]:
    """(label, grid) of each sharpness candidate, built one at a time: stride boxes, then random draws."""
    n = ring.modulus
    for d1, d2 in itertools.product(_square_divisors(n), repeat=2):
        yield f"stride_box(d1={d1},d2={d2},a=0,b=0)", stride_box_values(ring, d1, d2, 0, 0)
    rng = spawn_rng(seed, n)
    for i in range(trials):
        size = int(rng.integers(1, max(2, n * n // 4)))
        yield f"random_indicator(size={size},trial={i})", sparse_values(ring, rng, size, indicator=True)


def sharpness_probe(ring: RingContext, *, trials: int = 200, seed: int = 0) -> ProbeResult:
    """Hunt for large restriction ratios; any modulus, no certified constant.

    The structured family runs over indicators of stride boxes
    {d1*i} x {d2*j} for every ordered divisor pair with d1^2 | N and
    d2^2 | N (d = 1 included, so lines and the full grid appear), plus random
    sparse indicators.  A translate {a + d1*i} x {b + d2*j} multiplies the
    transform by a unimodular character and permutes |f|, so it has the same
    ratio and only the box at the origin is scored.  The candidates are
    written, in the order they are built, into one reused chunk of
    _chunk_grids(N) grids, and each chunk is scored at r = 4/3 and r = 6/5
    by one restriction_quantities call: one transform per candidate for both
    exponents, and the bits each candidate gets alone.  The picks then run
    in candidate order, and a report is built only when a ratio beats the
    best so far at that exponent (strictly, so the first of equal ratios is
    kept, across chunks too); memory does not grow with the candidate count,
    and scoring draws nothing from the generator.
    trials must be >= 0.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    sigma = build_parabola(ring)
    n = ring.modulus
    exponents = (4.0 / 3.0, 6.0 / 5.0)
    best: list[RestrictionReport | None] = [None, None]
    for labels, grids in _labeled_chunks(_probe_candidates(ring, trials, seed), (n, n)):
        lhs, *rhs = restriction_quantities(ring, grids, sigma, 2.0, *exponents)
        lhs = lhs.tolist()
        for i, r in enumerate(exponents):
            for label, lhs_j, rhs_j in zip(labels, lhs, rhs[i].tolist()):
                if best[i] is None or _ratio(lhs_j, rhs_j) > best[i].ratio:
                    best[i] = _report(ring, RestrictionParams(s=2.0, r=r, constant=None), lhs_j, rhs_j, label)
    return ProbeResult(n=n, omega=ring.omega, squarefree=ring.squarefree, best=(best[0], best[1]))
