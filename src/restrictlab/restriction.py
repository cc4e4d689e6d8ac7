"""Numerical verification of restriction inequalities on the parabola.

The central estimate, certified for squarefree N with constant 2^(omega(N)/4):

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
from typing import Iterator, Sequence

import numpy as np

from .families import sparse_values, stride_box_values
from .fourier import Signal2D, _idft_matrix, dft, dft_array, lp_norm
from .parabola import (
    ParabolaSet,
    _extension_kernel,
    build_parabola,
    coefficient_vector,
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
        if not (1.0 <= self.r <= self.s):
            raise ValueError(f"need 1 <= r <= s, got r={self.r}, s={self.s}")


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
    return float(2.0 ** (ring.omega / 4.0))


def _check_exponents(**exponents: float) -> None:
    """ValueError unless every named exponent is at least 1."""
    for name, e in exponents.items():
        if not e >= 1:
            raise ValueError(f"{name} must be >= 1, got {e}")


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


def _signal_norm(values: np.ndarray, r: float, n: int) -> np.ndarray:
    # N^(-d/2) times the counting L^r norm over the last two axes
    return (np.abs(values) ** r).sum(axis=(-2, -1)) ** (1.0 / r) / n


def restriction_quantities(
    ring: RingContext,
    values: np.ndarray,
    sigma: ParabolaSet | None = None,
    s: float = 2.0,
    r: float = 4.0 / 3.0,
) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) arrays for one or a batch (..., N, N) of signal grids.

    lhs is the averaged L^s norm of the transform on the parabola; rhs is
    N^(-d/2) times the counting L^r norm of the signal, constant excluded.
    Both exponents must be at least 1.
    """
    _check_exponents(s=s, r=r)
    n = ring.modulus
    sigma = _parabola_over(ring, sigma)
    spectra = dft_array(n, values)
    on_parab = spectra[..., sigma.rows, sigma.cols]
    lhs = (np.abs(on_parab) ** s).mean(axis=-1) ** (1.0 / s)
    rhs = _signal_norm(values, r, n)
    return np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)


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


def verify_restriction(
    f: Signal2D,
    sigma: ParabolaSet | None = None,
    params: RestrictionParams = RestrictionParams(),
    witness_kind: str = "",
) -> RestrictionReport:
    """Evaluate lhs, rhs, and ratio for any exponent pair; no squarefree gate."""
    lhs, rhs = restriction_quantities(f.ring, f.values, sigma, params.s, params.r)
    return _report(f.ring, params, float(lhs), float(rhs), witness_kind)


def verify_main_theorem(
    f: Signal2D,
    sigma: ParabolaSet | None = None,
    witness_kind: str = "",
) -> RestrictionReport:
    """Check the certified (s, r) = (2, 4/3) estimate; squarefree moduli only."""
    params = RestrictionParams(s=2.0, r=4.0 / 3.0, constant=certified_constant(f.ring))
    return verify_restriction(f, sigma, params, witness_kind)


@dataclass(frozen=True)
class UniversalCertificate:
    """Size and energy certificates with the constant they imply."""

    n: int
    omega: int
    lambda_size: float  # |Sigma| / N^(d/2)
    lambda_energy: int  # max additive representation count over Sigma
    implied_constant: float  # lambda_size^(-1/2) * lambda_energy^(1/4)
    certified_constant: float  # 2^(omega/4)


def universal_certificate(sigma: ParabolaSet) -> UniversalCertificate:
    """Certificates from exhaustive counting; squarefree moduli only.

    lambda_energy bounds every subset at once: for U inside Sigma each pair-sum
    multiplicity is at most the full-set maximum, so E(U) <= max_rep * |U|^2.
    """
    ring = sigma.ring
    constant = certified_constant(ring)  # the squarefree gate, before the energy count
    n = ring.modulus
    report = energy_exact(sigma)
    lam_size = len(sigma) / float(n)  # N^(d/2) = N when d = 2
    lam_energy = report.max_rep
    return UniversalCertificate(
        n=n,
        omega=ring.omega,
        lambda_size=lam_size,
        lambda_energy=lam_energy,
        implied_constant=float(lam_size**-0.5 * lam_energy**0.25),
        certified_constant=constant,
    )


def _extension_norms(
    ring: RingContext, coefficients: np.ndarray, sigma: ParabolaSet | None, p: float, q: float
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized L^p and L^q norms of the extensions of coefficient rows (..., N).

    The rows go through parabola's extension kernel as one (B, N) batch.
    Both norms are homogeneous, so its 1/N goes on the results, not on the
    N^2 cells.  A single row runs as a batch of one, so it gets the same bits
    as that row inside a batch.
    """
    sigma = _parabola_over(ring, sigma)
    n = ring.modulus
    c = np.asarray(coefficients, dtype=np.complex128)
    if c.shape[-1:] != (n,):
        raise ValueError(f"expected trailing axis {n}, got shape {c.shape}")
    a = np.abs(_extension_kernel(sigma, c.reshape(-1, n)))
    a2 = a * a

    def norm(e: float) -> np.ndarray:
        # the exponents the checks use come from squaring |f|, not from a**e
        power = a if e == 1 else a2 if e == 2 else a2 * a2 if e == 4 else a**e
        return (power.mean(axis=(-2, -1)) ** (1.0 / e) / n).reshape(c.shape[:-1])

    return norm(p), norm(q)


def _verify_extension(
    coefficients: Sequence[complex] | np.ndarray,
    sigma: ParabolaSet,
    params: RestrictionParams,
    witness_kind: str,
) -> RestrictionReport:
    """Normalized L^s over L^r of one extension, checked against params.constant."""
    ring = sigma.ring
    c = coefficient_vector(sigma, coefficients)
    lhs, rhs = _extension_norms(ring, c, sigma, params.s, params.r)
    return _report(ring, params, float(lhs), float(rhs), witness_kind)


def verify_dual(
    coefficients: Sequence[complex] | np.ndarray,
    sigma: ParabolaSet,
    witness_kind: str = "",
) -> RestrictionReport:
    """L^4 bound for signals with spectrum supported on the parabola.

    For f = extend_from(c):  ||f||_4 <= 2^(omega/4) * N^(-1/2) * ||f||_2 in
    counting norms, which is the same ratio as normalized L^4 over L^2.
    """
    params = RestrictionParams(s=4.0, r=2.0, constant=certified_constant(sigma.ring))
    return _verify_extension(coefficients, sigma, params, witness_kind)


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
    return _verify_extension(coefficients, sigma, params, witness_kind)


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

    Entries are read from the inverse transform's root table at the phase
    <x, (t, t^2)> mod N.  Columns are orthonormal characters; extend_from(c)
    is E @ c laid on the grid.
    """
    n = sigma.ring.modulus
    x1 = np.repeat(np.arange(n), n)
    x2 = np.tile(np.arange(n), n)
    phase = (np.outer(x1, sigma.rows) + np.outer(x2, sigma.cols)) % n
    return _idft_matrix(n)[1][phase] / n


def _gram_products(ext: np.ndarray) -> np.ndarray:
    """(N^2, 2N^2) float64 view of conj(E[x, t]) * E[x, s].

    Row x holds the complex (N, N) outer product of row x of E with itself, so
    for a 0/1 indicator row 1_T the product 1_T @ P is the Gram E_T^H E_T laid
    out as N^2 complex numbers: one real GEMM builds a whole chunk of Grams.
    """
    n2, n = ext.shape
    return (ext.conj()[:, :, None] * ext[:, None, :]).view(np.float64).reshape(n2, 2 * n * n)


def _gram_by_gemm(n: int, batch: int, k: int) -> bool:
    """Whether the one-GEMM Gram build uses no more memory than the row gather.

    The GEMM needs P (16 N^4 bytes) and a float64 indicator of each support
    (8 B N^2 bytes); the gather it replaces is a (B, k, N) complex row stack
    (16 B k N bytes).  B is the largest chunk of supports.
    """
    return 2 * n**4 + batch * n * n <= 2 * batch * k * n


_CHUNK_BYTES = 256 << 20  # per-chunk budget for the Grams and what builds them


def _chunk_size(n: int, k: int, batch: int) -> int:
    """Supports per chunk: batch, capped so a chunk's arrays fit in _CHUNK_BYTES.

    A chunk holds its (B, N, N) complex Grams (16 N^2 bytes a support) and
    either the float64 indicator (8 N^2) or the (B, k, N) complex row stack
    (16 k N), whichever build _gram_by_gemm picks; the larger of the two is
    counted, so the cap holds for both.  The random draw's B x N^2 uniforms
    and partition indices (16 N^2) are freed before the Grams are built.
    The verdict does not depend on the chunk size: the generator's draws
    split sequentially and the minimum over chunks is exact.  min_margin can
    move in its last bits, because BLAS may round a row of the one-GEMM build
    differently at another chunk size, and the cap can switch the build.
    """
    per_support = 16 * n * n + max(8 * n * n, 16 * k * n)
    return max(1, min(batch, _CHUNK_BYTES // per_support))


def _grams(ext: np.ndarray, supports: np.ndarray, products: np.ndarray | None) -> np.ndarray:
    """(B, N, N) Grams E_T^H E_T, one per support row; gathers rows if products is None."""
    if products is None:
        rows = ext[supports]  # (B, k, N)
        return np.matmul(rows.conj().transpose(0, 2, 1), rows)
    b = supports.shape[0]
    n = ext.shape[1]
    indicator = np.zeros((b, n * n))
    np.put_along_axis(indicator, supports, 1.0, axis=1)
    return (indicator @ products).view(np.complex128).reshape(b, n, n)


def _margins(gram: np.ndarray) -> np.ndarray:
    """Smallest off-support singular value, one per Gram E_T^H E_T.

    With orthonormal columns the off-T rows satisfy
    (E_offT)^H E_offT = I - (E_T)^H E_T, so s_min(off) = sqrt(1 - lambda_max).
    """
    return np.sqrt(np.clip(1.0 - np.linalg.eigvalsh(gram)[:, -1], 0.0, None))


_SCREEN_PROBE = 64  # Grams solved first to set the screening level
_SCREEN_SLACK = 1e-12  # covers rounding in eigvalsh (and in the first-stage bound)
_POWER_SLACK = 16 * np.finfo(float).eps  # times N^2 ||G||_F^4: rounding in the G^4 bound
_SLICE_BYTES = 1 << 20  # bytes of Grams per second-stage slice; small slices stay in cache


def _frobenius2(m: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a (B, N, N) complex batch."""
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


def _min_margin(gram: np.ndarray, k: int) -> float:
    """min(_margins(gram)), solving each Gram at most once, and only if its bound can set it.

    The min(B, _SCREEN_PROBE) Grams with the largest first-stage bounds (one
    Frobenius norm each) are solved first; their largest lambda_max L bounds
    the chunk's from below, so a Gram whose bound plus slack is below L cannot
    exceed it.  The other first-stage survivors go to the fourth-power bound in
    slices of at most _SLICE_BYTES of Grams, and only its survivors are solved.
    The margin is formed once, from the largest lambda_max: x -> sqrt(max(1 - x,
    0)) is monotone in floating point, so it is the unscreened minimum bit for
    bit, not an estimate.
    """
    n = gram.shape[1]
    phi2 = _frobenius2(gram)
    bound = _lambda_max_bound(phi2, k, n)
    probe = np.argpartition(bound, -min(gram.shape[0], _SCREEN_PROBE))[-_SCREEN_PROBE:]
    level = np.linalg.eigvalsh(gram[probe])[:, -1].max()
    alive = bound + _SCREEN_SLACK >= level
    alive[probe] = False  # solved already
    alive = np.flatnonzero(alive)
    keep = np.zeros(alive.size, dtype=bool)
    step = max(1, _SLICE_BYTES // gram[0].nbytes)
    for i in range(0, alive.size, step):
        s = alive[i : i + step]
        keep[i : i + step] = _fourth_power_bound(gram[s], phi2[s]) + _SCREEN_SLACK >= level
    top = np.linalg.eigvalsh(gram[alive[keep]])[:, -1].max(initial=level)
    return float(np.sqrt(np.clip(1.0 - top, 0.0, None)))


def _scan_chunk(
    ext: np.ndarray, supports: np.ndarray, products: np.ndarray | None
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """(min margin, witness support, witness coefficients) over one chunk of supports.

    The witness is the first support whose margin is <= RANK_RTOL, as sorted
    flat cell indices, with a unit coefficient vector whose extension vanishes
    off it; both are None when the chunk has no such support.  The vector is
    the top eigenvector of that support's Gram E_T^H E_T: the columns of E are
    orthonormal, so ||E_offT c||^2 = 1 - c^H E_T^H E_T c, which is zero at
    eigenvalue 1.
    """
    gram = _grams(ext, supports, products)
    margin = _min_margin(gram, supports.shape[1])
    if margin > RANK_RTOL:
        return margin, None, None
    first = int(np.flatnonzero(_margins(gram) <= RANK_RTOL)[0])
    return margin, np.sort(supports[first]), np.linalg.eigh(gram[first])[1][:, -1]


def _random_supports(rng: np.random.Generator, count: int, universe: int, k: int) -> np.ndarray:
    u = rng.random((count, universe))
    return np.argpartition(u, k, axis=1)[:, :k].astype(np.intp)


_EXHAUSTIVE_CAP = 2_500_000  # the scan is exhaustive when C(N^2, max_support) is at most this


def uncertainty_search(
    sigma: ParabolaSet,
    max_support: int,
    *,
    samples: int = 1_000_000,
    seed: int = 0,
    batch: int = 100_000,
) -> UncertaintyVerdict:
    """Look for a nonzero signal with spectrum on the parabola and small support.

    A support T admits one iff the rows of the extension matrix off T have rank
    below N (a smallest singular value at most RANK_RTOL counts as zero).
    Rank deficiency is monotone in T, so scanning supports of size exactly
    max_support covers every smaller support as well.  All sizes inside the
    forbidden zone max_support < N^2 / 2^omega must come back empty; the zone
    boundary itself is rejected because the search would be vacuous.

    The exhaustive path (when C(N^2, max_support) <= _EXHAUSTIVE_CAP) scans
    only the supports that contain cell (0, 0).  Translating T by a multiplies
    the rows of E by a diagonal unitary, E_{(T+a)^c} = E_{T^c} D_a, so T and
    T + a have the same off-support singular values, and every T has a
    translate through (0, 0).  supports_checked counts the supports decided:
    C(N^2, max_support) when nothing is found; on a find it counts only the
    representatives scanned so far.  The randomized path draws samples
    supports and rejects samples < 1: zero draws would decide nothing.
    Supports go in chunks of at most batch, fewer where a chunk's arrays
    would pass _CHUNK_BYTES (_chunk_size).
    """
    ring = sigma.ring
    if not ring.squarefree:
        raise ValueError(f"modulus {ring.modulus} is not squarefree")
    n = ring.modulus
    universe = n * n
    zone = universe / (2**ring.omega)
    if not (1 <= max_support < zone):
        raise ValueError(
            f"max_support must be in [1, {zone}) = [1, N^2/2^omega) for N={n}, got {max_support}"
        )
    ext = extension_matrix(sigma)
    total = math.comb(universe, max_support)
    exhaustive = total <= _EXHAUSTIVE_CAP
    method = "exhaustive" if exhaustive else "randomized"
    if not exhaustive and samples < 1:
        raise ValueError(f"the randomized search needs samples >= 1, got {samples}")
    scanned = math.comb(universe - 1, max_support - 1) if exhaustive else samples
    chunk = _chunk_size(n, max_support, min(batch, scanned))
    products = _gram_products(ext) if _gram_by_gemm(n, chunk, max_support) else None

    def chunks() -> Iterator[np.ndarray]:
        if exhaustive:
            it = ((0,) + c for c in itertools.combinations(range(1, universe), max_support - 1))
            while True:
                block = list(itertools.islice(it, chunk))
                if not block:
                    return
                yield np.array(block, dtype=np.intp)
        else:
            rng = spawn_rng(seed, n, max_support)
            remaining = samples
            while remaining > 0:
                take = min(chunk, remaining)
                remaining -= take
                yield _random_supports(rng, take, universe, max_support)

    checked = 0
    min_margin = math.inf
    for supports in chunks():
        margin, t_flat, coeff = _scan_chunk(ext, supports, products)
        checked += supports.shape[0]
        min_margin = min(min_margin, margin)
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
        min_margin=min_margin,
    )


@dataclass(frozen=True, eq=False)
class ProbeResult:
    """Best restriction ratios over a structured family, both test exponents."""

    n: int
    omega: int
    squarefree: bool
    best_ratio: float  # at r = 4/3
    best_witness: str
    reports: tuple[RestrictionReport, ...]


def _square_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % (d * d) == 0]


def sharpness_probe(ring: RingContext, *, trials: int = 200, seed: int = 0) -> ProbeResult:
    """Hunt for large restriction ratios; any modulus, no certified constant.

    The structured family runs over indicators of stride boxes
    {a + d1*i} x {b + d2*j} for every ordered divisor pair with d1^2 | N and
    d2^2 | N (d = 1 included, so lines and the full grid appear), plus random
    sparse indicators.  Each candidate is scored at r = 4/3 and r = 6/5.
    trials must be >= 0.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    sigma = build_parabola(ring)
    n = ring.modulus
    candidates: list[tuple[str, np.ndarray]] = []
    for d1, d2 in itertools.product(_square_divisors(n), repeat=2):
        for a, b in itertools.product(range(d1), range(d2)):
            label = f"stride_box(d1={d1},d2={d2},a={a},b={b})"
            candidates.append((label, stride_box_values(ring, d1, d2, a, b)))
    rng = spawn_rng(seed, n)
    for i in range(trials):
        size = int(rng.integers(1, max(2, n * n // 4)))
        vals = sparse_values(ring, rng, size, indicator=True)
        candidates.append((f"random_indicator(size={size},trial={i})", vals))

    reports: list[RestrictionReport] = []
    best_ratio, best_witness = 0.0, ""
    for label, vals in candidates:
        # the lhs does not depend on r, so each candidate is transformed once
        lhs, rhs_43 = restriction_quantities(ring, vals, sigma, 2.0, 4.0 / 3.0)
        for r, rhs in ((4.0 / 3.0, rhs_43), (6.0 / 5.0, _signal_norm(vals, 6.0 / 5.0, n))):
            rep = _report(ring, RestrictionParams(s=2.0, r=r, constant=None), float(lhs), float(rhs), label)
            reports.append(rep)
            if r == 4.0 / 3.0 and rep.ratio > best_ratio:
                best_ratio, best_witness = rep.ratio, label
    return ProbeResult(
        n=n,
        omega=ring.omega,
        squarefree=ring.squarefree,
        best_ratio=best_ratio,
        best_witness=best_witness,
        reports=tuple(reports),
    )
