"""Signals on the plane (Z/NZ)^2 and their discrete Fourier transforms.

Both directions carry the factor 1/N = N^(-d/2) with d = 2, which makes the
transform pair unitary:

    fhat(m) = (1/N) sum_x f(x) exp(-2 pi i <x, m> / N)
    f(x)    = (1/N) sum_m fhat(m) exp(+2 pi i <x, m> / N)

Values are stored as (N, N) complex arrays indexed [x1, x2]; the serialized
form is the row-major flattening of that grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from .zmod import RingContext, make_ring


def _root_table(n: int) -> np.ndarray:
    """exp(-2 pi i k / n) for k = 0..n-1: row 1 of W, and every entry of W is one of them."""
    return np.exp(-2j * np.pi * np.arange(n) / n)


@lru_cache(maxsize=1)  # one modulus at a time; a rebuild costs little beside the products that read W
def _dft_matrix(n: int) -> np.ndarray:
    # W[a, b] = exp(-2 pi i a b / n), the root table looked up at (a*b) mod n
    # so algebraically equal products match exactly
    r = np.arange(n)
    w = _root_table(n)[np.outer(r, r) % n]
    w.setflags(write=False)
    return w


@lru_cache(maxsize=1)
def _idft_matrix(n: int) -> np.ndarray:
    # conj(W), cached so the inverse transform does not rebuild it per call
    wc = _dft_matrix(n).conj()
    wc.setflags(write=False)
    return wc


def _coerce_grid(n: int, values: Any) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape == (n * n,):
        arr = arr.reshape(n, n)
    if arr.shape != (n, n):
        raise ValueError(f"expected {n}x{n} values (or length {n * n}), got shape {arr.shape}")
    arr = arr.copy(order="C")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValueError("values must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class _Grid:
    """Complex values on (Z/NZ)^2, stored read-only as an (N, N) array."""

    ring: RingContext
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _coerce_grid(self.ring.modulus, self.values))


class Signal2D(_Grid):
    """Complex-valued function on the spatial grid (Z/NZ)^2."""


class Spectrum2D(_Grid):
    """Complex-valued function on the frequency grid (Z/NZ)^2."""


def _scaled(out: np.ndarray, n: int) -> np.ndarray:
    # Multiply the float64 view by 1/n in place.  numpy's complex / n computes
    # (re + im*0) * (1/n) and (im - re*0) * (1/n), so every nonzero part gets
    # the same bits; only the sign of a zero part can differ (-0.0 stays -0.0
    # here where the division gave +0.0).
    parts = out.view(np.float64)
    np.multiply(parts, 1.0 / n, out=parts)
    return out


def dft_array(n: int, values: np.ndarray) -> np.ndarray:
    """Forward transform of one or a batch of (..., N, N) value grids.

    W @ X @ W scaled by 1/N as a real multiply of the product's float64 view:
    bit-equal to dividing by N on every nonzero real and imaginary part; only
    the sign of a zero part can differ.
    """
    w = _dft_matrix(n)
    return _scaled(np.matmul(w, np.matmul(values, w)), n)


def idft_array(n: int, values: np.ndarray) -> np.ndarray:
    """Inverse transform of one or a batch of (..., N, N) value grids.

    conj(W) @ X @ conj(W) scaled by 1/N as in dft_array, with the same
    signed-zero caveat.
    """
    wc = _idft_matrix(n)
    return _scaled(np.matmul(wc, np.matmul(values, wc)), n)


def dft(f: Signal2D) -> Spectrum2D:
    """Fourier transform with the unitary 1/N normalization."""
    return Spectrum2D(f.ring, dft_array(f.ring.modulus, f.values))


def idft(spectrum: Spectrum2D) -> Signal2D:
    """Inverse transform; idft(dft(f)) returns f up to rounding."""
    return Signal2D(spectrum.ring, idft_array(spectrum.ring.modulus, spectrum.values))


def _lp(f: Any, p: float, reduce) -> float:
    if not 1 <= p < math.inf:  # NaN fails too; x**inf then **(1/inf) is no sup norm
        raise ValueError(f"p must be >= 1 and finite, got {p}")
    a = np.abs(f.values if hasattr(f, "values") else np.asarray(f))
    return float(reduce(a**p) ** (1.0 / p))


def lp_norm(f: Any, p: float) -> float:
    """Counting-measure norm (sum_x |f(x)|^p)^(1/p); accepts signals, spectra, arrays."""
    return _lp(f, p, np.sum)


def normalized_lp_norm(f: Any, p: float) -> float:
    """Norm on the uniform probability measure: the sum is divided by N^2 first."""
    return _lp(f, p, np.mean)


def grid_to_json_dict(f: Signal2D | Spectrum2D) -> dict:
    """Serialize a signal or spectrum as {"n": N, "values": [[re, im], ...]} row-major."""
    flat = f.values.reshape(-1)
    return {"n": f.ring.modulus, "values": [[float(v.real), float(v.imag)] for v in flat]}


def _grid_from_json_dict(data: dict) -> tuple[RingContext, np.ndarray]:
    if not isinstance(data, dict) or "n" not in data or "values" not in data:
        raise ValueError("expected an object with 'n' and 'values'")
    n = int(data["n"])
    pairs = np.array(data["values"], dtype=float)
    if pairs.shape != (n * n, 2):  # checked first: the count bounds n before make_ring factors it
        raise ValueError(f"expected {n * n} [re, im] pairs for n={n}, got shape {pairs.shape}")
    return make_ring(n), pairs.view(np.complex128).reshape(n, n)


def signal_from_json_dict(data: dict) -> Signal2D:
    return Signal2D(*_grid_from_json_dict(data))


def spectrum_from_json_dict(data: dict) -> Spectrum2D:
    return Spectrum2D(*_grid_from_json_dict(data))


def signal_to_json(f: Signal2D | Spectrum2D) -> str:
    return json.dumps(grid_to_json_dict(f), sort_keys=True)


def signal_from_json(text: str) -> Signal2D:
    return signal_from_json_dict(json.loads(text))


def spectrum_from_json(text: str) -> Spectrum2D:
    return spectrum_from_json_dict(json.loads(text))
