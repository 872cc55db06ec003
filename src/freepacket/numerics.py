"""Grids, complex fields, special functions, and continuous-convention transforms.

Everything downstream (packet families, propagators, moments) builds on the
primitives here: the centered spatial grid with its conjugate momentum
lattice, Hermite polynomials, Fresnel integrals, and a discrete Fourier
transform carrying explicit phase and amplitude corrections so that it
approximates the *continuous* hbar-scaled transform

    phi(p) = (2 pi hbar)^(-1/2) integral exp(-i p x / hbar) psi(x) dx

rather than the bare DFT.  The phase correction exp(-i p_k x0 / hbar) is
taken in grid steps, as 2 pi (k - n/2) (x0 / step) / n, so it holds no hbar,
and the amplitude is step / sqrt(2 pi) / sqrt(hbar), so no transform forms
2 pi hbar or a momentum.  The corrections cancel around any operator that
is diagonal in momentum (free evolution, translation, derivatives), so those,
like the momentum moments, run on the bare FFT over the integer lattice k in
FFT order, with p = dp k and dp applied once.  Every transform is scipy.fft's
complex fft/ifft.

Every pure phase exp(i theta) in the package (the propagator and the
translation, the transform's x0 correction, the chirp of the quadrature and
the asymptotic form, the Hermite-Gauss and Galilean phases) is _cis(theta):
np.cos and np.sin written into one complex array, with no complex exp and
no i*theta temporary; a phase on the integer lattice, odd or even in k,
takes its cos and sin over k >= 0 only (_lattice_cis: the propagator, the
translation, the x0 correction and the chirp of both chirp sums).  The
spectral multiply works in place, on the spectrum it allocated itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.fft
import scipy.special

__all__ = [
    "PhysicsParams",
    "Grid",
    "Representation",
    "ComplexField",
    "hermite",
    "fresnel",
    "to_momentum",
    "from_momentum",
    "spectral_derivative",
    "quadrature_norm2",
]

HERMITE_MAX_ORDER = 64


@dataclass(frozen=True)
class PhysicsParams:
    """Fundamental constants of the model: hbar (action) and particle mass."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not 0 < self.hbar < math.inf:
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        if not 0 < self.mass < math.inf:
            raise ValueError(f"mass must be positive and finite, got {self.mass}")


@dataclass(frozen=True)
class Grid:
    """Uniform spatial lattice x_j = x0 + j*step, j = 0..n-1.

    n must be a power of two (radix-2 FFT) and at least 8.  The conjugate
    momentum lattice is centered: p_k = 2 pi hbar (k - n/2) / (n step).
    """

    x0: float
    step: float
    n: int

    def __post_init__(self):
        if not math.isfinite(self.x0):
            raise ValueError(f"grid origin must be finite, got {self.x0}")
        if not 0 < self.step < math.inf:
            raise ValueError(f"grid step must be positive and finite, got {self.step}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {self.n}")

    @classmethod
    def centered(cls, half_width: float, n: int) -> "Grid":
        """Grid covering [-half_width, half_width) with x = 0 on a sample."""
        step = 2.0 * half_width / n
        return cls(x0=-half_width, step=step, n=n)

    @classmethod
    def centered_offset(cls, half_width: float, n: int) -> "Grid":
        """Like centered() but shifted by step/2 so no sample sits at 0.

        Useful for packets with jumps one wants to straddle between samples.
        """
        step = 2.0 * half_width / n
        return cls(x0=-half_width + step / 2, step=step, n=n)

    @property
    def points(self) -> np.ndarray:
        return self.x0 + self.step * np.arange(self.n)

    def momentum_step(self, hbar: float) -> float:
        return 2.0 * np.pi / (self.n * self.step) * hbar

    def momentum_points(self, hbar: float) -> np.ndarray:
        return self.momentum_step(hbar) * (np.arange(self.n) - self.n // 2)


class Representation(Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


@dataclass(frozen=True)
class ComplexField:
    """Complex amplitudes sampled on a grid, in position or momentum form.

    A momentum-representation field keeps the originating position grid plus
    the hbar that fixed its momentum lattice; its sample locations are
    grid.momentum_points(hbar).
    """

    values: np.ndarray
    grid: Grid
    representation: Representation = Representation.POSITION
    hbar: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"field has {values.shape} values for a grid of {self.grid.n} points"
            )
        if not np.isfinite(values).all():
            raise ValueError("field values must be finite")
        if self.representation is Representation.MOMENTUM and self.hbar is None:
            raise ValueError("momentum-representation fields need hbar")
        object.__setattr__(self, "values", values)

    @property
    def lattice(self) -> np.ndarray:
        """Sample locations: x points or the conjugate p points."""
        if self.representation is Representation.POSITION:
            return self.grid.points
        return self.grid.momentum_points(self.hbar)

    @property
    def lattice_step(self) -> float:
        if self.representation is Representation.POSITION:
            return self.grid.step
        return self.grid.momentum_step(self.hbar)


def _require_position(f: ComplexField, who: str):
    if f.representation is not Representation.POSITION:
        raise ValueError(f"{who} expects a position-representation field")


def _cis(theta):
    """exp(i theta) for real theta: cos into the real part and sin into the
    imaginary part of one new complex array (0-d for a scalar theta), which
    callers may scale in place.

    np.exp(1j * theta) evaluates the same cos and sin, so the two agree to
    one ulp (bitwise on the numpy builds measured).  numpy divides a complex
    array by a real d as a multiply by 1/d, so callers write theta * (1 / d)
    for a phase with a divisor, which keeps it what np.exp gave to the last
    bit.
    """
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _trapz(values: np.ndarray, step: float) -> float:
    """Trapezoid rule on a uniform lattice: endpoint samples at half weight."""
    return float((values.sum() - 0.5 * (values[0] + values[-1])) * step)


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x) by the upward three-term recurrence.

    H_{k+1}(x) = 2x H_k(x) - 2k H_{k-1}(x), stable for the oscillatory
    polynomials on the real line; x may be scalar or array, real or complex.
    Integer and boolean x are evaluated in floating point (H_n outgrows
    int64 for moderate n and x).  Supported for 0 <= n <= 64.
    """
    if not isinstance(n, (int, np.integer)) or n < 0 or n > HERMITE_MAX_ORDER:
        raise ValueError(f"Hermite order must be an integer in [0, {HERMITE_MAX_ORDER}], got {n}")
    x = np.asarray(x)
    if x.dtype.kind in "biu":
        x = x.astype(float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else h_prev[()]
    h = 2 * x
    for k in range(1, n):
        h_prev, h = h, 2 * x * h - 2 * k * h_prev
    return h if h.ndim else h[()]


def fresnel(u):
    """Fresnel integrals (C(u), S(u)) = int_0^u (cos, sin)(pi t^2 / 2) dt.

    scipy.special.fresnel, which returns them as (S, C).  Exactly odd in u;
    measured within 2.5e-15 absolute of a 40-digit mpmath reference on
    |u| <= 60.  Accepts scalars or arrays; returns a pair of matching shape.
    """
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)):
        raise ValueError("fresnel argument must be finite")
    s, c = scipy.special.fresnel(u_arr)
    return c, s


def _lattice_cis(rate: float, n: int, power: int) -> np.ndarray:
    """exp(i rate k^power), power 1 or 2, on the integer lattice k in FFT order
    (0, 1, ..., n/2 - 1, -n/2, ..., -1).

    The phase is odd or even in k, and cos is even and sin odd, so cos and
    sin are taken for k = 0 ... n/2 only and the negative half is their
    mirror, conjugated for an odd phase: bitwise what _cis gives over the
    whole lattice, for half its cos and sin work.
    """
    half = _cis(rate * np.arange(n // 2 + 1) ** power)
    negative = half[:0:-1]  # k = -n/2 ... -1
    return np.concatenate((half[:-1], np.conj(negative) if power == 1 else negative))


def _swap_halves(values: np.ndarray) -> np.ndarray:
    """np.fft.fftshift, and ifftshift alike, of an even-length array, without
    np.roll's overhead."""
    h = values.size // 2
    return np.concatenate((values[h:], values[:h]))


def _origin_rate(g: Grid) -> float:
    """c with p x0 / hbar = c k on the integer momentum lattice:
    2 pi (x0 / step) / n, no hbar and no momentum."""
    return 2 * np.pi * (g.x0 / g.step) / g.n


def to_momentum(f: ComplexField, params: PhysicsParams) -> ComplexField:
    """Continuous-convention forward transform onto the momentum lattice.

    Approximates phi(p_k) = (2 pi hbar)^(-1/2) int exp(-i p_k x/hbar) psi(x) dx
    for band-limited, grid-supported inputs, via an FFT with the centered
    phase correction exp(-i p_k x0 / hbar) and amplitude step/sqrt(2 pi hbar).
    """
    _require_position(f, "to_momentum")
    g, hbar = f.grid, params.hbar
    phi = _lattice_cis(-_origin_rate(g), g.n, 1)
    np.multiply(g.step / math.sqrt(2 * np.pi) / math.sqrt(hbar), phi, out=phi)
    np.multiply(phi, scipy.fft.fft(f.values), out=phi)
    return ComplexField(_swap_halves(phi), g, Representation.MOMENTUM, hbar=hbar)


def from_momentum(f: ComplexField, params: PhysicsParams) -> ComplexField:
    """Inverse of to_momentum; the round trip is exact up to rounding."""
    if f.representation is not Representation.MOMENTUM:
        raise ValueError("from_momentum expects a momentum-representation field")
    if f.hbar != params.hbar:
        raise ValueError(
            f"field momentum lattice was built with hbar={f.hbar}, got params.hbar={params.hbar}"
        )
    g = f.grid
    spectrum = _lattice_cis(_origin_rate(g), g.n, 1)
    np.multiply(spectrum, _swap_halves(f.values), out=spectrum)
    psi = scipy.fft.ifft(spectrum, overwrite_x=True)
    psi = math.sqrt(2 * np.pi) * math.sqrt(params.hbar) / g.step * psi
    return ComplexField(psi, g, Representation.POSITION)


def _spectral_apply(f: ComplexField, factor: np.ndarray) -> np.ndarray:
    """Position values of factor_k psi_k for an operator diagonal in momentum.

    One FFT pair on the integer lattice k in FFT order (0, 1, ..., -1), with
    p = dp k: each caller folds dp and its constants into one scalar, so no
    momentum is formed or squared (tested for m from 1e-300 to 1e308 and
    hbar from 1e-300 to 1e308).  The reordering, the phase exp(-i p x0 / hbar)
    and the amplitude that to_momentum applies and from_momentum removes
    commute with any momentum-diagonal multiplier, so they cancel for every x0.
    """
    spectrum = scipy.fft.fft(f.values)
    return scipy.fft.ifft(np.multiply(factor, spectrum, out=spectrum), overwrite_x=True)


def spectral_derivative(f: ComplexField, order: int) -> ComplexField:
    """d^order/dx^order of a position field via the momentum representation.

    The operator is hbar-free: multiplication by (i dk k)^order with
    dk = 2 pi / (n step) the wavenumber step.  The caller is responsible for
    the field being smooth and decayed at the grid edges.
    """
    _require_position(f, "spectral_derivative")
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError(f"derivative order must be a nonnegative integer, got {order}")
    if order == 0:
        return ComplexField(f.values.copy(), f.grid)
    dk, n = f.grid.momentum_step(1.0), f.grid.n
    k = np.fft.fftfreq(n, 1 / n)
    return ComplexField(_spectral_apply(f, (1j * (dk * k)) ** order), f.grid)


def quadrature_norm2(f: ComplexField) -> float:
    """Trapezoidal estimate of the squared L2 norm on the field's own lattice."""
    return _trapz(np.abs(f.values) ** 2, f.lattice_step)
