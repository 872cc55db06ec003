"""Grids, complex fields, special functions, and continuous-convention transforms.

Everything downstream (packet families, propagators, moments) builds on the
primitives here: the centered spatial grid with its conjugate momentum
lattice, Hermite polynomials, Fresnel integrals, and a discrete Fourier
transform carrying explicit phase and amplitude corrections so that it
approximates the *continuous* hbar-scaled transform

    phi(p) = (2 pi hbar)^(-1/2) integral exp(-i p x / hbar) psi(x) dx

rather than the bare DFT.  The corrections cancel around any operator that
is diagonal in momentum (free evolution, translation, derivatives), so those
are applied as one bare FFT pair with the momenta in FFT order, and the
momentum density |phi|^2 is the bare |FFT|^2, reordered and scaled.  Every
transform is scipy.fft's complex fft/ifft.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.fft
from scipy.special import wofz

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
        return 2.0 * np.pi * hbar / (self.n * self.step)

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


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x) by the upward three-term recurrence.

    H_{k+1}(x) = 2x H_k(x) - 2k H_{k-1}(x), stable for the oscillatory
    polynomials on the real line; x may be scalar or array, real or complex.
    Supported for 0 <= n <= 64.
    """
    if not isinstance(n, (int, np.integer)) or n < 0 or n > HERMITE_MAX_ORDER:
        raise ValueError(f"Hermite order must be an integer in [0, {HERMITE_MAX_ORDER}], got {n}")
    x = np.asarray(x)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else h_prev[()]
    h = 2 * x
    for k in range(1, n):
        h_prev, h = h, 2 * x * h - 2 * k * h_prev
    return h if h.ndim else h[()]


# Fresnel integrals C(u) = int_0^u cos(pi t^2/2) dt, S(u) = int_0^u sin(pi t^2/2) dt.
#
# Two regimes: a power series up to |u| = 1.6, and beyond that the auxiliary
# functions f, g of the standard decomposition
#     C = 1/2 + f sin(pi u^2/2) - g cos(pi u^2/2)
#     S = 1/2 - f cos(pi u^2/2) - g sin(pi u^2/2)      (u > 0)
# with g + i f = (1+i)/2 * w(sqrt(pi)/2 (1+i) u) obtained from the scaled
# complementary error function (Faddeeva w), which stays accurate for
# arbitrarily large argument.  Both regimes are verified against adaptive
# quadrature of the defining integrals in the test suite.

_FRESNEL_SERIES_CUTOFF = 1.6


def _fresnel_series(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # evaluated at |u| with the sign applied afterwards, so oddness is exact
    au = np.abs(u)
    z2 = ((np.pi / 2) * au**2) ** 2
    c = np.zeros_like(au)
    term = au.copy()
    for k in range(0, 24):
        c += term / (4 * k + 1)
        term = -term * z2 / ((2 * k + 1) * (2 * k + 2))
    s = np.zeros_like(au)
    term = (np.pi / 2) * au**3
    for k in range(0, 24):
        s += term / (4 * k + 3)
        term = -term * z2 / ((2 * k + 2) * (2 * k + 3))
    return np.sign(u) * c, np.sign(u) * s


def _fresnel_auxiliary(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    au = np.abs(u)
    w = wofz(np.sqrt(np.pi) / 2 * (1 + 1j) * au)
    gf = (1 + 1j) / 2 * w
    g, f = gf.real, gf.imag
    arg = np.pi * au**2 / 2
    sin_a, cos_a = np.sin(arg), np.cos(arg)
    c = 0.5 + f * sin_a - g * cos_a
    s = 0.5 - f * cos_a - g * sin_a
    return np.sign(u) * c, np.sign(u) * s


def fresnel(u):
    """Fresnel integrals (C(u), S(u)), odd in u, |error| <= 1e-10 for |u| <= 50.

    Accepts scalars or arrays; returns a pair of matching shape.
    """
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)
    if not np.all(np.isfinite(u_arr)):
        raise ValueError("fresnel argument must be finite")
    c = np.empty_like(u_arr)
    s = np.empty_like(u_arr)
    small = np.abs(u_arr) <= _FRESNEL_SERIES_CUTOFF
    if np.any(small):
        c[small], s[small] = _fresnel_series(u_arr[small])
    if np.any(~small):
        c[~small], s[~small] = _fresnel_auxiliary(u_arr[~small])
    if scalar:
        return c[0], s[0]
    return c, s


def to_momentum(f: ComplexField, params: PhysicsParams) -> ComplexField:
    """Continuous-convention forward transform onto the momentum lattice.

    Approximates phi(p_k) = (2 pi hbar)^(-1/2) int exp(-i p_k x/hbar) psi(x) dx
    for band-limited, grid-supported inputs, via an FFT with the centered
    phase correction exp(-i p_k x0 / hbar) and amplitude step/sqrt(2 pi hbar).
    """
    if f.representation is not Representation.POSITION:
        raise ValueError("to_momentum expects a position-representation field")
    g = f.grid
    hbar = params.hbar
    p = g.momentum_points(hbar)
    spectrum = np.fft.fftshift(scipy.fft.fft(f.values))
    phi = g.step / math.sqrt(2 * np.pi * hbar) * np.exp(-1j * p * g.x0 / hbar) * spectrum
    return ComplexField(phi, g, Representation.MOMENTUM, hbar=hbar)


def from_momentum(f: ComplexField, params: PhysicsParams) -> ComplexField:
    """Inverse of to_momentum; the round trip is exact up to rounding."""
    if f.representation is not Representation.MOMENTUM:
        raise ValueError("from_momentum expects a momentum-representation field")
    if f.hbar != params.hbar:
        raise ValueError(
            f"field momentum lattice was built with hbar={f.hbar}, got params.hbar={params.hbar}"
        )
    g = f.grid
    hbar = params.hbar
    p = g.momentum_points(hbar)
    psi = scipy.fft.ifft(np.fft.ifftshift(np.exp(1j * p * g.x0 / hbar) * f.values))
    psi = math.sqrt(2 * np.pi * hbar) / g.step * psi
    return ComplexField(psi, g, Representation.POSITION)


def _spectral_apply(f: ComplexField, hbar: float, operator) -> np.ndarray:
    """Position values of operator(P) psi for an operator diagonal in momentum.

    One FFT pair with the centered lattice p_k in FFT order (0, dp, ...,
    -dp).  The reordering, the phase exp(-i p x0 / hbar) and the amplitude
    that to_momentum applies and from_momentum removes commute with any
    momentum-diagonal multiplier, so they cancel exactly for every x0.
    """
    n = f.grid.n
    p = f.grid.momentum_step(hbar) * np.fft.fftfreq(n, 1 / n)
    return scipy.fft.ifft(operator(p) * scipy.fft.fft(f.values))


def spectral_derivative(f: ComplexField, order: int) -> ComplexField:
    """d^order/dx^order of a position field via the momentum representation.

    The operator is hbar-free: multiplication by (i k)^order with
    k = p/hbar the wavenumber lattice.  The caller is responsible for the
    field being smooth and decayed at the grid edges.
    """
    if f.representation is not Representation.POSITION:
        raise ValueError("spectral_derivative expects a position-representation field")
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError(f"derivative order must be a nonnegative integer, got {order}")
    if order == 0:
        return ComplexField(f.values.copy(), f.grid)
    return ComplexField(_spectral_apply(f, 1.0, lambda k: (1j * k) ** order), f.grid)


def quadrature_norm2(f: ComplexField) -> float:
    """Trapezoidal estimate of the squared L2 norm on the field's own lattice."""
    density = np.abs(f.values) ** 2
    total = density.sum() - 0.5 * (density[0] + density[-1])
    return float(total * f.lattice_step)
