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
FFT order, with p = dp k and dp applied once.  Every transform is numpy.fft's
complex fft/ifft, called through the module, and every inverse one is taken
by _spectral_apply.  The package imports no scipy module: the Fresnel
integrals are numpy's own too (fresnel, in _fresnel).

Every pure phase exp(i theta) in the package (the propagator and the
translation, the transform's x0 correction, the chirp of the quadrature and
the asymptotic form, the Hermite-Gauss, Galilean and Fresnel phases) is
_cis(theta): np.cos and np.sin written into one complex array, with no
complex exp and no i*theta temporary; a phase on the integer lattice, odd
or even in k, takes its cos and sin over k >= 0 only (_lattice_cis: the
propagator, the translation, the x0 correction and the chirp of both chirp
sums).  The spectral multiply works in place, on the spectrum its caller
hands over.

The package checks the range of a scalar argument with _require here,
which raises ValueError "<name> must be <rule>, got <value>": the four
shared rules are _require_finite, _require_positive (positive and finite),
_require_order (an integer in [0, limit]) and _require_power_of_two (at
least 8), and a rule that only one function has is passed to _require.
Only t = 0 where a call is singular, and a phase that overflows, have
messages of their own.  The command line parses its numbers with the same
checks, so it accepts a value exactly where the package does.  _two_product, Dekker's exact
product on Veltkamp's _split, is the one exact product: of the Fresnel
phase's x^2 and of the CSV renderer's powers of ten.

Importing the module allocates one untouched 8 MiB block and frees it at
once.  Under glibc's rule (mallopt(3)) that raises the dynamic mmap threshold
to 8 MiB and the heap-trim threshold to 16 MiB, so the scratch of a
65536-point transform and the field-sized temporaries stay in the heap
instead of being handed back to the kernel and faulted in again by the next
call.  This changes the allocator policy of the host process.  A process
that sets M_MMAP_THRESHOLD or M_TRIM_THRESHOLD itself (by mallopt, or by
MALLOC_MMAP_THRESHOLD_ or MALLOC_TRIM_THRESHOLD_ in its environment) keeps
its own policy, and other C libraries see an allocation and a free, nothing
else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# glibc's malloc serves a block above its dynamic mmap threshold (128 KiB at
# start) by mmap, and freeing such a block of size S <= 32 MiB raises that
# threshold to S and the heap-trim threshold to 2 S (mallopt(3)).  Left at
# their start values, the heap top that a 65536-point transform frees is
# handed back to the kernel, and the next call faults its ~2 MiB of scratch
# in afresh: 480 minor faults and 0.99 ms per np.fft.fft, against 0 faults
# and 0.62 ms once the heap is kept (2-core x86-64 VM, numpy 2.4, glibc
# 2.36).  After this block a 65536-point sweep op of the benchmark faults in
# 0 pages, not about 4,000; a 4 MiB block still left 200-400 per op, and a
# 32 MiB one is above the rule's cap and does nothing.
np.empty(8 << 20, np.uint8)

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
        _require_positive(self.hbar, "hbar")
        _require_positive(self.mass, "mass")


@dataclass(frozen=True)
class Grid:
    """Uniform spatial lattice x_j = x0 + j*step, j = 0..n-1.

    n must be a power of two (radix-2 FFT) and at least 8.  The conjugate
    momentum lattice is centered: p_k = 2 pi hbar (k - n/2) / (n step).
    The transforms' origin phase needs x0 / step finite (so x0 too), and the
    momentum lattice 2 pi / (n step) finite and nonzero, so a grid whose
    ratios leave the doubles is refused when it is built.
    """

    x0: float
    step: float
    n: int

    def __post_init__(self):
        _require_positive(self.step, "grid step")
        _require_power_of_two(self.n, "grid size")
        _require_finite(self.x0 / self.step, "grid x0 / step")
        _require_positive(2.0 * np.pi / (self.n * self.step), "grid 2 pi / (n step)")

    @classmethod
    def centered(cls, half_width: float, n: int) -> "Grid":
        """Grid covering [-half_width, half_width) with x = 0 on a sample.

        half_width must lie in (0, 2^1023), where 2 half_width is a finite
        double; the constructor then checks the step 2 half_width / n.
        """
        _require(0 < half_width < 2.0**1023, "half_width", "in (0, 2^1023)", half_width)
        return cls(x0=-half_width, step=2.0 * half_width / n, n=n)

    @classmethod
    def centered_offset(cls, half_width: float, n: int) -> "Grid":
        """centered() moved by half a step, so no sample sits at 0.

        Useful for packets with jumps one wants to straddle between samples.
        """
        grid = cls.centered(half_width, n)
        return cls(x0=grid.x0 + grid.step / 2, step=grid.step, n=n)

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


def _require(ok: bool, name: str, rule: str, value):
    """value where ok holds, else ValueError "<name> must be <rule>, got <value>".

    Without a name the message starts at "must": the command line puts the
    config key in front of it.
    """
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value}".lstrip())
    return value


def _require_finite(value: float, name: str = "") -> float:
    return _require(math.isfinite(value), name, "finite", value)


def _require_positive(value: float, name: str = "") -> float:
    return _require(0 < value < math.inf, name, "positive and finite", value)


def _require_order(n: int, limit: float, name: str) -> int:
    """An integer n in [0, limit], where limit = inf admits every n >= 0."""
    rule = f"an integer in [0, {limit}]" if limit < math.inf else "a nonnegative integer"
    return _require(isinstance(n, (int, np.integer)) and 0 <= n <= limit, name, rule, n)


def _require_power_of_two(n: int, name: str = "") -> int:
    power = isinstance(n, (int, np.integer)) and n >= 8 and not n & (n - 1)
    return _require(power, name, "a power of two >= 8", n)


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


_SPLITTER = 2.0**27 + 1  # Veltkamp: halves of at most 26 bits


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's halves of a, of at most 26 significant bits each."""
    c = a * _SPLITTER
    high = c - (c - a)
    return high, a - high


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p = a b rounded, and a b - p exactly (Dekker, 1971)."""
    p = a * b
    (a1, a2), (b1, b2) = _split(a), _split(b)
    e = a1 * b1 - p
    e += a1 * b2
    e += a2 * b1
    e += a2 * b2
    return p, e


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
    _require_order(n, HERMITE_MAX_ORDER, "Hermite order")
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

    In numpy alone (_fresnel, loaded on the first call): the power series for
    |u| <= 1.6, Numerical Recipes' erfc continued fraction for
    1.6 < |u| < 2^54 and exactly 1/2 beyond, with the phase's u^2 taken as
    an exact Dekker product and reduced exactly modulo 4.  Measured against
    a 50-digit mpmath reference (0 <= |u| <= 1e6, and 4,504 points of
    [1.6, 2^54]): within 4.5e-16 absolute on the series, whose terms near
    1.6 cancel from about 1, and within 1.2e-16 beyond.
    scipy.special.fresnel, which takes the phase of the rounded u^2, was
    2.4e-15 off on [6, 60), 7.7e-14 on [200, 2000) and 3.8e-11 on [1e5, 1e6).

    Exactly odd in u.  Raises ValueError on a non-finite argument.  Returns
    numpy scalars for a scalar u and arrays of u's shape otherwise (the real
    and imaginary parts of one complex array).
    """
    from ._fresnel import integrals

    return integrals(u)


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


def _integer_lattice(n: int) -> np.ndarray:
    """The integer lattice k in FFT order (0, 1, ..., n/2 - 1, -n/2, ..., -1)
    as floats: bitwise np.fft.fftfreq(n, 1 / n) for n a power of two, without
    its integer array and the multiply that converts it."""
    k = np.arange(n, dtype=float)
    k[n // 2 :] -= n
    return k


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
    np.multiply(phi, np.fft.fft(f.values), out=phi)
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
    psi = _spectral_apply(_lattice_cis(_origin_rate(g), g.n, 1), _swap_halves(f.values))
    psi = math.sqrt(2 * np.pi) * math.sqrt(params.hbar) / g.step * psi
    return ComplexField(psi, g, Representation.POSITION)


def _spectral_apply(factor: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """Inverse FFT of factor_k spectrum_k: the package's one inverse transform.

    spectrum holds samples on the integer lattice k in FFT order (0, 1, ...,
    -1), with p = dp k: a bare FFT, or from_momentum's reordered momentum
    samples.  factor is a multiplier diagonal in k: the free propagator, the
    short-time translation, a derivative, from_momentum's x0 correction, or
    the <R> multiplier k - <k> of moments, each with dp and its constants
    folded into one scalar, so no momentum is formed or squared (tested for
    m from 1e-300 to 1e308 and hbar from 1e-300 to 1e308).  On the 2N
    lattice of asymptotic_form, factor is the packet's spectrum and spectrum
    the chirp's.  The reordering, the phase exp(-i p x0 / hbar) and
    the amplitude that to_momentum applies and from_momentum removes commute
    with any momentum-diagonal multiplier, so they cancel for every x0.

    The product overwrites spectrum and is inverse-transformed in place, so a
    caller hands over an array of its own (never f.values) and builds factor
    first, before that array exists.
    """
    return np.fft.ifft(np.multiply(factor, spectrum, out=spectrum), out=spectrum)


def spectral_derivative(f: ComplexField, order: int) -> ComplexField:
    """d^order/dx^order of a position field via the momentum representation.

    The operator is hbar-free: multiplication by (i dk k)^order with
    dk = 2 pi / (n step) the wavenumber step.  The caller is responsible for
    the field being smooth and decayed at the grid edges.
    """
    _require_position(f, "spectral_derivative")
    _require_order(order, math.inf, "derivative order")
    if order == 0:
        return ComplexField(f.values.copy(), f.grid)
    dk, k = f.grid.momentum_step(1.0), _integer_lattice(f.grid.n)
    return ComplexField(_spectral_apply((1j * (dk * k)) ** order, np.fft.fft(f.values)), f.grid)


def quadrature_norm2(f: ComplexField) -> float:
    """Trapezoidal estimate of the squared L2 norm on the field's own lattice."""
    return _trapz(np.abs(f.values) ** 2, f.lattice_step)
