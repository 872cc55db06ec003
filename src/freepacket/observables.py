"""Moments, the universal spread law, and the characteristic timescales.

For any free packet the spatial spread follows the exact hyperbola

    Dx(t) = sqrt(Dmin^2 + (t - t_min)^2 Dp^2 / m^2)

with Dp constant in time; t_min and Dmin are recovered from a single snapshot
of the moments through the correlation <R> = Re <(x - <x>)(p - <p>)>, since
m <R> = Dp^2 (t - t_min).  The three timescales are

    t_p = m hbar / (2 Dp^2)   shape changes are slow over times << t_p
    t_x = 2 m Dmin^2 / hbar   asymptotic regime for |t - t_min| >> t_x
    t_h = m Dmin / Dp         half-width of the waist region

with t_h = sqrt(t_x t_p), so t_p <= t_h <= t_x always, all three equal
exactly for the Gaussian packet.  (t_h is the geometric mean of t_x and t_p,
despite sometimes being described as a harmonic mean.)

t_x here uses Dmin; the variant built from the spread at the measured instant
is exposed separately as timescale_tx_initial, since both conventions are in
circulation and they differ whenever the snapshot is away from the waist.

Divergent moments are detected from the data rather than assumed.  The p^2
moment of a discontinuous packet keeps growing with the momentum band, so it
is declared infinite when the full lattice and its inner half disagree.  Once
Dp = inf, the spread Dx exists only at the instant the discontinuities exist
(the packet's one real instant: m^2 d^2/dt^2 <X^2> = 2 <P^2> is infinite at
every other time); that instant is recognized by the phase-coherence ratio
|int psi^2 dx| / int |psi|^2 dx, which equals 1 exactly for a packet that is
real up to a global phase.  Away from it, Dx and <R> are reported as nan,
never as a silently band-limit-dependent number.

moments works in real arithmetic on the real and imaginary parts: both
densities are re^2 + im^2, and the <R> integrand is
(x - <x>)(Re psi Re P psi + Im psi Im P psi - <p> |psi|^2).  For a packet
with finite moments the one spectrum, scaled by p and inverse-transformed in
place, is the only field-sized complex array it forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .numerics import ComplexField, PhysicsParams, _require_position, _trapz

__all__ = [
    "PacketMoments",
    "SpreadLaw",
    "Timescales",
    "moments",
    "spread_law_from_state",
    "spread_prediction",
    "timescales",
    "timescale_tx_initial",
]

_NORM_TOLERANCE = 1e-6
# Relative disagreement between the full momentum lattice and its inner half
# beyond which the p^2 moment is declared divergent.
_P_DIVERGENCE_TOL = 0.05
# Loss of phase coherence beyond which a Dp = inf packet is judged to be away
# from its real instant (measured: 0 at the instant itself, >= 6e-3 at any
# t != 0 for the square packet).
_REAL_INSTANT_TOL = 1e-3


@dataclass(frozen=True)
class PacketMoments:
    """<x>, <p>, Dx, Dp and the symmetrized correlation <R> = <(PX + XP)/2>."""

    mean_x: float
    mean_p: float
    delta_x: float
    delta_p: float
    mean_r: float


@dataclass(frozen=True)
class SpreadLaw:
    delta_min: float
    t_min: float
    delta_p: float


@dataclass(frozen=True)
class Timescales:
    t_p: float
    t_x: float
    t_h: float


def _second_moment_diverges(lattice, density, step, center, full) -> bool:
    # Compare the second moment `full` taken over the full lattice with the
    # one restricted to the inner half of the span; a converged moment does
    # not care, a fat-tailed one does.
    n = lattice.size
    inner = slice(n // 4, n - n // 4)
    restricted = float(np.sum((lattice[inner] - center) ** 2 * density[inner]) * step)
    if full <= 0:
        return False
    return abs(full - restricted) / full > _P_DIVERGENCE_TOL


def _momentum_moments(spectrum: np.ndarray, grid, hbar: float):
    """<p>, Var p and whether the p^2 moment diverges, from the bare FFT of psi."""
    scale = grid.step**2 / (2 * np.pi * hbar)
    density_p = np.fft.fftshift(scale * (spectrum.real**2 + spectrum.imag**2))
    p = grid.momentum_points(hbar)
    dp = grid.momentum_step(hbar)
    # First moment with the Nyquist bin dropped: that component belongs to
    # +p_max and -p_max equally, and keeping it breaks the exact pairwise
    # cancellation that makes <p> of a real packet vanish on the lattice.
    mean_p = float(np.sum((p * density_p)[1:]) * dp)
    var_p = _trapz((p - mean_p) ** 2 * density_p, dp)
    return mean_p, var_p, _second_moment_diverges(p, density_p, dp, mean_p, var_p)


def _at_real_instant(values: np.ndarray, density: np.ndarray) -> bool:
    coherence = abs(np.sum(values**2)) / np.sum(density)
    return 1.0 - coherence <= _REAL_INSTANT_TOL


def moments(f: ComplexField, params: PhysicsParams) -> PacketMoments:
    """Position and momentum moments of a normalized position-space field.

    Position moments use trapezoidal quadrature.  Every momentum quantity
    comes from one bare FFT of psi: the momentum density is
    step^2 / (2 pi hbar) |FFT|^2 on the centred lattice (the phase of
    to_momentum drops out of the modulus), and <R> is the inner product
    Re int psi* (x - <x>)(-i hbar d/dx - <p>) psi dx with P psi the inverse
    FFT of that same spectrum times the lattice p in FFT order, both steps
    done in place on the spectrum.
    """
    _require_position(f, "moments")
    grid = f.grid
    re, im = f.values.real, f.values.imag
    density_x = re**2 + im**2
    norm2 = _trapz(density_x, grid.step)
    if abs(norm2 - 1.0) > _NORM_TOLERANCE:
        raise ValueError(f"field must be normalized to {_NORM_TOLERANCE}, got norm^2 = {norm2}")

    x = grid.points
    mean_x = _trapz(x * density_x, grid.step)
    var_x = _trapz((x - mean_x) ** 2 * density_x, grid.step)

    hbar = params.hbar
    spectrum = scipy.fft.fft(f.values)
    mean_p, var_p, p_diverges = _momentum_moments(spectrum, grid, hbar)
    x_diverges = p_diverges and not _at_real_instant(f.values, density_x)

    if x_diverges:
        delta_x = math.nan
        mean_r = math.nan
    else:
        np.multiply(np.fft.ifftshift(grid.momentum_points(hbar)), spectrum, out=spectrum)
        p_psi = scipy.fft.ifft(spectrum, overwrite_x=True)
        # Re[psi* (P psi - <p> psi)] in real arithmetic
        overlap = re * p_psi.real + im * p_psi.imag - mean_p * density_x
        mean_r = _trapz((x - mean_x) * overlap, grid.step)
        delta_x = math.sqrt(max(var_x, 0.0))

    delta_p = math.inf if p_diverges else math.sqrt(max(var_p, 0.0))
    return PacketMoments(mean_x=mean_x, mean_p=mean_p, delta_x=delta_x, delta_p=delta_p, mean_r=mean_r)


def spread_law_from_state(m0: PacketMoments, params: PhysicsParams, t_now: float) -> SpreadLaw:
    """Recover (Dmin, t_min) from moments measured at t_now.

    t_min = t_now - m <R> / Dp^2 and Dmin^2 = Dx^2 - (Dp^2/m^2)(t_now-t_min)^2.
    A packet that is real at t_now has <R> = 0 there: it is at its waist.
    """
    if not math.isfinite(m0.delta_p) or not math.isfinite(m0.delta_x):
        raise ValueError("spread law needs finite Dx and Dp")
    m = params.mass
    offset = m * m0.mean_r / m0.delta_p**2
    t_min = t_now - offset
    delta_min2 = m0.delta_x**2 - (m0.delta_p**2 / m**2) * offset**2
    if delta_min2 < -1e-10 * m0.delta_x**2:
        raise ValueError(f"inconsistent moments: Dmin^2 = {delta_min2} < 0")
    return SpreadLaw(delta_min=math.sqrt(max(delta_min2, 0.0)), t_min=t_min, delta_p=m0.delta_p)


def spread_prediction(law: SpreadLaw, params: PhysicsParams, t: float) -> float:
    """Dx(t) = sqrt(Dmin^2 + (t - t_min)^2 Dp^2 / m^2)."""
    m = params.mass
    return math.sqrt(law.delta_min**2 + (t - law.t_min) ** 2 * law.delta_p**2 / m**2)


def timescales(m0: PacketMoments, params: PhysicsParams) -> Timescales:
    """The three characteristic times, with t_x built from Dmin.

    An infinite Dp yields t_p = t_h = 0, flagging the short-time picture as
    inapplicable; Dmin then reduces to the measured Dx (valid only if the
    snapshot was taken at the discontinuity instant).
    """
    m, hbar = params.mass, params.hbar
    t_p = m * hbar / (2 * m0.delta_p**2)
    delta_min2 = m0.delta_x**2 - m0.mean_r**2 / m0.delta_p**2
    delta_min = math.sqrt(max(delta_min2, 0.0))
    t_x = 2 * m * delta_min**2 / hbar
    t_h = m * delta_min / m0.delta_p
    return Timescales(t_p=t_p, t_x=t_x, t_h=t_h)


def timescale_tx_initial(m0: PacketMoments, params: PhysicsParams) -> float:
    """The t_x variant 2 m Dx^2 / hbar built from the spread at the snapshot."""
    return 2 * params.mass * m0.delta_x**2 / params.hbar
