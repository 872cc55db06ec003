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
(x - <x>)(Re psi Re Q psi + Im psi Im Q psi) with Q = P - <p>.  Positions
enter in grid steps, as d = (x - <x>) / step formed once in place of the
positions array: Dx = step sqrt(Var d) and
<R> = dp step int d Re[psi* Q psi / dp] dx.  For a packet with finite
moments the one spectrum, handed to numerics._spectral_apply, which scales
it by k - <k> and inverse-transforms it in place, is the only field-sized
complex array it forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    ComplexField,
    PhysicsParams,
    _integer_lattice,
    _require_finite,
    _require_position,
    _spectral_apply,
    _trapz,
)

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


def _lattice_moments(spectrum: np.ndarray, step: float):
    """k - <k>, <k>, Var k and whether the k^2 moment diverges on the integer
    lattice k in FFT order, weighted by w_k = step |FFT_k|^2 / n (the momentum
    density times dp, so they sum to the norm whatever hbar is)."""
    n = spectrum.size
    k = _integer_lattice(n)
    weights = spectrum.real**2 + spectrum.imag**2
    weights *= step / n
    # <k> leaves out the Nyquist bin k = -n/2: that component belongs to +n/2
    # and -n/2 equally, and keeping it breaks the exact pairwise cancellation
    # that makes <p> of a real packet vanish on the lattice
    mean_k = float(k[: n // 2] @ weights[: n // 2] + k[n // 2 + 1 :] @ weights[n // 2 + 1 :])
    k -= mean_k
    spread = k**2 * weights
    var_k = float(spread.sum())
    # the k^2 moment diverges when the outer half of the lattice, the middle
    # of FFT order, holds a share of it: a converged moment does not care
    return k, mean_k, var_k, float(spread[n // 4 : n - n // 4].sum()) > _P_DIVERGENCE_TOL * var_k


def _at_real_instant(values: np.ndarray, density: np.ndarray) -> bool:
    coherence = abs(np.sum(values**2)) / np.sum(density)
    return 1.0 - coherence <= _REAL_INSTANT_TOL


def moments(f: ComplexField, params: PhysicsParams) -> PacketMoments:
    """Position and momentum moments of a normalized position-space field.

    Position moments use trapezoidal quadrature over the positions in grid
    steps d = (x - <x>) / step, and the step is applied once at the end.
    Every momentum quantity comes from one bare FFT of psi, as sums over the
    integer lattice k in FFT order (p = dp k) with the hbar-free weights
    step |FFT_k|^2 / n, and dp is applied once at the end, so nothing squares
    a position or a momentum (tested for m from 1e-300 to 1e308 and hbar from
    1e-300 to 1e308).  <R> is the inner product
    Re int psi* (x - <x>)(-i hbar d/dx - <p>) psi dx with (P - <p>) psi / dp
    the inverse FFT of that same spectrum times k - <k>, taken in place by
    numerics._spectral_apply.  It is an action, Dp^2 (t - t_min) / m, and
    raises ValueError where it leaves the double range (at hbar near the
    largest double).
    """
    _require_position(f, "moments")
    grid = f.grid
    re, im = f.values.real, f.values.imag
    density_x = re**2 + im**2
    norm2 = _trapz(density_x, grid.step)
    if abs(norm2 - 1.0) > _NORM_TOLERANCE:
        raise ValueError(f"field must be normalized to {_NORM_TOLERANCE}, got norm^2 = {norm2}")

    d = grid.points
    mean_x = _trapz(d * density_x, grid.step)
    # positions in grid steps from <x>, in place: nothing squares a position
    d -= mean_x
    d /= grid.step
    var_d = _trapz(d * d * density_x, grid.step)

    spectrum = np.fft.fft(f.values)
    k, mean_k, var_k, p_diverges = _lattice_moments(spectrum, grid.step)
    x_diverges = p_diverges and not _at_real_instant(f.values, density_x)

    dp = grid.momentum_step(params.hbar)
    if x_diverges:
        delta_x = mean_r = math.nan
    else:
        k_psi = _spectral_apply(k, spectrum)  # (P - <p>) psi / dp
        # Re[psi* (P - <p>) psi] / dp in real arithmetic
        overlap = re * k_psi.real + im * k_psi.imag
        mean_r = _require_finite(dp * grid.step * _trapz(d * overlap, grid.step), "<R>")
        delta_x = grid.step * math.sqrt(var_d)

    delta_p = math.inf if p_diverges else dp * math.sqrt(var_k)
    return PacketMoments(mean_x, dp * mean_k, delta_x, delta_p, mean_r)


def _delta_min(m0: PacketMoments) -> float:
    """Dmin = Dx sqrt(1 - q^2), q = <R> / (Dx Dp); an infinite Dp gives Dx."""
    q = m0.mean_r / m0.delta_x / m0.delta_p
    if q * q > 1 + 1e-10:
        raise ValueError(f"inconsistent moments: |<R>| / (Dx Dp) = {abs(q)} > 1")
    return m0.delta_x * math.sqrt(max(1 - q * q, 0.0))


def spread_law_from_state(m0: PacketMoments, params: PhysicsParams, t_now: float) -> SpreadLaw:
    """Recover (Dmin, t_min) from moments measured at t_now.

    t_min = t_now - m <R> / Dp^2 and Dmin^2 = Dx^2 - <R>^2 / Dp^2, each
    evaluated as ratios so that no physical quantity is squared.  A packet
    that is real at t_now has <R> = 0 there: it is at its waist.
    """
    _require_finite(m0.delta_p, "m0.delta_p")
    _require_finite(m0.delta_x, "m0.delta_x")
    _require_finite(t_now, "t_now")
    t_min = t_now - (params.mass / m0.delta_p) * (m0.mean_r / m0.delta_p)
    return SpreadLaw(delta_min=_delta_min(m0), t_min=t_min, delta_p=m0.delta_p)


def spread_prediction(law: SpreadLaw, params: PhysicsParams, t: float) -> float:
    """Dx(t) = sqrt(Dmin^2 + (t - t_min)^2 Dp^2 / m^2), by math.hypot."""
    _require_finite(t, "t")
    return math.hypot(law.delta_min, (t - law.t_min) * (law.delta_p / params.mass))


def timescales(m0: PacketMoments, params: PhysicsParams) -> Timescales:
    """The three characteristic times, with t_x built from Dmin.

    An infinite Dp yields t_p = t_h = 0, flagging the short-time picture as
    inapplicable; Dmin then reduces to the measured Dx (valid only if the
    snapshot was taken at the discontinuity instant).
    """
    m, hbar = params.mass, params.hbar
    delta_min = _delta_min(m0)
    return Timescales(
        t_p=0.5 * (m / m0.delta_p) * (hbar / m0.delta_p),
        t_x=2 * (m * delta_min / hbar) * delta_min,
        t_h=(m / m0.delta_p) * delta_min,
    )


def timescale_tx_initial(m0: PacketMoments, params: PhysicsParams) -> float:
    """The t_x variant 2 m Dx^2 / hbar built from the spread at the snapshot."""
    return 2 * (params.mass * m0.delta_x / params.hbar) * m0.delta_x
