"""Free-particle propagators, the two analytic approximations, and their bounds.

The spectral propagator is exact up to discretization (multiply the momentum
wave function by exp(-i p^2 t / 2 m hbar), one FFT pair on the integer
lattice k = p / dp in FFT order); the direct quadrature propagator is its
deliberately independent O(N^2) oracle.  On the uniform grid the free kernel
exp[i m (x_j - x_k)^2 / 2 hbar t] is exp[i a (j - k)^2 / 2] with the one
chirp rate a = m step^2 / hbar t, the only way m, hbar, t and the step enter
either chirp sum.  Both sums take that chirp from numerics._lattice_cis on a
2N-point lattice, which holds lag d at index d mod 2N for N + 1 cos and sin
pairs.  The quadrature is a direct Toeplitz sum over it: N x S complex
multiply-adds over the S points from the first to the last weight above a
cut that moves the sum by at most 2^-53 of the input's L2 norm (see
_direct_kernel_sum), O(N) memory and no FFT.  The asymptotic form is the
same chirp sum with the same a (see asymptotic_form), but it is not the
oracle, so it takes the sum as one circular 2N-point FFT convolution
(Bluestein's chirp-z identity) in O(N log N), and it is 0 where its
momentum m (x - xbar) / t lies beyond the band of the momentum lattice.
The short-time translation, also one FFT pair, and the large-time
asymptotic form come with the rigorous sup-norm bounds

    sup_x |delta psi|^2 <= sqrt(t / (pi m hbar^3)) Dp^2        (short time)
    sup_x |delta psi|^2 <= sqrt(m^3 / (pi hbar^3 t^3)) Dx^2    (large time)

on the remainder delta psi once the stated reference (translated packet,
asymptotic form) is subtracted.

Two timescale conventions appear for the onset of the short-time regime:
t << m hbar / (2 Dp^2) and the weaker t << pi m hbar / Dp^2, a factor ~2pi
apart.  Tests use the stricter one; both are exposed via
observables.timescales (t_p) and the bound formula itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.fft

from .numerics import (
    ComplexField,
    Grid,
    PhysicsParams,
    _cis,
    _lattice_cis,
    _require_position,
    _spectral_apply,
    from_momentum,
)

__all__ = [
    "Method",
    "PropagationResult",
    "propagate_spectral",
    "propagate_quadrature",
    "short_time_approx",
    "short_time_error_bound",
    "asymptotic_form",
    "asymptotic_error_bound",
]


class Method(Enum):
    SPECTRAL_EXACT = "spectral-exact"
    QUADRATURE = "quadrature"
    SHORT_TIME = "short-time"
    ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class PropagationResult:
    field: ComplexField
    t: float
    method: Method


def propagate_spectral(psi0: ComplexField, t: float, params: PhysicsParams) -> PropagationResult:
    """Exact free evolution up to discretization, unitary by construction.

    The input should be decayed at the grid edges, otherwise evolution is
    periodic (the transform pair wraps around).
    """
    _require_position(psi0, "propagate_spectral")
    if t == 0:
        out = ComplexField(psi0.values.copy(), psi0.grid)
        return PropagationResult(out, 0.0, Method.SPECTRAL_EXACT)
    dp = psi0.grid.momentum_step(params.hbar)
    theta = -0.5 * (dp / params.mass) * (dp * t / params.hbar)  # theta k^2 = -p^2 t / 2 m hbar
    k2 = (psi0.grid.n // 2) ** 2  # the largest k^2
    _require_finite_phase(theta * k2, "propagate_spectral", "p^2 t / 2 m hbar", t)
    values = _spectral_apply(psi0, _lattice_cis(theta, psi0.grid.n, 2))
    return PropagationResult(ComplexField(values, psi0.grid), t, Method.SPECTRAL_EXACT)


def _require_finite_phase(phase: float, caller: str, formula: str, t: float) -> None:
    """Raise ValueError when a call's largest phase is not a finite double."""
    if not math.isfinite(phase):
        raise ValueError(f"{caller}: the phase {formula} overflows at t = {t!r}")


def _chirp_rate(grid: Grid, t: float, params: PhysicsParams) -> float:
    """a = m step^2 / hbar t, the free kernel's phase rate in grid steps."""
    return (params.mass * grid.step / params.hbar) * (grid.step / t)


def _direct_kernel_sum(values: np.ndarray, a: float) -> np.ndarray:
    """Trapezoidal sum_k K(x_j - x_k, t) values_k step with the free kernel K,
    summed directly over the samples that can move it.

    K(x_j - x_k) step = sqrt(a / 2 pi i) c_{j-k} with the chirp
    c_d = exp(i a d^2 / 2) and a the chirp rate of _chirp_rate, so the sum is
    a Toeplitz convolution of the N trapezoid-weighted values against the
    chirp over the lags 1-N ... N-1, taken here by np.convolve with no FFT.
    """
    n = values.size
    weighted = values.copy()
    weighted[[0, -1]] *= 0.5
    # Every kernel term has modulus r = sqrt(|a| / 2 pi), so dropping the
    # samples below a cut c moves each output term by at most n c r, and the
    # output by at most n^(3/2) c r in the discrete L2 norm.  With
    # c = 2^-53 max|weighted| / (n^(3/2) r) that is 2^-53 max|weighted|, at
    # most 2^-53 of the input's L2 norm and under its last bit, while the
    # sum shrinks to the span [lo, hi] of the samples left (at N = 2048 the
    # oracle's packets keep about 300 of 2048).  At huge |t|, a underflows
    # to 0 and so does the result, so every sample goes.
    magnitude = np.abs(weighted)
    r = math.sqrt(abs(a) / (2 * math.pi))
    cut = 2.0**-53 * float(magnitude.max()) / (n**1.5 * r) if r > 0 else math.inf
    weighted[magnitude < cut] = 0
    del magnitude
    nonzero = np.flatnonzero(weighted)
    if nonzero.size == 0:
        return np.zeros(n, dtype=complex)
    lo, hi = nonzero[0], nonzero[-1]
    # output j sums weighted_k c_{j-k} over k in [lo, hi], so the lags run
    # from -hi to n-1-lo; the chirp holds lag d at index d mod 2n
    chirp = _lattice_cis(0.5 * a, 2 * n, 2)
    lags = np.concatenate((chirp[2 * n - hi :], chirp[: n - lo]))
    del chirp
    return np.sqrt(a / (2j * np.pi)) * np.convolve(weighted[lo : hi + 1], lags, mode="valid")


def propagate_quadrature(psi0: ComplexField, t: float, params: PhysicsParams) -> PropagationResult:
    """Direct trapezoidal evaluation of the propagator integral.

    psi(x,t) = int K(x,x',t) psi(x',0) dx' with the free kernel
    K = sqrt(m / 2 pi i hbar t) exp[i m (x-x')^2 / 2 hbar t].  The
    independent oracle for propagate_spectral: a direct sum with no FFT and
    O(N) memory over the S samples above a cut that moves the result by at
    most 2^-53 of the input's L2 norm, N x S <= N^2 complex multiply-adds.
    The cut scales with the largest sample, so the sum is linear down to the
    subnormal range.  Raises ValueError where the kernel phase at lag N, the
    largest its chirp evaluates, overflows (t near 0).  Accuracy
    on oscillatory integrands is controlled by grid sizing: keep
    step <= hbar / (4 * p_max_relevant) with p_max_relevant the largest of
    the packet's momentum content and m |x - x'|_max / t.
    """
    _require_position(psi0, "propagate_quadrature")
    if t == 0:
        raise ValueError("propagate_quadrature: kernel is singular at t = 0 (identity)")
    a = _chirp_rate(psi0.grid, t, params)
    # the chirp's largest phase is at lag n, the end of its 2n-point lattice
    n2 = psi0.grid.n ** 2
    _require_finite_phase(0.5 * a * n2, "propagate_quadrature", "m (x - x')^2 / 2 hbar t", t)
    values = _direct_kernel_sum(psi0.values, a)
    out = ComplexField(values, psi0.grid)
    return PropagationResult(out, t, Method.QUADRATURE)


def short_time_approx(
    psi0: ComplexField, t: float, params: PhysicsParams, pbar: float
) -> PropagationResult:
    """Short-time translation: exp(+i pbar^2 t / 2 m hbar) psi0(x - pbar t / m).

    The phase follows from dropping the (p - pbar)^2 term in
    p^2 = 2 pbar p - pbar^2 + (p - pbar)^2 inside the momentum-space
    propagator, which leaves exp(+i pbar^2 t / 2 m hbar); with this sign the
    remainder is Galilean invariant (boosting the packet does not change
    |delta psi|) and the rigorous short-time bound holds for moving packets.

    The shift is applied in the momentum representation, so it is exact for
    non-integer-lattice displacements; what remains when comparing against
    exact propagation is the physics error of the approximation, not
    interpolation error.  Recommended for |t| << m hbar / Dp^2 (not enforced).
    """
    _require_position(psi0, "short_time_approx")
    if t == 0:
        out = ComplexField(psi0.values.copy(), psi0.grid)
        return PropagationResult(out, 0.0, Method.SHORT_TIME)
    shift = pbar * t / params.mass
    dk = psi0.grid.momentum_step(1.0)
    psi = _spectral_apply(psi0, _lattice_cis(-(dk * shift), psi0.grid.n, 1))
    values = _cis(0.5 * (pbar / params.hbar) * shift) * psi  # pbar^2 t / 2 m hbar
    return PropagationResult(ComplexField(values, psi0.grid), t, Method.SHORT_TIME)


def _sqrt_bound(direct, log_q: float, spread: float) -> float:
    """sqrt(q / pi) spread^2: direct() where that is positive and finite, else
    from log q, since then a power inside direct() over- or underflowed."""
    try:
        bound = direct()
        if 0 < bound < math.inf:
            return bound
    except (OverflowError, ZeroDivisionError):
        pass
    log_bound = 0.5 * (log_q - math.log(np.pi)) + 2 * math.log(spread)
    return math.exp(log_bound) if log_bound < 709 else math.inf


def short_time_error_bound(delta_p: float, t: float, params: PhysicsParams) -> float:
    """Rigorous pointwise bound sup_x |delta psi(x,t)|^2 <= sqrt(t/(pi m hbar^3)) Dp^2.

    Returns inf when delta_p is infinite (discontinuous packets): the
    short-time picture is inapplicable there.  Never NaN and, like
    asymptotic_error_bound, never raises for valid arguments.
    """
    if not t >= 0:
        raise ValueError(f"bound requires t >= 0, got {t}")
    if not delta_p >= 0:
        raise ValueError(f"delta_p must be nonnegative, got {delta_p}")
    if math.isinf(delta_p):
        return math.inf
    if t == 0 or delta_p == 0:
        return 0.0
    m, hbar = params.mass, params.hbar
    return _sqrt_bound(
        lambda: math.sqrt(t / (np.pi * m * hbar**3)) * delta_p**2,
        math.log(t) - math.log(m) - 3 * math.log(hbar),
        delta_p,
    )


def asymptotic_form(
    phi0: ComplexField, xbar: float, t: float, params: PhysicsParams
) -> PropagationResult:
    """Large-time form sqrt(m/it) exp[i m (x^2 - xbar^2)/2 hbar t] phi0(m(x-xbar)/t).

    phi0 is evaluated off-lattice by band-limited interpolation: the momentum
    samples are transformed back to the position grid and the continuous
    transform is re-evaluated at the required momenta m(x - xbar)/t.  Since
    -(x - xbar) x' = [(x - x')^2 - x^2 - x'^2]/2 + xbar x', that transform
    times the phase above is the free propagator applied to
    psi0(x') exp[-i m (x' - xbar)^2 / 2 hbar t], so it is the same Toeplitz
    chirp sum as propagate_quadrature, with the same chirp from
    _lattice_cis, taken here as one circular 2N-point FFT convolution in
    O(N log N); the pre-chirp is exp[-i a d^2 / 2] with the same chirp rate
    a and d = (x' - xbar) / step.  from_momentum checks that
    phi0 is a momentum field on params.hbar's lattice.  The resulting density
    is (m/t) |phi0(m(x-xbar)/t)|^2.  Where m |x - xbar| / t reaches the
    lattice's band edge pi hbar / step the form is 0, not the band's periodic
    image, so no image adds to its norm.  Valid for |t| >> 2 m Dx^2 / hbar;
    t = 0 is rejected.
    """
    if t == 0:
        raise ValueError("asymptotic_form requires t != 0")
    grid, n = phi0.grid, phi0.grid.n
    a = _chirp_rate(grid, t, params)
    # the pre-chirp's largest phases are at the grid's ends, in its own
    # arithmetic; the kernel's is at lag n, the end of its 2n-point lattice
    x0, step = float(grid.x0), grid.step
    ends = ((x - float(xbar)) / step for x in (x0, x0 + step * (n - 1)))
    phase = 0.5 * a * max(n**2, *(d * d for d in ends))
    _require_finite_phase(phase, "asymptotic_form", "m (x - xbar)^2 / 2 hbar t", t)
    d = (grid.points - xbar) / grid.step
    weighted = from_momentum(phi0, params).values
    weighted *= _cis(-0.5 * a * d**2)
    weighted[[0, -1]] *= 0.5
    # the sum over k of weighted_k c_{j-k} as one circular convolution of
    # length 2n, whose chirp holds each lag at its index mod 2n
    spectrum = scipy.fft.fft(weighted, 2 * n)
    del weighted
    spectrum *= scipy.fft.fft(_lattice_cis(0.5 * a, 2 * n, 2))
    values = np.sqrt(a / (2j * np.pi)) * scipy.fft.ifft(spectrum, overwrite_x=True)[:n]
    # phi0 is known for |p| step / hbar = |a d| < pi only; beyond the band
    # its interpolant repeats it, so the form is set to 0 there
    values[np.abs(d) * abs(a) >= np.pi] = 0
    return PropagationResult(ComplexField(values, grid), t, Method.ASYMPTOTIC)


def asymptotic_error_bound(delta_x: float, t: float, params: PhysicsParams) -> float:
    """Rigorous bound sup_x |delta psi|^2 <= sqrt(m^3/(pi hbar^3 t^3)) Dx^2.

    delta_x is the spatial spread at the chosen initial instant; for packets
    with discontinuities the bound applies only when that instant is the one
    where the discontinuities exist (at any other time Dx does not exist).
    Returns inf for infinite delta_x.  Never NaN, and never raises for valid
    arguments: where a power in the formula over- or underflows, the value
    comes from logarithms instead, so it falls steadily to 0 as t grows.
    """
    if not t > 0:
        raise ValueError(f"bound requires t > 0, got {t}")
    if not delta_x >= 0:
        raise ValueError(f"delta_x must be nonnegative, got {delta_x}")
    if math.isinf(delta_x):
        return math.inf
    if delta_x == 0:
        return 0.0
    m, hbar = params.mass, params.hbar
    return _sqrt_bound(
        lambda: math.sqrt(m**3 / (np.pi * hbar**3 * t**3)) * delta_x**2,
        3 * (math.log(m) - math.log(hbar) - math.log(t)),
        delta_x,
    )
