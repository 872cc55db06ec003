"""Free-particle propagators, the two analytic approximations, and their bounds.

The spectral propagator is exact up to discretization (multiply the momentum
wave function by exp(-i p^2 t / 2 m hbar), one FFT pair with the momenta in
FFT order); the direct quadrature propagator is its deliberately independent
O(N^2) oracle.  On the uniform grid the free kernel
exp[i m (x_j - x_k)^2 / 2 hbar t] depends only on j - k, so the quadrature
is a direct Toeplitz sum over one chirp row: 2N-1 kernel exps, N^2 complex
multiply-adds, O(N) memory and no FFT.  The asymptotic form is the same sum
(see asymptotic_form).  The short-time translation, also one FFT pair,
and the large-time asymptotic form come with the rigorous sup-norm bounds

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

from .numerics import (
    ComplexField,
    Grid,
    PhysicsParams,
    Representation,
    _cis,
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
    m, hbar = params.mass, params.hbar
    values = _spectral_apply(psi0, hbar, lambda p: _cis(-(p**2) * t * (1 / (2 * m * hbar))))
    return PropagationResult(ComplexField(values, psi0.grid), t, Method.SPECTRAL_EXACT)


def _free_kernel_sum(
    values: np.ndarray, grid: Grid, t: float, params: PhysicsParams
) -> np.ndarray:
    """Trapezoidal sum_k K(x_j - x_k, t) values_k step with the free kernel K.

    K(x_j - x_k) = sqrt(m / 2 pi i hbar t) c_{j-k} with the chirp
    c_d = exp(i a d^2 / 2), a = m step^2 / hbar t, so the sum is a direct
    Toeplitz convolution against the 2N-1 chirp values (no FFT).
    """
    m, hbar = params.mass, params.hbar
    n = grid.n
    weighted = grid.step * values
    weighted[[0, -1]] *= 0.5
    # Subnormal samples (the far tails of closed-form packets) make every
    # multiply-add they enter several times slower; below the smallest normal
    # double they cannot change a sum of normal terms, so drop them.
    weighted[np.abs(weighted) < np.finfo(float).tiny] = 0
    a = m * grid.step**2 / (hbar * t)
    d = np.arange(1 - n, n)
    chirp = _cis(0.5 * a * (d * d))
    return np.sqrt(m / (2j * np.pi * hbar * t)) * np.convolve(weighted, chirp, mode="valid")


def propagate_quadrature(psi0: ComplexField, t: float, params: PhysicsParams) -> PropagationResult:
    """Direct trapezoidal evaluation of the propagator integral.

    psi(x,t) = int K(x,x',t) psi(x',0) dx' with the free kernel
    K = sqrt(m / 2 pi i hbar t) exp[i m (x-x')^2 / 2 hbar t].  O(N^2); the
    independent oracle for propagate_spectral.  Accuracy on oscillatory
    integrands is controlled by grid sizing: keep
    step <= hbar / (4 * p_max_relevant) with p_max_relevant the largest of
    the packet's momentum content and m |x - x'|_max / t.
    """
    _require_position(psi0, "propagate_quadrature")
    if t == 0:
        raise ValueError("propagate_quadrature: kernel is singular at t = 0 (identity)")
    out = ComplexField(_free_kernel_sum(psi0.values, psi0.grid, t, params), psi0.grid)
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
    m, hbar = params.mass, params.hbar
    shift = pbar * t / m
    psi = _spectral_apply(psi0, hbar, lambda p: _cis(-p * shift * (1 / hbar)))
    values = _cis(pbar**2 * t / (2 * m * hbar)) * psi
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
    psi0(x') exp[-i m (x' - xbar)^2 / 2 hbar t], so it is evaluated by the
    same Toeplitz chirp sum as propagate_quadrature.  The resulting density
    is (m/t) |phi0(m(x-xbar)/t)|^2.  Valid for |t| >> 2 m Dx^2 / hbar;
    t = 0 is rejected.
    """
    if phi0.representation is not Representation.MOMENTUM:
        raise ValueError("asymptotic_form expects a momentum-representation field")
    if t == 0:
        raise ValueError("asymptotic_form requires t != 0")
    if phi0.hbar != params.hbar:
        raise ValueError("phi0 momentum lattice hbar does not match params.hbar")
    grid = phi0.grid
    psi0 = from_momentum(phi0, params).values
    chirped = _cis(-params.mass * (grid.points - xbar) ** 2 * (1 / (2 * params.hbar * t))) * psi0
    values = _free_kernel_sum(chirped, grid, t, params)
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
