"""Closed-form free-particle packet families, evaluable at arbitrary (x, t).

Each Gaussian form is written in the packet's own units: lengths in
gamma0 = sqrt(hbar tau / m), times as s = t / tau, positions as
u = x / gamma(t) with gamma(t) = gamma0 sqrt(1 + s^2), and amplitudes in
1/sqrt(gamma).  m and hbar enter only through gamma0, so no form multiplies
m, hbar or t or squares an unscaled position, and each gives the same
numbers in these units for any m and hbar (tested from 1e-300 to 1e308).

 * the Hermite-Gauss packets chi_n, generated by the invariant raising
   operator b+ = m x - p (t + i tau); they are shape-invariant, spreading
   only through gamma(t).  The free Gaussian is chi_0:

       chi(x,t) = pi^(-1/4) gamma^(-1/2) exp[i (s u^2 - beta) / 2] exp(-u^2 / 2)
                = (m tau / pi hbar)^(1/4) (t - i tau)^(-1/2) exp[i m x^2 / (2 hbar (t - i tau))];

 * the derivative packets (n-th spatial derivatives of chi), which are
   Hermite-Gaussians with the *complex* scale kappa = k / gamma0,
   k = sqrt(-i / (2 (s - i))), and do change shape.

Plus the square packet with its sinc momentum function and its exact
evolution in terms of Fresnel integrals, and the Galilean boost that turns
any resting solution into a moving one.

All families are normalized to unit L2 norm at every time, and all complex
square roots take the principal branch, which keeps t = 0 values
real-positive where expected.

What a run needs to know of a family is held here too, in one private
descriptor per packet (_Packet, from _hermite_gauss_packet, _derivative_packet
or _square_packet): its closed form, its exact initial spread Dx(0), whether
its Dp is finite, and for the Gaussian families the reach in position and in
momentum that c scale lengths of Gaussian tail beyond the Hermite turning
point give.  The square's descriptor samples t = 0 by cell coverage.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .numerics import (
    ComplexField,
    PhysicsParams,
    _cis,
    _require,
    _require_finite,
    _require_order,
    _require_position,
    _require_positive,
    fresnel,
    spectral_derivative,
)

__all__ = [
    "GaussianFamily",
    "SquareFamily",
    "gaussian_chi",
    "hermite_gauss",
    "apply_b_dagger",
    "derivative_packet",
    "derivative_packet_asymptote",
    "square_initial",
    "square_momentum",
    "square_exact",
    "galilean_boost",
    "sample",
]

HERMITE_GAUSS_MAX_ORDER = 64
DERIVATIVE_MAX_ORDER = 16


@dataclass(frozen=True)
class GaussianFamily:
    """Gaussian-packet family with intrinsic timescale tau > 0."""

    params: PhysicsParams
    tau: float = 1.0

    def __post_init__(self):
        _require_positive(self.tau, "tau")

    def gamma(self, t: float) -> float:
        """Length scale gamma(t) = gamma0 sqrt(1 + s^2), gamma0 = sqrt(hbar tau / m), s = t / tau.

        gamma(0) is gamma0 exactly.
        """
        p = self.params
        gamma0 = math.sqrt(p.hbar) * math.sqrt(self.tau) / math.sqrt(p.mass)
        return gamma0 * math.hypot(t / self.tau, 1.0)

    def beta(self, t: float) -> float:
        """Phase angle with e^{i beta} = sqrt(t - i tau)/sqrt(t + i tau).

        Continuous in t (beta in (-pi, 0)); beta(0) = -pi/2.
        """
        return -math.atan2(self.tau, t)

    def kappa(self, t: float) -> complex:
        """Complex inverse length, kappa^2 = -i m / (2 hbar (t - i tau)).

        Taken as sqrt(-i / (2 (s - i))) / gamma0: principal branch, real
        positive (1 / (sqrt(2) gamma0)) at t = 0.
        """
        return cmath.sqrt(-0.5j / (t / self.tau - 1j)) / self.gamma(0.0)


@dataclass(frozen=True)
class SquareFamily:
    """Square packet of width a: 1/sqrt(a) on |x| < a/2, 0 outside."""

    params: PhysicsParams
    a: float = 1.0

    def __post_init__(self):
        _require_positive(self.a, "a")


def gaussian_chi(fam: GaussianFamily, x, t: float):
    """The free Gaussian packet chi(x,t) = chi_0; |chi|^2 = exp(-u^2)/(gamma sqrt(pi))."""
    return hermite_gauss(fam, 0, x, t)


def _hermite_functions(n: int, z, g):
    """g H_n(z) / sqrt(2^n n!) for real or complex z, by the normalised recurrence

        g_{k+1} = sqrt(2/(k+1)) z g_k - sqrt(k/(k+1)) g_{k-1},  g_0 = g, g_{-1} = 0

    (DLMF 18.9.1 rescaled).  Every step stays of the size of the packet, so
    where the Gaussian seed g underflows the result is 0, not inf * 0.
    """
    g_prev = 0.0
    for k in range(n):
        g_prev, g = g, math.sqrt(2 / (k + 1)) * z * g - math.sqrt(k / (k + 1)) * g_prev
    return g


def hermite_gauss(fam: GaussianFamily, n: int, x, t: float):
    """Shape-invariant Hermite-Gauss packet chi_n(x,t), unit norm for every t.

    chi_n = pi^(-1/4) (gamma 2^n n!)^(-1/2)
            exp[i(s u^2 / 2 - (n + 1/2) beta)] exp(-u^2 / 2) H_n(u)

    with u = x / gamma(t), s = t / tau and beta as in GaussianFamily.beta.
    The phase exponent -(n + 1/2) beta is fixed by requiring each chi_n to
    satisfy the free Schrodinger equation (oscillator-like ladder phases);
    chi_0 is gaussian_chi.
    """
    _require_order(n, HERMITE_GAUSS_MAX_ORDER, "order")
    _require_finite(t, "t")
    x = np.asarray(x, dtype=float)
    g = fam.gamma(t)
    u = x / g
    seed = u * u
    if t == 0:  # the phase is the constant (n + 1/2) pi / 2: one cos and sin for every point
        phase = -((n + 0.5) * fam.beta(t))
    else:
        phase = seed * (0.5 * t / fam.tau)
        phase -= (n + 0.5) * fam.beta(t)
    seed *= -0.5
    values = _hermite_functions(n, u, np.pi**-0.25 / math.sqrt(g) * np.exp(seed))
    # u and u^2 go before exp(i phase) is allocated, so orders 0 and 1
    # (gaussian_chi is order 0) peak at four and five position-sized arrays,
    # not six; from order 2 on the recurrence's temporaries set the peak
    del u, seed
    rotation = _cis(phase)
    psi = rotation if rotation.shape == values.shape else np.empty(values.shape, dtype=complex)
    np.multiply(rotation.real, values, out=psi.real)
    np.multiply(rotation.imag, values, out=psi.imag)
    return psi[()]


def apply_b_dagger(f: ComplexField, fam: GaussianFamily, t: float) -> ComplexField:
    """Apply the invariant raising operator b+ = m x - (t + i tau)(-i hbar d/dx).

    The derivative is computed spectrally, so the field should be smooth and
    decayed at the grid edges.  Applied to a sampled chi(., t) the result is
    proportional to chi_1(., t), and so on up the ladder.
    """
    _require_position(f, "apply_b_dagger")
    p = fam.params
    momentum_term = -1j * p.hbar * spectral_derivative(f, 1).values
    values = p.mass * f.grid.points * f.values - (t + 1j * fam.tau) * momentum_term
    return ComplexField(values, f.grid)


def derivative_packet(fam: GaussianFamily, n: int, x, t: float):
    """Normalized n-th derivative packet, proportional to d^n chi / dx^n.

    Evaluates c_n kappa^(n+1) H_n(kappa x) exp(-kappa^2 x^2) with the
    principal-branch kappa of GaussianFamily.kappa and a real constant c_n
    giving unit L2 norm at every t, taken from the logarithms of
    kappa gamma0 = sqrt(-i / (2 (s - i))) and gamma0.  kappa stays in range
    wherever gamma0 does, so z = kappa x is formed directly.
    Real at t = 0; unlike the chi_n these packets change shape as they evolve.
    """
    _require_order(n, DERIVATIVE_MAX_ORDER, "order")
    _require_finite(t, "t")
    x = np.asarray(x, dtype=float)
    kappa, g0 = fam.kappa(t), fam.gamma(0.0)
    # c_n kappa^(n+1) sqrt(2^n n!) from logarithms, with c_n fixed at t = 0 by
    # ||kappa0^(n+1) H_n(kappa0 x) e^(-kappa0^2 x^2)||^2 = kappa0^(2n+1) 2^(n-1/2) Gamma(n+1/2)
    # and kappa0 = 1 / (sqrt(2) gamma0)
    log_c = (n + 1) * cmath.log(math.sqrt(2.0) * g0 * kappa) - 0.5 * math.log(g0)
    log_c += 0.5 * (math.lgamma(n + 1) - math.lgamma(n + 0.5))
    z = kappa * x
    return _hermite_functions(n, z, np.exp(-(z**2))) * cmath.exp(log_c)


def derivative_packet_asymptote(fam: GaussianFamily, x, t: float):
    """Large-time magnitude envelope of the n = 2 derivative packet.

    N' (x^2 / t^(5/2)) exp(-m tau x^2 / (2 hbar t^2)) with
    N' = 2 (m^5 tau^5 / (9 pi hbar^5))^(1/4); its square integrates to 1.
    In the packet's units this is 2 (9 pi)^(-1/4) gamma0^(-1/2) u0^2 s^(-5/2)
    exp(-u0^2 / (2 s^2)) with u0 = x / gamma0, evaluated as
    2 (9 pi)^(-1/4) (gamma0 s)^(-1/2) v^2 exp(-v^2 / 2) with v = u0 / s.
    Vanishes at x = 0: the central hump of the packet dies out at large t.
    """
    _require(t > 0, "t", "positive", t)
    x = np.asarray(x, dtype=float)
    scale = fam.gamma(0.0) * (t / fam.tau)
    v2 = np.square(x / scale)
    return 2 * (9 * np.pi) ** -0.25 / math.sqrt(scale) * v2 * np.exp(-0.5 * v2)


def square_initial(fam: SquareFamily, x):
    """The square packet at t = 0: 1/sqrt(a) for |x| < a/2, 0 for |x| >= a/2."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < fam.a / 2, 1.0 / math.sqrt(fam.a), 0.0).astype(complex)


def square_momentum(fam: SquareFamily, p):
    """Momentum wave function of the square packet: sqrt(a/2 pi hbar) sinc(a p / 2 hbar).

    With c = a / hbar / (2 pi) this is sqrt(c) np.sinc(c p), so no product
    of hbar is formed.  Where pi c p is not a finite double (p = +-inf among
    them) it is 0, the sinc's value to double precision; a nan p is refused.
    """
    p = np.asarray(p, dtype=float)
    _require(not np.isnan(p).any(), "p", "a number", math.nan)
    c = fam.a / fam.params.hbar / (2 * np.pi)
    # np.sinc takes sin(pi c p), which overflows or is nan where pi c p is
    # not a finite double (p = +-inf among them); |sinc| < 6e-309 there, so 0
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(np.pi * (c * p))
    return (math.sqrt(c) * np.sinc(c * np.where(finite, p, 0.0)) * finite).astype(complex)


def square_exact(fam: SquareFamily, x, t: float):
    """Exact evolution of the square packet via Fresnel integrals.

    Substituting u(x') = sqrt(m/(pi hbar t)) (x' - x) into the propagator
    integral over the packet's support collapses it to

        psi(x,t) = (2 i a)^(-1/2) [F(u(a/2)) - F(u(-a/2))],
        F(u) = C(u) + i S(u),

    for t > 0; t < 0 follows from time-reversal symmetry about the real
    initial instant, psi(x,-t) = conj(psi(x,t)).  The scale is taken as
    sqrt(m/pi) / sqrt(hbar) / sqrt(t), so neither m/(pi hbar t) nor pi hbar t
    is formed.  Validated against direct quadrature of the propagator
    integral in the test suite.
    """
    _require(not math.isnan(t), "t", "a number", t)
    if t == 0:
        raise ValueError("square_exact is for t != 0; use square_initial at t = 0")
    if t < 0:
        return np.conj(square_exact(fam, x, -t))
    p = fam.params
    x = np.asarray(x, dtype=float)
    root = math.sqrt(p.mass / np.pi) / math.sqrt(p.hbar) / math.sqrt(t)
    # both edges in one call: one sort and one fixed cost
    (c_hi, c_lo), (s_hi, s_lo) = fresnel(root * np.subtract.outer([fam.a / 2, -fam.a / 2], x))
    diff = (c_hi - c_lo) + 1j * (s_hi - s_lo)
    return diff / np.sqrt(2j * fam.a)


def galilean_boost(
    xi: Callable[[np.ndarray, float], np.ndarray],
    p: float,
    t0: float,
    params: PhysicsParams,
) -> Callable[[np.ndarray, float], np.ndarray]:
    """Boost a resting solution xi(x,t) into one moving with momentum p.

    psi(x,t) = exp[(i/hbar)(p x - p^2 (t - t0)/(2m))] xi(x - p (t - t0)/m, t);
    at t = t0 this is exp(i p x/hbar) xi(x, t0).  The boosted packet keeps
    the spread history of xi while <p> shifts to p.
    """
    _require_finite(p, "p")
    _require_finite(t0, "t0")

    def boosted(x, t: float):
        _require_finite(t, "t")
        x = np.asarray(x, dtype=float)
        dt = t - t0
        phase = _cis((p / params.hbar) * (x - (p / params.mass) * dt / 2))
        return phase * xi(x - p * dt / params.mass, t)

    return boosted


def sample(packet: Callable[[np.ndarray, float], np.ndarray], grid, t: float) -> ComplexField:
    """Evaluate a time-indexed packet on a grid at time t as a ComplexField."""
    return ComplexField(np.asarray(packet(grid.points, t), dtype=complex), grid)


class _Packet(NamedTuple):
    """What a run needs to know of one packet, from the builders below.

    `evaluate(x, t)` looks its closed form up in this module when it is
    called, so a tracer that replaces the name here sees every call.  A
    Gaussian-family packet of order n lies, but for c scale lengths of
    Gaussian tail beyond chi_n's Hermite turning point, within reach(t, c) =
    (sqrt(2n + 1) + c) gamma(t) of its centre, and its momenta within
    momentum_reach(c) = (sqrt(2n + 1) + c) hbar / gamma0.  A derivative packet
    of order n is a sum of chi_k with k <= n, so it takes chi_n's reach.  The
    square has no reach: its tails fall off as powers, and its family no
    gamma(t).
    """

    evaluate: Callable[[np.ndarray, float], np.ndarray]  # psi(x, t)
    spread: float  # the exact initial Dx
    fam: GaussianFamily | SquareFamily
    order: int = 0
    finite_dp: bool = True  # False only for the square, whose Dp is infinite

    def reach(self, t: float, c: float) -> float:
        return (math.sqrt(2 * self.order + 1) + c) * self.fam.gamma(t)

    def momentum_reach(self, c: float) -> float:
        return (math.sqrt(2 * self.order + 1) + c) * self.fam.params.hbar / self.fam.gamma(0.0)


def _hermite_gauss_packet(fam: GaussianFamily, n: int) -> _Packet:
    """chi_n; the free Gaussian is order 0."""
    return _Packet(lambda x, t: hermite_gauss(fam, n, x, t), fam.gamma(0.0) * math.sqrt(n + 0.5), fam, n)


def _derivative_packet(fam: GaussianFamily, n: int) -> _Packet:
    """The n-th derivative packet, Dx0^2 = gamma0^2 (4n - 1) / (4n - 2)."""
    spread = fam.gamma(0.0) * math.sqrt((4 * n - 1) / (4 * n - 2))
    return _Packet(lambda x, t: derivative_packet(fam, n, x, t), spread, fam, n)


def _square_packet(fam: SquareFamily, step: float) -> _Packet:
    """The square, sampled at t = 0 on cells of width `step`."""

    def evaluate(x, t):
        if t != 0:
            return square_exact(fam, x, t)
        # each t = 0 sample is the height times the root of the fraction of
        # its cell inside |x| < a/2, so the sampled norm is 1 wherever the
        # edges fall
        covered = np.clip((fam.a / 2 - np.abs(x)) / step + 0.5, 0.0, 1.0)
        return np.sqrt(covered) / math.sqrt(fam.a)

    return _Packet(evaluate, fam.a / math.sqrt(12.0), fam, finite_dp=False)
