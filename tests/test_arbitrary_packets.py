"""Facts 1-3 on arbitrary packets, drawn by hypothesis.

The paper states the spread law and both error bounds for any free packet;
the acceptance suite checks them on fixed packets only.  Here each draw is
a superposition of 1-6 Hermite-Gauss orders <= 20 with complex weights, or a
derivative packet, boosted by p in [-2, 2] and started at t0 in [-2, 2]
(a superposition of closed forms is a closed form), or a translated square.
Each is propagated to six times in [0.01, 3] tau and held to the acceptance
tolerances: the spread law within 1e-6, Dp constant within 1e-9, the
spectral propagator within 1e-8 in L2 of the closed form (whose norm is 1),
and zero violations of either bound.  Grids are sized by the benchmark's reach rule
with c = 7 scale lengths of Gaussian tail beyond the Hermite turning point.

The quadrature oracle is held to the spectral propagator on drawn packets,
times and grids too, wherever the README's sampling rule holds and its
image check is silent.

The square has Dp = inf, so it has no spread law and its short-time bound is
inf; it is drawn at its real instant, where its Dx and so its asymptotic
bound exist.  A strict xfail records the one kind of draw that fails: a
smooth packet whose momenta fill the reach grid's lattice is judged to have
Dp = inf by moments.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freepacket import (
    ComplexField,
    GaussianFamily,
    Grid,
    PhysicsParams,
    SquareFamily,
    asymptotic_error_bound,
    asymptotic_form,
    derivative_packet,
    galilean_boost,
    hermite_gauss,
    moments,
    propagate_quadrature,
    propagate_spectral,
    sample,
    short_time_approx,
    short_time_error_bound,
    spread_law_from_state,
    spread_prediction,
    to_momentum,
)
from freepacket.packets import DERIVATIVE_MAX_ORDER, _derivative_packet, _hermite_gauss_packet, _square_packet

from conftest import rel_l2_values

PARAMS = PhysicsParams(hbar=1.0, mass=1.0)
FAM = GaussianFamily(params=PARAMS, tau=1.0)
SQUARE = SquareFamily(params=PARAMS, a=1.0)
TIMES = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0)  # in units of tau, and of m a^2 / hbar for the square
REACH_C = 7


_weights = st.builds(
    lambda r, angle: r * complex(math.cos(angle), math.sin(angle)),
    st.floats(0.1, 1.0),
    st.floats(-math.pi, math.pi),
)


@st.composite
def gaussian_packets(draw):
    """(psi(x, t), boost p, start t0, largest order) of a boosted
    superposition of Hermite-Gauss orders, or of one derivative packet."""
    if draw(st.booleans()):
        orders = draw(st.lists(st.integers(0, 20), min_size=1, max_size=6, unique=True))
        weights = draw(st.lists(_weights, min_size=len(orders), max_size=len(orders)))
        norm = math.sqrt(sum(abs(w) ** 2 for w in weights))

        def resting(x, t):
            return sum(w / norm * hermite_gauss(FAM, n, x, t) for n, w in zip(orders, weights))

    else:
        order = draw(st.integers(0, DERIVATIVE_MAX_ORDER))
        orders = [order]

        def resting(x, t):
            return derivative_packet(FAM, order, x, t)

    p = draw(st.floats(-2.0, 2.0))
    t0 = draw(st.floats(-2.0, 2.0))
    return galilean_boost(resting, p, 0.0, PARAMS), p, t0, max(orders)


def _check_facts(psi0, exact_at):
    """The spread law, the closed form and both bounds at the six TIMES;
    exact_at(t) is the closed form t after psi0.  A packet with Dp = inf
    (the square) has no spread law and a short-time bound of inf, and its
    band-limited spectral evolution is not held to the closed form."""
    m0 = moments(psi0, PARAMS)
    phi0 = to_momentum(psi0, PARAMS)
    smooth = math.isfinite(m0.delta_p)
    law = spread_law_from_state(m0, PARAMS, 0.0) if smooth else None
    for t in TIMES:
        exact = exact_at(t)
        if smooth:
            evolved = propagate_spectral(psi0, t, PARAMS).field
            assert rel_l2_values(evolved.values, exact, psi0.grid.step) <= 1e-8, t
            m = moments(evolved, PARAMS)
            predicted = spread_prediction(law, PARAMS, t)
            assert abs(m.delta_x - predicted) <= 1e-6 * predicted, t
            assert abs(m.delta_p - m0.delta_p) <= 1e-9 * m0.delta_p, t
        shifted = short_time_approx(psi0, t, PARAMS, m0.mean_p).field.values
        short_sup = float(np.max(np.abs(exact - shifted))) ** 2
        assert short_sup <= short_time_error_bound(m0.delta_p, t, PARAMS), t
        asym = asymptotic_form(phi0, m0.mean_x, t, PARAMS).field.values
        asym_sup = float(np.max(np.abs(exact - asym))) ** 2
        assert asym_sup <= asymptotic_error_bound(m0.delta_x, t, PARAMS), t


def _reach_grid(order: int, p: float, t0: float) -> Grid:
    """The smallest power-of-two grid whose positions hold a packet of the
    given order and boost at every instant from t0 to t0 + 3 tau, and whose
    momentum lattice holds its momenta, by the benchmark's reach rule (a
    derivative packet takes the reach of chi_n)."""
    packet = _hermite_gauss_packet(FAM, order)
    # both terms are convex in t, so the largest reach is at an end
    half_width = max(abs(p * t) + packet.reach(t, REACH_C) for t in (t0, t0 + TIMES[-1]))
    p_reach = abs(p) + packet.momentum_reach(REACH_C)
    n = 8
    while math.pi * PARAMS.hbar * n / (2 * half_width) < p_reach:
        n *= 2
    return Grid.centered(half_width, n)


@given(packet=gaussian_packets())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_facts_hold_for_boosted_superpositions_and_derivative_packets(packet):
    psi, p, t0, order = packet
    grid = _reach_grid(order, p, t0)
    _check_facts(sample(psi, grid, t0), lambda t: psi(grid.points, t0 + t))


@given(shift=st.floats(-2.0, 2.0))
@settings(max_examples=30, derandomize=True, deadline=None)
def test_facts_hold_for_a_translated_square_at_its_real_instant(shift):
    # sampled by cell coverage, so the sampled norm is 1 wherever the edges fall
    grid = Grid.centered(8.0, 1024)
    square = _square_packet(SQUARE, grid.step)
    psi0 = ComplexField(square.evaluate(grid.points - shift, 0.0), grid)
    assert moments(psi0, PARAMS).delta_p == math.inf
    _check_facts(psi0, lambda t: square.evaluate(grid.points - shift, t))


@pytest.mark.xfail(
    strict=True,
    reason="moments judges Dp divergent once a smooth packet's momentum content "
    "reaches the outer half of the lattice, which the reach rule allows",
)
def test_a_packet_that_fills_the_momentum_lattice_has_finite_moments():
    # a draw outside the derandomized sequence: chi_20 boosted by p = 2 on its
    # reach grid (512 points, p_max 16.6 against a turning point at 8.4); on
    # twice the points moments gives Dp = sqrt(20.5) to rounding
    psi = galilean_boost(lambda x, t: hermite_gauss(FAM, 20, x, t), 2.0, 0.0, PARAMS)
    m0 = moments(sample(psi, _reach_grid(20, 2.0, 0.0), 0.0), PARAMS)
    assert math.isfinite(m0.delta_p) and math.isfinite(m0.delta_x)


@st.composite
def quadrature_draws(draw):
    """(psi(x, t), grid, t): a boosted Hermite-Gauss or derivative packet of
    a drawn order, a time t with 0.2 tau <= |t| <= 5 tau, and a grid that
    holds the packet at 0 and t with room to spare and whose step meets the
    README's sampling rule for the quadrature, with points to spare."""
    if draw(st.booleans()):
        packet = _hermite_gauss_packet(FAM, draw(st.integers(0, 8)))
    else:
        packet = _derivative_packet(FAM, draw(st.integers(0, DERIVATIVE_MAX_ORDER)))
    p = draw(st.floats(-2.0, 2.0))
    t = draw(st.floats(0.2, 5.0)) * draw(st.sampled_from((1.0, -1.0)))
    half_width = draw(st.floats(1.0, 1.5)) * max(abs(p * s) + packet.reach(s, REACH_C) for s in (0.0, t))
    # the kernel's local momentum m |x - x'| / |t| for every row x, plus the
    # packet's own, must stay below the lattice's Nyquist momentum
    # (Oracle._spec in bench/workloads.py)
    kernel_p = PARAMS.mass * (half_width + packet.reach(0.0, REACH_C)) / abs(t)
    p_reach = abs(p) + packet.momentum_reach(REACH_C)
    n = 8
    while math.pi * PARAMS.hbar * n / (2 * half_width) < kernel_p + p_reach:
        n *= 2
    grid = Grid.centered(half_width, n * 2 ** draw(st.integers(0, 1)))
    return galilean_boost(packet.evaluate, p, 0.0, PARAMS), grid, t


@given(draw=quadrature_draws())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_quadrature_matches_spectral_wherever_the_sampling_rule_holds(draw):
    psi, grid, t = draw
    psi0 = sample(psi, grid, 0.0)
    try:
        by_kernel = propagate_quadrature(psi0, t, PARAMS).field.values
    except ValueError as refusal:  # images of the packet reach the grid
        assert "images" in str(refusal)
        assume(False)
    by_fft = propagate_spectral(psi0, t, PARAMS).field.values
    assert rel_l2_values(by_kernel, by_fft, grid.step) <= 1e-8
