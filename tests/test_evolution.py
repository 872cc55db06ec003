import math

import numpy as np
import pytest
import scipy.fft

import freepacket.evolution
from freepacket import (
    ComplexField,
    GaussianFamily,
    Grid,
    Method,
    PhysicsParams,
    Representation,
    SquareFamily,
    asymptotic_error_bound,
    asymptotic_form,
    derivative_packet,
    derivative_packet_asymptote,
    from_momentum,
    galilean_boost,
    gaussian_chi,
    hermite_gauss,
    moments,
    propagate_quadrature,
    propagate_spectral,
    quadrature_norm2,
    sample,
    short_time_approx,
    short_time_error_bound,
    square_exact,
    square_initial,
    square_momentum,
    to_momentum,
)

from conftest import rel_l2


def chi_field(gauss_fam, grid, t=0.0):
    return sample(lambda x, tt: gaussian_chi(gauss_fam, x, tt), grid, t)


# -------------------------------------------------------------- spectral


def test_spectral_t_zero_is_identity(gauss_fam, grid, params):
    f = chi_field(gauss_fam, grid)
    out = propagate_spectral(f, 0.0, params)
    assert out.method is Method.SPECTRAL_EXACT
    assert np.max(np.abs(out.field.values - f.values)) < 1e-13


def test_spectral_matches_analytic_chi(gauss_fam, grid, params):
    f = chi_field(gauss_fam, grid)
    out = propagate_spectral(f, 2.0, params)
    assert rel_l2(out.field, chi_field(gauss_fam, grid, 2.0)) < 1e-9


def test_spectral_reversible(gauss_fam, grid, params):
    f = chi_field(gauss_fam, grid)
    there = propagate_spectral(f, 1.7, params).field
    back = propagate_spectral(there, -1.7, params).field
    assert rel_l2(back, f) < 1e-12


@pytest.mark.parametrize("t", [0.3, 1.0, 5.0, -2.0])
def test_spectral_unitary(gauss_fam, grid, params, t):
    f = sample(lambda x, tt: derivative_packet(gauss_fam, 2, x, tt), grid, 0.0)
    out = propagate_spectral(f, t, params).field
    assert quadrature_norm2(out) == pytest.approx(quadrature_norm2(f), rel=1e-12)


def test_spectral_composition(gauss_fam, grid, params):
    f = chi_field(gauss_fam, grid)
    two_steps = propagate_spectral(propagate_spectral(f, 0.6, params).field, 1.1, params).field
    one_step = propagate_spectral(f, 1.7, params).field
    assert rel_l2(two_steps, one_step) < 1e-12


def test_spectral_rejects_momentum_field(gauss_fam, grid, params):
    phi = to_momentum(chi_field(gauss_fam, grid), params)
    with pytest.raises(ValueError):
        propagate_spectral(phi, 1.0, params)


# ---------------------------------- one FFT pair vs the transform sandwich

SANDWICH_PARAMS = PhysicsParams(hbar=0.7, mass=1.3)
SANDWICH_GRIDS = {
    "centered": Grid.centered(6.4, 256),
    "offset": Grid.centered_offset(6.4, 256),
    "arbitrary": Grid(x0=0.37, step=0.05, n=256),
}


def moving_packet(g):
    """Boosted derivative packet at t = 0.3, complex, centred on g and decayed at its edges."""
    fam = GaussianFamily(params=SANDWICH_PARAMS, tau=0.5)
    center = g.x0 + g.n * g.step / 2

    def resting(x, t):
        return derivative_packet(fam, 2, x - center, t)

    return sample(galilean_boost(resting, 1.5, 0.0, SANDWICH_PARAMS), g, 0.3)


def sandwich(f, params, multiplier):
    """multiplier(p) applied between the public continuous-convention transforms."""
    phi = to_momentum(f, params)
    p = f.grid.momentum_points(params.hbar)
    moved = ComplexField(multiplier(p) * phi.values, f.grid, Representation.MOMENTUM, hbar=params.hbar)
    return from_momentum(moved, params).values


def max_rel(values, reference):
    return np.max(np.abs(values - reference)) / np.max(np.abs(reference))


@pytest.mark.parametrize("g", SANDWICH_GRIDS.values(), ids=SANDWICH_GRIDS.keys())
def test_spectral_matches_transform_sandwich(g):
    f, t = moving_packet(g), 0.9
    m, hbar = SANDWICH_PARAMS.mass, SANDWICH_PARAMS.hbar
    expected = sandwich(f, SANDWICH_PARAMS, lambda p: np.exp(-1j * p**2 * t / (2 * m * hbar)))
    out = propagate_spectral(f, t, SANDWICH_PARAMS).field.values
    assert max_rel(out, expected) < 1e-13


@pytest.mark.parametrize("g", SANDWICH_GRIDS.values(), ids=SANDWICH_GRIDS.keys())
def test_short_time_matches_transform_sandwich(g):
    f, t, pbar = moving_packet(g), 0.2, 1.5
    m, hbar = SANDWICH_PARAMS.mass, SANDWICH_PARAMS.hbar
    shifted = sandwich(f, SANDWICH_PARAMS, lambda p: np.exp(-1j * p * pbar * t / (m * hbar)))
    expected = np.exp(1j * pbar**2 * t / (2 * m * hbar)) * shifted
    out = short_time_approx(f, t, SANDWICH_PARAMS, pbar=pbar).field.values
    assert max_rel(out, expected) < 1e-13


@pytest.mark.parametrize("g", SANDWICH_GRIDS.values(), ids=SANDWICH_GRIDS.keys())
def test_mean_r_matches_transform_sandwich(g):
    f = moving_packet(g)
    m = moments(f, SANDWICH_PARAMS)
    p_psi = sandwich(f, SANDWICH_PARAMS, lambda p: p)
    integrand = (np.conj(f.values) * (g.points - m.mean_x) * (p_psi - m.mean_p * f.values)).real
    expected = (integrand.sum() - 0.5 * (integrand[0] + integrand[-1])) * g.step
    assert abs(m.mean_r) > 0.1
    assert m.mean_r == pytest.approx(expected, rel=1e-13)


# ------------------------------------------------------------ quadrature


def test_quadrature_matches_analytic_chi(gauss_fam, grid, params):
    f = chi_field(gauss_fam, grid)
    out = propagate_quadrature(f, 1.0, params)
    assert out.method is Method.QUADRATURE
    assert rel_l2(out.field, chi_field(gauss_fam, grid, 1.0)) < 1e-8
    assert quadrature_norm2(out.field) == pytest.approx(quadrature_norm2(f), abs=1e-10)


def test_quadrature_agrees_with_spectral(gauss_fam, params):
    grid = Grid.centered(40.0, 2048)
    f = sample(lambda x, t: derivative_packet(gauss_fam, 2, x, t), grid, 0.0)
    by_kernel = propagate_quadrature(f, 1.0, params).field
    by_fft = propagate_spectral(f, 1.0, params).field
    assert rel_l2(by_kernel, by_fft) < 1e-8


def test_quadrature_square_matches_fresnel_interior(params):
    fam = SquareFamily(params=params, a=1.0)
    grid = Grid.centered_offset(2.0, 16384)
    f = ComplexField(square_initial(fam, grid.points), grid)
    out = propagate_quadrature(f, 0.05, params).field
    exact = square_exact(fam, grid.points, 0.05)
    interior = np.abs(grid.points) <= 1.6
    assert np.max(np.abs(out.values - exact)[interior]) < 1e-6


# A non-centred power-of-two grid (x0 != -n step / 2), unequal hbar and mass,
# and a moving off-centre packet still at 1e-3 of its peak on the grid edges
# (so the end weights count): the kernel tests below compare the Toeplitz
# sums against the N^2 sums written out from their definitions.
KERNEL_PARAMS = PhysicsParams(hbar=0.7, mass=1.3)
KERNEL_GRID = Grid(x0=-5.3, step=0.05, n=256)


def kernel_packet():
    x = KERNEL_GRID.points
    return ComplexField(np.exp(-((x - 1.1) ** 2) / 6 + 2.0j * x), KERNEL_GRID)


def trapezoid_weighted(values):
    weighted = KERNEL_GRID.step * values
    weighted[[0, -1]] *= 0.5
    return weighted


@pytest.mark.parametrize("t", [0.9, -0.9])
def test_quadrature_matches_brute_force_sum(t):
    m, hbar = KERNEL_PARAMS.mass, KERNEL_PARAMS.hbar
    f = kernel_packet()
    x = KERNEL_GRID.points
    kernel = np.sqrt(m / (2j * np.pi * hbar * t)) * np.exp(
        1j * m * (x[:, None] - x[None, :]) ** 2 / (2 * hbar * t)
    )
    expected = kernel @ trapezoid_weighted(f.values)
    out = propagate_quadrature(f, t, KERNEL_PARAMS).field.values
    assert np.max(np.abs(out - expected)) / np.max(np.abs(expected)) < 1e-12


def test_quadrature_never_calls_a_transform(monkeypatch):
    f = kernel_packet()
    expected = propagate_quadrature(f, -0.9, KERNEL_PARAMS).field.values

    def refuse(*args, **kwargs):
        raise AssertionError("the quadrature oracle called a transform")

    for module in (np.fft, scipy.fft):
        for name in module.__all__:
            if callable(getattr(module, name)):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(freepacket.evolution, "_spectral_apply", refuse)
    monkeypatch.setattr(freepacket.evolution, "from_momentum", refuse)
    out = propagate_quadrature(f, -0.9, KERNEL_PARAMS).field.values
    np.testing.assert_array_equal(out, expected)


def test_quadrature_rejects_t_zero(gauss_fam, grid, params):
    with pytest.raises(ValueError):
        propagate_quadrature(chi_field(gauss_fam, grid), 0.0, params)


# ------------------------------------------------------------- short time


def test_short_time_t_zero(gauss_fam, grid, params):
    f = chi_field(gauss_fam, grid)
    out = short_time_approx(f, 0.0, params, pbar=3.0)
    assert np.max(np.abs(out.field.values - f.values)) == 0.0


def test_short_time_zero_momentum_is_pure_phase(gauss_fam, grid, params):
    f = chi_field(gauss_fam, grid)
    out = short_time_approx(f, 0.8, params, pbar=0.0)
    assert np.max(np.abs(np.abs(out.field.values) - np.abs(f.values))) < 1e-12


def test_short_time_translates_density(gauss_fam, grid, params):
    pbar, t = 5.0, 0.3
    boosted = galilean_boost(lambda x, tt: gaussian_chi(gauss_fam, x, tt), pbar, 0.0, params)
    f = sample(boosted, grid, 0.0)
    out = short_time_approx(f, t, params, pbar=pbar)
    m = moments(out.field, params)
    assert m.mean_x == pytest.approx(pbar * t / params.mass, abs=1e-9)
    assert m.delta_x == pytest.approx(moments(f, params).delta_x, rel=1e-10)


def test_short_time_deviation_within_bound_for_boosted_chi(gauss_fam, wide_grid, params):
    # boosted chi, t = 0.01 t_p with t_p = tau: L2 (hence sup) deviation far
    # below the rigorous pointwise bound
    boosted = galilean_boost(lambda x, t: gaussian_chi(gauss_fam, x, t), 5.0, 0.0, params)
    f = sample(boosted, wide_grid, 0.0)
    t = 0.01 * gauss_fam.tau
    exact = propagate_spectral(f, t, params).field.values
    approx = short_time_approx(f, t, params, pbar=5.0).field.values
    sup_sq = np.max(np.abs(exact - approx)) ** 2
    bound = short_time_error_bound(math.sqrt(0.5), t, params)
    assert sup_sq <= bound


def test_short_time_bound_values(params):
    assert short_time_error_bound(2.0, 0.0, params) == 0.0
    assert short_time_error_bound(2.0, 4.0, params) == pytest.approx(
        2 * short_time_error_bound(2.0, 1.0, params), rel=1e-14
    )
    assert short_time_error_bound(math.inf, 1.0, params) == math.inf
    with pytest.raises(ValueError):
        short_time_error_bound(1.0, -1.0, params)


@pytest.mark.parametrize(
    "delta_p, t, params",
    [
        (1e200, 1.0, PhysicsParams()),  # Dp^2 overflows
        (1.0, 1.0, PhysicsParams(hbar=1e-110)),  # hbar^3 underflows to 0
        (1e-200, 1e-300, PhysicsParams()),  # Dp^2 and the whole value underflow
        (1e150, 1e-10, PhysicsParams(hbar=1e-120, mass=1e200)),  # only a power overflows
    ],
)
def test_short_time_bound_past_power_overflow(delta_p, t, params):
    # the formula's value, from logarithms, instead of a raise or NaN
    m, hbar = params.mass, params.hbar
    log_expected = 0.5 * (math.log(t / (math.pi * m)) - 3 * math.log(hbar)) + 2 * math.log(delta_p)
    expected = math.exp(log_expected) if log_expected < 709 else math.inf
    bound = short_time_error_bound(delta_p, t, params)
    assert bound == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("delta_p, t", [(math.nan, 1.0), (1.0, math.nan), (-1.0, 1.0)])
def test_short_time_bound_rejects_nan_and_negative(params, delta_p, t):
    with pytest.raises(ValueError):
        short_time_error_bound(delta_p, t, params)


def test_short_time_bound_is_monotone_across_the_double_range(params):
    grid = [float(v) for v in np.logspace(-300, 308, 1500)]
    runs = {
        "t, underflow": [short_time_error_bound(1e-100, t, params) for t in grid],
        "t, overflow": [short_time_error_bound(1e140, t, params) for t in grid],
        "delta_p": [short_time_error_bound(dp, 1.0, params) for dp in grid],
    }
    for name, bounds in runs.items():
        assert all(not math.isnan(b) for b in bounds), name
        assert all(a <= b for a, b in zip(bounds, bounds[1:])), name
    assert runs["t, underflow"][0] == 0.0 and runs["t, overflow"][-1] == math.inf
    assert runs["delta_p"][0] == 0.0 and runs["delta_p"][-1] == math.inf


def test_short_time_bound_keeps_in_range_values_bitwise():
    rng = np.random.default_rng(8)
    for _ in range(200):
        m, hbar, t, dp = (float(v) for v in 10.0 ** rng.uniform(-30, 30, size=4))
        direct = math.sqrt(t / (np.pi * m * hbar**3)) * dp**2
        assert short_time_error_bound(dp, t, PhysicsParams(hbar=hbar, mass=m)) == direct


def test_short_time_bound_chibar2(gauss_fam, wide_grid, params):
    f = sample(lambda x, t: derivative_packet(gauss_fam, 2, x, t), wide_grid, 0.0)
    t = 0.1 * gauss_fam.tau
    exact = propagate_spectral(f, t, params).field.values
    approx = short_time_approx(f, t, params, pbar=0.0).field.values
    sup_sq = np.max(np.abs(exact - approx)) ** 2
    assert sup_sq <= short_time_error_bound(math.sqrt(5 / 2), t, params)


def test_both_bounds_hold_for_chi1_log_spaced(gauss_fam, params):
    # chi_1 has Dx(0)^2 = Dp^2 = 3/2 in hbar = m = tau = 1 units
    grid = Grid.centered(256.0, 8192)
    f = sample(lambda x, t: hermite_gauss(gauss_fam, 1, x, t), grid, 0.0)
    delta = math.sqrt(3 / 2)
    for t in (0.01, 0.1, 1.0):
        exact = propagate_spectral(f, t, params).field.values
        approx = short_time_approx(f, t, params, pbar=0.0).field.values
        assert np.max(np.abs(exact - approx)) ** 2 <= short_time_error_bound(delta, t, params)
    phi0 = to_momentum(f, params)
    for t in (3.0, 10.0, 30.0):
        exact = propagate_spectral(f, t, params).field.values
        approx = asymptotic_form(phi0, 0.0, t, params).field.values
        assert np.max(np.abs(exact - approx)) ** 2 <= asymptotic_error_bound(delta, t, params)


# ------------------------------------------------------------- asymptotic


def test_asymptotic_square_density_is_sinc_squared(params):
    fam = SquareFamily(params=params, a=1.0)
    grid = Grid.centered(64.0, 4096)
    phi0 = ComplexField(
        square_momentum(fam, grid.momentum_points(params.hbar)),
        grid,
        Representation.MOMENTUM,
        hbar=params.hbar,
    )
    t = 2.0
    out = asymptotic_form(phi0, 0.0, t, params)
    assert out.method is Method.ASYMPTOTIC
    density = np.abs(out.field.values) ** 2
    x = grid.points
    z = fam.a * params.mass * x / (2 * params.hbar * t)
    expected = fam.a * params.mass / (2 * np.pi * params.hbar * t) * np.sinc(z / np.pi) ** 2
    assert np.max(np.abs(density - expected)) / np.max(expected) < 1e-6


def test_asymptotic_matches_derivative_packet_envelope(gauss_fam, params):
    grid = Grid.centered(256.0, 8192)
    f = sample(lambda x, t: derivative_packet(gauss_fam, 2, x, t), grid, 0.0)
    phi0 = to_momentum(f, params)
    t = 16.0
    out = asymptotic_form(phi0, 0.0, t, params).field
    envelope_sq = derivative_packet_asymptote(gauss_fam, grid.points, t) ** 2
    density = np.abs(out.values) ** 2
    assert np.max(np.abs(density - envelope_sq)) / np.max(envelope_sq) < 1e-3


def test_asymptotic_density_normalized(gauss_fam, params):
    # t = 20 t_x with t_x = tau for chi
    grid = Grid.centered(256.0, 8192)
    f = chi_field(gauss_fam, grid)
    phi0 = to_momentum(f, params)
    out = asymptotic_form(phi0, 0.0, 20.0, params).field
    assert quadrature_norm2(out) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("t", [2.5, -2.5])
def test_asymptotic_matches_brute_force_transform(t):
    # sqrt(m/it) exp[i m (x^2 - xbar^2)/2 hbar t] phi0(p) at p = m (x - xbar)/t,
    # with phi0 the trapezoidal continuous transform of psi0
    m, hbar, xbar = KERNEL_PARAMS.mass, KERNEL_PARAMS.hbar, 0.4
    f = kernel_packet()
    x = KERNEL_GRID.points
    p = m * (x - xbar) / t
    phi_at = np.exp(-1j * np.outer(p, x) / hbar) @ trapezoid_weighted(f.values)
    expected = (
        np.sqrt(m / (1j * t))
        * np.exp(1j * m * (x**2 - xbar**2) / (2 * hbar * t))
        * phi_at
        / np.sqrt(2 * np.pi * hbar)
    )
    phi0 = to_momentum(f, KERNEL_PARAMS)
    out = asymptotic_form(phi0, xbar, t, KERNEL_PARAMS).field.values
    assert np.max(np.abs(out - expected)) / np.max(np.abs(expected)) < 1e-12


def direct_chirp_sum(values, grid, t, params):
    """The free-kernel trapezoid sum as np.convolve(weighted, chirp, "valid")."""
    m, hbar, n = params.mass, params.hbar, grid.n
    weighted = grid.step * values
    weighted[[0, -1]] *= 0.5
    a = m * grid.step**2 / (hbar * t)
    d = np.arange(1 - n, n)
    chirp = np.exp(0.5j * a * d**2)
    return np.sqrt(m / (2j * np.pi * hbar * t)) * np.convolve(weighted, chirp, "valid")


def _supported_on(support):
    values = np.zeros(KERNEL_GRID.n, dtype=complex)
    values[support] = kernel_packet().values[support]
    return ComplexField(values, KERNEL_GRID)


# The quadrature sums only the span from the first to the last nonzero
# weight; these fields put that span inside, at either end, or nowhere.
SUPPORTS = {
    "interior": slice(60, 200),
    "first": slice(0, 1),
    "last": slice(KERNEL_GRID.n - 1, None),
    "zero": slice(0, 0),
}


@pytest.mark.parametrize("support", SUPPORTS.values(), ids=SUPPORTS.keys())
def test_quadrature_over_a_partial_support_matches_brute_force_sum(support):
    m, hbar, t = KERNEL_PARAMS.mass, KERNEL_PARAMS.hbar, 0.9
    f = _supported_on(support)
    x = KERNEL_GRID.points
    kernel = np.sqrt(m / (2j * np.pi * hbar * t)) * np.exp(
        1j * m * (x[:, None] - x[None, :]) ** 2 / (2 * hbar * t)
    )
    expected = kernel @ trapezoid_weighted(f.values)
    out = propagate_quadrature(f, t, KERNEL_PARAMS).field.values
    assert out.shape == expected.shape
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


# The benchmark oracle's grid, 2048 points across 64 gamma0 either side; on
# it the Gaussian's samples beyond about 9 gamma0 cannot move the quadrature.
ORACLE_FAM = GaussianFamily(params=KERNEL_PARAMS, tau=1.0)
ORACLE_GRID = Grid.centered(64 * ORACLE_FAM.gamma(0.0), 2048)


def oracle_gaussian():
    return sample(lambda x, t: gaussian_chi(ORACLE_FAM, x, t), ORACLE_GRID, 0.0)


def test_quadrature_sums_only_the_samples_that_can_move_it(monkeypatch):
    spans = []
    convolve = np.convolve

    def spy(weighted, chirp, mode="full"):
        spans.append(weighted.size)
        return convolve(weighted, chirp, mode)

    monkeypatch.setattr(np, "convolve", spy)
    propagate_quadrature(oracle_gaussian(), 2.5 * ORACLE_FAM.tau, KERNEL_PARAMS)
    assert len(spans) == 1 and spans[0] <= 320


# at t = 0.5 tau the chirp's phase a d^2 / 2 runs up to about 1.6e4
@pytest.mark.parametrize("t", [2.5, -2.5, 0.5])
def test_quadrature_is_the_full_span_sum_to_the_inputs_norm(t):
    # dropping samples moves the sum by at most 2^-53 of the input's norm;
    # the rest of the tolerance is the sum's own rounding.  The chirp rate is
    # the library's own, since one ulp of a moves the phases a d^2 / 2 by
    # about 1e-12 at these lags.
    psi0, n = oracle_gaussian(), ORACLE_GRID.n
    a = freepacket.evolution._chirp_rate(ORACLE_GRID, t * ORACLE_FAM.tau, KERNEL_PARAMS)
    weighted = psi0.values.copy()
    weighted[[0, -1]] *= 0.5
    chirp = np.exp(0.5j * a * np.arange(1 - n, n) ** 2)
    expected = np.sqrt(a / (2j * np.pi)) * np.convolve(weighted, chirp, "valid")
    out = propagate_quadrature(psi0, t * ORACLE_FAM.tau, KERNEL_PARAMS).field.values
    assert np.linalg.norm(out - expected) <= 2.0**-51 * np.linalg.norm(psi0.values)


def test_kernel_sums_vanish_where_the_chirp_rate_underflows():
    # a = m step^2 / hbar t is 0 here, and so is the kernel's prefactor
    params, t = PhysicsParams(hbar=1.0, mass=1e-300), 1e300
    psi0 = kernel_packet()
    assert freepacket.evolution._chirp_rate(KERNEL_GRID, t, params) == 0
    with np.errstate(all="raise"):
        by_kernel = propagate_quadrature(psi0, t, params).field.values
        asym = asymptotic_form(to_momentum(psi0, params), 0.4, t, params).field.values
    assert not by_kernel.any() and not asym.any()



def test_the_kernel_cut_keeps_every_sample_of_an_input_whose_norm_overflows(monkeypatch):
    # |weighted|_2 is about 4.5e308, past the largest double; the cut is
    # taken from the largest sample alone
    n, kept = ORACLE_GRID.n, []

    def spy(weighted, chirp, mode="full"):
        kept.append(np.count_nonzero(weighted))
        return np.zeros(n, dtype=complex)

    monkeypatch.setattr(np, "convolve", spy)
    psi0 = ComplexField(np.full(n, 1e307, dtype=complex), ORACLE_GRID)
    with np.errstate(all="raise"):
        propagate_quadrature(psi0, 2.5 * ORACLE_FAM.tau, KERNEL_PARAMS)
    assert kept == [n]


@pytest.mark.parametrize("scale", [1e-290, 1e-295, 1e-300])
def test_quadrature_is_linear_down_to_the_subnormal_range(scale):
    # the cut scales with the largest sample, so a field whose samples all
    # lie far below 1 is summed over the same span as the field itself
    psi0, t = oracle_gaussian(), 2.5 * ORACLE_FAM.tau
    expected = propagate_quadrature(psi0, t, KERNEL_PARAMS).field.values
    scaled = ComplexField(scale * psi0.values, ORACLE_GRID)
    out = propagate_quadrature(scaled, t, KERNEL_PARAMS).field.values / scale
    assert np.max(np.abs(out - expected)) <= 1e-15 * np.max(np.abs(expected))


OVERFLOWING_PHASES = {
    "spectral": (
        lambda f, t: propagate_spectral(f, t, KERNEL_PARAMS),
        1e308,
        "propagate_spectral: the phase p^2 t / 2 m hbar overflows at t = 1e+308",
    ),
    "quadrature": (
        lambda f, t: propagate_quadrature(f, t, KERNEL_PARAMS),
        1e-307,
        "propagate_quadrature: the phase m (x - x')^2 / 2 hbar t overflows at t = 1e-307",
    ),
    "asymptotic": (
        lambda f, t: asymptotic_form(to_momentum(f, KERNEL_PARAMS), 0.4, t, KERNEL_PARAMS),
        1e-307,
        "asymptotic_form: the phase m (x - xbar)^2 / 2 hbar t overflows at t = 1e-307",
    ),
}


@pytest.mark.parametrize("call, t, message", OVERFLOWING_PHASES.values(), ids=OVERFLOWING_PHASES.keys())
def test_an_overflowing_phase_names_itself_and_t(call, t, message):
    f = kernel_packet()
    with np.errstate(all="raise"), pytest.raises(ValueError) as raised:
        call(f, t)
    assert str(raised.value) == message



def test_an_overflowing_pre_chirp_of_an_off_grid_mean_is_named():
    # d = (x - xbar) / step reaches 2e157, so d^2 overflows while
    # (a d / 2) d, with a = 4.6e-7, does not
    f = kernel_packet()
    with np.errstate(all="raise"), pytest.raises(ValueError) as raised:
        asymptotic_form(to_momentum(f, KERNEL_PARAMS), 1e156, 1e4, KERNEL_PARAMS)
    assert str(raised.value) == (
        "asymptotic_form: the phase m (x - xbar)^2 / 2 hbar t overflows at t = 10000.0"
    )


@pytest.mark.parametrize("t", [4.5547e-305, -4.5547e-305])
def test_the_chirp_sums_name_an_overflow_at_lag_n(t):
    # the chirp is built over 2n lags, so its largest phase is a n^2 / 2,
    # which overflows here although a (n - 1)^2 / 2 and the pre-chirp's
    # phases at the grid's ends do not; at t < 0 every phase is negative
    params, grid = PhysicsParams(hbar=1.0, mass=1.0), Grid.centered(64.0, 2048)
    n = grid.n
    a = freepacket.evolution._chirp_rate(grid, t, params)
    assert math.isfinite(0.5 * a * (n - 1) ** 2) and not math.isfinite(0.5 * a * n**2)
    psi0 = ComplexField(np.exp(-0.5 * grid.points**2) / math.pi**0.25, grid)
    phi0 = to_momentum(psi0, params)
    for message, call in (
        ("propagate_quadrature: the phase m (x - x')^2", lambda: propagate_quadrature(psi0, t, params)),
        ("asymptotic_form: the phase m (x - xbar)^2", lambda: asymptotic_form(phi0, 0.0, t, params)),
    ):
        with np.errstate(all="raise"), pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == f"{message} / 2 hbar t overflows at t = {t!r}"


def _assert_asymptotic_is_direct_chirp_sum(psi0, xbar, t):
    m, hbar = KERNEL_PARAMS.mass, KERNEL_PARAMS.hbar
    phi0 = to_momentum(psi0, KERNEL_PARAMS)
    x = psi0.grid.points
    psi = from_momentum(phi0, KERNEL_PARAMS).values
    chirped = np.exp(-1j * m * (x - xbar) ** 2 / (2 * hbar * t)) * psi
    expected = direct_chirp_sum(chirped, psi0.grid, t, KERNEL_PARAMS)
    out = asymptotic_form(phi0, xbar, t, KERNEL_PARAMS).field.values
    assert out.shape == expected.shape
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("t", [3.0, -5.0])
def test_asymptotic_matches_direct_chirp_sum_on_the_oracle_grid(t):
    psi0 = sample(lambda x, tt: derivative_packet(ORACLE_FAM, 3, x, tt), ORACLE_GRID, 0.0)
    _assert_asymptotic_is_direct_chirp_sum(psi0, 0.3, t * ORACLE_FAM.tau)


@pytest.mark.parametrize("support", SUPPORTS.values(), ids=SUPPORTS.keys())
def test_asymptotic_over_a_partial_support_matches_direct_chirp_sum(support):
    _assert_asymptotic_is_direct_chirp_sum(_supported_on(support), 0.4, 2.5)


@pytest.mark.parametrize("t", [0.25, 0.5])
def test_asymptotic_form_is_zero_beyond_the_band(t):
    # here m |x| / t passes the lattice's band edge pi hbar / step inside the
    # grid; the band's periodic images there made its norm^2 5 and 3
    phi0 = to_momentum(oracle_gaussian(), KERNEL_PARAMS)
    out = asymptotic_form(phi0, 0.0, t * ORACLE_FAM.tau, KERNEL_PARAMS).field
    assert quadrature_norm2(out) == pytest.approx(1.0, abs=1e-6)


def test_asymptotic_rejects_t_zero(gauss_fam, grid, params):
    phi0 = to_momentum(chi_field(gauss_fam, grid), params)
    with pytest.raises(ValueError):
        asymptotic_form(phi0, 0.0, 0.0, params)


def test_asymptotic_rejects_a_position_field(gauss_fam, grid, params):
    with pytest.raises(ValueError, match="momentum-representation"):
        asymptotic_form(chi_field(gauss_fam, grid), 0.0, 5.0, params)


def test_asymptotic_rejects_a_lattice_of_another_hbar(gauss_fam, grid, params):
    phi0 = to_momentum(chi_field(gauss_fam, grid), PhysicsParams(hbar=2.0, mass=params.mass))
    with pytest.raises(ValueError, match="hbar"):
        asymptotic_form(phi0, 0.0, 5.0, params)


def test_asymptotic_bound_rejects_a_negative_spread_and_is_zero_at_zero(params):
    with pytest.raises(ValueError, match="delta_x"):
        asymptotic_error_bound(-1.0, 1.0, params)
    assert asymptotic_error_bound(0.0, 1.0, params) == 0.0


def test_asymptotic_bound_values(params):
    assert asymptotic_error_bound(1.0, 4.0, params) == pytest.approx(
        asymptotic_error_bound(1.0, 1.0, params) / 8, rel=1e-14
    )
    assert asymptotic_error_bound(math.inf, 1.0, params) == math.inf
    with pytest.raises(ValueError):
        asymptotic_error_bound(1.0, 0.0, params)


@pytest.mark.parametrize("t", [1e103, 1e308])
def test_asymptotic_bound_past_cube_overflow(params, t):
    # t**3 overflows: the bound must still be the formula's value, which
    # falls to 0, instead of raising or turning into NaN
    bound = asymptotic_error_bound(1.0, t, params)
    expected = (1.0 / t) ** 1.5 / math.sqrt(math.pi)  # no cube formed
    assert bound == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert bound <= asymptotic_error_bound(1.0, 1e100, params)


def test_asymptotic_bound_is_monotone_across_the_double_range(params):
    ts = np.logspace(-300, 308, 2000)
    bounds = [asymptotic_error_bound(1.0, float(t), params) for t in ts]
    assert all(not math.isnan(b) for b in bounds)
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    assert bounds[0] == math.inf and bounds[-1] == 0.0


def test_asymptotic_bound_keeps_in_range_values_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m, hbar, t, dx = (float(v) for v in 10.0 ** rng.uniform(-30, 30, size=4))
        direct = math.sqrt(m**3 / (np.pi * hbar**3 * t**3)) * dx**2
        assert asymptotic_error_bound(dx, t, PhysicsParams(hbar=hbar, mass=m)) == direct


def test_asymptotic_bound_chi(gauss_fam, params):
    grid = Grid.centered(256.0, 8192)
    f = chi_field(gauss_fam, grid)
    phi0 = to_momentum(f, params)
    t = 10.0 * gauss_fam.tau
    exact = propagate_spectral(f, t, params).field.values
    approx = asymptotic_form(phi0, 0.0, t, params).field.values
    sup_sq = np.max(np.abs(exact - approx)) ** 2
    # Dx(0) = gamma(0)/sqrt(2)
    bound = asymptotic_error_bound(gauss_fam.gamma(0.0) / math.sqrt(2), t, params)
    assert sup_sq <= bound


def test_asymptotic_bound_square_from_discontinuity_instant(params):
    fam = SquareFamily(params=params, a=1.0)
    grid = Grid.centered_offset(64.0, 8192)
    f = ComplexField(square_initial(fam, grid.points), grid)
    t = 0.5 * params.mass * fam.a**2 / params.hbar
    exact = propagate_spectral(f, t, params).field.values
    phi0 = to_momentum(f, params)
    approx = asymptotic_form(phi0, 0.0, t, params).field.values
    sup_sq = np.max(np.abs(exact - approx)) ** 2
    bound = asymptotic_error_bound(fam.a / math.sqrt(12), t, params)
    assert sup_sq <= bound


# -------------------------------------------------------------- Ehrenfest


def test_ehrenfest_for_boosted_packet(gauss_fam, wide_grid, params):
    p = 5.0
    boosted = galilean_boost(lambda x, t: gaussian_chi(gauss_fam, x, t), p, 0.0, params)
    f0 = sample(boosted, wide_grid, 0.0)
    m0 = moments(f0, params)
    for t in (0.3, 0.7, 1.5):
        mt = moments(propagate_spectral(f0, t, params).field, params)
        assert mt.mean_p == pytest.approx(m0.mean_p, abs=1e-9)
        assert mt.mean_x == pytest.approx(m0.mean_x + m0.mean_p * t / params.mass, abs=1e-9)


def test_delta_p_constant_under_evolution(gauss_fam, wide_grid, params):
    f0 = sample(lambda x, t: derivative_packet(gauss_fam, 2, x, t), wide_grid, 0.0)
    dp0 = moments(f0, params).delta_p
    for t in (0.5, 2.0, -1.0):
        dp = moments(propagate_spectral(f0, t, params).field, params).delta_p
        assert dp == pytest.approx(dp0, rel=1e-9)
