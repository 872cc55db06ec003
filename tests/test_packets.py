import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from freepacket import (
    ComplexField,
    GaussianFamily,
    Grid,
    PhysicsParams,
    SquareFamily,
    apply_b_dagger,
    derivative_packet,
    derivative_packet_asymptote,
    galilean_boost,
    gaussian_chi,
    hermite,
    hermite_gauss,
    moments,
    propagate_quadrature,
    propagate_spectral,
    quadrature_norm2,
    sample,
    spectral_derivative,
    square_exact,
    square_initial,
    square_momentum,
    to_momentum,
)

from conftest import SCALE_CASES


def cosine_similarity(a, b, step):
    inner = np.abs(np.trapezoid(np.conj(a) * b, dx=step))
    return inner / np.sqrt(
        np.trapezoid(np.abs(a) ** 2, dx=step) * np.trapezoid(np.abs(b) ** 2, dx=step)
    )


# ------------------------------------------------------------ gaussian_chi


def test_chi_peak_density(gauss_fam):
    # gamma(0) = 1 so |chi(0,0)|^2 = 1/sqrt(pi)
    assert abs(gaussian_chi(gauss_fam, 0.0, 0.0)) ** 2 == pytest.approx(
        1 / math.sqrt(math.pi), rel=1e-12
    )


@pytest.mark.parametrize("t", [0.0, 0.4, 1.0, 3.0, -2.0])
def test_chi_normalized_at_all_times(gauss_fam, grid, t):
    f = sample(lambda x, tt: gaussian_chi(gauss_fam, x, tt), grid, t)
    assert quadrature_norm2(f) == pytest.approx(1.0, abs=1e-10)


def test_chi_density_formula_at_point(gauss_fam):
    # gamma(2)^2 = 5: |chi(1,2)|^2 = exp(-1/5)/sqrt(5 pi), and the direct
    # complex evaluation must agree with the |.|^2 formula
    value = gaussian_chi(gauss_fam, 1.0, 2.0)
    expected = math.exp(-1 / 5) / math.sqrt(5 * math.pi)
    assert abs(value) ** 2 == pytest.approx(expected, rel=1e-12)
    gamma2 = gauss_fam.gamma(2.0) ** 2
    assert gamma2 == pytest.approx(5.0, rel=1e-14)
    assert abs(value) ** 2 == pytest.approx(math.exp(-1 / gamma2) / math.sqrt(gamma2 * math.pi), rel=1e-12)


# ----------------------------------------------------------- hermite_gauss


def test_hg_zero_order_is_chi(gauss_fam, grid):
    for t in (0.0, 0.8, -1.7):
        chi = gaussian_chi(gauss_fam, grid.points, t)
        hg0 = hermite_gauss(gauss_fam, 0, grid.points, t)
        assert np.max(np.abs(chi - hg0)) < 1e-13


@pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
def test_hg_density_formulas(gauss_fam, t):
    x = np.linspace(-4, 4, 41)
    g = gauss_fam.gamma(t)
    d0 = np.abs(hermite_gauss(gauss_fam, 0, x, t)) ** 2
    np.testing.assert_allclose(d0, np.exp(-(x**2) / g**2) / (g * math.sqrt(math.pi)), rtol=1e-12)
    d2 = np.abs(hermite_gauss(gauss_fam, 2, x, t)) ** 2
    expected = (
        (1 - 2 * x**2 / g**2) ** 2 * np.exp(-(x**2) / g**2) / (2 * g * math.sqrt(math.pi))
    )
    np.testing.assert_allclose(d2, expected, rtol=1e-11, atol=1e-14)


def test_hg_norm(gauss_fam, grid):
    f = sample(lambda x, t: hermite_gauss(gauss_fam, 3, x, t), grid, 0.0)
    assert quadrature_norm2(f) == pytest.approx(1.0, abs=1e-10)


def test_hg_order_out_of_range(gauss_fam):
    with pytest.raises(ValueError):
        hermite_gauss(gauss_fam, 65, 0.0, 0.0)


# ---------------------------------------------------------- apply_b_dagger


@pytest.mark.parametrize("t", [0.0, 0.7])
def test_b_dagger_raises_chi_to_chi1(gauss_fam, grid, t):
    f = sample(lambda x, tt: gaussian_chi(gauss_fam, x, tt), grid, t)
    raised = apply_b_dagger(f, gauss_fam, t)
    chi1 = hermite_gauss(gauss_fam, 1, grid.points, t)
    assert cosine_similarity(raised.values, chi1, grid.step) > 1 - 1e-8


def test_b_dagger_twice_gives_chi2(gauss_fam, grid):
    t = 0.3
    f = sample(lambda x, tt: gaussian_chi(gauss_fam, x, tt), grid, t)
    raised = apply_b_dagger(apply_b_dagger(f, gauss_fam, t), gauss_fam, t)
    chi2 = hermite_gauss(gauss_fam, 2, grid.points, t)
    assert cosine_similarity(raised.values, chi2, grid.step) > 1 - 1e-8


def test_b_dagger_zero_field(gauss_fam, grid):
    f = ComplexField(np.zeros(grid.n, dtype=complex), grid)
    assert np.all(apply_b_dagger(f, gauss_fam, 0.0).values == 0)


# ------------------------------------------------------- derivative packet


def test_derivative_packet_real_symmetric_at_zero(gauss_fam):
    x = np.linspace(-5, 5, 101)
    values = derivative_packet(gauss_fam, 2, x, 0.0)
    assert np.max(np.abs(values.imag)) < 1e-14
    np.testing.assert_allclose(values, values[::-1], rtol=1e-12)
    # zeros where 2 kappa^2 x^2 = 1, central hump in between
    kappa0 = gauss_fam.kappa(0.0).real
    x_zero = 1 / (kappa0 * math.sqrt(2))
    assert abs(derivative_packet(gauss_fam, 2, x_zero, 0.0)) < 1e-14
    assert abs(derivative_packet(gauss_fam, 2, 0.0, 0.0)) > abs(
        derivative_packet(gauss_fam, 2, x_zero / 2, 0.0)
    )


def test_derivative_packet_moments(gauss_fam, grid, params):
    f = sample(lambda x, t: derivative_packet(gauss_fam, 2, x, t), grid, 0.0)
    m = moments(f, params)
    assert m.delta_x**2 == pytest.approx(7 / 6, rel=1e-9)
    assert m.delta_p**2 == pytest.approx(5 / 2, rel=1e-9)


def test_derivative_packet_norm_at_all_times(gauss_fam, grid):
    for n in (0, 1, 2, 4):
        for t in (0.0, 1.3):
            f = sample(lambda x, tt: derivative_packet(gauss_fam, n, x, tt), grid, t)
            assert quadrature_norm2(f) == pytest.approx(1.0, abs=1e-10)


def test_derivative_packet_order_zero_is_chi_up_to_phase(gauss_fam):
    x = np.linspace(-4, 4, 33)
    for t in (0.0, 0.9):
        ratio = derivative_packet(gauss_fam, 0, x, t) / gaussian_chi(gauss_fam, x, t)
        np.testing.assert_allclose(np.abs(ratio), 1.0, rtol=1e-12)
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)


def test_derivative_packet_order_out_of_range(gauss_fam):
    with pytest.raises(ValueError):
        derivative_packet(gauss_fam, 17, 0.0, 0.0)


def test_derivative_packet_matches_spectral_derivative(gauss_fam, grid):
    # closed form vs numerically differentiated chi, up to one constant
    f = sample(lambda x, t: gaussian_chi(gauss_fam, x, t), grid, 0.0)
    second = spectral_derivative(f, 2).values
    closed = derivative_packet(gauss_fam, 2, grid.points, 0.0)
    assert cosine_similarity(second, closed, grid.step) > 1 - 1e-12


def factorial_series_norm_const(fam, n):
    # c_n = (kappa0^(2n+1) I_n)^(-1/2) with the power series
    # I_n = sqrt(pi/2) n!^2 sum_j 1/(4^j j!^2 (n-2j)!)
    p = fam.params
    kappa0 = math.sqrt(p.mass / (2 * p.hbar * fam.tau))
    series = sum(
        1.0 / (4.0**j * math.factorial(j) ** 2 * math.factorial(n - 2 * j))
        for j in range(n // 2 + 1)
    )
    i_n = math.sqrt(math.pi / 2) * math.factorial(n) ** 2 * series
    return 1.0 / math.sqrt(kappa0 ** (2 * n + 1) * i_n)


@pytest.mark.parametrize("hbar, mass", [(1.0, 1.0), (0.7, 1.3), (1e-3, 5.0)])
def test_derivative_packet_matches_factorial_series(hbar, mass):
    # at t = 0 the packet is c_n kappa0^(n+1) H_n(kappa0 x) exp(-kappa0^2 x^2)
    for tau in np.logspace(-3, 3, 13):
        fam = GaussianFamily(PhysicsParams(hbar=hbar, mass=mass), tau=tau)
        kappa0 = math.sqrt(mass / (2 * hbar * tau))
        x = np.linspace(-6, 6, 241) / kappa0
        for n in range(17):
            expected = (
                factorial_series_norm_const(fam, n)
                * kappa0 ** (n + 1)
                * hermite(n, kappa0 * x)
                * np.exp(-((kappa0 * x) ** 2))
            )
            values = derivative_packet(fam, n, x, 0.0)
            scale = np.max(np.abs(expected))
            np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-13 * scale)


@pytest.mark.parametrize("physics", [{"hbar": 1e-300}, {"mass": 1e300}], ids=["hbar", "mass"])
@pytest.mark.parametrize("n", [0, 2, 16])
def test_derivative_packet_at_extreme_physics(physics, n):
    # kappa0^(n+1) and H_n(kappa0 x) alone overflow a double here; the packet does not
    fam = GaussianFamily(PhysicsParams(**physics))
    kappa0 = fam.kappa(0.0).real
    grid = Grid.centered(40 / kappa0, 2048)
    for t in (0.0, 0.3):
        f = sample(lambda x, tt: derivative_packet(fam, n, x, tt), grid, t)
        assert np.all(np.isfinite(f.values))
        assert quadrature_norm2(f) == pytest.approx(1.0, abs=1e-10)


def test_far_tail_is_zero_without_warning(gauss_fam):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hermite_gauss(gauss_fam, 64, [1e6], 0.0)[0] == 0
        assert derivative_packet(gauss_fam, 16, [1e20], 0.3)[0] == 0


def test_narrow_hermite_gauss_is_finite_across_a_wide_grid():
    # gamma = 1e-3 on the lattice of Grid.centered(64, 2**22): the core
    # carries the norm, the far points reach the grid edge
    fam = GaussianFamily(PhysicsParams(), tau=1e-6)
    step = 128 / 2**22
    core = step * np.arange(-1700, 1700)
    far = np.linspace(0.06, 64, 1001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = hermite_gauss(fam, 64, core, 0.0)
        tail = hermite_gauss(fam, 64, np.concatenate([-far, far]), 0.0)
    assert np.sum(np.abs(values) ** 2) * step == pytest.approx(1.0, abs=1e-10)
    assert np.all(tail == 0)


# ------------------------------------------------------ asymptotic envelope


def test_asymptote_vanishes_at_origin(gauss_fam):
    for t in (0.5, 4.0, 16.0):
        assert derivative_packet_asymptote(gauss_fam, 0.0, t) == 0.0


def test_asymptote_rejects_nonpositive_time(gauss_fam):
    with pytest.raises(ValueError):
        derivative_packet_asymptote(gauss_fam, 1.0, 0.0)
    with pytest.raises(ValueError):
        derivative_packet_asymptote(gauss_fam, 1.0, -2.0)


def test_asymptote_density_normalized(gauss_fam):
    t = 16.0
    x = np.linspace(-400, 400, 200001)
    density = derivative_packet_asymptote(gauss_fam, x, t) ** 2
    assert np.trapezoid(density, x) == pytest.approx(1.0, abs=1e-8)


def test_asymptote_matches_density_at_large_time(gauss_fam):
    # measured sup-norm gap at t = 16 tau is 0.72% of the peak; pinned at 1%
    t = 16.0
    x = np.linspace(-200, 200, 8001)
    density = np.abs(derivative_packet(gauss_fam, 2, x, t)) ** 2
    asym = derivative_packet_asymptote(gauss_fam, x, t) ** 2
    gap = np.max(np.abs(density - asym)) / np.max(asym)
    assert gap <= 0.01
    assert gap == pytest.approx(0.0072, abs=0.0015)


# ------------------------------------------------------------ square packet


def test_square_initial_values(params):
    fam = SquareFamily(params=params, a=2.0)
    assert square_initial(fam, 0.0) == 1 / math.sqrt(2.0)
    assert square_initial(fam, 1.0) == 0.0
    assert square_initial(fam, -1.0) == 0.0
    # unit piecewise integral: width a times 1/a
    assert fam.a * abs(square_initial(fam, 0.0)) ** 2 == pytest.approx(1.0, rel=1e-15)


def test_square_momentum_values(params):
    fam = SquareFamily(params=params, a=1.0)
    assert square_momentum(fam, 0.0) == pytest.approx(
        math.sqrt(fam.a / (2 * math.pi * params.hbar)), rel=1e-14
    )
    first_zero = 2 * math.pi * params.hbar / fam.a
    assert abs(square_momentum(fam, first_zero)) < 1e-16


def test_square_momentum_matches_transform(params):
    fam = SquareFamily(params=params, a=1.0)
    grid = Grid.centered_offset(4.0, 8192)
    f = ComplexField(square_initial(fam, grid.points), grid)
    phi = to_momentum(f, params)
    expected = square_momentum(fam, grid.momentum_points(params.hbar))
    assert np.max(np.abs(phi.values - expected)) < 1e-3


def test_square_exact_matches_adaptive_quadrature(params):
    # the anti-hallucination gate for the Fresnel closed form: direct
    # adaptive quadrature of the propagator integral at sample points
    fam = SquareFamily(params=params, a=1.0)
    for t, x in [(0.01, 0.0), (0.01, 0.7), (0.05, 0.3), (0.5, 2.0)]:
        prefactor = math.sqrt(params.mass / (2 * math.pi * params.hbar * t))

        def integrand_re(xp):
            return prefactor * math.cos(
                params.mass * (x - xp) ** 2 / (2 * params.hbar * t) - math.pi / 4
            ) / math.sqrt(fam.a)

        def integrand_im(xp):
            return prefactor * math.sin(
                params.mass * (x - xp) ** 2 / (2 * params.hbar * t) - math.pi / 4
            ) / math.sqrt(fam.a)

        expected = (
            quad(integrand_re, -fam.a / 2, fam.a / 2, limit=800, epsabs=1e-13)[0]
            + 1j * quad(integrand_im, -fam.a / 2, fam.a / 2, limit=800, epsabs=1e-13)[0]
        )
        got = square_exact(fam, np.array([x]), t)[0]
        assert got == pytest.approx(expected, abs=1e-10)


def test_square_exact_matches_trapezoid_propagator(params):
    # trapezoid oracle on a jump-midpoint grid has an O(step^2) floor around
    # 4e-6 at this resolution (measured); it cross-checks the closed form
    # well below the packet scale 1/sqrt(a) = 1
    fam = SquareFamily(params=params, a=1.0)
    grid = Grid.centered_offset(1.28, 8192)
    psi0 = ComplexField(square_initial(fam, grid.points), grid)
    q = propagate_quadrature(psi0, 0.01, params)
    exact = square_exact(fam, grid.points, 0.01)
    assert np.max(np.abs(q.field.values - exact)) < 5e-6


def test_square_exact_symmetric(params):
    fam = SquareFamily(params=params, a=1.0)
    x = np.linspace(0.0, 3.0, 61)
    for t in (0.01, 0.3):
        plus = square_exact(fam, x, t)
        minus = square_exact(fam, -x, t)
        np.testing.assert_allclose(plus, minus, rtol=1e-13, atol=1e-16)


def test_square_exact_time_reversal_conjugates(params):
    fam = SquareFamily(params=params, a=1.0)
    x = np.linspace(-2, 2, 41)
    np.testing.assert_allclose(
        square_exact(fam, x, -0.07), np.conj(square_exact(fam, x, 0.07)), rtol=1e-13
    )


def test_square_exact_rejects_t_zero(params):
    fam = SquareFamily(params=params, a=1.0)
    with pytest.raises(ValueError):
        square_exact(fam, 0.0, 0.0)


def test_square_late_time_matches_sinc_asymptote(params):
    # t = 0.5 m a^2/hbar: measured sup-norm gap 0.55% of the peak, pinned
    # below 0.8%, comfortably inside the 2% criterion
    fam = SquareFamily(params=params, a=1.0)
    t = 0.5
    x = np.linspace(-30, 30, 4001)
    scaled_density = t * np.abs(square_exact(fam, x, t)) ** 2
    z = fam.a * params.mass * x / (2 * params.hbar * t)
    asym = fam.a * params.mass / (2 * math.pi * params.hbar) * np.sinc(z / math.pi) ** 2
    gap = np.max(np.abs(scaled_density - asym)) / np.max(asym)
    assert gap <= 0.008
    assert gap == pytest.approx(0.0055, abs=0.0015)


# ------------------------------------------------------------------ boost


def test_boost_zero_momentum_is_identity(gauss_fam, params):
    xi = lambda x, t: gaussian_chi(gauss_fam, x, t)
    boosted = galilean_boost(xi, 0.0, 0.0, params)
    x = np.linspace(-4, 4, 17)
    np.testing.assert_allclose(boosted(x, 1.3), xi(x, 1.3), rtol=1e-14)


def test_boost_at_reference_time_is_plane_wave_factor(gauss_fam, params):
    xi = lambda x, t: gaussian_chi(gauss_fam, x, t)
    p, t0 = 5.0, 0.4
    boosted = galilean_boost(xi, p, t0, params)
    x = np.linspace(-4, 4, 17)
    np.testing.assert_allclose(
        boosted(x, t0), np.exp(1j * p * x / params.hbar) * xi(x, t0), rtol=1e-13
    )


def test_boost_moments(gauss_fam, params, wide_grid):
    p = 5.0
    boosted = galilean_boost(lambda x, t: gaussian_chi(gauss_fam, x, t), p, 0.0, params)
    m0 = moments(sample(boosted, wide_grid, 0.0), params)
    assert m0.mean_p == pytest.approx(p, rel=1e-12)
    assert m0.delta_p == pytest.approx(1 / math.sqrt(2), rel=1e-10)
    # spread trajectory identical to the unboosted packet
    for t in (0.5, 2.0):
        boosted_dx = moments(sample(boosted, wide_grid, t), params).delta_x
        resting_dx = moments(
            sample(lambda x, tt: gaussian_chi(gauss_fam, x, tt), wide_grid, t), params
        ).delta_x
        assert boosted_dx == pytest.approx(resting_dx, rel=1e-10)


def test_boosted_family_solves_free_equation_under_propagation(gauss_fam, params, wide_grid):
    p = 5.0
    boosted = galilean_boost(lambda x, t: gaussian_chi(gauss_fam, x, t), p, 0.0, params)
    f0 = sample(boosted, wide_grid, 0.0)
    t = 1.5
    evolved = propagate_spectral(f0, t, params).field
    closed = sample(boosted, wide_grid, t)
    err = np.sqrt(
        np.trapezoid(np.abs(evolved.values - closed.values) ** 2, dx=wide_grid.step)
    )
    assert err < 1e-9


def _boosted_chi_in_units(params, t):
    """A chi boosted by 1.5 hbar / gamma0 from t0 = 0.3 tau, in gamma0 and tau."""
    gamma0 = math.sqrt(params.hbar) / math.sqrt(params.mass)  # tau = 1
    fam = GaussianFamily(params=params, tau=1.0)
    p = 1.5 * params.hbar / gamma0
    boosted = galilean_boost(lambda x, tt: gaussian_chi(fam, x, tt), p, 0.3, params)
    return boosted(gamma0 * np.linspace(-8, 8, 33), t) * math.sqrt(gamma0)


@pytest.mark.parametrize("params", SCALE_CASES.values(), ids=SCALE_CASES.keys())
@pytest.mark.parametrize("t", [0.3, 1.3])
def test_boost_is_scale_covariant(params, t):
    # at m = 1e308 the boost momentum 1.5e154 squared would overflow, and at
    # hbar = 1e308 its product with a position near 1e155
    expected = _boosted_chi_in_units(PhysicsParams(), t)
    with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
        got = _boosted_chi_in_units(params, t)
    assert np.max(np.abs(got - expected)) / np.max(np.abs(expected)) < 1e-12


# --------------------------------------------- family-wide exact properties


def _family_members(gauss_fam):
    members = [("chi", lambda x, t: gaussian_chi(gauss_fam, x, t))]
    for n in range(5):
        members.append(
            (f"chi_{n}", lambda x, t, n=n: hermite_gauss(gauss_fam, n, x, t))
        )
    for n in range(5):
        members.append(
            (f"chibar_{n}", lambda x, t, n=n: derivative_packet(gauss_fam, n, x, t))
        )
    return members


@pytest.mark.parametrize("t", [0.0, 0.6, 2.0])
def test_families_satisfy_free_schrodinger_equation(gauss_fam, grid, t):
    # i hbar dt psi + (hbar^2/2m) dxx psi = 0 with dt by central differences
    # and dxx spectral; relative L2 residual <= 1e-6
    params = gauss_fam.params
    dt = 1e-5 * gauss_fam.tau
    for name, fn in _family_members(gauss_fam):
        plus = fn(grid.points, t + dt)
        minus = fn(grid.points, t - dt)
        time_term = 1j * params.hbar * (plus - minus) / (2 * dt)
        f = ComplexField(fn(grid.points, t), grid)
        space_term = (
            params.hbar**2 / (2 * params.mass) * spectral_derivative(f, 2).values
        )
        residual = np.sqrt(np.trapezoid(np.abs(time_term + space_term) ** 2, dx=grid.step))
        scale = np.sqrt(np.trapezoid(np.abs(space_term) ** 2, dx=grid.step))
        assert residual / scale < 1e-6, f"{name} at t={t}"


@pytest.mark.parametrize("n", [0, 1, 2])
def test_hermite_gauss_shape_invariance(gauss_fam, n):
    # gamma |chi_n|^2 as a function of x/gamma is exactly t-free
    ratios = np.linspace(-5, 5, 201)
    profiles = []
    for t in (0.0, 1.0, 5.0):
        g = gauss_fam.gamma(t)
        profiles.append(g * np.abs(hermite_gauss(gauss_fam, n, ratios * g, t)) ** 2)
    assert np.max(np.abs(profiles[0] - profiles[1])) < 1e-10
    assert np.max(np.abs(profiles[0] - profiles[2])) < 1e-10


def test_derivative_packet_changes_shape(gauss_fam):
    ratios = np.linspace(-5, 5, 201)
    profiles = []
    for t in (0.0, 1.0):
        g = gauss_fam.gamma(t)
        profiles.append(g * np.abs(derivative_packet(gauss_fam, 2, ratios * g, t)) ** 2)
    assert np.max(np.abs(profiles[0] - profiles[1])) > 0.05


@pytest.mark.parametrize("t", [0.0, 0.8, 5.0])
def test_chi1_stays_odd(gauss_fam, t):
    x = np.linspace(0.1, 5, 50)
    plus = hermite_gauss(gauss_fam, 1, x, t)
    minus = hermite_gauss(gauss_fam, 1, -x, t)
    np.testing.assert_allclose(minus, -plus, rtol=1e-12)
    assert abs(hermite_gauss(gauss_fam, 1, 0.0, t)) == 0.0


def test_derivative_packet_time_symmetric_density(gauss_fam):
    # real at t = 0, so the probability is symmetric about that instant
    x = np.linspace(-8, 8, 321)
    for t in (0.4, 1.7):
        forward = np.abs(derivative_packet(gauss_fam, 2, x, t)) ** 2
        backward = np.abs(derivative_packet(gauss_fam, 2, x, -t)) ** 2
        assert np.max(np.abs(forward - backward)) < 1e-10


def test_kappa_and_beta_continuous_through_zero(gauss_fam):
    # principal-branch sanity: no jumps crossing t = 0
    ts = np.linspace(-2, 2, 4001)
    kappas = np.array([gauss_fam.kappa(t) for t in ts])
    assert np.max(np.abs(np.diff(kappas))) < 1e-2
    betas = np.array([gauss_fam.beta(t) for t in ts])
    assert np.max(np.abs(np.diff(betas))) < 1e-2


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_families_reject_nonpositive_or_nonfinite_scales(params, value):
    # an infinite tau once gave gamma(0) = nan and all-NaN packets
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        GaussianFamily(params, tau=value)
    with pytest.raises(ValueError, match="a must be positive and finite"):
        SquareFamily(params, a=value)
