import math

import mpmath
import numpy as np
import pytest
import scipy.fft
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from freepacket import (
    ComplexField,
    Grid,
    PhysicsParams,
    Representation,
    SquareFamily,
    fresnel,
    from_momentum,
    gaussian_chi,
    galilean_boost,
    derivative_packet,
    hermite,
    hermite_gauss,
    quadrature_norm2,
    spectral_derivative,
    square_initial,
    square_momentum,
    to_momentum,
)

from freepacket.numerics import HERMITE_MAX_ORDER, _cis, _lattice_cis

from conftest import rel_l2_values


# ---------------------------------------------------------------- hermite


def rodrigues_hermite(n, x):
    """Oracle: H_n from symbolic differentiation of exp(-x^2)."""
    xs = sympy.Symbol("x")
    poly = sympy.simplify((-1) ** n * sympy.exp(xs**2) * sympy.diff(sympy.exp(-(xs**2)), xs, n))
    return float(poly.subs(xs, x))


def test_hermite_h0_is_one():
    assert hermite(0, 3.7) == 1.0


def test_hermite_h1():
    assert hermite(1, 2.0) == 4.0


def test_hermite_h2_matches_rodrigues_oracle():
    # one symbolic differentiation pass: H_2(x) = 4x^2 - 2, so H_2(1) = 2
    assert rodrigues_hermite(2, 1.0) == 2.0
    assert hermite(2, 1.0) == 2.0


@pytest.mark.parametrize("n", range(11))
def test_hermite_matches_rodrigues_table(n):
    for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
        expected = rodrigues_hermite(n, x)
        got = float(hermite(n, x))
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)


@given(
    n=st.integers(min_value=1, max_value=30),
    x=st.floats(min_value=-5, max_value=5, allow_nan=False),
)
def test_hermite_recurrence_property(n, x):
    # the implementation IS the recurrence, so this holds exactly
    assert hermite(n + 1, x) == 2 * x * hermite(n, x) - 2 * n * hermite(n - 1, x)


def test_hermite_vectorized():
    x = np.linspace(-3, 3, 7)
    np.testing.assert_allclose(hermite(2, x), 4 * x**2 - 2)


@pytest.mark.parametrize("n", range(HERMITE_MAX_ORDER + 1))
def test_hermite_of_integers_equals_hermite_of_floats(n):
    # H_30(3) = 1.25e22 and H_64(2) = -2.9e54 are far outside int64
    x = np.arange(-5, 6)
    expected = hermite(n, x.astype(float))
    np.testing.assert_array_equal(hermite(n, x), expected)
    assert [hermite(n, int(v)) for v in x] == list(expected)
    np.testing.assert_array_equal(hermite(n, np.array([True, False])), hermite(n, np.array([1.0, 0.0])))


def test_hermite_domain_errors():
    with pytest.raises(ValueError):
        hermite(-1, 0.0)
    with pytest.raises(ValueError):
        hermite(65, 0.0)


# ---------------------------------------------------------------- phases


CIS_ANGLES = [0.0, 5e-324, 1.0, 1e3, 1e5, 1e7]


@pytest.mark.parametrize("theta", CIS_ANGLES + [-a for a in CIS_ANGLES])
def test_cis_equals_complex_exp_within_one_ulp(theta):
    # spectral phases reach about 1e7 on 65536-point grids
    rng = np.random.default_rng(17)
    array = theta * rng.uniform(0.5, 1.0, 1000)
    for arg in (theta, np.array(theta), array):
        got, expected = _cis(arg), np.exp(1j * arg)
        assert np.shape(got) == np.shape(expected) and np.asarray(got).dtype == complex
        np.testing.assert_array_max_ulp(np.real(got), np.real(expected), maxulp=1)
        np.testing.assert_array_max_ulp(np.imag(got), np.imag(expected), maxulp=1)



@pytest.mark.parametrize("n", [8, 2048, 65536])
@pytest.mark.parametrize("rate", [0.0, 3e-9, 1.3e-3, -2.7, 1e5])
def test_lattice_cis_is_cis_over_the_whole_lattice_bitwise(n, rate):
    k = np.fft.fftfreq(n, 1 / n)
    assert _lattice_cis(rate, n, 1).tobytes() == _cis(rate * k).tobytes()
    assert _lattice_cis(rate, n, 2).tobytes() == _cis(rate * (k * k)).tobytes()


# ---------------------------------------------------------------- fresnel


def quad_fresnel(u):
    """Oracle: adaptive quadrature of the defining integrals."""
    c, _ = quad(lambda t: math.cos(math.pi * t**2 / 2), 0, u, limit=400, epsabs=1e-13)
    s, _ = quad(lambda t: math.sin(math.pi * t**2 / 2), 0, u, limit=400, epsabs=1e-13)
    return c, s


def test_fresnel_zero():
    c, s = fresnel(0.0)
    assert c == 0.0 and s == 0.0


@pytest.mark.parametrize("u", [0.3, 1.0, 1.5999, 1.6001, 2.5, 5.0])
def test_fresnel_matches_quadrature_oracle(u):
    c, s = fresnel(u)
    c_ref, s_ref = quad_fresnel(u)
    assert c == pytest.approx(c_ref, abs=1e-10)
    assert s == pytest.approx(s_ref, abs=1e-10)


def test_fresnel_large_argument_against_subdivided_quadrature():
    # the quadrature oracle needs explicit subdivision once the integrand
    # oscillates fast; still the defining integral, summed interval by interval
    u = 50.0
    edges = np.linspace(0.0, u, 501)
    c_ref = sum(
        quad(lambda t: math.cos(math.pi * t**2 / 2), lo, hi, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )
    s_ref = sum(
        quad(lambda t: math.sin(math.pi * t**2 / 2), lo, hi, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )
    c, s = fresnel(u)
    assert c == pytest.approx(c_ref, abs=1e-10)
    assert s == pytest.approx(s_ref, abs=1e-10)


def test_fresnel_odd():
    c_pos, s_pos = fresnel(0.5)
    c_neg, s_neg = fresnel(-0.5)
    assert c_neg == -c_pos
    assert s_neg == -s_pos


@given(u=st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
@settings(max_examples=60)
def test_fresnel_odd_property(u):
    c_pos, s_pos = fresnel(u)
    c_neg, s_neg = fresnel(-u)
    assert c_neg == -c_pos and s_neg == -s_pos


@pytest.mark.parametrize("u", [0.0, 0.7, 1.3, 2.2, 4.0, 10.0])
def test_fresnel_derivative_is_integrand(u):
    h = 1e-5
    c_hi, s_hi = fresnel(u + h)
    c_lo, s_lo = fresnel(u - h)
    assert (c_hi - c_lo) / (2 * h) == pytest.approx(math.cos(math.pi * u**2 / 2), abs=1e-7)
    assert (s_hi - s_lo) / (2 * h) == pytest.approx(math.sin(math.pi * u**2 / 2), abs=1e-7)


def test_fresnel_rejects_nonfinite():
    with pytest.raises(ValueError):
        fresnel(math.inf)


def test_fresnel_matches_mpmath_to_rounding():
    # 40-digit reference on 401 evenly spaced points of |u| <= 60, plus u = +-1.6
    # and its neighbouring doubles
    near = np.array([1.6, np.nextafter(1.6, 0.0), np.nextafter(1.6, 2.0)])
    u = np.concatenate([np.linspace(-60.0, 60.0, 401), near, -near])
    with mpmath.workdps(40):
        c_ref = np.array([float(mpmath.fresnelc(v)) for v in u])
        s_ref = np.array([float(mpmath.fresnels(v)) for v in u])
    c, s = fresnel(u)
    assert np.max(np.abs(c - c_ref)) <= 1e-14
    assert np.max(np.abs(s - s_ref)) <= 1e-14


# ------------------------------------------------------------- transforms


def unit_gaussian(grid):
    x = grid.points
    return ComplexField(np.exp(-(x**2) / 2) / np.pi**0.25, grid)


def test_to_momentum_gaussian_self_conjugate(grid, params):
    phi = to_momentum(unit_gaussian(grid), params)
    p = grid.momentum_points(params.hbar)
    expected = np.exp(-(p**2) / 2) / np.pi**0.25
    assert np.max(np.abs(phi.values - expected)) < 1e-12


@pytest.mark.parametrize("n", [3])
def test_to_momentum_hermite_gauss_eigenfunction(grid, params, n):
    # e^(-x^2/2) H_n(x) maps to i^(-n) e^(-p^2/2) H_n(p) under the hbar=1 transform
    x = grid.points
    f = ComplexField(np.exp(-(x**2) / 2) * hermite(n, x), grid)
    phi = to_momentum(f, params)
    p = grid.momentum_points(params.hbar)
    expected = (1j) ** (-n) * np.exp(-(p**2) / 2) * hermite(n, p)
    assert rel_l2_values(phi.values, expected, grid.momentum_step(params.hbar)) < 1e-12


@pytest.mark.parametrize("n", [2])
def test_to_momentum_wide_gaussian_times_hermite(grid, params, n):
    # e^(-x^2) H_n(x) maps to (-i)^n 2^(-1/2) e^(-p^2/4) p^n
    x = grid.points
    f = ComplexField(np.exp(-(x**2)) * hermite(n, x), grid)
    phi = to_momentum(f, params)
    p = grid.momentum_points(params.hbar)
    expected = (-1j) ** n / np.sqrt(2) * np.exp(-(p**2) / 4) * p**n
    assert rel_l2_values(phi.values, expected, grid.momentum_step(params.hbar)) < 1e-12


def test_to_momentum_preserves_norm(grid, params):
    f = unit_gaussian(grid)
    phi = to_momentum(f, params)
    assert quadrature_norm2(phi) == pytest.approx(quadrature_norm2(f), rel=1e-12)


def test_to_momentum_rejects_momentum_input(grid, params):
    phi = to_momentum(unit_gaussian(grid), params)
    with pytest.raises(ValueError):
        to_momentum(phi, params)


@given(
    ar=st.floats(-2, 2, allow_subnormal=False),
    ai=st.floats(-2, 2, allow_subnormal=False),
    br=st.floats(-2, 2, allow_subnormal=False),
    bi=st.floats(-2, 2, allow_subnormal=False),
)
@settings(max_examples=25, deadline=None)
def test_to_momentum_linearity(grid, params, ar, ai, br, bi):
    alpha, beta = ar + 1j * ai, br + 1j * bi
    x = grid.points
    f = ComplexField(np.exp(-(x**2) / 2), grid)
    g = ComplexField(x * np.exp(-(x**2) / 3), grid)
    combined = to_momentum(ComplexField(alpha * f.values + beta * g.values, grid), params)
    separate = alpha * to_momentum(f, params).values + beta * to_momentum(g, params).values
    scale = np.max(np.abs(separate)) or 1.0
    assert np.max(np.abs(combined.values - separate)) / scale < 1e-13


def test_round_trip(grid, params):
    f = unit_gaussian(grid)
    back = from_momentum(to_momentum(f, params), params)
    assert rel_l2_values(back.values, f.values, grid.step) < 1e-12



@pytest.mark.parametrize("x0", [-8.0, -7.96875, 0.0, 3.3])
def test_transforms_are_their_whole_lattice_formulas_bitwise(x0):
    # the origin phase over the centred lattice, with no mirroring and np.fft's shifts
    g, params = Grid(x0=x0, step=0.0625, n=256), PhysicsParams(hbar=0.7, mass=1.3)
    rng = np.random.default_rng(3)
    v = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    phase = 2 * np.pi * (g.x0 / g.step) / g.n * np.arange(-(g.n // 2), g.n // 2)
    amplitude = g.step / math.sqrt(2 * np.pi) / math.sqrt(params.hbar)
    phi = amplitude * _cis(-phase) * np.fft.fftshift(scipy.fft.fft(v))
    psi = math.sqrt(2 * np.pi) * math.sqrt(params.hbar) / g.step * scipy.fft.ifft(
        np.fft.ifftshift(_cis(phase) * v)
    )
    assert to_momentum(ComplexField(v, g), params).values.tobytes() == phi.tobytes()
    back = from_momentum(ComplexField(v, g, Representation.MOMENTUM, params.hbar), params)
    assert back.values.tobytes() == psi.tobytes()

def test_from_momentum_zero_field(grid, params):
    phi = ComplexField(np.zeros(grid.n, dtype=complex), grid, Representation.MOMENTUM, hbar=1.0)
    psi = from_momentum(phi, params)
    assert np.all(psi.values == 0)


def test_from_momentum_sinc_reconstructs_square(params):
    # Gibbs ringing decays like 1/(p_max * distance-to-jump); p_max ~ 3200
    # keeps points at least a/4 away from the jumps below 1e-3
    grid = Grid.centered(4.0, 8192)
    fam = SquareFamily(params=params, a=1.0)
    phi = ComplexField(
        square_momentum(fam, grid.momentum_points(params.hbar)),
        grid,
        Representation.MOMENTUM,
        hbar=params.hbar,
    )
    psi = from_momentum(phi, params)
    expected = square_initial(fam, grid.points)
    interior = np.abs(np.abs(grid.points) - fam.a / 2) > fam.a / 4
    assert np.max(np.abs(psi.values - expected)[interior]) < 1e-3


def test_from_momentum_rejects_position_input(grid, params):
    with pytest.raises(ValueError):
        from_momentum(unit_gaussian(grid), params)


def test_from_momentum_rejects_hbar_mismatch(grid, params):
    phi = to_momentum(unit_gaussian(grid), params)
    with pytest.raises(ValueError):
        from_momentum(phi, PhysicsParams(hbar=2.0, mass=1.0))


def test_parseval_across_families(grid, params, gauss_fam):
    fields = [
        unit_gaussian(grid).values,
        gaussian_chi(gauss_fam, grid.points, 0.7),
        hermite_gauss(gauss_fam, 3, grid.points, 0.3),
        derivative_packet(gauss_fam, 2, grid.points, 1.1),
        galilean_boost(lambda x, t: gaussian_chi(gauss_fam, x, t), 3.0, 0.0, params)(
            grid.points, 0.0
        ),
    ]
    for values in fields:
        f = ComplexField(values, grid)
        assert quadrature_norm2(to_momentum(f, params)) == pytest.approx(
            quadrature_norm2(f), rel=1e-12
        )


# ---------------------------------------------------- spectral derivative


def test_spectral_derivative_zero_field(grid):
    f = ComplexField(np.zeros(grid.n, dtype=complex), grid)
    assert np.all(spectral_derivative(f, 1).values == 0)


def test_spectral_derivative_gaussian(grid):
    x = grid.points
    f = ComplexField(np.exp(-(x**2) / 2) / np.pi**0.25, grid)
    deriv = spectral_derivative(f, 1)
    expected = -x * f.values
    interior = np.abs(x) < 20
    assert np.max(np.abs(deriv.values - expected)[interior]) < 1e-8


def test_spectral_derivative_order_zero_copies(grid):
    f = ComplexField(np.exp(-grid.points**2), grid)
    out = spectral_derivative(f, 0)
    np.testing.assert_array_equal(out.values, f.values)


def test_second_derivative_of_chi_is_derivative_packet(grid, gauss_fam):
    # oracle: the closed-form normalized second-derivative packet; the
    # spectral derivative reproduces it up to one overall constant
    f = ComplexField(gaussian_chi(gauss_fam, grid.points, 0.0), grid)
    second = spectral_derivative(f, 2).values
    closed = derivative_packet(gauss_fam, 2, grid.points, 0.0)
    inner = np.trapezoid(np.conj(closed) * second, dx=grid.step)
    n_second = np.trapezoid(np.abs(second) ** 2, dx=grid.step)
    n_closed = np.trapezoid(np.abs(closed) ** 2, dx=grid.step)
    cosine = np.abs(inner) / np.sqrt(n_second * n_closed)
    assert cosine > 1 - 1e-12
    # the constant is ||d^2 chi/dx^2|| = sqrt(3)/2 for hbar = m = tau = 1
    assert np.sqrt(n_second) == pytest.approx(np.sqrt(3) / 2, rel=1e-10)


SANDWICH_GRIDS = {
    "centered": Grid.centered(6.4, 256),
    "offset": Grid.centered_offset(6.4, 256),
    "arbitrary": Grid(x0=0.37, step=0.05, n=256),
}


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("g", SANDWICH_GRIDS.values(), ids=SANDWICH_GRIDS.keys())
def test_spectral_derivative_matches_transform_sandwich(g, order):
    # (i p / hbar)^order between the public transforms, with hbar != 1 to
    # show the derivative does not depend on it
    params = PhysicsParams(hbar=0.7, mass=1.3)
    x = g.points
    center = g.x0 + g.n * g.step / 2
    f = ComplexField(np.exp(-((x - center) ** 2) / 2 + 2.1j * x) / np.pi**0.25, g)
    k = g.momentum_points(params.hbar) / params.hbar
    phi = to_momentum(f, params)
    moved = ComplexField((1j * k) ** order * phi.values, g, Representation.MOMENTUM, hbar=params.hbar)
    expected = from_momentum(moved, params).values
    out = spectral_derivative(f, order).values
    assert np.max(np.abs(out - expected)) / np.max(np.abs(expected)) < 1e-13


# ---------------------------------------------------------------- norm^2


def test_norm2_zero(grid):
    f = ComplexField(np.zeros(grid.n, dtype=complex), grid)
    assert quadrature_norm2(f) == 0.0


def test_norm2_unit_gaussian():
    g = Grid.centered(12.0, 1024)
    assert quadrature_norm2(unit_gaussian(g)) == pytest.approx(1.0, abs=1e-12)


def test_norm2_square_aligned_grid(params):
    # jumps on samples valued 0: the trapezoid loses exactly one step/a
    fam = SquareFamily(params=params, a=1.0)
    g = Grid.centered(8.0, 1024)
    f = ComplexField(square_initial(fam, g.points), g)
    norm2 = quadrature_norm2(f)
    assert abs(norm2 - 1.0) <= g.step / fam.a + 1e-12
    assert norm2 == pytest.approx(1.0 - g.step / fam.a, rel=1e-12)


def test_norm2_square_straddled_grid(params):
    fam = SquareFamily(params=params, a=1.0)
    g = Grid.centered_offset(8.0, 1024)
    f = ComplexField(square_initial(fam, g.points), g)
    assert quadrature_norm2(f) == pytest.approx(1.0, rel=1e-12)


# ------------------------------------------------------------- grid/field


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        Grid(x0=0.0, step=0.1, n=1000)
    with pytest.raises(ValueError):
        Grid(x0=0.0, step=0.1, n=4)
    with pytest.raises(ValueError):
        Grid(x0=0.0, step=-0.1, n=16)


@pytest.mark.parametrize(
    "hbar, mass", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, -math.inf)]
)
def test_params_reject_nonfinite(hbar, mass):
    with pytest.raises(ValueError, match="finite"):
        PhysicsParams(hbar=hbar, mass=mass)


@pytest.mark.parametrize(
    "x0, step", [(math.nan, 0.1), (-math.inf, 0.1), (0.0, math.inf), (0.0, math.nan)]
)
def test_grid_rejects_nonfinite(x0, step):
    with pytest.raises(ValueError):
        Grid(x0=x0, step=step, n=8)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf), complex(math.nan, 1.0)])
def test_field_rejects_nonfinite_values(grid, bad):
    values = np.zeros(grid.n, dtype=complex)
    values[3] = bad
    with pytest.raises(ValueError, match="finite"):
        ComplexField(values, grid)
    with pytest.raises(ValueError, match="finite"):
        ComplexField(np.full(grid.n, bad), grid, Representation.MOMENTUM, hbar=1.0)


def test_momentum_lattice_is_centered():
    g = Grid.centered(10.0, 16)
    p = g.momentum_points(2.0)
    step = 2 * np.pi * 2.0 / (16 * g.step)
    np.testing.assert_allclose(p, step * (np.arange(16) - 8))


def test_field_length_mismatch(grid):
    with pytest.raises(ValueError):
        ComplexField(np.zeros(7), grid)


def test_momentum_field_needs_hbar(grid):
    with pytest.raises(ValueError, match="need hbar"):
        ComplexField(np.zeros(grid.n), grid, Representation.MOMENTUM)


def test_position_field_lattice_is_the_grid_points(grid):
    f = ComplexField(np.zeros(grid.n), grid)
    assert f.lattice.tobytes() == grid.points.tobytes()


@pytest.mark.parametrize("order", [-1, 1.5])
def test_spectral_derivative_rejects_a_bad_order(grid, order):
    with pytest.raises(ValueError, match="nonnegative integer"):
        spectral_derivative(unit_gaussian(grid), order)
