import math
from collections import Counter

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import freepacket.numerics
import freepacket.observables
from freepacket import (
    ComplexField,
    GaussianFamily,
    Grid,
    PacketMoments,
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
    sample,
    short_time_approx,
    short_time_error_bound,
    spread_law_from_state,
    spread_prediction,
    square_exact,
    square_initial,
    square_momentum,
    timescale_tx_initial,
    timescales,
    to_momentum,
)
from freepacket.observables import _P_DIVERGENCE_TOL, _REAL_INSTANT_TOL

from conftest import SCALE_CASES


# ---------------------------------------------------------------- moments


def test_chi_is_minimum_uncertainty(gauss_fam, grid, params):
    m = moments(sample(lambda x, t: gaussian_chi(gauss_fam, x, t), grid, 0.0), params)
    assert m.mean_x == pytest.approx(0.0, abs=1e-12)
    assert m.mean_p == pytest.approx(0.0, abs=1e-12)
    assert m.mean_r == pytest.approx(0.0, abs=1e-12)
    assert m.delta_x * m.delta_p == pytest.approx(params.hbar / 2, rel=1e-10)


def test_chibar2_moments(gauss_fam, grid, params):
    m = moments(sample(lambda x, t: derivative_packet(gauss_fam, 2, x, t), grid, 0.0), params)
    assert m.delta_x**2 == pytest.approx(7 / 6, rel=1e-9)
    assert m.delta_p**2 == pytest.approx(5 / 2, rel=1e-9)


def test_real_packet_has_zero_mean_p_and_r(gauss_fam, grid, params):
    x = grid.points
    values = (2 / math.pi) ** 0.25 * np.exp(-(x**2)) * (1 + 0.3 * np.cos(x))
    f = ComplexField(values / math.sqrt(np.trapezoid(np.abs(values) ** 2, dx=grid.step)), grid)
    m = moments(f, params)
    assert m.mean_p == pytest.approx(0.0, abs=1e-9)
    assert m.mean_r == pytest.approx(0.0, abs=1e-9)


def test_moments_reject_unnormalized(grid, params):
    f = ComplexField(np.exp(-grid.points**2), grid)
    with pytest.raises(ValueError):
        moments(f, params)


def test_square_packet_divergent_momentum_detected(params):
    fam = SquareFamily(params=params, a=1.0)
    g = Grid.centered_offset(8.0, 4096)
    m = moments(ComplexField(square_initial(fam, g.points), g), params)
    assert m.delta_p == math.inf
    # at the discontinuity instant Dx exists and <R> = 0
    assert m.delta_x**2 == pytest.approx(1 / 12, rel=1e-4)
    assert m.mean_r == pytest.approx(0.0, abs=1e-9)


def test_square_packet_after_evolution_has_no_spread(params):
    fam = SquareFamily(params=params, a=1.0)
    g = Grid.centered_offset(64.0, 8192)
    f0 = ComplexField(square_initial(fam, g.points), g)
    evolved = propagate_spectral(f0, 0.1, params).field
    m = moments(evolved, params)
    assert m.delta_p == math.inf
    assert math.isnan(m.delta_x)
    assert math.isnan(m.mean_r)


def test_heisenberg_inequality_across_families(gauss_fam, grid, params):
    fields = [
        sample(lambda x, t: gaussian_chi(gauss_fam, x, t), grid, 0.4),
        sample(lambda x, t: hermite_gauss(gauss_fam, 3, x, t), grid, 1.0),
        sample(lambda x, t: derivative_packet(gauss_fam, 1, x, t), grid, 0.0),
        sample(
            galilean_boost(lambda x, t: gaussian_chi(gauss_fam, x, t), 2.0, 0.0, params),
            grid,
            0.0,
        ),
    ]
    for f in fields:
        m = moments(f, params)
        assert m.delta_x * m.delta_p >= params.hbar / 2 * (1 - 1e-9)


# ------------------------------- one bare spectrum vs the public transforms
#
# moments reads every momentum quantity off one bare FFT of psi.  The
# reference below takes them the long way, as the definitions read: |phi|^2
# from to_momentum, and P psi through to_momentum -> times p -> from_momentum.

REF_PARAMS = PhysicsParams(hbar=0.7, mass=1.3)
REF_GRIDS = {
    "centered": Grid.centered(6.4, 256),
    "offset": Grid.centered_offset(6.4, 256),
    "arbitrary": Grid(x0=0.37, step=0.05, n=256),
    "n65536": Grid.centered(64.0, 65536),
}


def _trapz(values, step):
    return (values.sum() - 0.5 * (values[0] + values[-1])) * step


def reference_moments(f, params):
    g, psi = f.grid, f.values
    x = g.points
    density_x = np.abs(psi) ** 2
    mean_x = _trapz(x * density_x, g.step)
    var_x = _trapz((x - mean_x) ** 2 * density_x, g.step)

    phi = to_momentum(f, params)
    p, dp = phi.lattice, phi.lattice_step
    density_p = np.abs(phi.values) ** 2
    mean_p = np.sum((p * density_p)[1:]) * dp  # Nyquist bin dropped
    var_p = _trapz((p - mean_p) ** 2 * density_p, dp)
    inner = np.abs(p - 0.5 * (p[0] + p[-1])) <= (p[-1] - p[0]) / 4
    restricted = np.sum((p[inner] - mean_p) ** 2 * density_p[inner]) * dp
    p_diverges = var_p > 0 and abs(var_p - restricted) / var_p > _P_DIVERGENCE_TOL
    coherence = abs(np.sum(psi**2)) / np.sum(density_x)
    x_diverges = p_diverges and 1 - coherence > _REAL_INSTANT_TOL

    moved = ComplexField(p * phi.values, g, Representation.MOMENTUM, hbar=params.hbar)
    p_psi = from_momentum(moved, params).values
    mean_r = _trapz((np.conj(psi) * (x - mean_x) * (p_psi - mean_p * psi)).real, g.step)
    return PacketMoments(
        mean_x=float(mean_x),
        mean_p=float(mean_p),
        delta_x=math.nan if x_diverges else math.sqrt(var_x),
        delta_p=math.inf if p_diverges else math.sqrt(var_p),
        mean_r=math.nan if x_diverges else float(mean_r),
    )


def _normalized(values, g):
    return ComplexField(values / math.sqrt(_trapz(np.abs(values) ** 2, g.step)), g)


def ref_packet(kind, g):
    """A packet centred on g and decayed at its edges."""
    fam = GaussianFamily(params=REF_PARAMS, tau=0.5)
    center = g.x0 + g.n * g.step / 2
    if kind == "boosted-derivative":
        resting = lambda x, t: derivative_packet(fam, 2, x - center, t)  # noqa: E731
        return sample(galilean_boost(resting, 1.5, 0.0, REF_PARAMS), g, 0.3)
    if kind == "hermite-gauss":
        return sample(lambda x, t: hermite_gauss(fam, 3, x - center, t), g, 0.4)
    square = _normalized(square_initial(SquareFamily(params=REF_PARAMS, a=1.0), g.points - center), g)
    if kind == "square-t0":
        return square
    return _normalized(propagate_spectral(square, 0.1, REF_PARAMS).field.values, g)


REF_KINDS = ("boosted-derivative", "hermite-gauss", "square-t0", "square-evolved")


@pytest.mark.parametrize("kind", REF_KINDS)
@pytest.mark.parametrize("g", REF_GRIDS.values(), ids=REF_GRIDS.keys())
def test_moments_match_public_transform_reference(g, kind):
    f = ref_packet(kind, g)
    got, expected = moments(f, REF_PARAMS), reference_moments(f, REF_PARAMS)
    # the spreads set the size below which a zero-valued moment is rounding
    # noise (the square's Dp is infinite, so its momentum scale is hbar / Dx)
    x_scale = expected.delta_x if math.isfinite(expected.delta_x) else 1.0
    p_scale = expected.delta_p if math.isfinite(expected.delta_p) else REF_PARAMS.hbar / x_scale
    scales = {
        "mean_x": x_scale,
        "mean_p": p_scale,
        "delta_x": x_scale,
        "delta_p": p_scale,
        "mean_r": x_scale * p_scale,
    }
    for name, scale in scales.items():
        a, b = getattr(got, name), getattr(expected, name)
        if not math.isfinite(b):
            assert a == b or (math.isnan(a) and math.isnan(b)), name
        else:
            assert abs(a - b) <= 1e-13 * max(abs(b), scale), (name, a, b)
    if kind == "square-t0":
        assert got.delta_p == math.inf and math.isfinite(got.delta_x)
    if kind == "square-evolved":
        assert got.delta_p == math.inf and math.isnan(got.delta_x) and math.isnan(got.mean_r)


def _count_transforms(monkeypatch):
    """Count calls into every transform of numpy.fft and scipy.fft, by name."""
    calls = Counter()
    helpers = {"fftshift", "ifftshift", "fftfreq", "rfftfreq"}
    for module in (np.fft, scipy.fft):
        for name in module.__all__:
            fn = getattr(module, name)
            if callable(fn) and name not in helpers and not name.startswith(("set_", "get_")):

                def counted(*args, _fn=fn, _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)

    def refuse(*args, **kwargs):
        raise AssertionError("moments called to_momentum")

    monkeypatch.setattr(freepacket.numerics, "to_momentum", refuse)
    monkeypatch.setattr(freepacket.observables, "to_momentum", refuse, raising=False)
    return calls


def test_moments_take_one_forward_and_one_inverse_transform(monkeypatch):
    smooth = ref_packet("boosted-derivative", REF_GRIDS["arbitrary"])
    divergent = ref_packet("square-evolved", REF_GRIDS["offset"])
    calls = _count_transforms(monkeypatch)
    moments(smooth, REF_PARAMS)
    assert calls == Counter(fft=1, ifft=1)
    calls.clear()
    assert math.isnan(moments(divergent, REF_PARAMS).delta_x)
    assert calls == Counter(fft=1)


@pytest.mark.parametrize("hbar", [1.0, 0.7, 1e-3, 37.0])
def test_inner_half_slice_is_the_centred_half_span_mask(hbar):
    # the divergence check restricts the p^2 moment to [n/4, n - n/4)
    for n in 2 ** np.arange(3, 21):
        for g in (Grid.centered(64.0, n), Grid.centered_offset(6.4, n), Grid(x0=0.37, step=0.05, n=n)):
            p = g.momentum_points(hbar)
            mask = np.abs(p - 0.5 * (p[0] + p[-1])) <= (p[-1] - p[0]) / 4
            np.testing.assert_array_equal(np.flatnonzero(mask), np.arange(n // 4, n - n // 4))
        # moments works in FFT order: indices [0, n/4) and [3n/4, n) of the
        # integer lattice are the lattice points of that centred slice
        k = np.fft.fftfreq(n, 1 / n)
        inner = np.concatenate([k[: n // 4], k[n - n // 4 :]])
        np.testing.assert_array_equal(np.sort(inner), np.arange(n // 4, n - n // 4) - n // 2)
        np.testing.assert_array_equal(k, np.fft.ifftshift(np.arange(n) - n // 2))


# ------------------------------------------------------------- spread law


def test_real_packet_is_at_minimum_spread(gauss_fam, grid, params):
    m = moments(sample(lambda x, t: derivative_packet(gauss_fam, 2, x, t), grid, 0.0), params)
    law = spread_law_from_state(m, params, 0.0)
    assert law.t_min == pytest.approx(0.0, abs=1e-10)
    assert law.delta_min == pytest.approx(m.delta_x, rel=1e-12)


def test_chi_waist_recovered_from_later_snapshot(gauss_fam, wide_grid, params):
    f = sample(lambda x, t: gaussian_chi(gauss_fam, x, t), wide_grid, 2.0)
    m = moments(f, params)
    law = spread_law_from_state(m, params, 2.0)
    assert law.t_min == pytest.approx(0.0, abs=1e-9)
    assert law.delta_min == pytest.approx(gauss_fam.gamma(0.0) / math.sqrt(2), rel=1e-9)


def test_positive_correlation_means_expanding(params):
    m = PacketMoments(mean_x=0.0, mean_p=0.0, delta_x=2.0, delta_p=1.0, mean_r=0.5)
    law = spread_law_from_state(m, params, 1.0)
    assert law.t_min < 1.0


def test_spread_law_rejects_a_correlation_beyond_the_spreads(params):
    # |<R>| <= Dx Dp for every state (Robertson-Schrodinger)
    m = PacketMoments(mean_x=0.0, mean_p=0.0, delta_x=1.0, delta_p=2.0, mean_r=2.5)
    with pytest.raises(ValueError, match="inconsistent moments"):
        spread_law_from_state(m, params, 0.0)


def test_spread_law_rejects_divergent_moments(params):
    m = PacketMoments(mean_x=0.0, mean_p=0.0, delta_x=1.0, delta_p=math.inf, mean_r=0.0)
    with pytest.raises(ValueError):
        spread_law_from_state(m, params, 0.0)


def test_prediction_at_t_min(params):
    from freepacket import SpreadLaw

    law = SpreadLaw(delta_min=1.3, t_min=0.7, delta_p=2.0)
    assert spread_prediction(law, params, 0.7) == 1.3


def test_prediction_direct_substitution(params):
    from freepacket import SpreadLaw

    law = SpreadLaw(delta_min=1.0, t_min=0.0, delta_p=0.5)
    assert spread_prediction(law, params, 4.0) == pytest.approx(math.sqrt(5), rel=1e-14)


@given(
    dmin=st.floats(0.1, 10),
    dp=st.floats(0.1, 10),
    t_min=st.floats(-5, 5),
    t=st.floats(-5, 5),
)
@settings(max_examples=50)
def test_prediction_never_below_minimum(params, dmin, dp, t_min, t):
    from freepacket import SpreadLaw

    law = SpreadLaw(delta_min=dmin, t_min=t_min, delta_p=dp)
    assert spread_prediction(law, params, t) >= dmin


def test_spread_law_predicts_measured_evolution(gauss_fam, wide_grid, params):
    f0 = sample(lambda x, t: derivative_packet(gauss_fam, 2, x, t), wide_grid, 0.0)
    law = spread_law_from_state(moments(f0, params), params, 0.0)
    for t in (-2.0, -1.0, 0.5, 1.0, 3.0):
        measured = moments(propagate_spectral(f0, t, params).field, params).delta_x
        assert measured == pytest.approx(spread_prediction(law, params, t), rel=1e-6)


def test_mean_r_grows_linearly(gauss_fam, wide_grid, params):
    # m <R>(t) - m <R>(0) = Dp^2 t
    f0 = sample(lambda x, t: derivative_packet(gauss_fam, 2, x, t), wide_grid, 0.0)
    m0 = moments(f0, params)
    for t in (0.5, 1.0, 2.5):
        mt = moments(propagate_spectral(f0, t, params).field, params)
        lhs = params.mass * (mt.mean_r - m0.mean_r)
        assert lhs == pytest.approx(m0.delta_p**2 * t, rel=1e-8)


# ------------------------------------------------------------- timescales


def test_chibar2_timescales(gauss_fam, grid, params):
    m = moments(sample(lambda x, t: derivative_packet(gauss_fam, 2, x, t), grid, 0.0), params)
    ts = timescales(m, params)
    assert ts.t_p == pytest.approx(gauss_fam.tau / 5, rel=1e-9)
    # measured at the waist, so the Dmin-based t_x equals the initial-spread one
    assert ts.t_x == pytest.approx(7 * gauss_fam.tau / 3, rel=1e-9)
    assert timescale_tx_initial(m, params) == pytest.approx(7 * gauss_fam.tau / 3, rel=1e-9)


def test_square_timescales(params):
    fam = SquareFamily(params=params, a=1.0)
    g = Grid.centered_offset(8.0, 4096)
    m = moments(ComplexField(square_initial(fam, g.points), g), params)
    ts = timescales(m, params)
    assert ts.t_p == 0.0
    assert ts.t_h == 0.0
    assert ts.t_x == pytest.approx(params.mass * fam.a**2 / (6 * params.hbar), rel=1e-4)


def test_gaussian_timescales_all_equal(gauss_fam, grid, params):
    m = moments(sample(lambda x, t: gaussian_chi(gauss_fam, x, t), grid, 0.0), params)
    ts = timescales(m, params)
    assert ts.t_p == pytest.approx(gauss_fam.tau, rel=1e-10)
    assert ts.t_x == pytest.approx(gauss_fam.tau, rel=1e-10)
    assert ts.t_h == pytest.approx(gauss_fam.tau, rel=1e-10)


def test_timescale_ordering(gauss_fam, grid, params):
    fields = [
        sample(lambda x, t: gaussian_chi(gauss_fam, x, t), grid, 0.0),
        sample(lambda x, t: hermite_gauss(gauss_fam, 2, x, t), grid, 0.5),
        sample(lambda x, t: derivative_packet(gauss_fam, 2, x, t), grid, 0.0),
        sample(lambda x, t: derivative_packet(gauss_fam, 3, x, t), grid, 1.0),
    ]
    for f in fields:
        ts = timescales(moments(f, params), params)
        assert ts.t_p <= ts.t_h * (1 + 1e-12)
        assert ts.t_h <= ts.t_x * (1 + 1e-12)
        assert ts.t_h == pytest.approx(math.sqrt(ts.t_x * ts.t_p), rel=1e-12)


def test_tx_conventions_differ_away_from_waist(gauss_fam, wide_grid, params):
    # snapshot at t = 2 tau: Dmin-based t_x stays at the waist value while
    # the initial-spread variant has grown with the packet
    f = sample(lambda x, t: gaussian_chi(gauss_fam, x, t), wide_grid, 2.0)
    m = moments(f, params)
    ts = timescales(m, params)
    assert ts.t_x == pytest.approx(gauss_fam.tau, rel=1e-8)
    assert timescale_tx_initial(m, params) == pytest.approx(5 * gauss_fam.tau, rel=1e-8)


# ------------------------------------------------------- scale covariance
#
# In the units gamma0 = sqrt(hbar tau / m) of length, hbar / gamma0 of
# momentum and tau of time, every measured and predicted number is the same
# for all m and hbar (SCALE_CASES).  The spread-law run measures <R> at
# t = 2 tau, where it is 5 hbar: an action, which leaves the double range at
# hbar = 1e308, so that run stops at hbar = 1e300.
SPREAD_LAW_CASES = {name: p for name, p in SCALE_CASES.items() if p.hbar <= 1e300}


def _scaled_packet(params):
    """gamma0 and the n = 2 derivative packet at t = 0 (tau = 1) on 4096
    points across 64 gamma0 either side."""
    gamma0 = math.sqrt(params.hbar) / math.sqrt(params.mass)
    fam = GaussianFamily(params=params, tau=1.0)
    g = Grid.centered(64 * gamma0, 4096)
    return gamma0, sample(lambda x, t: derivative_packet(fam, 2, x, t), g, 0.0)


def _scale_free_run(params):
    """The n = 2 derivative packet's numbers in gamma0, hbar / gamma0 and tau."""
    gamma0, psi0 = _scaled_packet(params)
    g = psi0.grid
    unit_p = params.hbar / gamma0
    m0 = moments(psi0, params)
    law = spread_law_from_state(m0, params, 0.0)
    ts = timescales(m0, params)
    out = {
        "delta_x": m0.delta_x / gamma0,
        "delta_p": m0.delta_p / unit_p,
        "delta_min": law.delta_min / gamma0,
        "t_p": ts.t_p,
        "t_x": ts.t_x,
        "t_h": ts.t_h,
    }
    gaps = []
    for t in (0.5, 2.0):
        mt = moments(propagate_spectral(psi0, t, params).field, params)
        predicted = spread_prediction(law, params, t)
        gaps.append(abs(mt.delta_x - predicted) / predicted)
        out[f"delta_x({t})"] = mt.delta_x / gamma0
        out[f"delta_p({t})"] = mt.delta_p / unit_p
        out[f"mean_r({t})"] = mt.mean_r / params.hbar
    # short-time translation of the packet boosted to <p> = 1.5 hbar / gamma0
    moving = ComplexField(np.exp(1.5j * (g.points / gamma0)) * psi0.values, g)
    mm = moments(moving, params)
    exact = propagate_spectral(moving, 0.01, params).field.values
    translated = short_time_approx(moving, 0.01, params, pbar=mm.mean_p).field.values
    out["mean_p"] = mm.mean_p / unit_p
    out["short_sup"] = float(np.max(np.abs(exact - translated) ** 2)) * gamma0
    return out, gaps


@pytest.mark.parametrize("params", SPREAD_LAW_CASES.values(), ids=SPREAD_LAW_CASES.keys())
def test_spread_law_path_is_scale_covariant(params):
    expected, _ = _scale_free_run(PhysicsParams())
    with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
        got, gaps = _scale_free_run(params)
    assert max(gaps) <= 1e-6
    for name, value in expected.items():
        # the short-time remainder is a difference of two close fields, so
        # its rounding is amplified
        rel = 1e-10 if name == "short_sup" else 1e-12
        assert got[name] == pytest.approx(value, rel=rel, abs=0), name


def _moments_in_units(params, t):
    """Dx, Dp and <R> of the evolved packet in gamma0, hbar / gamma0 and hbar."""
    gamma0, psi0 = _scaled_packet(params)
    m = moments(propagate_spectral(psi0, t, params).field, params)
    return [m.delta_x / gamma0, m.delta_p / (params.hbar / gamma0), m.mean_r / params.hbar]


def test_moments_at_the_largest_hbar():
    params = PhysicsParams(hbar=1e308)
    expected = _moments_in_units(PhysicsParams(), 0.5)
    with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
        got = _moments_in_units(params, 0.5)
        # <R> = 5 hbar at t = 2 tau lies past the largest double
        with pytest.raises(ValueError, match="<R>"):
            _moments_in_units(params, 2.0)
    assert got == pytest.approx(expected, rel=1e-12, abs=0)


TAU = 0.7
U = np.linspace(-12.0, 12.0, 97)

# each public closed form at x = gamma0 u, the Gaussian ones at t = 2 tau and
# the square of width a = gamma0 (time unit m a^2 / hbar = tau) at t = 0.05 tau
CLOSED_FORMS = {
    "gaussian_chi": lambda fam, square, x: gaussian_chi(fam, x, 2 * TAU),
    "hermite_gauss": lambda fam, square, x: hermite_gauss(fam, 5, x, 2 * TAU),
    "derivative_packet": lambda fam, square, x: derivative_packet(fam, 3, x, 2 * TAU),
    "derivative_packet_asymptote": lambda fam, square, x: derivative_packet_asymptote(fam, x, 2 * TAU),
    "square_exact": lambda fam, square, x: square_exact(square, x, 0.05 * TAU),
    # at p = (hbar / gamma0) (x / gamma0), times sqrt(hbar) / gamma0
    "square_momentum": lambda fam, square, x: (
        math.sqrt(fam.params.hbar)
        / square.a
        * square_momentum(square, fam.params.hbar / square.a * (x / square.a))
    ),
}


def _scale_free_form(form, params):
    fam = GaussianFamily(params=params, tau=TAU)
    gamma0 = fam.gamma(0.0)
    return math.sqrt(gamma0) * form(fam, SquareFamily(params=params, a=gamma0), gamma0 * U)


@pytest.mark.parametrize("form", CLOSED_FORMS.values(), ids=CLOSED_FORMS.keys())
@pytest.mark.parametrize("params", SCALE_CASES.values(), ids=SCALE_CASES.keys())
def test_closed_forms_are_scale_covariant(params, form):
    expected = _scale_free_form(form, PhysicsParams())
    with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
        got = _scale_free_form(form, params)
    assert np.max(np.abs(got - expected)) <= 1e-9 * np.max(np.abs(expected))


def _scale_free_oracle(params):
    """The n = 2 derivative packet moved by quadrature, spectral and asymptotic
    evolution, in gamma0 and tau, with both error bounds."""
    fam = GaussianFamily(params=params, tau=TAU)
    gamma0 = fam.gamma(0.0)
    g = Grid.centered(32 * gamma0, 1024)
    psi0 = sample(lambda x, t: derivative_packet(fam, 2, x, t), g, 0.0)
    m0 = moments(psi0, params)
    t = 2 * TAU
    root = math.sqrt(gamma0)
    fields = {
        "quadrature": root * propagate_quadrature(psi0, t, params).field.values,
        "spectral": root * propagate_spectral(psi0, t, params).field.values,
        "asymptotic": root
        * asymptotic_form(to_momentum(psi0, params), m0.mean_x, t, params).field.values,
    }
    bounds = {
        "short_time": gamma0 * short_time_error_bound(m0.delta_p, t, params),
        "asymptotic": gamma0 * asymptotic_error_bound(m0.delta_x, t, params),
    }
    return fields, bounds


@pytest.mark.parametrize("params", SCALE_CASES.values(), ids=SCALE_CASES.keys())
def test_oracle_and_bounds_are_scale_covariant(params):
    expected_fields, expected_bounds = _scale_free_oracle(PhysicsParams())
    with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
        fields, bounds = _scale_free_oracle(params)
    quadrature_gap = np.max(np.abs(fields["quadrature"] - fields["spectral"]))
    assert quadrature_gap <= 1e-8 * np.max(np.abs(fields["spectral"]))
    for name, values in expected_fields.items():
        assert np.max(np.abs(fields[name] - values)) <= 1e-9 * np.max(np.abs(values)), name
    for name, value in expected_bounds.items():
        assert bounds[name] == pytest.approx(value, rel=1e-12, abs=0), name
