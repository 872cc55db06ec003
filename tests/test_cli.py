import csv
import math
import re
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import freepacket._csvtext
import freepacket.cli
from freepacket import (
    GaussianFamily,
    Grid,
    PhysicsParams,
    SquareFamily,
    asymptotic_error_bound,
    derivative_packet,
    hermite_gauss,
    moments,
    sample,
)
from freepacket.cli import (
    _KNOWN_KEYS,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_STRICT,
    FAMILIES,
    SCENARIOS,
    ConfigError,
    ScenarioConfig,
    _grid_warnings,
    _packet,
    _write_csv,
    _write_svg,
    main,
    parse_config,
    run_scenario,
)


def _warnings_of(cfg):
    """The grid warnings of a run of cfg, on the packet and grid it builds."""
    return _grid_warnings(cfg, *_packet(cfg))


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def column(rows, name):
    return np.array([float(r[name]) for r in rows])


# ------------------------------------------------------------------ parse


def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg.scenario == "custom"
    assert cfg.hbar == 1.0 and cfg.mass == 1.0
    assert cfg.family == "gaussian"
    assert cfg.tau == 1.0 and cfg.a == 1.0
    assert cfg.grid_n == 4096 and cfg.half_width == 64.0
    assert cfg.times == (0.0, 0.5, 1.0)
    assert cfg.formats == ("csv",)
    assert cfg.out_dir == "out" and cfg.strict is False


def test_fig4_preset():
    cfg = parse_config("scenario = fig4")
    assert cfg.family == "square"
    assert cfg.times == (0.1, 0.2, 0.5)


def test_square_times_scale_with_m_a_squared():
    cfg = parse_config("scenario = fig4\nfamily.a = 2\nphysics.mass = 3")
    unit = 3 * 2**2 / 1.0
    assert cfg.times == tuple(v * unit for v in (0.1, 0.2, 0.5))


def _ulps(value, exact):
    return abs(Fraction(value) - exact) / Fraction(math.ulp(value))


def test_square_time_unit_does_not_square_a():
    # a^2 = 1e-320 is subnormal, but m a^2 / hbar = 1
    m, a, hbar = 1e300, 1e-160, 1e-20
    cfg = parse_config(f"scenario = fig3\nphysics.mass = {m}\nfamily.a = {a}\nphysics.hbar = {hbar}")
    unit = Fraction(m) * Fraction(a) ** 2 / Fraction(hbar)
    for t, natural in zip(cfg.times[1:], (0.001, 0.01, 0.1)):
        assert _ulps(t, Fraction(natural) * unit) <= 4, t


def test_square_time_unit_past_m_a_squared_overflow():
    # m a^2 = 1e310 overflows, but m a^2 / hbar = 1e300 is a double
    cfg = parse_config("scenario = fig3\nphysics.mass = 1e308\nfamily.a = 10\nphysics.hbar = 1e10")
    unit = Fraction(10) ** 300
    for t, natural in zip(cfg.times[1:], (0.001, 0.01, 0.1)):
        assert _ulps(t, Fraction(natural) * unit) <= 4, t


def test_grid_n_must_be_power_of_two():
    with pytest.raises(ConfigError, match="power of two"):
        parse_config("grid.n = 1000")
    # the package's own check, with the location of the flag
    with pytest.raises(ConfigError, match=r"^flag grid.n: must be a power of two >= 8, got 12$"):
        parse_config("", overrides={"grid.n": "12"})


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("scenario = fig1\nbogus = 3")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("family.tau = 1\nfamily.tau = 2")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\nscenario = fig1  # trailing\n")
    assert cfg.scenario == "fig1"


def test_fig_scenarios_fix_their_family():
    with pytest.raises(ConfigError, match="fixes family"):
        parse_config("scenario = fig3\nfamily = gaussian")


def test_family_order_limits():
    with pytest.raises(ConfigError, match="\\[0, 16\\]"):
        parse_config("family = derivative\nfamily.n = 17")
    cfg = parse_config("family = hermite-gauss\nfamily.n = 64")
    assert cfg.family_order == 64


@pytest.mark.parametrize("family", ["gaussian", "square"])
def test_family_order_is_rejected_where_the_family_takes_none(tmp_path, capsys, family):
    with pytest.raises(ConfigError, match=f"^line 2: family.n: family {family} takes no order"):
        parse_config(f"family = {family}\nfamily.n = 60")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"family = {family}\nfamily.n = 2\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["--config", str(cfg_path)]) == EXIT_CONFIG
    assert "family.n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_each_config_key_fills_its_own_field():
    document = {
        "scenario": "bounds",
        "physics.hbar": "0.5",
        "physics.mass": "3",
        "family": "hermite-gauss",
        "family.n": "5",
        "family.tau": "2",
        "family.a": "7",
        "grid.n": "256",
        "grid.half_width": "9",
        "times": "1, 3",
        "output.dir": "elsewhere",
        "output.formats": "svg",
        "strict": "yes",
    }
    assert set(document) == _KNOWN_KEYS
    expected = ScenarioConfig(
        scenario="bounds",
        hbar=0.5,
        mass=3.0,
        family="hermite-gauss",
        family_order=5,
        tau=2.0,
        a=7.0,
        grid_n=256,
        half_width=9.0,
        times=(2.0, 6.0),
        out_dir="elsewhere",
        formats=("svg",),
        strict=True,
    )
    assert parse_config("\n".join(f"{key} = {text}" for key, text in document.items())) == expected


def test_readme_lists_the_config_keys_in_field_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Keys and defaults:", 1)[1].split("```")[1]
    keys = [line.split("=")[0].strip() for line in block.splitlines() if "=" in line.split("#")[0]]
    assert keys == [f.metadata["config"][0] for f in fields(ScenarioConfig)]


def test_times_must_be_nonempty():
    with pytest.raises(ConfigError, match="nonempty"):
        parse_config("times = ,")


def test_times_must_be_finite_after_scaling():
    with pytest.raises(ConfigError, match="times"):
        parse_config("family.tau = 10\ntimes = 1e308")


def test_bad_number_reports_field():
    with pytest.raises(ConfigError, match="physics.hbar"):
        parse_config("physics.hbar = banana")
    with pytest.raises(ConfigError, match="positive"):
        parse_config("physics.mass = -2")


@pytest.mark.parametrize(
    "key", ["physics.hbar", "physics.mass", "family.tau", "family.a", "grid.half_width"]
)
def test_positivity_errors_carry_their_location(key):
    with pytest.raises(ConfigError, match=f"^line 2: {key}: must be positive"):
        parse_config(f"scenario = fig1\n{key} = 0")


# the config text of the edges of the doubles, and of ordinary values
EDGE_TEXTS = ["0", "-0", "5e-324", "-5e-324", "1e-300", "1e308", "inf", "-inf", "nan"]
EDGE_TEXTS += ["1", "-1", "2.5", "8", "12", "16", "17", "64", "65", "4096"]


def _as_number(text: str):
    """What a library caller passes for the text: an int where it reads as one."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _accepts(call) -> bool:
    try:
        call()
    except ValueError:  # ConfigError is one
        return False
    return True


# each config key, after the lines it needs, and the package call that takes
# its value
PACKAGE_FAMILY = GaussianFamily(PhysicsParams())
RANGE_PARITY = {
    "physics.hbar": ("physics.hbar", lambda text: PhysicsParams(hbar=float(text))),
    "physics.mass": ("physics.mass", lambda text: PhysicsParams(mass=float(text))),
    "family.tau": ("family.tau", lambda text: GaussianFamily(PhysicsParams(), tau=float(text))),
    "family.a": ("family.a", lambda text: SquareFamily(PhysicsParams(), a=float(text))),
    "grid.n": ("grid.n", lambda text: Grid(x0=-1.0, step=0.25, n=_as_number(text))),
    "grid.half_width": ("grid.half_width", lambda text: Grid.centered(float(text), 4096)),
    "family.n-hermite-gauss": (
        "family = hermite-gauss\nfamily.n",
        lambda text: hermite_gauss(PACKAGE_FAMILY, _as_number(text), 0.0, 0.0),
    ),
    "family.n-derivative": (
        "family = derivative\nfamily.n",
        lambda text: derivative_packet(PACKAGE_FAMILY, _as_number(text), 0.0, 0.0),
    ),
}


@pytest.mark.parametrize("key, package", RANGE_PARITY.values(), ids=RANGE_PARITY.keys())
def test_the_config_accepts_a_value_exactly_where_the_package_does(key, package):
    accepted = [_accepts(lambda: package(text)) for text in EDGE_TEXTS]
    assert [_accepts(lambda: parse_config(f"{key} = {text}")) for text in EDGE_TEXTS] == accepted
    assert True in accepted and False in accepted


def test_formats_validation():
    cfg = parse_config("output.formats = svg, csv")
    assert cfg.formats == ("csv", "svg")
    with pytest.raises(ConfigError, match="subset"):
        parse_config("output.formats = png")


def test_overrides_replace_file_values():
    cfg = parse_config("scenario = fig1", overrides={"scenario": "fig3", "output.dir": "d"})
    assert cfg.scenario == "fig3"
    assert cfg.family == "square"
    assert cfg.out_dir == "d"


def test_unknown_override_key_is_rejected():
    with pytest.raises(ConfigError, match="override: unknown key 'bogus'"):
        parse_config("scenario = fig1", overrides={"bogus": "3"})


def test_strict_parsing():
    assert parse_config("strict = true").strict is True
    with pytest.raises(ConfigError, match="boolean"):
        parse_config("strict = maybe")


# -------------------------------------------------------------------- run


def fig1_cfg(tmp_path, **extra):
    lines = ["scenario = fig1", f"output.dir = {tmp_path / 'fig1'}"]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    return parse_config("\n".join(lines))


def test_fig1_outputs(tmp_path):
    cfg = fig1_cfg(tmp_path)
    assert run_scenario(cfg) == EXIT_OK
    out = tmp_path / "fig1"
    slices = sorted(out.glob("fig1_t*.csv"))
    assert len(slices) == 7
    assert (out / "fig1_summary.csv").exists()

    summary = read_csv(out / "fig1_summary.csv")
    assert column(summary, "t").tolist() == [0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0]

    rows = read_csv(out / "fig1_t3.csv")
    assert len(rows) == cfg.grid_n
    density = column(rows, "density")
    # even packet: density symmetric under x -> -x (pairs j and n-j)
    paired = density[1:][::-1]
    assert np.max(np.abs(density[1:] - paired)) < 1e-12 * density.max()


def test_fig1_t0_slice_matches_initial_density(tmp_path):
    run_scenario(fig1_cfg(tmp_path))
    rows = read_csv(tmp_path / "fig1" / "fig1_t0.csv")
    assert np.max(np.abs(column(rows, "im_psi"))) < 1e-14
    x = column(rows, "x")
    density = column(rows, "density")
    # round-trip exactness of the 17-digit serialization
    assert np.trapezoid(density, x) == pytest.approx(1.0, abs=1e-9)


def test_csv_serialization_round_trips(tmp_path):
    cfg = fig1_cfg(tmp_path)
    run_scenario(cfg)
    rows = read_csv(tmp_path / "fig1" / "fig1_t0.csv")
    x = column(rows, "x")
    from freepacket import Grid

    expected = Grid.centered(cfg.half_width, cfg.grid_n).points
    assert np.array_equal(x, expected)


def test_determinism_byte_identical(tmp_path):
    for run in ("one", "two"):
        cfg = parse_config(f"scenario = fig1\noutput.dir = {tmp_path / run}")
        assert run_scenario(cfg) == EXIT_OK
    for name in sorted(p.name for p in (tmp_path / "one").iterdir()):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, f"{name} differs between runs"


def test_fig3_square_summary(tmp_path):
    cfg = parse_config(f"scenario = fig3\noutput.dir = {tmp_path}")
    assert run_scenario(cfg) == EXIT_OK
    summary = read_csv(tmp_path / "fig3_summary.csv")
    assert column(summary, "t").tolist() == [0.0, 0.001, 0.01, 0.1]
    assert all(float(r["delta_p"]) == math.inf for r in summary)
    assert float(summary[0]["delta_x"]) == pytest.approx(1 / math.sqrt(12), rel=1e-3)
    assert all(math.isnan(float(r["delta_x"])) for r in summary[1:])


@pytest.mark.parametrize("a", [0.77, 0.98, 1.63])
@pytest.mark.parametrize("grid_n", [2048, 8192])
def test_square_t0_moments_when_edges_fall_inside_cells(tmp_path, a, grid_n):
    # a/2 is no multiple of the grid step, so each edge cuts a cell
    cfg = parse_config(f"scenario = fig3\nfamily.a = {a}\ngrid.n = {grid_n}\noutput.dir = {tmp_path}")
    assert run_scenario(cfg) == EXIT_OK
    delta_x = float(read_csv(tmp_path / "fig3_summary.csv")[0]["delta_x"])
    assert math.isfinite(delta_x)
    assert delta_x == pytest.approx(a / math.sqrt(12), rel=0.02)
    rows = read_csv(tmp_path / "fig3_t0.csv")
    assert np.trapezoid(column(rows, "density"), column(rows, "x")) == pytest.approx(1.0, abs=1e-12)


def test_fig4_rescaled_columns(tmp_path):
    cfg = parse_config(f"scenario = fig4\noutput.dir = {tmp_path}")
    assert run_scenario(cfg) == EXIT_OK
    rows = read_csv(tmp_path / "fig4_t2.csv")
    t = 0.5
    np.testing.assert_allclose(column(rows, "x_over_t"), column(rows, "x") / t, rtol=1e-12)
    np.testing.assert_allclose(
        column(rows, "t_times_density"), t * column(rows, "density"), rtol=1e-12
    )


@pytest.mark.parametrize("config", ["scenario = fig4\ntimes = 0, 0.1", "scenario = fig2\ntimes = 0"])
def test_rescaled_scenarios_reject_a_zero_time(tmp_path, capsys, config):
    # x_over_t divides by t, so a zero time would write -inf/nan columns
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"{config}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["--config", str(cfg_path)]) == EXIT_CONFIG
    assert "no time may be 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", range(17))
def test_derivative_asymptotic_bound_uses_measured_initial_spread(tmp_path, n):
    cfg = parse_config(f"family = derivative\nfamily.n = {n}\ntimes = 0, 1\noutput.dir = {tmp_path}")
    assert run_scenario(cfg) == EXIT_OK
    first, second = read_csv(tmp_path / "custom_summary.csv")
    expected = asymptotic_error_bound(float(first["delta_x"]), 1.0, PhysicsParams())
    assert float(second["asymptotic_bound"]) == pytest.approx(expected, rel=1e-6)


def test_fig2_asymptotic_shape_freeze(tmp_path):
    # the two largest preset times are 6 tau and 16 tau; their rescaled
    # densities agree to 4.3% of the peak (measured; the shape still drifts
    # at order (tau/t)^2 at t = 6 tau, freezing fully only past ~7 t_x)
    cfg = parse_config(f"scenario = fig2\noutput.dir = {tmp_path}")
    assert run_scenario(cfg) == EXIT_OK
    late = read_csv(tmp_path / "fig2_t3.csv")
    earlier = read_csv(tmp_path / "fig2_t2.csv")
    u_late = column(late, "x_over_t")
    d_late = column(late, "t_times_density")
    u_earlier = column(earlier, "x_over_t")
    d_earlier = column(earlier, "t_times_density")
    window = np.abs(u_late) <= 8.0
    interp = np.interp(u_late[window], u_earlier, d_earlier)
    gap = np.max(np.abs(d_late[window] - interp)) / np.max(d_late)
    assert gap <= 0.05
    assert gap == pytest.approx(0.042, abs=0.008)


def test_spread_law_summary_gap(tmp_path):
    cfg = parse_config(f"scenario = spread-law\noutput.dir = {tmp_path}")
    assert run_scenario(cfg) == EXIT_OK
    summary = read_csv(tmp_path / "spread-law_summary.csv")
    assert len(summary) == 11
    assert np.max(column(summary, "rel_gap")) <= 1e-6


def test_svg_output(tmp_path):
    cfg = parse_config(
        f"scenario = fig4\noutput.dir = {tmp_path}\noutput.formats = csv, svg"
    )
    assert run_scenario(cfg) == EXIT_OK
    svgs = sorted(tmp_path.glob("fig4_t*.svg"))
    assert len(svgs) == 3
    assert svgs[0].read_text().startswith("<svg")


def test_custom_scenario_with_hermite_gauss(tmp_path):
    cfg = parse_config(
        "\n".join(
            [
                "scenario = custom",
                "family = hermite-gauss",
                "family.n = 1",
                "times = -0.5, 0.5",
                f"output.dir = {tmp_path}",
            ]
        )
    )
    assert run_scenario(cfg) == EXIT_OK
    assert len(sorted(tmp_path.glob("custom_t*.csv"))) == 2


def test_strict_escalates_small_domain(tmp_path, capsys):
    cfg = parse_config(
        f"scenario = fig1\ngrid.half_width = 4\nstrict = true\noutput.dir = {tmp_path / 'x'}"
    )
    assert run_scenario(cfg) == EXIT_STRICT
    assert not (tmp_path / "x").exists()
    assert "warning" in capsys.readouterr().err


def test_lenient_warns_but_runs(tmp_path, capsys):
    cfg = parse_config(f"scenario = fig1\ngrid.half_width = 8\noutput.dir = {tmp_path / 'x'}")
    assert run_scenario(cfg) == EXIT_OK
    assert "warning" in capsys.readouterr().err
    rows = read_csv(tmp_path / "x" / "fig1_summary.csv")
    for name in ("delta_x", "delta_p", "mean_x", "mean_r"):
        assert np.all(np.isfinite(column(rows, name)))


def test_lenient_run_with_unnormalized_moments_exits_two(tmp_path, capsys):
    # the warning does not excuse a failed moments check: no NaN rows, exit 2
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"scenario = fig1\ngrid.half_width = 4\noutput.dir = {tmp_path / 'x'}\n")
    assert main(["--config", str(cfg_path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "warning" in err and "normalized" in err
    assert not (tmp_path / "x" / "fig1_summary.csv").exists()


_TINY_HBAR = {
    "custom": (
        "physics.hbar = 1e-300\nfamily = derivative\nfamily.n = 6\ngrid.half_width = 1e-148",
        ("delta_x", "delta_p", "mean_x", "mean_r"),
    ),
    "bounds": (
        "scenario = bounds\nphysics.hbar = 1e-300\ngrid.half_width = 1e-147",
        ("short_time_bound", "short_sup_dpsi2", "asymptotic_bound", "asym_sup_dpsi2"),
    ),
}


@pytest.mark.parametrize("config, finite", _TINY_HBAR.values(), ids=list(_TINY_HBAR))
def test_derivative_packets_at_tiny_hbar_run(tmp_path, config, finite):
    # kappa0 is about 7e149 here, so these grids resolve the packet
    cfg = parse_config(f"{config}\noutput.dir = {tmp_path}")
    assert run_scenario(cfg) == EXIT_OK
    (summary,) = tmp_path.glob("*_summary.csv")
    rows = read_csv(summary)
    for name in finite:
        assert np.all(np.isfinite(column(rows, name))), name


# packets narrower than the default grid's step
_UNRESOLVED = {
    # Hermite-Gauss n = 64 at tau = 1e-6 has Dx0 = 0.008 against a step of 0.031
    "narrow-hermite-gauss": "family = hermite-gauss\nfamily.n = 64\nfamily.tau = 1e-6",
    # at this mass the derivative packet has Dx0 = 1.1e-154 against a step of 2
    "heavy-derivative": "scenario = spread-law\nfamily = derivative\nphysics.mass = 1e308\ngrid.n = 64",
}


@pytest.mark.parametrize("config", _UNRESOLVED.values(), ids=list(_UNRESOLVED))
def test_a_step_wider_than_the_packet_is_warned_and_strict_stops(tmp_path, capsys, config):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"{config}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["--config", str(cfg_path), "--strict"]) == EXIT_STRICT
    assert not (tmp_path / "out").exists()
    warning = capsys.readouterr().err.splitlines()[0]
    assert warning.startswith("warning: grid step") and "grid.n >= 2^" in warning
    # without --strict the run goes on and its own failure follows the warning
    assert main(["--config", str(cfg_path)]) == EXIT_RUNTIME
    assert capsys.readouterr().err.splitlines()[0] == warning


@pytest.mark.parametrize("config", _UNRESOLVED.values(), ids=list(_UNRESOLVED))
def test_the_grid_named_by_the_step_warning_clears_it(config):
    cfg = parse_config(config)
    (warning,) = _warnings_of(cfg)
    k, half_width = re.search(r"grid\.n >= 2\^(\d+) or grid\.half_width <= (\S+)$", warning).groups()
    assert not _warnings_of(replace(cfg, grid_n=2 ** int(k)))
    assert _warnings_of(replace(cfg, grid_n=2 ** (int(k) - 1)))
    assert not _warnings_of(replace(cfg, half_width=float(half_width)))


@pytest.mark.parametrize(
    "config",
    [
        *(f"scenario = {scenario}" for scenario in SCENARIOS),
        # the benchmark's figures configs at their narrowest packets and coarsest grid
        *(
            f"scenario = {scenario}\nfamily.tau = 0.5\nfamily.a = 0.5\ngrid.n = 2048"
            for scenario in ("fig1", "fig2", "fig3", "fig4", "spread-law")
        ),
        *(config for config, _ in _TINY_HBAR.values()),
    ],
)
def test_grid_checks_are_silent_where_the_grid_resolves_the_packet(config):
    assert _warnings_of(parse_config(config)) == []


# heavy packets on grids that resolve them: the momentum lattice reaches 1e100
# to 1e156, so no momentum, mass or their product may be squared on the way
_HEAVY = {
    # (p - <p>)^2 in the momentum moments overflowed
    "derivative-mass-1e308": (
        "scenario = spread-law\nfamily = derivative\nphysics.mass = 1e308\ngrid.half_width = 1e-152"
    ),
    # m^2 in the spread law overflowed
    "hermite-gauss-mass-1e200": "scenario = spread-law\nphysics.mass = 1e200\ngrid.half_width = 1e-98",
    # 1 / (2 m hbar) in the propagator rounds to 0, which would freeze the packet
    "derivative-mass-1e308-tau-100": (
        "scenario = spread-law\nfamily = derivative\nphysics.mass = 1e308\nfamily.tau = 100\n"
        "grid.n = 128\ngrid.half_width = 2e-152\ntimes = 0, 0.001, 0.002"
    ),
}


@pytest.mark.parametrize("config", _HEAVY.values(), ids=list(_HEAVY))
def test_spread_law_holds_for_heavy_packets(tmp_path, config):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"{config}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["--config", str(cfg_path), "--strict"]) == EXIT_OK
    rows = read_csv(tmp_path / "out" / "spread-law_summary.csv")
    assert np.all(column(rows, "rel_gap") <= 1e-6)


@pytest.mark.parametrize("scenario", ["fig3", "fig4"])
def test_square_figures_run_for_a_heavy_packet(tmp_path, scenario):
    # m / (pi hbar t) in the Fresnel argument scale overflowed at this mass
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"scenario = {scenario}\nphysics.mass = 1e308\nfamily.a = 1e-154\n"
        f"grid.half_width = 6.4e-153\noutput.dir = {tmp_path / 'out'}\n"
    )
    assert main(["--config", str(cfg_path), "--strict"]) == EXIT_OK


# at hbar = 1e308 gamma0 = 1e154 and the grid positions reach 6.4e155, so no
# position may be squared; <R> = Dp^2 t / m is an action, 5 hbar at t = 2 tau
_HUGE_HBAR = "physics.hbar = 1e308\ngrid.half_width = 6.4e155"


@pytest.mark.parametrize("scenario", ["bounds", "custom"])
def test_scenarios_run_at_the_largest_hbar(tmp_path, scenario):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"scenario = {scenario}\n{_HUGE_HBAR}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["--config", str(cfg_path), "--strict"]) == EXIT_OK
    rows = read_csv(tmp_path / "out" / f"{scenario}_summary.csv")
    if scenario == "bounds":
        assert np.all(column(rows, "short_sup_dpsi2") <= column(rows, "short_time_bound"))
        assert np.all(column(rows, "asym_sup_dpsi2") <= column(rows, "asymptotic_bound"))


def test_spread_law_at_the_largest_hbar_names_r_and_writes_nothing(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"scenario = spread-law\n{_HUGE_HBAR}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["--config", str(cfg_path), "--strict"]) == EXIT_RUNTIME
    assert "<R>" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bounds_at_time_zero_has_no_asymptotic_sup(tmp_path):
    # the asymptotic form needs t != 0: its sup is nan and its bound inf
    cfg = parse_config(f"scenario = bounds\ngrid.n = 1024\ntimes = 0, 1\noutput.dir = {tmp_path}")
    assert run_scenario(cfg) == EXIT_OK
    (zero, one) = read_csv(tmp_path / "bounds_summary.csv")
    assert float(zero["t"]) == 0.0 and math.isnan(float(zero["asym_sup_dpsi2"]))
    assert float(zero["asymptotic_bound"]) == math.inf
    assert math.isfinite(float(one["asym_sup_dpsi2"]))


BOUNDS_FAMILIES = ("gaussian", "hermite-gauss\nfamily.n = 10", "derivative", "square")


@pytest.mark.parametrize("family", BOUNDS_FAMILIES, ids=lambda family: family.split()[0])
def test_bounds_scenario_keeps_both_bounds_for_every_family(tmp_path, family):
    # at t <= tau the asymptotic form reaches the momentum lattice's band
    # edge inside the grid; beyond it the form is 0, so its remainder is not
    # the band's periodic images
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"scenario = bounds\nfamily = {family}\n")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_OK
    rows = [r for r in read_csv(tmp_path / "out" / "bounds_summary.csv") if float(r["t"]) > 0]
    assert rows
    for row in rows:
        assert float(row["short_sup_dpsi2"]) <= float(row["short_time_bound"]), row
        assert float(row["asym_sup_dpsi2"]) <= float(row["asymptotic_bound"]), row


def test_gaussian_family_writes_the_bytes_of_hermite_gauss_order_zero(tmp_path):
    # the gaussian is chi_0, evaluated by the same code with the same spread
    written = {}
    families = {"gaussian": "family = gaussian", "chi0": "family = hermite-gauss\nfamily.n = 0"}
    for name, family in families.items():
        out = tmp_path / name
        cfg = parse_config(f"{family}\nfamily.tau = 0.7\noutput.formats = csv, svg\noutput.dir = {out}")
        assert run_scenario(cfg) == EXIT_OK
        written[name] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert written["gaussian"] == written["chi0"]


def test_derivative_spread_survives_an_overflowing_mass_product():
    # (4n - 2) m overflows at this mass, and the spread once read 0
    cfg = parse_config("family = derivative\nphysics.mass = 1e308")
    assert _packet(cfg)[0].spread == pytest.approx(math.sqrt(7 / 6) * 1e-154, rel=1e-14)


# each family with the orders it takes on the default grid
_FAMILY_CONFIGS = [
    "family = gaussian",
    *(f"family = hermite-gauss\nfamily.n = {n}" for n in (0, 1, 5, 20, 40)),
    *(f"family = derivative\nfamily.n = {n}" for n in (0, 2, 16)),
    "family = square",
]


@pytest.mark.parametrize("config", _FAMILY_CONFIGS)
def test_packet_facts_match_the_sampled_packet(config):
    cfg = parse_config(config)
    packet, grid = _packet(cfg)
    m = moments(sample(packet.evaluate, grid, 0.0), cfg.params)
    assert packet.finite_dp == math.isfinite(m.delta_p)
    assert packet.finite_dp == (cfg.family != "square")
    if packet.finite_dp:
        assert packet.spread == pytest.approx(m.delta_x, rel=1e-12)


def test_every_closed_form_is_looked_up_when_called(tmp_path, monkeypatch):
    # a tracer counts packet evaluations by replacing these names in freepacket.packets
    calls = dict.fromkeys(["hermite_gauss", "derivative_packet", "square_exact"], 0)

    def counting(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(freepacket.packets, name, counting(name, getattr(freepacket.packets, name)))
    for family in FAMILIES:
        cfg = parse_config(f"family = {family}\ngrid.n = 1024\noutput.dir = {tmp_path / family}")
        assert run_scenario(cfg) == EXIT_OK
    assert all(calls.values()), calls


# ------------------------------------------------------------------- main


def test_main_happy_path(tmp_path):
    assert main(["--scenario", "fig4", "--out", str(tmp_path / "m")]) == EXIT_OK
    assert (tmp_path / "m" / "fig4_summary.csv").exists()


def test_main_config_file(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"scenario = fig4\noutput.dir = {tmp_path / 'cfgrun'}\n")
    assert main(["--config", str(cfg_path)]) == EXIT_OK
    assert (tmp_path / "cfgrun" / "fig4_t0.csv").exists()


def test_main_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("scenario = fig1\n")
    assert main(["--config", str(cfg_path), "--scenario", "fig4", "--out", str(tmp_path / "o")]) == EXIT_OK
    assert (tmp_path / "o" / "fig4_summary.csv").exists()


def test_main_bad_config_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("grid.n = 7\n")
    assert main(["--config", str(cfg_path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_main_missing_config_exits_one(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.cfg")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_main_unwritable_output_exits_two(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    assert main(["--scenario", "fig4", "--out", str(blocker)]) == EXIT_RUNTIME
    assert "runtime error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "times, status, message",
    [
        ("inf, 1", EXIT_CONFIG, "config error"),
        ("nan", EXIT_CONFIG, "config error"),
        ("1e308", EXIT_RUNTIME, "runtime error"),
    ],
)
def test_main_nonfinite_or_overflowing_times(tmp_path, capsys, times, status, message):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"times = {times}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["--config", str(cfg_path)]) == status
    assert message in capsys.readouterr().err


def test_main_floating_point_error_exits_two(tmp_path, capsys):
    # the Hermite-Gauss closed form overflows at this mass; the error must end
    # in exit 2 with the CLI's own messages (the grid-step warning, then the
    # runtime error), not numpy warnings on stderr
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("scenario = spread-law\nphysics.mass = 1e308\ngrid.n = 64\n")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
    warning, error = capsys.readouterr().err.splitlines()
    assert warning.startswith("warning: grid step") and error.startswith("runtime error:")


def test_main_memory_error_exits_two(tmp_path, capsys, monkeypatch):
    # a grid that fits no memory (grid.n = 2^40 is a valid power of two)
    # ends in numpy's MemoryError; it is a runtime error, not a config error
    def run_out_of_memory(cfg):
        raise MemoryError("Unable to allocate 16.0 TiB for an array")

    monkeypatch.setattr(freepacket.cli, "run_scenario", run_out_of_memory)
    assert main(["--scenario", "fig1", "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime error: Unable to allocate 16.0 TiB for an array\n"


@pytest.mark.parametrize(
    "times, message",
    [
        # theta k^2 of the spectral propagator
        ("1e308", "propagate_spectral: the phase p^2 t / 2 m hbar overflows at t = 1e+308"),
        # the asymptotic form's pre-chirp a d^2 / 2
        ("1e-306", "asymptotic_form: the phase m (x - xbar)^2 / 2 hbar t overflows at t = 1e-306"),
    ],
)
def test_main_overflowing_phase_names_it_and_writes_nothing(tmp_path, capsys, times, message):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"scenario = bounds\ntimes = {times}\n")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
    assert capsys.readouterr().err == f"runtime error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_main_half_width_without_a_grid_is_a_config_error(tmp_path, capsys):
    # Grid.centered refuses 1e308, where 2 half_width overflows, and 5e-324, whose
    # step 2 * 5e-324 / n underflows to 0, so neither run starts
    refused = {
        "1e308": "half_width must be in (0, 2^1023), got 1e+308",
        "5e-324": "grid step must be positive and finite, got 0.0",
    }
    for half_width, message in refused.items():
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"grid.half_width = {half_width}\noutput.dir = {tmp_path / 'out'}\n")
        assert main(["--config", str(cfg_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: line 1: grid.half_width: {message}\n"
        assert not (tmp_path / "out").exists()


def test_a_grid_size_beyond_the_doubles_with_a_half_width_is_a_config_error(tmp_path, capsys):
    # 2 half_width / n cannot convert n to a double, whether the half-width is
    # written or the scenario's preset
    where = {"grid.half_width = 1\n": "line 2: grid.half_width", "": "grid.half_width (preset for custom)"}
    for line, key in where.items():
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"grid.n = {2**1100}\n{line}output.dir = {tmp_path / 'out'}\n")
        assert main(["--config", str(cfg_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {key}: int too large to convert to float\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario", ["bogus", "", "FIG1"])
def test_main_bad_scenario_flag_is_a_config_error(tmp_path, capsys, scenario):
    # the scenario key's parser is the flag's only check
    assert main(["--scenario", scenario, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: flag scenario: must be one of {', '.join(SCENARIOS)}\n"
    assert not (tmp_path / "out").exists()


def test_a_run_builds_its_packet_once(tmp_path, monkeypatch):
    built = []

    def counting(cfg):
        built.append(cfg)
        return _packet(cfg)

    monkeypatch.setattr(freepacket.cli, "_packet", counting)
    for scenario in SCENARIOS:
        cfg = parse_config(f"scenario = {scenario}\ngrid.n = 1024\noutput.dir = {tmp_path / scenario}")
        assert run_scenario(cfg) == EXIT_OK
    assert len(built) == len(SCENARIOS)


@pytest.mark.parametrize(
    "config",
    [
        # the third slice fails the moments check after two slices were computed
        "scenario = spread-law\ngrid.half_width = 16\ntimes = 0, 3, 5",
        # the summary kind fails before any slice is computed
        "scenario = spread-law\nfamily = square",
        # x_over_t of the second slice overflows after the first slice's table was built
        "scenario = fig2\ntimes = 3, 1e-310",
    ],
)
def test_main_failed_run_writes_nothing(tmp_path, capsys, config):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"{config}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["--config", str(cfg_path)]) == EXIT_RUNTIME
    assert "runtime error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_rerun_removes_only_its_own_stale_slice_files(tmp_path):
    out = tmp_path / "out"

    def run(extra):
        cfg = parse_config(f"scenario = fig1\ngrid.n = 1024\noutput.dir = {out}\n{extra}")
        assert run_scenario(cfg) == EXIT_OK

    run("output.formats = csv, svg")
    others = ["fig2_t5.csv", "fig1_t3.txt", "fig1_t03.csv", "fig1_summary.svg", "notes.csv"]
    for name in others:
        (out / name).write_text("keep\n")
    (out / "fig1_t8.csv").mkdir()
    run("times = 0, 1")
    written = {"fig1_t0.csv", "fig1_t1.csv", "fig1_summary.csv"}
    assert {p.name for p in out.iterdir()} == written | set(others) | {"fig1_t8.csv"}
    assert all((out / name).read_text() == "keep\n" for name in others)
    assert len(read_csv(out / "fig1_summary.csv")) == 2


FIG1_SVG_RUN = {f"fig1_t{i}.svg" for i in range(7)} | {"fig1_summary.csv"}


def test_an_svg_only_run_writes_no_slice_csv(tmp_path):
    cfg = parse_config(f"scenario = fig1\ngrid.n = 256\noutput.dir = {tmp_path}\noutput.formats = svg")
    assert run_scenario(cfg) == EXIT_OK
    assert {p.name for p in tmp_path.iterdir()} == FIG1_SVG_RUN


def test_an_svg_only_rerun_removes_the_slice_csvs(tmp_path):
    document = f"scenario = fig1\ngrid.n = 256\noutput.dir = {tmp_path}\noutput.formats = "
    assert run_scenario(parse_config(document + "csv, svg")) == EXIT_OK
    assert (tmp_path / "fig1_t0.csv").is_file()
    assert run_scenario(parse_config(document + "svg")) == EXIT_OK
    assert {p.name for p in tmp_path.iterdir()} == FIG1_SVG_RUN


@pytest.mark.parametrize(
    "config",
    [
        # m a^2 / hbar overflows inside parse_config
        "scenario = custom\nfamily = square\nfamily.a = 1e200",
        # the preset times scale to (nan, inf, inf)
        "family = square\nphysics.hbar = 1e-300\nfamily.a = 1e10",
    ],
)
def test_main_overflowing_time_unit_exits_one(tmp_path, capsys, config):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"{config}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["--config", str(cfg_path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_NUMBER_TEXT = st.sampled_from(
    ["1", "0.5", "16", "1e200", "1e308", "1e-300", "5e-324", "0", "-1", "4096", "nan", "inf",
     "9" * 400, "9" * 5000, str(2**100), "1e200, 1e-300", "0, 1e308"]
)
_WORDS = {
    "scenario": SCENARIOS,
    "family": FAMILIES,
    "output.formats": ("csv", "svg", "csv, svg"),
    "strict": ("true", "no"),
}


def _value_text(key):
    """Garbage one time in ten, else the key's own words or number-like text."""
    own = st.sampled_from(_WORDS[key]) if key in _WORDS else _NUMBER_TEXT
    return st.integers(0, 9).flatmap(lambda i: st.text(max_size=12) if i == 0 else own)


_DOCUMENTS = st.lists(st.sampled_from(sorted(_KNOWN_KEYS)), max_size=6, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: _value_text(key) for key in keys})
)


@given(entries=_DOCUMENTS, overrides=_DOCUMENTS.map(lambda d: dict(list(d.items())[:2])))
@settings(max_examples=300, deadline=None)
def test_parse_config_returns_finite_times_or_config_error(entries, overrides):
    # parse only: a drawn grid.n could make run_scenario allocate without bound
    text = "\n".join(f"{key} = {value}" for key, value in entries.items())
    try:
        cfg = parse_config(text, overrides)
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)
    assert cfg.times and all(math.isfinite(t) for t in cfg.times)


_GRID_N = st.sampled_from(["0", "3", "-8", *(str(2**k) for k in range(3, 11))])
_TIMES = st.lists(
    st.sampled_from(["0", "-1", "0.5", "3", "1e-300", "1e200", "1e308", "nan"]), min_size=1, max_size=4
).map(", ".join)
_RUN_DOCUMENTS = st.lists(
    st.sampled_from(sorted(_KNOWN_KEYS - {"grid.n", "times"})), max_size=6, unique=True
).flatmap(
    lambda keys: st.fixed_dictionaries(
        {key: _value_text(key) for key in keys},
        optional={"times": _TIMES},
    )
)


@given(entries=_RUN_DOCUMENTS, grid_n=_GRID_N)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_main_ends_in_an_exit_status(tmp_path, entries, grid_n):
    # grid.n is always drawn small or invalid, so no run can allocate without bound
    text = "\n".join(f"{key} = {value}" for key, value in {**entries, "grid.n": grid_n}.items())
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    status = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert type(status) is int and status in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME, EXIT_STRICT)


# ------------------------------------------------------------ byte format
#
# The writer renders whole tables with numpy and formats only the values it
# cannot prove one at a time; these references format every value on its
# own, as the format's definition reads.


def reference_csv(header, rows):
    lines = [",".join(header)] + [",".join(f"{float(v):.17g}" for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)


def reference_polyline(x, y):
    width, height, margin = 640, 400, 45
    x_lo, x_hi = float(x.min()), float(x.max())
    y_hi = float(max(y.max(), 1e-300))
    px = margin + (x - x_lo) / ((x_hi - x_lo) or 1.0) * (width - 2 * margin)
    py = height - margin - y / y_hi * (height - 2 * margin)
    return " ".join(f"{xx:.2f},{yy:.2f}" for xx, yy in zip(px, py))


def read_table(path):
    header, *lines = path.read_text().splitlines()
    return header.split(","), [[float(v) for v in line.split(",")] for line in lines]


def svg_points(path):
    return re.search(r'<polyline points="([^"]*)"', path.read_text()).group(1)


def test_write_csv_matches_per_value_format(tmp_path):
    rng = np.random.default_rng(11)
    special = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2e-308, 1e308, -1e308, 0.1]
    bits = rng.integers(0, 2**64, size=3000, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(3000) * 10.0 ** rng.integers(-300, 300, size=3000)
    values = np.concatenate([special * 6, bits, scaled])
    tables = {
        "random.csv": values.reshape(-1, 6),
        "one_column.csv": values.reshape(-1, 1),
        "summary.csv": [
            [0.0, 0.5, math.inf, math.nan, -0.0, math.inf, math.inf],
            [0.1, math.nan, math.inf, math.nan, 1e-17, 2.5, 5e-324],
        ],
    }
    for name, table in tables.items():
        header = [f"c{j}" for j in range(np.shape(table)[1])]
        _write_csv(tmp_path / name, header, table)
        expected = reference_csv(header, np.asarray(table, dtype=float).tolist())
        assert (tmp_path / name).read_bytes() == expected.encode()


def assert_renders_like_reference(tmp_path, table):
    table = np.asarray(table, dtype=float)
    header = [f"c{j}" for j in range(table.shape[1])]
    _write_csv(tmp_path / "table.csv", header, table)
    assert (tmp_path / "table.csv").read_bytes() == reference_csv(header, table.tolist()).encode()


def _steps(value, count):
    """`value` and its `count` neighbours on each side."""
    steps = [value]
    for direction in (-math.inf, math.inf):
        v = value
        for _ in range(count):
            v = float(np.nextafter(v, direction))
            steps.append(v)
    return steps


def test_write_csv_at_every_power_of_ten(tmp_path):
    # the decimal exponent and the digit count change here; a log10 one off
    # must still print the right exponent
    values = []
    for k in range(-323, 309):
        values += _steps(float(f"1e{k}"), 6)
        values += [float(f"9.99999999999999995e{k}"), float(f"9.99999999999999995e{-k}")]
    values = np.array(values)
    assert_renders_like_reference(tmp_path, np.concatenate([values, -values]).reshape(-1, 1))


def test_write_csv_on_exact_ties(tmp_path):
    # k + 1/4, k + 3/4 and (1, 3) 2^-25 have 18 digits, the last a 5, so
    # "%.17g" rounds a tie
    k = np.random.default_rng(3).integers(10**15, 2**52, size=500).astype(float)
    ties = np.concatenate([k + 0.25, k + 0.75, [1234567890123456.25, 0.5**25, 3 * 0.5**25]])
    assert f"{0.5**25:.18g}" == "2.98023223876953125e-08"
    assert f"{1234567890123456.25:.17g}" == "1234567890123456.2"
    assert_renders_like_reference(tmp_path, np.concatenate([ties, -ties]).reshape(-1, 2))


def test_write_csv_on_zeros_and_subnormals(tmp_path):
    rng = np.random.default_rng(4)
    subnormals = rng.integers(1, 2**52, size=300, dtype=np.uint64).view(np.float64)
    values = [0.0, -0.0, 5e-324, -5e-324, *subnormals, *_steps(2.2250738585072014e-308, 6)]
    values += [-v for v in values[4:]]
    assert_renders_like_reference(tmp_path, np.array(values[: len(values) // 3 * 3]).reshape(-1, 3))


@pytest.mark.parametrize("rows", [1023, 1024, 1025, 2049])
def test_write_csv_across_block_boundaries(tmp_path, rows):
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 5)) * 10.0 ** rng.integers(-20, 20, size=(rows, 5))
    table[::7, 2] = 0.0
    assert_renders_like_reference(tmp_path, table)


_BIT_PATTERNS = st.integers(0, 2**64 - 1)


@given(
    table=st.integers(1, 7).flatmap(
        lambda k: st.lists(st.lists(_BIT_PATTERNS, min_size=k, max_size=k), min_size=1, max_size=40)
    )
)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_write_csv_on_arbitrary_bit_patterns(tmp_path, table):
    assert_renders_like_reference(tmp_path, np.array(table, dtype=np.uint64).view(np.float64))


@pytest.fixture
def per_value(monkeypatch):
    """Every value the renderer formats on its own with "%.17g"."""
    seen = []
    printf = freepacket._csvtext._printf

    def recording(values):
        seen.extend(values.tolist())
        return printf(values)

    monkeypatch.setattr(freepacket._csvtext, "_printf", recording)
    return seen


def test_write_csv_when_every_value_takes_the_per_value_path(tmp_path, monkeypatch, per_value):
    # frac(S) never lies more than 1/2 from 1/2, so with a margin of 1 no
    # value is proven
    margin = freepacket._csvtext._MARGIN
    monkeypatch.setattr(freepacket._csvtext, "_MARGIN", np.ones_like(margin))
    rng = np.random.default_rng(6)
    table = rng.standard_normal((300, 4)) * 10.0 ** rng.integers(-300, 300, size=(300, 4))
    table[::5, 1] = [0.0, -0.0, math.inf, math.nan, 5e-324, 1e-5] * 10
    assert_renders_like_reference(tmp_path, table)
    assert len(per_value) == np.count_nonzero(table)  # zeros print as "0" either way


def test_power_pairs_are_within_the_bound_of_the_product():
    text = freepacket._csvtext
    u = Fraction(1, 2**53)
    # the product's error bound at S < 2^57 lies below the margin
    assert (4 + 6 * u) * u**2 * 2**57 < Fraction(2.0**-46)
    tables = (text._SCALE, text._HI, text._LO, text._MARGIN)
    for row, x in enumerate(range(text._X_MIN, text._X_MAX + 1)):
        scale, hi, lo, margin = (Fraction(float(table[row])) for table in tables)
        assert scale in (1, Fraction(2) ** 192, Fraction(2) ** -192), x
        exact = Fraction(10) ** (16 - x) / scale
        assert abs(lo) <= u * hi, x
        assert margin == (0 if lo == 0 else Fraction(2.0**-46)), x
        assert (lo == 0) == (hi == exact), x
        # every scaled |v| of this X, hi, and their Veltkamp splits stay
        # normal and finite
        smallest = max(Fraction(10) ** x, Fraction(2) ** -1074) * scale
        assert smallest >= Fraction(2) ** (-1022 + 53) and hi >= Fraction(2) ** (-1022 + 53), x
        assert max(Fraction(10) ** (x + 1) * scale, hi) * (2**27 + 1) < Fraction(2) ** 1024, x


def test_power_pairs_lie_within_2_to_the_minus_106_of_the_power():
    # hi and lo are each correctly rounded, so the pair misses 10^(16 - X)
    # 2^-s by at most u^2 of it; the product bound above takes u^2 for the pair
    text = freepacket._csvtext
    for row, x in enumerate(range(text._X_MIN, text._X_MAX + 1)):
        exact = Fraction(10) ** (16 - x) / Fraction(float(text._SCALE[row]))
        pair = Fraction(float(text._HI[row])) + Fraction(float(text._LO[row]))
        assert abs(exact - pair) <= Fraction(1, 2**106) * exact, x


def test_ties_at_every_power_render_like_the_reference(tmp_path, per_value):
    # S = |v| 10^k is exactly n + 1/2 only for v = M 2^-(k + 1), M odd, which
    # needs 1 <= k <= 24; for k <= 22 10^k is a double, the product exact and
    # the tie decided without "%.17g"
    ties = {}
    for k in range(1, 25):
        scale = 2 ** (k + 1)
        low, high = Fraction(10) ** (16 - k) * scale, Fraction(10) ** (17 - k) * scale
        odd = range(math.ceil(low) | 1, math.ceil(min(high, 2**53)), 2)
        ties[k] = [math.ldexp(m, -(k + 1)) for m in [*odd[:3], *odd[-3:]]]
        assert ties[k], k
        assert all((2 * Fraction(v) * 10**k).denominator == 1 for v in ties[k]), k
    values = np.array([v for k in ties for v in ties[k]])
    assert_renders_like_reference(tmp_path, np.concatenate([values, -values]).reshape(-1, 1))
    assert sorted(map(abs, per_value)) == sorted(2 * (ties[23] + ties[24]))


def test_default_tables_format_no_finite_value_one_at_a_time(tmp_path, per_value):
    for scenario in SCENARIOS:
        cfg = parse_config(f"scenario = {scenario}\noutput.dir = {tmp_path / scenario}")
        assert run_scenario(cfg) == EXIT_OK
    # the summaries hold inf and nan, which only "%.17g" prints
    assert per_value and not any(math.isfinite(v) for v in per_value)


def test_default_outputs_match_per_value_format(tmp_path):
    for scenario in SCENARIOS:
        out = tmp_path / scenario
        formats = "csv, svg" if scenario == "fig1" else "csv"
        cfg = parse_config(f"scenario = {scenario}\noutput.dir = {out}\noutput.formats = {formats}")
        assert run_scenario(cfg) == EXIT_OK
        files = sorted(out.glob("*.csv"))
        assert len(files) == len(cfg.times) + 1
        for path in files:
            header, rows = read_table(path)
            assert path.read_text() == reference_csv(header, rows), path.name
    header, rows = read_table(tmp_path / "fig1" / "fig1_t3.csv")
    table = np.array(rows)
    polyline = reference_polyline(table[:, 0], table[:, header.index("density")])
    assert svg_points(tmp_path / "fig1" / "fig1_t3.svg") == polyline


def test_svg_polyline_matches_per_value_format(tmp_path):
    rng = np.random.default_rng(5)
    for n in (1, 2, 9, 1000):
        x = np.sort(rng.uniform(-50, 50, size=n))
        y = rng.exponential(size=n) * 10.0 ** rng.integers(-5, 5)
        _write_svg(tmp_path / "p.svg", x, y, "t")
        assert svg_points(tmp_path / "p.svg") == reference_polyline(x, y)
