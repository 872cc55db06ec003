"""Scenario runner: canned wave-packet evolution studies as machine-readable CSV.

Single command, no subcommands:

    freepacket --scenario fig1 --out results/
    freepacket --config run.cfg --strict

Scenarios
    fig1        derivative packet n=2, |psi|^2 at t/tau in {0, .1, .2, .4, .6, .8, 1}
    fig2        same packet approaching its asymptote, t/tau in {3, 4, 6, 16},
                with rescaled columns (x/t, t*density)
    fig3        square packet early evolution, t in {0, .001, .01, .1} m a^2/hbar
    fig4        square packet late evolution, t in {.1, .2, .5} m a^2/hbar, rescaled
    spread-law  measured vs predicted spread Dx(t) for a chosen family
    bounds      measured sup|dpsi|^2 against the short-time and asymptotic bounds
    custom      any family, any time list

Config files are line-oriented `key = value` with dotted keys and `#`
comments; command-line flags override file values.  Times in config files are
in natural units: tau for the Gaussian families, m a^2/hbar for the square.
CSV numbers carry 17 significant digits so doubles round-trip exactly and
reruns are byte-identical.  Each file is one 2-D float table rendered by a
single `%.17g` format call (and each SVG polyline by a single `%.2f` call),
which gives the same bytes as formatting every value on its own.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .evolution import (
    asymptotic_error_bound,
    asymptotic_form,
    propagate_spectral,
    short_time_approx,
    short_time_error_bound,
)
from .numerics import ComplexField, Grid, PhysicsParams, to_momentum
from .observables import moments, spread_law_from_state, spread_prediction
from .packets import (
    DERIVATIVE_MAX_ORDER,
    HERMITE_GAUSS_MAX_ORDER,
    GaussianFamily,
    SquareFamily,
    derivative_packet,
    gaussian_chi,
    hermite_gauss,
    sample,
    square_exact,
    square_initial,
)

__all__ = ["ConfigError", "ScenarioConfig", "parse_config", "run_scenario", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_STRICT = 3

SCENARIOS = ("fig1", "fig2", "fig3", "fig4", "spread-law", "bounds", "custom")
FAMILIES = ("gaussian", "hermite-gauss", "derivative", "square")

# (family, order); None order means the family takes no order.
_PRESET_FAMILY = {
    "fig1": ("derivative", 2),
    "fig2": ("derivative", 2),
    "fig3": ("square", None),
    "fig4": ("square", None),
    "spread-law": ("hermite-gauss", 2),
    "bounds": ("derivative", 2),
    "custom": ("gaussian", None),
}

# Times in natural units (tau, or m a^2/hbar for the square).
_PRESET_TIMES = {
    "fig1": (0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
    "fig2": (3.0, 4.0, 6.0, 16.0),
    "fig3": (0.0, 0.001, 0.01, 0.1),
    "fig4": (0.1, 0.2, 0.5),
    "spread-law": (-3.0, -2.4, -1.8, -1.2, -0.6, 0.0, 0.6, 1.2, 1.8, 2.4, 3.0),
    "bounds": (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0),
    "custom": (0.0, 0.5, 1.0),
}

# (grid n, half width) defaults, sized so the most-spread slice stays many
# scale lengths inside the domain.
_PRESET_GRID = {
    "fig1": (4096, 64.0),
    "fig2": (4096, 160.0),
    "fig3": (4096, 64.0),
    "fig4": (4096, 64.0),
    "spread-law": (4096, 64.0),
    "bounds": (4096, 128.0),
    "custom": (4096, 64.0),
}

_KNOWN_KEYS = {
    "scenario",
    "physics.hbar",
    "physics.mass",
    "family",
    "family.n",
    "family.tau",
    "family.a",
    "grid.n",
    "grid.half_width",
    "times",
    "output.dir",
    "output.formats",
    "strict",
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    hbar: float
    mass: float
    family: str
    family_order: int | None
    tau: float
    a: float
    grid_n: int
    half_width: float
    times: tuple[float, ...]  # absolute units
    out_dir: str
    formats: tuple[str, ...]
    strict: bool

    @property
    def params(self) -> PhysicsParams:
        return PhysicsParams(hbar=self.hbar, mass=self.mass)


def _parse_float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite, got {raw!r}")
    return value


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: not an integer: {raw!r}") from None


def _parse_bool(raw: str, where: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{where}: not a boolean: {raw!r}")


def parse_config(text: str, overrides: dict[str, str] | None = None) -> ScenarioConfig:
    """Total parse of a key-value document with defaulting; unknown keys rejected.

    `overrides` (from command-line flags) replace file values before
    validation and scenario-dependent defaulting.
    """
    raw: dict[str, tuple[str, str]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = (value, f"line {lineno}: {key}")
    for key, value in (overrides or {}).items():
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"override: unknown key {key!r}")
        raw[key] = (value, f"flag {key}")

    def take(key: str) -> tuple[str, str] | None:
        return raw.get(key)

    scenario = "custom"
    if take("scenario"):
        value, where = take("scenario")
        if value not in SCENARIOS:
            raise ConfigError(f"{where}: scenario must be one of {', '.join(SCENARIOS)}")
        scenario = value

    hbar = _parse_float(*take("physics.hbar")) if take("physics.hbar") else 1.0
    mass = _parse_float(*take("physics.mass")) if take("physics.mass") else 1.0
    if hbar <= 0:
        raise ConfigError(f"physics.hbar: must be positive, got {hbar}")
    if mass <= 0:
        raise ConfigError(f"physics.mass: must be positive, got {mass}")

    preset_family, preset_order = _PRESET_FAMILY[scenario]
    if take("family"):
        value, where = take("family")
        if value not in FAMILIES:
            raise ConfigError(f"{where}: family must be one of {', '.join(FAMILIES)}")
        if scenario.startswith("fig") and value != preset_family:
            raise ConfigError(f"{where}: scenario {scenario} fixes family = {preset_family}")
        family = value
    else:
        family = preset_family

    if take("family.n"):
        value, where = take("family.n")
        order = _parse_int(value, where)
        limit = DERIVATIVE_MAX_ORDER if family == "derivative" else HERMITE_GAUSS_MAX_ORDER
        if order < 0 or order > limit:
            raise ConfigError(f"{where}: order for family {family} must be in [0, {limit}]")
        family_order = order
    else:
        family_order = preset_order if family in ("hermite-gauss", "derivative") else None
        if family in ("hermite-gauss", "derivative") and family_order is None:
            family_order = 2

    tau = _parse_float(*take("family.tau")) if take("family.tau") else 1.0
    a = _parse_float(*take("family.a")) if take("family.a") else 1.0
    if tau <= 0:
        raise ConfigError(f"family.tau: must be positive, got {tau}")
    if a <= 0:
        raise ConfigError(f"family.a: must be positive, got {a}")

    default_n, default_hw = _PRESET_GRID[scenario]
    if take("grid.n"):
        value, where = take("grid.n")
        grid_n = _parse_int(value, where)
        if grid_n < 8 or (grid_n & (grid_n - 1)) != 0:
            raise ConfigError(f"{where}: not a power of two >= 8: {grid_n}")
    else:
        grid_n = default_n
    half_width = _parse_float(*take("grid.half_width")) if take("grid.half_width") else default_hw
    if half_width <= 0:
        raise ConfigError(f"grid.half_width: must be positive, got {half_width}")

    try:
        unit = mass * a**2 / hbar if family == "square" else tau
    except OverflowError:
        raise ConfigError(f"family.a: time unit m a^2/hbar overflows for a = {a}") from None
    if take("times"):
        value, where = take("times")
        scaled = tuple(_parse_float(part, where) for part in value.split(",") if part.strip())
        if not scaled:
            raise ConfigError(f"{where}: time list must be nonempty")
    else:
        scaled, where = _PRESET_TIMES[scenario], f"times (preset for {scenario})"
    times = tuple(v * unit for v in scaled)
    if not all(math.isfinite(v) for v in times):
        raise ConfigError(f"{where}: times in absolute units must be finite, got {times}")

    out_dir = take("output.dir")[0] if take("output.dir") else "out"

    if take("output.formats"):
        value, where = take("output.formats")
        wanted = [part.strip() for part in value.split(",") if part.strip()]
        bad = [w for w in wanted if w not in ("csv", "svg")]
        if bad or not wanted:
            raise ConfigError(f"{where}: formats must be a nonempty subset of csv, svg")
        formats = tuple(f for f in ("csv", "svg") if f in wanted)
    else:
        formats = ("csv",)

    strict = _parse_bool(*take("strict")) if take("strict") else False

    return ScenarioConfig(
        scenario=scenario,
        hbar=hbar,
        mass=mass,
        family=family,
        family_order=family_order,
        tau=tau,
        a=a,
        grid_n=grid_n,
        half_width=half_width,
        times=times,
        out_dir=out_dir,
        formats=formats,
        strict=strict,
    )


def _write_csv(path: Path, header: list[str], table):
    """Header line, then one line per row of the 2-D float `table`."""
    table = np.asarray(table, dtype=float)
    n, k = table.shape
    line = ",".join(["%.17g"] * k) + "\n"
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(header) + "\n" + line * n % tuple(table.ravel().tolist()))


def _write_svg(path: Path, x: np.ndarray, y: np.ndarray, title: str):
    width, height, margin = 640, 400, 45
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = 0.0, float(max(y.max(), 1e-300))
    span_x = x_hi - x_lo or 1.0
    span_y = y_hi - y_lo or 1.0
    px = margin + (x - x_lo) / span_x * (width - 2 * margin)
    py = height - margin - (y - y_lo) / span_y * (height - 2 * margin)
    pts = " ".join(["%.2f,%.2f"] * len(px)) % tuple(np.column_stack((px, py)).ravel().tolist())
    with open(path, "w", newline="\n") as handle:
        handle.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
            f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
            f'height="{height - 2 * margin}" fill="none" stroke="black"/>\n'
            f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>\n'
            f'<text x="{margin}" y="{height - 10}" font-size="11">{x_lo:.17g}</text>\n'
            f'<text x="{width - margin}" y="{height - 10}" text-anchor="end" font-size="11">'
            f"{x_hi:.17g}</text>\n"
            f'<text x="5" y="{margin}" font-size="11">{y_hi:.17g}</text>\n'
            f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1"/>\n'
            "</svg>\n"
        )


def _initial_spread(cfg: ScenarioConfig) -> float:
    p = cfg.params
    if cfg.family == "square":
        return cfg.a / math.sqrt(12.0)
    gamma0 = math.sqrt(p.hbar * cfg.tau / p.mass)
    if cfg.family == "gaussian":
        return gamma0 / math.sqrt(2.0)
    if cfg.family == "hermite-gauss":
        return gamma0 * math.sqrt(cfg.family_order + 0.5)
    if cfg.family_order == 2:
        return math.sqrt(7 * p.hbar * cfg.tau / (6 * p.mass))
    return gamma0 * math.sqrt(cfg.family_order + 1.0)


def _family_evaluator(cfg: ScenarioConfig):
    p = cfg.params
    if cfg.family == "square":
        fam = SquareFamily(params=p, a=cfg.a)

        def evaluate(x, t):
            return square_initial(fam, x) if t == 0 else square_exact(fam, x, t)

        return evaluate
    fam = GaussianFamily(params=p, tau=cfg.tau)
    if cfg.family == "gaussian":
        return lambda x, t: gaussian_chi(fam, x, t)
    if cfg.family == "hermite-gauss":
        return lambda x, t: hermite_gauss(fam, cfg.family_order, x, t)
    return lambda x, t: derivative_packet(fam, cfg.family_order, x, t)


def _bound_columns(cfg: ScenarioConfig, t: float, delta_p: float, delta_x0: float):
    p = cfg.params
    short = short_time_error_bound(delta_p, abs(t), p) if math.isfinite(delta_p) else math.inf
    asym = asymptotic_error_bound(delta_x0, abs(t), p) if t != 0 else math.inf
    return short, asym


def run_scenario(cfg: ScenarioConfig) -> int:
    """Compute one scenario and write its slice and summary files.

    Returns a process exit status; raises OSError for unwritable output and
    lets numerical errors propagate (the command-line wrapper maps those to
    exit code 2).
    """
    warnings: list[str] = []
    min_half_width = 10.0 * _initial_spread(cfg)
    if cfg.half_width < min_half_width:
        warnings.append(
            f"grid.half_width = {cfg.half_width} is below 10 x initial spread "
            f"({min_half_width:.3g}); moments may be unreliable"
        )
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    if warnings and cfg.strict:
        print("strict mode: warnings are fatal", file=sys.stderr)
        return EXIT_STRICT

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = cfg.params
    grid = (
        Grid.centered_offset(cfg.half_width, cfg.grid_n)
        if cfg.family == "square"
        else Grid.centered(cfg.half_width, cfg.grid_n)
    )
    x = grid.points
    evaluate = _family_evaluator(cfg)

    if cfg.scenario in ("spread-law", "bounds"):
        return _run_measurement_scenario(cfg, grid, evaluate, out_dir)

    delta_x0 = _initial_spread(cfg)
    summary_rows = []
    for index, t in enumerate(cfg.times):
        # ComplexField rejects non-finite samples before any reach a CSV
        field = ComplexField(evaluate(x, t), grid)
        _write_slice(cfg, out_dir, index, x, field.values, t)

        if cfg.family == "square" and t != 0:
            # Dp is infinite for the square packet and Dx exists only at the
            # discontinuity instant; report the honest non-values.
            mean_x = mean_r = delta_x = math.nan
            delta_p = math.inf
        else:
            try:
                m = moments(field, params)
                mean_x, mean_r = m.mean_x, m.mean_r
                delta_x, delta_p = m.delta_x, m.delta_p
            except ValueError:
                # moments are unreliable on an undersized grid (already warned
                # about) and for the sampled square at t = 0, whose norm misses
                # the tolerance unless a is a multiple of the grid step
                if not (warnings or cfg.family == "square"):
                    raise
                mean_x = mean_r = delta_x = delta_p = math.nan
        short_bound, asym_bound = _bound_columns(cfg, t, delta_p, delta_x0)
        summary_rows.append([t, delta_x, delta_p, mean_x, mean_r, short_bound, asym_bound])

    _write_csv(
        out_dir / f"{cfg.scenario}_summary.csv",
        ["t", "delta_x", "delta_p", "mean_x", "mean_r", "short_time_bound", "asymptotic_bound"],
        summary_rows,
    )
    return EXIT_OK


def _run_measurement_scenario(cfg: ScenarioConfig, grid: Grid, evaluate, out_dir: Path) -> int:
    params = cfg.params
    x = grid.points
    psi0 = sample(evaluate, grid, 0.0)
    m0 = moments(psi0, params)

    if cfg.scenario == "spread-law":
        law = spread_law_from_state(m0, params, 0.0)
        rows = []
        for index, t in enumerate(cfg.times):
            evolved = propagate_spectral(psi0, t, params).field
            _write_slice(cfg, out_dir, index, x, evolved.values, t)
            measured = moments(evolved, params)
            predicted = spread_prediction(law, params, t)
            gap = abs(measured.delta_x - predicted) / predicted
            rows.append(
                [t, measured.delta_x, predicted, gap, measured.delta_p, measured.mean_x, measured.mean_r]
            )
        _write_csv(
            out_dir / f"{cfg.scenario}_summary.csv",
            ["t", "delta_x", "delta_x_predicted", "rel_gap", "delta_p", "mean_x", "mean_r"],
            rows,
        )
        return EXIT_OK

    # bounds scenario
    phi0 = to_momentum(psi0, params)
    rows = []
    for index, t in enumerate(cfg.times):
        exact = propagate_spectral(psi0, t, params).field
        _write_slice(cfg, out_dir, index, x, exact.values, t)
        translated = short_time_approx(psi0, t, params, pbar=m0.mean_p).field
        short_sup = float(np.max(np.abs(exact.values - translated.values) ** 2))
        short_bound = (
            short_time_error_bound(m0.delta_p, abs(t), params)
            if math.isfinite(m0.delta_p)
            else math.inf
        )
        if t > 0:
            asym = asymptotic_form(phi0, m0.mean_x, t, params).field
            asym_sup = float(np.max(np.abs(exact.values - asym.values) ** 2))
            asym_bound = asymptotic_error_bound(m0.delta_x, t, params)
        else:
            asym_sup = math.nan
            asym_bound = math.inf
        rows.append([t, short_bound, short_sup, asym_bound, asym_sup])
    _write_csv(
        out_dir / f"{cfg.scenario}_summary.csv",
        ["t", "short_time_bound", "short_sup_dpsi2", "asymptotic_bound", "asym_sup_dpsi2"],
        rows,
    )
    return EXIT_OK


def _write_slice(
    cfg: ScenarioConfig, out_dir: Path, index: int, x: np.ndarray, values: np.ndarray, t: float
):
    """One time slice as CSV (plus the rescaled pair for fig2/fig4) and optional SVG."""
    density = np.abs(values) ** 2
    header = ["x", "re_psi", "im_psi", "density"]
    columns = [x, values.real, values.imag, density]
    if cfg.scenario in ("fig2", "fig4"):
        header += ["x_over_t", "t_times_density"]
        columns += [x / t, t * density]
    _write_csv(out_dir / f"{cfg.scenario}_t{index}.csv", header, np.column_stack(columns))
    if "svg" in cfg.formats:
        _write_svg(
            out_dir / f"{cfg.scenario}_t{index}.svg",
            x,
            density,
            f"{cfg.scenario}: density at t = {t:.17g}",
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="freepacket",
        description="Free wave-packet evolution scenarios; writes CSV (and optional SVG) artifacts.",
    )
    parser.add_argument("--config", type=Path, default=None, help="key = value config file")
    parser.add_argument("--scenario", choices=SCENARIOS, default=None, help="override scenario")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--strict", action="store_true", help="escalate warnings to exit code 3")
    args = parser.parse_args(argv)

    text = ""
    if args.config is not None:
        try:
            text = args.config.read_text()
        except OSError as err:
            print(f"config error: {err}", file=sys.stderr)
            return EXIT_CONFIG

    overrides: dict[str, str] = {}
    if args.scenario:
        overrides["scenario"] = args.scenario
    if args.out:
        overrides["output.dir"] = args.out
    if args.strict:
        overrides["strict"] = "true"

    try:
        cfg = parse_config(text, overrides)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return run_scenario(cfg)
    except (OSError, ValueError, ArithmeticError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
