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
comments; command-line flags override file values.  Each value, a flag's too,
is checked only by its key's parser, so a bad one is a config error (exit 1)
that names `line N: key` or `flag key`; `grid.half_width`, written or preset,
is accepted exactly where Grid.centered takes it on `grid.n` points.  Times in
config files are in natural units: tau for the Gaussian families, m a^2/hbar
for the square.
The rescaled scenarios (fig2, fig4) divide by t, so a time of 0 is a config
error.  A run builds its packet and its grid once: _packet binds the config to
one of the packet descriptors of freepacket.packets and picks the grid
(Grid.centered_offset for the square, Grid.centered otherwise), and every step
is read off that grid.  It warns when the grid is narrower than 10 initial
spreads or its step wider than one; the initial spread behind both warnings
and the asymptotic bound is the descriptor's exact one.  A floating-point
overflow, division by zero or invalid operation while running is a runtime
error (exit 2), and so is a grid too large for memory.
Every slice is computed before any file is written, so a run that exits 2
while computing creates no output directory and writes no file.  Slice files
are written in each of `output.formats`; the summary is always CSV.  A run
that succeeds deletes the `<scenario>_t<i>.csv`/`.svg` files an earlier run
left in its directory that it did not write itself, and no other file.
CSV numbers carry 17 significant digits so doubles round-trip exactly and
reruns are byte-identical.  Each file is one 2-D float table, rendered 1024
rows at a time by numpy in float64 arithmetic: an exact two-product of |v|
with a pair of doubles for its power of ten gives the 17 digits, and only
inf, nan and a value within the product's error bound of a tie are formatted
on their own with `%.17g`, so every value reads exactly as `f"{v:.17g}"`.
The slices share the grid, so its `x` column is rendered once per run.  Each
SVG polyline is one `%.2f` format call, the same bytes as `f"{v:.2f}"` per
value.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .evolution import (
    asymptotic_error_bound,
    asymptotic_form,
    propagate_spectral,
    short_time_approx,
    short_time_error_bound,
)
from .numerics import (
    Grid,
    PhysicsParams,
    _require_finite,
    _require_order,
    _require_positive,
    _require_power_of_two,
    to_momentum,
)
from .observables import moments, spread_law_from_state, spread_prediction
from .packets import (
    DERIVATIVE_MAX_ORDER,
    HERMITE_GAUSS_MAX_ORDER,
    GaussianFamily,
    SquareFamily,
    _derivative_packet,
    _hermite_gauss_packet,
    _Packet,
    _square_packet,
    sample,
)

__all__ = ["ConfigError", "ScenarioConfig", "parse_config", "run_scenario", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_STRICT = 3

FAMILIES = ("gaussian", "hermite-gauss", "derivative", "square")


class ConfigError(ValueError):
    pass


def _packet(cfg: ScenarioConfig) -> tuple[_Packet, Grid]:
    """The run's packet and its grid: Grid.centered_offset for the square, Grid.centered otherwise."""
    if cfg.family == "square":
        grid = Grid.centered_offset(cfg.half_width, cfg.grid_n)
        return _square_packet(SquareFamily(params=cfg.params, a=cfg.a), grid.step), grid
    build = _derivative_packet if cfg.family == "derivative" else _hermite_gauss_packet
    fam = GaussianFamily(params=cfg.params, tau=cfg.tau)
    # the gaussian is Hermite-Gauss order 0
    return build(fam, cfg.family_order or 0), Grid.centered(cfg.half_width, cfg.grid_n)


# A summary kind takes (cfg, packet, grid) and returns the summary header and
# a function of t that gives the slice's field, sampled on the grid, and its
# summary row.


def _closed_form(cfg: ScenarioConfig, packet: _Packet, grid: Grid):
    params = cfg.params

    def slice_at(t):
        # ComplexField rejects non-finite samples before any reach a CSV
        field = sample(packet.evaluate, grid, t)
        if not packet.finite_dp and t != 0:
            # Dp is infinite for the square packet and Dx exists only at the
            # discontinuity instant; report the honest non-values.
            mean_x = mean_r = delta_x = math.nan
            delta_p = math.inf
        else:
            m = moments(field, params)
            mean_x, mean_r, delta_x, delta_p = m.mean_x, m.mean_r, m.delta_x, m.delta_p
        asym_bound = asymptotic_error_bound(packet.spread, abs(t), params) if t != 0 else math.inf
        short_bound = short_time_error_bound(delta_p, abs(t), params)
        return field, [t, delta_x, delta_p, mean_x, mean_r, short_bound, asym_bound]

    header = ["t", "delta_x", "delta_p", "mean_x", "mean_r", "short_time_bound", "asymptotic_bound"]
    return header, slice_at


def _spread_law(cfg: ScenarioConfig, packet: _Packet, grid: Grid):
    params = cfg.params
    psi0 = sample(packet.evaluate, grid, 0.0)
    law = spread_law_from_state(moments(psi0, params), params, 0.0)

    def slice_at(t):
        evolved = propagate_spectral(psi0, t, params).field
        m = moments(evolved, params)
        predicted = spread_prediction(law, params, t)
        gap = abs(m.delta_x - predicted) / predicted
        return evolved, [t, m.delta_x, predicted, gap, m.delta_p, m.mean_x, m.mean_r]

    return ["t", "delta_x", "delta_x_predicted", "rel_gap", "delta_p", "mean_x", "mean_r"], slice_at


def _bounds(cfg: ScenarioConfig, packet: _Packet, grid: Grid):
    params = cfg.params
    psi0 = sample(packet.evaluate, grid, 0.0)
    m0 = moments(psi0, params)
    phi0 = to_momentum(psi0, params)

    def slice_at(t):
        exact = propagate_spectral(psi0, t, params).field
        translated = short_time_approx(psi0, t, params, pbar=m0.mean_p).field
        short_sup = float(np.max(np.abs(exact.values - translated.values) ** 2))
        if t > 0:
            asym = asymptotic_form(phi0, m0.mean_x, t, params).field
            asym_sup = float(np.max(np.abs(exact.values - asym.values) ** 2))
            asym_bound = asymptotic_error_bound(m0.delta_x, t, params)
        else:
            asym_sup, asym_bound = math.nan, math.inf
        short_bound = short_time_error_bound(m0.delta_p, abs(t), params)
        return exact, [t, short_bound, short_sup, asym_bound, asym_sup]

    return ["t", "short_time_bound", "short_sup_dpsi2", "asymptotic_bound", "asym_sup_dpsi2"], slice_at


class _Scenario(NamedTuple):
    family: str  # the default family
    fixed: bool  # no other family is allowed
    times: tuple[float, ...]  # natural units: tau, or m a^2/hbar for the square
    half_width: float  # keeps the most-spread slice many scale lengths inside
    summary: Callable  # the summary kind
    rescaled: bool = False  # slices add x/t and t*density, so no time may be 0


_SCENARIO_TABLE = {
    "fig1": _Scenario("derivative", True, (0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0), 64.0, _closed_form),
    "fig2": _Scenario("derivative", True, (3.0, 4.0, 6.0, 16.0), 160.0, _closed_form, True),
    "fig3": _Scenario("square", True, (0.0, 0.001, 0.01, 0.1), 64.0, _closed_form),
    "fig4": _Scenario("square", True, (0.1, 0.2, 0.5), 64.0, _closed_form, True),
    "spread-law": _Scenario(
        "hermite-gauss",
        False,
        (-3.0, -2.4, -1.8, -1.2, -0.6, 0.0, 0.6, 1.2, 1.8, 2.4, 3.0),
        64.0,
        _spread_law,
    ),
    "bounds": _Scenario("derivative", False, (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0), 128.0, _bounds),
    "custom": _Scenario("gaussian", False, (0.0, 0.5, 1.0), 64.0, _closed_form),
}
SCENARIOS = tuple(_SCENARIO_TABLE)


# Key parsers take the raw text and the values of the keys of the ScenarioConfig
# fields above theirs; they raise ConfigError, or the package's own ValueError
# for a number out of its range, without a location, which parse_config adds.


def _preset(cfg: dict) -> _Scenario:
    return _SCENARIO_TABLE[cfg["scenario"]]


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"not a number: {text!r}") from None
    return _require_finite(value)


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"not an integer: {text!r}") from None


def _positive(text: str, cfg: dict) -> float:
    return _require_positive(_number(text))


def _half_width(text: str, cfg: dict) -> float:
    return _grid_half_width(_positive(text, cfg), cfg)


def _grid_half_width(half_width: float, cfg: dict) -> float:
    # the value itself where Grid.centered builds a grid.n-point grid of it,
    # whose x0 is -half_width; a preset half-width is checked the same way
    return -Grid.centered(half_width, cfg["grid.n"]).x0


def _one_of(choices: tuple[str, ...]):
    def parse(text: str, cfg: dict) -> str:
        if text not in choices:
            raise ConfigError(f"must be one of {', '.join(choices)}")
        return text

    return parse


def _family(text: str, cfg: dict) -> str:
    family, row = _one_of(FAMILIES)(text, cfg), _preset(cfg)
    if row.fixed and family != row.family:
        raise ConfigError(f"scenario {cfg['scenario']} fixes family = {row.family}")
    return family


# the families that take an order, and its largest value
_ORDER_LIMITS = {"hermite-gauss": HERMITE_GAUSS_MAX_ORDER, "derivative": DERIVATIVE_MAX_ORDER}


def _order(text: str, cfg: dict) -> int:
    family = cfg["family"]
    if family not in _ORDER_LIMITS:
        raise ConfigError(f"family {family} takes no order")
    return _require_order(_integer(text), _ORDER_LIMITS[family], f"order for family {family}")


def _power_of_two(text: str, cfg: dict) -> int:
    return _require_power_of_two(_integer(text))


def _absolute_times(natural: tuple[float, ...], cfg: dict) -> tuple[float, ...]:
    unit, a = cfg["family.tau"], cfg["family.a"]
    if cfg["family"] == "square":
        # m a^2 / hbar correctly rounded from the exact rational, so no a^2 underflows
        exact = Fraction(cfg["physics.mass"]) * Fraction(a) ** 2 / Fraction(cfg["physics.hbar"])
        try:
            unit = float(exact)
        except OverflowError:
            raise ConfigError(f"time unit m a^2/hbar overflows for family.a = {a}") from None
    times = tuple(_require_finite(v * unit, "times in absolute units") for v in natural)
    if _preset(cfg).rescaled and 0.0 in times:
        raise ConfigError(f"scenario {cfg['scenario']} divides by t, so no time may be 0: {times}")
    return times


def _times(text: str, cfg: dict) -> tuple[float, ...]:
    natural = tuple(_number(part) for part in text.split(",") if part.strip())
    if not natural:
        raise ConfigError("time list must be nonempty")
    return _absolute_times(natural, cfg)


def _formats(text: str, cfg: dict) -> tuple[str, ...]:
    wanted = {part.strip() for part in text.split(",") if part.strip()}
    if not wanted or wanted - {"csv", "svg"}:
        raise ConfigError("formats must be a nonempty subset of csv, svg")
    return tuple(f for f in ("csv", "svg") if f in wanted)


def _boolean(text: str, cfg: dict) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _key(key: str, parse: Callable, default):
    """A field read from config `key` by `parse(text, cfg)`; a callable default reads cfg."""
    return field(metadata={"config": (key, parse, default)})


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str = _key("scenario", _one_of(SCENARIOS), "custom")
    hbar: float = _key("physics.hbar", _positive, 1.0)
    mass: float = _key("physics.mass", _positive, 1.0)
    family: str = _key("family", _family, lambda cfg: _preset(cfg).family)
    family_order: int | None = _key(
        "family.n", _order, lambda cfg: 2 if cfg["family"] in _ORDER_LIMITS else None
    )
    tau: float = _key("family.tau", _positive, 1.0)
    a: float = _key("family.a", _positive, 1.0)
    grid_n: int = _key("grid.n", _power_of_two, 4096)
    half_width: float = _key(
        "grid.half_width", _half_width, lambda cfg: _grid_half_width(_preset(cfg).half_width, cfg)
    )
    times: tuple[float, ...] = _key(  # absolute units
        "times", _times, lambda cfg: _absolute_times(_preset(cfg).times, cfg)
    )
    out_dir: str = _key("output.dir", lambda text, cfg: text, "out")
    formats: tuple[str, ...] = _key("output.formats", _formats, ("csv",))
    strict: bool = _key("strict", _boolean, False)

    @property
    def params(self) -> PhysicsParams:
        return PhysicsParams(hbar=self.hbar, mass=self.mass)


_KNOWN_KEYS = frozenset(f.metadata["config"][0] for f in fields(ScenarioConfig))


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

    cfg: dict = {}
    for f in fields(ScenarioConfig):
        key, parse, default = f.metadata["config"]
        try:
            if key in raw:
                cfg[key] = parse(raw[key][0], cfg)
            else:
                cfg[key] = default(cfg) if callable(default) else default
        except (ValueError, OverflowError) as err:  # OverflowError: a grid.n beyond the doubles
            where = raw[key][1] if key in raw else f"{key} (preset for {cfg['scenario']})"
            raise ConfigError(f"{where}: {err}") from None
    return ScenarioConfig(*cfg.values())


def _write_csv(path: Path, header: list[str], table, first_column=None):
    """Header line, then one line per row of the 2-D float `table`, each value
    as `f"{v:.17g}"` prints it; `first_column` is as in `_csvtext.write_rows`."""
    # the renderer's code and tables hold about 0.5 MB of resident memory, so
    # the first CSV write loads it, not the import of this module
    from ._csvtext import write_rows

    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        write_rows(handle, np.asarray(table, dtype=float), first_column)


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


def _grid_warnings(cfg: ScenarioConfig, packet: _Packet, grid: Grid) -> list[str]:
    """The grid must hold the packet many spreads wide and resolve it."""
    warnings, spread, step = [], packet.spread, grid.step
    if cfg.half_width < 10.0 * spread:
        warnings.append(
            f"grid.half_width = {cfg.half_width} is below 10 x initial spread "
            f"({10.0 * spread:.3g}); moments may be unreliable"
        )
    if step > spread:
        # the smallest grid.n and the largest grid.half_width with step <= spread
        k = math.ceil(1 + math.log2(cfg.half_width) - math.log2(spread)) if spread else math.inf
        warnings.append(
            f"grid step 2 x grid.half_width / grid.n = {step:.3g} exceeds the initial spread "
            f"({spread:.3g}); it needs grid.n >= 2^{k} or grid.half_width <= {spread * cfg.grid_n / 2}"
        )
    return warnings


@np.errstate(over="raise", divide="raise", invalid="raise", under="ignore")
def run_scenario(cfg: ScenarioConfig) -> int:
    """Compute one scenario, write its slice and summary files and delete the
    slice files of an earlier run there that this one did not write.

    Returns a process exit status; raises OSError for unwritable output and
    lets numerical errors propagate, floating-point ones as FloatingPointError
    (the command-line wrapper maps those to exit code 2).
    """
    packet, grid = _packet(cfg)
    warnings = _grid_warnings(cfg, packet, grid)
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    if warnings and cfg.strict:
        print("strict mode: warnings are fatal", file=sys.stderr)
        return EXIT_STRICT

    header, slice_at = _SCENARIO_TABLE[cfg.scenario].summary(cfg, packet, grid)
    # every slice's table and row are computed before any file is written, so a
    # failed run writes nothing
    x = grid.points
    tables, rows = [], []
    for t in cfg.times:
        field, row = slice_at(t)
        tables.append(_slice_table(cfg, x, field.values, t))
        rows.append(row)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in cfg.formats:
        # every slice table's first column is x, so its text is rendered once
        from ._csvtext import render  # loaded here, as in _write_csv

        x_words = render(x)
    for index, (t, (slice_header, table)) in enumerate(zip(cfg.times, tables)):
        stem = out_dir / f"{cfg.scenario}_t{index}"
        if "csv" in cfg.formats:
            _write_csv(stem.with_suffix(".csv"), slice_header, table, x_words)
        if "svg" in cfg.formats:
            title = f"{cfg.scenario}: density at t = {t:.17g}"
            _write_svg(stem.with_suffix(".svg"), table[:, 0], table[:, 3], title)  # x, density
    _write_csv(out_dir / f"{cfg.scenario}_summary.csv", header, rows)
    # an earlier run into the same directory may have left slice files that
    # this one did not write: higher indices, or formats it was not asked for
    slice_name = re.compile(re.escape(cfg.scenario) + r"_t(0|[1-9][0-9]*)\.(csv|svg)")
    for path in out_dir.iterdir():
        match = slice_name.fullmatch(path.name)
        if match is None or not path.is_file():
            continue
        if int(match[1]) >= len(cfg.times) or match[2] not in cfg.formats:
            path.unlink()
    return EXIT_OK


def _slice_table(cfg: ScenarioConfig, x: np.ndarray, values: np.ndarray, t: float):
    """One time slice's header and table (plus the rescaled pair for fig2/fig4)."""
    density = np.abs(values) ** 2
    header = ["x", "re_psi", "im_psi", "density"]
    columns = [x, values.real, values.imag, density]
    if _SCENARIO_TABLE[cfg.scenario].rescaled:
        header += ["x_over_t", "t_times_density"]
        columns += [x / t, t * density]
    return header, np.column_stack(columns)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="freepacket",
        description="Free wave-packet evolution scenarios; writes CSV (and optional SVG) artifacts.",
    )
    parser.add_argument("--config", type=Path, default=None, help="key = value config file")
    # every flag but --config stores under the config key it overrides
    parser.add_argument("--scenario", help=f"override scenario: {', '.join(SCENARIOS)}")
    parser.add_argument("--out", dest="output.dir", metavar="OUT", help="override output directory")
    parser.add_argument(
        "--strict", action="store_const", const="true", help="escalate warnings to exit code 3"
    )
    args = parser.parse_args(argv)

    text = ""
    if args.config is not None:
        try:
            text = args.config.read_text()
        except OSError as err:
            print(f"config error: {err}", file=sys.stderr)
            return EXIT_CONFIG

    overrides = {k: v for k, v in vars(args).items() if k in _KNOWN_KEYS and v is not None}
    try:
        cfg = parse_config(text, overrides)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return run_scenario(cfg)
    except (OSError, ValueError, ArithmeticError, MemoryError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
