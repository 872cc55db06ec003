"""The package surface: each public name is listed once, by the layer that
owns it, and every inverse transform is taken in one place."""

import ast
import contextlib
import inspect
import io
import math
import os
import platform
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from conftest import count_transforms

import freepacket
from freepacket import (
    GaussianFamily,
    Grid,
    PhysicsParams,
    SquareFamily,
    asymptotic_form,
    derivative_packet,
    evolution,
    from_momentum,
    galilean_boost,
    gaussian_chi,
    hermite_gauss,
    moments,
    numerics,
    observables,
    packets,
    propagate_quadrature,
    propagate_spectral,
    sample,
    short_time_approx,
    spectral_derivative,
    spread_law_from_state,
    spread_prediction,
    square_exact,
    square_momentum,
    to_momentum,
)
from freepacket.cli import SCENARIOS

LAYERS = (evolution, numerics, observables, packets)
README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_all_is_the_sorted_union_of_the_layers():
    union = {name for layer in LAYERS for name in layer.__all__}
    assert freepacket.__all__ == sorted(union)
    assert len(freepacket.__all__) == sum(len(layer.__all__) for layer in LAYERS)


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.__name__)
def test_each_layer_lists_only_what_it_defines(layer):
    for name in layer.__all__:
        obj = getattr(layer, name)
        assert inspect.isfunction(obj) or inspect.isclass(obj), name
        assert obj.__module__ == layer.__name__, name


@pytest.mark.parametrize("name", freepacket.__all__)
def test_top_level_names_are_the_layers_own_objects(name):
    (owner,) = [layer for layer in LAYERS if name in layer.__all__]
    assert getattr(freepacket, name) is getattr(owner, name)


def test_readme_library_example_runs():
    text = README.read_text()
    example = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", example, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    for line in lines:
        _, measured, predicted = map(float, line.split())
        assert measured == pytest.approx(predicted, rel=1e-6)


def _fresh_interpreter_output(code: str, *args: str) -> list[str]:
    """The words that `python -c code args` prints, with the package on its path."""
    paths = [str(README.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = [sys.executable, "-c", code, *args]
    return subprocess.run(argv, capture_output=True, text=True, check=True, env=env).stdout.split()


def test_the_csv_renderer_is_loaded_by_the_first_csv_write():
    # its code and tables hold about 0.5 MB of resident memory, which a
    # process that imports the command line but writes no CSV does not need
    code = "import sys, freepacket.cli; print('freepacket._csvtext' in sys.modules)"
    assert _fresh_interpreter_output(code) == ["False"]


@pytest.mark.parametrize("scenario, loaded", [("fig1", "False"), ("fig3", "True")])
def test_the_fresnel_integrals_are_loaded_by_the_first_square_slice(tmp_path, scenario, loaded):
    # a process that never evaluates the square packet neither compiles nor
    # holds them
    code = (
        "import sys, freepacket.cli\n"
        "print(freepacket.cli.main(['--scenario', sys.argv[1], '--out', sys.argv[2]]))\n"
        "print('freepacket._fresnel' in sys.modules)"
    )
    assert _fresh_interpreter_output(code, scenario, str(tmp_path / "out")) == ["0", loaded]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_each_scenario_runs_with_scipy_blocked(tmp_path, scenario):
    # every transform is numpy.fft's and fresnel is numpy's own, so a process
    # in which importing scipy fails runs every scenario
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import freepacket.cli\n"
        "print(freepacket.cli.main(['--scenario', sys.argv[1], '--out', sys.argv[2]]))"
    )
    assert len(SCENARIOS) == 7
    assert _fresh_interpreter_output(code, scenario, str(tmp_path / "out")) == ["0"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the mmap and trim thresholds are glibc's")
def test_65536_point_evolution_faults_in_no_fresh_pages():
    # importing numerics raises glibc's trim threshold, so the ~2 MiB that a
    # 65536-point transform frees stays in the heap for the next call; a
    # fresh interpreter, since large blocks freed by earlier tests raise it too
    code = (
        "import resource, freepacket as fp\n"
        "fam = fp.GaussianFamily(params=fp.PhysicsParams(), tau=1.0)\n"
        "psi0 = fp.sample(lambda x, t: fp.hermite_gauss(fam, 3, x, t), fp.Grid.centered(64.0, 65536), 0.0)\n"
        "def pair():\n"
        "    fp.moments(fp.propagate_spectral(psi0, 1.0, fam.params).field, fam.params)\n"
        "pair(); pair()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(20):\n"
        "    pair()\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)"
    )
    (faults_per_pair,) = _fresh_interpreter_output(code)
    assert float(faults_per_pair) <= 50


# every inverse transform scipy.fft offers, not its shift helper
INVERSE_TRANSFORMS = {name for name in scipy.fft.__all__ if name.startswith("i") and not name.endswith("shift")}


class _InverseTransformSites(ast.NodeVisitor):
    """(module, innermost enclosing function) of every call to an inverse transform."""

    def __init__(self, module: str):
        self.module, self.scope, self.sites = module, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        callee = node.func
        name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
        if name in INVERSE_TRANSFORMS:
            self.sites.append((self.module, self.scope[-1]))
        self.generic_visit(node)


def test_the_package_takes_every_inverse_transform_in_spectral_apply():
    sites = []
    for path in sorted(Path(freepacket.__file__).parent.glob("*.py")):
        visitor = _InverseTransformSites(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        sites += visitor.sites
    assert sites == [("numerics", "_spectral_apply")]


PARAMS = PhysicsParams(hbar=0.7, mass=1.3)
FAM = GaussianFamily(params=PARAMS, tau=0.5)

# each spectral caller, on a smooth position field f and its momentum field
# phi, with the transforms one call takes
SPECTRAL_CALLERS = {
    "propagate_spectral": (lambda f, phi: propagate_spectral(f, 0.7, PARAMS), Counter(fft=1, ifft=1)),
    "short_time_approx": (lambda f, phi: short_time_approx(f, 0.01, PARAMS, 1.5), Counter(fft=1, ifft=1)),
    "spectral_derivative": (lambda f, phi: spectral_derivative(f, 2), Counter(fft=1, ifft=1)),
    "to_momentum": (lambda f, phi: to_momentum(f, PARAMS), Counter(fft=1)),
    "from_momentum": (lambda f, phi: from_momentum(phi, PARAMS), Counter(ifft=1)),
    # from_momentum, then the packet's and the chirp's 2N-point spectra and
    # the inverse of their product
    "asymptotic_form": (lambda f, phi: asymptotic_form(phi, 0.0, 40.0, PARAMS), Counter(fft=2, ifft=2)),
    "moments": (lambda f, phi: moments(f, PARAMS), Counter(fft=1, ifft=1)),
}


@pytest.mark.parametrize("call, expected", SPECTRAL_CALLERS.values(), ids=SPECTRAL_CALLERS.keys())
def test_each_spectral_caller_takes_its_transforms(monkeypatch, call, expected):
    f = sample(lambda x, t: hermite_gauss(FAM, 2, x, t), Grid.centered(8.0, 256), 0.3)
    phi = to_momentum(f, PARAMS)
    calls = count_transforms(monkeypatch)
    call(f, phi)
    assert calls == expected


# ------------------------------------------- non-finite scalar arguments

SQUARE = SquareFamily(params=PARAMS, a=1.0)
X = Grid.centered(8.0, 256).points
FIELD = sample(lambda x, t: hermite_gauss(FAM, 2, x, t), Grid.centered(8.0, 256), 0.3)
PHI = to_momentum(FIELD, PARAMS)
LAW = spread_law_from_state(moments(FIELD, PARAMS), PARAMS, 0.3)


def _chi(x, t):
    return gaussian_chi(FAM, x, t)


def _square(x, t):
    return square_exact(SQUARE, x, t)


# each call with the name of the scalar it takes as v, and the values of v it
# must refuse by a ValueError that names that scalar: a nan or infinite one
# once gave all-NaN arrays, NaN results, numpy warnings or a message that
# blamed another argument.  Where an infinite t has a finite limit (the
# square, the quadrature and the asymptotic form are 0 there) only nan is
# refused.
NONFINITE = (math.nan, math.inf, -math.inf)
NONFINITE_SCALARS = {
    "hermite_gauss": ("t", NONFINITE, lambda v: hermite_gauss(FAM, 3, X, v)),
    "gaussian_chi": ("t", NONFINITE, lambda v: gaussian_chi(FAM, X, v)),
    "derivative_packet": ("t", NONFINITE, lambda v: derivative_packet(FAM, 2, X, v)),
    "galilean_boost-p": ("p", NONFINITE, lambda v: galilean_boost(_chi, v, 0.0, PARAMS)),
    "galilean_boost-t0": ("t0", NONFINITE, lambda v: galilean_boost(_chi, 1.5, v, PARAMS)),
    "galilean_boost-t": ("t", NONFINITE, lambda v: galilean_boost(_square, 1.5, 0.0, PARAMS)(X, v)),
    "spread_prediction": ("t", NONFINITE, lambda v: spread_prediction(LAW, PARAMS, v)),
    "spread_law_from_state": (
        "t_now",
        NONFINITE,
        lambda v: spread_law_from_state(moments(FIELD, PARAMS), PARAMS, v),
    ),
    "propagate_spectral": (
        "propagate_spectral: t",
        (math.nan,),
        lambda v: propagate_spectral(FIELD, v, PARAMS),
    ),
    "propagate_quadrature": (
        "propagate_quadrature: t",
        (math.nan,),
        lambda v: propagate_quadrature(FIELD, v, PARAMS),
    ),
    "short_time_approx-t": (
        "short_time_approx: t",
        (math.nan,),
        lambda v: short_time_approx(FIELD, v, PARAMS, 1.5),
    ),
    "short_time_approx-pbar": (
        "short_time_approx: pbar",
        NONFINITE,
        lambda v: short_time_approx(FIELD, 0.5, PARAMS, v),
    ),
    "asymptotic_form-t": ("asymptotic_form: t", (math.nan,), lambda v: asymptotic_form(PHI, 0.0, v, PARAMS)),
    "asymptotic_form-xbar": (
        "asymptotic_form: xbar",
        NONFINITE,
        lambda v: asymptotic_form(PHI, v, 40.0, PARAMS),
    ),
    "square_exact": ("t", (math.nan,), lambda v: square_exact(SQUARE, X, v)),
    "square_momentum": ("p", (math.nan,), lambda v: square_momentum(SQUARE, np.array([0.5, v, 3.0]))),
    "Grid.centered": ("half_width", NONFINITE, lambda v: Grid.centered(v, 256)),
    "Grid.centered_offset": ("half_width", NONFINITE, lambda v: Grid.centered_offset(v, 256)),
}


@pytest.mark.parametrize("name, values, call", NONFINITE_SCALARS.values(), ids=NONFINITE_SCALARS.keys())
def test_a_nonfinite_scalar_argument_is_refused_by_name(name, values, call):
    for v in values:
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be .*, got {v}$"):
            call(v)


INFINITE_TIME_LIMITS = {
    "square_exact": lambda t: square_exact(SQUARE, X, t),
    "propagate_quadrature": lambda t: propagate_quadrature(FIELD, t, PARAMS).field.values,
    "asymptotic_form": lambda t: asymptotic_form(PHI, 0.0, t, PARAMS).field.values,
}


@pytest.mark.parametrize("call", INFINITE_TIME_LIMITS.values(), ids=INFINITE_TIME_LIMITS.keys())
def test_an_infinite_time_keeps_its_zero_limit(call):
    for t in (math.inf, -math.inf):
        assert not call(t).any()


def test_the_square_momentum_function_is_zero_at_infinite_momentum():
    # the sinc's limit, with no warning from sin(inf)
    p = np.array([-math.inf, 0.5, math.inf])
    assert np.array_equal(square_momentum(SQUARE, p), [0.0, square_momentum(SQUARE, 0.5), 0.0])
    assert square_momentum(SQUARE, math.inf) == 0.0
    # and where pi c p passes the largest double, though c p (c = a / 2 pi hbar,
    # about 159 here) need not: |sinc| < 6e-309 there
    wide = SquareFamily(params=PhysicsParams(hbar=1.0, mass=1.0), a=1e3)
    assert not square_momentum(wide, np.array([1e306, -1e307, 1e308])).any()
