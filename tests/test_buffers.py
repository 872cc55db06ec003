"""Inputs are never written to, and the field-sized temporaries stay few.

Several kernels work in place on their own buffers (the spectral multiply,
the <R> integrand of moments).  np.asarray(x,
dtype=float) and ComplexField both alias a caller's array of the right
dtype, so every evaluator and every field operation is checked to leave its
input bitwise unchanged.  The allocation budgets pin the peak traced memory
of one call at n = 65536, where one complex array is 1 MiB, and of writing
the widest CSV table the command line writes.
"""

import tracemalloc

import numpy as np
import pytest

import freepacket._csvtext  # noqa: F401  the CSV writer's tables are built before its budget is taken
from freepacket import (
    ComplexField,
    GaussianFamily,
    Grid,
    PhysicsParams,
    Representation,
    SquareFamily,
    apply_b_dagger,
    asymptotic_form,
    derivative_packet,
    derivative_packet_asymptote,
    from_momentum,
    galilean_boost,
    gaussian_chi,
    hermite,
    hermite_gauss,
    moments,
    propagate_quadrature,
    propagate_spectral,
    sample,
    short_time_approx,
    spectral_derivative,
    square_exact,
    square_initial,
    square_momentum,
    to_momentum,
)
from freepacket.cli import _write_csv

PARAMS = PhysicsParams(hbar=0.7, mass=1.3)
FAM = GaussianFamily(params=PARAMS, tau=0.5)
SQUARE = SquareFamily(params=PARAMS, a=1.0)

EVALUATORS = {
    "gaussian_chi": lambda x: gaussian_chi(FAM, x, 0.3),
    "hermite": lambda x: hermite(7, x),
    "hermite_gauss": lambda x: hermite_gauss(FAM, 4, x, 0.3),
    "derivative_packet": lambda x: derivative_packet(FAM, 3, x, 0.3),
    "derivative_packet_asymptote": lambda x: derivative_packet_asymptote(FAM, x, 2.0),
    "square_initial": lambda x: square_initial(SQUARE, x),
    "square_momentum": lambda p: square_momentum(SQUARE, p),
    "square_exact": lambda x: square_exact(SQUARE, x, 0.2),
    "galilean_boost": lambda x: galilean_boost(lambda y, t: hermite_gauss(FAM, 2, y, t), 1.5, 0.1, PARAMS)(x, 0.4),
}


@pytest.mark.parametrize("evaluate", EVALUATORS.values(), ids=EVALUATORS.keys())
def test_evaluators_leave_their_argument_unchanged(evaluate):
    x = Grid.centered(8.0, 256).points
    before = x.copy()
    evaluate(x)
    assert x.tobytes() == before.tobytes()


def _smooth_field():
    g = Grid.centered(8.0, 256)
    return sample(galilean_boost(lambda x, t: hermite_gauss(FAM, 2, x, t), 1.5, 0.0, PARAMS), g, 0.3)


FIELD_OPERATIONS = {
    "moments": lambda f: moments(f, PARAMS),
    "propagate_spectral": lambda f: propagate_spectral(f, 0.7, PARAMS),
    "short_time_approx": lambda f: short_time_approx(f, 0.01, PARAMS, 1.5),
    "to_momentum": lambda f: to_momentum(f, PARAMS),
    "propagate_quadrature": lambda f: propagate_quadrature(f, 0.7, PARAMS),
    "spectral_derivative": lambda f: spectral_derivative(f, 2),
    "apply_b_dagger": lambda f: apply_b_dagger(f, FAM, 0.3),
}


@pytest.mark.parametrize("operate", FIELD_OPERATIONS.values(), ids=FIELD_OPERATIONS.keys())
def test_field_operations_leave_their_field_unchanged(operate):
    f = _smooth_field()
    before = f.values.copy()
    operate(f)
    assert f.values.tobytes() == before.tobytes()


def test_momentum_operations_leave_their_field_unchanged():
    phi = to_momentum(_smooth_field(), PARAMS)
    before = phi.values.copy()
    from_momentum(phi, PARAMS)
    asymptotic_form(phi, 0.0, 40.0, PARAMS)
    assert phi.values.tobytes() == before.tobytes()


# ------------------------------------------------------- allocation budgets

MIB = 2**20
# Python objects a call creates besides its arrays (measured: under 10 KiB)
OBJECT_SLACK = 64 * 2**10

BIG = Grid.centered(64.0, 65536)
BIG_FAM = GaussianFamily(params=PARAMS, tau=1.0)


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def big_field():
    return sample(lambda x, t: gaussian_chi(BIG_FAM, x, t), BIG, 0.3)


# peak traced MiB of one call on a 65536-point grid
BUDGETS_MIB = {
    "moments": (4.0, lambda f, x: moments(f, PARAMS)),
    "propagate_spectral": (2.5, lambda f, x: propagate_spectral(f, 1.0, PARAMS)),
    "short_time_approx": (2.5, lambda f, x: short_time_approx(f, 0.1, PARAMS, 0.5)),
    "to_momentum": (3.5, lambda f, x: to_momentum(f, PARAMS)),
    "hermite_gauss": (4.0, lambda f, x: hermite_gauss(BIG_FAM, 5, x, 0.3)),
    "derivative_packet": (5.0, lambda f, x: derivative_packet(BIG_FAM, 6, x, 0.3)),
    "galilean_boost": (
        3.5,
        lambda f, x: galilean_boost(lambda y, t: gaussian_chi(BIG_FAM, y, t), 1.5, 0.0, PARAMS)(x, 0.3),
    ),
    # the 2N chirp values and the lags sliced from them, the weighted copy,
    # the sum and its scaled copy
    "propagate_quadrature": (5.0, lambda f, x: propagate_quadrature(f, 1.0, PARAMS)),
    # the Gaussian's samples read as momentum samples; the peak does not
    # depend on the values
    "asymptotic_form": (
        8.5,
        lambda f, x: asymptotic_form(
            ComplexField(f.values, BIG, Representation.MOMENTUM, PARAMS.hbar), 0.0, 40.0, PARAMS
        ),
    ),
}


@pytest.mark.parametrize("budget, call", BUDGETS_MIB.values(), ids=BUDGETS_MIB.keys())
def test_allocation_budget_at_65536_points(big_field, budget, call):
    x = BIG.points
    peak = _peak_bytes(lambda: call(big_field, x))
    assert peak <= budget * MIB + OBJECT_SLACK, peak / MIB


def test_write_csv_allocation_budget(tmp_path):
    # fig2's widest slice at grid.n = 8192 (t = 3 tau, default physics): x,
    # re_psi, im_psi, density, x/t and t*density; the writer renders it 1024
    # rows at a time
    fam = GaussianFamily(params=PhysicsParams(hbar=1.0, mass=1.0), tau=1.0)
    x = Grid.centered(160.0, 8192).points
    psi = derivative_packet(fam, 2, x, 3.0)
    density = np.abs(psi) ** 2
    table = np.column_stack([x, psi.real, psi.imag, density, x / 3.0, 3.0 * density])
    header = ["x", "re_psi", "im_psi", "density", "x_over_t", "t_times_density"]
    peak = _peak_bytes(lambda: _write_csv(tmp_path / "slice.csv", header, table))
    assert peak <= 2.5 * MIB + OBJECT_SLACK, peak / MIB
