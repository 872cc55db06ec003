from collections import Counter

import numpy as np
import pytest
import scipy.fft

from freepacket import Grid, GaussianFamily, PhysicsParams, quadrature_norm2


# The physics the scale-covariance tests run at: in the units gamma0 =
# sqrt(hbar tau / m), hbar / gamma0 and tau every number must be that of
# m = hbar = 1.  The momentum lattice reaches about 1e156 at m = 1e308 and the
# positions about 1e155 at hbar = 1e308, so nothing on the way may square a
# momentum, a mass or a position.
SCALE_CASES = {
    **{f"mass={m:g}": PhysicsParams(mass=m) for m in (1e-300, 1e-150, 1e150, 1e300, 1e308)},
    **{f"hbar={h:g}": PhysicsParams(hbar=h) for h in (1e-300, 1e300, 1e308)},
}


@pytest.fixture(scope="session")
def params():
    return PhysicsParams(hbar=1.0, mass=1.0)


@pytest.fixture(scope="session")
def gauss_fam(params):
    return GaussianFamily(params=params, tau=1.0)


@pytest.fixture(scope="session")
def grid():
    """Workhorse grid: [-40, 40), n = 2048."""
    return Grid.centered(40.0, 2048)


@pytest.fixture(scope="session")
def wide_grid():
    """For long propagations and moment sweeps: [-64, 64), n = 4096."""
    return Grid.centered(64.0, 4096)


def rel_l2(field_a, field_b):
    """Relative L2 distance between two fields on the same grid."""
    step = field_a.lattice_step
    diff = np.sqrt(np.trapezoid(np.abs(field_a.values - field_b.values) ** 2, dx=step))
    scale = np.sqrt(quadrature_norm2(field_b))
    return diff / scale


def rel_l2_values(values_a, values_b, step):
    diff = np.sqrt(np.trapezoid(np.abs(values_a - values_b) ** 2, dx=step))
    scale = np.sqrt(np.trapezoid(np.abs(values_b) ** 2, dx=step))
    return diff / scale


def count_transforms(monkeypatch) -> Counter:
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
    return calls
