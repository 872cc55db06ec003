"""Force-free quantum wave-packet evolution.

Exact propagation of one-dimensional free packets, the universal spread law,
the short-time and large-time approximations with their rigorous error
bounds, and the closed-form packet families (shape-invariant Hermite-Gauss
packets, shape-changing derivative packets, the square packet with its
Fresnel-integral evolution).

Each layer's `__all__` is its public API; the package re-exports all four.
"""

from . import evolution, numerics, observables, packets
from .evolution import *  # noqa: F403
from .numerics import *  # noqa: F403
from .observables import *  # noqa: F403
from .packets import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted({*evolution.__all__, *numerics.__all__, *observables.__all__, *packets.__all__})
