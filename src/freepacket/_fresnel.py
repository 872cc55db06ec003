"""The Fresnel integrals C(u) + i S(u) = int_0^u exp(i pi t^2 / 2) dt in numpy.

numerics.fresnel loads this module on its first call, so a process that never
evaluates the square packet neither compiles nor holds it.  integrals(u)
works on x = |u|, sorted ascending by a stable sort (linear time on the
V-shaped |u| of the square packet), so each region below is a slice of the
sorted x and each x's share of a level of the continued fraction is a
prefix of it:

  x <= 1.6        the power series in x^4 (Abramowitz & Stegun 7.3.11-12),
                  16 terms, each stopping before its first term below
                  2^-56 absolute;
  1.6 < x < 2^54  C + i S = (1 + i)/2 - x h exp(i pi x^2 / 2), with h the
                  erfc continued fraction of Numerical Recipes' frenel,
                  cut 51 levels deep at 1.6, 8 at 6 and 5 beyond 11, and
                  the phase's x^2 reduced exactly modulo 4 (_phase);
  x >= 2^54       taken as 2^54, where x h is below a quarter of an ulp of
                  1/2, so C = S = 1/2 exactly.

Against 50-digit mpmath the series is within 4.5e-16 absolute (its terms
near 1.6 cancel from about 1) and the fraction within 1.2e-16 (4,504 points
of [1.6, 2^54] and the test suite's points up to 1e6).  Beyond 11 each x
takes five levels of a reciprocal and two adds: 0.62-0.70 ms per call on the
8192 points of a square-packet slice (2-core x86-64 VM, numpy 2.4).
"""

import math

import numpy as np

from .numerics import _cis, _require_finite, _two_product

_SERIES_EDGE, _HALF_EDGE = 1.6, 2.0**54
# the first term left out of a series, and the continued fraction's distance
# from its limit, are below this, absolute
_TOLERANCE = 2.0**-56
# pi to 40 digits over 10^40: a ratio of Python integers is correctly
# rounded, so each series coefficient is the double nearest its exact value
_PI_40 = 31415926535897932384626433832795028841971


def _series_coefficients() -> list[complex]:
    """c_n + i s_n, highest n first, with C = x sum c_n x^4n and
    S = x^3 sum s_n x^4n (Abramowitz & Stegun 7.3.11-12),
        c_n = (-1)^n (pi/2)^2n / ((2n)! (4n+1)),
        s_n = (-1)^n (pi/2)^(2n+1) / ((2n+1)! (4n+3)),
    up to the last n whose terms reach the tolerance at x = 1.6 (n = 15)."""

    def term(k: int) -> float:  # (pi/2)^k / (k! (2k+1)), correctly rounded
        return _PI_40**k / (2**k * 10 ** (40 * k) * math.factorial(k) * (2 * k + 1))

    coefficients = []
    while True:
        n = len(coefficients)
        c, s = term(2 * n), term(2 * n + 1)
        x = _SERIES_EDGE
        if max(c * x ** (4 * n + 1), s * x ** (4 * n + 3)) < _TOLERANCE:
            return coefficients[::-1]
        coefficients.append((-1) ** n * complex(c, s))


_SERIES = _series_coefficients()


def _series(x: np.ndarray, out: np.ndarray):
    """C + i S for 0 <= x <= 1.6 into out, by Horner in x^4 on both sums at once."""
    w = x * x
    x3 = w * x
    w *= w
    out[...] = _SERIES[0]
    for c in _SERIES[1:]:
        out *= w
        out += c
    out.real *= x
    out.imag *= x3


def _fraction_scales() -> np.ndarray:
    """c_k, k = 1 ... 51, with c_1 = 1 and c_k c_(k+1) a_(k+1) = 1: scaling
    level k of the continued fraction by c_k turns every partial numerator
    into 1 and leaves its value unchanged."""
    scales = [1.0]
    for k in range(1, 5 + int(120 / _SERIES_EDGE**2)):
        scales.append(1.0 / (scales[-1] * -(2 * k - 1) * 2 * k))
    return np.array(scales)


_FRACTION_SCALES = _fraction_scales()
# per level k = 1 ... 51: the real part c_k (4k - 3) of the scaled b_k
_FRACTION_REALS = _FRACTION_SCALES * np.arange(1.0, 4 * _FRACTION_SCALES.size, 4)


def _continued_fraction(x: np.ndarray, x2: np.ndarray, out: np.ndarray):
    """x h for ascending 1.6 < x <= 2^54 into out, where
    C + i S = (1 + i)/2 - x h e^(i pi x^2 / 2) and h is the erfc continued
    fraction of Numerical Recipes' frenel,
        h = 1 / (b_1 + a_2 / (b_2 + a_3 / (b_3 + ...))),
        b_k = 4k - 3 - i pi x^2,  a_(k+1) = -(2k - 1) 2k,
    cut at depth 5 + floor(120 / x^2): 51 at x = 1.6, 8 at 6 and 5 beyond 11.
    That is at least a level deeper than the fraction needs to come within
    the tolerance of its limit (48 at 1.6, 15 at 3, 6 at 6, 4 at 11, 2 at
    100 and 1 from 1e6 to 2^54; evaluations of depth 200 against each depth
    in 30 digits on a 0.01 grid of [1.6, 6), and in 40 at these points).

    It is evaluated from the bottom with every level k scaled by c_k
    (_fraction_scales): t_k = c_k b_k + 1 / t_(k+1), each x starting at its
    own depth as t = c_depth b_depth, which is that add onto the zero it
    holds until then.  The x at level k or deeper are a prefix of the
    ascending x, so a level is a reciprocal on the x that came from below
    and an add of c_k b_k on that prefix.
    """
    shallower = np.ceil(np.divide(-120.0, x2))  # 5 - depth, non-decreasing in x
    # reach[k - 1]: how many x reach level k, that is 5 - depth <= 5 - k
    levels = np.arange(4.0, 4.0 - _FRACTION_SCALES.size, -1.0)
    reach = [*np.searchsorted(shallower, levels, side="right").tolist(), 0]
    v = np.multiply(x2, -np.pi)
    out[...] = 0
    for k in range(np.count_nonzero(reach), 0, -1):
        head = out[: reach[k]]  # the x that came from level k + 1
        np.reciprocal(head, out=head)
        level = slice(reach[k - 1])  # the x at level k or deeper
        out.real[level] += _FRACTION_REALS[k - 1]
        out.imag[level] += v[level] * _FRACTION_SCALES[k - 1]
    np.reciprocal(out, out=out)
    out *= x


# i^q for q = 0, 1, 2, -2, -1 (a negative index counts from the end)
_QUARTER_TURNS = np.array([1, 1j, -1, -1, -1j])


def _phase(x: np.ndarray) -> np.ndarray:
    """exp(i pi x^2 / 2) for 0 <= x <= 2^54.

    x^2 = x2 + e exactly (numerics._two_product), and r = x2 - 4 rint(x2 / 4)
    and its distance f = r - q from the nearest integer q are exact, so the
    phase is i^q exp(i (pi/2)(f + e)), with an angle within pi/4 that loses
    only its own rounding whatever the size of x.  On that range np.cos and
    np.sin took half the time they take on [-pi, pi] (glibc, 8192 points).
    """
    x2, e = _two_product(x, x)
    r = np.multiply(x2, 0.25)
    np.rint(r, out=r)
    r *= -4.0
    r += x2  # in [-2, 2]
    q = np.rint(r)
    r -= q
    r += e
    r *= np.pi / 2
    phase = _cis(r)
    phase *= _QUARTER_TURNS.take(q.astype(np.intp))
    return phase


def integrals(u):
    """(C(u), S(u)) as numerics.fresnel documents them."""
    u = np.asarray(u, dtype=float)
    signs = u.ravel()
    x = np.abs(signs)
    order = np.argsort(x, kind="stable")
    x = x[order]
    if x.size and not x[-1] < _HALF_EDGE:  # nan and inf sort last
        _require_finite(x[-1], "fresnel argument |u|")
        np.minimum(x, _HALF_EDGE, out=x)
    mid = np.searchsorted(x, _SERIES_EDGE, side="right")
    z = np.empty(x.size, dtype=complex)  # C + i S at the sorted x
    _series(x[:mid], z[:mid])
    # the rest, x > 1.6: x h into outer, then C + i S
    inner, outer = x[mid:], z[mid:]
    _continued_fraction(inner, inner * inner, outer)
    outer *= _phase(inner)
    np.subtract(0.5 + 0.5j, outer, out=outer)
    cs = np.empty_like(z)
    cs[order] = z
    np.copysign(cs.real, signs, out=cs.real)
    np.copysign(cs.imag, signs, out=cs.imag)
    return cs.real.reshape(u.shape)[()], cs.imag.reshape(u.shape)[()]
