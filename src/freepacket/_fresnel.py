"""The Fresnel integrals C(u) + i S(u) = int_0^u exp(i pi t^2 / 2) dt in numpy.

numerics.fresnel loads this module on its first call, so a process that never
evaluates the square packet neither compiles nor holds it.  integrals(u)
works on x = |u|, sorted ascending by a stable sort (linear time on the
V-shaped |u| of the square packet), so each region below is a slice of the
sorted x and each x's share of a region's work is a prefix of it:

  x <= 1.6       the power series in x^4 (Abramowitz & Stegun 7.3.11-12),
                 16 terms;
  1.6 < x < 6    the erfc continued fraction of Numerical Recipes' frenel,
                 cut 51 levels deep at 1.6 and 8 at 6;
  6 <= x < 2^54  the auxiliary functions f and g by their asymptotic sums
                 (A & S 7.3.27-28), 9 terms at 6 and 1 beyond 1475;
  x >= 2^54      C = S = 1/2 exactly: x is taken as 2^54, where f is below a
                 quarter of an ulp of 1/2 and g far below.

Each sum stops before its first term below 2^-56 absolute, and the fraction
comes within 2^-56 of its limit.  The last three regions take
C + i S = (1 + i)/2 - w exp(i pi x^2 / 2), with the phase's x^2 reduced
exactly modulo 4 (_phase).
"""

import math

import numpy as np

from .numerics import _cis, _require_finite, _two_product

_SERIES_EDGE, _ASYMPTOTIC_EDGE, _HALF_EDGE = 1.6, 6.0, 2.0**54
# the first term left out of a sum, and the continued fraction's distance
# from its limit, are below this, absolute
_TOLERANCE = 2.0**-56
# pi to 40 digits over 10^40: a ratio of Python integers is correctly
# rounded, so each series coefficient is the double nearest its exact value
_PI_40 = 31415926535897932384626433832795028841971


def _odd_factorial(k: int) -> int:
    """k!! for odd k, and 1 for k = -1."""
    return math.prod(range(1, k + 1, 2))


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


def _auxiliary_table() -> tuple[list[complex], np.ndarray]:
    """For each term m of the auxiliary sums (A & S 7.3.27-28),
        f = (1 / pi x) sum (-1)^m (4m-1)!! / (pi x^2)^2m,
        g = (1 / pi^2 x^3) sum (-1)^m (4m+1)!! / (pi x^2)^2m,
    its coefficient g_m + i f_m and the x below which term m of f or of g
    reaches the tolerance, up to the last term that reaches it at x = 6
    (m = 8)."""
    coefficients, edges = [], []
    while True:
        m = len(edges)
        f, g = _odd_factorial(4 * m - 1), _odd_factorial(4 * m + 1)
        f_edge = (f / (math.pi ** (2 * m + 1) * _TOLERANCE)) ** (1 / (4 * m + 1))
        g_edge = (g / (math.pi ** (2 * m + 2) * _TOLERANCE)) ** (1 / (4 * m + 3))
        if max(f_edge, g_edge) < _ASYMPTOTIC_EDGE:
            return coefficients, np.array(edges)
        coefficients.append((-1) ** m * complex(g, f))
        edges.append(max(f_edge, g_edge))


_SERIES = _series_coefficients()
_AUXILIARY, _AUXILIARY_EDGES = _auxiliary_table()
# one search of the sorted x finds both: how many x <= 1.6, and how many x < 6
_EDGES = np.array([np.nextafter(_SERIES_EDGE, np.inf), _ASYMPTOTIC_EDGE])


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
# per level k = 1 ... 51: the real part c_k (4k - 3) of the scaled b_k, and
# 4 - k, at or above which 5 - depth lies for the x deeper than level k
_FRACTION_ROWS = _FRACTION_SCALES * np.arange(1.0, 4 * _FRACTION_SCALES.size, 4)
_FRACTION_LEVELS = 4.0 - np.arange(1, _FRACTION_SCALES.size + 1)
# x per call of _continued_fraction, whose table of c_k b_k takes up to
# 51 x 16 bytes for each
_FRACTION_BLOCK = 1024


def _continued_fraction(x: np.ndarray, x2: np.ndarray, out: np.ndarray):
    """x h for ascending 1.6 < x < 6 into out, where
    C + i S = (1 + i)/2 - x h e^(i pi x^2 / 2) and h is the erfc continued
    fraction of Numerical Recipes' frenel,
        h = 1 / (b_1 + a_2 / (b_2 + a_3 / (b_3 + ...))),
        b_k = 4k - 3 - i pi x^2,  a_(k+1) = -(2k - 1) 2k,
    cut at depth 5 + floor(120 / x^2): 51 at x = 1.6 and 8 at 6.  That is at
    least a level deeper than the fraction needs to come within the tolerance
    of its limit (48 at 1.6, 15 at 3, 6 at 6; 30-digit evaluations of depth
    200 against each depth, on a 0.01 grid of [1.6, 6)).

    It is evaluated from the bottom with every level k scaled by c_k
    (_fraction_scales): t_k = c_k b_k + 1 / t_(k+1), each x starting
    at its own depth as t = c_depth b_depth.  The x still being iterated are
    a prefix of the ascending x, and a level is a reciprocal and an add on
    that prefix.
    """
    shallower = np.divide(-120.0, x2)
    np.ceil(shallower, out=shallower)  # 5 - depth, non-decreasing in x
    levels = 5 - int(shallower[0])
    # row k - 1: c_k b_k for every x
    b = np.empty((levels, x.size), dtype=complex)
    np.multiply.outer(_FRACTION_SCALES[:levels], x2 * -np.pi, out=b.imag)
    b.real = _FRACTION_ROWS[:levels, None]
    out[...] = b[4 - shallower.astype(np.intp), np.arange(x.size)]
    # deeper[k - 1]: how many x go deeper than level k
    deeper = np.searchsorted(shallower, _FRACTION_LEVELS[:levels], side="right").tolist()
    for k in range(levels - 1, 0, -1):
        head = out[: deeper[k - 1]]
        np.reciprocal(head, out=head)
        head += b[k - 1, : deeper[k - 1]]
    np.reciprocal(out, out=out)
    out *= x


def _auxiliary(x: np.ndarray, x2: np.ndarray, out: np.ndarray):
    """g + i f for ascending 6 <= x <= 2^54, with x2 = x^2, into out, where
    C + i S = (1 + i)/2 - (g + i f) e^(i pi x^2 / 2), each x summing only
    the terms above the tolerance there (9 at x = 6, 1 beyond 1475)."""
    v = np.multiply(x2, np.pi)
    np.reciprocal(v, out=v)  # 1 / (pi x^2)
    v2 = v * v
    # needing[m]: how many x sum term m; those below needing[m + 1] have
    # summed the higher terms already, the rest start here
    needing = [*np.searchsorted(x, _AUXILIARY_EDGES).tolist(), 0]
    for m in range(len(_AUXILIARY) - 1, -1, -1):
        head = out[: needing[m + 1]]
        head *= v2[: needing[m + 1]]
        head += _AUXILIARY[m]
        out[needing[m + 1] : needing[m]] = _AUXILIARY[m]
    out.real *= v
    v *= x  # 1 / (pi x)
    out *= v


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
    mid, far = np.searchsorted(x, _EDGES).tolist()
    z = np.empty(x.size, dtype=complex)  # C + i S at the sorted x
    _series(x[:mid], z[:mid])
    # the rest, x > 1.6: x h or g + i f into outer, then C + i S
    inner, outer = x[mid:], z[mid:]
    square = inner * inner
    cut = far - mid
    for start in range(0, cut, _FRACTION_BLOCK):
        block = slice(start, min(start + _FRACTION_BLOCK, cut))
        _continued_fraction(inner[block], square[block], outer[block])
    _auxiliary(inner[cut:], square[cut:], outer[cut:])
    outer *= _phase(inner)
    np.subtract(0.5 + 0.5j, outer, out=outer)
    cs = np.empty_like(z)
    cs[order] = z
    np.copysign(cs.real, signs, out=cs.real)
    np.copysign(cs.imag, signs, out=cs.imag)
    return cs.real.reshape(u.shape)[()], cs.imag.reshape(u.shape)[()]
