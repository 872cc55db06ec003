"""Float tables as CSV text, each value exactly as "%.17g" prints it.

For a finite nonzero v, "%.17g" prints the 17-digit integer
D = round(|v| 10^(16 - X)), X the decimal exponent after that rounding: in
fixed notation for -4 <= X <= 16, else as d.ddd...e±XX, and without the
fraction's trailing zeros.  `_render_values` takes S = |v| 10^(16 - X) in
np.longdouble, against 10^k correctly rounded, so S is within eps S of the
exact product and D is certain unless frac(S) lies within 4 eps S of 1/2.
Those values, inf, nan and every value where long double is only a double
(eps S >= 1/2) are formatted one at a time with "%.17g" instead.

Each value fills six little-endian 8-byte words, NUL where a byte is unused:
  word 0     sign, the "0.000" lead of 0 > X >= -4, the first digit, a point
  words 1-4  four digits each at the even bytes, a point after any of them
  word 5     "e±XX" and the separator
so a block of rows is its words' bytes with the NULs deleted.
"""

import math

import numpy as np

_BLOCK_ROWS = 1024
_LONGDOUBLE_EPS = float(np.finfo(np.longdouble).eps)
_X_MIN, _X_MAX = -324, 308  # decimal exponents of nonzero doubles
_WORD = np.dtype("<u8")
_SEPARATOR_SHIFT = 40  # bits: the separator is byte 5 of word 5


def _pow10_table() -> np.ndarray:
    """10^k for k = 16 - X, correctly rounded by the string conversion."""
    # powers above the long double range (only where it is a double, whose
    # values all take the per-value path) are never read as numbers
    k_max = int(np.finfo(np.longdouble).maxexp * math.log10(2))
    powers = [f"1e{k}" if k <= k_max else "inf" for k in range(16 - _X_MAX, 17 - _X_MIN)]
    return np.array(powers, dtype=np.longdouble)


def _words(chars: np.ndarray) -> np.ndarray:
    """Rows of 8 ASCII bytes (NUL for none) as little-endian words."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(_WORD)[..., 0]


def _exponent_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per X: word 0 for each sign (index 2 (X - X_MIN) + signbit), word 5,
    and the index of the first fractional digit (0 for 0.000d, 1 for d.dde±XX)."""
    x = np.arange(_X_MIN, _X_MAX + 1)
    fixed = (x >= -4) & (x <= 16)
    lead = np.zeros((x.size, 2, 8), np.uint8)
    lead[:, 1, 0] = ord("-")
    for e in range(-4, 0):
        lead[e - _X_MIN, :, 1 : 2 - e] = np.frombuffer(b"0." + b"0" * (-e - 1), np.uint8)
    tail = np.frombuffer(b"".join(f"e{e:+03d}".encode().ljust(8, b"\0") for e in x.tolist()), _WORD)
    first_fraction = np.where(fixed, np.maximum(x + 1, 0), 1)
    return _words(lead).ravel(), np.where(fixed, 0, tail).astype(_WORD), first_fraction


def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Word 0's first digit and point per digit, words 1-4 per four-digit group
    (a point in every odd byte, for the masks to keep or drop), and each
    group's trailing zero count (4 for 0000)."""
    first = np.zeros((10, 8), np.uint8)
    first[:, 6] = np.arange(10) + ord("0")
    first[:, 7] = ord(".")
    # 16-bit temporaries keep the import's memory high-water mark low
    group = np.arange(10000, dtype=np.int16)
    spread = np.full((10000, 8), ord("."), np.uint8)
    trailing = np.zeros(10000, np.intp)
    for j, p in enumerate((1000, 100, 10, 1)):
        spread[:, 2 * j] = group // p % 10 + ord("0")
        trailing += group % (10000 // p) == 0
    return _words(first), _words(spread), trailing


def _mask_table() -> np.ndarray:
    """AND masks of words 0-4, row w at index 18 tz + f: tz trailing zeros
    of the last 16 digits, f the first fractional digit."""
    tz, f = np.arange(17)[:, None], np.arange(18)
    kept = np.maximum(17 - tz, f)  # digits before `kept` stay
    point = np.where(kept > f, f, 0)  # the point follows digit point - 1; 0: none here
    mask = np.zeros((17, 18, 5, 8), np.uint8)
    mask[:, :, 0, :7] = 0xFF
    mask[:, :, 0, 7] = np.where(point == 1, 0xFF, 0)
    for digit in range(1, 17):
        word, byte = 1 + (digit - 1) // 4, 2 * ((digit - 1) % 4)
        mask[:, :, word, byte] = np.where(digit < kept, 0xFF, 0)
        mask[:, :, word, byte + 1] = np.where(point == digit + 1, 0xFF, 0)
    return np.ascontiguousarray(_words(mask).reshape(17 * 18, 5).T)


_POW10 = _pow10_table()
_LEAD, _TAIL, _FIRST_FRACTION = _exponent_tables()
_FIRST, _SPREAD, _TRAILING = _digit_tables()
_MASKS = _mask_table()


def _render_values(values: np.ndarray) -> np.ndarray:
    """The (n, 6) words of the 1-D float64 `values` as "%.17g", separators unset."""
    with np.errstate(all="ignore"):
        a = np.abs(values)
        normal = np.isfinite(a) & (a != 0)
        a[~normal] = 1.0
        x = np.floor(np.log10(a)).astype(np.intp)
        s = a.astype(np.longdouble)
        s *= _POW10[_X_MAX - x]  # 10^(16 - x)
        d = s.astype(np.int64)
        fraction = (s - d).astype(float)
        margin = s.astype(float)
        margin *= 4 * _LONGDOUBLE_EPS
        certain = normal & (np.abs(fraction - 0.5) > margin) & (d >= 10**16)
    d += fraction > 0.5
    # a log10 one off leaves S outside [1e16, 1e17) or rounds it up to 1e17;
    # such values go the slow way
    certain &= d < 10**17
    d[~certain] = 0  # zeros print as "0"; the others are overwritten below
    first = d // 10**16
    rest = d - first * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    g1, g3 = high // 10**4, low // 10**4
    groups = (g1, high - g1 * 10**4, g3, low - g3 * 10**4)
    tz = _TRAILING[groups[3]]
    zero = np.flatnonzero(groups[3] == 0)
    for group in groups[2::-1]:
        tz[zero] += _TRAILING[group[zero]]
        zero = zero[group[zero] == 0]
    x -= _X_MIN  # now the row of the exponent tables
    key = _FIRST_FRACTION[x]
    key += 18 * tz
    words = np.empty((values.size, 6), _WORD)
    lead = _LEAD[2 * x + np.signbit(values)]
    lead |= _FIRST[first]
    np.bitwise_and(lead, _MASKS[0][key], out=words[:, 0])
    for word, group in enumerate(groups, 1):
        np.bitwise_and(_SPREAD[group], _MASKS[word][key], out=words[:, word])
    np.take(_TAIL, x, out=words[:, 5])
    slow = np.flatnonzero(~(certain | (values == 0)))
    if slow.size:
        text = ["%.17g" % v for v in values[slow].tolist()]
        words[slow, :5] = np.array(text, dtype="S40").view(_WORD).reshape(-1, 5)
        words[slow, 5] = 0
    return words


def write_rows(handle, table: np.ndarray):
    """Write each row of the 2-D float64 `table` to the binary `handle` as
    comma-separated "%.17g" values and a newline, 1024 rows at a time."""
    separators = np.full(table.shape[1], ord(","), _WORD)
    separators[-1] = ord("\n")
    separators <<= _SEPARATOR_SHIFT
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start : start + _BLOCK_ROWS]
        words = _render_values(block.ravel())
        words.reshape(*block.shape, 6)[:, :, 5] |= separators
        handle.write(words.tobytes().translate(None, b"\0"))
