"""Float tables as CSV text, each value exactly as "%.17g" prints it.

For a finite nonzero v, "%.17g" prints the 17-digit integer
D = round(|v| 10^(16 - X)), rounded half to even, X the decimal exponent of
|v| (one more where D rounds up to 10^17): in fixed notation for
-4 <= X <= 16, else as d.ddd...e±XX, and without the fraction's trailing
zeros.  `_scaled` takes S = |v| 10^(16 - X) as s + t in float64 arithmetic:
s + e is Dekker's exact two-product (1971) of |v| with hi, and
t = e + |v| lo, where hi is 10^(16 - X) correctly rounded and lo the
remainder correctly rounded, both from Python integers, so hi + lo is
10^(16 - X) to within a relative u^2 (u = 2^-53).  For X < -203 (X > 192)
|v| is first scaled by 2^192 (2^-192) and the power by the inverse, so
neither Veltkamp's split nor a partial product leaves the normal range.
Where 10^(16 - X) is a double (-6 <= X <= 16) lo = 0 and s + t = S exactly,
so ties round half to even like "%.17g".  Elsewhere |S - s - t| <=
(4 + 6u) u^2 S < 2^-46 for S < 2^57 (u^2 from the pair, (1 + u) u^2 from
rounding |v| lo, since |lo| <= (1 + u) u 10^(16 - X), and 2 (1 + u)^2 u^2
from rounding e + |v| lo, since |e| and |v lo| are each at most
(1 + u)^2 u S), and D is certain unless frac(S) lies within 2^-46 of 1/2.
Those values, inf and nan are formatted one at a time with "%.17g" instead.
A log10 one off (|v| next to a power of ten) puts S outside [1e16, 1e17);
such values are taken again at the neighbouring X.

Each value fills six little-endian 8-byte words, NUL where a byte is unused:
  word 0     sign, the "0.000" lead of 0 > X >= -4, the first digit, a point
  words 1-4  four digits each at the even bytes, a point after any of them
  word 5     "e±XX" and the separator
so a block of rows is its words' bytes with the NULs deleted.
"""

import numpy as np

from .numerics import _two_product

_BLOCK_ROWS = 1024
_X_MIN, _X_MAX = -324, 308  # decimal exponents of nonzero doubles
_WORD = np.dtype("<u8")
_SEPARATOR_SHIFT = 40  # bits: the separator is byte 5 of word 5


def _power_table() -> np.ndarray:
    """Per X: the scale 2^s of |v|, the pair hi + lo for 10^(16 - X) 2^-s,
    each correctly rounded from Python integers, and the margin of frac(S)
    around 1/2 (0 where lo = 0: S is exact)."""
    rows = []
    for x in range(_X_MIN, _X_MAX + 1):
        k, s = 16 - x, 192 if x < -203 else -192 if x > 192 else 0
        num = 10 ** max(k, 0) << max(-s, 0)
        den = 10 ** max(-k, 0) << max(s, 0)
        hi = num / den  # int / int is correctly rounded
        n, d = hi.as_integer_ratio()
        lo = (num * d - n * den) / (den * d)  # the remainder, correctly rounded
        rows.append((2.0**s, hi, lo, 0.0 if lo == 0 else 2.0**-46))
    return np.array(rows).T


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


_SCALE, _HI, _LO, _MARGIN = _power_table()
_LEAD, _TAIL, _FIRST_FRACTION = _exponent_tables()
_FIRST, _SPREAD, _TRAILING = _digit_tables()
_MASKS = _mask_table()


def _scaled(a: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D = round(S), half to even, and S - D in [-1/2, 1/2] for
    S = a 10^(16 - X), `row` = X - X_MIN, as the module docstring bounds them."""
    a = a * _SCALE[row]
    s, t = _two_product(a, _HI[row])
    t += a * _LO[row]
    # s >= 2^53 is even, so s + rint(t) rounds S half to even
    r = np.rint(t)
    t -= r
    return s.astype(np.int64) + r.astype(np.int64), t


def _printf(values: np.ndarray) -> np.ndarray:
    """The (n, 6) words of each of the 1-D `values` formatted with "%.17g"."""
    text = ["%.17g" % v for v in values.tolist()]
    words = np.zeros((len(text), 6), _WORD)
    words[:, :5] = np.array(text, dtype="S40").view(_WORD).reshape(-1, 5)
    return words


def _render_values(values: np.ndarray, out: np.ndarray):
    """Write the words of the float64 `values` as "%.17g" into `out`, of
    shape values.shape + (6,), separators unset."""
    v = values.ravel()
    with np.errstate(all="ignore"):
        a = np.abs(v)
        normal = np.isfinite(a) & (a != 0)
        a[~normal] = 1.0
        x = np.floor(np.log10(a)).astype(np.intp)
    x -= _X_MIN  # now the row of the tables
    d, f = _scaled(a, x)
    # a log10 one off puts floor(S) outside [1e16, 1e17), and D may round up
    # to 10^17: each moves to the neighbouring X, where a move down may round
    # up to 10^17 and move back
    off = np.flatnonzero((d - (f < 0) < 10**16) | (d >= 10**17))
    while off.size:
        x[off] += np.where(d[off] < 10**17, -1, 1)
        d[off], f[off] = _scaled(a[off], x[off])
        off = off[d[off] >= 10**17]
    certain = normal & (0.5 - np.abs(f) >= _MARGIN[x])
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
    key = _FIRST_FRACTION[x]
    key += 18 * tz
    lead = _LEAD[2 * x + np.signbit(v)]
    lead |= _FIRST[first]
    shape = values.shape
    np.bitwise_and(lead.reshape(shape), _MASKS[0][key].reshape(shape), out=out[..., 0])
    for word, group in enumerate(groups, 1):
        np.bitwise_and(_SPREAD[group].reshape(shape), _MASKS[word][key].reshape(shape), out=out[..., word])
    out[..., 5] = _TAIL[x].reshape(shape)
    slow = ~(certain | (v == 0))
    if slow.any():
        out[slow.reshape(shape)] = _printf(v[slow])
    return out


def render(values: np.ndarray) -> np.ndarray:
    """The (n, 6) words of the 1-D float64 `values`, for `write_rows`."""
    return _render_values(values, np.empty((values.size, 6), _WORD))


def write_rows(handle, table: np.ndarray, first_column: np.ndarray | None = None):
    """Write each row of the 2-D float64 `table` to the binary `handle` as
    comma-separated "%.17g" values and a newline, 1024 rows at a time.
    `first_column`, if given, is `render(table[:, 0])`, rendered once for
    every table that shares that column."""
    separators = np.full(table.shape[1], ord(","), _WORD)
    separators[-1] = ord("\n")
    separators <<= _SEPARATOR_SHIFT
    given = int(first_column is not None)
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start : start + _BLOCK_ROWS]
        words = np.empty((*block.shape, 6), _WORD)
        if given:
            words[:, 0] = first_column[start : start + _BLOCK_ROWS]
        # column by column, so that each word's writes run down the block
        _render_values(block[:, given:].T, words[:, given:].transpose(1, 0, 2))
        words[:, :, 5] |= separators
        handle.write(words.tobytes().translate(None, b"\0"))
