"""Exact vectorized ``%.9g`` text for a two-column float table.

``format_pairs(table)`` returns the bytes of ``b"%.9g,%.9g\\n"`` over
every row of an (R, 2) float table. Each cell is built in a NUL-padded
16-byte slot (two little-endian uint64 words) from a table of 4-digit
ASCII groups; one ``bytes.translate(None, b"\\0")`` drops the padding.

A cell takes the fast path only when its text is certain:

- x is +0.0 (text ``0``), or
- 1e-4 <= x, and with w = 8 - floor(log10 x) decimals, y = x * 10**w,
  m = rint(y): 1e8 <= y, m < 1e9 and |y - m| < 0.5 - 1e-6.

10**w is an exact power, so y is one correctly rounded product, within
half an ulp (under 6e-8 below 1e9) of the exact x * 10**w. The exact
product is then under 0.5 from m, so m is its rounding to 9 significant
digits (a product just under 1e8 rounds up to 1e8, the same text);
m < 1e9 leaves no carry into the next decade, and the exponent, in
[-4, 8], makes ``%g`` write fixed notation with w decimals less their
trailing zeros. Every other cell (-0.0, negatives, inf, nan, exponent
notation, a log10 off by a decade, a carry, a near-tie) is formatted by
``b"%.9g" % x`` into its slot; a run holding a text too long for a slot
(``-1.23456789e-300,``) is formatted by ``%`` whole.
"""

from __future__ import annotations

import numpy as np

CHUNK_ROWS = 4096          # rows per pass: the temporaries stay in cache
_U64 = np.uint64
_ZERO, _DOT = 0x30, 0x2E


def _digit_groups() -> tuple[np.ndarray, np.ndarray]:
    """Every 4-digit group as a uint64 of ASCII bytes in text order, plain
    and with its trailing zeros as NUL (0 is all NUL)."""
    k = np.arange(10000)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], 1)
    shifts = np.arange(4, dtype=_U64) * _U64(8)
    # a digit is kept when it or a later one is nonzero
    kept = np.flip(np.cumsum(np.flip(digits, 1), 1) > 0, 1)
    plain, stripped = ((np.where(mask, digits + _ZERO, 0).astype(_U64)
                        << shifts).sum(1, dtype=_U64)
                       for mask in (True, kept))
    return plain, stripped


def _words(byte_at: dict[int, int]) -> tuple[int, int]:
    """The two words of a 16-byte slot holding byte_at[i] at byte i."""
    slot = sum(value << (8 * pos) for pos, value in byte_at.items())
    return slot & (2**64 - 1), slot >> 64


def _layouts() -> np.ndarray:
    """Per w = 0..13 decimals, the words that lay out the digits d0..d8
    of m, held in the slot's first 9 bytes with trailing zeros as NUL.

    For w <= 8, d0..d(8-w) are the integer part: INT0 turns a NUL among
    them back into '0', KEEP holds them in place, the rest shift one byte
    up and LEAD puts the '.' in the gap. For w >= 9 all nine shift up
    w - 7 bytes behind LEAD, '0.' and w - 9 zeros.
    """
    rows = []
    for w in range(14):
        n_int = max(9 - w, 0)
        lead = ({} if w == 0 else {n_int: _DOT} if w <= 8 else
                {0: _ZERO, 1: _DOT, **{2 + i: _ZERO for i in range(w - 9)}})
        rows.append((*_words(dict.fromkeys(range(n_int), _ZERO)),
                     _words(dict.fromkeys(range(min(n_int, 8)), 0xFF))[0],
                     8 * (0 if w == 0 else 1 if w <= 8 else w - 7),
                     *_words(lead)))
    return np.array(rows, dtype=_U64).T


_PLAIN4, _STRIPPED4 = _digit_groups()
_B_GROUPS = np.concatenate([_PLAIN4, _STRIPPED4])  # + 10000: strip it too
_INT0_LO, _INT0_HI, _KEEP, _SHIFT, _LEAD_LO, _LEAD_HI = _layouts()
_POW10 = np.array([float(10 ** w) for w in range(14)])   # all exact
_SEPS = np.tile(np.array([ord(","), ord("\n")], dtype=_U64) << _U64(56),
                CHUNK_ROWS)
_ROW = b"%.9g,%.9g\n"


def format_pairs(table: np.ndarray) -> bytes:
    """``b"%.9g,%.9g\\n"`` over each row of an (R, 2) float table."""
    cells = np.ascontiguousarray(table, dtype=float).reshape(-1)
    step = 2 * CHUNK_ROWS
    return b"".join(_chunk(cells[i:i + step])
                    for i in range(0, len(cells), step))


def _chunk(x: np.ndarray) -> bytes:
    """Text of whole rows, given as their cells in row order."""
    xc = np.fmin(np.fmax(x, 0.0), 1e9)     # finite; nan and x < 0 give 0
    w = (8.0 - np.floor(np.log10(np.clip(xc, 1e-4, 9e8)))).astype(np.intp)
    p = _POW10[w]
    y = xc * p
    m = np.rint(y)
    fast = ((x >= 1e-4) & (y >= 1e8) & (m < 1e9)
            & (np.abs(y - m) < 0.5 - 1e-6))
    q = m / p
    has_frac = np.floor(q) != q             # exact: q < 1e9, 10**-w apart

    # m = a bbbb cccc; float division and floor are exact below 2**53
    hi = np.floor(m / 1e4)
    c = (m - hi * 1e4).astype(np.intp)
    a = np.floor(hi / 1e4)
    b = (hi - a * 1e4).astype(np.intp)
    c_text = _STRIPPED4[c]
    lo = ((a + _ZERO).astype(_U64)
          | (_B_GROUPS[b + 10000 * (c == 0)] << _U64(8))
          | (c_text << _U64(40)))
    lo |= _INT0_LO[w]
    hi_word = (c_text >> _U64(24)) | _INT0_HI[w]
    keep, shift = _KEEP[w], _SHIFT[w]
    moved = lo & ~keep
    words = np.empty((len(x), 2), dtype=_U64)
    words[:, 0] = (lo & keep) | (moved << shift) | (_LEAD_LO[w] * has_frac)
    words[:, 1] = ((moved >> (_U64(64) - shift)) | (hi_word << shift)
                   | (_LEAD_HI[w] * has_frac) | _SEPS[:len(x)])

    # +0.0: m is 0, so the slot holds one '0' and NULs
    zero = x.view(np.int64) == 0
    slots = memoryview(words).cast("B")
    for i in np.flatnonzero(~(fast | zero)).tolist():
        text = b"%.9g" % x[i] + (b"\n" if i % 2 else b",")
        if len(text) > 16:
            return (_ROW * (len(x) // 2)) % tuple(x.tolist())
        slots[16 * i:16 * i + 16] = text.ljust(16, b"\0")
    return words.tobytes().translate(None, b"\0")
