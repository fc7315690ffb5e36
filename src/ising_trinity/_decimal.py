"""Decimal text of float64 arrays, byte for byte as ``"%.17g" % x`` or ``repr(x)``.

Python formats each float with a correctly rounded ``dtoa`` (Gay 1990), one
call per value.  Here the digits of a whole array come from numpy:

- Split ``x = m * 2**e`` and take ``X = floor(log10 x)``.  The 17-digit
  integer ``y = x * 10**(16 - X)`` is ``m`` times a 106-bit table entry for
  the power of ten, formed as a double-double by Dekker's two-product with
  a Veltkamp split (Dekker 1971).  Its error, about ``2**-104 * 1e17``, is
  seven orders below `_MARGIN`.
- ``"%.17g"`` writes ``D``, the nearest integer to ``y``.
- ``repr`` writes the shortest decimal inside ``x``'s rounding interval,
  ``y`` plus or minus half an ulp: the nearest 16-digit one when it falls
  inside, else ``D``.

A value is certified when it is normal, below 1, its ``D`` has 17 digits,
and no rounding boundary lies within `_MARGIN` of ``y``.  For ``repr`` the
interval must also be symmetric (``m != 1/2``) and hold no 15-digit decimal.
Every other value is formatted by Python itself.

The text is laid out as one NUL-padded 32-byte row per value, built from
small tables of digit groups, heads and exponent tails; dropping every NUL
and splitting at the newline that ends each row gives the strings.
"""

from __future__ import annotations

import functools

import numpy as np

# A boundary closer than this to y, in units of its last digit, is not trusted.
_MARGIN = 1e-7
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a float64 into two 26-bit halves
_POWERS = 326  # 10**p for every p = 16 - X of a normal float below 1


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _tables() -> tuple:
    """``10**p = (hi + lo) * 2**k`` with ``hi`` in ``[1, 2)``, and ``hi`` split in halves;
    then the NUL-padded text pieces of a row (see `decimal_text`)."""
    k = np.array([(10**p).bit_length() - 1 for p in range(_POWERS)])
    sig = [(10**p << 105) >> int(kp) for p, kp in enumerate(k)]
    hi = np.ldexp([float(s >> 53) for s in sig], -52)
    lo = np.ldexp([float(s & ((1 << 53) - 1)) for s in sig], -105)
    quads = [b"%04d" % g for g in range(10**4)]
    trimmed = [q.rstrip(b"0") for q in quads]
    heads = [b"%d." % d for d in range(10)] + [b"%d" % d for d in range(10)]
    heads += [b"0." + b"0" * z + b"%d" % d for z in range(4) for d in range(10)]
    tails = [b"\n"] + [b"e-%02d\n" % e for e in range(1, _POWERS)]
    words = [np.array(t, "S4").view(np.uint32) for t in (quads, trimmed)]
    words += [np.array(t, "S8").view(np.uint64) for t in (heads, tails)]
    return (hi, *_split(hi), lo, k, *words)


def decimal_text(x: np.ndarray, shortest: bool) -> list[bytes]:
    """Each value of ``x`` as ``repr`` writes it if ``shortest``, else as ``"%.17g"``."""
    th, th_h, th_l, tl, k, quads, trimmed, heads, tails = _tables()
    good = (x >= np.finfo(np.float64).tiny) & (x < 1.0)
    xs = np.where(good, x, 0.5)
    m, e = np.frexp(xs)
    X = np.floor(np.log10(xs)).astype(np.int64)
    p = 16 - X
    th, th_h, th_l, tl, shift = th[p], th_h[p], th_l[p], tl[p], e + k[p]
    m_h, m_l = _split(m)
    prod = m * th
    err = ((m_h * th_h - prod) + m_h * th_l + m_l * th_h) + m_l * th_l + m * tl
    # The product as a normalized double-double y + y_lo, scaled by 2**shift.
    y = prod + err
    y_lo = np.ldexp(err - (y - prod), shift)
    np.ldexp(y, shift, out=y)
    # y + y_lo = D + r with |r| <= 1/2; above 2**53 y itself is an integer.
    whole = np.rint(y)
    frac = (y - whole) + y_lo
    r = frac - np.rint(frac)
    D = whole.astype(np.int64) + np.rint(frac).astype(np.int64)
    good &= (D > 10**16) & (D < 10**17) & (np.abs(np.abs(r) - 0.5) > _MARGIN)
    if shortest:
        # In units of y's last digit: half an ulp of x, and the distances from
        # y to the nearest multiple of 10 (16 digits) and of 100 (15 digits).
        half_ulp = np.ldexp(y, -54) / m
        t = D % 10 + r
        up = t > 5.0
        d16 = np.abs(10.0 * up - t)
        u = D % 100 + r
        use16 = d16 < half_ulp - _MARGIN
        # Certified: a symmetric interval that clearly holds or misses the one
        # nearest 16-digit decimal, and clearly misses every 15-digit one.
        good &= (m != 0.5) & (use16 | (d16 > half_ulp + _MARGIN)) & (np.abs(t - 5.0) > _MARGIN)
        good &= np.minimum(np.abs(u), 100.0 - u) > half_ulp + _MARGIN
        D = np.where(use16, D - D % 10 + 10 * up, D)
    # Each value is a row of 32 bytes: a head (its first digit, with "0.000"
    # before it in fixed form and "." after it in exponent form unless it is
    # alone), 16 digits in groups of 4, and a tail ("e-XX" in exponent form)
    # ending in a newline. Trailing zero digits are NUL, and so is all padding.
    rows = np.empty((x.size, 4), np.uint64)
    words = rows.view(np.uint32)
    later = np.zeros(x.size, bool)  # a nonzero digit follows
    for col in (5, 4, 3, 2):
        D, group = np.divmod(D, 10**4)
        words[:, col] = np.where(later, quads[group], trimmed[group])
        later |= group != 0
    kind = np.where(X < -4, ~later, 1 - X)  # "d." / "d" / "0." + (-X - 1) zeros + "d"
    rows[:, 0] = heads.take(10 * kind + D, mode="clip")  # D is the first digit
    rows[:, 3] = tails[np.where(X < -4, -X, 0)]
    rest = np.flatnonzero(~good)
    fmt = repr if shortest else "%.17g".__mod__
    rows.view("S32")[rest, 0] = [fmt(v).encode() + b"\n" for v in x[rest].tolist()]
    flat = rows.view(np.uint8).ravel()
    return flat[flat != 0].tobytes().split(b"\n")[:-1]
