"""CSV text of a float table, exactly as ``'%.17g' % x`` writes each value,
and the one function that writes an output file.

:func:`csv_text` is the one writer of numeric tables (the solve CSV and the
recorded paths).  CPython's ``'%.17g'`` asks for more digits than the quick
path of Gay's dtoa (D. M. Gay, *Correctly rounded binary-decimal and
decimal-binary conversions*, 1990) serves, so it formats every float with
bignum arithmetic.  Here the same bytes come from a few dozen numpy
operations per block of values.  For finite ``x`` with ``1e-270 <= |x| <=
1e270``:

1. **Exponent.**  ``X = floor(log10|x|)`` from ``np.log10``, which is off by
   at most one next to a power of ten; two compares against the smallest
   double ``>= 10^k`` (exact, from a double-double table of ``10^k``) settle
   it, so ``10^X <= |x| < 10^(X+1)`` holds exactly.
2. **Digits.**  ``p = |x| 10^(16-X)`` lies in ``[1e16, 1e17)``, and the 17
   significant digits are the integer ``D`` nearest to it.  With ``10^(16-X)
   = H + L + d`` (``H``, ``L`` the table's doubles, ``|d| <= 2^-106 H``),
   Dekker's two-product gives ``|x| H = p_hi + e`` exactly, and ``t = fl(e +
   fl(|x| L))``.  Against the exact ``p``, ``p_hi + t`` is off by at most
   ``2^-106 P`` from ``d``, ``2^-106 P`` from rounding ``|x| L``, and
   ``2^-105 P`` from rounding the sum (``|t| <= 2^-52 P``), with ``P =
   |x| H < 2^57``: in all ``2^-104 P < 2^-47``, about 7e-15.  ``p_hi`` is an
   integer (it exceeds ``2^53``), so ``D = p_hi + rint(t)`` and the fraction
   ``t - rint(t)`` is exact.  Where that fraction is within ``_TIE_BAND =
   2^-40`` of one half, 128 times the error bound, the rounding direction is
   not decided here, unless ``10^(16-X)`` is a double (``L = 0``, ``-6 <= X
   <= 16``): then ``p_hi + t`` is ``p`` exactly, and ``rint`` rounds an exact
   tie to even, as ``'%.17g'`` does (``p_hi`` is even).  ``D == 10^17``
   (``p`` rounded up into the next decade) becomes ``X + 1``, ``D = 10^16``.
3. **Text.**  ``%g`` layout: fixed notation for ``-4 <= X < 17``, else
   ``d.ddde±XX``; trailing zeros after the point and a bare point are
   dropped, and ``-0`` keeps its sign.  Each value gets a fixed-width slot of
   bytes: sign, the ``0.000`` prefix of small fixed values, the digits (read
   four at a time from a table of ``%04d`` strings) with a point slot after
   each, the exponent, and the separator.  The per-exponent bytes come from
   one template row per ``X``; bytes a value does not use are 0, and one
   ``bytes.translate`` drops them.

Python's ``'%.17g'`` writes exactly the values step 2 cannot decide:
non-finite values, ``|x|`` outside ``[1e-270, 1e270]`` (where ``10^(16-X)``
or the split would leave the double range), and the near-ties outside ``-6
<= X <= 16``.  Zero is written here, as ``0`` or ``-0``.

Work goes in blocks of rows whose slot matrix stays under 128 KiB, the size
at which glibc's malloc starts to serve a block from fresh pages.  The
tables are built on the first call, never at import.

:func:`write_file` writes every output CSV (solve, sweep and recorded
paths).  It rewrites an existing file in place and then cuts it where the
new text ends, instead of opening it with ``O_TRUNC``: on ext4 the
truncating open of a file that already holds data costs several times the
whole in-place rewrite of a 2 KB sweep table or a 240 KB solve table.  The
truncate frees the file's blocks, and ext4's ``auto_da_alloc`` then
allocates the new text's blocks when the file is closed, so that they
reach the disk with the next journal commit (the replace-via-truncate
heuristic, Linux ``Documentation/admin-guide/ext4.rst``).  The trade is
crash behaviour: nothing is synced, as before, so after a power loss
within the writeback window a rewritten file can hold old pages among new
ones, where a truncating rewrite could leave it empty (Pillai et al., *All
File Systems Are Not Created Equal*, OSDI 2014).  A rerun of the same
config and seed writes the same bytes again.
"""

from __future__ import annotations

import functools
import os
import stat

import numpy as np

__all__ = ["csv_text", "write_file"]

_SAFE = 1e270                   # |x| in [1/_SAFE, _SAFE] is formatted here
_LO_K, _HI_K = -271, 287        # 10^k needed: 10^X, 10^(X+1) and 10^(16-X)
_TIE_BAND = 2.0 ** -40
_SPLIT = 134217729.0            # 2^27 + 1, Dekker's splitter for doubles
# a value's slot: sign, '0.000' prefix, 17 digits each with a point slot
# after it, exponent ('e', sign, up to three digits), separator
_WIDTH = 45
_DIGIT = 6                      # digit i at _DIGIT + 2 i, its point slot right after
_EXPONENT = 39
_BLOCK_BYTES = 128 * 1024


@functools.cache
def _tables():
    """Powers of ten as double-doubles, their thresholds, and the text tables.

    Returns ``(hi, lo, thr, quads, template)``, all but ``quads`` indexed
    by ``k - _LO_K``: ``hi + lo`` is ``10^k`` to about 2^-106 relative and
    ``thr`` the smallest double ``>= 10^k``; ``quads[i]`` the four bytes of
    ``'%04d' % i``; ``template`` the slot of exponent ``k`` with everything
    but sign, digits and separator.
    """
    hi, lo, rows = [], [], []
    for k in range(_LO_K, _HI_K + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den                               # correctly rounded
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
        row = bytearray(_WIDTH)
        if -4 <= k < 0:
            row[1:2 - k] = b"0." + b"0" * (-k - 1)
        elif 0 <= k < 16:
            row[_DIGIT + 2 * k + 1] = ord(".")
        elif k != 16:
            row[_DIGIT + 1] = ord(".")
            exponent = b"e%+03d" % k
            row[_EXPONENT:_EXPONENT + len(exponent)] = exponent
        rows.append(bytes(row))
    hi, lo = np.array(hi), np.array(lo)
    thr = np.where(lo > 0, np.nextafter(hi, np.inf), hi)
    quads = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    quads = quads.view(np.uint32).ravel()
    template = np.frombuffer(b"".join(rows), f"V{_WIDTH}")
    return hi, lo, thr, quads, template


def csv_text(table) -> bytes:
    """CSV body of a 2-D float table: ``'%.17g' % x`` per value, ``,`` and ``\\n``."""
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    step = max(1, _BLOCK_BYTES // (_WIDTH * cols))
    seps = np.full((step, cols), ord(","), np.uint8)
    seps[:, -1] = ord("\n")
    seps = seps.ravel()
    blocks = []
    for start in range(0, rows, step):
        values = table[start:start + step].ravel()
        blocks.append(_block_text(values, seps[:values.size]))
    return b"".join(blocks)


def _block_text(x: np.ndarray, seps: np.ndarray) -> bytes:
    """The text of the values ``x``, each followed by its separator byte."""
    hi, lo, thr, quads, template = _tables()
    n = x.size
    ax = np.abs(x)
    zero = ax == 0
    ok = (ax >= 1 / _SAFE) & (ax <= _SAFE)
    ax = np.where(ok, ax, 1.0)          # zero's digit '1' becomes '0' below
    # step 1: X - _LO_K, the exact decimal exponent as a table index (np.log10
    # is not correctly rounded on every build: either compare may correct it)
    X = np.log10(ax)
    np.floor(X, out=X)
    X = X.astype(np.intp)
    X -= _LO_K
    X -= ax < thr[X]
    X += ax >= thr[X + 1]
    # step 2: p = |x| 10^(16-X) as p + t, rounded to the 17-digit integer D
    j = (16 - 2 * _LO_K) - X
    b = hi[j]
    p = ax * b
    c = _SPLIT * ax
    ah = c - (c - ax)
    al = ax - ah
    c = _SPLIT * b
    bh = c - (c - b)
    bl = b - bh
    low = lo[j]
    t = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + ax * low
    r = np.rint(t)
    undecided = np.abs(np.abs(t - r) - 0.5) < _TIE_BAND
    undecided &= low != 0.0
    undecided |= ~ok
    undecided &= ~zero
    D = p.astype(np.int64)
    D += r.astype(np.int64)
    up = D == 10 ** 17
    X += up
    D[up] = 10 ** 16
    # step 3: digits D = d0 g1 g2 g3 g4 (one digit, four groups of four)
    hi9 = D // 10 ** 8
    lo8 = D - hi9 * 10 ** 8
    groups = np.empty((n, 5), np.intp)
    groups[:, 0] = hi9 // 10 ** 8
    hi8 = hi9 - groups[:, 0] * 10 ** 8
    groups[:, 1] = hi8 // 10 ** 4
    groups[:, 2] = hi8 - groups[:, 1] * 10 ** 4
    groups[:, 3] = lo8 // 10 ** 4
    groups[:, 4] = lo8 - groups[:, 3] * 10 ** 4
    groups[zero, 0] = 0
    digits = quads.take(groups).view(np.uint8)[:, 3:]      # '000d' then 16 digits
    slots = template[X].view(np.uint8).reshape(n, _WIDTH)
    slots[:, _DIGIT:_EXPONENT:2] = digits
    X += _LO_K
    # digits after the point stop at the last nonzero one; P is the digit the
    # point follows (negative when the prefix holds it)
    short = np.flatnonzero(digits[:, 16] == ord("0"))
    if short.size:
        P = X[short]
        P[(P < -4) | (P >= 17)] = 0
        kept = digits[short]
        nonzero = kept != ord("0")
        nonzero[:, 0] = True
        last = 16 - np.argmax(nonzero[:, ::-1], axis=1)
        kept[np.arange(17) > np.maximum(last, P)[:, None]] = 0
        slots[short, _DIGIT:_EXPONENT:2] = kept
        bare = (last <= P) & (P < 16)
        slots[short[bare], _DIGIT + 1 + 2 * P[bare]] = 0
    slots[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    slots[:, -1] = seps
    for i in np.flatnonzero(undecided):
        text = _python_text(x[i])
        slots[i, :-1] = 0
        slots[i, :len(text)] = np.frombuffer(text, np.uint8)
    return slots.tobytes().translate(None, b"\0")


def _python_text(x: float) -> bytes:
    """One value the kernel cannot decide, as Python writes it."""
    return b"%.17g" % x


def write_file(path, *parts: bytes) -> None:
    """Write ``parts`` to ``path`` one after another; the file ends where they end.

    The file is opened as ``open(path, "wb")`` opens it, without ``O_TRUNC``:
    created with mode ``0o666`` less the umask if missing, through a
    symlink, keeping an existing file's inode, mode and hard links.  Every
    part is written in full over the old text, and a regular file is then
    cut at the bytes written, even when a write raises: after an error the
    file holds a prefix of the new text and nothing of the old.  A target
    that is not a regular file (``/dev/null``, a FIFO, a tty) is written,
    never truncated.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    written = 0
    try:
        for part in parts:
            view = memoryview(part)
            while view:
                n = os.write(fd, view)
                written += n
                view = view[n:]
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
        finally:
            os.close(fd)
