"""Latin bitrades from pairs of orthomorphisms.

Two orthomorphisms that disagree in exactly k places yield a k-homogeneous
Latin bitrade: two disjoint partial Latin squares of size k*q that can be
swapped for one another inside any Latin square containing either.

Each half is a read-only (k*q, 3) int64 array of (row, col, sym) triples in
lexicographic order.  Building, validating and printing a bitrade are array
passes.  json_pieces, the one JSON writer of the CLI's code arrays, writes
them from uint8 blocks of at most CHUNK records, filled from a table of every
code's ASCII digits, so no Python int is made per code, and a caller can
write each block out as it is made.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, NamedTuple

import numpy as np

from .errors import PreconditionError
from .gf import CHUNK, FieldSpec
from .ortho import MapTable, is_orthomorphism


class Triple(NamedTuple):
    """The columns of a bitrade half, in order."""
    row: int
    col: int
    sym: int


def _digit_table(q: int) -> np.ndarray:
    """(q, w) uint8 table: row c holds the ASCII decimal digits of code c,
    left-aligned and padded with NUL; w is the number of digits of q - 1."""
    w = len(str(q - 1))
    table = np.zeros((q, w), dtype=np.uint8)
    # the codes with n digits are one contiguous range
    for n in range(1, w + 1):
        lo, hi = (10 ** (n - 1) if n > 1 else 0), min(q, 10**n)
        codes = np.arange(lo, hi, dtype=np.int64)
        for j in range(n):
            table[lo:hi, j] = codes // 10 ** (n - 1 - j) % 10 + ord("0")
    return table


def _blocks(a: np.ndarray, table: np.ndarray,
            fixed: tuple[str, ...]) -> Iterator[str]:
    """The records of the rows of a (n, c), CHUNK rows at a time: fixed[0],
    code, fixed[1], ..., code, fixed[c], each code as its row of table,
    without the first record's separator byte."""
    w = table.shape[1]
    template = np.frombuffer(("\0" * w).join(fixed).encode("ascii"),
                             dtype=np.uint8)
    starts = list(accumulate([len(fixed[0])] + [len(f) + w for f in fixed[1:-1]]))
    for lo in range(0, len(a), CHUNK):
        rows = a[lo:lo + CHUNK]
        rec = np.empty((len(rows), len(template)), dtype=np.uint8)
        rec[:] = template
        for c, start in enumerate(starts):
            # table[rows[:, c]], as take: 0.28 against 0.50 ms per column
            # of a 2^14-row block at q = 2^16 (numpy 2.4, 2-core machine)
            rec[:, start:start + w] = table.take(rows[:, c], axis=0)
        if lo == 0:
            rec[0, 0] = 0
        # one compress drops the NUL padding of the digits
        yield str(rec[rec != 0], "ascii")


def json_pieces(doc, q: int) -> Iterator[str]:
    """json.dumps(doc, indent=2, sort_keys=True) in pieces, where doc may hold
    int64 arrays, 1-D or rows of codes in [0, q), in place of lists: the
    encoder writes the string "\\0" for each, and the array goes there at the
    indent of that line, in blocks from _digit_table(q).  Raises ValueError,
    when called, if a string of doc puts that placeholder's text elsewhere."""
    arrays = []  # in the order the encoder meets them, which is the text's
    parts = json.dumps(doc, indent=2, sort_keys=True,
                       default=lambda a: arrays.append(a) or "\0").split('"\\u0000"')
    if len(parts) != len(arrays) + 1:
        raise ValueError("a document string reads as an array placeholder")
    return _json_pieces(parts, arrays, _digit_table(q))


def _json_pieces(text: list[str], arrays: list, table: np.ndarray) -> Iterator[str]:
    for head, a in zip(text, arrays):
        yield head
        inner = re.match(" *", head.rpartition("\n")[2])[0] + "  "
        fixed = ((",\n" + inner, "") if a.ndim == 1 else (f",\n{inner}[\n{inner}  ",)
                 + (f",\n{inner}  ",) * (a.shape[1] - 1) + (f"\n{inner}]",))
        yield "["
        yield from _blocks(a[:, None] if a.ndim == 1 else a, table, fixed)
        yield f"\n{inner[2:]}]" if len(a) else "]"
    yield text[-1]


@dataclass(frozen=True, eq=False)
class Bitrade:
    """A pair of disjoint partial Latin squares covering the same shape."""

    field: FieldSpec
    k: int
    first: np.ndarray
    second: np.ndarray

    def _document(self, first, second) -> dict:
        return {"field": self.field.to_json(), "k": self.k,
                "L1": first, "L2": second}

    def to_json(self) -> dict:
        return self._document(self.first.tolist(), self.second.tolist())

    def render(self, fmt: str = "json", **extra) -> str:
        """The bitrade as text.  "json" gives exactly the string
        json.dumps(self.to_json() | extra, indent=2, sort_keys=True);
        "csv" gives one line "L1,row,col,sym" per triple of the first half,
        then one "L2,..." line per triple of the second.  The triples are
        written as ASCII byte blocks from a digit table, so no Python int is
        made per code.  Raises ValueError for an unknown format, for extra
        keys L1 or L2 in JSON or any extra key in CSV, which neither could
        honour, for a code outside [0, q), or as json_pieces does."""
        return "".join(self.pieces(fmt, **extra))

    def pieces(self, fmt: str = "json", **extra) -> Iterator[str]:
        """render(fmt, **extra) as consecutive strings, the triples in
        blocks of at most CHUNK, so that the text can be written out without
        being held whole.  The format, the extras and the codes are checked
        when this is called, before a triple is written."""
        if fmt not in ("json", "csv"):
            raise ValueError(f"unknown bitrade format {fmt!r}")
        if bad := sorted(extra.keys() & ({"L1", "L2"} if fmt == "json" else extra.keys())):
            raise ValueError(f"bitrade {fmt} cannot carry the extra keys {bad}")
        q = self.field.q
        for half in (self.first, self.second):
            # a digit-table lookup would wrap a negative code silently
            if len(half) and not (0 <= half.min() and half.max() < q):
                raise ValueError(f"bitrade code outside [0, {q})")
        if fmt == "json":
            return json_pieces(self._document(self.first, self.second) | extra, q)
        return self._csv_pieces()

    def _csv_pieces(self) -> Iterator[str]:
        table = _digit_table(self.field.q)
        yield from _blocks(self.first, table, ("\nL1,", ",", ",", ""))
        if len(self.first) and len(self.second):
            yield "\n"
        yield from _blocks(self.second, table, ("\nL2,", ",", ",", ""))


def _half(t: MapTable, disagree: np.ndarray) -> np.ndarray:
    """Triples (i, t(j) - j + i, t(j) + i) for every disagreement point j
    and every element i, sorted, as a read-only (k*q, 3) int64 array; the
    images t(j) are gathered straight from t.values.

    Row i holds one triple per j, so the order is that of each row's k keys
    col * q + sym: one sort along rows of k, rather than a lexsort of all
    k*q triples (16 against 54 ms for both halves at q = 2^16, 22 against
    25 ms at 3^9, numpy 2.4 on a 2-core machine)."""
    fs = t.field
    q = fs.q
    image = t.values[disagree][:, None]
    rows = np.arange(q, dtype=np.int64)
    key = fs.add_array(fs.sub_array(image, disagree[:, None]), rows)
    key *= q
    key += fs.add_array(image, rows)
    key = np.sort(key.T, axis=1)
    half = np.empty((q, len(disagree), 3), dtype=np.int64)
    half[..., 0] = rows[:, None]
    np.floor_divide(key, q, out=half[..., 1])
    np.remainder(key, q, out=half[..., 2])
    half = half.reshape(-1, 3)
    half.flags.writeable = False
    return half


def build_bitrade(f: MapTable, g: MapTable) -> Bitrade:
    """Bitrade from orthomorphisms f and g of the same field; k is their
    Hamming distance and must be positive."""
    fs = f.field
    if fs != g.field:
        raise PreconditionError("maps live over different fields")
    if not is_orthomorphism(f) or not is_orthomorphism(g):
        raise PreconditionError("both maps must be orthomorphisms")
    disagree = np.flatnonzero(f.values != g.values)
    if not len(disagree):
        raise PreconditionError("maps must differ somewhere")
    return Bitrade(field=fs, k=len(disagree),
                   first=_half(f, disagree), second=_half(g, disagree))


def _sorted_codes(a: np.ndarray, cols: tuple[int, ...], q: int) -> np.ndarray:
    """The chosen columns of each row as one base-q code, in increasing order."""
    code = a[:, cols[0]].copy()
    for c in cols[1:]:
        code *= q
        code += a[:, c]
    return code if (code[1:] > code[:-1]).all() else np.sort(code)


def _distinct(s: np.ndarray) -> bool:
    """Whether the sorted array s has no repeated value.  (np.unique took
    0.13 s against 0.002 s for np.sort on 196,608 codes with numpy 2.4.)"""
    return not (s[1:] == s[:-1]).any()


def validate_homogeneous(b: Bitrade) -> bool:
    """Check the k-homogeneous bitrade axioms exhaustively.

    Each half must be an (n, 3) array-like of integer codes in [0, q), with
    n = kq distinct triples.  The halves must be disjoint, each pair of
    coordinates must determine the third in both halves, and the two halves
    must occupy the same cells in all three such views.  Every row, column
    and symbol must occur exactly k times in each half.
    """
    q, k = b.field.q, b.k
    size = k * q
    if size < 1:
        return False
    halves = []
    for half in (b.first, b.second):
        try:
            a = np.asarray(half)
        except (TypeError, ValueError):  # ragged input
            return False
        if a.shape != (size, 3) or a.dtype.kind not in "iu":
            return False
        if a.min() < 0 or a.max() >= q:
            return False
        halves.append(a.astype(np.int64, copy=False))
    # a triple's code is below q^3 <= 2^60; once its (0, 1) view t // q is
    # distinct and equal in both halves, a shared triple sits at one index
    tf, tg = (_sorted_codes(a, (0, 1, 2), q) for a in halves)
    cells = tf // q
    if not _distinct(cells) or not np.array_equal(cells, tg // q) or (tf == tg).any():
        return False
    del tf, tg, cells
    # pairwise projections: each pair of coordinates determines the third,
    # and the two halves occupy identical shapes in the other two views
    for cols in ((0, 2), (1, 2)):
        pf, pg = (_sorted_codes(a, cols, q) for a in halves)
        if not _distinct(pf) or not np.array_equal(pf, pg):
            return False
    # k-homogeneity: every line in every direction carries exactly k cells
    return all((np.bincount(a[:, i], minlength=q) == k).all()
               for a in halves for i in range(3))
