"""Exhaustive enumeration of orthomorphisms over small fields.

census() counts the orthomorphisms of GF(q), q <= 13, with their degree
histogram, minimum pairwise Hamming distance and irregular count, next to
the ceiling on how many non-irregular ones can exist.

Every orthomorphism is t + c for one constant c and one normalized t, with
t(0) = 0, so the census walks only normalized maps and scales its counts
by q.  The walk grows all prefixes t(0..x-1) one level x at a time, as
arrays of used-value and used-difference bitmasks.  Degree and
irregularity are invariant under t -> t + c: the reduced polynomial changes
only in its constant term, and each translation t(x + g) - t(g) subtracts c
away.  As H(t1 + c1, t2 + c2) = H(t1, t2 + (c2 - c1)), the minimum distance
runs over normalized pairs and every shift.  Each stage is an array pass
over the (n, q) table of normalized maps on the field's array kernel: the
degree histogram reads every map's degree from ortho's _degrees, one field
transform of all q - 1 rows, and the irregular count runs is_irregular's
degree certificate, one read of the top rows, over the whole table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator

import numpy as np

from .errors import PreconditionError
from .gf import FieldSpec
from .ortho import MapTable, _degrees, _irregular

#: Largest field order the exhaustive walk will attempt.
ENUM_CAP = 13

#: Normalized maps per side of a block of pairs in the distance stage.
_BLOCK = 128


def _value_tuples(spec: FieldSpec) -> np.ndarray:
    """The (n, q) table of every orthomorphism t of the field with
    t(0) = 0, one row each, in lexicographic order."""
    q = spec.q
    if q > ENUM_CAP:
        raise PreconditionError(
            f"exhaustive enumeration is capped at q = {ENUM_CAP}, got q = {q}")
    codes = np.arange(q)
    # q <= ENUM_CAP = 13 < 16, so the values and the differences a prefix
    # has used each fit one uint16 bitmask
    vbit = (1 << codes).astype(np.uint16)
    used_v = np.ones(1, dtype=np.uint16)  # the prefix t(0) = 0
    used_d = np.ones(1, dtype=np.uint16)
    parents, values = [], []
    for x in range(1, q):  # extend every prefix t(0..x-1) by t(x) = v
        dbit = vbit[spec.sub_array(codes, x)]  # the difference v - x
        ok = (used_v[:, None] & vbit) == 0
        ok &= (used_d[:, None] & dbit) == 0
        # row-major order keeps the children of each prefix in ascending v
        # after those of the prefixes before it: lexicographic order
        rows, v = np.nonzero(ok)
        del ok  # before the next level's mask: it bounds the peak
        used_v = used_v[rows] | vbit[v]
        used_d = used_d[rows] | dbit[v]
        parents.append(rows.astype(np.int32))
        values.append(v.astype(np.int8))
    tables = np.zeros((len(used_v), q), dtype=np.int64)
    row = np.arange(len(used_v))
    for x in range(q - 1, 0, -1):  # walk back up to t(0)
        tables[:, x] = values[x - 1][row]
        row = parents[x - 1][row]
    return tables


def enumerate_orthomorphisms(spec: FieldSpec) -> Iterator[MapTable]:
    """All orthomorphisms of GF(q), q <= 13, in lexicographic table order,
    each a MapTable over one row of a sorted shifted table, not a copy."""
    tables = _value_tuples(spec)
    # t + c has first value c, so each shift is one run of the order
    for c in range(spec.q):
        shifted = spec.add_array(tables, c)
        for vals in shifted[np.lexsort(shifted.T[::-1])]:
            yield MapTable(spec, vals)


def _degree_histogram(spec: FieldSpec, tables: np.ndarray) -> dict[int, int]:
    """Reduced degrees of the non-constant maps in the rows of tables."""
    degree, _ = _degrees(spec, tables, spec.q - 1)
    counts = np.bincount(degree[degree > 0])
    return {int(d): int(counts[d]) for d in np.flatnonzero(counts)[::-1]}


def _min_pairwise_distance(spec: FieldSpec, tables: np.ndarray) -> int | None:
    """Least Hamming distance between two distinct maps t + c, t a row of
    tables (normalized maps), c any constant."""
    n, q = tables.shape
    if n == 0:
        return None
    # t1 == t2 + c only for t1 == t2 and c == 0, and t against t + c,
    # c != 0, differs everywhere.  For t1 != t2, H(t1, t2 + c) is q minus
    # the number of x with t1(x) - t2(x) == c, so the pair's closest shift
    # is the commonest value of t1 - t2; the pair (t2, t1) gives the same.
    best = q
    for i0 in range(0, n, _BLOCK):
        bi = tables[i0:i0 + _BLOCK]
        for j0 in range(i0, n, _BLOCK):
            if i0 == j0:
                r, c = np.triu_indices(len(bi), 1)
                diff = spec.sub_array(bi[r], bi[c])
            else:
                bj = tables[j0:j0 + _BLOCK]
                diff = spec.sub_array(bi[:, None], bj[None]).reshape(-1, q)
            if not len(diff):
                continue
            diff += q * np.arange(len(diff))[:, None]
            best = min(best, q - int(np.bincount(diff.ravel()).max()))
            if best <= 3:
                # 3 is the floor: distinct permutations cannot differ in one
                # place, and a two-place difference would force the two
                # difference maps to trade values between the same two
                # points, contradicting injectivity
                return best
    return best


def _irregular_count(spec: FieldSpec, tables: np.ndarray) -> int:
    """How many rows of tables (orthomorphisms) are irregular."""
    return int(_irregular(spec, tables).sum())


@dataclass(frozen=True)
class CensusReport:
    q: int
    total: int
    degree_histogram: dict[int, int]
    min_pairwise_distance: int | None
    irregular_count: int
    non_irregular_bound: int

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "total": self.total,
            "degree_histogram": {str(k): v for k, v in sorted(self.degree_histogram.items())},
            "min_pairwise_distance": self.min_pairwise_distance,
            "irregular_count": self.irregular_count,
            "non_irregular_bound": self.non_irregular_bound,
        }


def census(spec: FieldSpec) -> CensusReport:
    """Full orthomorphism census of GF(q), q <= 13."""
    q = spec.q
    tables = _value_tuples(spec)
    hist = _degree_histogram(spec, tables)
    return CensusReport(
        q=q,
        total=q * len(tables),
        degree_histogram={d: q * k for d, k in hist.items()},
        min_pairwise_distance=_min_pairwise_distance(spec, tables),
        irregular_count=q * _irregular_count(spec, tables),
        non_irregular_bound=isqrt(q ** (q + 4)) // 2,
    )


def irregular_fraction(spec: FieldSpec,
                       report: CensusReport | None = None) -> Fraction:
    """Fraction of orthomorphisms of GF(q) that are irregular, with the
    non-irregular count checked against its theoretical ceiling."""
    if report is None:
        report = census(spec)
    if report.q != spec.q:
        raise PreconditionError(f"the report is for q={report.q}, not q={spec.q}")
    if report.total == 0:
        return Fraction(0, 1)
    regular = report.total - report.irregular_count
    # regular <= q^(q/2 + 2) / 2 in exact integers; no assert, so -O keeps it
    if 4 * regular * regular > spec.q ** (spec.q + 4):
        raise AssertionError("non-irregular count exceeds its theoretical ceiling")
    return Fraction(report.irregular_count, report.total)
