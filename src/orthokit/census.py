"""Exhaustive enumeration of orthomorphisms over small fields.

census() counts the orthomorphisms of GF(q), q <= 13, with their degree
histogram, minimum pairwise Hamming distance and irregular count, next to
the ceiling on how many non-irregular ones can exist.

Every orthomorphism is t + c for one constant c and one normalized t, with
t(0) = 0, so the census walks only normalized maps (a bitmask backtrack over
values and differences) and scales its counts by q.  Degree and
irregularity are invariant under t -> t + c: the reduced polynomial changes
only in its constant term, and each translation t(x + g) - t(g) subtracts c
away.  As H(t1 + c1, t2 + c2) = H(t1, t2 + (c2 - c1)), the minimum distance
runs over normalized pairs and every shift.  Each stage is an array pass
over the (n, q) table of normalized maps on the field's array kernel.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator

import numpy as np

from .errors import PreconditionError
from .gf import FieldSpec
from .ortho import MapTable, _period_checks

#: Largest field order the exhaustive walk will attempt.
ENUM_CAP = 13

#: Normalized maps per side of a block of pairs in the distance stage.
_BLOCK = 128


def _value_tuples(spec: FieldSpec, pin1: int | None = None) -> list[tuple[int, ...]]:
    """Every orthomorphism t of the field with t(0) = 0 as a raw value
    tuple, in lexicographic order; pin1 freezes t(1) for partitioned runs."""
    q = spec.q
    theta = [0] * q
    # diff_bit[x][v] marks the difference v - x
    diff_bit = [[1 << spec.sub(v, x) for v in range(q)] for x in range(q)]
    full = (1 << q) - 1
    out: list[tuple[int, ...]] = []

    def rec(x: int, used_v: int, used_d: int, allowed: int = full) -> None:
        free = allowed & ~used_v
        bits = diff_bit[x]
        if x == q - 1:  # at most one value left
            v = free.bit_length() - 1
            if free and not used_d & bits[v]:
                theta[x] = v
                out.append(tuple(theta))
            return
        while free:
            vb = free & -free
            free ^= vb
            v = vb.bit_length() - 1
            db = bits[v]
            if not used_d & db:
                theta[x] = v
                rec(x + 1, used_v | vb, used_d | db)

    rec(1, 1, 1, full if pin1 is None else (1 << pin1) & full)  # t(0) = 0
    return out


def _normalized(spec: FieldSpec, jobs: int) -> np.ndarray:
    """The (n, q) table of normalized orthomorphisms, in lexicographic
    order; the walk is split on t(1) across at most jobs processes."""
    q = spec.q
    pins = range(2, q)  # t(1) is neither 0 nor 1
    workers = min(jobs, len(pins), os.cpu_count() or 1)
    if workers <= 1:
        tables = _value_tuples(spec)
    else:
        with multiprocessing.Pool(workers) as pool:
            parts = pool.map(_census_worker, [(spec, v) for v in pins])
        # ascending pins hold ascending t(1), so the parts are in order
        tables = [t for part in parts for t in part]
    return np.array(tables, dtype=np.int64).reshape(-1, q)


def _census_worker(args: tuple[FieldSpec, int]) -> list[tuple[int, ...]]:
    spec, v = args
    return _value_tuples(spec, pin1=v)


def enumerate_orthomorphisms(spec: FieldSpec) -> Iterator[MapTable]:
    """All orthomorphisms of GF(q), q <= 13, in lexicographic table order."""
    if spec.q > ENUM_CAP:
        raise PreconditionError(
            f"exhaustive enumeration is capped at q = {ENUM_CAP}, got q = {spec.q}")
    tables = _normalized(spec, jobs=1)
    # t + c has first value c, so each shift is one run of the order
    for c in range(spec.q):
        shifted = spec.add_array(tables, c)
        for vals in shifted[np.lexsort(shifted.T[::-1])].tolist():
            yield MapTable(spec, tuple(vals))


def _degree_histogram(spec: FieldSpec, tables: np.ndarray) -> dict[int, int]:
    """Reduced degrees of the non-constant maps in the rows of tables."""
    # coefficient j >= 1 of the reduced polynomial of t is
    # -sum_x t(x) * x^(q-1-j), with 0^0 = 1, so the degree is q - 1 - e
    # for the least e at which that power sum is nonzero
    q = spec.q
    codes = np.arange(q, dtype=np.int64)
    power = np.ones(q, dtype=np.int64)  # x^e
    hist: dict[int, int] = {}
    for e in range(q - 1):
        nonzero = spec.sum_array(spec.mul_array(tables, power), axis=1) != 0
        if nonzero.any():
            hist[q - 1 - e] = int(nonzero.sum())
            tables = tables[~nonzero]
        power = spec.mul_array(power, codes)
    return hist


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
    exp = spec.exp_array
    checks = _period_checks(spec)
    regular = np.zeros(len(tables), dtype=bool)
    for g in range(spec.q):  # is_irregular's test on T_g of every row
        tg = spec.sub_array(tables[:, spec.add_array(exp, g)], tables[:, g, None])
        for d, times in checks:
            regular |= (tg[:, d:] == times[tg[:, :-d]]).all(axis=1)
    return len(tables) - int(regular.sum())


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


def census(spec: FieldSpec, jobs: int = 1) -> CensusReport:
    """Full orthomorphism census of GF(q), q <= 13.

    jobs > 1 partitions the walk on the value of t(1) across a process
    pool of at most min(jobs, q - 2, cpu count) workers; the aggregate is
    identical to a single-job run.
    """
    q = spec.q
    if q > ENUM_CAP:
        raise PreconditionError(
            f"exhaustive enumeration is capped at q = {ENUM_CAP}, got q = {q}")
    if jobs < 1:
        raise PreconditionError("jobs must be a positive integer")
    tables = _normalized(spec, jobs)
    hist = _degree_histogram(spec, tables)
    return CensusReport(
        q=q,
        total=q * len(tables),
        degree_histogram={d: q * k for d, k in hist.items()},
        min_pairwise_distance=_min_pairwise_distance(spec, tables),
        irregular_count=q * _irregular_count(spec, tables),
        non_irregular_bound=isqrt(q ** (q + 4)) // 2,
    )


def irregular_fraction(spec: FieldSpec, report: CensusReport | None = None,
                       jobs: int = 1) -> Fraction:
    """Fraction of orthomorphisms of GF(q) that are irregular, with the
    non-irregular count checked against its theoretical ceiling."""
    if report is None:
        report = census(spec, jobs=jobs)
    if report.total == 0:
        return Fraction(0, 1)
    regular = report.total - report.irregular_count
    # regular <= q^(q/2 + 2) / 2 in exact integers; no assert, so -O keeps it
    if 4 * regular * regular > spec.q ** (spec.q + 4):
        raise AssertionError("non-irregular count exceeds its theoretical ceiling")
    return Fraction(report.irregular_count, report.total)
