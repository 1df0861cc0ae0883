"""Reduced-polynomial view of maps: interpolation, degree, Hamming distance.

Interpolation works from the fact that the product of (x - z) over all z in
GF(q) is x^q - x, whose derivative is the constant -1: the basis polynomial
attached to node y is -(x^q - x)/(x - y), so coefficient j >= 1 of the
interpolant is the sum over nonzero nodes y of -t(y) * y^(q-1-j), and no
denominators ever need inverting.  In logarithms that is a sum of
gamma^(a_k + j * m_k) over the nodes, the same transform that evaluates a
polynomial at every gamma^i, so interpolate and tabulate share one chunked
array routine: O(q^2) field additions, done by numpy on the field's array
kernel.  The independent reference both are tested against is the textbook
Lagrange interpolation in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .gf import CHUNK, FieldSpec, json_int
from .ortho import MapTable


@dataclass(frozen=True)
class ReducedPoly:
    """The unique degree < q polynomial of a map.

    coeffs[i] multiplies x^i; trailing zeros are trimmed.  The zero
    polynomial has empty coeffs and degree None: a dedicated sentinel rather
    than an overloaded 0, so degree comparisons stay honest.
    """

    field: FieldSpec
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}


def reduced_poly(field: FieldSpec, coeffs) -> ReducedPoly:
    cs = [json_int(c, "coefficient") for c in coeffs]
    if len(cs) > field.q:
        raise PreconditionError("a reduced polynomial has degree < q")
    if any(not 0 <= c < field.q for c in cs):
        raise PreconditionError("coefficients must be codes in [0, q)")
    while cs and cs[-1] == 0:
        cs.pop()
    return ReducedPoly(field, tuple(cs))


def evaluate(f: ReducedPoly, x: int) -> int:
    fs = f.field
    acc = 0
    for c in reversed(f.coeffs):
        acc = fs.add(fs.mul(acc, x), c)
    return acc


def _power_sums(fs: FieldSpec, a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """out[i] = sum over j of gamma^(a[j] + i * m[j]) for i in [0, q - 1)."""
    q1 = fs.q - 1
    out = np.zeros(q1, dtype=np.int64)
    if not len(a):
        return out
    exp = fs.exp_array
    step = max(1, CHUNK // len(a))
    for lo in range(0, q1, step):
        idx = np.arange(lo, min(lo + step, q1), dtype=np.int64)[:, None] * m
        idx += a
        idx %= q1
        out[lo:lo + step] = fs.sum_array(exp[idx], axis=1)
    return out


def _trimmed(coeffs: np.ndarray) -> tuple[int, ...]:
    nz = np.flatnonzero(coeffs)
    return tuple(coeffs[:nz[-1] + 1].tolist()) if len(nz) else ()


def tabulate(f: ReducedPoly) -> MapTable:
    """The map x -> f(x) on every element."""
    fs = f.field
    c = np.array(f.coeffs, dtype=np.int64)
    j = np.flatnonzero(c)
    # f(gamma^i) = sum over c_j != 0 of gamma^(log c_j + i * j)
    vals = np.zeros(fs.q, dtype=np.int64)
    vals[fs.exp_array] = _power_sums(fs, fs.log_array[c[j]], j)
    vals[0] = f.coeffs[0] if f.coeffs else 0
    return MapTable(fs, tuple(vals.tolist()))


def interpolate(t: MapTable) -> ReducedPoly:
    """The unique reduced polynomial agreeing with t on every element."""
    fs = t.field
    q = fs.q
    if len(t.values) != q:
        raise PreconditionError("table must have exactly q entries")
    t0 = t.values[0]
    ty = np.array(t.values, dtype=np.int64)[fs.exp_array]  # t(gamma^k)
    k = np.flatnonzero(ty)
    # node gamma^k adds -t(gamma^k) * gamma^(-k * j) to coefficient j >= 1;
    # j = q - 1 is row 0 of the transform, since gamma^(q-1) == 1
    s = _power_sums(fs, fs.log_array[fs.sub_array(0, ty[k])], -k)
    coeffs = np.empty(q, dtype=np.int64)
    coeffs[0] = t0
    coeffs[1:q - 1] = s[1:]
    # node 0 contributes t(0) * (1 - x^(q-1))
    coeffs[q - 1] = fs.sub(int(s[0]), t0)
    return ReducedPoly(fs, _trimmed(coeffs))


def reduced_degree(t: MapTable) -> int | None:
    return interpolate(t).degree


def hamming_distance(f: MapTable, g: MapTable) -> int:
    if not f.field.same_as(g.field):
        raise PreconditionError("maps live over different fields")
    u, v = (np.fromiter(t.values, np.int64, len(t.values)) for t in (f, g))
    return int(np.count_nonzero(u != v))
