"""Reduced-polynomial view of maps: interpolation, degree, Hamming distance.

Interpolation works from the fact that the product of (x - z) over all z in
GF(q) is x^q - x, whose derivative is the constant -1: the basis polynomial
attached to node y is -(x^q - x)/(x - y), so coefficient j >= 1 of the
interpolant is the sum over nonzero nodes y of -t(y) * y^(q-1-j), and no
denominators ever need inverting.  In logarithms that is a sum of
gamma^(a_k + j * m_k) over the nodes, the same transform that evaluates a
polynomial at every gamma^i, so interpolate and tabulate share one chunked
array routine: O(q^2) field additions, done by numpy on the field's array
kernel.  Row e of the interpolation transform is coefficient q - 1 - e, so
reduced_degree reads rows from x^(q-1) down until the leading coefficient,
O(q * (q - D)) for degree D >= 2 after an O(q) test for degree <= 1, and
interpolate_delta updates a polynomial for a map changed at k points in
O(k * q).  The independent reference all of them are tested against is the
textbook Lagrange interpolation in tests/oracles.py.
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


def _power_sums(fs: FieldSpec, a: np.ndarray, m: np.ndarray,
                lo: int = 0, hi: int | None = None) -> np.ndarray:
    """out[i - lo] = sum over j of gamma^(a[j] + i * m[j]) for the rows i in
    [lo, hi), hi defaulting to q - 1."""
    q1 = fs.q - 1
    hi = q1 if hi is None else hi
    out = np.zeros(hi - lo, dtype=np.int64)
    if not len(a):
        return out
    exp = fs.exp_array
    step = max(1, CHUNK // len(a))
    for start in range(lo, hi, step):
        idx = np.arange(start, min(start + step, hi), dtype=np.int64)[:, None] * m
        idx += a
        idx %= q1
        out[start - lo:start - lo + step] = fs.sum_array(exp[idx], axis=1)
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
    return MapTable(fs, vals)


def _nodes(fs: FieldSpec, v: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(v(0), a, k) for the table v: the nonzero nodes gamma^k and
    a = log(-v(gamma^k)).  Row e of _power_sums(fs, a, k) is then
    coefficient q - 1 - e of the reduced polynomial for 1 <= e < q - 1, and
    row 0 minus v(0) is coefficient q - 1: node gamma^k adds
    -v(gamma^k) * gamma^(k * e) there, and node 0 adds v(0) * (1 - x^(q-1))."""
    ty = v[fs.exp_array]
    k = np.flatnonzero(ty)
    return int(v[0]), fs.log_array[fs.sub_array(0, ty[k])], k


def _coeffs(fs: FieldSpec, v: np.ndarray) -> np.ndarray:
    """All q coefficients of the reduced polynomial of the table v."""
    q = fs.q
    t0, a, k = _nodes(fs, v)
    s = _power_sums(fs, a, k)
    coeffs = np.empty(q, dtype=np.int64)
    coeffs[0] = t0
    coeffs[1:q - 1] = s[:0:-1]
    coeffs[q - 1] = fs.sub(int(s[0]), t0)
    return coeffs


def interpolate(t: MapTable) -> ReducedPoly:
    """The unique reduced polynomial agreeing with t on every element."""
    return ReducedPoly(t.field, _trimmed(_coeffs(t.field, t.values)))


#: Rows of the transform reduced_degree reads first; each later block
#: doubles, so a map of degree D costs O(q * (q - D)) and a map of degree 2
#: about one full transform.
_FIRST_ROWS = 8


def reduced_degree(t: MapTable) -> int | None:
    """interpolate(t).degree.  A map of degree <= 1 is t(0) + (t(1) - t(0)) * x,
    which one O(q) comparison settles; otherwise the transform is read from
    x^(q-1) downward, only the rows down to the leading coefficient."""
    fs = t.field
    q1 = fs.q - 1
    v = t.values
    t0 = int(v[0])
    slope = fs.sub(int(v[1]), t0)
    codes = np.arange(fs.q, dtype=np.int64)
    if np.array_equal(fs.add_array(fs.mul_array(codes, slope), t0), v):
        return 1 if slope else 0 if t0 else None
    _, a, k = _nodes(fs, v)
    lo, rows = 0, _FIRST_ROWS
    while True:  # the degree is at least 2: row q - 3 at the latest
        s = _power_sums(fs, a, k, lo, min(lo + rows, q1))
        if lo == 0:
            s[0] = fs.sub(int(s[0]), t0)
        nz = np.flatnonzero(s)
        if len(nz):
            return q1 - lo - int(nz[0])
        lo += rows
        rows *= 2


def interpolate_delta(fp: ReducedPoly, f: MapTable, g: MapTable) -> ReducedPoly:
    """interpolate(g), given fp = interpolate(f), in O(q) per point where f
    and g differ.

    Interpolation is linear, so g's polynomial is fp plus that of g - f,
    whose only nonzero nodes are those points: changing the value at y by
    delta adds delta * (1 - (x - y)^(q-1)), and over GF(q)
    (x - y)^(q-1) = sum over j of x^j * y^(q-1-j), one row pass of the
    transform per point.  y = 0 only touches x^0 and x^(q-1).  fp is
    trusted, not checked against f."""
    fs = f.field
    if not (fs.same_as(g.field) and fs.same_as(fp.field)):
        raise PreconditionError("maps live over different fields")
    u, v = f.values, g.values
    c = np.zeros(fs.q, dtype=np.int64)
    c[:len(fp.coeffs)] = fp.coeffs
    return ReducedPoly(fs, _trimmed(fs.add_array(c, _coeffs(fs, fs.sub_array(v, u)))))


def hamming_distance(f: MapTable, g: MapTable) -> int:
    if not f.field.same_as(g.field):
        raise PreconditionError("maps live over different fields")
    return int(np.count_nonzero(f.values != g.values))
