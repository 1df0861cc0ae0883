"""Reduced-polynomial view of maps: interpolation, degree, Hamming distance.

Interpolation works from the fact that the product of (x - z) over all z in
GF(q) is x^q - x, whose derivative is the constant -1: coefficient j >= 1
of the interpolant of t is minus the power sum sum_x t(x) * x^(q-1-j), with
0^0 = 1, and coefficient 0 is t(0), so no denominators ever need inverting.
Evaluating a polynomial at gamma^i is the same sum over its nonzero
coefficients.  evaluate is one row of the field's power_sums kernel; every
other read is one field transform, the kernel on the nnz nonzero nodes in
O(q * nnz) or one dft in O(q * sum(l_i)), l_i the prime factors of q - 1.
tabulate transforms the coefficients; interpolate reads ortho's _sums of
-t, interpolate_delta those of f - g, O(k * q) for k changed points.
reduced_degree settles degree <= 1 in O(q), reads the top _CERTIFY_ROWS
coefficients in one kernel call, and a degree below them in one full read.
The independent reference all of them are tested against is the textbook
Lagrange interpolation in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .gf import FieldSpec, as_int, json_ints
from .ortho import _CERTIFY_ROWS, MapTable, _degrees, _sums


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
    cs = json_ints(coeffs, "coefficient")
    if len(cs) > field.q:
        raise PreconditionError("a reduced polynomial has degree < q")
    if any(not 0 <= c < field.q for c in cs):
        raise PreconditionError("coefficients must be codes in [0, q)")
    while cs and cs[-1] == 0:
        cs.pop()
    return ReducedPoly(field, tuple(cs))


def evaluate(f: ReducedPoly, x: int) -> int:
    fs = f.field
    if not 0 <= (x := as_int(x, f"x={x} is not an element code")) < fs.q:
        raise PreconditionError(f"x={x} is not an element code in [0, {fs.q})")
    if x == 0:
        return f.coeffs[0] if f.coeffs else 0
    e = fs.log_array.item(x)
    c = np.array(f.coeffs, dtype=np.int64)
    j = np.flatnonzero(c)
    return int(fs.power_sums(c[j], j, e, e + 1)[0])


def _trimmed(coeffs: np.ndarray) -> tuple[int, ...]:
    nz = np.flatnonzero(coeffs)
    return tuple(coeffs[:nz[-1] + 1].tolist()) if len(nz) else ()


def tabulate(f: ReducedPoly) -> MapTable:
    """The map x -> f(x) on every element."""
    fs = f.field
    c = np.zeros(fs.q, dtype=np.int64)
    c[:len(f.coeffs)] = f.coeffs
    vals = np.zeros(fs.q, dtype=np.int64)
    vals[0] = c[0]
    if c[-1]:  # x^(q-1) is 1 at every gamma^i, as x^0 is
        c[0] = fs.add(int(c[0]), int(c[-1]))
    vals[fs.exp_array] = fs.transform(c[:-1], np.arange(fs.q - 1), fs.q - 1)
    return MapTable(fs, vals)


def interpolate(t: MapTable) -> ReducedPoly:
    """The unique reduced polynomial agreeing with t on every element."""
    fs, v = t.field, t.values
    s = _sums(fs, fs.sub_array(0, v)[None], fs.q - 1)[::-1, 0]
    return ReducedPoly(fs, _trimmed(np.concatenate([v[:1], s])))


def reduced_degree(t: MapTable) -> int | None:
    """interpolate(t).degree.  A map of degree <= 1 is t(0) + (t(1) - t(0)) * x,
    which one O(q) comparison settles; otherwise one kernel read takes the
    top _CERTIFY_ROWS coefficients, O(q) each, and a degree below them
    comes from one read of every row."""
    fs, v = t.field, t.values
    t0 = int(v[0])
    slope = fs.sub(int(v[1]), t0)
    if np.array_equal(fs.add_array(fs.mul_array(np.arange(fs.q), slope), t0), v):
        return 1 if slope else 0 if t0 else None
    degree = _degrees(fs, v[None], _CERTIFY_ROWS)[0].item()
    if degree < 0:  # below the top rows: read every row at once
        degree = _degrees(fs, v[None], fs.q - 1)[0].item()
    return degree


def interpolate_delta(fp: ReducedPoly, f: MapTable, g: MapTable) -> ReducedPoly:
    """interpolate(g), given fp = interpolate(f), in O(q) per point where f
    and g differ.

    Interpolation is linear: changing the value at y by delta adds
    delta * (1 - (x - y)^(q-1)), and (x - y)^(q-1) = sum over j of
    x^j * y^(q-1-j), so coefficient j >= 1 is fp's plus row q - 1 - j of the
    power sums of f - g, whose only nonzero nodes are those points.
    Coefficient 0 is g(0), read from g.  fp is trusted, not checked against f."""
    fs = f.field
    if not fs == g.field == fp.field:
        raise PreconditionError("maps live over different fields")
    u, v = f.values, g.values
    c = np.zeros(fs.q, dtype=np.int64)
    c[:len(fp.coeffs)] = fp.coeffs
    c[0] = v[0]
    c[1:] = fs.add_array(c[1:], _sums(fs, fs.sub_array(u, v)[None], fs.q - 1)[::-1, 0])
    return ReducedPoly(fs, _trimmed(c))


def hamming_distance(f: MapTable, g: MapTable) -> int:
    if f.field != g.field:
        raise PreconditionError("maps live over different fields")
    return int(np.count_nonzero(f.values != g.values))
