"""Maps of a finite field as value tables.

Permutation and orthomorphism tests, translations, cyclotomic maps, the
minimal proper cyclotomic index of a map, and the irregularity decision.
The predicates, difference_map, translate and cyclotomic_profile are O(q)
array passes on the field's array kernel; cyclotomic_profile tests one
period per prime factor of q - 1.  is_irregular scans all q translations
in row blocks, O(q^2) in the worst case, and stops at the first block that
holds a cyclotomic translation.  Their independent references are the
brute-force oracles in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .gf import CHUNK, FieldSpec, distinct_prime_factors, json_int


@dataclass(frozen=True)
class MapTable:
    """A total map F_q -> F_q; values[x] is the image of the code x."""

    field: FieldSpec
    values: tuple[int, ...]

    def __getitem__(self, x: int) -> int:
        return self.values[x]

    def __len__(self) -> int:
        return len(self.values)

    def to_json(self) -> dict:
        return {"field": self.field.to_json(), "values": list(self.values)}


def map_table(field: FieldSpec, values) -> MapTable:
    """Validated MapTable constructor for external data."""
    vals = tuple(json_int(v, "map value") for v in values)
    if len(vals) != field.q or any(not 0 <= v < field.q for v in vals):
        raise PreconditionError(
            f"a map over GF({field.q}) needs exactly q values with codes in [0, q)")
    return MapTable(field, vals)


def linear_map(field: FieldSpec, a: int) -> MapTable:
    if a == 0:
        return MapTable(field, (0,) * field.q)
    return scaled_map(field, field.log_table[a])


def scaled_map(field: FieldSpec, log_c) -> MapTable:
    """x -> gamma^log_c(x) * x, with log_c an int or an array over the
    codes 1..q-1.  The values are the int objects of exp_table, so a table
    holds q references rather than q new ints."""
    idx = (field.log_array[1:] + log_c) % (field.q - 1)
    return MapTable(field, (0,) + tuple(map(field.exp_table.__getitem__, idx.tolist())))


def is_permutation(t: MapTable) -> bool:
    """Whether the values are pairwise distinct."""
    return len(set(t.values)) == len(t.values)


def _array(t: MapTable) -> np.ndarray:
    return np.array(t.values, dtype=np.int64)


def difference_map(t: MapTable) -> MapTable:
    """x -> t(x) - x, the second permutation an orthomorphism must induce."""
    fs = t.field
    d = fs.sub_array(_array(t), np.arange(len(t.values), dtype=np.int64))
    return MapTable(fs, tuple(d.tolist()))


def is_orthomorphism(t: MapTable) -> bool:
    return is_permutation(t) and is_permutation(difference_map(t))


def translate(t: MapTable, g: int) -> MapTable:
    """T_g: x -> t(x + g) - t(g).  Maps orthomorphisms to orthomorphisms
    and always fixes 0."""
    fs = t.field
    v = _array(t)
    shifted = v[fs.add_array(np.arange(fs.q, dtype=np.int64), g)]
    return MapTable(fs, tuple(fs.sub_array(shifted, v[g]).tolist()))


def cyclotomic_map(field: FieldSpec, n: int, coeffs) -> MapTable:
    """0 -> 0 and x -> coeffs[i] * x on the i-th index-n cyclotomic coset,
    cosets taken with respect to the field's gamma."""
    q = field.q
    if n <= 0 or (q - 1) % n:
        raise PreconditionError(f"index n={n} does not divide q-1={q - 1}")
    cs = tuple(int(a) for a in coeffs)
    if len(cs) != n or any(not 0 <= a < q for a in cs):
        raise PreconditionError("need one coefficient per coset, as codes in [0, q)")
    vals = [0] * q
    for t in range(q - 1):
        x = field.exp_table[t]
        vals[x] = field.mul(cs[t % n], x)
    return MapTable(field, tuple(vals))


@dataclass(frozen=True)
class CyclotomicProfile:
    """Smallest proper cyclotomic index of a map, with its coefficients.

    min_index is None when the map is cyclotomic of no index n < q-1.  The
    top index q-1 is excluded on purpose: every 0-fixing map qualifies there,
    so it carries no information.
    """

    min_index: int | None
    coeffs: tuple[int, ...] | None

    def to_json(self) -> dict:
        return {"min_index": self.min_index,
                "coeffs": None if self.coeffs is None else list(self.coeffs)}


def _periodic(seq: np.ndarray, d: int) -> bool:
    """Whether seq repeats with period d; d divides its length."""
    return bool((seq[d:] == seq[:-d]).all())


def cyclotomic_profile(t: MapTable) -> CyclotomicProfile:
    fs = t.field
    q1 = fs.q - 1
    if t.values[0] != 0:
        return CyclotomicProfile(None, None)
    # ratios[k] = t(gamma^k) / gamma^k; index-n cyclotomic means the ratio
    # only depends on k mod n.  The indices that fit are the multiples of the
    # least one, so dividing q - 1 by each prime while the ratios keep
    # repeating reaches it.
    exp = fs.exp_array
    ratios = fs.mul_array(_array(t)[exp], exp[-np.arange(q1) % q1])
    n = q1
    for ell in distinct_prime_factors(q1):
        while n % ell == 0 and _periodic(ratios, n // ell):
            n //= ell
    if n == q1:
        return CyclotomicProfile(None, None)
    return CyclotomicProfile(n, tuple(ratios[:n].tolist()))


def _period_checks(fs: FieldSpec) -> list[tuple[int, np.ndarray]]:
    """(d, x -> gamma^d * x) for each maximal proper period d = (q - 1) / prime.

    A map T fixing 0 is cyclotomic of index d iff T(gamma^(k + d)) ==
    gamma^d * T(gamma^k) for every k, and a proper index fits iff one of
    these maximal ones does."""
    q1 = fs.q - 1
    codes = np.arange(fs.q, dtype=np.int64)
    return [(d, fs.mul_array(codes, fs.exp_array[d]))
            for d in (q1 // ell for ell in distinct_prime_factors(q1))]


def is_irregular(t: MapTable) -> bool:
    """True when no translation of t is cyclotomic of any proper index."""
    if not is_orthomorphism(t):
        raise PreconditionError("irregularity is defined for orthomorphisms only")
    fs = t.field
    q, q1 = fs.q, fs.q - 1
    exp = fs.exp_array
    checks = _period_checks(fs)
    codes = np.arange(q, dtype=np.int64)
    v = _array(t)
    # translations g in blocks of 1, 2, 4, ... rows up to CHUNK elements, so
    # a map whose first translations are cyclotomic stops after little work
    lo, rows, most = 0, 1, max(1, CHUNK // q1)
    while lo < q:
        g = codes[lo:lo + rows, None]
        tg = fs.sub_array(v[fs.add_array(exp, g)], v[g])  # T_g(gamma^k)
        for d, times in checks:
            if (tg[:, d:] == times[tg[:, :-d]]).all(axis=1).any():
                return False
        lo += rows
        rows = min(2 * rows, most)
    return True
