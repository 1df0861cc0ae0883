"""Maps of a finite field as value tables.

A MapTable holds its values as one read-only int64 array indexed by element
code; the routines here and in polyops, construct, bitrade and census read
and build that array directly, with no conversion per call.

Permutation and orthomorphism tests, translations, cyclotomic maps, the
minimal proper cyclotomic index of a map, and the irregularity decision.
The predicates, difference_map, translate and cyclotomic_profile are O(q)
array passes on the field's array kernel; cyclotomic_profile tests one
period per prime factor of q - 1.

is_irregular decides most maps in O(q) from the reduced degree D and the
two top coefficients t_D, t_(D-1), minus the power sums sum_x t(x) * x^e at
e = q - 1 - D and q - D.  _sums reads these sums for an (n, q) batch of
maps from e = 0 down to a given depth in one field transform, the only
read of a table's power sums, interpolation's too; _degrees takes each
map's degree from its first nonzero row (reduced_degree, max_degree_member,
census).  For D >= 2 every translation T_g(x) = t(x + g) - t(g) has
degree D and the x^(D-1) coefficient t_(D-1) + D * g * t_D, while a map
cyclotomic of index (q - 1) / ell has the form x * P(x^ell), with terms
only in degrees 1 (mod ell).  So t is irregular when no prime ell | q - 1
has D = 1 (mod ell); otherwise a cyclotomic T_g needs that coefficient to
vanish, which for p not dividing D leaves the one translation
g = -t_(D-1) / (D * t_D), and for p | D none unless t_(D-1) = 0.  One read
of the top _CERTIFY_ROWS + 1 rows settles this for the whole batch.  Only
the maps left over (D <= 1, D below the top rows, or p | D with
t_(D-1) = 0) get the scan of all q translations, O(q^2) in the worst case,
which stops at the first block that holds a cyclotomic translation.  Their
independent references are the brute-force oracles in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .gf import CHUNK, FieldSpec, as_int, distinct_prime_factors, json_ints


@dataclass(frozen=True, eq=False)
class MapTable:
    """A total map F_q -> F_q; values[x] is the image of the code x.

    values is one read-only int64 array of shape (q,).  The constructor
    takes any integer array-like of q codes in [0, q) and refuses anything
    else; an int64 ndarray is held as it is, without a copy, and made
    read-only, so whoever built it must not write to it through another
    view.  Tables compare and hash by field and values."""

    field: FieldSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        q = self.field.q
        try:
            v = np.asarray(self.values)
        except (ValueError, TypeError):  # ragged nesting, among others
            v = None
        # a negative code would wrap silently in the scatters and gathers
        # every array routine does, so the range is checked here, once
        if (v is None or v.shape != (q,) or v.dtype.kind not in "iu"
                or v.min() < 0 or v.max() >= q):
            raise PreconditionError(
                f"a map over GF({q}) needs exactly q values with codes in [0, q)")
        v = v.astype(np.int64, copy=False)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __getitem__(self, x: int) -> int:
        return int(self.values[x])

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MapTable):
            return NotImplemented
        return (self.field == other.field
                and np.array_equal(self.values, other.values))

    def __hash__(self) -> int:
        return hash((self.field, self.values.tobytes()))

    def to_json(self) -> dict:
        return {"field": self.field.to_json(), "values": self.values.tolist()}


def map_table(field: FieldSpec, values) -> MapTable:
    """Validated MapTable constructor for external data."""
    return MapTable(field, json_ints(values, "map value"))


def linear_map(field: FieldSpec, a: int) -> MapTable:
    if not 0 <= (a := as_int(a, f"a={a} is not an element code")) < field.q:
        raise PreconditionError(f"a={a} is not an element code in [0, {field.q})")
    if a == 0:
        return MapTable(field, np.zeros(field.q, dtype=np.int64))
    return scaled_map(field, field.log_array.item(a))


def scaled_map(field: FieldSpec, log_c) -> MapTable:
    """x -> gamma^log_c(x) * x, with log_c an int or an array over the
    codes 1..q-1: one gather from exp_array, behind the 0 at code 0."""
    vals = np.zeros(field.q, dtype=np.int64)
    vals[1:] = field.exp_array[(field.log_array[1:] + log_c) % (field.q - 1)]
    return MapTable(field, vals)


def is_permutation(t: MapTable) -> bool:
    """Whether the values are pairwise distinct: one scatter of the q
    codes, which hits all q slots exactly when no two collide."""
    hit = np.zeros(len(t.values), dtype=bool)
    hit[t.values] = True
    return bool(hit.all())


def difference_map(t: MapTable) -> MapTable:
    """x -> t(x) - x, the second permutation an orthomorphism must induce."""
    fs = t.field
    return MapTable(fs, fs.sub_array(t.values, np.arange(fs.q, dtype=np.int64)))


def is_orthomorphism(t: MapTable) -> bool:
    return is_permutation(t) and is_permutation(difference_map(t))


def translate(t: MapTable, g: int) -> MapTable:
    """T_g: x -> t(x + g) - t(g).  Maps orthomorphisms to orthomorphisms
    and always fixes 0."""
    fs = t.field
    if not 0 <= (g := as_int(g, f"g={g} is not an element code")) < fs.q:
        raise PreconditionError(f"g={g} is not an element code in [0, {fs.q})")
    v = t.values
    shifted = v[fs.add_array(np.arange(fs.q, dtype=np.int64), g)]
    return MapTable(fs, fs.sub_array(shifted, v[g]))


def cyclotomic_map(field: FieldSpec, n: int, coeffs) -> MapTable:
    """0 -> 0 and x -> coeffs[i] * x on the i-th index-n cyclotomic coset,
    cosets taken with respect to the field's gamma."""
    q = field.q
    why = "the index n and the coefficients must be integers"
    n = as_int(n, why)
    cs = tuple(as_int(a, why) for a in coeffs)
    if n <= 0 or (q - 1) % n:
        raise PreconditionError(f"index n={n} does not divide q-1={q - 1}")
    if len(cs) != n or any(not 0 <= a < q for a in cs):
        raise PreconditionError("need one coefficient per coset, as codes in [0, q)")
    vals = np.zeros(q, dtype=np.int64)
    exp = field.exp_array
    vals[exp] = field.mul_array(np.array(cs, dtype=np.int64)[np.arange(q - 1) % n], exp)
    return MapTable(field, vals)


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
    ratios = fs.mul_array(t.values[exp], exp[-np.arange(q1) % q1])
    n = q1
    for ell in distinct_prime_factors(q1):
        while n % ell == 0 and _periodic(ratios, n // ell):
            n //= ell
    if n == q1:
        return CyclotomicProfile(None, None)
    return CyclotomicProfile(n, tuple(ratios[:n].tolist()))


#: Top coefficients of the reduced polynomial the irregularity certificate
#: reads, O(q) each, before it leaves a map to the translation scan.  The
#: bound keeps a linear map at O(q) rows: the scan settles it at g = 0.
_CERTIFY_ROWS = 8

# How _certify settles a row of degree D:
#   CERTIFIED        no prime ell | q - 1 has D = 1 (mod ell): irregular
#   ONE_TRANSLATION  only T_g with g = -t_(D-1) / (D * t_D) can be cyclotomic
#   P_DIVIDES        p | D and t_(D-1) != 0: irregular
#   P_DIVIDES_SCAN   p | D and t_(D-1) == 0: left to the scan
#   SCAN             D <= 1, or below the rows read: left to the scan
CERTIFIED, ONE_TRANSLATION, P_DIVIDES, P_DIVIDES_SCAN, SCAN = range(5)


def _period_checks(fs: FieldSpec) -> list[tuple[int, np.ndarray]]:
    """(d, x -> gamma^d * x) for each maximal proper period d = (q - 1) / prime.

    A map T fixing 0 is cyclotomic of index d iff T(gamma^(k + d)) ==
    gamma^d * T(gamma^k) for every k, and a proper index fits iff one of
    these maximal ones does."""
    q1 = fs.q - 1
    codes = np.arange(fs.q, dtype=np.int64)
    return [(d, fs.mul_array(codes, fs.exp_array[d]))
            for d in (q1 // ell for ell in distinct_prime_factors(q1))]


def _translations(fs: FieldSpec, v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """T_g(gamma^k) = v(gamma^k + g) - v(g) for k < q - 1, for maps v along
    the last axis and translations g of size 1 there, broadcast together."""
    return fs.sub_array(np.take_along_axis(v, fs.add_array(fs.exp_array, g), -1),
                        np.take_along_axis(v, g, -1))


def _cyclotomic(tg: np.ndarray, checks) -> np.ndarray:
    """Which maps T, read along the last axis of tg at gamma^0..gamma^(q-2),
    are cyclotomic of a proper index."""
    hit = np.zeros(tg.shape[:-1], dtype=bool)
    for d, times in checks:
        hit |= (tg[..., d:] == times[tg[..., :-d]]).all(axis=-1)
    return hit


def _sums(fs: FieldSpec, tables: np.ndarray, rows: int) -> np.ndarray:
    """Rows [0, min(rows, q - 1)) of the power sums sum_x t(x) * x^e, 0^0 = 1,
    of the maps t in the rows of tables (n, q), shape (rows, n), row e minus
    t's x^(q-1-e) coefficient: the package's one read of a table's sums."""
    s = fs.transform(tables[:, 1:], fs.log_array[1:], min(rows, fs.q - 1))
    if tables[:, 0].any():  # node 0 adds t(0) to row 0 alone
        s[0] = fs.add_array(s[0], tables[:, 0])
    return s


def _degrees(fs: FieldSpec, tables: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(degree, s), s = _sums(fs, tables, rows) and degree q - 1 - e for the
    first nonzero row e of each map, -1 where none is."""
    s = _sums(fs, tables, rows)
    nz = s != 0
    return np.where(nz.any(axis=0), fs.q - 1 - nz.argmax(axis=0), -1), s


def _certify(fs: FieldSpec, tables: np.ndarray, checks) -> tuple[np.ndarray, np.ndarray]:
    """(path, irregular) for the rows of tables (n, q), orthomorphisms: how
    the degree certificate settles each row, one of CERTIFIED .. SCAN, and
    whether the row is irregular; rows with path >= P_DIVIDES_SCAN are left
    to the translation scan and read False.  The read holds one row below
    the top _CERTIFY_ROWS: t_(D-1) when t_D is on the last of them."""
    q1 = fs.q - 1
    degree, s = _degrees(fs, tables, _CERTIFY_ROWS + 1)
    read = degree > max(1, q1 - _CERTIFY_ROWS)
    lead = (q1 - degree) * read  # the row of -t_D, 0 where unread
    below = s[lead + read, np.arange(len(tables))]  # -t_(D-1)
    # for p | D the x^(D-1) coefficient of every T_g is t_(D-1)
    path = np.where(degree % fs.p, ONE_TRANSLATION,
                    np.where(below != 0, P_DIVIDES, P_DIVIDES_SCAN))
    path[np.gcd(degree - 1, q1) == 1] = CERTIFIED  # no ell | q - 1 divides D - 1
    path[~read] = SCAN
    irregular = path <= P_DIVIDES  # the ONE_TRANSLATION rows are set below
    idx = np.flatnonzero(path == ONE_TRANSLATION)
    if len(idx):
        # t_(D-1) + D * g * t_D = 0, and below / s[lead] = t_(D-1) / t_D
        denom = fs.mul_array(s[lead[idx], idx], degree[idx] % fs.p)
        g = fs.mul_array(fs.sub_array(0, below[idx]),
                         fs.exp_array[-fs.log_array[denom] % q1])
        for lo in range(0, len(idx), step := max(1, CHUNK // fs.q)):  # bounded memory
            i, gi = idx[lo:lo + step], g[lo:lo + step, None]
            irregular[i] = ~_cyclotomic(_translations(fs, tables[i], gi), checks)
    return path, irregular


def _scan(fs: FieldSpec, tables: np.ndarray, checks) -> np.ndarray:
    """Which rows of tables (n, q) have a translation that is cyclotomic of
    a proper index, trying g in blocks of 1, 2, 4, ... up to CHUNK elements
    and dropping each row once one is found, so a map whose first
    translations are cyclotomic stops after little work."""
    q, q1 = fs.q, fs.q - 1
    found = np.zeros(len(tables), dtype=bool)
    left = np.arange(len(tables))
    lo, rows = 0, 1
    while lo < q and len(left):
        g = np.arange(lo, min(lo + rows, q))[None, :, None]
        hit = _cyclotomic(_translations(fs, tables[left, None], g), checks).any(axis=1)
        found[left[hit]] = True
        left = left[~hit]
        lo += rows
        rows = min(2 * rows, max(1, CHUNK // (q1 * max(1, len(left)))))
    return found


def _irregular(fs: FieldSpec, tables: np.ndarray) -> np.ndarray:
    """Which rows of tables (n, q), orthomorphisms, are irregular: the degree
    certificate, then the translation scan for the rows it leaves."""
    checks = _period_checks(fs)
    path, irregular = _certify(fs, tables, checks)
    left = path >= P_DIVIDES_SCAN
    irregular[left] = ~_scan(fs, tables[left], checks)
    return irregular


def is_irregular(t: MapTable) -> bool:
    """True when no translation of t is cyclotomic of any proper index."""
    if not is_orthomorphism(t):
        raise PreconditionError("irregularity is defined for orthomorphisms only")
    return _is_irregular(t)


def _is_irregular(t: MapTable) -> bool:
    """is_irregular for a map its caller has checked is an orthomorphism."""
    return bool(_irregular(t.field, t.values[None])[0])
