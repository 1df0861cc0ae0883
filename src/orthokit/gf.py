"""Finite fields GF(p^r) with table-driven arithmetic.

A field element is a plain int in [0, q): the code sum(c_i * p**i) of its
polynomial-basis coordinates, c_0 being the constant term.  Code 0 is the
additive identity, code 1 the multiplicative identity, and codes 0..p-1 are
exactly the prime subfield.  Addition works digit-wise in base p (XOR when
p == 2); multiplication, inversion and powers go through exp/log tables for
a fixed primitive element gamma, so each costs a couple of lookups.

Each field holds its tables once, as read-only int64 arrays (exp_array,
log_array), and its arithmetic is one array kernel: elementwise add_array /
sub_array / mul_array, a field sum along an axis, and power_sums, the one
kernel for sums of weighted powers of gamma, O(q) per row and node, and dft,
all q - 1 rows of it at once in O(q * sum(l_i)) over the prime factors l_i
of q - 1; transform alone chooses between them.  Addition has three
branches: mod p for primes, XOR for p == 2, and otherwise lookups in two
int16 tables of digit-wise sums and differences of the codes below P = p^h,
P^2 <= 2^16, one per group of h digits (one when q <= P); those depend on p
alone, so they are built on first use once per characteristic, not per
field.  A field sum has the same three branches; in the third the codes are
added with their digits spread far enough apart not to carry within a run of
terms, and the digit sums, taken mod p, come back as codes by one product
with the place vector p^i.  The scalar add, sub, neg and trace are the
kernel on ints; mul, inv, pow and coset_index are .item() reads of the
tables; all return ints.  The map and polynomial routines in ortho and
polyops run on the kernel, in chunks of about CHUNK elements.  Tuple copies
of the two tables, built on first read, are for callers outside the package.

The tables are built with one multiplication, the multiplier of a: the
r x r matrix M_a of x -> a*x on base-p digit rows, digits(x*a) ==
digits(x) @ M_a mod p, built by Horner's rule from the companion matrix of
the modulus; in a prime field it is the plain int a.  exp doubles from
exp[0] = 1, exp[n:2n] = exp[0:n] @ M_gamma^n mod p, on int16 digit rows read
as codes once; at p == 2 long levels XOR byte tables of M_gamma^n on codes.

Construction policy, fully deterministic:

* the default modulus is the lexicographically smallest monic irreducible of
  degree r, coefficients compared constant term first; for r == 1 the
  convention is y - gamma;
* the default gamma is the smallest code c generating the whole
  multiplicative group, M_c^((q-1)/ell) != I for every prime ell | q - 1;
* callers may supply either explicitly, e.g. to match element codes from a
  published table.  A given gamma is accepted when its q - 1 powers are
  distinct and nonzero and gamma^(q-1) == 1; every nonzero element is then
  a unit, which proves a given modulus irreducible, so trial division runs
  first only when gamma is no int in (0, q).  A failed table is re-decided
  by it and the test above: a reducible modulus or non-primitive gamma is
  refused (PreconditionError), a fault in the table is an AssertionError.

FieldSpec instances are frozen, and compare and hash by value, by
(p, r, q, modulus, gamma), which fix the tables.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import PreconditionError

#: Largest supported field order; every table here is Theta(q) ints.
ORDER_CAP = 2**20

#: Elements per 2-D temporary in the array kernels: large enough to amortise
#: numpy's per-call overhead, small enough to stay in cache and add about a
#: megabyte of peak memory.
CHUNK = 2**14

#: Shortest prime stage a prime-field dft takes by chirp-z, not the kernel.
#: In process, stage by stage, the kernel was faster at L = 131 (q = 263:
#: 0.140 against 0.154 ms) and L = 151 (q = 16,007: 1.7 against 2.9 ms),
#: chirp-z at L = 173 (q = 347: 0.18 against 0.25 ms) and L = 179 (q = 359:
#: 0.16 against 0.24 ms).  The kernel keeps pair 263 off numpy's FFT module.
CHIRP_MIN = 173


def json_int(value, what: str) -> int:
    """value itself when it is a Python int (not a bool); JSON input must not
    be truncated from 7.5 or read from true or "3"."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise PreconditionError(f"{what} must be a JSON integer, got {value!r}")
    return value


def json_ints(values, what: str) -> list:
    """[json_int(v, what) for v in values], the types checked in one pass."""
    values = list(values)
    return values if set(map(type, values)) <= {int} else [json_int(v, what) for v in values]


def as_int(value, reason: str) -> int:
    """value as a Python int through operator.index, so NumPy integers pass;
    a bool or any other non-integer raises PreconditionError(reason)."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise PreconditionError(reason)


def is_prime(n: int) -> bool:
    return distinct_prime_factors(n) == [n]


def prime_powers(limit: int) -> list[tuple[int, int, int]]:
    """Every prime power q = p^r <= limit as (p, r, q), in increasing q."""
    out = []
    for p in range(2, limit + 1):
        if is_prime(p):
            q, r = p, 1
            while q <= limit:
                out.append((p, r, q))
                q, r = q * p, r + 1
    return sorted(out, key=lambda t: t[2])


def distinct_prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _low_digits(m: int, p: int, k: int) -> list[int]:
    """k base-p digits of m, least significant first."""
    digs = []
    for _ in range(k):
        digs.append(m % p)
        m //= p
    return digs


def _poly_divisible(f: Sequence[int], d: Sequence[int], p: int) -> bool:
    """Whether monic d divides f over Z_p (both constant term first)."""
    rem = list(f)
    dd = len(d) - 1
    for i in range(len(f) - 1 - dd, -1, -1):
        c = rem[i + dd]
        if c:
            rem[i + dd] = 0
            for j in range(dd):
                rem[i + j] = (rem[i + j] - c * d[j]) % p
    return not any(rem[:dd])


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Trial factorization; fine at the degrees this package meets."""
    deg = len(f) - 1
    if deg == 1:
        return True
    for dd in range(1, deg // 2 + 1):
        for m in range(p**dd):
            if _poly_divisible(f, _low_digits(m, p, dd) + [1], p):
                return False
    return True


def _smallest_irreducible(p: int, r: int) -> tuple[int, ...]:
    # every m below p^(r-1) gives constant term 0, a multiple of y
    for m in range(p**(r - 1), p**r):
        digs = _low_digits(m, p, r)
        digs.reverse()  # slowest-varying digit of m becomes the constant term
        f = digs + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError(f"no irreducible of degree {r} over Z_{p}")


def _times(a: int, p: int, r: int, modulus: Sequence[int]):
    """The multiplier of a: the matrix M of x -> a*x on base-p digit rows,
    digits(x*a) == digits(x) @ M mod p, built by Horner's rule from the
    companion matrix of the modulus (the multiplier of y), int16 when its
    products are exact there, r(p - 1)^2 < 2^15.  In a prime field: int a."""
    if r == 1:
        return a
    eye = np.eye(r, dtype=np.int64)
    comp = np.eye(r, k=1, dtype=np.int64)
    comp[-1] = np.negative(modulus[:r]) % p  # y^r = -(m_0 + ... + m_(r-1) y^(r-1))
    mat = 0 * eye
    for d in reversed(_low_digits(a, p, r)):
        mat = (mat @ comp + d * eye) % p
    return mat.astype(np.int16 if r * (p - 1)**2 < 2**15 else np.int64)


def _power(mat, e: int, p: int):
    """mat^e mod p, the multiplier of a^e when mat is a's."""
    if isinstance(mat, int):
        return pow(mat, e, p)
    acc = np.eye(len(mat), dtype=np.int64)
    while e:
        if e & 1:
            acc = acc @ mat % p
        e >>= 1
        if e:
            mat = mat @ mat % p
    return acc


def _scale(codes: np.ndarray, mat, p: int) -> np.ndarray:
    """The codes times the element with multiplier mat."""
    if isinstance(mat, int):
        return codes * mat % p  # each product is below p^2 <= 2^40
    place = p ** np.arange(len(mat), dtype=np.int64)
    return (codes[:, None] // place % p @ mat % p) @ place


def _is_primitive(mat, p: int, q: int, factors) -> bool:
    """Whether the element with multiplier mat generates the whole group:
    mat^((q-1)/ell) is not the identity for any prime ell in factors, those
    of q - 1.  A multiplier is the identity when it maps 1 to 1."""
    one = np.ones(1, dtype=np.int64)
    return all(_scale(one, _power(mat, (q - 1) // ell, p), p)[0] != 1
               for ell in factors)


def _exp_codes(mat, p: int, r: int) -> np.ndarray:
    """gamma^0, ..., gamma^(q-2) as codes, mat being gamma's multiplier, by
    doubling from exp[0] = 1: exp[n:2n] is exp[0:n] times gamma^n, whose
    multiplier is squared at each level, on digit rows in CHUNK-digit blocks
    read as codes by einsum (no (q - 1, r) int64 copy); at p == 2 the levels
    with 2nr >= CHUNK run on the codes, as in table-driven CRC: table[c, b] is
    the code of (b << 8c) * gamma^n, the XOR of the multiplier's rows b picks."""
    q = p**r
    head = q - 1 if p > 2 else min(q - 1, 1 << (-(-CHUNK // (2 * r)) - 1).bit_length())
    exp = np.zeros((head, r), dtype=np.int16 if r > 1 else np.int64)
    exp[0, 0] = 1
    rows, n = (max(1, CHUNK // r) if r > 1 else q), 1
    while n < head:
        m = min(n, head - n)
        for i in range(0, m, rows):
            j = min(i + rows, m)
            exp[n + i:n + j] = exp[i:j] @ mat % p if r > 1 else exp[i:j] * mat % p
        mat = mat @ mat % p if r > 1 else mat * mat % p  # products below 2^40
        n += m
    if n == q - 1:
        return exp[:, 0] if r == 1 else np.einsum("ij,j->i", exp, p ** np.arange(r))
    place, codes = p ** np.arange(r), np.empty(q - 1, dtype=np.int64)
    np.einsum("ij,j->i", exp, place, out=codes[:n])
    bits = (np.arange(256) << 8 * np.arange(-(-r // 8))[:, None])[..., None] & place > 0
    while n < q - 1:
        m, table = min(n, q - 1 - n), np.bitwise_xor.reduce(bits * (mat @ place), axis=2)
        for i in range(0, m, CHUNK):
            x = codes[i:min(i + CHUNK, m)]
            codes[n + i:n + i + len(x)] = reduce(
                np.bitwise_xor, (t.take(x >> 8 * c & 255) for c, t in enumerate(table)))
        mat, n = mat @ mat % p, n + m
    return codes


@lru_cache(maxsize=8)
def _digit_tables(p: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Read-only flat int16 tables add[a * P + b] and sub[a * P + b] of the
    digit-wise a + b and a - b mod p for the codes a, b < P = p^h, with h >= 1
    the most digits with P^2 <= 2^16, and P.  They depend on p alone, so the
    fields of one characteristic share them (the last eight p are kept; at
    p > 256 a table is p^2 entries, 2 MB at 1021).  Each digit on top is one
    broadcast of the one-digit table against the tables so far."""
    d = np.arange(p, dtype=np.int16)
    one = (d[:, None] + d) % p, (d[:, None] - d) % p
    tables, size = one, p
    while (size * p)**2 <= 2**16:
        tables = [(t1[:, None, :, None] * size + t[None, :, None, :]).reshape(size * p, -1)
                  for t1, t in zip(one, tables)]
        size *= p
    add, sub = (t.ravel() for t in tables)
    add.flags.writeable = sub.flags.writeable = False
    return add, sub, size


@dataclass(frozen=True, repr=False)
class FieldSpec:
    """Immutable description of GF(p^r) plus its arithmetic tables, two
    read-only int64 arrays.  Fields compare and hash by (p, r, q, modulus,
    gamma), which fix the tables."""

    p: int
    r: int
    q: int
    modulus: tuple[int, ...]  # monic, constant term first, length r + 1
    gamma: int
    exp_array: np.ndarray = field(compare=False)  # exp_array[i] == gamma**i, length q - 1
    log_array: np.ndarray = field(compare=False)  # inverse of exp; log_array[0] == -1

    def __repr__(self) -> str:
        return (f"FieldSpec(p={self.p}, r={self.r}, q={self.q}, "
                f"modulus={self.modulus}, gamma={self.gamma})")

    # -- additive structure --------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_array(a, b))

    def sub(self, a: int, b: int) -> int:
        return int(self.sub_array(a, b))

    def neg(self, a: int) -> int:
        return int(self.sub_array(0, a))

    # -- multiplicative structure ----------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp_array.item((self.log_array.item(a) + self.log_array.item(b))
                                   % (self.q - 1))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.exp_array.item(-self.log_array.item(a) % (self.q - 1))

    def pow(self, a: int, e: int) -> int:
        e = as_int(e, "the exponent must be an integer")
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return 0 if e else 1
        return self.exp_array.item(self.log_array.item(a) * e % (self.q - 1))

    def trace(self, a: int) -> int:
        """Sum of the r Frobenius conjugates; lands in the prime subfield."""
        if a == 0:
            return 0
        e = self.log_array.item(a) * self.p ** np.arange(self.r) % (self.q - 1)
        return int(self.sum_array(self.exp_array[e], axis=0))

    def coset_index(self, a: int, n: int) -> int:
        """Index j with a in gamma^j * <gamma^n>; needs a != 0 and n | q-1."""
        if a == 0:
            raise PreconditionError("0 lies in no multiplicative coset")
        if (n := as_int(n, f"n={n} is not an integer")) <= 0 or (self.q - 1) % n:
            raise PreconditionError(f"n={n} does not divide q-1={self.q - 1}")
        return self.log_array.item(a) % n

    def prime_subfield(self) -> range:
        """The copy of Z_p inside the field: exactly the codes 0..p-1."""
        return range(self.p)

    def to_json(self) -> dict:
        return {"p": self.p, "r": self.r,
                "modulus": list(self.modulus), "gamma": self.gamma}

    @cached_property
    def exp_table(self) -> tuple[int, ...]:
        """exp_array as a tuple of ints, for callers outside the package."""
        return tuple(self.exp_array.tolist())

    @cached_property
    def log_table(self) -> tuple[int, ...]:
        """log_array as a tuple of ints, for callers outside the package."""
        return tuple(self.log_array.tolist())

    # -- array kernel --------------------------------------------------------
    # Arguments are int64 arrays (or ints) of element codes; results are
    # int64 arrays broadcast from them (ints from ints on prime fields and
    # at p == 2, int64 scalars from ints otherwise).  add_array and
    # sub_array return fresh arrays, which callers may write in place.

    @cached_property
    def _digit_groups(self) -> tuple[np.ndarray, np.ndarray, np.int64, int]:
        """_digit_tables(p), P as an np.int64, so that a * P + b is int64
        for codes of any integer dtype, and the place P^k of the top group of
        digits of a code, P^k < q <= P^(k + 1)."""
        add, sub, size = _digit_tables(self.p)
        top = 1
        while top * size < self.q:
            top *= size
        return add, sub, np.int64(size), top

    def _digitwise(self, table: np.ndarray, a, b) -> np.ndarray:
        """table read on each group of digits of the codes a and b, a fresh
        int64 result: one gather when q <= P, otherwise one per group."""
        _, _, size, top = self._digit_groups
        index = []  # from the top group down
        while top > 1:
            ha, hb = a // top, b // top
            index.append(ha * size + hb)
            a, b = a - ha * top, b - hb * top
            top //= size
        index.append(a * size + b)
        out = table[index[0]].astype(np.int64)
        for i in index[1:]:
            out *= size
            out += table[i]
        return out

    def add_array(self, a, b) -> np.ndarray:
        if self.r == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._digitwise(self._digit_groups[0], a, b)

    def sub_array(self, a, b) -> np.ndarray:
        if self.r == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        return self._digitwise(self._digit_groups[1], a, b)

    def mul_array(self, a, b) -> np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
        log = self.log_array
        prod = self.exp_array[(log[a] + log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, prod)

    def sum_array(self, a: np.ndarray, axis: int) -> np.ndarray:
        """Field sum of the codes in a along axis."""
        if self.r == 1:
            return a.sum(axis=axis) % self.p
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=axis)
        # add the codes as plain integers in a radix wide enough that no
        # digit carries within a run, add up the runs' digits, reduce them
        # mod p in place and read them back as codes through p^i
        wide, bits, run = self._wide_codes
        partial = np.add.reduceat(wide[a], np.arange(0, a.shape[axis], run), axis=axis)
        digits = (partial[..., None] >> (bits * np.arange(self.r))) & ((1 << bits) - 1)
        digits = digits.sum(axis=axis % a.ndim, dtype=np.int64)
        digits %= self.p
        return digits @ self.p ** np.arange(self.r)

    def power_sums(self, w: np.ndarray, m: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Rows [lo, hi) of the power sums of the nodes gamma^m weighted by
        the codes w: out[i - lo, ...] is the field sum over j of
        w[..., j] * gamma^(i * m[j]), batched over the leading axes of w, so
        out has shape (hi - lo,) + w.shape[:-1].  A zero weight adds
        nothing; m holds integers >= 0, one per column of w."""
        q1 = self.q - 1
        if not w.size or hi == lo:
            return np.zeros((hi - lo, *w.shape[:-1]), dtype=np.int64)
        flat = w.reshape(-1, w.shape[-1])
        if self.r > 1:
            exp = self._exp_twice
            lw = np.where(flat == 0, 2 * q1, self.log_array[flat])
        step = max(1, CHUNK // (flat.shape[1] if self.r == 1 else flat.size))
        blocks = []
        for start in range(lo, hi, step):
            im = np.arange(start, min(start + step, hi))[:, None] * m
            im %= q1
            if self.r == 1:
                # plain integers: each product is below p^2 <= 2^40, and at
                # most q <= 2^20 of them add up, so nothing overflows int64
                block = self.exp_array[im] @ flat.T
                block %= self.p
            else:
                block = self.sum_array(exp[im[:, None] + lw], axis=-1)
            blocks.append(block)
        out = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        return out.reshape(hi - lo, *w.shape[:-1])

    @cached_property
    def radices(self) -> tuple[int, ...]:
        """The prime factors of q - 1 with multiplicity, ascending: the
        stages of dft, which costs O(q * sum(radices))."""
        out, n = [], self.q - 1
        for ell in distinct_prime_factors(n):
            while n % ell == 0:
                out.append(ell)
                n //= ell
        return tuple(out)

    def transform(self, w: np.ndarray, m: np.ndarray, rows: int) -> np.ndarray:
        """power_sums(w, m, 0, rows), distinct m < q - 1, rows <= q - 1: the one
        choice of kernel or dft.  Fewer rows, or a batch at (q - 1)^2 <= CHUNK
        (where dft is one kernel call), read the nodes as given; any other
        read drops those 0 in every map, and is dft if over sum(radices) stay."""
        q1, flat = self.q - 1, w.reshape(-1, w.shape[-1])
        if rows < q1 or len(flat) > 1 and q1 * q1 <= CHUNK:
            return self.power_sums(w, m, 0, rows)
        k = np.flatnonzero(flat.any(axis=0))
        if len(k) <= sum(self.radices):
            return self.power_sums(w.take(k, axis=-1), m.take(k), 0, q1)
        dense = np.zeros((*w.shape[:-1], q1), dtype=np.int64)
        dense[..., m] = w
        return np.moveaxis(self.dft(dense), -1, 0)

    def dft(self, w: np.ndarray) -> np.ndarray:
        """The discrete Fourier transform of length q - 1 with root gamma:
        out[..., e] is the field sum over k of w[..., k] * gamma^(k * e), for
        w of shape (..., q - 1), which is power_sums(w, arange(q - 1), 0,
        q - 1) with the row axis last.  Mixed radix (Cooley-Tukey) over the
        radices; a stage of length L with L^2 <= CHUNK, or of prime length,
        is one batched power_sums call, or on a prime field with L prime and
        L >= CHIRP_MIN (so L^2 > CHUNK) one exact chirp-z correlation."""
        return self._dft(np.asarray(w, dtype=np.int64), 1, self.radices)

    def _dft(self, w: np.ndarray, s: int, radices: tuple[int, ...]) -> np.ndarray:
        """The transform of length n = prod(radices) = (q - 1) / s along the
        last axis of w, with root gamma^s."""
        n = w.shape[-1]
        if len(radices) == 1 or n * n <= CHUNK:
            if self.r == 1 and n >= CHIRP_MIN:
                return self._chirp(w, s)
            return np.moveaxis(self.power_sums(w, s * np.arange(n), 0, n), 0, -1)
        # k = ell * k2 + k1 and e = e1 + m * e2: the length-m transforms
        # over k2, the twiddles gamma^(s * k1 * e1), the length-ell
        # transforms over k1
        ell, m = radices[-1], n // radices[-1]
        a = self._dft(w.reshape(*w.shape[:-1], m, ell).swapaxes(-1, -2),
                      s * ell, radices[:-1])
        twiddle = self.exp_array[s * np.outer(np.arange(ell), np.arange(m)) % (self.q - 1)]
        a = self._dft(self.mul_array(a, twiddle).swapaxes(-1, -2), s * m, radices[-1:])
        return a.swapaxes(-1, -2).reshape(w.shape)

    def _chirp(self, w: np.ndarray, s: int) -> np.ndarray:
        """_dft of prime length n on a prime field, by Bluestein's chirp-z:
        k * e = C(k + e, 2) - C(k, 2) - C(e, 2), so out[e] is
        gamma^(-s C(e, 2)) times the correlation sum over k of
        w[k] gamma^(-s C(k, 2)) * gamma^(s C(k + e, 2)).  The correlation is
        taken over the integers with numpy's FFT, on 10-bit limbs of codes
        below p <= 2^20, so every exact sum is below 2^41 and rounds back
        exactly; then it is reduced mod p.  Rows go in blocks of at most
        ORDER_CAP samples."""
        from numpy import fft  # at call time: the import costs about 1 ms

        n, p = w.shape[-1], self.p
        j = np.arange(2 * n - 1)
        tri = j * (j - 1) // 2 % n * s  # s * C(j, 2) mod q - 1
        chirp = self.exp_array[tri]
        unchirp = self.exp_array[-tri[:n] % (self.q - 1)]
        a = (w * unchirp % p)[..., ::-1].reshape(-1, n)
        size = 1 << (2 * n - 2).bit_length()  # >= 2n - 1: no wrap reaches e < n
        fb0, fb1 = fft.rfft(chirp & 1023, size), fft.rfft(chirp >> 10, size)
        out = np.zeros(a.shape, dtype=np.int64)
        step = max(1, ORDER_CAP // size)
        for lo in range(0, len(a), step):
            fa0 = fft.rfft(a[lo:lo + step] & 1023, size)
            fa1 = fft.rfft(a[lo:lo + step] >> 10, size)
            for shift, terms in ((0, [(fa0, fb0)]), (10, [(fa0, fb1), (fa1, fb0)]),
                                 (20, [(fa1, fb1)])):
                part = fft.irfft(sum(x * y for x, y in terms), size)[:, n - 1:2 * n - 1]
                exact = np.rint(part)
                if np.abs(part - exact).max() >= 0.25:
                    raise AssertionError("chirp-z correlation lost its exactness")
                out[lo:lo + step] += exact.astype(np.int64) % p * pow(2, shift, p) % p
        return (out % p * unchirp % p).reshape(w.shape)

    @cached_property
    def _exp_twice(self) -> np.ndarray:
        """exp_array twice over and then q - 1 zeros, read-only: power_sums
        reads it at a sum of two logarithms, which needs no reduction, and
        at 2(q - 1) + i for a zero weight, which reads 0."""
        exp = np.concatenate([self.exp_array, self.exp_array,
                              np.zeros(self.q - 1, dtype=np.int64)])
        exp.flags.writeable = False
        return exp

    @cached_property
    def _wide_codes(self) -> tuple[np.ndarray, int, int]:
        """Every code with its base-p digits spread to `bits` bits each, and
        the run length of terms that can be added before a digit overflows."""
        bits = 63 // self.r
        digits = np.arange(self.q)[:, None] // self.p ** np.arange(self.r) % self.p
        wide = digits @ (1 << (bits * np.arange(self.r)))
        return wide, bits, ((1 << bits) - 1) // (self.p - 1)


def build_field(p: int, r: int, modulus: Iterable[int] | None = None,
                gamma: int | None = None) -> FieldSpec:
    """Construct GF(p^r); see the module docstring for the default policy."""
    r = as_int(r, f"extension degree r={r} must be a positive integer")
    p = as_int(p, f"p={p} is not prime")
    if r < 1:
        raise PreconditionError(f"extension degree r={r} must be a positive integer")
    if p < 2:
        raise PreconditionError(f"p={p} is not prime")
    # the order is bounded before the trial division of p, which takes
    # sqrt(p) steps; r is bounded first, so a huge r costs no huge power
    if r >= ORDER_CAP.bit_length() or p**r > ORDER_CAP:
        raise PreconditionError(f"q={p}^{r} exceeds the supported cap {ORDER_CAP}")
    if not is_prime(p):
        raise PreconditionError(f"p={p} is not prime")
    q = p**r

    mod: tuple[int, ...] | None = None  # r == 1: y - gamma, once gamma is known
    if modulus is not None:
        mod = tuple(as_int(c, "modulus coefficients must be integers") for c in modulus)
        if any(not 0 <= c < p for c in mod):
            raise PreconditionError(
                f"modulus coefficients must lie in [0, {p}), got {list(mod)}")
        if len(mod) != r + 1 or mod[-1] != 1:
            raise PreconditionError("modulus must be monic of degree r, constant term first")
        # a given gamma's table check proves the modulus irreducible (docstring)
        if not (type(gamma) is int and 0 < gamma < q) and not _is_irreducible(mod, p):
            raise PreconditionError(f"modulus {mod} is reducible over Z_{p}")
    elif r > 1:
        mod = _smallest_irreducible(p, r)

    factors = distinct_prime_factors(q - 1)
    if gamma is None:
        gamma = next(c for c in range(1, q)
                     if _is_primitive(_times(c, p, r, mod), p, q, factors))
    elif not 0 < (gamma := as_int(gamma, f"gamma={gamma} is not a primitive element")) < q:
        raise PreconditionError(f"gamma={gamma} is not a primitive element")

    # a non-primitive gamma is refused before a degree-1 modulus is compared
    mat = _times(gamma, p, r, mod)
    exp = _exp_codes(mat, p, r)
    log = np.full(q, -1, dtype=np.int64)
    log[exp] = np.arange(len(exp))
    if len(exp) != q - 1 or log[0] != -1 or _scale(exp[-1:], mat, p)[0] != 1 \
            or not np.array_equal(log[exp], np.arange(q - 1)):
        if modulus is not None and not _is_irreducible(mod, p):
            raise PreconditionError(f"modulus {mod} is reducible over Z_{p}")
        if not _is_primitive(mat, p, q, factors):
            raise PreconditionError(f"gamma={gamma} is not a primitive element")
        raise AssertionError("exp table failed to cycle the group")
    if mod is None:
        mod = (-gamma % p, 1)
    elif r == 1 and mod != (-gamma % p, 1):
        raise PreconditionError(f"a degree-1 modulus must be y - gamma, here "
                                f"{[-gamma % p, 1]} for gamma={gamma}, got {list(mod)}")

    exp.flags.writeable = log.flags.writeable = False
    return FieldSpec(p=p, r=r, q=q, modulus=mod, gamma=gamma,
                     exp_array=exp, log_array=log)


def field_from_json(data: dict) -> FieldSpec:
    """build_field from a to_json() document; every number must be a JSON
    integer."""
    modulus = data.get("modulus")
    if modulus is not None:
        modulus = json_ints(modulus, "modulus coefficient")
    gamma = data.get("gamma")
    if gamma is not None:
        gamma = json_int(gamma, "gamma")
    return build_field(json_int(data["p"], "p"), json_int(data["r"], "r"),
                       modulus, gamma)
