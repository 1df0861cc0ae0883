"""Independent reference implementations used to pin expected test values.

Everything here recomputes finite-field arithmetic directly on coefficient
tuples: no exp/log tables, no code shared with the package.  Agreement
between these oracles and the package is therefore a meaningful check, not
a tautology.  All functions speak the same integer element codes
(sum of c_i * p**i) so results compare directly.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations, product
from numbers import Integral


def code_to_vec(code: int, p: int, r: int) -> tuple[int, ...]:
    out = []
    for _ in range(r):
        out.append(code % p)
        code //= p
    return tuple(out)


def vec_to_code(vec, p: int) -> int:
    code = 0
    for c in reversed(vec):
        code = code * p + c
    return code


class OracleField:
    """GF(p^r) arithmetic by direct polynomial computation on codes."""

    def __init__(self, p: int, r: int, modulus: tuple[int, ...]):
        assert len(modulus) == r + 1 and modulus[-1] == 1
        self.p = p
        self.r = r
        self.q = p**r
        self.modulus = modulus

    def add(self, a: int, b: int) -> int:
        p = self.p
        va = code_to_vec(a, p, self.r)
        vb = code_to_vec(b, p, self.r)
        return vec_to_code([(x + y) % p for x, y in zip(va, vb)], p)

    def sub(self, a: int, b: int) -> int:
        p = self.p
        va = code_to_vec(a, p, self.r)
        vb = code_to_vec(b, p, self.r)
        return vec_to_code([(x - y) % p for x, y in zip(va, vb)], p)

    def mul(self, a: int, b: int) -> int:
        p, r = self.p, self.r
        va = code_to_vec(a, p, r)
        vb = code_to_vec(b, p, r)
        prod = [0] * (2 * r - 1)
        for i, x in enumerate(va):
            for j, y in enumerate(vb):
                prod[i + j] = (prod[i + j] + x * y) % p
        # reduce by the monic modulus
        for i in range(2 * r - 2, r - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(r):
                    prod[i - r + j] = (prod[i - r + j] - c * self.modulus[j]) % p
        return vec_to_code(prod[:r], p)

    def powi(self, a: int, e: int) -> int:
        acc = 1
        for _ in range(e):
            acc = self.mul(acc, a)
        return acc

    def inv(self, a: int) -> int:
        assert a != 0
        for b in range(1, self.q):
            if self.mul(a, b) == 1:
                return b
        raise AssertionError("no inverse found")

    def trace(self, a: int) -> int:
        acc = 0
        x = a
        for _ in range(self.r):
            acc = self.add(acc, x)
            x = self.powi(x, self.p)
        return acc

    def element_order(self, a: int) -> int:
        assert a != 0
        x = a
        n = 1
        while x != 1:
            x = self.mul(x, a)
            n += 1
        return n

    def discrete_log(self, base: int, a: int) -> int:
        x = 1
        for n in range(self.q - 1):
            if x == a:
                return n
            x = self.mul(x, base)
        raise AssertionError("not in the cyclic group of base")


def reducible_monics(p: int, r: int) -> set[tuple[int, ...]]:
    """Every monic polynomial of degree r over Z_p (constant term first)
    that factors, found by multiplying out every pair of monic factors of
    degrees d and r - d, 1 <= d <= r / 2: a sieve, not trial division."""
    out = set()
    for d in range(1, r // 2 + 1):
        for a in product(range(p), repeat=d):
            for b in product(range(p), repeat=r - d):
                prod = [0] * (r + 1)
                for i, x in enumerate(a + (1,)):
                    for j, y in enumerate(b + (1,)):
                        prod[i + j] = (prod[i + j] + x * y) % p
                out.add(tuple(prod))
    return out


def sub_table(of: OracleField) -> list[list[int]]:
    return [[of.sub(v, x) for v in range(of.q)] for x in range(of.q)]


def all_orthomorphisms(of: OracleField) -> list[tuple[int, ...]]:
    """Filter every permutation of the field; feasible for q <= 9."""
    q = of.q
    sub = sub_table(of)
    out = []
    for perm in permutations(range(q)):
        seen = 0
        ok = True
        for x, v in enumerate(perm):
            bit = 1 << sub[x][v]
            if seen & bit:
                ok = False
                break
            seen |= bit
        if ok:
            out.append(perm)
    return out


def lagrange_interpolate(of: OracleField, values) -> tuple[int, ...]:
    """Reduced polynomial through (x, values[x]) by textbook Lagrange:
    sum over nodes of value * prod (x - z) / (node - z).  Returns exactly q
    coefficients, low degree first, untrimmed."""
    q = of.q
    coeffs = [0] * q
    for node in range(q):
        v = values[node]
        if v == 0:
            continue
        basis = [1]  # polynomial accumulator, low degree first
        denom = 1
        for z in range(q):
            if z == node:
                continue
            # basis *= (x - z)
            nz = of.sub(0, z)
            nxt = [0] * (len(basis) + 1)
            for i, c in enumerate(basis):
                nxt[i + 1] = of.add(nxt[i + 1], c)
                nxt[i] = of.add(nxt[i], of.mul(c, nz))
            basis = nxt
            denom = of.mul(denom, of.sub(node, z))
        scale = of.mul(v, of.inv(denom))
        for i, c in enumerate(basis):
            coeffs[i] = of.add(coeffs[i], of.mul(scale, c))
    return tuple(coeffs)


def poly_degree(coeffs) -> int | None:
    deg = None
    for i, c in enumerate(coeffs):
        if c:
            deg = i
    return deg


def cubic_root_count(of: OracleField, a: int, b: int) -> int:
    """Number of roots of x^3 + a*x + b, counted by full scan."""
    n = 0
    for x in range(of.q):
        val = of.add(of.add(of.powi(x, 3), of.mul(a, x)), b)
        if val == 0:
            n += 1
    return n


def is_orthomorphism_table(of: OracleField, values) -> bool:
    q = of.q
    if sorted(values) != list(range(q)):
        return False
    return sorted(of.sub(v, x) for x, v in enumerate(values)) == list(range(q))


def hamming(u, v) -> int:
    return sum(a != b for a, b in zip(u, v))


def near_linear_first_hit(of: OracleField, exp_seq: list[int]):
    """First (a0, a1) in ascending code order such that the map multiplying
    the order-3 subgroup by a0 and the rest by a1 is an orthomorphism at
    Hamming distance 3 from a1 * x.  exp_seq lists gamma^0, gamma^1, ... so
    the subgroup and cosets match the package's convention.  Full scan with
    no shortcuts."""
    q = of.q
    k = (q - 1) // 3
    for a0 in range(q):
        for a1 in range(q):
            vals = [0] * q
            for t, x in enumerate(exp_seq):
                vals[x] = of.mul(a0 if t % k == 0 else a1, x)
            if not is_orthomorphism_table(of, vals):
                continue
            lin = [of.mul(a1, x) for x in range(q)]
            if not is_orthomorphism_table(of, lin):
                continue
            if hamming(vals, lin) == 3:
                return a0, a1, tuple(vals)
    return None


def tabulate_poly(of: OracleField, coeffs) -> list[int]:
    """Values of sum(coeffs[i] * x^i) at every element, by Horner's rule."""
    out = []
    for x in range(of.q):
        acc = 0
        for c in reversed(coeffs):
            acc = of.add(of.mul(acc, x), c)
        out.append(acc)
    return out


def difference_table(of: OracleField, values) -> list[int]:
    return [of.sub(v, x) for x, v in enumerate(values)]


def translate_table(of: OracleField, values, g: int) -> list[int]:
    return [of.sub(values[of.add(x, g)], values[g]) for x in range(of.q)]


def _cyclotomic_tables(of: OracleField):
    """Multiplication table, inverses, and the index-n subgroup {x^n} for
    every proper divisor n of q - 1; built once per OracleField."""
    tables = getattr(of, "_cyclotomic_tables", None)
    if tables is None:
        q = of.q
        mul = [[of.mul(a, b) for b in range(q)] for a in range(q)]
        inv = [0] + [mul[a].index(1) for a in range(1, q)]
        subgroups = {n: sorted({of.powi(x, n) for x in range(1, q)})
                     for n in range(1, q - 1) if (q - 1) % n == 0}
        tables = of._cyclotomic_tables = (mul, inv, subgroups)
    return tables


def cyclotomic_min_index(of: OracleField, values) -> int | None:
    """Smallest proper divisor n of q - 1 such that t(x) / x is constant on
    every coset of the index-n subgroup {x^n}, by checking t(h*x) / (h*x) ==
    t(x) / x for every x != 0 and every h in the subgroup.  None when t(0)
    != 0 or no proper index fits."""
    if values[0] != 0:
        return None
    mul, inv, subgroups = _cyclotomic_tables(of)
    ratio = [mul[v][inv[x]] for x, v in enumerate(values)]
    for n, subgroup in subgroups.items():
        if all(ratio[mul[h][x]] == ratio[x]
               for h in subgroup for x in range(1, of.q)):
            return n
    return None


def is_irregular_table(of: OracleField, values) -> bool:
    """No translation x -> t(x + g) - t(g) is cyclotomic of a proper index."""
    assert is_orthomorphism_table(of, values)
    return all(cyclotomic_min_index(of, translate_table(of, values, g)) is None
               for g in range(of.q))


def is_homogeneous_bitrade(q: int, k: int, first, second) -> bool:
    """The k-homogeneous bitrade axioms by set arithmetic on tuples.

    first and second are sequences of triples (row, col, sym); every entry
    must be an integer code in [0, q), and a bitrade must be nonempty.
    """
    size = k * q
    if size < 1:
        return False
    halves = []
    for half in (first, second):
        try:
            rows = [tuple(t) for t in half]
        except TypeError:  # a flat sequence of numbers
            return False
        if any(len(t) != 3 or not all(isinstance(c, Integral) and 0 <= c < q
                                      for c in t) for t in rows):
            return False
        halves.append(tuple(tuple(int(c) for c in t) for t in rows))
    first, second = halves
    for half in halves:
        if len(half) != size or len(set(half)) != size:
            return False
    if set(first) & set(second):
        return False
    # pairwise projections: each pair of coordinates determines the third,
    # and the two halves occupy identical shapes in all three views
    for i, j in ((0, 1), (0, 2), (1, 2)):
        pf = {(t[i], t[j]) for t in first}
        pg = {(t[i], t[j]) for t in second}
        if len(pf) != size or len(pg) != size or pf != pg:
            return False
    # k-homogeneity: every line in every direction carries exactly k cells
    for half in halves:
        for i in range(3):
            counts = [0] * q
            for t in half:
                counts[t[i]] += 1
            if any(c != k for c in counts):
                return False
    return True


def bitrade_csv(first, second) -> str:
    """A bitrade's CSV text, one "L1,row,col,sym" line per triple of first,
    then one "L2,..." line per triple of second, built line by line."""
    lines = [f"L1,{row},{col},{sym}" for row, col, sym in first]
    lines += [f"L2,{row},{col},{sym}" for row, col, sym in second]
    return "\n".join(lines)


def exp_sequence(of: OracleField, gamma: int) -> list[int]:
    """gamma^0, ..., gamma^(q-2), one multiplication at a time (plain
    integer products mod p over a prime field)."""
    p = of.p
    mul = (lambda a, b: a * b % p) if of.r == 1 else of.mul
    out = [1]
    for _ in range(of.q - 2):
        out.append(mul(out[-1], gamma))
    return out


class TabulatedField:
    """OracleField subtraction and addition looked up in a q x q table,
    built on first use, for the reference search, which calls them at every
    node of an extension field."""

    def __init__(self, of: OracleField):
        self.of = of
        self.q, self.r = of.q, of.r

    @cached_property
    def _sub(self) -> list[list[int]]:
        """_sub[b][a] = a - b, digit by digit."""
        p, r = self.of.p, self.of.r
        vecs = [code_to_vec(c, p, r) for c in range(self.q)]
        return [[vec_to_code([(x - y) % p for x, y in zip(va, vb)], p) for va in vecs]
                for vb in vecs]

    def sub(self, a: int, b: int) -> int:
        return self._sub[b][a]

    def add(self, a: int, b: int) -> int:
        return self._sub[self._sub[b][0]][a]


def mrv_backtrack(spec, theta: list[int], free_v: int, free_d: int,
                  open_pos: list[int], order: list[int], budget: int):
    """Reference completion search: depth-first, always branching on a
    most-constrained open position, the first in `remaining` on ties.

    spec is any field with q, r, add and sub, such as a TabulatedField.

    free_v and free_d are bitmasks of unused values and unused differences;
    count[x] is the number of values still feasible at open position x and
    is maintained incrementally on both assignment and undo.  Returns a
    filled table, None when the node budget ran out, or the string
    "infeasible" when the whole space was exhausted within budget.
    """
    q = spec.q
    prime = spec.r == 1
    add, sub = spec.add, spec.sub
    full = (1 << q) - 1
    count = {}
    if prime:
        for x in open_pos:
            # feasible values at x are free_v intersected with free_d
            # rotated by x, since v = d + x works modulo the prime
            shifted = ((free_d << x) | (free_d >> (q - x))) & full
            count[x] = (free_v & shifted).bit_count()
    else:
        for x in open_pos:
            c = 0
            vm = free_v
            while vm:
                vb = vm & -vm
                if (free_d >> sub(vb.bit_length() - 1, x)) & 1:
                    c += 1
                vm ^= vb
            count[x] = c

    remaining = open_pos[:]
    frames: list[tuple[int, int, int, int, int]] = []  # (x0, j, v0, d0, saved count)
    nodes = 0

    def next_value(x0: int, j: int) -> tuple[int, int, int]:
        # first order[j'], j' >= j, compatible at x0 under current masks
        while j < q:
            v = order[j]
            j += 1
            if (free_v >> v) & 1:
                d = (v - x0) % q if prime else sub(v, x0)
                if (free_d >> d) & 1:
                    return v, d, j
        return -1, -1, j

    while True:
        if not remaining:
            return theta
        best = -1
        best_c = q + 1
        for x in remaining:
            c = count[x]
            if c < best_c:
                best, best_c = x, c
        x0, j = best, 0
        while True:
            v0, d0, j = (-1, -1, q) if best_c == 0 else next_value(x0, j)
            if v0 >= 0:
                nodes += 1
                if nodes > budget:
                    return None
                theta[x0] = v0
                remaining.remove(x0)
                saved = count.pop(x0)
                for x in remaining:
                    d = (v0 - x) % q if prime else sub(v0, x)
                    if (free_d >> d) & 1:
                        count[x] -= 1
                    vx = (x + d0) % q if prime else add(x, d0)
                    if vx != v0 and (free_v >> vx) & 1:
                        count[x] -= 1
                free_v &= ~(1 << v0)
                free_d &= ~(1 << d0)
                frames.append((x0, j, v0, d0, saved))
                break
            if not frames:
                return "infeasible"
            # undo the parent assignment and resume its value scan
            x0, j, v0, d0, saved = frames.pop()
            free_v |= 1 << v0
            free_d |= 1 << d0
            for x in remaining:
                d = (v0 - x) % q if prime else sub(v0, x)
                if (free_d >> d) & 1:
                    count[x] += 1
                vx = (x + d0) % q if prime else add(x, d0)
                if vx != v0 and (free_v >> vx) & 1:
                    count[x] += 1
            theta[x0] = -1
            remaining.append(x0)
            count[x0] = saved
            best_c = saved


def f125_scan(of: OracleField):
    """The x^5-based GF(125) witness in the basis of of, as (f, g) value
    tuples: the first a in ascending code order outside the fourth powers,
    with b = a + 4 nonzero and outside them too, such that
    f(x) = x^5 - b*x has f(f(a)) = f(a) - a and is an orthomorphism; g
    swaps f at 0, a and f(a).  Fourth powers are the roots of x^31 = 1."""
    assert (of.p, of.r) == (5, 3)
    fifth = [of.powi(x, 5) for x in range(125)]
    quartic = {x for x in range(1, 125) if of.powi(x, 31) == 1}
    for a in range(1, 125):
        b = of.add(a, 4)
        if a in quartic or b == 0 or b in quartic:
            continue
        vals = [of.sub(fifth[x], of.mul(b, x)) for x in range(125)]
        c = vals[a]
        if vals[c] != of.sub(c, a) or not is_orthomorphism_table(of, vals):
            continue
        swapped = list(vals)
        swapped[0], swapped[c], swapped[a] = of.sub(c, a), c, 0
        return tuple(vals), tuple(swapped)
    return None
