"""Constructions of orthomorphism pairs at Hamming distance 3.

distance3_pair() dispatches on (p, r) to one of the specialized builders
below and succeeds for every prime power q except 2, 5 and 8, where no such
pair exists.  Every construction re-verifies its output (two orthomorphisms,
distance exactly 3) before returning, so a bug here surfaces as an exception
rather than as a bad artifact downstream; provenance tags record which
builder produced a pair.  Only the SMALL_SEARCH completion search reads a
seed: over primes p = 2 (mod 3) above 5, and lifted from there by NON25.

irregular_orthomorphism() decides which irregular construction applies:
the first irregular even_char_theta for even q > 4, else the pair member
of degree q - 3 for q > 7 with q not 1 mod 3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import NonexistenceError, PreconditionError, SearchExhaustedError
from .gf import CHUNK, FieldSpec, as_int, build_field
from .ortho import (MapTable, _degrees, is_irregular, is_orthomorphism,
                    linear_map, scaled_map)
from .polyops import ReducedPoly, hamming_distance, interpolate, tabulate

NON25 = "NON25"
ONE_MOD3 = "ONE_MOD3"
ODD_TWO = "ODD_TWO"
F125 = "F125"
LINEARIZED = "LINEARIZED"
SMALL_SEARCH = "SMALL_SEARCH"
PRIME3 = "PRIME3"

#: Modulus y^3 + 3y + 3 used by the literal GF(125) witness values.
F125_MODULUS = (3, 3, 0, 1)

# Completion search tuning: per-attempt node budget factor, and how many
# reshuffled retries are allowed after the plain-order first attempt.
_NODE_BUDGET_FACTOR = 50
_RESTART_CAP = 64
_FREE, _CLOSED = 1 << 32, 1 << 62  # search key units (see _mrv_backtrack)


@dataclass(frozen=True)
class OrthoPair:
    """Two orthomorphisms of the same field at Hamming distance 3."""

    f: MapTable
    g: MapTable
    distance: int
    provenance: str


def _verified_pair(f: MapTable, g: MapTable, provenance: str) -> OrthoPair:
    if f.field != g.field:
        raise AssertionError("pair members live over different fields")
    if not (is_orthomorphism(f) and is_orthomorphism(g)):
        raise AssertionError(f"construction {provenance} produced a non-orthomorphism")
    d = hamming_distance(f, g)
    if d != 3:
        raise AssertionError(f"construction {provenance} produced distance {d}, not 3")
    return OrthoPair(f=f, g=g, distance=3, provenance=provenance)


def swap_distance3(theta: MapTable, b: int, c: int) -> MapTable:
    """Rewire theta at 0, b and c into a second orthomorphism at distance 3.

    Requires theta(0) = 0, theta(b) = c and theta(c) = c - b with b, c
    distinct and nonzero; the result phi agrees with theta elsewhere and has
    phi(0) = c - b, phi(c) = c, phi(b) = 0.
    """
    fs = theta.field
    b, c = (as_int(v, "b and c must be field elements") for v in (b, c))
    if not (0 <= b < fs.q and 0 <= c < fs.q):
        raise PreconditionError("b and c must be field elements")
    if b == c:
        raise PreconditionError("b and c must be distinct")
    if b == 0 or c == 0:
        raise PreconditionError("b and c must be nonzero")
    if theta[0] != 0:
        raise PreconditionError("theta(0) must be 0")
    if theta[b] != c:
        raise PreconditionError("theta(b) must equal c")
    if theta[c] != fs.sub(c, b):
        raise PreconditionError("theta(c) must equal c - b")
    if not is_orthomorphism(theta):
        raise PreconditionError("theta is not an orthomorphism")
    vals = theta.values.copy()
    vals[0] = fs.sub(c, b)
    vals[c] = c
    vals[b] = 0
    phi = MapTable(fs, vals)
    if not (is_orthomorphism(phi) and hamming_distance(theta, phi) == 3):
        raise AssertionError("swap did not give an orthomorphism at distance 3")
    return phi


def lift_subfield_pair(spec: FieldSpec, phi: MapTable, theta: MapTable) -> OrthoPair:
    """Extend a distance-3 prime-field pair to GF(p^r) by doubling outside
    the prime subfield.  Characteristic must avoid 2 and 5."""
    if spec.p in (2, 5):
        raise PreconditionError("subfield lift needs characteristic outside {2, 5}")
    if spec.r == 1:
        raise PreconditionError("subfield lift needs a proper extension")
    p = spec.p
    for t in (phi, theta):
        if t.field.q != p or t.field.r != 1:
            raise PreconditionError("subfield maps must live on the prime field")
        if not is_orthomorphism(t):
            raise PreconditionError("subfield maps must be orthomorphisms")
    if hamming_distance(phi, theta) != 3:
        raise PreconditionError("subfield pair must be at Hamming distance 3")
    # Prime-subfield elements are exactly the codes below p, and their
    # arithmetic agrees with Z_p, so the small tables transfer verbatim.
    doubled = linear_map(spec, 2).values[p:]
    f = MapTable(spec, np.concatenate((phi.values, doubled)))
    g = MapTable(spec, np.concatenate((theta.values, doubled)))
    return _verified_pair(f, g, NON25)


def _near_linear_table(fs: FieldSpec, k: int, a0: int, a1: int) -> MapTable:
    """x -> a0 * x on the powers gamma^t with k | t, x -> a1 * x elsewhere."""
    log = fs.log_array
    return scaled_map(fs, np.where(log[1:] % k == 0, log[a0], log[a1]))


def near_linear_pair(spec: FieldSpec) -> OrthoPair:
    """For q = 3k + 1: scan for f that multiplies the order-3 subgroup by a0
    and everything else by a1, paired with g = a1 * x; H(f, g) = 3.

    The scan runs over (a0, a1) in ascending code order.  Candidate a1 for a
    given a0 must keep both value partitions intact, which pins a1 to the
    coset a0 * {1, w, w^2} and (a1 - 1) to (a0 - 1) * {1, w, w^2}, the
    subgroup {1, w, w^2} being the powers gamma^t with k | t; array passes
    over blocks of a0 apply both, and each survivor is still verified in
    full before it is accepted.
    """
    q = spec.q
    if q <= 1 or q % 3 != 1:
        raise PreconditionError(f"q={q} is not congruent to 1 mod 3")
    k = (q - 1) // 3
    w = spec.exp_array[[k, 2 * k]]
    log = spec.log_array
    for lo in range(2, q, CHUNK):
        a0 = np.arange(lo, min(lo + CHUNK, q), dtype=np.int64)
        a1 = np.sort(spec.mul_array(a0[:, None], w), axis=1)
        coset = (log[spec.sub_array(a1, 1)] - log[spec.sub_array(a0, 1)][:, None]) % k == 0
        for i, j in zip(*((a1 >= 2) & coset).nonzero()):  # a0, then a1 ascending
            f = _near_linear_table(spec, k, int(a0[i]), int(a1[i, j]))
            if is_orthomorphism(f):
                return _verified_pair(f, linear_map(spec, int(a1[i, j])), ONE_MOD3)
    raise SearchExhaustedError(f"no near-linear orthomorphism found for q={q}")


def _mrv_backtrack(spec: FieldSpec, theta: list[int], order: list[int],
                   budget: int):
    """Depth-first completion of theta's -1 entries, always branching on a
    most-constrained open position.  The other entries are pins: their
    values must be distinct, and so must their differences v - x.

    key[x] is count * 2^32 + rank at an open x, count being its number of
    feasible values and ranks running in ascending x, then one more per
    reopening; other positions hold _CLOSED, so key.argmin() picks the
    least count, ties going to the earliest opened.  wv and wd, doubled,
    weigh each value and difference 2^32 while free and 0 once used.
    Every count starts at q and every weight free; weigh(v0, d0, w) sets
    the weights of v0 and d0 to w, then takes the weights of v0 - x and
    x + d0 off every key (w = 0: each pin, and each assignment
    v0 = x0 + d0) or adds them back (an undo): gathers on an extension
    field, two slices on a prime field, of wv and of wdr = wd[::-1], a
    view with wdr[i] = wd[-i mod q].  Each node builds its row of feasible
    values in value order, wv[v] & wd[v - x0]: two slices on a prime field
    (wd has period q), a gather on an extension field.  It reads the row
    from the resume point j on, after the value last tried: as the slice
    row[j:] in the plain ascending order, as the gather row[order[j:]]
    after a reshuffle.  An undo restores the weights that value was found
    under, so the count of untried values says when no scan can find one.
    Returns a filled table, None when the node budget ran out, or
    "infeasible" when the whole space was exhausted within budget.
    """
    # Ranks < 2^32 (reopenings <= nodes <= 50 * 2^20); open keys < 2^53; a
    # closed key drifts at most 2q * 2^32 from 2^62 before it is overwritten.
    q, sub, add = spec.q, spec.sub_array, spec.add_array
    xs = np.arange(q)
    pinned = np.array(theta) >= 0
    n = q - int(np.count_nonzero(pinned))
    key = np.full(q, _CLOSED, dtype=np.int64)
    key[~pinned] = q * _FREE + np.arange(n)
    wv = np.full(2 * q, _FREE, dtype=np.int64)
    wdr = np.full(2 * q + 1, _FREE, dtype=np.int64)
    wd = wdr[::-1]
    order = np.asarray(order, dtype=np.int64)
    plain = np.array_equal(order, xs)
    # (x0, count, left, j, v0, d0): x0 took v0 = x0 + d0 with `left` of its
    # `count` feasible values still untried; its scan resumes at j
    frames: list[tuple[int, int, int, int, int, int]] = []
    nodes, rank = 0, n

    def weigh(v0: int, d0: int, w: int) -> None:
        wv[v0::q] = wd[d0::q] = w
        if spec.r == 1:
            lost = wdr[q - v0:2 * q - v0], wv[d0:d0 + q]
        else:
            lost = wd[sub(v0, xs)], wv[add(xs, d0)]
        op = np.add if w else np.subtract
        for row in lost:
            op(key, row, out=key)

    for x in np.flatnonzero(pinned).tolist():
        weigh(theta[x], spec.sub(theta[x], x), 0)
    while n:
        x0 = int(key.argmin())
        left = c0 = key.item(x0) >> 32
        j = 0
        while not left:
            if not frames:
                return "infeasible"
            # undo the parent assignment and resume its value scan
            x0, c0, left, j, v0, d0 = frames.pop()
            weigh(v0, d0, _FREE)
            theta[x0] = -1
            key[x0] = c0 * _FREE + rank
            rank, n = rank + 1, n + 1
        if spec.r == 1:
            row = wv[:q] & wd[q - x0:2 * q - x0]
        else:
            diff = sub(xs, x0)
            row = wv[:q] & wd[diff]
        k = int((row[j:] if plain else row[order[j:]]).argmax())
        nodes += 1
        if nodes > budget:
            return None
        v0 = j + k if plain else order.item(j + k)
        d0 = (v0 - x0) % q if spec.r == 1 else diff.item(v0)
        theta[x0] = v0
        key[x0] = _CLOSED
        n -= 1
        weigh(v0, d0, 0)
        frames.append((x0, c0, left - 1, j + k + 1, v0, d0))
    return theta


def complete_partial(spec: FieldSpec, z: int, k: int, e: int,
                     seed: int = 0) -> MapTable:
    """Complete theta(0) = 0, theta(1) = z, theta(k) = e to a full
    orthomorphism.

    Requires odd q, z and k outside {0, 1}, and e outside {0, z, k, k+z-1}
    (those four clashes are forced for any orthomorphism).  Runs budgeted
    most-constrained-first backtracking, deterministic given the seed:
    ascending value preference first, then seeded reshuffles.
    """
    q = spec.q
    z, k, e = (as_int(v, "z, k and e must be integers") for v in (z, k, e))
    seed = as_int(seed, "seed must be an integer")
    if q % 2 == 0:
        raise PreconditionError("completion requires odd q")
    if not 0 <= z < q or z in (0, 1):
        raise PreconditionError("z must be a field element outside {0, 1}")
    if not 0 <= k < q or k in (0, 1):
        raise PreconditionError("k must be a field element outside {0, 1}")
    banned = (0, z, k, spec.add(k, spec.sub(z, 1)))
    if not 0 <= e < q or e in banned:
        raise PreconditionError("e must be a field element outside {0, z, k, k+z-1}")

    budget = max(1000, _NODE_BUDGET_FACTOR * (q - 3))
    rng = random.Random(f"{seed}:{q}:{z}:{k}:{e}")

    for attempt in range(_RESTART_CAP + 1):
        order = list(range(q))
        if attempt:
            rng.shuffle(order)
        theta = [-1] * q
        theta[0] = 0
        theta[1] = z
        theta[k] = e
        done = _mrv_backtrack(spec, theta, order, budget)
        if done == "infeasible":
            break  # the whole space was explored: no restart can help
        if done is not None:
            t = MapTable(spec, done)
            if not is_orthomorphism(t):
                raise AssertionError(
                    f"completion over GF({q}) produced a non-orthomorphism")
            return t
    raise SearchExhaustedError(
        f"no orthomorphism of GF({q}) completes theta(0)=0, theta(1)={z}, theta({k})={e}")


def cubic_unique_root(spec: FieldSpec, a: int, b: int) -> bool:
    """Whether x^3 + a*x + b has exactly one root, for even q > 2, b != 0:
    decided by comparing the traces of a^3 / b^2 and 1."""
    if spec.p != 2 or spec.q <= 2:
        raise PreconditionError("criterion applies to even q > 2")
    a, b = (as_int(v, "need field elements a and b with b nonzero") for v in (a, b))
    if not (0 <= a < spec.q and 0 < b < spec.q):
        raise PreconditionError("need field elements a and b with b nonzero")
    lhs = spec.trace(spec.mul(spec.pow(a, 3), spec.inv(spec.mul(b, b))))
    return lhs != spec.trace(1)


def even_char_theta(spec: FieldSpec, a: int, c: int) -> MapTable:
    """The orthomorphism of even q >= 8 that multiplies by a except on the
    coset {0, 1, a, a+1} + c, where it also adds a * (a + 1)."""
    if spec.p != 2 or spec.q < 8:
        raise PreconditionError("theta_a needs even q >= 8")
    a, c = (as_int(v, "a and c must be integers") for v in (a, c))
    if not 0 <= a < spec.q or a in (0, 1):
        raise PreconditionError("a must be a field element outside {0, 1}")
    block = (c, c ^ 1, c ^ a, c ^ a ^ 1)
    if not 0 <= c < spec.q or 0 in block:
        raise PreconditionError("c must lie outside {0, 1, a, a+1}")
    shift = spec.mul(a, a ^ 1)
    vals = linear_map(spec, a).values.copy()
    vals[list(block)] ^= shift
    t = MapTable(spec, vals)
    if t[0] != 0 or not is_orthomorphism(t):
        raise AssertionError(
            f"theta_a over GF({spec.q}) with a={a}, c={c} is not a "
            "zero-fixing orthomorphism")
    return t


def even_irregular_witness(spec: FieldSpec) -> tuple[int, int, MapTable]:
    """The first irregular even_char_theta(spec, a, c) of even q >= 8, with
    its (a, c), scanning a ascending and then c ascending."""
    if spec.p != 2 or spec.q < 8:
        raise PreconditionError("theta_a needs even q >= 8")
    for a in range(2, spec.q):
        for c in range(1, spec.q):
            if c in (1, a, a ^ 1):
                continue
            t = even_char_theta(spec, a, c)
            if is_irregular(t):
                return a, c, t
    raise AssertionError(f"even-q scan found no irregular witness for q={spec.q}")


def pair_even_odd_power(spec: FieldSpec) -> OrthoPair:
    """Distance-3 pair over GF(2^r), r odd >= 5: pick the smallest c with
    c^3 + c + 1 != 0 and Tr(1/c^3) = 0, root the cubic
    x^3 + (c+1)x^2 + cx + c, and swap theta_a at (b, c) with b = c / a."""
    if spec.p != 2 or spec.r % 2 == 0 or spec.r < 5:
        raise PreconditionError("needs q = 2^r with odd r >= 5")
    q = spec.q
    for c in range(1, q):
        if spec.add(spec.add(spec.pow(c, 3), c), 1) == 0:
            continue
        if spec.trace(spec.inv(spec.pow(c, 3))) == 0:
            break
    else:
        raise AssertionError("no admissible c below q")
    cp1 = c ^ 1
    roots = np.flatnonzero(tabulate(ReducedPoly(spec, (c, c, cp1, 1))).values == 0)
    if not len(roots):
        raise AssertionError("selection cubic has no root")
    a = int(roots[0])
    if a in (0, 1, c, cp1):
        raise AssertionError("cubic root collides with the coset block")
    theta = even_char_theta(spec, a, c)
    b = spec.mul(c, spec.inv(a))
    if b in (c, c ^ 1, c ^ a, c ^ a ^ 1):
        raise AssertionError("swap point b fell into the shifted block")
    if theta[b] != c or theta[c] != spec.add(c, b):
        raise AssertionError("theta_a does not map b to c and c to c + b")
    s = spec.add(spec.add(spec.mul(c, c), c), 1)
    if spec.trace(spec.mul(spec.pow(s, 3), spec.inv(spec.pow(c, 4)))) != 0:
        raise AssertionError("Tr(s^3 / c^4) is nonzero")
    phi = swap_distance3(theta, b, c)
    return _verified_pair(theta, phi, ODD_TWO)


def _linearized(fs: FieldSpec, b: int) -> MapTable:
    """x -> x^5 - b*x, an F_5-linear map of GF(5^r)."""
    return tabulate(ReducedPoly(fs, (0, fs.neg(b), 0, 0, 0, 1)))


def pair_f125(spec: FieldSpec | None = None) -> OrthoPair:
    """The literal GF(125) witness: modulus y^3 + 3y + 3, f = x^5 - (y^2+4)x,
    swapped at (y^2, f(y^2)).  Pinned element codes throughout."""
    fs = spec if spec is not None else build_field(5, 3, F125_MODULUS)
    if (fs.p, fs.r, fs.modulus, fs.gamma) != (5, 3, F125_MODULUS, 5):
        raise PreconditionError(
            "pair_f125 needs GF(125) with modulus y^3 + 3y + 3 and gamma = y")
    a = 25                 # y^2
    b = fs.add(a, 4)       # y^2 + 4
    f = _linearized(fs, b)
    c = f[a]
    if not (fs.log_array[b] == 75 and f[0] == 0 and c == 103
            and f[103] == 78 and fs.exp_array[118] == 103
            and fs.exp_array[40] == 78 and f[c] == fs.sub(c, a)):
        raise AssertionError("GF(125) witness left its pinned codes")
    phi = swap_distance3(f, a, c)
    return _verified_pair(f, phi, F125)


def linearized_pair(fs: FieldSpec) -> OrthoPair:
    """Distance-3 pair over GF(5^r), r odd >= 3, in any basis: f(x) =
    x^5 - b*x, an orthomorphism exactly when neither b nor b + 1 is a
    nonzero fourth power, swapped at (a, f(a)) for an a != 0 with
    f(f(a)) = f(a) - a.  The scan tries b = a - 1 for a ascending, then
    every b ascending with its least a: one O(q) array pass per rule or b."""
    if fs.p != 5 or fs.r % 2 == 0 or fs.r < 3:
        raise PreconditionError("needs q = 5^r with odd r >= 3")
    q = fs.q
    quartic = fs.log_array % 4 == 0  # the nonzero fourth powers
    ok = ~quartic & ~quartic[fs.add_array(np.arange(q), 1)]  # f is an orthomorphism
    x5 = _linearized(fs, 0).values
    a = np.arange(1, q, dtype=np.int64)
    for b in chain([fs.sub_array(a, 1)], np.flatnonzero(ok)):
        b = np.broadcast_to(b, a.shape)
        c = fs.sub_array(x5[a], fs.mul_array(b, a))
        fc = fs.sub_array(x5[c], fs.mul_array(b, c))
        hit = np.flatnonzero(ok[b] & (fc == fs.sub_array(c, a)))
        if len(hit):
            break
    else:
        raise SearchExhaustedError(f"no x^5 - b*x witness found for q={q}")
    i = int(hit[0])
    f = _linearized(fs, int(b[i]))
    if not is_orthomorphism(f):  # checked in full before the swap
        raise AssertionError(f"x^5 - {int(b[i])}x over GF({q}) is not an orthomorphism")
    phi = swap_distance3(f, int(a[i]), int(c[i]))
    return _verified_pair(f, phi, F125 if q == 125 else LINEARIZED)


def _swap_search(fs: FieldSpec, seed: int) -> OrthoPair:
    # Target pattern theta(0)=0, theta(1)=z, theta(z)=z-1 for ascending z,
    # then swap at (1, z).
    for z in range(2, fs.q):
        try:
            theta = complete_partial(fs, z, z, fs.sub(z, 1), seed=seed)
        except SearchExhaustedError:
            continue
        phi = swap_distance3(theta, 1, z)
        return _verified_pair(theta, phi, SMALL_SEARCH)
    raise SearchExhaustedError(f"no completable swap pattern for q={fs.q}")


def _prime_pair(fs: FieldSpec, seed: int) -> OrthoPair:
    p = fs.q
    if p == 3:
        f = linear_map(fs, 2)
        g = MapTable(fs, [fs.add(fs.mul(2, x), 1) for x in range(3)])
        return _verified_pair(f, g, PRIME3)
    if p % 3 == 1:
        return near_linear_pair(fs)
    return _swap_search(fs, seed)


def small_prime_pair(p: int, seed: int = 0) -> OrthoPair:
    """distance3_pair over the prime field Z_p; p = 2 and p = 5 raise its
    NonexistenceError."""
    return distance3_pair(build_field(p, 1), seed)


def distance3_pair(spec: FieldSpec, seed: int = 0) -> OrthoPair:
    """Orthomorphism pair of GF(q) at Hamming distance exactly 3; exists for
    every prime power except 2, 5 and 8.  seed affects only the SMALL_SEARCH
    pairs and their NON25 lifts (see the module docstring)."""
    q = spec.q
    seed = as_int(seed, "seed must be an integer")
    if q in (2, 5, 8):
        raise NonexistenceError(
            f"no orthomorphism pair at Hamming distance 3 exists over GF({q})")
    if spec.p not in (2, 5):
        if spec.r == 1:
            pair = _prime_pair(spec, seed)
        else:
            base = _prime_pair(build_field(spec.p, 1), seed)
            pair = lift_subfield_pair(spec, base.f, base.g)
    elif q % 3 == 1:        # p in {2, 5} with r even
        pair = near_linear_pair(spec)
    elif spec.p == 2:       # r odd, q not in {2, 8}, so r >= 5
        pair = pair_even_odd_power(spec)
    elif spec.modulus == F125_MODULUS and spec.gamma == 5:
        pair = pair_f125(spec)
    else:                   # p = 5, r odd >= 3
        pair = linearized_pair(spec)
    if pair.distance != 3 or not (is_orthomorphism(pair.f)
                                  and is_orthomorphism(pair.g)):
        raise AssertionError(
            f"distance3_pair over GF({q}) returned a {pair.provenance} pair "
            "that is not two orthomorphisms at distance 3")
    return pair


def max_degree_member(spec: FieldSpec, seed: int = 0) -> MapTable:
    """The first member of distance3_pair(spec, seed) of reduced degree
    q - 3, the maximum possible; exists for every prime power except 2, 3,
    5 and 8.  As no orthomorphism has degree above q - 3, reading both
    members' top three coefficients, O(q) each, settles it."""
    if spec.q in (2, 3, 5, 8):
        raise NonexistenceError(
            f"no orthomorphism of reduced degree q-3 exists over GF({spec.q})")
    pair = distance3_pair(spec, seed)
    degree, _ = _degrees(spec, np.stack([pair.f.values, pair.g.values]), 3)
    for t, d in zip((pair.f, pair.g), degree.tolist()):
        if d == spec.q - 3:
            return t
    raise AssertionError("distance-3 pair with no degree q-3 member")


def max_degree_orthomorphism(spec: FieldSpec, seed: int = 0) -> ReducedPoly:
    """The reduced polynomial of max_degree_member(spec, seed), of degree
    exactly q - 3."""
    poly = interpolate(max_degree_member(spec, seed))
    if poly.degree != spec.q - 3:
        raise AssertionError("distance-3 pair member has no degree q-3 polynomial")
    return poly


def irregular_orthomorphism(spec: FieldSpec, seed: int = 0) -> tuple[MapTable, dict]:
    """An irregular orthomorphism of GF(q) and how it was built: branch
    "even-theta" with the params (a, c) of even_irregular_witness, or
    "max-degree" with the degree q - 3 of max_degree_member(spec, seed)."""
    q = spec.q
    seed = as_int(seed, "seed must be an integer")
    if spec.p == 2 and q > 4:
        a, c, t = even_irregular_witness(spec)
        return t, {"branch": "even-theta", "params": {"a": a, "c": c}}
    if q > 7 and q % 3 != 1:
        t = max_degree_member(spec, seed)
        if not is_irregular(t):
            raise AssertionError("maximal-degree orthomorphism is not irregular")
        return t, {"branch": "max-degree", "degree": q - 3}
    raise PreconditionError(
        f"no irregular-orthomorphism construction applies to q={q}: "
        "need even q > 4, or q > 7 with q not 1 mod 3")
