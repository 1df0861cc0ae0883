"""Constructions of orthomorphism pairs at Hamming distance 3.

distance3_pair() dispatches on (p, r) to one of the specialized builders
below and succeeds for every prime power q except 2, 5 and 8, where no such
pair exists.  Every construction re-verifies its output (two orthomorphisms,
distance exactly 3) before returning, so a bug here surfaces as an exception
rather than as a bad artifact downstream; provenance tags record which
builder produced a pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import NonexistenceError, PreconditionError, SearchExhaustedError
from .gf import FieldSpec, build_field, is_prime
from .ortho import MapTable, is_irregular, is_orthomorphism, linear_map
from .polyops import hamming_distance, interpolate, ReducedPoly

NON25 = "NON25"
ONE_MOD3 = "ONE_MOD3"
SWAP_LARGE = "SWAP_LARGE"
ODD_TWO = "ODD_TWO"
F125 = "F125"
SMALL_SEARCH = "SMALL_SEARCH"
PRIME3 = "PRIME3"

#: Modulus y^3 + 3y + 3 used by the literal GF(125) witness values.
F125_MODULUS = (3, 3, 0, 1)

# Completion search tuning: per-attempt node budget factor, and how many
# reshuffled retries are allowed after the plain-order first attempt.
_NODE_BUDGET_FACTOR = 50
_RESTART_CAP = 64


@dataclass(frozen=True)
class OrthoPair:
    """Two orthomorphisms of the same field at Hamming distance 3."""

    f: MapTable
    g: MapTable
    distance: int
    provenance: str


def _verified_pair(f: MapTable, g: MapTable, provenance: str) -> OrthoPair:
    assert f.field.same_as(g.field), "pair members live over different fields"
    assert is_orthomorphism(f) and is_orthomorphism(g), \
        f"construction {provenance} produced a non-orthomorphism"
    d = hamming_distance(f, g)
    assert d == 3, f"construction {provenance} produced distance {d}, not 3"
    return OrthoPair(f=f, g=g, distance=3, provenance=provenance)


def swap_distance3(theta: MapTable, b: int, c: int) -> MapTable:
    """Rewire theta at 0, b and c into a second orthomorphism at distance 3.

    Requires theta(0) = 0, theta(b) = c and theta(c) = c - b with b, c
    distinct and nonzero; the result phi agrees with theta elsewhere and has
    phi(0) = c - b, phi(c) = c, phi(b) = 0.
    """
    fs = theta.field
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
    vals = list(theta.values)
    vals[0] = fs.sub(c, b)
    vals[c] = c
    vals[b] = 0
    phi = MapTable(fs, tuple(vals))
    assert is_orthomorphism(phi) and hamming_distance(theta, phi) == 3
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
    if sum(a != b for a, b in zip(phi.values, theta.values)) != 3:
        raise PreconditionError("subfield pair must be at Hamming distance 3")
    # Prime-subfield elements are exactly the codes below p, and their
    # arithmetic agrees with Z_p, so the small tables transfer verbatim.
    f = tuple(phi.values[x] if x < p else spec.mul(2, x) for x in range(spec.q))
    g = tuple(theta.values[x] if x < p else spec.mul(2, x) for x in range(spec.q))
    return _verified_pair(MapTable(spec, f), MapTable(spec, g), NON25)


def _near_linear_table(fs: FieldSpec, k: int, a0: int, a1: int) -> MapTable:
    vals = [0] * fs.q
    for t in range(fs.q - 1):
        x = fs.exp_table[t]
        vals[x] = fs.mul(a0 if t % k == 0 else a1, x)
    return MapTable(fs, tuple(vals))


def near_linear_pair(spec: FieldSpec) -> OrthoPair:
    """For q = 3k + 1: scan for f that multiplies the order-3 subgroup by a0
    and everything else by a1, paired with g = a1 * x; H(f, g) = 3.

    The scan runs over (a0, a1) in ascending code order.  Candidate a1 for a
    given a0 must keep both value partitions intact, which pins a1 to the
    coset a0 * {1, w, w^2} and (a1 - 1) to (a0 - 1) * {1, w, w^2}; each
    survivor is still verified in full before it is accepted.
    """
    q = spec.q
    if q <= 1 or q % 3 != 1:
        raise PreconditionError(f"q={q} is not congruent to 1 mod 3")
    k = (q - 1) // 3
    w1 = spec.exp_table[k]
    w2 = spec.exp_table[2 * k]
    subgroup = (1, w1, w2)
    for a0 in range(2, q):
        inv_a0m1 = spec.inv(spec.sub(a0, 1))
        for a1 in sorted((spec.mul(a0, w1), spec.mul(a0, w2))):
            if a1 < 2:
                continue
            if spec.mul(spec.sub(a1, 1), inv_a0m1) not in subgroup:
                continue
            f = _near_linear_table(spec, k, a0, a1)
            if not is_orthomorphism(f):
                continue
            return _verified_pair(f, linear_map(spec, a1), ONE_MOD3)
    raise SearchExhaustedError(f"no near-linear orthomorphism found for q={q}")


def _mrv_backtrack(spec: FieldSpec, theta: list[int], free_v: int, free_d: int,
                   open_pos: list[int], order: list[int], budget: int):
    """Depth-first completion, always branching on a most-constrained open
    position.

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
    if q % 2 == 0:
        raise PreconditionError("completion requires odd q")
    if not 0 <= z < q or z in (0, 1):
        raise PreconditionError("z must be a field element outside {0, 1}")
    if not 0 <= k < q or k in (0, 1):
        raise PreconditionError("k must be a field element outside {0, 1}")
    banned = (0, z, k, spec.add(k, spec.sub(z, 1)))
    if not 0 <= e < q or e in banned:
        raise PreconditionError("e must be a field element outside {0, z, k, k+z-1}")

    sub = spec.sub
    full = (1 << q) - 1
    free_v = full & ~(1 | (1 << z) | (1 << e))
    free_d = full & ~(1 | (1 << sub(z, 1)) | (1 << sub(e, k)))
    open_pos = [x for x in range(2, q) if x != k]
    budget = max(1000, _NODE_BUDGET_FACTOR * len(open_pos))
    rng = random.Random(f"{seed}:{q}:{z}:{k}:{e}")

    for attempt in range(_RESTART_CAP + 1):
        order = list(range(q))
        if attempt:
            rng.shuffle(order)
        theta = [-1] * q
        theta[0] = 0
        theta[1] = z
        theta[k] = e
        done = _mrv_backtrack(spec, theta, free_v, free_d, open_pos, order, budget)
        if done == "infeasible":
            break  # the whole space was explored: no restart can help
        if done is not None:
            t = MapTable(spec, tuple(done))
            assert is_orthomorphism(t)
            return t
    raise SearchExhaustedError(
        f"no orthomorphism of GF({q}) completes theta(0)=0, theta(1)={z}, theta({k})={e}")


def cubic_unique_root(spec: FieldSpec, a: int, b: int) -> bool:
    """Whether x^3 + a*x + b has exactly one root, for even q > 2, b != 0:
    decided by comparing the traces of a^3 / b^2 and 1."""
    if spec.p != 2 or spec.q <= 2:
        raise PreconditionError("criterion applies to even q > 2")
    if not (0 <= a < spec.q and 0 < b < spec.q):
        raise PreconditionError("need field elements a and b with b nonzero")
    lhs = spec.trace(spec.mul(spec.pow(a, 3), spec.inv(spec.mul(b, b))))
    return lhs != spec.trace(1)


def even_char_theta(spec: FieldSpec, a: int, c: int) -> MapTable:
    """The orthomorphism of even q >= 8 that multiplies by a except on the
    coset {0, 1, a, a+1} + c, where it also adds a * (a + 1)."""
    if spec.p != 2 or spec.q < 8:
        raise PreconditionError("theta_a needs even q >= 8")
    if not 0 <= a < spec.q or a in (0, 1):
        raise PreconditionError("a must be a field element outside {0, 1}")
    block = (c, c ^ 1, c ^ a, c ^ a ^ 1)
    if not 0 <= c < spec.q or 0 in block:
        raise PreconditionError("c must lie outside {0, 1, a, a+1}")
    shift = spec.mul(a, a ^ 1)
    vals = [spec.mul(a, x) for x in range(spec.q)]
    for x in block:
        vals[x] ^= shift
    t = MapTable(spec, tuple(vals))
    assert t[0] == 0 and is_orthomorphism(t)
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
    a = -1
    for x in range(q):
        acc = spec.pow(x, 3)
        acc = spec.add(acc, spec.mul(cp1, spec.mul(x, x)))
        acc = spec.add(acc, spec.mul(c, x))
        acc = spec.add(acc, c)
        if acc == 0:
            a = x
            break
    assert a >= 0, "selection cubic has no root"
    assert a not in (0, 1, c, cp1), "cubic root collides with the coset block"
    theta = even_char_theta(spec, a, c)
    b = spec.mul(c, spec.inv(a))
    assert b not in (c, c ^ 1, c ^ a, c ^ a ^ 1), "swap point b fell into the shifted block"
    assert theta[b] == c and theta[c] == spec.add(c, b)
    s = spec.add(spec.add(spec.mul(c, c), c), 1)
    assert spec.trace(spec.mul(spec.pow(s, 3), spec.inv(spec.pow(c, 4)))) == 0
    phi = swap_distance3(theta, b, c)
    return _verified_pair(theta, phi, ODD_TWO)


def _f125_table(fs: FieldSpec, b: int) -> tuple[int, ...]:
    # (a - b) = 1 whenever b = a + 4 over characteristic 5, so the
    # normalizing factor drops out of x^5 - b*x.
    return tuple(fs.sub(fs.pow(x, 5), fs.mul(b, x)) for x in range(125))


def pair_f125(spec: FieldSpec | None = None) -> OrthoPair:
    """The literal GF(125) witness: modulus y^3 + 3y + 3, f = x^5 - (y^2+4)x,
    swapped at (y^2, f(y^2)).  Pinned element codes throughout."""
    fs = spec if spec is not None else build_field(5, 3, F125_MODULUS)
    if (fs.p, fs.r, fs.modulus, fs.gamma) != (5, 3, F125_MODULUS, 5):
        raise PreconditionError(
            "pair_f125 needs GF(125) with modulus y^3 + 3y + 3 and gamma = y")
    a = 25                 # y^2
    b = fs.add(a, 4)       # y^2 + 4
    assert fs.log_table[b] == 75
    vals = _f125_table(fs, b)
    f = MapTable(fs, vals)
    c = vals[a]
    assert vals[0] == 0 and c == 103 and vals[103] == 78
    assert fs.exp_table[118] == 103 and fs.exp_table[40] == 78
    assert vals[c] == fs.sub(c, a)
    phi = swap_distance3(f, a, c)
    return _verified_pair(f, phi, F125)


def _f125_scan(fs: FieldSpec) -> OrthoPair:
    """Same x^5-based construction in an arbitrary GF(125) basis: scan for a
    outside the fourth powers with a + 4 outside too and the swap equation
    f(f(a)) = f(a) - a satisfied.  A witness always exists because the pinned
    one transports through any field isomorphism."""
    if (fs.p, fs.r) != (5, 3):
        raise PreconditionError("needs GF(125)")
    log = fs.log_table
    for a in range(1, 125):
        if log[a] % 4 == 0:
            continue
        b = fs.add(a, 4)
        if b == 0 or log[b] % 4 == 0:
            continue
        vals = _f125_table(fs, b)
        c = vals[a]
        if vals[c] != fs.sub(c, a):
            continue
        f = MapTable(fs, vals)
        if not is_orthomorphism(f):
            continue
        phi = swap_distance3(f, a, c)
        return _verified_pair(f, phi, F125)
    raise SearchExhaustedError("no x^5-based witness found in this GF(125) basis")


def _swap_search(fs: FieldSpec, seed: int, provenance: str) -> OrthoPair:
    # Target pattern theta(0)=0, theta(1)=z, theta(z)=z-1 for ascending z,
    # then swap at (1, z).
    for z in range(2, fs.q):
        try:
            theta = complete_partial(fs, z, z, fs.sub(z, 1), seed=seed)
        except SearchExhaustedError:
            continue
        phi = swap_distance3(theta, 1, z)
        return _verified_pair(theta, phi, provenance)
    raise SearchExhaustedError(f"no completable swap pattern for q={fs.q}")


def _prime_pair(fs: FieldSpec, seed: int) -> OrthoPair:
    p = fs.q
    if p == 3:
        f = linear_map(fs, 2)
        g = MapTable(fs, tuple(fs.add(fs.mul(2, x), 1) for x in range(3)))
        return _verified_pair(f, g, PRIME3)
    if p % 3 == 1:
        return near_linear_pair(fs)
    return _swap_search(fs, seed, SMALL_SEARCH)


def small_prime_pair(p: int, seed: int = 0) -> OrthoPair:
    """Distance-3 pair over the prime field Z_p, p a prime outside {2, 5}."""
    if p in (2, 5):
        raise NonexistenceError(f"no distance-3 pair exists over GF({p})")
    if not isinstance(p, int) or not is_prime(p):
        raise PreconditionError(f"p={p} is not prime")
    return _prime_pair(build_field(p, 1), seed)


def distance3_pair(spec: FieldSpec, seed: int = 0) -> OrthoPair:
    """Orthomorphism pair of GF(q) at Hamming distance exactly 3; exists for
    every prime power except 2, 5 and 8."""
    q = spec.q
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
    elif q == 125:
        if spec.modulus == F125_MODULUS and spec.gamma == 5:
            pair = pair_f125(spec)
        else:
            pair = _f125_scan(spec)
    else:                   # p = 5, r odd >= 5
        pair = _swap_search(spec, seed, SWAP_LARGE)
    assert pair.distance == 3 and is_orthomorphism(pair.f) and is_orthomorphism(pair.g)
    return pair


def max_degree_orthomorphism(spec: FieldSpec, seed: int = 0) -> ReducedPoly:
    """An orthomorphism polynomial of reduced degree exactly q - 3, the
    maximum possible; exists for every prime power except 2, 3, 5 and 8."""
    if spec.q in (2, 3, 5, 8):
        raise NonexistenceError(
            f"no orthomorphism of reduced degree q-3 exists over GF({spec.q})")
    pair = distance3_pair(spec, seed)
    target = spec.q - 3
    for t in (pair.f, pair.g):
        poly = interpolate(t)
        if poly.degree == target:
            return poly
    raise AssertionError("distance-3 pair with no degree q-3 member")
