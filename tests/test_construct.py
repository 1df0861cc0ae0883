"""Distance-3 pair builders: the swap rewiring, the subfield lift, the
near-linear scan, pinned-value completion search, and the dispatcher."""

import hashlib
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from orthokit import (NonexistenceError, PreconditionError,
                      SearchExhaustedError, complete_partial,
                      cubic_unique_root, distance3_pair, even_char_theta,
                      even_irregular_witness, hamming_distance, interpolate, is_orthomorphism,
                      lift_subfield_pair, linear_map, linearized_pair, map_table,
                      max_degree_member, max_degree_orthomorphism, near_linear_pair,
                      pair_even_odd_power, pair_f125, small_prime_pair,
                      swap_distance3)
from orthokit.construct import _mrv_backtrack
from orthokit.gf import build_field, prime_powers

from oracles import (OracleField, all_orthomorphisms, cubic_root_count,
                     TabulatedField, f125_scan, is_irregular_table,
                     is_orthomorphism_table, mrv_backtrack, near_linear_first_hit)

# Pin triples (z, k, e) over GF(7) that no orthomorphism attains even though
# they clear every local precondition; derived by filtering all 19
# zero-fixing orthomorphisms (re-derived in-test from the oracle).
F7_INFEASIBLE = {(2, 2, 1), (2, 6, 1), (4, 4, 1), (4, 4, 3), (6, 2, 1),
                 (6, 6, 5)}


def _valid_triples(fs):
    for z in range(2, fs.q):
        for k in range(2, fs.q):
            for e in range(fs.q):
                if e not in (0, z, k, fs.add(k, fs.sub(z, 1))):
                    yield z, k, e


# ---------------------------------------------------------------- swap


def _swap_ready_theta(field):
    fs = field(7, 1)
    theta = complete_partial(fs, 3, 3, 2)
    assert theta[0] == 0 and theta[1] == 3 and theta[3] == 2
    return fs, theta


def test_swap_distance3_rewires_three_points(field):
    fs, theta = _swap_ready_theta(field)
    phi = swap_distance3(theta, 1, 3)
    assert is_orthomorphism(phi)
    assert phi[0] == fs.sub(3, 1) and phi[3] == 3 and phi[1] == 0
    diffs = [x for x in range(7) if phi[x] != theta[x]]
    assert diffs == [0, 1, 3]


def test_swap_distance3_preconditions(field):
    fs, theta = _swap_ready_theta(field)
    with pytest.raises(PreconditionError, match="field elements"):
        swap_distance3(theta, 1, 7)
    with pytest.raises(PreconditionError, match="distinct"):
        swap_distance3(theta, 3, 3)
    with pytest.raises(PreconditionError, match="nonzero"):
        swap_distance3(theta, 0, 3)
    with pytest.raises(PreconditionError, match="theta\\(0\\)"):
        shifted = map_table(fs, [(2 * x + 1) % 7 for x in range(7)])
        swap_distance3(shifted, 1, 3)
    with pytest.raises(PreconditionError, match="must equal c"):
        swap_distance3(theta, 2, 3)  # theta(2) != 3
    f5 = field(5, 1)
    doubling = linear_map(f5, 2)  # theta(1)=2 but theta(2)=4 != 2-1
    with pytest.raises(PreconditionError, match="c - b"):
        swap_distance3(doubling, 1, 2)
    broken = map_table(f5, (0, 2, 1, 3, 4))  # right pins, not an orthomorphism
    with pytest.raises(PreconditionError, match="not an orthomorphism"):
        swap_distance3(broken, 1, 2)


# ---------------------------------------------------------------- lift


def test_lift_to_gf9(field):
    f3, f9 = field(3, 1), field(3, 2)
    base = small_prime_pair(3)
    pair = lift_subfield_pair(f9, base.f, base.g)
    assert pair.provenance == "NON25" and pair.distance == 3
    for x in range(9):
        if x < 3:
            assert pair.f[x] == base.f[x] and pair.g[x] == base.g[x]
        else:
            assert pair.f[x] == f9.mul(2, x) == pair.g[x]
    assert f3.q == 3  # fixture touch


def test_lift_to_gf49(field):
    fs = field(7, 2)
    base = small_prime_pair(7)
    pair = lift_subfield_pair(fs, base.f, base.g)
    assert pair.distance == 3
    assert is_orthomorphism(pair.f) and is_orthomorphism(pair.g)


def test_lift_preconditions(field):
    base = small_prime_pair(3)
    with pytest.raises(PreconditionError, match="characteristic"):
        lift_subfield_pair(field(2, 4), base.f, base.g)
    with pytest.raises(PreconditionError, match="proper extension"):
        lift_subfield_pair(field(3, 1), base.f, base.g)
    with pytest.raises(PreconditionError, match="prime field"):
        lift_subfield_pair(field(7, 2), base.f, base.g)
    f7 = field(7, 1)
    with pytest.raises(PreconditionError, match="orthomorphisms"):
        lift_subfield_pair(field(7, 2), linear_map(f7, 1), linear_map(f7, 2))
    with pytest.raises(PreconditionError, match="distance 3"):
        lift_subfield_pair(field(7, 2), linear_map(f7, 2), linear_map(f7, 3))


# ---------------------------------------------------------------- near-linear


def test_near_linear_f7_matches_bruteforce_first_hit(field):
    fs = field(7, 1)
    of = OracleField(7, 1, fs.modulus)
    pair = near_linear_pair(fs)
    a0, a1, vals = near_linear_first_hit(of, fs.exp_table)
    assert (a0, a1) == (3, 5)
    assert tuple(pair.f.values.tolist()) == vals == (0, 3, 6, 1, 5, 4, 2)
    assert pair.g.values.tolist() == linear_map(fs, a1).values.tolist()
    assert pair.provenance == "ONE_MOD3" and pair.distance == 3


@pytest.mark.parametrize("p,r", [(13, 1), (2, 4), (5, 2), (2, 6), (2, 2)])
def test_near_linear_various_fields(field, p, r):
    pair = near_linear_pair(field(p, r))
    assert pair.distance == 3
    assert is_orthomorphism(pair.f) and is_orthomorphism(pair.g)
    # g is linear; f agrees with a second linear map off one 3-element coset
    assert len(set(pair.g.values[1:3].tolist())) == 2


def test_near_linear_gf4_degenerates_to_linear_pair(field):
    pair = near_linear_pair(field(2, 2))
    assert tuple(pair.f.values.tolist()) == (0, 2, 3, 1)  # 2x
    assert tuple(pair.g.values.tolist()) == (0, 3, 1, 2)  # 3x


def test_near_linear_rejects_wrong_congruence(field):
    with pytest.raises(PreconditionError, match="mod 3"):
        near_linear_pair(field(11, 1))


# ---------------------------------------------------------------- completion


def test_complete_partial_f7_exhaustive_against_oracle(field):
    fs = field(7, 1)
    of = OracleField(7, 1, fs.modulus)
    attainable = set()
    for t in all_orthomorphisms(of):
        if t[0] != 0:
            continue
        for k in range(2, 7):
            attainable.add((t[1], k, t[k]))
    triples = set(_valid_triples(fs))
    assert triples - attainable == F7_INFEASIBLE
    for z, k, e in sorted(triples):
        if (z, k, e) in F7_INFEASIBLE:
            with pytest.raises(SearchExhaustedError):
                complete_partial(fs, z, k, e)
        else:
            theta = complete_partial(fs, z, k, e)
            assert theta[0] == 0 and theta[1] == z and theta[k] == e
            assert is_orthomorphism(theta)


def test_complete_partial_preconditions(field):
    fs = field(11, 1)
    with pytest.raises(PreconditionError, match="odd q"):
        complete_partial(field(2, 3), 2, 3, 4)
    with pytest.raises(PreconditionError, match="z must"):
        complete_partial(fs, 1, 3, 4)
    with pytest.raises(PreconditionError, match="z must"):
        complete_partial(fs, 11, 3, 4)
    with pytest.raises(PreconditionError, match="k must"):
        complete_partial(fs, 2, 0, 4)
    for bad_e in (0, 2, 3, (3 + 2 - 1) % 11):
        with pytest.raises(PreconditionError, match="e must"):
            complete_partial(fs, 2, 3, bad_e)


def test_complete_partial_deterministic_per_seed(field):
    fs = field(101, 1)
    a = complete_partial(fs, 7, 9, 40, seed=3)
    b = complete_partial(fs, 7, 9, 40, seed=3)
    c = complete_partial(fs, 7, 9, 40, seed=4)
    assert a.values.tolist() == b.values.tolist()
    assert a.values.tolist() != c.values.tolist()
    for t in (a, c):
        assert t[0] == 0 and t[1] == 7 and t[9] == 40 and is_orthomorphism(t)


def test_complete_partial_hard_instance_gf191(field):
    # a pin set that defeats greedy value choice and needs real backtracking
    fs = field(191, 1)
    theta = complete_partial(fs, 164, 59, 156)
    assert theta[0] == 0 and theta[1] == 164 and theta[59] == 156
    assert is_orthomorphism(theta)


def test_complete_partial_extension_field(field):
    fs = field(3, 2)
    theta = complete_partial(fs, 2, 3, 7)
    assert theta[0] == 0 and theta[1] == 2 and theta[3] == 7
    assert is_orthomorphism(theta)


@lru_cache(maxsize=None)
def _reference_field(p, r, modulus):
    return TabulatedField(OracleField(p, r, modulus))


def _free_masks(fs, pins):
    """Bool masks of the values and the differences v - x that the pinned
    values pins {x: v} leave unused, by oracle arithmetic."""
    ref_field = _reference_field(fs.p, fs.r, fs.modulus)
    free_v = np.ones(fs.q, dtype=bool)
    free_v[list(pins.values())] = False
    free_d = np.ones(fs.q, dtype=bool)
    free_d[[ref_field.sub(v, x) for x, v in pins.items()]] = False
    return free_v, free_d


def _engine_and_reference(fs, pins, order, budget):
    """The search engine and the reference engine from the pinned values
    pins {x: v}, every other position open in ascending order, under one
    value order and node budget: each outcome (a table, None or
    "infeasible") with the table as the search left it, partial when the
    budget ran out."""
    q = fs.q
    open_pos = [x for x in range(q) if x not in pins]
    runs = []
    for engine in ("package", "reference"):
        theta = [pins.get(x, -1) for x in range(q)]
        if engine == "package":
            out = _mrv_backtrack(fs, theta, order, budget)
        else:
            free_v, free_d = _free_masks(fs, pins)
            bits = [sum(1 << i for i in np.flatnonzero(m).tolist()) for m in (free_v, free_d)]
            out = mrv_backtrack(_reference_field(fs.p, fs.r, fs.modulus), theta, *bits,
                                open_pos, order, budget)
        runs.append((out, theta))
    return runs


def _default_budget(q):
    return max(1000, 50 * (q - 3))


def _odd_prime_powers(lo, hi):
    return [(p, r) for p, r, q in prime_powers(hi) if p > 2 and q > lo]


@pytest.mark.parametrize("p,r", _odd_prime_powers(0, 128) + [
    pytest.param(p, r, marks=pytest.mark.slow) for p, r in _odd_prime_powers(128, 400)] + [
    (1019, 1), pytest.param(2003, 1, marks=pytest.mark.slow)])
def test_engine_matches_reference(field, p, r):
    # up to q = 128: the first swap pattern (2, 2, 1) and a seeded pin set,
    # each in the plain order and two seeded shuffles under a budget of 200
    # nodes, plus the swap pattern in the plain order under the budget
    # complete_partial uses; up to 400, the swap pattern under 200 nodes
    # only; at 1019 and 2003, the swap pattern in one seeded shuffle under
    # 200 nodes (the gathered read) and in the plain order under
    # complete_partial's budget (the sliced read), where it completes
    fs = field(p, r)
    q = fs.q
    big = q > 400
    rng = random.Random(q)
    pins = [(2, 2, 1)]
    while q <= 128 and len(pins) < 2:
        z, k, e = rng.randrange(2, q), rng.randrange(2, q), rng.randrange(q)
        if e not in (0, z, k, fs.add(k, fs.sub(z, 1))):
            pins.append((z, k, e))
    orders = [list(range(q))]
    for i in range(1 if big else 2):
        orders.append(list(range(q)))
        random.Random(f"{q}:{i}").shuffle(orders[-1])
    cases = [(pin, order, 200) for pin in pins for order in orders[big:]]
    if q <= 128 or big:
        cases.append(((2, 2, 1), orders[0], _default_budget(q)))
    for (z, k, e), order, budget in cases:
        got, ref = _engine_and_reference(fs, {0: 0, 1: z, k: e}, order, budget)
        assert got == ref, (z, k, e, order[:5], budget)
    assert not big or isinstance(got[0], list)


def test_engine_matches_reference_on_every_small_pin_set(field):
    outcomes = set()
    for p, r in ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1)):
        fs = field(p, r)
        for z, k, e in _valid_triples(fs):
            for budget in (_default_budget(fs.q), 3):
                got, ref = _engine_and_reference(fs, {0: 0, 1: z, k: e},
                                                 list(range(fs.q)), budget)
                assert got == ref, (fs.q, z, k, e, budget)
                outcomes.add(got[0] if got[0] in (None, "infeasible") else "table")
    assert outcomes == {"table", None, "infeasible"}


@pytest.mark.parametrize("p,r", [(7, 1), (11, 1), (13, 1), (3, 2), (5, 2), (3, 3)])
def test_engine_matches_reference_from_general_masks(field, p, r):
    # a seeded half of the positions of an orthomorphism from the reference
    # search pinned, so about half the values and differences start used;
    # one node fills the first open position of least count by a count
    # over every value
    fs = field(p, r)
    q = fs.q
    ref_field = _reference_field(p, r, fs.modulus)
    rng = random.Random(f"masks:{q}")
    full = (1 << q) - 1
    oracle_t = None
    while not isinstance(oracle_t, list):
        oracle_t = mrv_backtrack(ref_field, [-1] * q, full, full, rng.sample(range(q), q),
                                 rng.sample(range(q), q), 50 * q)
    assert is_orthomorphism_table(ref_field.of, oracle_t)
    for trial in range(4):
        pins = {x: oracle_t[x] for x in rng.sample(range(q), q // 2)}
        free_v, free_d = _free_masks(fs, pins)
        open_pos = [x for x in range(q) if x not in pins]
        want = [sum(free_v[v] and free_d[ref_field.sub(v, x)] for v in range(q))
                for x in open_pos]
        order = rng.sample(range(q), q) if trial % 2 else list(range(q))
        theta = [pins.get(x, -1) for x in range(q)]
        assert _mrv_backtrack(fs, theta, order, 1) is None
        assert [x for x in open_pos if theta[x] >= 0] == [open_pos[want.index(min(want))]]
        for budget in (_default_budget(q), 3):
            got, ref = _engine_and_reference(fs, pins, order, budget)
            assert got == ref, (trial, budget)
            assert budget == 3 or isinstance(got[0], list)


@pytest.mark.parametrize("budget", [500, 9450])
def test_engine_matches_reference_backtracking_above_128(field, budget):
    # the hard GF(191) pins in the plain order run out of budget after
    # heavy backtracking, so the partial tables are compared as well
    fs = field(191, 1)
    pins = {0: 0, 1: 164, 59: 156}
    got, ref = _engine_and_reference(fs, pins, list(range(191)), budget)
    assert got[0] is None and got == ref


@pytest.mark.slow
@pytest.mark.parametrize("q,z,k,e,attempts", [(191, 164, 59, 156, 4)])
def test_engine_matches_reference_on_completion_attempts(field, q, z, k, e, attempts):
    # the attempts complete_partial(GF(q), z, k, e) makes, in its order:
    # the plain order first, then seeded reshuffles; the fourth completes
    # after backtracking, so resumed scans of a reshuffled order are read
    fs = field(q, 1)
    rng = random.Random(f"0:{q}:{z}:{k}:{e}")
    seen = []
    for attempt in range(attempts):
        order = list(range(q))
        if attempt:
            rng.shuffle(order)
        got, ref = _engine_and_reference(fs, {0: 0, 1: z, k: e}, order, _default_budget(q))
        assert got == ref, attempt
        seen.append(got[0] is None)
    assert seen == [True] * (attempts - 1) + [False]
    assert complete_partial(fs, z, k, e).values.tolist() == got[0]


def test_construction_checks_survive_optimize(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "import orthokit.construct as c\n"
        "from orthokit import build_field, linear_map\n"
        "assert sys.flags.optimize and False\n"  # stripped under -O
        "fs = build_field(7, 1)\n"
        "theta = c.complete_partial(fs, 3, 3, 2)\n"
        "def check(fn, *args):\n"
        "    try:\n"
        "        fn(*args)\n"
        "    except AssertionError as e:\n"
        "        print(e)\n"
        "check(c._verified_pair, theta, linear_map(build_field(7, 1, gamma=5), 2), 'T')\n"
        "check(c._verified_pair, theta, linear_map(fs, 1), 'T')\n"
        "check(c._verified_pair, theta, theta, 'T')\n"
        "c.hamming_distance = lambda f, g: 4\n"
        "check(c.swap_distance3, theta, 1, 3)\n"
        "c.is_orthomorphism = lambda t: False\n"
        "check(c.complete_partial, fs, 3, 3, 2)\n"
        "check(c.even_char_theta, build_field(2, 3), 2, 4)\n"
        "c._prime_pair = lambda spec, seed: c.OrthoPair(theta, theta, 3, 'T')\n"
        "check(c.distance3_pair, fs)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={"PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "pair members live over different fields",
        "construction T produced a non-orthomorphism",
        "construction T produced distance 0, not 3",
        "swap did not give an orthomorphism at distance 3",
        "completion over GF(7) produced a non-orthomorphism",
        "theta_a over GF(8) with a=2, c=4 is not a zero-fixing orthomorphism",
        "distance3_pair over GF(7) returned a T pair that is not two "
        "orthomorphisms at distance 3"]


# ---------------------------------------------------------------- cubics


@pytest.mark.parametrize("p,r", [(2, 3), (2, 4)])
def test_cubic_unique_root_exhaustive(field, p, r):
    fs = field(p, r)
    of = OracleField(p, r, fs.modulus)
    for a in range(fs.q):
        for b in range(1, fs.q):
            n = cubic_root_count(of, a, b)
            assert n in (0, 1, 3)
            assert cubic_unique_root(fs, a, b) == (n == 1)


def test_cubic_unique_root_preconditions(field):
    with pytest.raises(PreconditionError, match="even q"):
        cubic_unique_root(field(7, 1), 1, 1)
    with pytest.raises(PreconditionError, match="even q"):
        cubic_unique_root(field(2, 1), 0, 1)
    with pytest.raises(PreconditionError, match="nonzero"):
        cubic_unique_root(field(2, 3), 1, 0)


# ---------------------------------------------------------------- even theta


def test_even_char_theta_always_orthomorphism(field):
    for p, r in ((2, 3), (2, 4)):
        fs = field(p, r)
        for a in range(2, fs.q):
            block = {0, 1, a, a ^ 1}
            for c in range(fs.q):
                if c in block:
                    continue
                t = even_char_theta(fs, a, c)
                assert t[0] == 0 and is_orthomorphism(t)
                diffs = [x for x in range(fs.q)
                         if t[x] != linear_map(fs, a)[x]]
                assert sorted(diffs) == sorted(c ^ h for h in (0, 1, a, a ^ 1))


def test_even_char_theta_preconditions(field):
    with pytest.raises(PreconditionError, match="even q >= 8"):
        even_char_theta(field(7, 1), 2, 3)
    with pytest.raises(PreconditionError, match="even q >= 8"):
        even_char_theta(field(2, 2), 2, 3)
    fs = field(2, 3)
    with pytest.raises(PreconditionError, match="a must"):
        even_char_theta(fs, 1, 4)
    with pytest.raises(PreconditionError, match="c must"):
        even_char_theta(fs, 2, 3)  # c = a + 1


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7,
                               pytest.param(8, marks=pytest.mark.slow)])
def test_even_irregular_witness_against_oracle(field, r):
    fs = field(2, r)
    of = OracleField(2, r, fs.modulus)
    a, c, t = even_irregular_witness(fs)
    assert t == even_char_theta(fs, a, c)
    assert is_irregular_table(of, t.values.tolist())
    # it is the first irregular theta_a in the scan order, a then c
    earlier = [(a2, c2) for a2 in range(2, a + 1) for c2 in range(1, fs.q)
               if c2 not in (1, a2, a2 ^ 1) and (a2, c2) < (a, c)]
    assert not any(is_irregular_table(of, even_char_theta(fs, *ac).values.tolist())
                   for ac in earlier)


def test_even_irregular_witness_preconditions(field):
    for p, r in ((7, 1), (2, 2), (3, 2)):
        with pytest.raises(PreconditionError, match="even q >= 8"):
            even_irregular_witness(field(p, r))


# ---------------------------------------------------------------- odd 2^r


@pytest.mark.parametrize("r", [5, 7])
def test_pair_even_odd_power(field, r):
    pair = pair_even_odd_power(field(2, r))
    assert pair.provenance == "ODD_TWO" and pair.distance == 3
    assert is_orthomorphism(pair.f) and is_orthomorphism(pair.g)


def test_pair_even_odd_power_preconditions(field):
    with pytest.raises(PreconditionError, match="odd r >= 5"):
        pair_even_odd_power(field(2, 4))
    with pytest.raises(PreconditionError, match="odd r >= 5"):
        pair_even_odd_power(field(2, 3))
    with pytest.raises(PreconditionError, match="odd r >= 5"):
        pair_even_odd_power(field(3, 5))


# ---------------------------------------------------------------- GF(125)


def test_pair_f125_pinned_codes():
    pair = pair_f125()
    fs = pair.f.field
    assert fs.modulus == (3, 3, 0, 1) and fs.gamma == 5
    assert fs.exp_table[118] == 103          # gamma^118 = 4y^2 + 3
    assert pair.f[0] == 0
    assert pair.f[25] == 103                 # f(y^2) = 4y^2 + 3
    assert pair.f[103] == 78                 # f(y^118) = 3y^2 + 3
    assert pair.distance == 3
    assert hamming_distance(pair.f, pair.g) == 3


def test_pair_f125_rejects_other_basis(field):
    with pytest.raises(PreconditionError, match="y\\^3"):
        pair_f125(field(5, 3))  # default lexicographic modulus differs


def test_f125_scan_handles_default_basis(field):
    fs = field(5, 3)
    assert fs.modulus != (3, 3, 0, 1)
    pair = distance3_pair(fs)
    assert pair.provenance == "F125" and pair.distance == 3
    assert is_orthomorphism(pair.f) and is_orthomorphism(pair.g)


# every monic irreducible cubic over F_5: one with no root in F_5
F5_CUBICS = [(c0, c1, c2, 1) for c2 in range(5) for c1 in range(5) for c0 in range(5)
             if all((x**3 + c2 * x * x + c1 * x + c0) % 5 for x in range(5))]


@pytest.mark.parametrize("modulus", F5_CUBICS)
def test_linearized_pair_matches_f125_scan(field, modulus):
    # the b = a - 1 rule is the GF(125) scan's, in every basis, and the
    # basis alone fixes the element codes: gamma changes nothing
    assert len(F5_CUBICS) == 40
    want = f125_scan(OracleField(5, 3, modulus))
    fs = field(5, 3, modulus)
    for gamma in (fs.gamma, fs.exp_table[-1]):  # gamma and 1 / gamma
        pair = linearized_pair(field(5, 3, modulus, gamma))
        assert pair.provenance == "F125" and pair.distance == 3
        assert (tuple(pair.f.values.tolist()), tuple(pair.g.values.tolist())) == want


def test_linearized_pair_gf3125_witness(field):
    # no a has b = a - 1 here: the witness is the least a of the least b
    fs = field(5, 5)
    pair = distance3_pair(fs)
    assert pair.provenance == "LINEARIZED"
    assert tuple(pair.f.values.tolist()) == tuple(fs.sub(fs.pow(x, 5), fs.mul(113, x))
                                                  for x in range(fs.q))
    c = pair.f[162]
    assert [x for x in range(fs.q) if pair.f[x] != pair.g[x]] == sorted([0, 162, c])
    assert (pair.g[0], pair.g[162], pair.g[c]) == (fs.sub(c, 162), 0, c)
    member = max_degree_member(fs)
    assert member.values.tolist() == pair.g.values.tolist() and interpolate(member).degree == fs.q - 3
    assert interpolate(pair.f).degree == 5


def test_linearized_pair_gf78125(field):
    pair = distance3_pair(field(5, 7))
    assert pair.provenance == "LINEARIZED" and pair.distance == 3
    assert hamming_distance(pair.f, pair.g) == 3


@pytest.mark.parametrize("p,r", [(5, 1), (5, 2), (5, 4), (7, 3), (2, 5)])
def test_linearized_pair_preconditions(field, p, r):
    with pytest.raises(PreconditionError, match="odd r >= 3"):
        linearized_pair(field(p, r))


# ---------------------------------------------------------------- dispatch


@pytest.mark.parametrize("p,r,tag", [
    (3, 1, "PRIME3"),
    (7, 1, "ONE_MOD3"),
    (11, 1, "SMALL_SEARCH"),
    (191, 1, "SMALL_SEARCH"),
    (3, 2, "NON25"),
    (7, 2, "NON25"),
    (2, 2, "ONE_MOD3"),
    (2, 4, "ONE_MOD3"),
    (5, 2, "ONE_MOD3"),
    (2, 5, "ODD_TWO"),
    (5, 5, "LINEARIZED"),
])
def test_distance3_pair_dispatch(field, p, r, tag):
    pair = distance3_pair(field(p, r))
    assert pair.provenance == tag
    assert pair.distance == 3 == hamming_distance(pair.f, pair.g)
    assert is_orthomorphism(pair.f) and is_orthomorphism(pair.g)


# sha256 of f's then g's values as little-endian int64, recorded before the
# search read its feasible values from value-space rows, which must find
# the same pairs
PAIR_SHA256 = {
    2003: "be79375ec0ef7ffef814b517f2814ec90fcfabe485f7b30ae29bf5d7a54685f5",
    8009: "18f60cd827b8f22bc03ebdc9abd51a49b25e3fff15f1bb7ffc3a04abac7229d9",
}


@pytest.mark.parametrize("q", sorted(PAIR_SHA256))
def test_completion_pairs_are_pinned(q):
    pair = distance3_pair(build_field(q, 1))
    assert pair.provenance == "SMALL_SEARCH"
    data = np.stack([pair.f.values, pair.g.values]).astype("<i8").tobytes()
    assert hashlib.sha256(data).hexdigest() == PAIR_SHA256[q]


def test_distance3_pair_gf125_pinned_basis():
    fs = build_field(5, 3, (3, 3, 0, 1))
    pair = distance3_pair(fs)
    assert pair.provenance == "F125"
    assert pair.f[25] == 103


@pytest.mark.parametrize("p,r", [(2, 1), (5, 1), (2, 3)])
def test_distance3_pair_nonexistent(field, p, r):
    with pytest.raises(NonexistenceError):
        distance3_pair(field(p, r))


def test_distance3_pair_deterministic(field):
    fs = field(11, 1)
    a = distance3_pair(fs, seed=0)
    b = distance3_pair(fs, seed=0)
    assert a.f.values.tolist() == b.f.values.tolist() and \
        a.g.values.tolist() == b.g.values.tolist()


def test_small_prime_pair_guards():
    with pytest.raises(NonexistenceError):
        small_prime_pair(5)
    with pytest.raises(NonexistenceError):
        small_prime_pair(2)
    with pytest.raises(PreconditionError, match="not prime"):
        small_prime_pair(9)


# ---------------------------------------------------------------- max degree


@pytest.mark.parametrize("p,r,deg", [(7, 1, 4), (13, 1, 10), (3, 2, 6),
                                     (2, 2, 1), (2, 4, 13), (11, 1, 8)])
def test_max_degree_orthomorphism(field, p, r, deg):
    fs = field(p, r)
    poly = max_degree_orthomorphism(fs)
    assert poly.degree == deg == fs.q - 3
    from orthokit import tabulate
    assert is_orthomorphism(tabulate(poly))
    assert interpolate(tabulate(poly)).coeffs == poly.coeffs


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (5, 1), (2, 3)])
def test_max_degree_orthomorphism_nonexistent(field, p, r):
    with pytest.raises(NonexistenceError):
        max_degree_orthomorphism(field(p, r))
