"""Field kernel: construction policy, arithmetic vs the oracle, traces,
cosets, serialization, and rejection of bad inputs."""

import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokit import (ORDER_CAP, PreconditionError, ReducedPoly, build_bitrade,
                      build_field, census, complete_partial, cubic_unique_root,
                      cyclotomic_map, cyclotomic_profile, distance3_pair,
                      evaluate, even_char_theta, field_from_json, interpolate,
                      irregular_orthomorphism, is_irregular, linear_map,
                      prime_powers, reduced_degree, reduced_poly,
                      small_prime_pair, swap_distance3, translate,
                      validate_homogeneous)
from orthokit.gf import (_is_irreducible, _is_primitive, _low_digits, _scale,
                         _times, distinct_prime_factors, is_prime)

from oracles import OracleField, exp_sequence, reducible_monics


def oracle_for(fs) -> OracleField:
    return OracleField(fs.p, fs.r, fs.modulus)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)
    for n in range(-3, 5000):
        trial = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == trial, n
    assert is_prime(2**20 - 3) and is_prime(2**20 - 5)
    assert not is_prime(2**20 - 1) and not is_prime(2**20 + 1)


# -- deterministic construction policy -----------------------------------

def test_default_moduli_and_gammas(field):
    # frozen defaults; each was cross-checked against the oracle below
    assert field(7, 1).modulus == (4, 1) and field(7, 1).gamma == 3
    assert field(2, 2).modulus == (1, 1, 1) and field(2, 2).gamma == 2
    assert field(2, 3).modulus == (1, 0, 1, 1) and field(2, 3).gamma == 2
    assert field(3, 2).modulus == (1, 0, 1) and field(3, 2).gamma == 4
    assert field(2, 4).modulus == (1, 0, 0, 1, 1) and field(2, 4).gamma == 2
    assert field(5, 3).modulus == (1, 0, 1, 1) and field(5, 3).gamma == 7


def test_default_modulus_is_lex_smallest_irreducible(field):
    # every monic cubic over Z_2 lexicographically before (1,0,1,1) factors
    of = OracleField(2, 3, (1, 0, 1, 1))
    # smaller candidates, constant term most significant: (0,*,*) have root
    # 0; (1,0,0) -> y^3+1 has root 1; (1,1,0)... enumerate and verify
    def has_root_or_factor(mod):
        # degree-3 polys are reducible iff they have a root
        for x in range(2):
            acc = (mod[0] + mod[1] * x + mod[2] * x * x + x * x * x) % 2
            if acc == 0:
                return True
        return False

    target = (1, 0, 1, 1)
    for c0 in range(2):
        for c1 in range(2):
            for c2 in range(2):
                cand = (c0, c1, c2, 1)
                if (c0, c1, c2) < (target[0], target[1], target[2]):
                    assert has_root_or_factor(cand), cand
    assert not has_root_or_factor(target)


def test_default_gamma_is_smallest_primitive(field):
    fs = field(3, 2)
    of = oracle_for(fs)
    orders = {a: of.element_order(a) for a in range(1, 9)}
    smallest = min(a for a, n in orders.items() if n == 8)
    assert fs.gamma == smallest == 4


def test_user_modulus_and_gamma(field):
    fs = field(2, 3, (1, 1, 0, 1))  # y^3 + y + 1
    of = oracle_for(fs)
    assert of.element_order(fs.gamma) == 7
    for a in range(8):
        for b in range(8):
            assert fs.mul(a, b) == of.mul(a, b)


def test_f125_published_basis(field):
    # modulus y^3 + 3y + 3 makes y itself the default primitive element
    fs = field(5, 3, (3, 3, 0, 1))
    assert fs.gamma == 5
    of = oracle_for(fs)
    assert of.element_order(5) == 124
    assert of.discrete_log(5, fs.add(25, 4)) == 75  # y^2 + 4 = y^75


def test_r1_modulus_convention(field):
    fs = field(7, 1)
    # y - gamma with gamma = 3: constant term -3 = 4 mod 7
    assert fs.modulus == (4, 1)
    fs13 = field(13, 1)
    assert fs13.modulus == ((-fs13.gamma) % 13, 1)
    assert build_field(7, 1, (4, 1), 3).modulus == (4, 1)
    for modulus, gamma in (((0, 1), None), ((4, 1), 5), ((2, 1), None)):
        with pytest.raises(PreconditionError, match="y - gamma"):
            build_field(7, 1, modulus, gamma)


# -- arithmetic vs the oracle ---------------------------------------------

@pytest.mark.parametrize("p,r", [(7, 1), (13, 1), (2, 2), (2, 3), (3, 2), (2, 4),
                                 (5, 2), (3, 3)])
def test_arithmetic_matches_oracle_exhaustive(field, p, r):
    # every scalar result must be a Python int: an np.int64 would not pass
    # json.dumps in the CLI payloads
    fs = field(p, r)
    of = oracle_for(fs)
    got = []
    for a in range(fs.q):
        got += [fs.neg(a), fs.trace(a), fs.pow(a, 0), fs.pow(a, fs.q)]
        assert got[-4:] == [of.sub(0, a), of.trace(a), 1, a]
        if a:
            got += [fs.inv(a), fs.pow(a, -1), fs.coset_index(a, fs.q - 1)]
            assert got[-3:] == [of.inv(a)] * 2 + [of.discrete_log(fs.gamma, a)]
        for b in range(fs.q):
            got += [fs.add(a, b), fs.sub(a, b), fs.mul(a, b), fs.pow(a, b)]
            assert got[-4:] == [of.add(a, b), of.sub(a, b), of.mul(a, b),
                                of.powi(a, b)]
    assert all(type(v) is int for v in got + list(fs.exp_table + fs.log_table))


@pytest.mark.slow
@pytest.mark.parametrize("p,r", [(7, 2), (2, 6)])
def test_arithmetic_matches_oracle_exhaustive_slow(field, p, r):
    fs = field(p, r)
    of = oracle_for(fs)
    for a in range(fs.q):
        for b in range(fs.q):
            assert fs.mul(a, b) == of.mul(a, b)


@pytest.mark.parametrize("p,r,samples", [(2, 16, 150), (3, 7, 150)])
def test_arithmetic_matches_oracle_sampled(field, p, r, samples):
    fs = field(p, r)
    of = oracle_for(fs)
    rng = random.Random(11)
    for _ in range(samples):
        a = rng.randrange(fs.q)
        b = rng.randrange(fs.q)
        assert fs.add(a, b) == of.add(a, b)
        assert fs.mul(a, b) == of.mul(a, b)
        assert fs.sub(fs.add(a, b), b) == a


def test_inverse_and_pow(field):
    for fs in (field(7, 1), field(2, 4), field(3, 3)):
        for a in range(1, fs.q):
            assert fs.mul(a, fs.inv(a)) == 1
            assert fs.pow(a, fs.q - 1) == 1
            assert fs.pow(a, -1) == fs.inv(a)
        assert fs.pow(0, 0) == 1 and fs.pow(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            fs.inv(0)
        with pytest.raises(ZeroDivisionError):
            fs.pow(0, -2)


def test_exp_log_roundtrip(field):
    for fs in (field(11, 1), field(2, 5), field(5, 2)):
        assert fs.log_table[0] == -1
        for i in range(fs.q - 1):
            assert fs.log_table[fs.exp_table[i]] == i
        assert sorted(fs.exp_table) == list(range(1, fs.q))


@pytest.mark.slow
def test_field_tables_match_scalar_construction():
    # every prime power q <= 4096, at the default gamma and at gamma^j for
    # the smallest j >= 2 prime to q - 1, another primitive element
    for p, r, q in prime_powers(4096):
        fs = build_field(p, r)
        if r > 1:
            # the scan for the default modulus skips the candidates below
            # p^(r-1), whose constant term is 0; scanning from 0 agrees
            first = next(m for m in range(p**r) if _is_irreducible(
                list(reversed(_low_digits(m, p, r))) + [1], p))
            assert first >= p**(r - 1)
            assert fs.modulus == tuple(reversed(_low_digits(first, p, r))) + (1,)
        gammas = [fs.gamma]
        if q > 3:
            j = next(j for j in range(2, q) if math.gcd(j, q - 1) == 1)
            gammas.append(fs.exp_table[j])
        for gamma in gammas:
            g = build_field(p, r, gamma=gamma)
            exp = exp_sequence(OracleField(p, r, g.modulus), gamma)
            assert g.gamma == gamma and g.exp_table == tuple(exp), (q, gamma)
            assert g.log_table[0] == -1
            assert all(g.log_table[x] == i for i, x in enumerate(exp)), (q, gamma)


def _another_generator(exp):
    """The powers of gamma^5 in place of gamma's: a bijection onto 1..q-1
    when 5 is prime to q - 1."""
    return exp[np.arange(len(exp)) * 5 % len(exp)]


def test_exp_table_check_rejects_a_broken_table(monkeypatch):
    import orthokit.gf as gf
    good = gf._exp_codes
    broken = {
        "repeats": lambda *a: np.where(good(*a) == 5, 3, good(*a)),
        "holds 0": lambda *a: np.where(good(*a) == 5, 0, good(*a)),
        "stops short": lambda *a: good(*a)[:-1],
        # only the closure check gamma * exp[q - 2] == 1 can catch this one
        "another generator": lambda *a: _another_generator(good(*a)),
    }
    assert sorted(_another_generator(build_field(3, 2).exp_array)) == list(range(1, 9))
    # a table fault under a given primitive gamma is a defect of the
    # package, never a refusal of the gamma
    assert [OracleField(7, 1, (2, 1)).element_order(5),
            OracleField(3, 2, (1, 0, 1)).element_order(7)] == [6, 8]
    for name, fake in broken.items():
        monkeypatch.setattr(gf, "_exp_codes", fake)
        for p, r, gamma in ((7, 1, None), (3, 2, None), (7, 1, 5), (3, 2, 7)):
            with pytest.raises(AssertionError, match="failed to cycle"):
                gf.build_field(p, r, None, gamma)


#: (p, r, modulus) for every prime power q <= 64 at its default modulus,
#: the paper's GF(125) basis and a second cubic over Z_2.
MULTIPLIER_FIELDS = [(p, r, None) for p, r, _ in prime_powers(64)] + \
    [(5, 3, (3, 3, 0, 1)), (2, 3, (1, 1, 0, 1))]


@pytest.mark.parametrize("p,r,modulus", MULTIPLIER_FIELDS)
def test_multiplier_matches_oracle(field, p, r, modulus):
    # the build's one multiplication, digits(x * a) = digits(x) @ M_a mod p,
    # for every a and x, and its primitivity test for every nonzero a
    fs = field(p, r, modulus)
    of = oracle_for(fs)
    codes = np.arange(fs.q)
    factors = distinct_prime_factors(fs.q - 1)
    for a in range(fs.q):
        mat = _times(a, p, r, fs.modulus)
        assert _scale(codes, mat, p).tolist() == [of.mul(x, a) for x in codes]
        if a:
            assert _is_primitive(mat, p, fs.q, factors) == \
                (of.element_order(a) == fs.q - 1), a


@pytest.mark.parametrize("p,r,modulus", MULTIPLIER_FIELDS)
def test_given_gamma_is_accepted_exactly_when_primitive(field, p, r, modulus):
    fs = field(p, r, modulus)
    of = oracle_for(fs)
    modulus = fs.modulus if r > 1 else None  # a degree-1 modulus fixes gamma
    for c in range(1, fs.q):
        if of.element_order(c) == fs.q - 1:
            g = build_field(p, r, modulus, c)
            assert g.gamma == c and g.exp_array.tolist() == exp_sequence(of, c)
        else:
            with pytest.raises(PreconditionError,
                               match=f"^gamma={c} is not a primitive element$"):
                build_field(p, r, modulus, c)


#: sha256 of the outcome lines of build_field(p, r, modulus, gamma) for every
#: monic modulus of degree r, in itertools.product order of its low
#: coefficients, and every gamma in [0, q]: "ok" and the exp table, or the
#: refusal's message.  Recorded while every given modulus was trial-divided
#: before its gamma was looked at.
OUTCOMES_SHA256 = {
    (2, 2): "7d21ef8f6ff8e112f23e6e423b830d8a4603ce81ad5fb8c4b450b03a6da151ed",
    (2, 3): "5f60ec2e311b868b382c8d19176926b82867edcf9db82d264112b0aafa1f581d",
    (2, 4): "e1173260e476f8a0cfa6b4e6b79ee9de0ba954471849e26373c1d007853ba5c0",
    (3, 2): "a0a2dda75d9b4739b164de17dfdebe2dee5b1d4ff7f74d66574466487cba25ea",
    (3, 3): "c1df0bce206e9ec62d17502245f443083e56c247598867676230d5bb54678059",
    (3, 4): "bcb86751bd30c4f3f0dce20a419e1c5540ed548970dc907677a9a62be6f1a295",
    (5, 2): "2621ce27175eaffbcbb6fbe4151c674987d6698792a3124294e8ac5f4d144006",
    (7, 2): "cd9c0a910914dfd4b4951eac0707cc6ef2e455b383b6d0b691225bc7bc9cdf6b",
}


@pytest.mark.parametrize("p,r", sorted(OUTCOMES_SHA256))
def test_table_check_proves_the_modulus_irreducible(p, r):
    # a given gamma's table is checked before any trial division of a given
    # modulus; a build succeeds exactly when the modulus is irreducible and
    # gamma primitive, and each refusal keeps its message: a reducible
    # modulus first, whatever gamma is
    q = p**r
    reducible = reducible_monics(p, r)
    lines = []
    for low in itertools.product(range(p), repeat=r):
        mod = low + (1,)
        of = None if mod in reducible else OracleField(p, r, mod)
        for gamma in range(q + 1):
            primitive = of is not None and 0 < gamma < q \
                and of.element_order(gamma) == q - 1
            try:
                fs = build_field(p, r, mod, gamma)
            except PreconditionError as e:
                assert not primitive, (mod, gamma)
                assert str(e) == (f"modulus {mod} is reducible over Z_{p}" if of is None
                                  else f"gamma={gamma} is not a primitive element")
                lines.append(f"PreconditionError: {e}")
            else:
                assert primitive and fs.exp_array.tolist() == exp_sequence(of, gamma)
                lines.append("ok " + ",".join(map(str, fs.exp_array.tolist())))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == OUTCOMES_SHA256[p, r]


#: sha256 of exp_array's bytes at the default gamma and at gamma^j, j >= 2
#: the smallest exponent prime to q - 1, for orders whose doubling crosses
#: CHUNK-sized blocks, or runs one block per level on a prime field, or at
#: p == 2 runs its long levels through byte tables (2^11 to 2^20), and on
#: either side of the int16 multiplier's bound r(p - 1)^2 < 2^15 (127^2 inside
#: it; 181^2, whose products would wrap below 2^16, and 1019^2 outside).
EXP_SHA256 = {
    (3, 9, 3): "ecb87d68e02335f8ae7751dd36fccb0c696bca79263e8c4c5534a428650c412d",
    (3, 9, 27): "a5e12d82b15f131f48b0afb8f49936f0ed5ec515370d0c3514c4aed083c7d554",
    (2, 15, 2): "78e1569b9423750e0152228ac5284d1c4ec18e9d62e5c7390d216326536ac0b1",
    (2, 15, 4): "9f7221dbe9f31cd23f520d2528b73615e2a6fc3f0a0d3f7c844cc25f50df4c06",
    (2, 16, 6): "3cad62fe612b8c789e68fbb3944f2e85720bae40c75b5d0054c24349dbc1b92c",
    (2, 16, 20): "db64b807dd4d4caa9cfa19f67a72ae1b5923d7c1916c3422104476f5ca688e72",
    (5, 7, 7): "36a07ef55ea87298811eb9246c62d6ef682f617820217803c08a9a1b1b0cdee1",
    (5, 7, 163): "c6a5631485a8c486cef03c313f7cd7a40d1f30c8422eacee8aff160aa6626f47",
    (101, 2, 120): "f6e44d8c70d0fed821aa033262a10204a923cf8dac8ac992b309a5b1967f3ce6",
    (101, 2, 10077): "056774346880e6a34a63b810525f334d841cb74b8da51310ce3f419b7394dbd0",
    (127, 2, 135): "26c4a36f0b586d7e4e8587a065292196d51be41b9fd763f36af944d7e3c3faf9",
    (127, 2, 3685): "6cefe7d9fa8497e88e02b69cfd266b40c3405e809c564ed3b08d5d60a44479ad",
    (181, 2, 194): "fc37aa92400c69e7f392ba1ae8532df2fe8a9e8534084ab731c4de46c1e7614b",
    (181, 2, 24982): "7c54981974af8531fa167cdc20ff326281b30e0359f158782657a60eb2b48d01",
    (1019, 1, 2): "c12f7a078c7e6e30c9147b251e85398479afe33e92f3000871b0d98e5c23be96",
    (1019, 1, 8): "d48d54c14814b02d1694b6f5f629ab4222cc8754ef218f0b46c0d7a985a7c6a0",
    (1019, 2, 1025): "6632d8ab41289224b8549fd04bf0cf7d89c2acf109147d9aea99c5b69153a309",
    (1019, 2, 757976): "8d0f89e6470e94cc98125755af7aaa20f8ca3de2b584ed3de046751be00ee8e4",
    (2, 11, 2): "01e803e139292f167db469bed5a111742e2d05524cf4c957fd2e22a778be6619",
    (2, 11, 4): "1689362e2d585aaefaea5077beb8c13e66ea1f070d0ce9eefcf51c96a4becdfb",
    (2, 12, 6): "7f58e0c6889ab423e9bf3b462a487f2e9069a2a32677f4704c4aeb0c8b833012",
    (2, 12, 20): "be1f15738ccd8e522de0685874bc70dc838fb9eb328b671393a49476d8a6d746",
    (2, 17, 2): "0de24fbd487b79c49dd3ffd6ebd270751201ca2ae4ed2d08050ca0b40a4cc7f0",
    (2, 17, 4): "fa339508543e5d7e93b6f69a508e1b7c53427d3f237a55e4d9fb78e8781d20e1",
    (2, 18, 3): "acc604e406f229bfcf95a88b38c0dfbdc2c7870b22aa596a2d385b58ee79012c",
    (2, 18, 5): "7d4d27adb5f5f980a4b2c65462a77a396978cc1a46ff896dac6405846010f806",
    (2, 19, 2): "90f18d8811c65110d33a2d2a55e5e3acdd1aa632a4deee73226ffb3a0ce538e4",
    (2, 19, 4): "fd5e6365c540d4c3648914ea451dff1aceb34f1e74ee857f37a117064778298f",
    (2, 20, 2): "4cb1763d286d33f42814e96b18116a3f53b823240feed3677dbcb0bcef577222",
    (2, 20, 4): "ca1459203e2c5e68f2e1031cb6cecc498deedb75344028897fb2c9c273893e38",
}


@pytest.mark.parametrize("p,r,gamma", [
    pytest.param(*key, marks=pytest.mark.slow) if key[:2] == (2, 20) else key
    for key in sorted(EXP_SHA256)])
def test_large_exp_tables_are_pinned(p, r, gamma):
    # fresh builds, not the cached field fixture, which would keep every table alive
    default = build_field(p, r)
    j = next(j for j in range(2, default.q) if math.gcd(j, default.q - 1) == 1)
    assert gamma in (default.gamma, default.exp_array[j])
    fs = build_field(p, r, None, gamma)
    # each power times gamma is the next one, around the whole cycle; in
    # blocks, as _scale holds r int64 digits per code
    mat, nxt = _times(gamma, p, r, fs.modulus), np.roll(fs.exp_array, -1)
    for i in range(0, fs.q - 1, 2**16):
        assert np.array_equal(_scale(fs.exp_array[i:i + 2**16], mat, p), nxt[i:i + 2**16])
    assert hashlib.sha256(fs.exp_array.tobytes()).hexdigest() == EXP_SHA256[p, r, gamma]


@pytest.mark.parametrize("p,r", [(7, 1), (11, 1), (2, 4), (2, 5), (3, 2), (5, 3)])
def test_library_paths_never_build_the_tuple_tables(p, r):
    # a fresh field, not the session cache, so no other test has read them
    fs = build_field(p, r)
    pair = distance3_pair(fs)
    assert validate_homogeneous(build_bitrade(pair.f, pair.g))
    poly = interpolate(pair.g)
    assert reduced_degree(pair.g) == poly.degree
    is_irregular(pair.g)
    cyclotomic_profile(pair.f)
    assert [evaluate(poly, x) for x in range(fs.q)] == pair.g.values.tolist()
    if fs.q <= 13:
        census(fs)
    assert "exp_table" not in vars(fs) and "log_table" not in vars(fs)


@given(a=st.integers(0, 26), b=st.integers(0, 26), c=st.integers(0, 26))
@settings(max_examples=200, deadline=None)
def test_field_axioms_f27(a, b, c):
    fs = cached_f27()
    assert fs.add(a, b) == fs.add(b, a)
    assert fs.mul(a, b) == fs.mul(b, a)
    assert fs.mul(a, fs.add(b, c)) == fs.add(fs.mul(a, b), fs.mul(a, c))
    assert fs.mul(fs.mul(a, b), c) == fs.mul(a, fs.mul(b, c))
    assert fs.add(a, fs.neg(a)) == 0


def cached_f27():
    from conftest import cached_field
    return cached_field(3, 3)


# -- trace and cosets ------------------------------------------------------

def test_trace_frozen_values(field):
    # Tr(y) depends on the modulus: oracle-computed, then frozen here
    fs_default = field(2, 3)            # y^3 + y^2 + 1
    fs_user = field(2, 3, (1, 1, 0, 1))  # y^3 + y + 1
    assert oracle_for(fs_default).trace(2) == 1
    assert oracle_for(fs_user).trace(2) == 0
    assert fs_default.trace(2) == 1
    assert fs_user.trace(2) == 0


@pytest.mark.parametrize("p,r", [(2, 3), (2, 4), (3, 2), (5, 2), (3, 3),
                                 (3, 5), (3, 6), (7, 3), (11, 2)])
def test_trace_properties(field, p, r):
    fs = field(p, r)
    of = oracle_for(fs)
    for a in range(fs.q):
        t = fs.trace(a)
        assert t == of.trace(a)
        assert 0 <= t < p  # lands in the prime subfield
        assert fs.trace(fs.pow(a, p) if a else 0) == t  # Frobenius-invariant
    for a in range(fs.q):
        for b in range(0, fs.q, max(3, fs.q // 27)):  # about 27 b per a from q = 81
            assert fs.trace(fs.add(a, b)) == (fs.trace(a) + fs.trace(b)) % p
    assert fs.trace(1) == r % p


def test_trace_r1_identity(field):
    fs = field(13, 1)
    for a in range(13):
        assert fs.trace(a) == a


def test_coset_partition(field):
    fs = field(13, 1)
    for n in (1, 2, 3, 4, 6, 12):
        buckets = {}
        for a in range(1, 13):
            buckets.setdefault(fs.coset_index(a, n), set()).add(a)
        assert set(buckets) == set(range(n))
        assert all(len(s) == 12 // n for s in buckets.values())


def test_coset_index_frozen(field):
    fs = field(7, 1)
    of = oracle_for(fs)
    assert of.discrete_log(3, 2) == 2  # 3^2 = 2 mod 7
    assert fs.coset_index(2, 2) == 0
    assert fs.coset_index(3, 2) == 1
    with pytest.raises(PreconditionError):
        fs.coset_index(0, 2)
    with pytest.raises(PreconditionError):
        fs.coset_index(2, 5)  # 5 does not divide 6


def test_prime_subfield_closure(field):
    for fs in (field(3, 2), field(5, 3), field(2, 4)):
        sub = list(fs.prime_subfield())
        assert sub == list(range(fs.p))
        for a in sub:
            for b in sub:
                assert fs.add(a, b) in sub
                assert fs.mul(a, b) in sub
                assert fs.add(a, b) == (a + b) % fs.p
                assert fs.mul(a, b) == (a * b) % fs.p


# -- errors and serialization ----------------------------------------------

def test_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        build_field(6, 1)
    with pytest.raises(PreconditionError):
        build_field(2, 0)
    with pytest.raises(PreconditionError):
        build_field(2, 21)  # exceeds ORDER_CAP
    assert 2**20 == ORDER_CAP
    with pytest.raises(PreconditionError):
        build_field(2, 2, (1, 1))  # wrong length
    with pytest.raises(PreconditionError):
        build_field(2, 2, (1, 1, 0))  # not monic
    with pytest.raises(PreconditionError):
        build_field(2, 2, (0, 0, 1))  # y^2, reducible
    with pytest.raises(PreconditionError):
        build_field(2, 2, (1, 0, 1))  # (y+1)^2, reducible
    with pytest.raises(PreconditionError):
        build_field(7, 1, None, 2)  # 2 has order 3 mod 7
    with pytest.raises(PreconditionError):
        build_field(7, 1, None, 0)
    with pytest.raises(PreconditionError):
        build_field(7, 1, None, 7)


def test_rejects_modulus_coefficients_outside_the_prime_field():
    # each would reduce mod p to an irreducible modulus
    for mod in ((1, -1, 1), (3, 1, 1), (1, 1, 3)):
        with pytest.raises(PreconditionError, match=r"\[0, 2\)"):
            build_field(2, 2, mod)
    with pytest.raises(PreconditionError, match="integers"):
        build_field(2, 2, (1, 1.0, 1))
    assert build_field(2, 2, (1, 1, 1)).modulus == (1, 1, 1)


#: Each library entry point that takes an integer argument, as a call of
#: that argument, with a value it accepts.
INTEGER_ARGUMENTS = {
    "build_field.p": (lambda f, v: build_field(v, 1), 7),
    "build_field.r": (lambda f, v: build_field(2, v), 2),
    "build_field.modulus": (lambda f, v: build_field(3, 2, (v, 0, 1)), 1),
    "build_field.gamma": (lambda f, v: build_field(7, 1, None, v), 3),
    "pow": (lambda f, v: f(7, 1).pow(3, v), 2),
    "coset_index": (lambda f, v: f(7, 1).coset_index(3, v), 2),
    "cyclotomic_map.n": (lambda f, v: cyclotomic_map(f(7, 1), v, [1, 5]), 2),
    "cyclotomic_map.coeffs": (lambda f, v: cyclotomic_map(f(7, 1), 2, [v, 5]), 1),
    "linear_map": (lambda f, v: linear_map(f(7, 1), v), 3),
    "translate": (lambda f, v: translate(linear_map(f(7, 1), 3), v), 2),
    "evaluate": (lambda f, v: evaluate(ReducedPoly(f(7, 1), (1, 2)), v), 2),
    "complete_partial.z": (lambda f, v: complete_partial(f(11, 1), v, 2, 1), 2),
    "complete_partial.k": (lambda f, v: complete_partial(f(11, 1), 2, v, 1), 2),
    "complete_partial.e": (lambda f, v: complete_partial(f(11, 1), 2, 2, v), 1),
    "swap_distance3.b": (lambda f, v: swap_distance3(complete_partial(f(7, 1), 3, 3, 2), v, 3), 1),
    "swap_distance3.c": (lambda f, v: swap_distance3(complete_partial(f(7, 1), 3, 3, 2), 1, v), 3),
    "even_char_theta.a": (lambda f, v: even_char_theta(f(2, 3), v, 4), 2),
    "even_char_theta.c": (lambda f, v: even_char_theta(f(2, 3), 2, v), 4),
    "cubic_unique_root.a": (lambda f, v: cubic_unique_root(f(2, 3), v, 3), 2),
    "cubic_unique_root.b": (lambda f, v: cubic_unique_root(f(2, 3), 2, v), 3),
    "small_prime_pair": (lambda f, v: small_prime_pair(v), 7),
    "complete_partial.seed": (lambda f, v: complete_partial(f(11, 1), 2, 2, 1, v), 0),
    "distance3_pair.seed": (lambda f, v: distance3_pair(f(11, 1), v), 0),
    "small_prime_pair.seed": (lambda f, v: small_prime_pair(11, v), 0),
    # at q = 16 the even branch never reaches distance3_pair
    "irregular_orthomorphism.seed.q16": (lambda f, v: irregular_orthomorphism(f(2, 4), v), 0),
    "irregular_orthomorphism.seed.q11": (lambda f, v: irregular_orthomorphism(f(11, 1), v), 0),
}


def _as_data(x):
    return x.to_json() if hasattr(x, "to_json") else x


@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_integer_arguments_refuse_bools_floats_and_strings(field, name):
    call, good = INTEGER_ARGUMENTS[name]
    for bad in (True, float(good), str(good)):
        with pytest.raises(PreconditionError):
            call(field, bad)
    # a NumPy integer is read as the int it holds
    want = call(field, good)
    got = call(field, np.int64(good))
    assert type(got) is type(want) and _as_data(got) == _as_data(want)


def test_prime_powers():
    want = sorted(((p, r, p**r) for p in range(2, 344)
                   if all(p % d for d in range(2, p))
                   for r in range(1, 9) if p**r <= 343), key=lambda t: t[2])
    assert prime_powers(343) == want
    assert [q for _, _, q in prime_powers(16)] == [2, 3, 4, 5, 7, 8, 9, 11,
                                                   13, 16]
    assert prime_powers(1) == []


def test_json_roundtrip(field):
    for fs in (field(7, 1), field(2, 3, (1, 1, 0, 1)), field(5, 3, (3, 3, 0, 1))):
        again = field_from_json(fs.to_json())
        assert again == fs
        assert again.exp_table == fs.exp_table


def test_field_equality_distinguishes_basis(field):
    assert field(5, 3) != field(5, 3, (3, 3, 0, 1))
    assert field(7, 1) == field(7, 1)


@pytest.mark.parametrize("p,r,modulus", [(7, 1, None), (3, 4, (2, 0, 0, 1, 1)),
                                         (2, 5, (1, 0, 1, 0, 0, 1))])
def test_fields_compare_and_hash_by_value(p, r, modulus):
    # two separate builds, not the cached fixture, which hands out one object
    a, b = build_field(p, r), build_field(p, r)
    assert a is not b and a == b and hash(a) == hash(b)
    assert reduced_poly(a, [0, 2, 1]) == reduced_poly(b, [0, 2, 1])
    assert linear_map(a, 2) == linear_map(b, 2)
    assert hash(linear_map(a, 2)) == hash(linear_map(b, 2))
    # gamma^11 is primitive too, as 11 is prime to q - 1 here
    gamma = int(a.exp_array[11 % (a.q - 1)])
    others = [build_field(p, r, None if r == 1 else a.modulus, gamma)]
    if modulus is not None:
        others.append(build_field(p, r, modulus))
    for other in others:
        assert other != a and (other.modulus, other.gamma) != (a.modulus, a.gamma)
        assert reduced_poly(other, [0, 2, 1]) != reduced_poly(a, [0, 2, 1])
        assert linear_map(other, 2) != linear_map(a, 2)


def test_repr_is_compact(field):
    text = repr(field(3, 2))
    assert "exp" not in text and "FieldSpec" in text
