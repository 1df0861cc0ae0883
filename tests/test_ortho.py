"""Map-table verifiers: permutation and orthomorphism predicates,
translations, cyclotomic structure, irregularity."""

import json
import random

import numpy as np
import pytest

from orthokit import (MapTable, PreconditionError, cyclotomic_map,
                      cyclotomic_profile, difference_map, distance3_pair,
                      enumerate_orthomorphisms, even_char_theta, is_irregular,
                      is_orthomorphism, is_permutation, linear_map, map_table,
                      translate)

from oracles import OracleField, difference_table, is_orthomorphism_table


def test_map_table_validation(field):
    fs = field(5, 1)
    with pytest.raises(PreconditionError):
        map_table(fs, [0, 1, 2, 3])  # too short
    with pytest.raises(PreconditionError):
        map_table(fs, [0, 1, 2, 3, 5])  # out of range
    t = map_table(fs, [0, 1, 2, 3, 4])
    assert len(t) == 5 and t[3] == 3


def test_map_table_values_are_a_read_only_int64_array(field):
    fs = field(7, 1)
    t = map_table(fs, [0, 2, 4, 6, 1, 3, 5])
    assert isinstance(t.values, np.ndarray)
    assert t.values.dtype == np.int64 and t.values.shape == (7,)
    with pytest.raises(ValueError):
        t.values[0] = 1
    assert t.values.tolist() == [0, 2, 4, 6, 1, 3, 5]
    assert type(t[3]) is int and t[3] == 6
    assert json.loads(json.dumps(t.to_json())) == {
        "field": fs.to_json(), "values": [0, 2, 4, 6, 1, 3, 5]}


def test_map_table_holds_an_int64_array_without_a_copy(field):
    fs = field(7, 1)
    vals = np.arange(7, dtype=np.int64)
    t = MapTable(fs, vals)
    assert np.shares_memory(t.values, vals)
    assert not vals.flags.writeable
    # other integer dtypes are converted
    u = MapTable(fs, np.arange(7, dtype=np.uint8))
    assert u.values.dtype == np.int64 and u == t


def test_map_table_equality_and_hash(field):
    fs = field(7, 1)
    other = field(7, 1, None, 5)  # gamma 5 rather than the default 3
    a = map_table(fs, [0, 2, 4, 6, 1, 3, 5])
    b = MapTable(fs, np.array([0, 2, 4, 6, 1, 3, 5]))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    c = MapTable(other, a.values)
    assert a != c and hash(a) != hash(c)
    d = map_table(fs, [0, 2, 4, 6, 1, 5, 3])
    assert a != d and hash(a) != hash(d)
    assert a != a.values.tolist()
    # frozen pairs compare and hash through their tables
    p1, p2 = distance3_pair(field(11, 1)), distance3_pair(field(11, 1))
    assert p1 == p2 and hash(p1) == hash(p2)


@pytest.mark.parametrize("vals", [
    [0, 1, 2, 3, 4, 5],                           # too short
    [0, 1, 2, 3, 4, 5, 6, 0],                     # too long
    np.arange(7, dtype=np.float64),               # float dtype
    [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],          # float values
    np.ones(7, dtype=bool),                       # bool dtype
    [0, 1, 2, 3, 4, 5, -1],                       # a negative code
    [0, 1, 2, 3, 4, 5, 7],                        # the code q
    np.arange(7, dtype=np.int64).reshape(7, 1),   # not one axis
    [2**70] * 7,                                  # beyond int64
    [[0], [1, 2], [2]],                           # ragged nesting
], ids=["short", "long", "float-dtype", "float-values", "bool", "negative",
        "q", "2-d", "huge", "ragged"])
def test_map_table_constructor_refuses(field, vals):
    with pytest.raises(PreconditionError):
        MapTable(field(7, 1), vals)


@pytest.mark.parametrize("p,r", [(7, 1), (2, 6), (3, 4), (1019, 1), (2, 16)])
def test_array_predicates_match_oracle(field, p, r):
    fs = field(p, r)
    of = OracleField(p, r, fs.modulus)
    q = fs.q
    rng = random.Random(f"predicates:{q}")
    perm = list(range(q))
    rng.shuffle(perm)
    ortho = linear_map(fs, 2).values.tolist()
    collide = list(perm)
    collide[rng.randrange(q)] = collide[rng.randrange(q)]
    swapped = list(ortho)  # a permutation next to an orthomorphism
    swapped[1], swapped[2] = swapped[2], swapped[1]
    tables = [[rng.randrange(q) for _ in range(q)], perm, ortho, collide,
              swapped, list(range(q))]
    for vals in tables:
        t = map_table(fs, vals)
        assert is_permutation(t) == (sorted(vals) == list(range(q)))
        diff = difference_table(of, vals)
        assert difference_map(t).values.tolist() == diff
        assert is_permutation(difference_map(t)) == (sorted(diff) == list(range(q)))
        assert is_orthomorphism(t) == is_orthomorphism_table(of, vals)
    assert is_orthomorphism(map_table(fs, ortho))


def test_basic_predicates(field):
    fs = field(5, 1)
    doubling = linear_map(fs, 2)
    identity = linear_map(fs, 1)
    assert is_permutation(doubling) and is_permutation(identity)
    assert is_orthomorphism(doubling)
    assert not is_orthomorphism(identity)  # difference map is constant 0
    assert not is_permutation(map_table(fs, [0, 0, 1, 2, 3]))
    assert not is_permutation(map_table(fs, [1, 2, 3, 4, 1]))  # last only
    shifted = map_table(fs, [(x + 1) % 5 for x in range(5)])
    assert is_permutation(shifted) and not is_orthomorphism(shifted)


def test_difference_map_values(field):
    fs = field(7, 1)
    t = linear_map(fs, 3)
    d = difference_map(t)
    for x in range(7):
        assert d[x] == (3 * x - x) % 7


def test_linear_maps_orthomorphism_iff_slope_not_01(field):
    for fs in (field(7, 1), field(2, 3), field(3, 2)):
        for a in range(fs.q):
            assert is_orthomorphism(linear_map(fs, a)) == (a not in (0, 1))


@pytest.mark.parametrize("p,r", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_translate_preserves_orthomorphism_exhaustively(field, p, r):
    fs = field(p, r)
    for t in enumerate_orthomorphisms(fs):
        for g in range(fs.q):
            tt = translate(t, g)
            assert tt[0] == 0
            assert is_orthomorphism(tt)


def test_translate_of_affine_is_linear(field):
    fs = field(7, 1)
    t = map_table(fs, [(2 * x + 5) % 7 for x in range(7)])
    for g in range(7):
        assert translate(t, g).values.tolist() == linear_map(fs, 2).values.tolist()


@pytest.mark.parametrize("p,r", [(7, 1), (3, 2)])
def test_translate_refuses_codes_outside_the_field(field, p, r):
    # a negative g would wrap to an element from the end of the table, q
    # would overrun it
    fs = field(p, r)
    t = linear_map(fs, 2)
    for g in (-1, -fs.q, fs.q, fs.q + 1):
        with pytest.raises(PreconditionError):
            translate(t, g)
    assert translate(t, fs.q - 1).values.tolist() == t.values.tolist()


@pytest.mark.parametrize("p,r", [(7, 1), (3, 2)])
def test_linear_map_refuses_codes_outside_the_field(field, p, r):
    # a negative a would read the log of an element from the end of the
    # table (over GF(7), -1 gave x -> 6x), q would overrun it
    fs = field(p, r)
    of = OracleField(p, r, fs.modulus)
    for a in (-1, -fs.q, fs.q, fs.q + 1):
        with pytest.raises(PreconditionError):
            linear_map(fs, a)
    for a in (0, 1, fs.q - 1):
        assert linear_map(fs, a).values.tolist() == [of.mul(a, x) for x in range(fs.q)]


def test_cyclotomic_map_matches_definition(field):
    fs = field(7, 1)
    of = OracleField(7, 1, fs.modulus)
    for a0 in range(7):
        for a1 in range(7):
            t = cyclotomic_map(fs, 2, (a0, a1))
            assert t[0] == 0
            for x in range(1, 7):
                coset = of.discrete_log(fs.gamma, x) % 2
                assert t[x] == of.mul((a0, a1)[coset], x)


def test_cyclotomic_map_rejects_bad_args(field):
    fs = field(7, 1)
    with pytest.raises(PreconditionError):
        cyclotomic_map(fs, 4, (1, 2, 3, 4))  # 4 does not divide 6
    with pytest.raises(PreconditionError):
        cyclotomic_map(fs, 2, (1,))
    with pytest.raises(PreconditionError):
        cyclotomic_map(fs, 2, (1, 7))
    # no coefficient or index is truncated or parsed into an integer
    for n, coeffs in ((2, [3.9, 5.2]), (2, [True, "5"]), (2.0, [3, 5]), ("2", [3, 5])):
        with pytest.raises(PreconditionError, match="must be integers"):
            cyclotomic_map(fs, n, coeffs)
    assert cyclotomic_map(fs, np.int64(2), np.array([3, 5])).values.tolist() == \
        cyclotomic_map(fs, 2, [3, 5]).values.tolist()


def test_profile_of_linear_map(field):
    for fs in (field(7, 1), field(2, 3)):
        prof = cyclotomic_profile(linear_map(fs, fs.q - 1))
        assert prof.min_index == 1
        assert prof.coeffs == (fs.q - 1,)


def test_profile_requires_zero_fixed(field):
    fs = field(7, 1)
    t = map_table(fs, [(2 * x + 1) % 7 for x in range(7)])
    prof = cyclotomic_profile(t)
    assert prof.min_index is None and prof.coeffs is None
    assert prof.to_json() == {"min_index": None, "coeffs": None}


def test_profile_reconstruction(field):
    rng = random.Random(3)
    for q in (7, 13):
        fs = field(q, 1)
        for n in [d for d in range(1, q - 1) if (q - 1) % d == 0]:
            coeffs = [rng.randrange(q) for _ in range(n)]
            t = cyclotomic_map(fs, n, coeffs)
            prof = cyclotomic_profile(t)
            assert prof.min_index is not None
            assert n % prof.min_index == 0  # minimality divides any index
            rebuilt = cyclotomic_map(fs, prof.min_index, prof.coeffs)
            assert rebuilt.values.tolist() == t.values.tolist()


def test_profile_detects_non_cyclotomic(field):
    fs = field(7, 1)
    # a permutation fixing 0 that is not cyclotomic of index 1, 2 or 3
    t = map_table(fs, (0, 1, 2, 3, 4, 6, 5))
    assert cyclotomic_profile(t).min_index is None


def test_is_irregular_small_cases(field):
    f5 = field(5, 1)
    assert not is_irregular(linear_map(f5, 2))
    with pytest.raises(PreconditionError):
        is_irregular(linear_map(f5, 1))
    f8 = field(2, 3)
    hits = []
    for a in range(2, 8):
        for c in range(1, 8):
            if c in (1, a, a ^ 1):
                continue
            hits.append(is_irregular(even_char_theta(f8, a, c)))
    assert any(hits)  # even q > 4 admits an irregular orthomorphism


def test_every_f5_orthomorphism_is_regular(field):
    # all 15 are affine, so every one has a linear (index-1) translation
    fs = field(5, 1)
    assert all(not is_irregular(t) for t in enumerate_orthomorphisms(fs))
