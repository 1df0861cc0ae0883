"""Map-table verifiers: permutation and orthomorphism predicates,
translations, cyclotomic structure, irregularity."""

import random

import pytest

from orthokit import (MapTable, PreconditionError, cyclotomic_map,
                      cyclotomic_profile, difference_map,
                      enumerate_orthomorphisms, even_char_theta, is_irregular,
                      is_orthomorphism, is_permutation, linear_map, map_table,
                      translate)

from oracles import OracleField


def test_map_table_validation(field):
    fs = field(5, 1)
    with pytest.raises(PreconditionError):
        map_table(fs, [0, 1, 2, 3])  # too short
    with pytest.raises(PreconditionError):
        map_table(fs, [0, 1, 2, 3, 5])  # out of range
    t = map_table(fs, [0, 1, 2, 3, 4])
    assert len(t) == 5 and t[3] == 3


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
        assert translate(t, g).values == linear_map(fs, 2).values


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
            assert rebuilt.values == t.values


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
