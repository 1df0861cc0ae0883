"""Interpolation, degrees and map distance, pinned against the textbook
Lagrange oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokit import (PreconditionError, evaluate, hamming_distance,
                      interpolate, linear_map, map_table, reduced_degree,
                      reduced_poly, tabulate)

from oracles import OracleField, hamming, lagrange_interpolate, poly_degree


def test_linear_map_interpolates_to_degree_one(field):
    fs = field(3, 1)
    poly = interpolate(linear_map(fs, 2))
    assert poly.coeffs == (0, 2)
    assert poly.degree == 1


def test_identity_is_x(field):
    for fs in (field(5, 1), field(2, 3), field(3, 2)):
        ident = map_table(fs, range(fs.q))
        assert interpolate(ident).coeffs == (0, 1)


def test_transposition_has_degree_q_minus_2(field):
    fs = field(5, 1)
    vals = [0, 1, 3, 2, 4]  # identity with one transposition
    assert interpolate(map_table(fs, vals)).degree == 3


def test_interpolate_matches_lagrange_oracle(field):
    rng = random.Random(5)
    for fs in (field(7, 1), field(2, 3), field(3, 2), field(11, 1)):
        of = OracleField(fs.p, fs.r, fs.modulus)
        for _ in range(8):
            vals = [rng.randrange(fs.q) for _ in range(fs.q)]
            got = interpolate(map_table(fs, vals))
            want = lagrange_interpolate(of, vals)
            assert got.degree == poly_degree(want)
            padded = got.coeffs + (0,) * (fs.q - len(got.coeffs))
            assert padded == want


def test_roundtrip_table_poly_table(field):
    rng = random.Random(9)
    for fs in (field(13, 1), field(2, 4), field(5, 2)):
        for _ in range(10):
            vals = tuple(rng.randrange(fs.q) for _ in range(fs.q))
            t = map_table(fs, vals)
            assert tabulate(interpolate(t)).values == vals


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_roundtrip_poly_table_poly(data):
    from conftest import cached_field
    fs = cached_field(3, 2)
    coeffs = data.draw(st.lists(st.integers(0, 8), min_size=0, max_size=9))
    poly = reduced_poly(fs, coeffs)
    assert interpolate(tabulate(poly)) == poly


def test_zero_polynomial_sentinel(field):
    fs = field(7, 1)
    zero = map_table(fs, [0] * 7)
    poly = interpolate(zero)
    assert poly.coeffs == () and poly.degree is None
    assert reduced_degree(zero) is None
    assert reduced_poly(fs, [0, 0, 0]).degree is None


def test_trailing_zeros_trimmed(field):
    fs = field(7, 1)
    poly = reduced_poly(fs, (3, 1, 0, 0))
    assert poly.coeffs == (3, 1) and poly.degree == 1


def test_evaluate_horner(field):
    fs = field(2, 3)
    poly = reduced_poly(fs, (1, 0, 1))  # 1 + x^2
    for x in range(8):
        assert evaluate(poly, x) == fs.add(1, fs.mul(x, x))


def test_f125_witness_polynomial(field):
    fs = field(5, 3, (3, 3, 0, 1))
    b = fs.add(25, 4)
    poly = reduced_poly(fs, (0, fs.neg(b), 0, 0, 0, 1))  # x^5 - b*x
    assert poly.coeffs == (0, 101, 0, 0, 0, 1)
    assert evaluate(poly, 0) == 0
    assert evaluate(poly, 25) == 103
    assert evaluate(poly, 103) == 78


def test_reduced_poly_rejects_bad_coeffs(field):
    fs = field(5, 1)
    with pytest.raises(PreconditionError):
        reduced_poly(fs, [0] * 6)  # degree q not allowed
    with pytest.raises(PreconditionError):
        reduced_poly(fs, [5])
    with pytest.raises(PreconditionError):
        reduced_poly(fs, [-1])


def test_hamming_distance(field):
    fs = field(5, 1)
    assert hamming_distance(linear_map(fs, 2), linear_map(fs, 3)) == 4
    assert hamming_distance(linear_map(fs, 2), linear_map(fs, 2)) == 0
    other = field(5, 1, None, 3)  # same order, different gamma
    with pytest.raises(PreconditionError):
        hamming_distance(linear_map(fs, 2), linear_map(other, 2))


@pytest.mark.parametrize("p,r", [(7, 1), (2, 6), (2, 16)])
def test_hamming_distance_matches_oracle(field, p, r):
    fs = field(p, r)
    rng = random.Random(p ** r)
    for flips in (0, 1, 3, fs.q // 2, fs.q):
        u = [rng.randrange(fs.q) for _ in range(fs.q)]
        v = list(u)
        for x in rng.sample(range(fs.q), flips):
            v[x] = (v[x] + 1 + rng.randrange(fs.q - 1)) % fs.q
        got = hamming_distance(map_table(fs, u), map_table(fs, v))
        assert got == hamming(u, v) == flips
