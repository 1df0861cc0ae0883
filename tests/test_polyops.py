"""Interpolation, degrees and map distance, pinned against the textbook
Lagrange oracle."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokit import (MapTable, PreconditionError, distance3_pair, evaluate,
                      hamming_distance, interpolate, interpolate_delta,
                      linear_map, map_table, prime_powers, reduced_degree,
                      reduced_poly, tabulate)

from oracles import (OracleField, hamming, lagrange_interpolate, poly_degree,
                     tabulate_poly)


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
            assert tuple(tabulate(interpolate(t)).values.tolist()) == vals


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


def test_evaluate_matches_tabulate(field):
    rng = random.Random(13)
    for p, r, q in prime_powers(64):
        fs = field(p, r)
        of = OracleField(p, r, fs.modulus)
        polys = [(), (rng.randrange(1, q),)]  # zero and a nonzero constant
        for _ in range(3):
            cs = [rng.randrange(q) if rng.random() < 0.5 else 0
                  for _ in range(rng.randrange(1, q + 1))]
            polys.append(tuple(cs))
        for coeffs in polys:
            poly = reduced_poly(fs, coeffs)
            got = [evaluate(poly, x) for x in range(q)]
            want = tabulate_poly(of, coeffs)
            assert got == tabulate(poly).values.tolist() == want, (q, coeffs)
            assert all(type(v) is int for v in got)


@pytest.mark.parametrize("p,r", [(7, 1), (3, 2)])
def test_evaluate_refuses_codes_outside_the_field(field, p, r):
    fs = field(p, r)
    x_poly = reduced_poly(fs, (0, 1))
    for x in (-1, -fs.q, fs.q, fs.q + 1):
        with pytest.raises(PreconditionError):
            evaluate(x_poly, x)
    assert [evaluate(x_poly, x) for x in range(fs.q)] == list(range(fs.q))


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


def _degree_maps(fs, rng):
    """(values, degree) for the zero map, nonzero constants and affine maps,
    whose degrees are known, and (values, None) for random maps and
    permutations, whose degree the oracles settle."""
    q = fs.q
    maps = [([0] * q, None), ([1] * q, 0), ([q - 1] * q, 0)]
    for a, b in ((1, 0), (q - 1, 1), (rng.randrange(1, q), rng.randrange(q))):
        maps.append(([fs.add(fs.mul(a, x), b) for x in range(q)], 1))
    for _ in range(2):
        maps.append(([rng.randrange(q) for _ in range(q)], "oracle"))
        perm = list(range(q))
        rng.shuffle(perm)
        maps.append((perm, "oracle"))
    return maps


@pytest.mark.parametrize("p,r", [(p, r) for p, r, _ in prime_powers(64)])
def test_reduced_degree_matches_interpolate_and_oracle(field, p, r):
    fs = field(p, r)
    of = OracleField(p, r, fs.modulus)
    q = fs.q
    rng = random.Random(q)
    for vals, want in _degree_maps(fs, rng):
        t = map_table(fs, vals)
        poly = interpolate(t)
        if want == "oracle":
            # degree < q and agreement everywhere pin the interpolant down
            assert tabulate_poly(of, poly.coeffs) == vals
            want = poly.degree
        assert reduced_degree(t) == poly.degree == want
    # one textbook Lagrange interpolation per field, on a map with three
    # nonzero values, 0 among the nodes
    vals = [0] * q
    for x in {0, 1 % q, q - 1}:
        vals[x] = rng.randrange(1, q)
    t = map_table(fs, vals)
    assert reduced_degree(t) == poly_degree(lagrange_interpolate(of, vals))


def _block_edges(q):
    """Degrees within 1 of q - 1 - (2^k - 1) for every k, and the extremes:
    at k = 3 the edge of reduced_degree's top read of 8 rows, and below it
    degrees spread over the depths of the full read."""
    edges, rows, block = {0, 1, 2, q - 2, q - 1}, 0, 1
    while rows < q - 1:
        rows += block
        block *= 2
        edges |= {q - 1 - rows + d for d in (-1, 0, 1)}
    return sorted(d for d in edges if 0 <= d < q)


@pytest.mark.parametrize("p,r", [(61, 1), (2, 6), (3, 4), (5, 3), (2, 10),
                                 (1019, 1)])
def test_reduced_degree_at_block_boundaries(field, p, r):
    fs = field(p, r)
    rng = random.Random(fs.q)
    for d in _block_edges(fs.q):
        coeffs = [rng.randrange(fs.q) for _ in range(d)] + [rng.randrange(1, fs.q)]
        t = tabulate(reduced_poly(fs, coeffs))
        assert reduced_degree(t) == d == interpolate(t).degree


def test_reduced_degree_reads_only_the_top_rows(field, kernel_rows):
    fs = field(2, 10)
    rng = random.Random(4)
    maps = []
    for d in (fs.q - 1, fs.q - 3, fs.q - 40, 2, 1):
        coeffs = [rng.randrange(fs.q) for _ in range(d)] + [1]
        maps.append((d, tabulate(reduced_poly(fs, coeffs))))
    for d, t in maps:
        kernel_rows.clear()
        assert reduced_degree(t) == d
        if d >= 2:
            # one read of the top 8 rows, then for a degree below them one
            # dft, whose stages read 33 + 31 rows at 2^10: 72 rows, within
            # the bound at every degree here (86 at q - 40)
            assert 0 < sum(kernel_rows) <= min(2 * (fs.q - 1 - d) + 8, fs.q - 1)
        else:
            assert kernel_rows == []


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2)])
def test_reduced_degree_of_every_affine_map_and_its_neighbours(field, p, r):
    # every a*x + b, and each one changed at one point, which leaves it
    # affine only at q = 2
    fs = field(p, r)
    q = fs.q
    for a in range(q):
        for b in range(q):
            vals = tabulate(reduced_poly(fs, [b, a])).values.tolist()
            want = 1 if a else 0 if b else None
            assert reduced_degree(map_table(fs, vals)) == want
            x = (a + b) % q
            vals[x] = (vals[x] + 1) % q
            t = map_table(fs, vals)
            assert reduced_degree(t) == interpolate(t).degree


def test_reduced_degree_of_an_affine_map_skips_the_transform(field, kernel_rows):
    fs = field(2, 16)
    affine = tabulate(reduced_poly(fs, [5, 3]))

    small = field(7, 1)
    quadratic = tabulate(reduced_poly(small, [5, 3, 1]))
    kernel_rows.clear()
    assert reduced_degree(affine) == 1
    assert reduced_degree(map_table(fs, [7] * fs.q)) == 0
    assert reduced_degree(map_table(fs, [0] * fs.q)) is None
    assert kernel_rows == []
    # the counter sees the degree read: degree 2 reads every row
    assert reduced_degree(quadratic) == 2
    assert sum(kernel_rows) == small.q - 1


def test_reduced_degree_rejects_wrong_length(field):
    fs = field(7, 1)
    for vals in ((0,) * 6, (0,) * 8):
        with pytest.raises(PreconditionError):
            reduced_degree(MapTable(fs, vals))
        with pytest.raises(PreconditionError):
            interpolate(MapTable(fs, vals))


@pytest.mark.parametrize("p,r", [(61, 1), (3, 3), (5, 3), (2, 6)])
def test_interpolate_delta_synthetic_pairs(field, p, r):
    fs = field(p, r)
    q = fs.q
    rng = random.Random(q + 1)
    for k in (0, 1, 3, 7):
        for with_zero in (False, True):
            f = [rng.randrange(q) for _ in range(q)]
            points = rng.sample(range(1, q), k)
            if with_zero and k:
                points[0] = 0
            g = list(f)
            for y in points:
                g[y] = (g[y] + rng.randrange(1, q)) % q
            ft, gt = map_table(fs, f), map_table(fs, g)
            assert hamming_distance(ft, gt) == k
            assert interpolate_delta(interpolate(ft), ft, gt) == interpolate(gt)


def test_interpolate_delta_point_zero_touches_two_terms(field):
    fs = field(13, 1)
    f = linear_map(fs, 2)
    g = map_table(fs, [5] + f.values[1:].tolist())
    # 2x + 5 * (1 - x^12)
    assert interpolate_delta(interpolate(f), f, g).coeffs == (5, 2) + (0,) * 10 + (8,)


def test_interpolate_delta_rejects_mixed_fields(field):
    fs, other = field(7, 1), field(7, 1, None, 5)
    f = linear_map(fs, 2)
    with pytest.raises(PreconditionError):
        interpolate_delta(interpolate(f), f, linear_map(other, 3))
    with pytest.raises(PreconditionError):
        interpolate_delta(interpolate(linear_map(other, 2)), f, f)


@pytest.mark.parametrize("seed", [0, 7])
def test_interpolate_delta_on_every_pair(field, seed):
    for p, r, q in prime_powers(343):
        if q in (2, 5, 8):
            continue
        pair = distance3_pair(field(p, r), seed=seed)
        got = interpolate_delta(interpolate(pair.f), pair.f, pair.g)
        assert got == interpolate(pair.g), q



@pytest.mark.parametrize("p,r", [(2, 10), (1019, 1)])
def test_interpolate_delta_of_a_pair_is_one_kernel_read(field, kernel_rows, p, r):
    # the three changed points are the only nodes: one power_sums call of
    # q - 1 rows, where a dft would add a call per stage of its radices
    fs = field(p, r)
    pair = distance3_pair(fs)
    fp, want = interpolate(pair.f), interpolate(pair.g)
    kernel_rows.clear()
    assert interpolate_delta(fp, pair.f, pair.g) == want
    assert kernel_rows == [fs.q - 1]


def test_tabulate_of_a_linearized_polynomial_is_one_kernel_read(field, kernel_rows):
    # x^5 - b*x at 5^5: two nonzero coefficients, one power_sums call
    fs = field(5, 5)
    b = 2
    kernel_rows.clear()
    t = tabulate(reduced_poly(fs, [0, fs.neg(b), 0, 0, 0, 1]))
    assert kernel_rows == [fs.q - 1]
    x = np.arange(fs.q)
    x5 = fs.mul_array(fs.mul_array(fs.mul_array(x, x), fs.mul_array(x, x)), x)
    assert t.values.tolist() == fs.sub_array(x5, fs.mul_array(x, b)).tolist()


def _horner(of, coeffs):
    """tabulate_poly(of, coeffs), by plain integer arithmetic on prime fields."""
    if of.r > 1:
        return tabulate_poly(of, coeffs)
    out = []
    for x in range(of.q):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % of.p
        out.append(acc)
    return out


@pytest.mark.parametrize("p,r", [(p, r) for p, r, _ in prime_powers(343)])
def test_interpolate_and_tabulate_match_oracle_up_to_343(field, p, r):
    # a random table: a dense read, so every q with (q - 1)^2 > CHUNK takes
    # the transform both ways.  Degree < q and agreement everywhere pin the
    # interpolant down, as the textbook Lagrange interpolation would, whose
    # O(q^3) oracle runs in test_kernel up to q = 32; its x^(q-1) term
    # folds onto x^0 when tabulated
    fs = field(p, r)
    of = OracleField(p, r, fs.modulus)
    rng = random.Random(fs.q)
    vals = [rng.randrange(fs.q) for _ in range(fs.q)]
    poly = interpolate(map_table(fs, vals))
    assert len(poly.coeffs) <= fs.q and _horner(of, poly.coeffs) == vals
    assert tabulate(poly).values.tolist() == vals
