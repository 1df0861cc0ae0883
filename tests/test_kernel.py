"""The array kernel and the map/polynomial routines built on it, checked
against the brute-force oracles on every prime power q <= 32."""

import random

import numpy as np
import pytest

from orthokit import (NonexistenceError, build_field, cyclotomic_map,
                      cyclotomic_profile, difference_map, distance3_pair,
                      interpolate, is_irregular, is_orthomorphism, linear_map,
                      map_table, reduced_poly, tabulate, translate)
from orthokit.gf import CHIRP_MIN, CHUNK

from oracles import (OracleField, cyclotomic_min_index, difference_table,
                     is_irregular_table, lagrange_interpolate, poly_degree,
                     tabulate_poly, translate_table)

#: (p, r) for every prime power q <= 32: all three field shapes.
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2),
                (3, 3), (29, 1), (31, 1), (2, 5)]


def _sample_maps(fs, rng):
    """Random tables, random permutations, the edge cases, cyclotomic maps
    of every proper index, and both members of the distance-3 pair with some
    of their translates."""
    q = fs.q
    maps = [[rng.randrange(q) for _ in range(q)] for _ in range(3)]
    for _ in range(2):
        perm = list(range(q))
        rng.shuffle(perm)
        maps.append(perm)
    maps += [[0] * q, [q - 1] * q, [1] + [0] * (q - 1)]
    for n in range(1, q - 1):
        if (q - 1) % n == 0:
            maps.append(cyclotomic_map(
                fs, n, [rng.randrange(q) for _ in range(n)]).values.tolist())
    try:
        pair = distance3_pair(fs)
    except NonexistenceError:
        return maps, []
    members = [pair.f, pair.g]
    shifts = rng.sample(range(1, q), min(q - 1, 6))
    orthos = members + [translate(m, g) for m in members for g in shifts]
    return maps + [t.values.tolist() for t in orthos], orthos


@pytest.mark.parametrize("p,r", SMALL_FIELDS)
def test_kernel_ops_match_oracle(field, p, r):
    fs = field(p, r)
    of = OracleField(p, r, fs.modulus)
    a, b = np.meshgrid(np.arange(fs.q), np.arange(fs.q))
    a, b = a.ravel(), b.ravel()
    pairs = list(zip(a.tolist(), b.tolist()))
    assert fs.add_array(a, b).tolist() == [of.add(x, y) for x, y in pairs]
    assert fs.sub_array(a, b).tolist() == [of.sub(x, y) for x, y in pairs]
    assert fs.mul_array(a, b).tolist() == [of.mul(x, y) for x, y in pairs]
    rows = np.random.default_rng(p * r).integers(0, fs.q, size=(5, 3 * fs.q))
    for row, got in zip(rows.tolist(), fs.sum_array(rows, axis=1).tolist()):
        want = 0
        for x in row:
            want = of.add(want, x)
        assert got == want
    assert fs.sum_array(rows.T, axis=0).tolist() == \
        fs.sum_array(rows, axis=-1).tolist()


def _check_add_sub(fs, a, b):
    """add_array and sub_array of the code arrays a, b against the oracle."""
    of = OracleField(fs.p, fs.r, fs.modulus)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert fs.add_array(a, b).tolist() == [of.add(x, y) for x, y in pairs]
    assert fs.sub_array(a, b).tolist() == [of.sub(x, y) for x, y in pairs]


@pytest.mark.parametrize("p,r", [(7, 3), (17, 2)])
def test_add_sub_every_pair_of_multi_group_fields(field, p, r):
    # q > P: one table gather per group of digits, two groups here
    fs = field(p, r)
    a, b = np.divmod(np.arange(fs.q * fs.q), fs.q)
    _check_add_sub(fs, a, b)


@pytest.mark.parametrize("p,r", [(3, 6), (5, 4), (3, 9), (3, 12), (101, 3), (1019, 2)])
def test_add_sub_seeded_pairs_of_larger_fields(field, p, r):
    # two and three groups of digits, and p > 256 where a group is one digit
    fs = field(p, r)
    a, b = np.random.default_rng(fs.q).integers(0, fs.q, size=(2, 4000))
    a[:3], b[:3] = [0, fs.q - 1, fs.q - 1], [fs.q - 1, 0, fs.q - 1]
    _check_add_sub(fs, a, b)


@pytest.mark.parametrize("p,r", [(3, 2), (3, 5), (7, 3), (3, 12)])
def test_add_sub_call_shapes(field, p, r):
    fs = field(p, r)
    of = OracleField(p, r, fs.modulus)
    rng = np.random.default_rng(fs.q)
    a, b = rng.integers(0, fs.q, size=(2, 50))
    c = int(rng.integers(1, fs.q))
    col = a[:6, None]
    # narrow codes: a * P + b must not overflow their dtype
    narrow = [(a.astype(np.int16), b.astype(np.uint16))] if fs.q < 2**15 else []
    for op, want in ((fs.add_array, of.add), (fs.sub_array, of.sub)):
        for x, y in [(a, b), (a, c), (c, b), (col, b)] + narrow:
            got = op(x, y)
            shape = np.broadcast_shapes(np.shape(x), np.shape(y))
            xs, ys = np.broadcast_to(x, shape), np.broadcast_to(y, shape)
            assert got.shape == shape
            assert got.tolist() == np.vectorize(want)(xs, ys).tolist()
            # fresh and writable: bitrade._half scales its keys in place
            assert got.dtype == np.int64 and got.flags.writeable
            assert not np.shares_memory(got, a) and not np.shares_memory(got, b)
        assert int(op(c, 5)) == want(c, 5) and int(op(0, 0)) == 0
    assert fs.add(c, 5) == of.add(c, 5) and fs.sub(c, 5) == of.sub(c, 5)
    assert fs.neg(c) == of.sub(0, c) and fs.neg(0) == 0


def test_add_sub_tables_shared_across_moduli():
    # digit-wise addition does not depend on the modulus or gamma: two
    # fields of GF(3^5) read the same tables and both match the oracle
    one, two = build_field(3, 5), build_field(3, 5, (2, 1, 2, 2, 2, 1))
    assert one.modulus != two.modulus
    for fs in (one, two):
        assert fs._digit_groups[0] is one._digit_groups[0]
        assert fs._digit_groups[1] is one._digit_groups[1]
        a, b = np.divmod(np.arange(fs.q * fs.q), fs.q)
        _check_add_sub(fs, a, b)


def _oracle_power_sums(of, vals):
    """sum over x of vals[x] * x^e for e in [0, q - 1), with 0^0 = 1."""
    powers = [[1] * (of.q - 1) for _ in range(of.q)]
    for x in range(of.q):
        for e in range(1, of.q - 1):
            powers[x][e] = of.mul(powers[x][e - 1], x)
    out = []
    for e in range(of.q - 1):
        acc = 0
        for x, v in enumerate(vals):
            acc = of.add(acc, of.mul(v, powers[x][e]))
        out.append(acc)
    return out


def _kernel_power_sums(fs, tables, lo, hi):
    """Rows [lo, hi) of the power sums of the maps along the last axis of
    tables: the kernel over the nodes x = gamma^log(x) != 0, and t(0) on
    row 0 for the node 0."""
    s = fs.power_sums(tables[..., 1:], fs.log_array[1:], lo, hi)
    if lo == 0:
        s[0] = fs.add_array(s[0], tables[..., 0])
    return s


@pytest.mark.parametrize("p,r", SMALL_FIELDS)
def test_power_sums_match_oracle(field, p, r):
    fs = field(p, r)
    of = OracleField(p, r, fs.modulus)
    q = fs.q
    rng = np.random.default_rng(q)
    batch = rng.integers(0, q, size=(5, q))
    batch[1] = 0
    batch[2, rng.random(q) < 0.5] = 0  # zero weights add nothing
    batch[3] = q - 1
    sparse = np.zeros(q, dtype=np.int64)  # a single sparse map, 0 among its nodes
    sparse[[0, q // 2, q - 1]] = rng.integers(1, q, size=3)
    want = [_oracle_power_sums(of, vals) for vals in batch.tolist()]
    got = _kernel_power_sums(fs, batch, 0, q - 1)
    assert got.shape == (q - 1, 5) and got.T.tolist() == want
    assert _kernel_power_sums(fs, sparse, 0, q - 1).tolist() == \
        _oracle_power_sums(of, sparse.tolist())
    # any row range, and the batch axes kept as they are
    for lo, hi in ((0, 1), (1, q - 1), (q // 2, q - 1), (q - 2, q - 1)):
        assert _kernel_power_sums(fs, batch, lo, hi).tolist() == got[lo:hi].tolist()
    assert _kernel_power_sums(fs, batch.reshape(5, 1, q), 0, q - 1).tolist() == \
        got[:, :, None].tolist()
    # exponents beyond q - 2 wrap, gamma^(q - 1) = 1; no terms, no sum
    m = np.array([0, q - 1, 2 * (q - 1) + 1])
    w = np.array([1, 1, 1])
    assert fs.power_sums(w, m, 1, 2).tolist() == [of.add(of.add(1, 1), fs.gamma)]
    assert fs.power_sums(w[:0], m[:0], 0, 3).tolist() == [0, 0, 0]


def test_power_sums_build_their_log_table_once():
    # fresh fields: an extension field builds its table on the first call
    # and every later call reads the same read-only array; a prime field
    # builds none
    m = np.arange(8)
    for p, r in ((2, 4), (3, 2), (17, 1)):
        fs = build_field(p, r)
        w = np.arange(16).reshape(2, 8) % fs.q
        first = fs.power_sums(w, m, 0, 3)
        table = vars(fs).get("_exp_twice")
        assert fs.power_sums(w, m, 0, 3).tolist() == first.tolist()
        assert vars(fs).get("_exp_twice") is table
        if r == 1:
            assert table is None
        else:
            assert table.shape == (3 * (fs.q - 1),) and not table.flags.writeable


def test_power_sums_do_not_overflow_at_the_largest_prime(field):
    # q terms of (p - 1)^2, about 2^60 in all, summed as plain integers:
    # node gamma^0 = 1 and q - 1 nodes gamma^((q-1)/2) = -1, read at row 1
    fs = field(1048573, 1)
    m = np.full(fs.q, (fs.q - 1) // 2, dtype=np.int64)
    m[0] = 0
    rows = np.full((2, fs.q), fs.q - 1, dtype=np.int64)
    want = ((fs.q - 1) + (fs.q - 1) ** 3) % fs.q
    assert fs.power_sums(rows, m, 1, 2).tolist() == [[want, want]]


@pytest.mark.parametrize("p,r", [(3, 6), (5, 4), (3, 7), (3, 12)])
def test_field_sum_of_long_rows_of_top_digits(field, p, r):
    # every digit at p - 1: the row sums where digit sums grow fastest; the
    # rows span many runs, 35 of 255 terms at 3^7 and 667 of 15 at 3^12
    fs = field(p, r)
    of = OracleField(p, r, fs.modulus)
    n = min(4 * fs.q, 10**4)
    want = 0
    for _ in range(n):
        want = of.add(want, fs.q - 1)
    rows = np.full((2, n), fs.q - 1, dtype=np.int64)
    assert fs.sum_array(rows, axis=1).tolist() == [want, want]


@pytest.mark.parametrize("p,r", SMALL_FIELDS)
def test_map_routines_match_oracle(field, p, r):
    fs = field(p, r)
    of = OracleField(p, r, fs.modulus)
    q = fs.q
    rng = random.Random(q)
    maps, orthos = _sample_maps(fs, rng)
    for vals in maps:
        t = map_table(fs, vals)
        poly = interpolate(t)
        # degree < q and agreement everywhere pin the interpolant down
        assert len(poly.coeffs) <= q
        assert tabulate_poly(of, poly.coeffs) == vals
        assert tabulate(poly).values.tolist() == list(vals)
        assert difference_map(t).values.tolist() == list(difference_table(of, vals))
        assert cyclotomic_profile(t).min_index == cyclotomic_min_index(of, vals)
        for g in range(q):
            assert translate(t, g).values.tolist() == list(translate_table(of, vals, g))
    # one full textbook Lagrange interpolation per field
    want = lagrange_interpolate(of, maps[0])
    got = interpolate(map_table(fs, maps[0]))
    assert got.degree == poly_degree(want)
    assert got.coeffs + (0,) * (q - len(got.coeffs)) == want
    for t in orthos:
        assert is_irregular(t) == is_irregular_table(of, t.values.tolist())


@pytest.mark.parametrize("p,r", SMALL_FIELDS)
def test_tabulate_matches_oracle_on_random_polys(field, p, r):
    fs = field(p, r)
    of = OracleField(p, r, fs.modulus)
    rng = random.Random(fs.q)
    for length in (0, 1, 2, fs.q):
        coeffs = [rng.randrange(fs.q) for _ in range(length)]
        assert tabulate(reduced_poly(fs, coeffs)).values.tolist() == \
            tabulate_poly(of, coeffs)


def test_edge_case_maps(field):
    fs = field(7, 1)
    zero = interpolate(map_table(fs, [0] * 7))
    assert zero.coeffs == () and zero.degree is None
    assert tabulate(zero).values.tolist() == [0] * 7
    const = interpolate(map_table(fs, [4] * 7))
    assert const.coeffs == (4,) and const.degree == 0
    assert cyclotomic_profile(map_table(fs, [4] * 7)).min_index is None
    shifted = map_table(fs, [(3 * x + 2) % 7 for x in range(7)])  # t(0) != 0
    assert interpolate(shifted).coeffs == (2, 3)
    assert cyclotomic_profile(shifted).min_index is None
    assert is_orthomorphism(shifted) and not is_irregular(shifted)


def test_affine_map_stops_at_first_translation(field):
    # every translation of an affine map is linear, so the scan ends at g = 0
    fs = field(3, 6)
    t = map_table(fs, [fs.add(fs.mul(2, x), 5) for x in range(fs.q)])
    assert not is_irregular(t)
    assert not is_irregular(linear_map(fs, 2))


@pytest.mark.parametrize("p,r", [(3, 6), (5, 4), (2, 10), (1019, 1)])
def test_roundtrip_medium_fields(field, p, r):
    fs = field(p, r)
    rng = random.Random(fs.q)
    perm = list(range(fs.q))
    rng.shuffle(perm)
    for vals in (perm, [rng.randrange(fs.q) for _ in range(fs.q)]):
        t = map_table(fs, vals)
        assert tabulate(interpolate(t)).values.tolist() == t.values.tolist()


#: Orders for the transform: (q - 1)^2 <= CHUNK (one power_sums call), q - 1
#: prime (2^7, 2^13), p - 1 = 2 * prime with a kernel leaf below CHIRP_MIN
#: (263) and chirp-z leaves from it on (347 at CHIRP_MIN itself, 1019),
#: another chirp-z leaf (4099), and mixed radix on every field shape.
DFT_FIELDS = [(7, 1), (2, 4), (3, 3), (2, 7), (3, 5), (2, 8), (263, 1), (7, 3),
              (347, 1), (5, 4), (3, 6), (1019, 1), (2, 10), (2003, 1), (3, 7),
              (2, 12), (4099, 1), (2, 13)]


@pytest.mark.parametrize("p,r", DFT_FIELDS)
def test_dft_matches_power_sums_on_every_row(field, p, r):
    # a chirp-z stage is never one chunk, so _dft's rule needs no L^2 test
    assert CHIRP_MIN ** 2 > CHUNK
    fs = field(p, r)
    q1 = fs.q - 1
    rng = np.random.default_rng(fs.q)
    # at 2^13 the transform is one power_sums call: a single row will do
    w = rng.integers(0, fs.q, size=(3 if q1 < 8000 else 1, q1))
    w[0, rng.random(q1) < 0.5] = 0
    w[-1, ::3] = fs.q - 1
    want = np.moveaxis(fs.power_sums(w, np.arange(q1), 0, q1), 0, -1)
    got = fs.dft(w)
    assert got.shape == w.shape and np.array_equal(got, want)
    if len(w) > 1:
        # a batch gives the rows of single calls, with its leading axes kept
        for row, single in zip(w, got):
            assert np.array_equal(fs.dft(row), single)
        assert np.array_equal(fs.dft(w[:, None]), got[:, None])
        assert not fs.dft(np.zeros(q1, dtype=np.int64)).any()
    # the field's transform is power_sums(w, m, 0, rows) whichever way it
    # reads: top rows, full reads on either side of the dft threshold, nodes
    # in code order as ortho's _sums passes them, and zero columns
    every, want_rows = np.arange(q1), np.moveaxis(want, -1, 0)
    for rows in (1, 3, 9):
        if rows < q1:
            assert np.array_equal(fs.transform(w, every, rows), want_rows[:rows])
    nodes = rng.permutation(q1)
    dense = sum(fs.radices)
    for k in sorted({0, 1, min(dense, q1), min(dense + 1, q1), q1}):
        sparse = np.zeros(q1, dtype=np.int64)
        sparse[nodes[:k]] = rng.integers(1, fs.q, size=k)
        # a zero weight adds nothing, so the kernel may skip those nodes
        assert np.array_equal(fs.transform(sparse, every, q1),
                              fs.power_sums(sparse[nodes[:k]], nodes[:k], 0, q1)), k
    tables = np.zeros((len(w), fs.q), dtype=np.int64)
    tables[:, fs.exp_array] = w
    assert np.array_equal(fs.transform(tables[:, 1:], fs.log_array[1:], q1), want_rows)
    # batches with a column 0 in every map, one dense and one whose maps are
    # all 0 outside the same few columns, which a full read drops
    batch = w.copy()
    batch[:, 1] = 0
    sparse_batch = np.zeros_like(batch)
    sparse_batch[:, nodes[:dense]] = batch[:, nodes[:dense]]
    for b in (batch, sparse_batch):
        assert np.array_equal(fs.transform(b, every, q1), fs.power_sums(b, every, 0, q1))


@pytest.mark.parametrize("p", [65543, 1048343, 1048573])
def test_dft_spot_rows_near_the_largest_primes(field, p):
    # chirp-z leaves of length 32,771 and 524,171, whose correlations come
    # near 2^41 before the reduction mod p, and 2^2 3^3 7 19 73 by mixed radix
    fs = field(p, 1)
    rng = np.random.default_rng(p)
    w = rng.integers(0, p, size=p - 1)
    w[::2] = p - 1
    got = fs.dft(w)
    rows = [0, 1, 2, (p - 1) // 2, p - 2] + rng.integers(0, p - 1, size=3).tolist()
    for e in rows:
        assert got[e] == fs.power_sums(w, np.arange(p - 1), e, e + 1)[0], e


def test_chirp_z_refuses_an_inexact_correlation(field, monkeypatch):
    fs = field(1019, 1)
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args: irfft(*args) + 0.3)
    with pytest.raises(AssertionError, match="exactness"):
        fs.dft(np.ones(fs.q - 1, dtype=np.int64))
