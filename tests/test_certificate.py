"""The degree certificate behind is_irregular, cross-checked against the
brute-force irregularity oracle and against the translation scan."""

import random
from math import gcd

import numpy as np
import pytest

from orthokit import (MapTable, NonexistenceError, cyclotomic_map,
                      cyclotomic_profile, distance3_pair, even_char_theta,
                      interpolate, is_irregular, is_orthomorphism, linear_map,
                      prime_powers, reduced_poly, tabulate, translate)
from orthokit.census import _irregular_count, _value_tuples
from orthokit.gf import distinct_prime_factors
from orthokit.ortho import (_CERTIFY_ROWS, CERTIFIED, ONE_TRANSLATION,
                            P_DIVIDES, P_DIVIDES_SCAN, SCAN, _certify,
                            _degrees, _period_checks, _scan)

from oracles import (OracleField, TabulatedField, is_irregular_table,
                     mrv_backtrack)

#: Every prime power 3 <= q <= 64; GF(2) has no orthomorphism.
FIELDS = [(p, r) for p, r, q in prime_powers(64) if q > 2]

#: Orthomorphisms with p | D, a surviving prime ell | q - 1 and
#: t_(D-1) != 0, in the default fields; each was the first such map a
#: seeded random completion search met.  Random maps of degree q - 3 never
#: take this path: p | q - 3 only for p = 3, where no ell survives.
P_DIVIDES_WITNESSES = {
    (2, 4): [6, 4, 11, 1, 15, 5, 10, 8, 0, 13, 9, 12, 2, 7, 3, 14],
    (3, 3): [14, 2, 16, 18, 25, 8, 26, 15, 12, 7, 3, 21, 10, 9, 23, 5, 13,
             6, 1, 4, 20, 0, 24, 22, 19, 11, 17],
}


def _random_orthomorphisms(fs, of, rng, count):
    """Orthomorphisms from the reference completion search, with shuffled
    positions and value order."""
    q, full = fs.q, (1 << fs.q) - 1
    spec = TabulatedField(of)
    out = []
    while len(out) < count:
        order, pos = list(range(q)), list(range(q))
        rng.shuffle(order)
        rng.shuffle(pos)
        found = mrv_backtrack(spec, [-1] * q, full, full, pos, order, 50 * q)
        if isinstance(found, list):
            out.append(MapTable(fs, tuple(found)))
    return out


def _cyclotomic_orthomorphisms(fs, rng):
    """Per proper index n, a seeded cyclotomic orthomorphism when one turns
    up, with a translate of it (regular, its cyclotomic translation at a
    nonzero g)."""
    q = fs.q
    out = []
    for n in (n for n in range(1, q - 1) if (q - 1) % n == 0):
        for _ in range(100):
            c = cyclotomic_map(fs, n, [rng.randrange(1, q) for _ in range(n)])
            if is_orthomorphism(c):
                out += [c, translate(c, rng.randrange(1, q))]
                break
    return out


def _family(fs, of, rng):
    q = fs.q
    maps = []
    try:
        pair = distance3_pair(fs, seed=0)
        maps += [pair.f, pair.g, translate(pair.f, rng.randrange(q)),
                 translate(pair.g, rng.randrange(q))]
    except NonexistenceError:
        pass
    if fs.p == 2 and q >= 8:
        maps += [even_char_theta(fs, a, c)
                 for a, c in ((2, 4), (3, 4), (q - 1, 2)) if c not in (1, a, a ^ 1)]
    for a in range(2, q):
        t = linear_map(fs, a)
        if is_orthomorphism(t):
            b = rng.randrange(q)
            maps += [t, MapTable(fs, tuple(fs.add(v, b) for v in t.values.tolist()))]
    if fs.r > 1:
        # x^p + b*x: degree p, and in odd characteristic ell = 2 survives
        for b in range(2, q):
            t = MapTable(fs, tuple(fs.add(fs.pow(x, fs.p), fs.mul(b, x))
                                   for x in range(q)))
            if is_orthomorphism(t):
                maps.append(t)
                break
    maps += _cyclotomic_orthomorphisms(fs, rng)
    maps += _random_orthomorphisms(fs, of, rng, 3)
    if (fs.p, fs.r) in P_DIVIDES_WITNESSES:
        maps.append(MapTable(fs, tuple(P_DIVIDES_WITNESSES[fs.p, fs.r])))
    return maps


@pytest.mark.slow
def test_certificate_matches_oracle_up_to_64(field):
    """is_irregular against the oracle on every family at every q <= 64,
    with every path of the certificate taken."""
    rng = random.Random(2021)
    seen = set()
    low_degree_scan = False
    for p, r in FIELDS:
        fs = field(p, r)
        of = OracleField(p, r, fs.modulus)
        maps = _family(fs, of, rng)
        for t in maps:
            assert is_irregular(t) == is_irregular_table(of, t.values.tolist()), \
                (fs.q, t.values.tolist())
        tables = np.array([t.values.tolist() for t in maps], dtype=np.int64)
        path, _ = _certify(fs, tables, _period_checks(fs))
        seen |= set(path.tolist())
        low_degree_scan |= any(interpolate(maps[i]).degree <= 1
                               for i in np.flatnonzero(path == SCAN))
    assert seen == {CERTIFIED, ONE_TRANSLATION, P_DIVIDES, P_DIVIDES_SCAN, SCAN}
    assert low_degree_scan


@pytest.mark.parametrize("p,r", sorted(P_DIVIDES_WITNESSES))
def test_p_divides_witnesses(field, p, r):
    fs = field(p, r)
    t = MapTable(fs, tuple(P_DIVIDES_WITNESSES[p, r]))
    d = interpolate(t).degree
    assert is_orthomorphism(t) and d % p == 0
    path, irregular = _certify(fs, np.array([t.values.tolist()]), _period_checks(fs))
    assert path.tolist() == [P_DIVIDES] and irregular.tolist() == [True]
    assert is_irregular(t)
    assert is_irregular_table(OracleField(p, r, fs.modulus), t.values.tolist())


@pytest.mark.parametrize("p,r", [(p, r) for p, r in FIELDS if p**r <= 11])
def test_certificate_matches_scan_on_census_maps(field, p, r):
    """Every normalized orthomorphism of q <= 11: the certificate agrees with
    the block scan wherever it decides, and the census count with both."""
    fs = field(p, r)
    tables = _value_tuples(fs)
    checks = _period_checks(fs)
    path, irregular = _certify(fs, tables, checks)
    regular = _scan(fs, tables, checks)
    decided = path < P_DIVIDES_SCAN
    assert (irregular[decided] == ~regular[decided]).all()
    assert not irregular[~decided].any()
    assert _irregular_count(fs, tables) == int((~regular).sum())


def _expected_path(fs, t):
    """The certificate's path for t by the rule in ortho's comment, from
    interpolate(t)'s D, t_D and t_(D-1)."""
    c = interpolate(t).coeffs
    d = len(c) - 1
    if d <= 1 or fs.q - 1 - d >= _CERTIFY_ROWS:
        return SCAN
    if all((d - 1) % ell for ell in distinct_prime_factors(fs.q - 1)):
        return CERTIFIED
    if d % fs.p == 0:
        return P_DIVIDES if c[d - 1] else P_DIVIDES_SCAN
    return ONE_TRANSLATION


def _random_poly_map(fs, rng, degrees):
    """The map of a polynomial with random nonzero coefficients on degrees."""
    coeffs = [0] * (max(degrees) + 1)
    for j in degrees:
        coeffs[j] = rng.randrange(1, fs.q)
    return tabulate(reduced_poly(fs, coeffs))


def test_degree_reads_take_one_kernel_call(field, kernel_rows):
    """_degrees and _certify read a batch of four degrees >= 2, with the
    paths CERTIFIED, ONE_TRANSLATION and P_DIVIDES, in one power_sums call
    each."""
    fs = field(2, 4)
    rng = random.Random(16)
    maps = [MapTable(fs, tuple(P_DIVIDES_WITNESSES[2, 4]))]  # D = 10
    maps += [_random_poly_map(fs, rng, range(d + 1)) for d in (14, 13, 11)]
    tables = np.array([t.values for t in maps])
    checks = _period_checks(fs)
    kernel_rows.clear()
    degree, _ = _degrees(fs, tables, _CERTIFY_ROWS)
    assert degree.tolist() == [10, 14, 13, 11]
    assert kernel_rows == [_CERTIFY_ROWS]
    kernel_rows.clear()
    path, irregular = _certify(fs, tables, checks)
    assert kernel_rows == [_CERTIFY_ROWS + 1]
    assert path.tolist() == [P_DIVIDES, CERTIFIED, ONE_TRANSLATION, ONE_TRANSLATION]
    assert path.tolist() == [_expected_path(fs, t) for t in maps]
    assert irregular[:2].all()


@pytest.mark.parametrize("p,r", [(61, 1), (3, 4), (2, 6)])
def test_certificate_at_the_edge_of_the_rows_read(field, p, r):
    """Leading coefficients on rows 6, 7 and 8 (D = q - 7, q - 8, q - 9):
    every path as the rule gives it from interpolate, and every verdict.
    D = q - 9 lies below the top rows, and at D = q - 8 the one translation
    needs t_(D-1) from the extra row read below them."""
    fs = field(p, r)
    q = fs.q
    rng = random.Random(q)
    maps = []
    for d in (q - 7, q - 8, q - 9):
        maps += [(d, _random_poly_map(fs, rng, range(d + 1))),
                 (d, _random_poly_map(fs, rng, [*range(d - 1), d]))]
        ells = distinct_prime_factors(gcd(d - 1, q - 1))
        if ells:
            # x * P(x^ell) is cyclotomic; one nonzero translation of it is
            # a regular map of degree d, found by its one translation
            cyc = _random_poly_map(fs, rng, range(1, d + 1, ells[0]))
            maps.append((d, translate(cyc, rng.randrange(1, q))))
    tables = np.array([t.values for _, t in maps])
    path, irregular = _certify(fs, tables, _period_checks(fs))
    found_by_extra_row = False
    for (d, t), got, irr in zip(maps, path.tolist(), irregular.tolist()):
        want = _expected_path(fs, t)
        assert got == want, (d, t.values.tolist())
        if d == q - 9:
            assert got == SCAN
        if want == ONE_TRANSLATION:
            c = interpolate(t).coeffs
            g = fs.mul(fs.neg(c[d - 1]), fs.inv(fs.mul(d % fs.p, c[d])))
            assert irr == (cyclotomic_profile(translate(t, g)).min_index is None)
            found_by_extra_row |= d == q - 8 and not irr
        else:
            assert irr == (want in (CERTIFIED, P_DIVIDES))
    # at GF(2^6) D = q - 8 is CERTIFIED: 55 shares no prime with 63
    assert found_by_extra_row == (fs.q != 64)
