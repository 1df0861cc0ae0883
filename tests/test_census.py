"""Exhaustive small-field censuses checked against frozen totals and the
permutation-filter oracle."""

import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from orthokit import (MapTable, PreconditionError, census,
                      enumerate_orthomorphisms, irregular_fraction,
                      interpolate, is_irregular)
from orthokit.census import (CensusReport, _degree_histogram,
                             _irregular_count, _min_pairwise_distance,
                             _value_tuples)

from oracles import (OracleField, all_orthomorphisms, is_irregular_table,
                     lagrange_interpolate, poly_degree)

#: Every prime power q <= 9: prime, 2^r and odd-extension fields.
SMALL = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]

# Frozen census results.  Totals factor as q times the zero-fixing counts
# because translation by theta(1-t) freely moves theta(0) over the field.
FROZEN = {
    (2, 1): dict(total=0, hist={}, mind=None, irr=0),
    (3, 1): dict(total=3, hist={1: 3}, mind=3, irr=0),
    (2, 2): dict(total=8, hist={1: 8}, mind=3, irr=0),
    (5, 1): dict(total=15, hist={1: 15}, mind=4, irr=0),
    (7, 1): dict(total=133, hist={1: 35, 4: 98}, mind=3, irr=0),
    (2, 3): dict(total=384, hist={1: 48, 4: 336}, mind=4, irr=336),
    (3, 2): dict(total=2241, hist={1: 63, 3: 180, 5: 486, 6: 1512}, mind=3,
                 irr=1512),
}
FROZEN_11 = dict(total=37851, hist={1: 99, 6: 1452, 7: 7260, 8: 29040},
                 mind=3, irr=29040, bound=32315817)
FROZEN_13 = dict(total=1030367,
                 hist={1: 143, 5: 2028, 7: 6422, 9: 67938, 10: 953836},
                 mind=3, irr=965328, bound=1470579470)


def _full_min_distance(tables):
    """Independent minimum pairwise distance: no early exit, whole matrix."""
    a = np.asarray(tables, dtype=np.int16)
    n, q = a.shape
    best = q + 1
    for i in range(n - 1):
        d = (a[i + 1:] != a[i]).sum(axis=1).min()
        best = min(best, int(d))
    return best


@pytest.mark.parametrize("p,r", sorted(FROZEN))
def test_census_frozen_values(field, p, r):
    rep = census(field(p, r))
    want = FROZEN[(p, r)]
    assert rep.total == want["total"]
    assert rep.degree_histogram == want["hist"]
    assert rep.min_pairwise_distance == want["mind"]
    assert rep.irregular_count == want["irr"]
    assert rep.q == p ** r


@pytest.mark.slow
def test_census_gf11(field):
    rep = census(field(11, 1))
    assert rep.total == FROZEN_11["total"]
    assert rep.degree_histogram == FROZEN_11["hist"]
    assert rep.min_pairwise_distance == FROZEN_11["mind"]
    assert rep.irregular_count == FROZEN_11["irr"]
    assert rep.non_irregular_bound == FROZEN_11["bound"]
    assert irregular_fraction(field(11, 1), report=rep) == Fraction(880, 1147)


@pytest.mark.slow
def test_census_gf13(field):
    rep = census(field(13, 1))
    assert rep.total == FROZEN_13["total"]
    assert rep.degree_histogram == FROZEN_13["hist"]
    assert rep.min_pairwise_distance == FROZEN_13["mind"]
    assert rep.irregular_count == FROZEN_13["irr"]
    assert rep.non_irregular_bound == FROZEN_13["bound"]


def _shifts(fs, tables):
    """Every t + c for t a row of tables, as value tuples."""
    return [tuple(fs.add(v, c) for v in t) for t in tables.tolist()
            for c in range(fs.q)]


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3)])
def test_census_total_matches_permutation_filter(field, p, r):
    fs = field(p, r)
    of = OracleField(p, r, fs.modulus)
    oracle_set = set(all_orthomorphisms(of))
    mine = {tuple(t.values.tolist()) for t in enumerate_orthomorphisms(fs)}
    assert mine == oracle_set
    assert len(mine) == FROZEN[(p, r)]["total"]
    # the walk gives exactly the oracle's maps with t(0) = 0, in
    # lexicographic order, and times q it is the whole set, each map once
    tables = _value_tuples(fs)
    assert tables.dtype == np.int64 and tables.shape[1] == fs.q
    assert tables.tolist() == sorted(list(t) for t in oracle_set if t[0] == 0)
    shifted = _shifts(fs, tables)
    assert len(shifted) == len(set(shifted)) == len(oracle_set)
    assert set(shifted) == oracle_set


@pytest.mark.slow
def test_census_total_matches_permutation_filter_gf9(field):
    fs = field(3, 2)
    of = OracleField(3, 2, fs.modulus)
    assert len(all_orthomorphisms(of)) == 2241


def test_gf3_members_in_lex_order(field):
    tables = [tuple(t.values.tolist()) for t in enumerate_orthomorphisms(field(3, 1))]
    assert tables == [(0, 2, 1), (1, 0, 2), (2, 1, 0)]
    assert tables == sorted(tables)


def test_enumeration_is_lexicographic(field):
    # adding c reorders an extension field's codes, so each shift is sorted
    for p, r in ((7, 1), (2, 3), (3, 2)):
        fs = field(p, r)
        tables = [tuple(t.values.tolist()) for t in enumerate_orthomorphisms(fs)]
        assert tables == sorted(set(_shifts(fs, _value_tuples(fs))))


def test_enumeration_cap(field):
    with pytest.raises(PreconditionError, match="capped"):
        list(enumerate_orthomorphisms(field(2, 4)))
    with pytest.raises(PreconditionError, match="capped"):
        census(field(17, 1))


def _oracle_degree_histogram(of, tables):
    return dict(Counter(poly_degree(lagrange_interpolate(of, t))
                        for t in tables))


def test_degree_histogram_numpy_matches_scalar(field):
    fs = field(7, 1)
    tables = _value_tuples(fs)
    hist = _degree_histogram(fs, tables)
    maps = [MapTable(fs, tuple(t)) for t in tables.tolist()]
    assert hist == dict(Counter(interpolate(t).degree for t in maps))
    assert {d: fs.q * k for d, k in hist.items()} == FROZEN[(7, 1)]["hist"]


def test_irregular_count_numpy_matches_scalar(field):
    fs = field(7, 1)
    tables = _value_tuples(fs)
    maps = [MapTable(fs, tuple(t)) for t in tables.tolist()]
    assert (_irregular_count(fs, tables)
            == sum(is_irregular(t) for t in maps) == 0)


@pytest.mark.parametrize("p,r", SMALL)
def test_batched_stages_match_per_map_and_oracles(field, p, r):
    fs = field(p, r)
    of = OracleField(p, r, fs.modulus)
    tables = _value_tuples(fs)
    maps = [MapTable(fs, tuple(t)) for t in tables.tolist()]
    hist = _degree_histogram(fs, tables)
    assert hist == dict(Counter(interpolate(t).degree for t in maps))
    assert hist == _oracle_degree_histogram(of, tables.tolist())
    irregular = _irregular_count(fs, tables)
    assert irregular == sum(is_irregular(t) for t in maps)
    assert irregular == sum(is_irregular_table(of, t) for t in tables.tolist())
    if fs.q <= 8:
        # scaled by q, the stages give the counts on the whole oracle set
        full = all_orthomorphisms(of)
        assert {d: fs.q * k for d, k in hist.items()} == \
            dict(Counter(interpolate(MapTable(fs, t)).degree for t in full))
        assert fs.q * irregular == sum(is_irregular_table(of, t) for t in full)


@pytest.mark.slow
def test_batched_stages_match_per_map_and_oracles_gf11_sample(field):
    fs = field(11, 1)
    of = OracleField(11, 1, fs.modulus)
    tables = _value_tuples(fs)[::7]
    rows = tables.tolist()
    maps = [MapTable(fs, tuple(t)) for t in rows]
    hist = _degree_histogram(fs, tables)
    assert hist == dict(Counter(interpolate(t).degree for t in maps))
    assert _degree_histogram(fs, tables[::4]) == \
        _oracle_degree_histogram(of, rows[::4])
    flags = [is_irregular(t) for t in maps]
    assert 0 < sum(flags) < len(flags)
    assert _irregular_count(fs, tables) == sum(flags)
    assert flags[::4] == [is_irregular_table(of, t) for t in rows[::4]]


@pytest.mark.parametrize("p,r", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_enumerated_degree_and_distance_properties(field, p, r):
    # every orthomorphism reduces to degree <= q-3 for q > 3, and distinct
    # orthomorphisms never come closer than Hamming distance 3
    fs = field(p, r)
    q = fs.q
    tables = [tuple(t.values.tolist()) for t in _enumerate_cached(fs)]
    for t in tables:
        from orthokit import MapTable
        d = interpolate(MapTable(fs, t)).degree
        assert d <= q - 3
    full_min = _full_min_distance(tables)
    assert full_min >= 3
    assert full_min == FROZEN[(p, r)]["mind"]
    assert full_min == _min_pairwise_distance(fs, _value_tuples(fs))


def _enumerate_cached(fs, _cache={}):
    if fs.q not in _cache:
        _cache[fs.q] = list(enumerate_orthomorphisms(fs))
    return _cache[fs.q]


def test_min_distance_degenerate_cases(field):
    # no map at all; one map, whose shifts t + c differ from it everywhere;
    # two maps whose best shift beats the q of their own shifts
    assert _min_pairwise_distance(field(2, 1), np.zeros((0, 2), np.int64)) is None
    assert _min_pairwise_distance(field(3, 1), np.array([[0, 2, 1]])) == 3
    assert _min_pairwise_distance(field(5, 1), np.array([[0, 2, 4, 1, 3]])) == 5
    assert _min_pairwise_distance(
        field(5, 1), np.array([[0, 2, 4, 1, 3], [0, 3, 1, 4, 2]])) == 4


def test_irregular_fraction_ceiling_is_checked(field):
    # 4 * regular^2 <= 7^11 allows at most 22,233 non-irregular maps
    rep = CensusReport(q=7, total=22234, degree_histogram={},
                       min_pairwise_distance=3, irregular_count=0,
                       non_irregular_bound=22233)
    with pytest.raises(AssertionError, match="ceiling"):
        irregular_fraction(field(7, 1), report=rep)
    ok = CensusReport(q=7, total=22233, degree_histogram={},
                      min_pairwise_distance=3, irregular_count=0,
                      non_irregular_bound=22233)
    assert irregular_fraction(field(7, 1), report=ok) == 0


def test_irregular_fraction_refuses_a_report_for_another_order(field):
    # GF(11)'s report would give 880/1147 for GF(7), checked against 7's ceiling
    rep = census(field(11, 1))
    with pytest.raises(PreconditionError, match="q=11"):
        irregular_fraction(field(7, 1), report=rep)
    with pytest.raises(PreconditionError, match="q=11"):
        irregular_fraction(field(2, 3), report=rep)


def test_irregular_fraction_ceiling_survives_optimize(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "from orthokit import build_field, irregular_fraction\n"
            "from orthokit.census import CensusReport\n"
            "assert sys.flags.optimize and False\n"  # stripped under -O
            "rep = CensusReport(7, 22234, {}, 3, 0, 22233)\n"
            "try:\n"
            "    irregular_fraction(build_field(7, 1), report=rep)\n"
            "except AssertionError:\n"
            "    sys.exit(3)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={"PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 3, proc.stderr


def test_irregular_fraction_small(field):
    assert irregular_fraction(field(3, 1)) == Fraction(0, 1)
    assert irregular_fraction(field(2, 1)) == Fraction(0, 1)
    assert irregular_fraction(field(7, 1)) == Fraction(0, 1)
    assert irregular_fraction(field(2, 3)) == Fraction(336, 384)


def test_report_json_shape(field):
    doc = census(field(5, 1)).to_json()
    assert set(doc) == {"q", "total", "degree_histogram",
                        "min_pairwise_distance", "irregular_count",
                        "non_irregular_bound"}
    assert doc["degree_histogram"] == {"1": 15}
    assert doc["total"] == 15 and doc["min_pairwise_distance"] == 4
