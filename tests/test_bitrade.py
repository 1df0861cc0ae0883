"""Bitrade assembly, the k-homogeneity validator and the text renderer."""

import hashlib
import json
import random
from dataclasses import replace

import numpy as np
import pytest

import orthokit.bitrade
from orthokit import (Bitrade, PreconditionError, Triple, build_bitrade,
                      distance3_pair, linear_map, prime_powers,
                      validate_homogeneous)
from orthokit.bitrade import json_pieces

from oracles import bitrade_csv, is_homogeneous_bitrade

#: Every order q <= 64 that has a distance-3 pair.
PAIR_ORDERS = [(p, r) for p, r, q in prime_powers(64) if q not in (2, 5, 8)]


def _pair_bitrade(field, p, r):
    pair = distance3_pair(field(p, r))
    return build_bitrade(pair.f, pair.g)


def _tuples(half) -> set:
    return set(map(tuple, half.tolist()))


def _agree(b) -> bool:
    """validate_homogeneous(b), after checking that the set-based oracle
    gives the same answer."""
    got = validate_homogeneous(b)
    assert got == is_homogeneous_bitrade(b.field.q, b.k, b.first, b.second)
    return got


def test_triple_field_names():
    t = Triple(1, 2, 3)
    assert (t.row, t.col, t.sym) == (1, 2, 3)


@pytest.mark.parametrize("p,r", [(3, 1), (7, 1), (2, 2), (3, 2), (2, 5)])
def test_distance3_pairs_give_3_homogeneous_bitrades(field, p, r):
    b = _pair_bitrade(field, p, r)
    q = p ** r
    assert b.k == 3
    assert len(b.first) == len(b.second) == 3 * q
    assert validate_homogeneous(b)


def test_rows_enumerate_whole_field(field):
    b = _pair_bitrade(field, 7, 1)
    assert set(b.first[:, 0].tolist()) == set(range(7))
    # each disagreement point contributes one full diagonal of cells
    assert sorted(b.first[:, 0].tolist()) == sorted(list(range(7)) * 3)


def test_triples_follow_map_translates(field):
    fs = field(7, 1)
    pair = distance3_pair(fs)
    b = build_bitrade(pair.f, pair.g)
    expected = set()
    for j in range(7):
        if pair.f[j] == pair.g[j]:
            continue
        for i in range(7):
            expected.add(Triple(i, fs.add(fs.sub(pair.f[j], j), i),
                                fs.add(pair.f[j], i)))
    assert _tuples(b.first) == expected


def test_f5_linear_pair_gives_4_homogeneous_bitrade(field):
    fs = field(5, 1)
    b = build_bitrade(linear_map(fs, 2), linear_map(fs, 3))
    assert b.k == 4
    assert len(b.first) == len(b.second) == 20
    assert validate_homogeneous(b)


def test_halves_are_disjoint_and_share_shape(field):
    b = _pair_bitrade(field, 3, 2)
    assert not _tuples(b.first) & _tuples(b.second)
    assert _tuples(b.first[:, :2]) == _tuples(b.second[:, :2])


def test_validator_rejects_perturbations(field):
    b = _pair_bitrade(field, 7, 1)
    assert _agree(b)
    first, second = b.first, b.second
    # duplicate one triple (size preserved, set collapses)
    broken = replace(b, first=np.concatenate([first[:1], first[:1], first[2:]]))
    assert not _agree(broken)
    # leak a triple across halves: breaks disjointness
    broken = replace(b, second=np.concatenate([first[:1], second[1:]]))
    assert not _agree(broken)
    # rewrite one symbol: breaks the shared-shape projections
    row, col, sym = first[0].tolist()
    swapped = np.array([[row, col, (sym + 1) % 7]])
    broken = replace(b, first=np.concatenate([swapped, first[1:]]))
    assert not _agree(broken)
    # wrong k
    broken = replace(b, k=2)
    assert not _agree(broken)
    # one half twice: every axiom but disjointness holds
    assert not _agree(replace(b, second=first))


def _latin_half(square) -> np.ndarray:
    return np.array([(i, j, s) for i, row in enumerate(square)
                     for j, s in enumerate(row)], dtype=np.int64)


def test_validator_rejects_one_shared_triple_a_repeat_and_a_split_cell(field):
    # two Latin squares of order q are a q-homogeneous bitrade when they
    # differ in every cell; these two agree in the cell (0, 0) alone, so
    # disjointness is the one axiom that fails
    fs = field(2, 2)
    a = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]
    b = [[0, 2, 3, 1], [2, 3, 1, 0], [3, 1, 0, 2], [1, 0, 2, 3]]
    first = _latin_half(a)
    shifted = _latin_half([[(s + 1) % 4 for s in row] for row in a])
    assert _agree(Bitrade(fs, 4, first, shifted))
    assert len(_tuples(first) & _tuples(_latin_half(b))) == 1
    assert not _agree(Bitrade(fs, 4, first, _latin_half(b)))
    # a repeated triple, in place of another
    repeated = first.copy()
    repeated[1] = repeated[0]
    assert not _agree(Bitrade(fs, 4, repeated, shifted))
    # the cell (0, 0) carries two symbols, (0, 1) none
    split = first.copy()
    split[1] = (0, 0, 1)
    assert len(_tuples(split)) == 16
    assert not _agree(Bitrade(fs, 4, split, shifted))


@pytest.mark.parametrize("p,r", [(7, 1), (2, 4), (3, 2)])
def test_validator_sorts_halves_given_in_any_order(field, p, r):
    # the validator skips its sort only for triples already in strictly
    # increasing order; shuffled rows must give the same answers
    b = _pair_bitrade(field, p, r)
    rng = np.random.default_rng(p * 100 + r)
    shuffled = replace(b, first=rng.permutation(b.first), second=rng.permutation(b.second))
    assert not np.array_equal(shuffled.first, b.first)
    assert _agree(shuffled)
    for i in (1, len(b.first) // 2, len(b.first) - 1):
        repeated = b.first.copy()
        repeated[i] = repeated[i - 1]
        assert not _agree(replace(b, first=repeated))
        assert not _agree(replace(shuffled, first=rng.permutation(repeated)))
        assert not _agree(replace(shuffled, second=rng.permutation(repeated)))


def test_validator_rejects_two_symbols_in_one_cell(field):
    # b together with its copy whose symbols are shifted by d: the counts
    # double to 2k, the shapes still agree and the halves stay disjoint, but
    # every cell now holds two symbols, so only injectivity fails
    b = _pair_bitrade(field, 11, 1)
    for d in range(1, 11):
        moved = [h.copy() for h in (b.first, b.second)]
        for h in moved:
            h[:, 2] = (h[:, 2] + d) % 11
        first = np.concatenate([b.first, moved[0]])
        second = np.concatenate([b.second, moved[1]])
        if not _tuples(first) & _tuples(second):
            break
    else:
        pytest.fail("no shift keeps the doubled halves disjoint")
    doubled = replace(b, k=2 * b.k, first=first, second=second)
    assert all(len(_tuples(h)) == len(h) for h in (first, second))
    assert not _agree(doubled)


def test_build_bitrade_preconditions(field):
    f7, f5 = field(7, 1), field(5, 1)
    with pytest.raises(PreconditionError, match="different fields"):
        build_bitrade(linear_map(f7, 2), linear_map(f5, 2))
    with pytest.raises(PreconditionError, match="orthomorphisms"):
        build_bitrade(linear_map(f7, 1), linear_map(f7, 2))
    with pytest.raises(PreconditionError, match="differ"):
        build_bitrade(linear_map(f7, 2), linear_map(f7, 2))


def test_serialization_wire_format(field):
    b = _pair_bitrade(field, 3, 1)
    doc = b.to_json()
    assert set(doc) == {"field", "k", "L1", "L2"}
    assert doc["k"] == 3
    assert len(doc["L1"]) == len(doc["L2"]) == 9
    assert all(len(row) == 3 for row in doc["L1"])
    assert doc["L1"] == b.first.tolist()
    csv = b.render("csv").splitlines()
    assert len(csv) == 18
    assert csv[0] == "L1,%d,%d,%d" % tuple(b.first[0].tolist())
    assert csv[9].startswith("L2,")
    assert all(line.count(",") == 3 for line in csv)


def test_halves_are_sorted_read_only_arrays(field):
    b = _pair_bitrade(field, 3, 2)
    for half in (b.first, b.second):
        assert half.dtype == np.int64 and half.shape == (27, 3)
        assert half.tolist() == sorted(half.tolist())
        with pytest.raises(ValueError):
            half[0, 0] = 1


@pytest.mark.parametrize("p,r", PAIR_ORDERS)
def test_validator_matches_oracle_on_pair_bitrades(field, p, r):
    b = _pair_bitrade(field, p, r)
    assert _agree(b)
    # the halves swap roles in a bitrade
    assert _agree(replace(b, first=b.second, second=b.first))


def test_validator_matches_oracle_on_4_homogeneous_bitrade(field):
    fs = field(5, 1)
    assert _agree(build_bitrade(linear_map(fs, 2), linear_map(fs, 3)))


@pytest.mark.parametrize("p,r", [(3, 1), (7, 1), (2, 2), (3, 2), (2, 4)])
def test_validator_matches_oracle_on_random_edits(field, p, r):
    b = _pair_bitrade(field, p, r)
    q = b.field.q
    rng = random.Random(q)
    for _ in range(40):
        halves = [b.first.copy(), b.second.copy()]
        for _ in range(rng.randrange(1, 3)):
            half = halves[rng.randrange(2)]
            i, j = rng.randrange(len(half)), rng.randrange(3)
            half[i, j] = (half[i, j] + rng.randrange(1, q)) % q
        _agree(replace(b, first=halves[0], second=halves[1]))
    # relabel the symbols of both halves by one permutation: still a bitrade
    perm = np.array(rng.sample(range(q), q))
    relabel = [h.copy() for h in (b.first, b.second)]
    for h in relabel:
        h[:, 2] = perm[h[:, 2]]
    assert _agree(replace(b, first=relabel[0], second=relabel[1]))


def test_validator_rejects_malformed_halves(field):
    b = _pair_bitrade(field, 7, 1)
    first = b.first
    out_of_range = first.copy()
    out_of_range[0, 1] = 7
    # -1 in place of 6 throughout keeps every count: only a range check,
    # not an index that wraps around, catches it
    negative = [np.where(h == 6, -1, h) for h in (b.first, b.second)]
    cases = [
        replace(b, first=out_of_range),
        replace(b, first=negative[0], second=negative[1]),
        replace(b, first=first[:, :2]),
        replace(b, first=np.hstack([first, first[:, :1]])),
        replace(b, first=first.ravel()),
        replace(b, first=first.T),
        replace(b, first=first[:-1]),
        replace(b, first=first.astype(float)),
        replace(b, first=first.tolist()[:-1] + [[0, 1]]),
        replace(b, k=0, first=first[:0], second=first[:0]),
    ]
    for case in cases:
        assert not _agree(case)
    # plain nested lists are accepted like arrays
    assert _agree(replace(b, first=first.tolist(), second=tuple(
        map(tuple, b.second.tolist()))))


def _csv_lines(b) -> str:
    return bitrade_csv(b.first.tolist(), b.second.tolist())


@pytest.mark.parametrize("p,r", PAIR_ORDERS + [(2, 10)])
def test_render_matches_json_encoder_and_csv_lines(field, p, r):
    b = _pair_bitrade(field, p, r)
    assert b.render("json", homogeneous=True) == json.dumps(
        b.to_json() | {"homogeneous": True}, indent=2, sort_keys=True)
    assert b.render() == json.dumps(b.to_json(), indent=2, sort_keys=True)
    assert b.render("csv") == _csv_lines(b)


def test_render_empty_halves(field):
    empty = np.empty((0, 3), dtype=np.int64)
    b = Bitrade(field(3, 1), 0, empty, empty)
    assert b.render() == json.dumps(b.to_json(), indent=2, sort_keys=True)
    assert b.render("csv") == ""
    with pytest.raises(ValueError, match="format"):
        b.render("xml")


def test_render_refuses_extras_it_cannot_honour(field):
    b = _pair_bitrade(field, 7, 1)
    for fmt, extra in (("json", {"L1": 5}), ("json", {"L2": [], "seed": 0}),
                       ("csv", {"homogeneous": True})):
        with pytest.raises(ValueError, match="extra keys"):
            b.pieces(fmt, **extra)
        with pytest.raises(ValueError, match="extra keys"):
            b.render(fmt, **extra)
    # the other keys of the document may still be replaced
    for extra in ({"k": 9}, {"field": "GF(7)"}, {"homogeneous": False}):
        assert b.render("json", **extra) == json.dumps(
            b.to_json() | extra, indent=2, sort_keys=True)


def test_render_keeps_strings_apart_from_the_writers_placeholder(field):
    # "\0L1" stood for the first half when each half had its own
    # placeholder, and key A sorts before L1, so A's value took its place
    b = _pair_bitrade(field, 7, 1)
    assert b.render("json", A="\0L1") == json.dumps(
        b.to_json() | {"A": "\0L1"}, indent=2, sort_keys=True)
    # a string the writer would read as its placeholder is refused on the
    # call, as a value, inside a list or as a key
    for extra in ({"A": "\0"}, {"seed": ['"\0']}, {"\0": 1}):
        with pytest.raises(ValueError, match="placeholder"):
            b.pieces("json", **extra)


def _listed(doc):
    """doc with each array replaced by its list."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: _listed(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_listed(v) for v in doc]
    return doc


@pytest.mark.parametrize("rows", [1, 7, 2**14])
@pytest.mark.parametrize("q", [2, 11, 1000])
def test_json_pieces_is_json_dumps(monkeypatch, q, rows):
    monkeypatch.setattr(orthokit.bitrade, "CHUNK", rows)
    rng = np.random.default_rng(q)
    codes = rng.integers(0, q, 50)
    codes[:3] = 0, q - 1, q // 2  # at q = 1000, codes of 1, 2 and 3 digits
    # inserted out of key order, so the arrays come out z, m, l, e, e3, a
    doc = {
        "z": codes,
        "m": {"values": codes[::-1].copy(), "n": 3},
        "l": [np.arange(q, dtype=np.int64)[:7], "text", None],
        "e": np.empty(0, dtype=np.int64),
        "e3": np.empty((0, 3), dtype=np.int64),
        "a": rng.integers(0, q, (14, 3)),
        "s": "\0L1",
    }
    assert "".join(json_pieces(doc, q)) == json.dumps(
        _listed(doc), indent=2, sort_keys=True)
    for top in (codes, doc["a"], doc["e"]):
        assert "".join(json_pieces(top, q)) == json.dumps(
            top.tolist(), indent=2, sort_keys=True)
    with pytest.raises(ValueError, match="placeholder"):
        json_pieces(doc | {"t": "\0"}, q)


@pytest.mark.parametrize("rows", [1, 2, 7])
@pytest.mark.parametrize("p,r", [(7, 1), (3, 2), (2, 4)])
def test_render_across_block_boundaries(field, monkeypatch, p, r, rows):
    # halves of 21, 27 and 48 triples: each block size ends some half
    # exactly on a block boundary (21 = 3 * 7, 48 = 24 * 2, any n = n * 1)
    b = _pair_bitrade(field, p, r)
    monkeypatch.setattr(orthokit.bitrade, "CHUNK", rows)
    assert b.render("json", homogeneous=True) == json.dumps(
        b.to_json() | {"homogeneous": True}, indent=2, sort_keys=True)
    assert b.render("csv") == _csv_lines(b)
    blocks = -(-len(b.first) // rows)
    assert len(list(b.pieces("csv"))) == 2 * blocks + 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_render_refuses_codes_outside_the_field(field, fmt):
    b = _pair_bitrade(field, 7, 1)
    too_big = b.first.copy()
    too_big[5, 1] = 7
    negative = b.second.copy()
    negative[0, 2] = -1
    for case in (replace(b, first=too_big), replace(b, second=negative)):
        # refused on the call, before a single piece is made
        with pytest.raises(ValueError, match=r"outside \[0, 7\)"):
            case.pieces(fmt)
        with pytest.raises(ValueError, match="outside"):
            case.render(fmt)


#: sha256 of the stdout of `orthokit bitrade P R --format F`, taken when the
#: triples were still written through a %d template.
STDOUT_SHA256 = {
    (2, 15, "json"): "a7060b1e32dbbcd0ab9aa51d2c1d8f954577ea38fe3095764912ddbe6aee08f2",
    (2, 15, "csv"): "41f5d372353564e1c36441825fa6d8eef724fa41369b1c3a0550df05e5069145",
    (3, 9, "json"): "ccf28c1657ac23cdfadff85440602dc8c146ba2bfb902843e2e3d42466f415ea",
    (3, 9, "csv"): "85f00dc1e6c476b446318500e3d69a660a5df97cf55bc1b363f3e9c041ec9a41",
}


@pytest.mark.parametrize("p,r", [(2, 15), (3, 9)])
def test_large_field_stdout_bytes_are_pinned(capsys, p, r):
    from orthokit.cli import main
    for fmt in ("json", "csv"):
        assert main(["bitrade", str(p), str(r), "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[
            p, r, fmt]
