"""Command-line front end.

Every subcommand prints a JSON payload on stdout (bitrade optionally CSV)
and exits 0 on success, 2 on a violated precondition or a provably
nonexistent request, and 3 on an internal assertion failure.  Output is
deterministic for fixed arguments, including --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Iterator

import numpy as np

from .bitrade import build_bitrade, json_pieces, validate_homogeneous
from .census import census
from .construct import distance3_pair, irregular_orthomorphism
from .errors import PreconditionError, SearchExhaustedError
from .gf import FieldSpec, build_field, field_from_json, json_int
from .ortho import (_is_irregular, cyclotomic_profile, difference_map,
                    is_permutation, map_table)
from .polyops import (interpolate, interpolate_delta, reduced_degree,
                      reduced_poly, tabulate)


#: Largest field order verify accepts.  Reduced degrees and tabulation
#: cost O(q) per top coefficient and one field dft, O(q * sum(l_i)) over
#: the prime factors l_i of q - 1, for a full read: on a 2-core machine
#: verify --map of an affine map, a random permutation or a degree-2 map
#: and verify --poly of a full-degree polynomial each took 0.4-0.7 s end
#: to end at 2^16.  The bound stays because the irregularity check, O(q)
#: for most maps, scans the translations in O(q^2) for the maps whose
#: degree certificate is inconclusive (see ortho), and a q - 1 with a
#: large prime factor on an extension field leaves the dft at O(q * l).
VERIFY_CAP = 2**16


def _integer(text: str) -> int:
    """argparse type for every integer argument: ASCII digits with an
    optional minus sign, where int() would also take whitespace, "_"
    separators and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    return int(text)


def _parse_modulus(text: str) -> tuple[int, ...]:
    try:
        return tuple(_integer(c) for c in text.split(","))
    except argparse.ArgumentTypeError:
        raise PreconditionError(
            "--modulus wants comma-separated integers, constant term first")


def _build_from_args(args) -> FieldSpec:
    modulus = None if args.modulus is None else _parse_modulus(args.modulus)
    return build_field(args.p, args.r, modulus, args.gamma)


def _add_field_args(sub) -> None:
    sub.add_argument("p", type=_integer, help="field characteristic, a prime")
    sub.add_argument("r", type=_integer, help="extension degree")
    sub.add_argument("--modulus", metavar="C0,C1,...,CR",
                     help="monic irreducible modulus, constant term first")
    sub.add_argument("--gamma", type=_integer, default=None,
                     help="primitive element code (default: smallest)")


def cmd_field(args) -> dict:
    fs = _build_from_args(args)
    return {"field": fs.to_json(), "q": fs.q}


def cmd_pair(args) -> Iterator[str]:
    fs = _build_from_args(args)
    pair = distance3_pair(fs, seed=args.seed)
    f_poly = interpolate(pair.f)
    g_poly = interpolate_delta(f_poly, pair.f, pair.g)
    return json_pieces({
        "field": fs.to_json(),
        "f": {"field": fs.to_json(), "values": pair.f.values},
        "g": {"field": fs.to_json(), "values": pair.g.values},
        "distance": pair.distance,
        "provenance": pair.provenance,
        "f_poly": {"coeffs": np.array(f_poly.coeffs, dtype=np.int64)},
        "g_poly": {"coeffs": np.array(g_poly.coeffs, dtype=np.int64)},
    }, fs.q)


def _load_json(path: str) -> dict:
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        raise PreconditionError(f"cannot read JSON input: {e}")
    if not isinstance(doc, dict):
        raise PreconditionError("input JSON must be an object")
    return doc


def cmd_verify(args) -> dict:
    doc = _load_json(args.map if args.map else args.poly)
    try:
        spec = doc["field"]
        p, r = json_int(spec["p"], "p"), json_int(spec["r"], "r")
        # r is bounded first, so a huge r costs no huge power; build_field refuses r < 1
        if p >= 2 and r >= 1 and (r >= VERIFY_CAP.bit_length() or p**r > VERIFY_CAP):
            raise PreconditionError(
                f"verify is capped at q = {VERIFY_CAP}, got q = {p}^{r}: "
                "the irregularity scan takes O(q^2) time on the maps its "
                "degree certificate leaves")
        fs = field_from_json(spec)
        if args.map:
            t = map_table(fs, doc["values"])
            degree = reduced_degree(t)
        else:
            poly = reduced_poly(fs, doc["coeffs"])
            t = tabulate(poly)
            degree = poly.degree
    except PreconditionError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise PreconditionError(f"malformed input document: {e!r}")
    perm = is_permutation(t)
    ortho = perm and is_permutation(difference_map(t))
    return {
        "permutation": perm,
        "orthomorphism": ortho,
        "reduced_degree": degree,
        "cyclotomic_min_index": cyclotomic_profile(t).min_index,
        "irregular": _is_irregular(t) if ortho else None,
    }


def cmd_bitrade(args) -> Iterator[str]:
    fs = _build_from_args(args)
    pair = distance3_pair(fs, seed=args.seed)
    b = build_bitrade(pair.f, pair.g)
    if not validate_homogeneous(b):
        raise AssertionError("constructed bitrade failed validation")
    if args.format == "csv":
        return b.pieces("csv")
    return b.pieces("json", homogeneous=True)


def cmd_census(args) -> dict:
    if args.jobs < 1:
        raise PreconditionError("jobs must be a positive integer")
    fs = _build_from_args(args)
    report = census(fs)
    out = {"field": fs.to_json()}
    out.update(report.to_json())
    return out


def cmd_irregular(args) -> Iterator[str]:
    t, how = irregular_orthomorphism(_build_from_args(args), seed=args.seed)
    doc = {"field": t.field.to_json(), "values": t.values}  # t.to_json(), as an array
    return json_pieces(doc | how | {"irregular": True}, t.field.q)


# built once per process: add_argument's gettext lookups and terminal-size
# queries cost about 1 ms per build
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthokit",
        description="Orthomorphism constructions, verification, bitrades and "
                    "censuses over finite fields.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("field", help="build a field and print its description")
    _add_field_args(s)
    s.set_defaults(func=cmd_field)

    s = subs.add_parser("pair", help="orthomorphism pair at Hamming distance 3")
    _add_field_args(s)
    s.add_argument("--seed", type=_integer, default=0)
    s.set_defaults(func=cmd_pair)

    s = subs.add_parser("verify", help="check a map or polynomial from JSON")
    grp = s.add_mutually_exclusive_group(required=True)
    grp.add_argument("--map", metavar="FILE",
                     help="JSON {field, values}; '-' reads stdin")
    grp.add_argument("--poly", metavar="FILE",
                     help="JSON {field, coeffs}; '-' reads stdin")
    s.set_defaults(func=cmd_verify)

    s = subs.add_parser("bitrade", help="3-homogeneous bitrade from a distance-3 pair")
    _add_field_args(s)
    s.add_argument("--seed", type=_integer, default=0)
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.set_defaults(func=cmd_bitrade)

    s = subs.add_parser("census", help="exhaustive orthomorphism census (q <= 13)")
    _add_field_args(s)
    s.add_argument("--jobs", type=_integer, default=1,
                   help="accepted for compatibility and ignored: the census "
                        "runs in-process (must be a positive integer)")
    s.set_defaults(func=cmd_census)

    s = subs.add_parser("irregular", help="construct and verify an irregular orthomorphism")
    _add_field_args(s)
    s.add_argument("--seed", type=_integer, default=0)
    s.set_defaults(func=cmd_irregular)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out = args.func(args)
    except (PreconditionError, SearchExhaustedError, ZeroDivisionError) as e:
        print(json.dumps({"error": type(e).__name__, "reason": str(e)},
                         indent=2, sort_keys=True))
        return 2
    except AssertionError as e:
        print(f"internal assertion failed: {e}", file=sys.stderr)
        return 3
    if isinstance(out, dict):
        out = [json.dumps(out, indent=2, sort_keys=True)]
    # piece by piece, as json_pieces and the csv writer make them, so no
    # large document is held whole; the bytes are those of print("".join(out))
    for piece in out:
        sys.stdout.write(piece)
    sys.stdout.write("\n")
    return 0
