#!/usr/bin/env python3
"""Sweep the distance-3 pair builder across every prime power up to a bound
and report which construction fired, the member degrees, and per-field wall
time.  Orders 2, 5 and 8 are skipped: no pair exists there."""

import argparse
import json
import time

from orthokit import (ORDER_CAP, build_field, distance3_pair, prime_powers,
                      reduced_degree)


def main():
    ap = argparse.ArgumentParser(
        description="distance-3 orthomorphism pair sweep over prime powers")
    ap.add_argument("--max-q", type=int, default=343,
                    help=f"largest field order to include (default 343, cap {ORDER_CAP})")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed forwarded to the searching builders")
    args = ap.parse_args()
    if args.max_q > ORDER_CAP:
        ap.error(f"--max-q is capped at {ORDER_CAP}")

    rows = []
    t_all = time.perf_counter()
    for p, r, q in prime_powers(args.max_q):
        if q in (2, 5, 8):
            continue
        fs = build_field(p, r)
        t0 = time.perf_counter()
        pair = distance3_pair(fs, seed=args.seed)
        dt = time.perf_counter() - t0
        rows.append({
            "q": q, "p": p, "r": r,
            "provenance": pair.provenance,
            "deg_f": reduced_degree(pair.f),
            "deg_g": reduced_degree(pair.g),
            "seconds": round(dt, 4),
        })
    total = time.perf_counter() - t_all

    by_prov = {}
    for row in rows:
        by_prov[row["provenance"]] = by_prov.get(row["provenance"], 0) + 1
    print(json.dumps({
        "max_q": args.max_q,
        "fields": len(rows),
        "total_seconds": round(total, 3),
        "by_provenance": by_prov,
        "rows": rows,
    }, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
