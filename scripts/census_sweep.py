#!/usr/bin/env python3
"""Exhaustive orthomorphism censuses for every prime power up to a bound
(capped at 13), with the heuristic count prediction e^(-1/2) * q!^2 * q^(1-q)
printed alongside the exact totals for comparison.  The prediction is
commentary only: nothing here passes or fails on it."""

import argparse
import json
import math
import time

from orthokit import (ENUM_CAP, build_field, census, irregular_fraction,
                      prime_powers)


def main():
    ap = argparse.ArgumentParser(
        description="orthomorphism census sweep over small prime powers")
    ap.add_argument("--max-q", type=int, default=11,
                    help=f"largest field order (default 11, cap {ENUM_CAP})")
    args = ap.parse_args()
    if args.max_q > ENUM_CAP:
        ap.error(f"--max-q is capped at {ENUM_CAP}")

    rows = []
    for p, r, q in prime_powers(args.max_q):
        fs = build_field(p, r)
        t0 = time.perf_counter()
        rep = census(fs)
        dt = time.perf_counter() - t0
        predicted = math.exp(-0.5) * math.factorial(q) ** 2 / q ** (q - 1)
        rows.append({
            "q": q,
            "total": rep.total,
            "predicted": round(predicted, 1),
            "ratio_actual_to_predicted":
                round(rep.total / predicted, 4) if predicted else None,
            "degree_histogram":
                {str(k): v for k, v in sorted(rep.degree_histogram.items())},
            "min_pairwise_distance": rep.min_pairwise_distance,
            "irregular_count": rep.irregular_count,
            "irregular_fraction": str(irregular_fraction(fs, report=rep))
                if rep.total else "0",
            "non_irregular_bound": rep.non_irregular_bound,
            "seconds": round(dt, 3),
        })
    print(json.dumps({"max_q": args.max_q, "rows": rows},
                     indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
