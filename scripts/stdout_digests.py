#!/usr/bin/env python3
"""Digest the stdout of the CLI's seeded commands, to check that a change
leaves every byte as it was.  Runs orthokit.cli.main in process for pair,
irregular and bitrade (JSON and CSV) at seeds 0 and 7 on the default field
of every prime power q up to the bound, and census at q = 7, 8, 9, 11 and 13
up to it, and prints one sorted JSON object of argv -> [exit code, SHA-256 of
stdout].  Two checkouts agree when their outputs are equal:

    PYTHONPATH=src python scripts/stdout_digests.py > digests.json
"""

import argparse
import contextlib
import hashlib
import io
import json

from orthokit import ORDER_CAP, prime_powers
from orthokit.cli import main as cli_main

SEEDS = (0, 7)
CENSUS_ORDERS = (7, 8, 9, 11, 13)


def commands(max_q):
    """The argv lists digested at the bound max_q."""
    out = []
    for p, r, q in prime_powers(max_q):
        field = [str(p), str(r)]
        for seed in map(str, SEEDS):
            out += [["pair", *field, "--seed", seed],
                    ["irregular", *field, "--seed", seed],
                    ["bitrade", *field, "--seed", seed, "--format", "json"],
                    ["bitrade", *field, "--seed", seed, "--format", "csv"]]
        if q in CENSUS_ORDERS:
            out.append(["census", *field])
    return out


def digest(argv):
    """[exit code, SHA-256 of stdout] of one in-process CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return [code, hashlib.sha256(buf.getvalue().encode()).hexdigest()]


def main():
    ap = argparse.ArgumentParser(description="SHA-256 digests of the CLI's stdout")
    ap.add_argument("--max-q", type=int, default=343,
                    help=f"largest field order to include (default 343, cap {ORDER_CAP})")
    args = ap.parse_args()
    if args.max_q > ORDER_CAP:
        ap.error(f"--max-q is capped at {ORDER_CAP}")
    digests = {" ".join(argv): digest(argv) for argv in commands(args.max_q)}
    print(json.dumps(digests, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
