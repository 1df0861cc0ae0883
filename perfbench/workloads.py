"""Command lists for the four workloads, generated from a seed.

Every workload is a closed loop with one client: the commands of a pass run
one after another in a single fresh interpreter.  The seed picks each
field's ``--gamma`` among its primitive elements, is forwarded as ``--seed``
to the searching builders, and draws the maps that ``verify-medium`` checks.
All inputs, including the verify documents, are written before any timing
starts; the program receives only the generated argv and files.

Why these workloads:

* ``sweep``: pair, irregular, bitrade, and verify of the pair's ``f`` as a
  map and as its ``f_poly``, for every prime power 2 <= q <= 343 (86
  fields, with the expected exit-2 requests at q = 2, 5 and 8).  It covers
  every builder branch except SWAP_LARGE and all three field shapes (prime,
  odd-characteristic extension, 2^r), at sizes where per-command overhead,
  the completion search for primes 2 mod 3 and O(q^2) interpolation share
  the time.
* ``bitrade-large``: bitrade at q = 2^16 (ONE_MOD3), 2^15 (ODD_TWO), 3^9
  (NON25) and 2003 (SMALL_SEARCH).  Field building, whole-table permutation
  checks, the near-linear scan, completion search at scale, bitrade
  assembly and JSON output do the work, and interpolation never runs, so a
  polyops change must show nothing here.
* ``verify-medium``: verify on seeded maps over GF(729), GF(625), GF(1024)
  and GF(1019): a random value table, a random permutation, an affine
  orthomorphism a*x + b and a translated pair member as maps, and a random
  full-degree polynomial.  Arbitrary external maps with no construction, so
  interpolation and is_irregular do most of the work; a shortcut that only
  helps maps close to a closed form must show nothing here.
* ``census``: census with ``--jobs 1`` for q = 7, 8, 9 and 11, the only
  workload that exercises the census layer and its stages.

Requests left out because their run time is unbounded or far beyond a
pass: ``bitrade 5 5`` (q = 3125, SWAP_LARGE) ran more than 9 minutes
without finishing; SMALL_SEARCH ``pair`` grows steeply with p (7.9 s at
p = 4001, 44 s at 8009, 269 s at 16007); census q = 13 takes about 63 s and
492 MB per pass; ``--jobs`` above 1 on two cores would measure the
scheduler.  Each command still has a wall-clock limit (``limit_s``), so a
regression that hangs counts as a failed command instead of stalling.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "bitrade-large", "verify-medium", "census")

SWEEP_MAX_Q = 343
BITRADE_LARGE_FIELDS = ((2, 16), (2, 15), (3, 9), (2003, 1))
VERIFY_MEDIUM_FIELDS = ((3, 6), (5, 4), (2, 10), (1019, 1))
CENSUS_FIELDS = ((7, 1), (2, 3), (3, 2), (11, 1))

# Per-command wall-clock limits in seconds, about ten times the slowest
# command of each workload on a 2-core sandbox.
LIMIT_S = {"sweep": 10.0, "bitrade-large": 80.0, "verify-medium": 20.0,
           "census": 20.0}

NO_PAIR = (2, 5, 8)


@dataclass
class Command:
    argv: list[str]
    sub: str
    expect_rc: int
    limit_s: float
    check: tuple = ()


@dataclass
class Plan:
    workload: str
    commands: list[Command] = field(default_factory=list)

    def child_doc(self) -> dict:
        """What a pass process loads: the argv and limit of each command."""
        return {"commands": [{"argv": c.argv, "limit_s": c.limit_s}
                             for c in self.commands]}


def prime_powers(limit: int) -> list[tuple[int, int]]:
    out = []
    for p in range(2, limit + 1):
        if all(p % d for d in range(2, int(p ** 0.5) + 1)):
            q, r = p, 1
            while q <= limit:
                out.append((p, r))
                q, r = q * p, r + 1
    return sorted(out, key=lambda pr: pr[0] ** pr[1])


def irregular_expected_rc(p: int, q: int) -> int:
    """The README's contract: a construction exists for even q > 4 and for
    q > 7 with q not 1 mod 3; anything else is refused with exit 2."""
    return 0 if (p == 2 and q > 4) or (q > 7 and q % 3 != 1) else 2


def longest_scans(ref, members) -> list[tuple[list[int], int]]:
    """The (member t, shift g) choices for which the translated map
    x -> t(x + g) - t(g) makes an irregularity test that scans translations
    in code order go furthest.

    The translations of that map are those of t, met in another order, and
    the scan stops at the first cyclotomic one.  Choosing among the longest
    scans keeps the work the same for every seed, at its maximum; a linear
    member, whose every translation is cyclotomic, is never chosen.
    """
    q = ref.q
    best, out = -1, []
    for t in members:
        hits = ref.cyclotomic_translations(t)[ref.add_table]  # [g, h]: t at g + h
        first = np.where(hits.any(axis=1), hits.argmax(axis=1), q)
        top = int(first.max())
        if top > best:
            best, out = top, []
        if top == best:
            out += [(list(t), int(g)) for g in np.nonzero(first == top)[0]]
    return out


class Generator:
    def __init__(self, workload: str, seed: int, workdir: Path):
        import orthokit
        from orthokit import cli
        self.ok = orthokit
        self.cli = cli
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.plan = Plan(workload)

    def field(self, p: int, r: int):
        """The program's default field of order p^r, re-rooted at a
        seed-chosen primitive element."""
        base = self.ok.build_field(p, r)
        q = p ** r
        while True:
            e = self.rng.randrange(1, q - 1) if q > 2 else 0
            if gcd(e, q - 1) == 1:
                break
        gamma = base.exp_table[e]
        # a prime field's modulus is y - gamma by the program's convention
        return (base.modulus if r > 1 else (-gamma % p, 1)), gamma

    def field_args(self, sub: str, p: int, r: int, gamma: int) -> list[str]:
        return [sub, str(p), str(r), "--gamma", str(gamma)]

    def write_doc(self, name: str, doc: dict) -> str:
        path = self.workdir / f"{len(self.plan.commands):03d}-{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def add(self, argv, sub, expect_rc, check=()):
        self.plan.commands.append(Command(
            argv=argv, sub=sub, expect_rc=expect_rc,
            limit_s=LIMIT_S[self.plan.workload], check=check))

    def run_cli(self, argv: list[str]) -> dict:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"input generation failed: {argv} exited {rc}")
        return json.loads(buf.getvalue())

    # -- workloads -------------------------------------------------------

    def sweep(self):
        s = str(self.seed)
        for p, r in prime_powers(SWEEP_MAX_Q):
            q = p ** r
            modulus, gamma = self.field(p, r)
            fkey = (p, r, modulus, gamma)
            pair_rc = 2 if q in NO_PAIR else 0
            pair_argv = self.field_args("pair", p, r, gamma) + ["--seed", s]
            self.add(pair_argv, "pair", pair_rc, ("pair", fkey))
            self.add(self.field_args("irregular", p, r, gamma) + ["--seed", s],
                     "irregular", irregular_expected_rc(p, q), ("irregular", fkey))
            self.add(self.field_args("bitrade", p, r, gamma) + ["--seed", s],
                     "bitrade", pair_rc, ("bitrade", fkey, 3))
            if pair_rc:
                continue
            pair = self.run_cli(pair_argv)
            fdoc = pair["field"]
            path = self.write_doc(f"map-q{q}", {"field": fdoc,
                                                "values": pair["f"]["values"]})
            self.add(["verify", "--map", path], "verify", 0,
                     ("verify-map", fkey, pair["f"]["values"]))
            coeffs = pair["f_poly"]["coeffs"]
            path = self.write_doc(f"poly-q{q}", {"field": fdoc, "coeffs": coeffs})
            self.add(["verify", "--poly", path], "verify", 0,
                     ("verify-poly", fkey, coeffs))

    def bitrade_large(self):
        for p, r in BITRADE_LARGE_FIELDS:
            modulus, gamma = self.field(p, r)
            self.add(self.field_args("bitrade", p, r, gamma) + ["--seed", str(self.seed)],
                     "bitrade", 0, ("bitrade", (p, r, modulus, gamma), 3))

    def verify_medium(self, ref_field):
        rng = self.rng
        for p, r in VERIFY_MEDIUM_FIELDS:
            q = p ** r
            modulus, gamma = self.field(p, r)
            fkey = (p, r, modulus, gamma)
            ref = ref_field(fkey)
            fdoc = {"p": p, "r": r, "modulus": list(modulus), "gamma": gamma}
            maps = {}
            maps["random"] = [rng.randrange(q) for _ in range(q)]
            perm = list(range(q))
            rng.shuffle(perm)
            maps["permutation"] = perm
            a, b = rng.randrange(2, q), rng.randrange(q)
            maps["affine"] = [int(ref.add_table[ref.mul(a, x), b]) for x in range(q)]
            spec = self.ok.build_field(p, r, modulus, gamma)
            pair = self.ok.distance3_pair(spec, seed=self.seed)
            t, g = rng.choice(longest_scans(ref, (pair.f.values, pair.g.values)))
            maps["translated"] = [int(ref.sub_table[t[ref.add_table[x, g]], t[g]])
                                  for x in range(q)]
            for kind, values in maps.items():
                path = self.write_doc(f"{kind}-q{q}", {"field": fdoc, "values": values})
                self.add(["verify", "--map", path], "verify", 0,
                         ("verify-map", fkey, values))
            coeffs = [rng.randrange(q) for _ in range(q - 1)] + [rng.randrange(1, q)]
            path = self.write_doc(f"poly-q{q}", {"field": fdoc, "coeffs": coeffs})
            self.add(["verify", "--poly", path], "verify", 0,
                     ("verify-poly", fkey, coeffs))

    def census(self):
        for p, r in CENSUS_FIELDS:
            modulus, gamma = self.field(p, r)
            self.add(self.field_args("census", p, r, gamma) + ["--jobs", "1"],
                     "census", 0, ("census", (p, r, modulus, gamma)))


def generate(workload: str, seed: int, workdir: Path, ref_field) -> Plan:
    """Build the workload's plan and write its verify documents to workdir;
    ref_field maps a field key (p, r, modulus, gamma) to a RefField."""
    gen = Generator(workload, seed, workdir)
    if workload == "sweep":
        gen.sweep()
    elif workload == "bitrade-large":
        gen.bitrade_large()
    elif workload == "verify-medium":
        gen.verify_medium(ref_field)
    elif workload == "census":
        gen.census()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return gen.plan
