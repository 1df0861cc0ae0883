"""Smoke runs of the sweep scripts under scripts/, as subprocesses."""

import json
import os
import subprocess
import sys
from pathlib import Path

from orthokit import ORDER_CAP, prime_powers
from test_census import FROZEN

ROOT = Path(__file__).resolve().parent.parent


def _script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def _run_script(name, *args):
    proc = _script(name, *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_pair_sweep_script():
    doc = _run_script("pair_sweep.py", "--max-q", "125")
    qs = [row["q"] for row in doc["rows"]]
    assert doc["max_q"] == 125 and qs[:7] == [3, 4, 7, 9, 11, 13, 16]
    assert qs == [q for _, _, q in prime_powers(125) if q not in (2, 5, 8)]
    assert doc["fields"] == len(qs) == sum(doc["by_provenance"].values())
    assert doc["by_provenance"]["F125"] == 1
    for row in doc["rows"]:
        # a distance-3 pair has a member of the maximal degree q - 3
        assert max(row["deg_f"], row["deg_g"]) == max(row["q"] - 3, 1), row


def test_pair_sweep_refuses_orders_above_the_cap():
    # refused by argparse before any field is built, not after the sweep
    # has built every field below the cap
    proc = _script("pair_sweep.py", "--max-q", str(ORDER_CAP + 1))
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"--max-q is capped at {ORDER_CAP}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_census_sweep_script():
    doc = _run_script("census_sweep.py", "--max-q", "7")
    assert doc["max_q"] == 7
    rows = {row["q"]: row for row in doc["rows"]}
    assert sorted(rows) == [2, 3, 4, 5, 7]
    for (p, r), want in FROZEN.items():
        if p**r <= 7:
            row = rows[p**r]
            assert row["total"] == want["total"]
            assert row["degree_histogram"] == {str(d): k for d, k in want["hist"].items()}
            assert row["min_pairwise_distance"] == want["mind"]
            assert row["irregular_count"] == want["irr"]


def test_stdout_digests_script():
    # two runs agree byte for byte, one digest per seeded command
    first = _script("stdout_digests.py", "--max-q", "9")
    second = _script("stdout_digests.py", "--max-q", "9")
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert list(doc) == sorted(doc)
    assert len(doc) == 8 * len(prime_powers(9)) + 3  # census 7, 8 and 9
    assert doc["census 3 2"][0] == 0 and doc["pair 2 3 --seed 0"][0] == 2
    assert doc["bitrade 7 1 --seed 7 --format csv"][0] == 0
    assert all(len(digest) == 64 for _, digest in doc.values())
