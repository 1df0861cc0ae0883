#!/usr/bin/env python3
"""orthokit CLI benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's command list and input files from the seed, then
runs passes of it, each in a fresh interpreter (see passrun.py), until the
next pass would end after S seconds; at least one pass always runs.  Every
command's exit code and output are checked; a failed check, an unexpected
exit code, exit 3 or an overrun limit counts as a failed command.

With --trace 0 it reports the end-to-end metrics (medians over passes), with
--trace 1 the per-layer metrics of traced passes alternated with untraced
ones.  Command times are scaled to a reference machine speed measured
between commands (see README.md).  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  ``--workload all`` runs the four workloads
in turn and prints one table, error rate included.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import (RefField, bitrade_problems, census_problems,
                       frozen_census, load_module)
from tracing import layer_metrics
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
DIGESTS = HERE / "digests.json"
ORACLES = ROOT / "tests" / "oracles.py"
CENSUS_TESTS = ROOT / "tests" / "test_census.py"

#: Seed whose stdout bytes are pinned in digests.json.
DEFAULT_SEED = 0
#: Interpreters started per run only to time set-up; the untraced passes
#: add theirs.
SETUP_PROBES = 5
#: A run ends, killing a pass if need be, this many seconds after it starts.
HARD_LIMIT_S = 165.0

#: Speed-sample time at the reference machine speed.  Command and span times
#: are scaled by REF_SPEED_S over the speed samples taken around them, so
#: that they follow the program and not the speed the shared machine happens
#: to run at; the unscaled wall time is printed alongside.  setup_s, mostly
#: imports and file reads, is not scaled.
REF_SPEED_S = 0.02

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SUBCOMMANDS = ("pair", "bitrade", "verify", "irregular", "census")


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


class Checker:
    """Independent checks of each command's exit code and output."""

    def __init__(self):
        self.oracles = load_module(ORACLES, "perfbench_oracles")
        self.frozen = frozen_census(CENSUS_TESTS)
        self.refs: dict = {}

    def ref(self, fkey):
        if fkey not in self.refs:
            self.refs[fkey] = RefField(self.oracles, *fkey)
        return self.refs[fkey]

    def problems(self, cmd, rc, text: str) -> list[str]:
        if rc != cmd.expect_rc:
            return [f"exit code {rc}, want {cmd.expect_rc}"]
        try:
            doc = json.loads(text)
        except ValueError as e:
            return [f"stdout is not JSON: {e}"]
        if rc == 2:
            return [] if "error" in doc else ["exit 2 without an error payload"]
        kind, fkey = cmd.check[0], cmd.check[1]
        p, r, modulus, gamma = fkey
        q = p ** r
        if "field" in doc and doc["field"] != {"p": p, "r": r, "modulus": list(modulus),
                                               "gamma": gamma}:
            return [f"field {doc['field']} is not the requested one"]
        if kind == "bitrade":
            out = bitrade_problems(doc, q, cmd.check[2])
            return out + ([] if doc.get("homogeneous") is True else ["not marked homogeneous"])
        if kind == "census":
            return census_problems(doc, q, self.frozen[q])
        ref = self.ref(fkey)
        if kind == "pair":
            return self._pair(ref, doc)
        if kind == "irregular":
            return self._irregular(ref, doc)
        if kind == "verify-map":
            values = cmd.check[2]
            cs = ref.interpolate(values)
        else:
            cs = list(cmd.check[2])
            while cs and cs[-1] == 0:
                cs.pop()
            values = ref.tabulate(cs)
        want = ref.verify_report(values, len(cs) - 1 if cs else None)
        return [] if doc == want else [f"report {doc}, want {want}"]

    def _pair(self, ref, doc) -> list[str]:
        q = ref.q
        f, g = doc["f"]["values"], doc["g"]["values"]
        out = []
        if doc["distance"] != 3 or sum(a != b for a, b in zip(f, g)) != 3:
            out.append("members are not at Hamming distance 3")
        if not (ref.is_orthomorphism(f) and ref.is_orthomorphism(g)):
            out.append("a member is not an orthomorphism")
        cf, cg = ref.interpolate(f), ref.interpolate(g)
        if cf != doc["f_poly"]["coeffs"] or cg != doc["g_poly"]["coeffs"]:
            out.append("f_poly or g_poly does not interpolate its member")
        # every q with a pair except 3 has a member of the maximal degree q-3
        if q != 3 and max(len(cf), len(cg)) - 1 != q - 3:
            out.append(f"no member has degree q-3 = {q - 3}")
        return out

    def _irregular(self, ref, doc) -> list[str]:
        values = doc["values"]
        if doc.get("irregular") is not True:
            return ["not marked irregular"]
        if not ref.is_orthomorphism(values):
            return ["witness is not an orthomorphism"]
        if not ref.is_irregular(values):
            return ["witness is not irregular"]
        if doc["branch"] == "max-degree":
            degree = len(ref.interpolate(values)) - 1
            if not degree == doc["degree"] == ref.q - 3:
                return [f"degree {degree} (reported {doc['degree']}), want {ref.q - 3}"]
        return []


def spawn(mode: str, plan_path: Path, workdir: Path, timeout: float,
          outdir: Path | None = None) -> dict | None:
    """Run one pass process; None when it was killed or crashed."""
    result = workdir / f"result-{mode.replace(':', '-')}.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    argv = [sys.executable, str(HERE / "passrun.py"), mode, str(plan_path),
            str(result)]
    with open(workdir / "stderr.log", "ab") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv + [repr(t_spawn)] + ([str(outdir)] if outdir else []),
                                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            print(f"pass {mode} killed after {timeout:.0f} s", file=sys.stderr)
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not result.exists():
        tail = (workdir / "stderr.log").read_text(errors="replace")[-2000:]
        print(f"pass {mode} exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return None
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def speed_points(speed) -> list[tuple[int, float]]:
    """(command index, median sample) for each group of speed samples."""
    groups: dict[int, list[float]] = {}
    for i, secs in speed:
        groups.setdefault(i, []).append(secs)
    return sorted((i, statistics.median(v)) for i, v in groups.items())


def command_scales(speed, n: int) -> list[float]:
    """Scale for each of n commands: REF_SPEED_S over the mean of the speed
    samples taken just before and just after it."""
    points = speed_points(speed)
    out, k = [], 0
    for i in range(n):
        while points[k + 1][0] <= i:
            k += 1
        out.append(2 * REF_SPEED_S / (points[k][1] + points[k + 1][1]))
    return out


def scaled_seconds(res: dict) -> list[float]:
    """Per-command seconds of a pass at the reference speed."""
    cmds = res["commands"]
    return [c["seconds"] * f for c, f in zip(cmds, command_scales(res["speed"], len(cmds)))]


def span_scales(spans, cmd_scales: list[float]) -> list[float]:
    """Each span takes the scale of the command whose cli.main span it
    descends from."""
    cmd_of, k = [], -1
    for name, start, end, parent, _, _ in spans:
        if parent < 0:
            k += 1
            cmd_of.append(k)
        else:
            cmd_of.append(cmd_of[parent])
    return [cmd_scales[c] for c in cmd_of]


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 pin: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.first_digest: list[str | None] = []
        self.verdict: list[list[str] | None] = []
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.pinned = recorded.get(workload) if pin and seed == DEFAULT_SEED else None

    def fail(self, i: int, why: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(f"command {i} ({' '.join(self.plan.commands[i].argv)}): {why}")

    def account(self, res: dict | None, outdir: Path | None) -> None:
        cmds = self.plan.commands
        if res is None:
            self.attempted += len(cmds)
            self.failed += len(cmds)
            self.notes.append("a pass was killed or crashed; all its commands count as failed")
            return
        for i, (cmd, rec) in enumerate(zip(cmds, res["commands"])):
            self.attempted += 1
            if rec["error"]:
                self.fail(i, rec["error"])
                continue
            if self.verdict[i] is None and outdir is not None:
                text = (outdir / f"{i:03d}.out").read_text(encoding="utf-8")
                try:
                    self.verdict[i] = self.checker.problems(cmd, rec["rc"], text)
                except (KeyError, IndexError, TypeError, ValueError) as e:
                    self.verdict[i] = [f"malformed output: {e!r}"]
                self.first_digest[i] = rec["digest"]
            if self.verdict[i] is None:
                self.fail(i, "output was never checked")
            elif rec["digest"] != self.first_digest[i]:
                self.fail(i, "stdout differs from an earlier pass with the same argv")
            elif rec["rc"] != cmd.expect_rc:
                self.fail(i, f"exit code {rec['rc']}, want {cmd.expect_rc}")
            elif self.verdict[i]:
                self.fail(i, "; ".join(self.verdict[i]))
            elif self.pinned is not None and rec["digest"] != self.pinned[i]:
                self.fail(i, "stdout differs from the recorded default-seed digest")

    def execute(self) -> dict:
        run_start = time.monotonic()
        workdir = WORK / f"{self.workload}-s{self.seed}-p{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        outdir = workdir / "out"
        outdir.mkdir(parents=True)
        try:
            self.checker = Checker()
            self.plan = generate(self.workload, self.seed, workdir, self.checker.ref)
            n = len(self.plan.commands)
            if self.pinned is not None and len(self.pinned) != n:
                raise RuntimeError(f"{DIGESTS} does not match the {self.workload} "
                                   "command list; record it again")
            self.first_digest = [None] * n
            self.verdict = [None] * n
            plan_path = workdir / "plan.json"
            plan_path.write_text(json.dumps(self.plan.child_doc()), encoding="utf-8")
            return self._measure(plan_path, workdir, outdir, run_start)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _measure(self, plan_path, workdir, outdir, run_start) -> dict:
        def left() -> float:
            return HARD_LIMIT_S - (time.monotonic() - run_start)

        setups = []
        for _ in range(SETUP_PROBES):
            res = spawn("setup", plan_path, workdir, left())
            if res is not None:
                setups.append(res["setup_s"])
        cycle = ["run", "trace"] if self.trace else ["run"]
        plain, traced = [], []
        took: dict[str, float] = {}
        t0 = time.monotonic()
        k = 0
        while left() > 0:
            mode = cycle[k % len(cycle)]
            elapsed = time.monotonic() - t0
            if k >= len(cycle) and elapsed + took[mode] > self.seconds:
                break
            unchecked = any(v is None for v in self.verdict)
            tag = f"trace:{len(traced)}" if mode == "trace" else "run"
            start = time.monotonic()
            res = spawn(tag, plan_path, workdir, left(), outdir if unchecked else None)
            took[mode] = max(took.get(mode, 0.0), time.monotonic() - start)
            self.account(res, outdir if unchecked else None)
            k += 1
            if res is None:
                break
            (traced if mode == "trace" else plain).append(res)
            if mode == "run":
                setups.append(res["setup_s"])
        self.plain, self.traced, self.setups = plain, traced, setups
        return self.metrics()

    def metrics(self) -> dict:
        self.raw_walls = [sum(c["seconds"] for c in r["commands"]) for r in self.plain]
        walls = [sum(scaled_seconds(r)) for r in self.plain]
        series: dict[str, list[float]] = {}
        if not self.trace:
            series["wall_s"] = walls
            series["setup_s"] = self.setups
            series["peak_rss_mb"] = [r["peak_rss_mb"] for r in self.plain]
        else:
            for r in self.plain:
                per_sub = dict.fromkeys(SUBCOMMANDS, 0.0)
                for cmd, secs in zip(self.plan.commands, scaled_seconds(r)):
                    per_sub[cmd.sub] += secs
                for sub, v in per_sub.items():
                    series.setdefault(f"{sub}_s", []).append(v)
            traced_walls = []
            for r in self.traced:
                traced_walls.append(sum(scaled_seconds(r)))
                scales = command_scales(r["speed"], len(r["commands"]))
                layer = layer_metrics(r["spans"], span_scales(r["spans"], scales),
                                      r["missing"])
                end_scale = REF_SPEED_S / speed_points(r["speed"])[-1][1]
                layer.update({k: v * end_scale for k, v in r["gf_ns"].items()})
                for key, v in layer.items():
                    series.setdefault(key, []).append(v)
            if walls and traced_walls:
                series["trace.overhead_s"] = [statistics.median(traced_walls)
                                              - statistics.median(walls)]
            self._write_trace()
        return {k: summary(v) for k, v in series.items() if v}

    def _write_trace(self) -> None:
        path = WORK / f"trace-{self.workload}-s{self.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.workload, "seed": self.seed,
                       "fields": ["name", "start", "end", "parent", "pass", "ok"],
                       "spans": [s for r in self.traced for s in r["spans"]]}, fh)


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            pin: bool) -> tuple[Run, dict]:
    run = Run(workload, seed, seconds, trace, pin)
    stats = run.execute()
    for note in run.notes:
        print(f"[{workload}] FAILED {note}", file=sys.stderr)
    return run, stats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help=f"with --seed {DEFAULT_SEED}: pin this run's stdout digests")
    args = ap.parse_args(argv)
    # exit through the finally blocks, which stop the running pass process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for need in (ROOT / "src" / "orthokit" / "__init__.py", ORACLES, CENSUS_TESTS):
        if not need.is_file():
            print(f"perfbench: {need} is missing; run from an orthokit checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed = True, 0, 0
    metrics = {}
    for name in names:
        run, stats = run_one(name, args.seed, args.seconds, bool(args.trace),
                             pin=not args.record_digests)
        attempted += run.attempted
        failed += run.failed
        correct = correct and run.failed == 0 and run.attempted > 0
        prefix = f"{name}." if len(names) > 1 else ""
        print(f"workload {name}: attempted {run.attempted}, failed {run.failed}, "
              f"error_rate {run.failed / max(run.attempted, 1):.4f}, unscaled wall "
              f"seconds per pass {' '.join(f'{w:.3f}' for w in run.raw_walls)}")
        for key, s in stats.items():
            print(f"  {key:48s} {s['median']:14.6f} {unit_of(key):6s} "
                  f"q1 {s['q1']:.6f}  q3 {s['q3']:.6f}  n {s['n']}")
            metrics[prefix + key] = {"value": s["median"], "unit": unit_of(key)}
        if args.record_digests and args.seed == DEFAULT_SEED and run.failed == 0:
            recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
            recorded[name] = run.first_digest
            DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
