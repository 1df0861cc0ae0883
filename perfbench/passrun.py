"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/passrun.py MODE PLAN RESULT T_SPAWN [OUTDIR]

MODE is ``setup`` (import and load only), ``run`` (untraced) or
``trace:<pass id>``.  T_SPAWN is the parent's ``time.monotonic()`` just
before it started this interpreter.  Each command runs in-process through
``orthokit.cli.main(argv)`` with stdout captured; the pass records its exit
code, wall time and output digest, and, when OUTDIR is given, writes each
output there for the parent to check.  Everything goes to the RESULT file.
"""

import hashlib
import json
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Iterations of the speed-sample loop, about 20 ms on a 2-core sandbox.
SPEED_LOOP = 120_000
#: Speed samples are taken after at least this much command time.
SAMPLE_EVERY_S = 0.5
#: Speed samples taken together at the start and end of a pass.
EDGE_SAMPLES = 3
sys.path.insert(0, str(ROOT / "src"))

import orthokit.cli  # noqa: E402


class CommandTimeout(BaseException):
    """Raised by SIGALRM when a command overruns its limit; a BaseException
    so that no handler in the program can swallow it."""


class Capture:
    """Stands in for sys.stdout and keeps the written strings without
    copying them."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, s: str) -> int:
        self.parts.append(s)
        return len(s)

    def flush(self) -> None:
        pass


def speed_sample() -> float:
    """Seconds taken by a fixed pure-Python loop of integer arithmetic,
    tuple indexing, dict stores and list appends.  Taken between commands,
    it tracks how fast the machine runs this kind of code at that moment."""
    tab = tuple(range(1024))
    seen: dict[int, int] = {}
    odd = []
    acc = 1
    t0 = time.perf_counter()
    for i in range(SPEED_LOOP):
        acc = (acc * 31 + tab[i & 1023]) % 1_000_003
        seen[i & 255] = acc
        if acc & 1:
            odd.append(acc)
    return time.perf_counter() - t0


def _alarm(signum, frame):
    raise CommandTimeout


def run_command(argv: list[str], limit_s: float) -> tuple[dict, list[str]]:
    cap = Capture()
    real = sys.stdout
    rc, error = None, None
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    t0 = time.perf_counter()
    try:
        sys.stdout = cap
        # looked up on each call, so the traced pass calls the wrapper
        rc = orthokit.cli.main(argv)
    except CommandTimeout:
        error = f"exceeded its {limit_s:g} s limit"
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # a crash is a failed command, not a dead pass
        error = f"raised {type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
        sys.stdout = real
    return {"rc": rc, "error": error, "seconds": seconds}, cap.parts


def peak_rss_mb() -> float:
    """This interpreter's peak resident set.  ru_maxrss is not used: Linux
    carries the parent's high-water mark into it across exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    mode, plan_path, result_path, t_spawn = sys.argv[1:5]
    outdir = Path(sys.argv[5]) if len(sys.argv) > 5 else None
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    setup_s = time.monotonic() - float(t_spawn)
    result = {"setup_s": setup_s}
    if mode != "setup":
        # [index of the command the sample precedes, seconds]
        speed = [[0, speed_sample()] for _ in range(EDGE_SAMPLES)]
        result["speed"] = speed
        tracer = None
        if mode.startswith("trace:"):
            from tracing import Tracer
            tracer = Tracer(int(mode.split(":")[1]))
            tracer.install()
        signal.signal(signal.SIGALRM, _alarm)
        commands = []
        since = 0.0
        for i, cmd in enumerate(plan["commands"]):
            if since >= SAMPLE_EVERY_S:
                speed.append([i, speed_sample()])
                since = 0.0
            rec, parts = run_command(cmd["argv"], cmd["limit_s"])
            since += rec["seconds"]
            digest = hashlib.sha256()
            for part in parts:
                digest.update(part.encode())
            rec["digest"] = digest.hexdigest()
            if outdir is not None:
                with open(outdir / f"{i:03d}.out", "w", encoding="utf-8") as fh:
                    fh.writelines(parts)
            del parts
            commands.append(rec)
        result["commands"] = commands
        result["peak_rss_mb"] = peak_rss_mb()
        speed += [[len(commands), speed_sample()] for _ in range(EDGE_SAMPLES)]
        if tracer is not None:
            result["gf_ns"] = tracer.gf_op_ns()
            result["missing"] = tracer.missing
            result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
