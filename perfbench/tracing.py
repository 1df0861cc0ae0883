"""Spans around the calls into orthokit's layers, from outside the package.

``Tracer.install`` replaces each traced public function with a timing
wrapper in every orthokit module namespace that bound it, including the
names re-exported through ``from .x import y``.  Nothing under ``src/`` is
modified.  Spans are kept in memory as (name, start, end, parent, pass id,
ok) and written out when the pass ends; ``layer_metrics`` turns them into
per-pass self times and call counts.
"""

from __future__ import annotations

import inspect
import random
import sys
import time

#: Public functions timed per layer; each gets `<layer>.<name>.self_s` and
#: `<layer>.<name>.calls`.
LAYERS = {
    "gf": ("build_field",),
    "ortho": ("is_permutation", "is_orthomorphism", "translate",
              "cyclotomic_profile", "is_irregular"),
    "polyops": ("interpolate", "tabulate"),
    "construct": ("distance3_pair", "near_linear_pair", "complete_partial",
                  "max_degree_orthomorphism"),
    "bitrade": ("build_bitrade", "validate_homogeneous"),
    "census": ("census",),
    "cli": ("main",),
}

#: Census stages, reported as inclusive seconds per pass.
CENSUS_STAGES = {
    "census.enumerate_s": "_value_tuples",
    "census.histogram_s": "_degree_histogram",
    "census.min_distance_s": "_min_pairwise_distance",
    "census.irregular_s": "_irregular_count",
}

#: Operations per field in the FieldSpec.add / FieldSpec.mul batches.
GF_BATCH = 10_000


class Tracer:
    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self.fields: dict = {}  # (p, r) -> last FieldSpec the program built

    def _open(self) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        return sid, self.stack[-1] if self.stack else -1

    def _close(self, sid, name, parent, start, ok):
        self.spans[sid] = (name, start, time.perf_counter(), parent,
                           self.pass_id, ok)

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self.stack
        if inspect.isgeneratorfunction(fn):
            # the span runs from the first resumption until the generator is
            # exhausted or closed; it is not pushed, so a consumer's calls
            # between resumptions keep their own parent
            def gen_wrapper(*args, **kwargs):
                sid, parent = self._open()
                start = clock()
                ok = False
                try:
                    yield from fn(*args, **kwargs)
                    ok = True
                finally:
                    self._close(sid, name, parent, start, ok)
            return gen_wrapper

        keep_field = name == "gf.build_field"

        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            stack.append(sid)
            start = clock()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                stack.pop()
                self._close(sid, name, parent, start, ok)
            if keep_field:
                self.fields[(out.p, out.r)] = out
            return out
        return wrapper

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "orthokit" or n.startswith("orthokit."))]
        targets = [(layer, fn, f"{layer}.{fn}") for layer, fns in LAYERS.items()
                   for fn in fns]
        targets += [("census", fn, stage) for stage, fn in CENSUS_STAGES.items()]
        for layer, fn_name, span_name in targets:
            # sys.modules, because `orthokit.census` is the re-exported function
            mod = sys.modules.get(f"orthokit.{layer}")
            orig = getattr(mod, fn_name, None)
            if orig is None:
                self.missing.append(span_name)
                continue
            wrapped = self.wrap(span_name, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)

    def gf_op_ns(self) -> dict[str, float]:
        """Nanoseconds per FieldSpec.add and FieldSpec.mul, over fixed
        pseudo-random batches on every field the pass built."""
        total = {"gf.add_ns": 0.0, "gf.mul_ns": 0.0}
        n = 0
        for (p, r), fs in sorted(self.fields.items()):
            rng = random.Random(p ** r)
            pairs = [(rng.randrange(fs.q), rng.randrange(fs.q))
                     for _ in range(GF_BATCH)]
            for key, op in (("gf.add_ns", fs.add), ("gf.mul_ns", fs.mul)):
                t0 = time.perf_counter()
                for a, b in pairs:
                    op(a, b)
                total[key] += time.perf_counter() - t0
            n += GF_BATCH
        return {k: v * 1e9 / n for k, v in total.items()} if n else {}


def layer_metrics(spans, scales, missing=()) -> dict[str, float]:
    """Self seconds and call counts per traced name, inclusive seconds per
    census stage, and the success ratio of complete_partial, for one pass.
    Each span's seconds are multiplied by its entry in `scales`.  Names in
    `missing` (functions absent from the program) are left out."""
    dur = [(end - start) * f for (_, start, end, _, _, _), f in zip(spans, scales)]
    child = [0.0] * len(spans)
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    out: dict[str, float] = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            out[f"{layer}.{fn}.self_s"] = 0.0
            out[f"{layer}.{fn}.calls"] = 0
    for stage in CENSUS_STAGES:
        out[stage] = 0.0
    ok_completions = 0
    for i, (name, _, _, _, _, ok) in enumerate(spans):
        if name in CENSUS_STAGES:
            out[name] += dur[i]
            continue
        out[f"{name}.self_s"] += dur[i] - child[i]
        out[f"{name}.calls"] += 1
        if name == "construct.complete_partial" and ok:
            ok_completions += 1
    calls = out["construct.complete_partial.calls"]
    out["construct.complete_partial.success_ratio"] = (
        ok_completions / calls if calls else 0.0)
    out["cli.self_s"] = out.pop("cli.main.self_s")
    del out["cli.main.calls"]
    for name in missing:
        for key in (name, f"{name}.self_s", f"{name}.calls", f"{name}.success_ratio"):
            out.pop(key, None)
    return out
