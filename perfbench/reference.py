"""Independent expected values for checking orthokit's outputs.

Nothing here calls orthokit.  Field arithmetic starts from the brute-force
``OracleField`` in ``tests/oracles.py`` (coefficient-vector products, no
exp/log tables); the exp/log tables below are derived from it, and the
q-by-q work runs vectorised in numpy so that checks stay cheap at the sizes
the workloads use.  Small fields go through the oracle's textbook Lagrange
interpolation instead.
"""

from __future__ import annotations

import ast
import importlib.util
from math import isqrt
from pathlib import Path

import numpy as np

# Largest order for which the oracle's O(q^3) Lagrange interpolation is used.
LAGRANGE_MAX_Q = 16


def load_module(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _proper_divisors(n: int) -> list[int]:
    return [d for d in range(1, n) if n % d == 0]


class RefField:
    """GF(p^r) in the package's element codes, for a given modulus and
    primitive element, with numpy tables derived from the oracle field."""

    def __init__(self, oracles, p: int, r: int, modulus, gamma: int):
        self.oracles = oracles
        self.of = oracles.OracleField(p, r, tuple(modulus))
        self.p, self.r, self.q = p, r, p ** r
        q = self.q
        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = self.of.mul(exp[i - 1], gamma)
        if self.of.mul(exp[-1], gamma) != 1 or len(set(exp)) != q - 1:
            raise ValueError(f"gamma={gamma} is not primitive in GF({q})")
        self.exp = np.asarray(exp, dtype=np.int64)
        self.log = np.full(q, -1, dtype=np.int64)
        self.log[self.exp] = np.arange(q - 1)
        codes = np.arange(q, dtype=np.int64)
        self.weights = p ** np.arange(r, dtype=np.int64)
        self.digits = (codes[:, None] // self.weights) % p  # q x r
        self._add = None
        self._sub = None

    # -- element-wise helpers ------------------------------------------

    def _combine(self, digit_planes) -> np.ndarray:
        return sum(d * w for d, w in zip(digit_planes, self.weights))

    def field_sum(self, m: np.ndarray, axis: int) -> np.ndarray:
        """Field sum of the codes in m along axis."""
        p, r = self.p, self.r
        if r == 1:
            return m.sum(axis=axis) % p
        if p == 2:
            return np.bitwise_xor.reduce(m, axis=axis)
        return self._combine([((m // w) % p).sum(axis=axis) % p
                              for w in self.weights])

    def neg(self, a: np.ndarray) -> np.ndarray:
        p = self.p
        return self._combine([(p - (a // w) % p) % p for w in self.weights])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(self.log[a] + self.log[b]) % (self.q - 1)])

    @property
    def add_table(self) -> np.ndarray:
        if self._add is None:
            d, p = self.digits, self.p
            self._add = self._combine(
                [(d[:, None, i] + d[None, :, i]) % p for i in range(self.r)])
        return self._add

    @property
    def sub_table(self) -> np.ndarray:
        if self._sub is None:
            d, p = self.digits, self.p
            self._sub = self._combine(
                [(d[:, None, i] - d[None, :, i]) % p for i in range(self.r)])
        return self._sub

    # -- maps ------------------------------------------------------------

    def interpolate(self, values) -> list[int]:
        """Coefficients of the reduced polynomial of a value table, low
        degree first, trailing zeros trimmed."""
        q = self.q
        if q <= LAGRANGE_MAX_Q:
            cs = list(self.oracles.lagrange_interpolate(self.of, list(values)))
        else:
            v = np.asarray(values, dtype=np.int64)
            # coefficient j >= 1 is -sum over y != 0 of t(y) * y^(q-1-j);
            # node 0 adds t(0) at degree 0 and -t(0) at degree q-1
            tv = v[self.exp]
            nz = tv != 0
            lt = self.log[tv[nz]]
            ks = np.nonzero(nz)[0]
            cs = [int(v[0])] + [0] * (q - 1)
            if len(ks):
                powers = (q - 1 - np.arange(1, q))[:, None]
                m = self.exp[(lt[None, :] + ks[None, :] * powers) % (q - 1)]
                cs[1:] = self.neg(self.field_sum(m, axis=1)).tolist()
            if v[0]:
                cs[q - 1] = int(self.add_table[cs[q - 1], self.neg(v[0])])
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    def tabulate(self, coeffs) -> list[int]:
        """Value table of the polynomial sum coeffs[i] * x^i."""
        q = self.q
        c = np.asarray(coeffs, dtype=np.int64)
        out = np.zeros(q, dtype=np.int64)
        if not len(c):
            return out.tolist()
        out[0] = c[0]
        nz = np.nonzero(c)[0]
        if len(nz):
            ks = np.arange(q - 1)[:, None]
            m = self.exp[(self.log[c[nz]][None, :] + nz[None, :] * ks) % (q - 1)]
            out[self.exp] = self.field_sum(m, axis=1)
        return out.tolist()

    def _ratio_rows(self, tables: np.ndarray) -> np.ndarray:
        """t(gamma^k) / gamma^k for each row t, as codes (0 where t is 0)."""
        q = self.q
        tv = tables[:, self.exp]
        ks = np.arange(q - 1)
        ratio = self.exp[(self.log[tv] - ks) % (q - 1)]
        return np.where(tv == 0, 0, ratio)

    def cyclotomic_min_index(self, values) -> int | None:
        v = np.asarray(values, dtype=np.int64)
        if v[0] != 0:
            return None
        ratio = self._ratio_rows(v[None, :])[0]
        ks = np.arange(self.q - 1)
        for n in _proper_divisors(self.q - 1):
            if np.array_equal(ratio, ratio[ks % n]):
                return n
        return None

    def cyclotomic_translations(self, values) -> np.ndarray:
        """Boolean per g: the translation x -> t(x + g) - t(g) is
        cyclotomic of some proper index."""
        q = self.q
        v = np.asarray(values, dtype=np.int64)
        shifted = v[self.add_table]  # shifted[g, x] = t(x + g)
        translated = self.sub_table[shifted, v[:, None]]
        ratio = self._ratio_rows(translated)
        ks = np.arange(q - 1)
        out = np.zeros(q, dtype=bool)
        for n in _proper_divisors(q - 1):
            out |= (ratio == ratio[:, ks % n]).all(axis=1)
        return out

    def is_irregular(self, values) -> bool:
        return not self.cyclotomic_translations(values).any()

    def is_orthomorphism(self, values) -> bool:
        return self.oracles.is_orthomorphism_table(self.of, list(values))

    def verify_report(self, values, degree) -> dict:
        """What `orthokit verify` must print for a map with this table and
        reduced degree."""
        q = self.q
        ortho = self.is_orthomorphism(values)
        return {
            "permutation": sorted(values) == list(range(q)),
            "orthomorphism": ortho,
            "reduced_degree": degree,
            "cyclotomic_min_index": self.cyclotomic_min_index(values),
            "irregular": self.is_irregular(values) if ortho else None,
        }


def bitrade_problems(doc: dict, q: int, k: int) -> list[str]:
    """Check a bitrade payload against the k-homogeneous bitrade axioms,
    from the triples alone."""
    size = k * q
    if doc.get("k") != k:
        return [f"k={doc.get('k')}, want {k}"]
    halves = []
    for key in ("L1", "L2"):
        a = np.asarray(doc[key], dtype=np.int64)
        if a.shape != (size, 3):
            return [f"{key} has shape {a.shape}, want ({size}, 3)"]
        if a.min() < 0 or a.max() >= q:
            return [f"{key} has an entry outside [0, {q})"]
        halves.append(a)
    problems = []
    keys = [h[:, 0] * q * q + h[:, 1] * q + h[:, 2] for h in halves]
    if np.intersect1d(keys[0], keys[1]).size:
        problems.append("the halves share a triple")
    for i, j in ((0, 1), (0, 2), (1, 2)):
        proj = [np.sort(h[:, i] * q + h[:, j]) for h in halves]
        if np.unique(proj[0]).size != size:
            problems.append(f"L1 repeats a pair in coordinates {i},{j}")
        if not np.array_equal(proj[0], proj[1]):
            problems.append(f"the halves differ in shape on coordinates {i},{j}")
    for name, h in zip(("L1", "L2"), halves):
        for i in range(3):
            if not (np.bincount(h[:, i], minlength=q) == k).all():
                problems.append(f"{name} coordinate {i} is not {k}-homogeneous")
    return problems


def _literal(node):
    """ast.literal_eval that also accepts dict(key=value, ...) calls."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
        return {kw.arg: _literal(kw.value) for kw in node.keywords}
    if isinstance(node, ast.Dict):
        return {_literal(k): _literal(v) for k, v in zip(node.keys, node.values)}
    return ast.literal_eval(node)


def frozen_census(test_file: Path) -> dict[int, dict]:
    """The frozen census values pinned in the test suite, keyed by q."""
    tree = ast.parse(test_file.read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("FROZEN", "FROZEN_11", "FROZEN_13"):
                found[name] = _literal(node.value)
    out = {p ** r: want for (p, r), want in found["FROZEN"].items()}
    out[11] = found["FROZEN_11"]
    out[13] = found["FROZEN_13"]
    return out


def census_problems(doc: dict, q: int, want: dict) -> list[str]:
    got = {
        "q": doc.get("q"),
        "total": doc.get("total"),
        "hist": {int(k): v for k, v in doc.get("degree_histogram", {}).items()},
        "mind": doc.get("min_pairwise_distance"),
        "irr": doc.get("irregular_count"),
        "bound": doc.get("non_irregular_bound"),
    }
    expect = dict(want, q=q)
    expect.setdefault("bound", isqrt(q ** (q + 4)) // 2)
    return [f"{k}={got[k]!r}, want {v!r}" for k, v in expect.items()
            if got[k] != v]
