"""End-to-end command-line runs: payload schemas, exit codes, determinism."""

import hashlib
import json
import re
import sys
import time

import pytest

from orthokit import (PreconditionError, build_bitrade, build_field,
                      distance3_pair, interpolate, irregular_orthomorphism,
                      is_irregular, is_orthomorphism, map_table,
                      max_degree_orthomorphism, prime_powers, tabulate)
from orthokit.cli import VERIFY_CAP, main

from oracles import bitrade_csv


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_field_payload(capsys):
    code, doc = run_json(capsys, "field", "2", "3")
    assert code == 0
    assert doc == {"field": {"p": 2, "r": 3, "modulus": [1, 0, 1, 1],
                             "gamma": 2}, "q": 8}


def test_field_with_explicit_modulus(capsys):
    code, doc = run_json(capsys, "field", "2", "3", "--modulus", "1,1,0,1")
    assert code == 0
    assert doc["field"]["modulus"] == [1, 1, 0, 1]


def test_pair_payload_schema(capsys):
    code, doc = run_json(capsys, "pair", "7", "1")
    assert code == 0
    assert set(doc) == {"field", "f", "g", "distance", "provenance",
                        "f_poly", "g_poly"}
    assert doc["distance"] == 3
    assert doc["provenance"] == "ONE_MOD3"
    fs = build_field(7, 1)
    f = map_table(fs, doc["f"]["values"])
    g = map_table(fs, doc["g"]["values"])
    assert sum(a != b for a, b in zip(f.values.tolist(), g.values.tolist())) == 3
    assert interpolate(f).coeffs == tuple(doc["f_poly"]["coeffs"])
    assert interpolate(g).coeffs == tuple(doc["g_poly"]["coeffs"])


def test_pair_nonexistent_exits_2(capsys):
    code, doc = run_json(capsys, "pair", "5", "1")
    assert code == 2
    assert doc == {"error": "NonexistenceError",
                   "reason": "no orthomorphism pair at Hamming distance 3 "
                             "exists over GF(5)"}


def test_pair_rejects_junk_modulus(capsys):
    code, doc = run_json(capsys, "pair", "2", "3", "--modulus", "1,zap,1")
    assert code == 2
    assert doc["error"] == "PreconditionError"


def test_verify_map_file_and_stdin(capsys, tmp_path, monkeypatch):
    fs = build_field(7, 1)
    payload = {"field": fs.to_json(), "values": [0, 2, 4, 6, 1, 3, 5]}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(payload))
    code, doc = run_json(capsys, "verify", "--map", str(path))
    assert code == 0
    assert doc == {"permutation": True, "orthomorphism": True,
                   "reduced_degree": 1, "cyclotomic_min_index": 1,
                   "irregular": False}

    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code2, doc2 = run_json(capsys, "verify", "--map", "-")
    assert (code2, doc2) == (code, doc)


def test_verify_runs_each_predicate_once(capsys, tmp_path, monkeypatch):
    from collections import Counter

    from orthokit import cli, ortho
    f = distance3_pair(build_field(11, 1)).f
    irregular = is_irregular(f)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(f.to_json()))
    calls = Counter()
    for name in ("is_permutation", "difference_map"):
        def counted(t, fn=getattr(ortho, name), name=name):
            calls[name] += 1
            return fn(t)
        monkeypatch.setattr(ortho, name, counted)
        monkeypatch.setattr(cli, name, counted)
    code, doc = run_json(capsys, "verify", "--map", str(path))
    assert code == 0 and doc["orthomorphism"] is True
    assert doc["irregular"] == irregular
    # the map and its difference map, each tested once
    assert calls == {"is_permutation": 2, "difference_map": 1}


def test_verify_poly_path(capsys, tmp_path):
    fs = build_field(7, 1)
    payload = {"field": fs.to_json(), "coeffs": [0, 3]}
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(payload))
    code, doc = run_json(capsys, "verify", "--poly", str(path))
    assert code == 0
    assert doc["orthomorphism"] is True and doc["reduced_degree"] == 1


def test_verify_non_orthomorphism_reports_null_irregular(capsys, tmp_path):
    fs = build_field(5, 1)
    payload = {"field": fs.to_json(), "values": [0, 1, 2, 3, 4]}
    path = tmp_path / "id.json"
    path.write_text(json.dumps(payload))
    code, doc = run_json(capsys, "verify", "--map", str(path))
    assert code == 0
    assert doc["permutation"] is True
    assert doc["orthomorphism"] is False
    assert doc["irregular"] is None


def test_verify_non_permutation(capsys, tmp_path):
    fs = build_field(5, 1)
    payload = {"field": fs.to_json(), "values": [0, 0, 1, 2, 3]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(payload))
    code, doc = run_json(capsys, "verify", "--map", str(path))
    assert code == 0
    assert doc["permutation"] is False and doc["orthomorphism"] is False


def test_verify_malformed_inputs_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc = run_json(capsys, "verify", "--map", str(bad))
    assert code == 2 and doc["error"] == "PreconditionError"

    missing_keys = tmp_path / "mk.json"
    missing_keys.write_text(json.dumps({"field": build_field(5, 1).to_json()}))
    code, doc = run_json(capsys, "verify", "--map", str(missing_keys))
    assert code == 2 and doc["error"] == "PreconditionError"
    assert "malformed" in doc["reason"]

    code, doc = run_json(capsys, "verify", "--map", str(tmp_path / "nope.json"))
    assert code == 2 and "cannot read" in doc["reason"]

    not_obj = tmp_path / "arr.json"
    not_obj.write_text("[1, 2, 3]")
    code, doc = run_json(capsys, "verify", "--map", str(not_obj))
    assert code == 2 and "object" in doc["reason"]


@pytest.mark.parametrize("bad", [7.5, True, "3"])
@pytest.mark.parametrize("where", ["values", "coeffs", "p", "r", "gamma",
                                   "modulus"])
def test_verify_rejects_non_integer_json(capsys, tmp_path, bad, where):
    fs = build_field(3, 2)
    doc = {"field": fs.to_json()}
    if where == "coeffs":
        doc["coeffs"] = [0, 2, bad]
    else:
        doc["values"] = [0, 2, 1, 6, 8, 7, 3, 5, bad]
    if where in ("p", "r", "gamma"):
        doc["values"][-1] = 4
        doc["field"][where] = bad
    elif where == "modulus":
        doc["values"][-1] = 4
        doc["field"]["modulus"][1] = bad
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    flag = "--poly" if where == "coeffs" else "--map"
    code, out = run_json(capsys, "verify", flag, str(path))
    assert code == 2
    assert out["error"] == "PreconditionError"
    assert "JSON integer" in out["reason"]


@pytest.mark.parametrize("p,r", [(2, 17), (2, 20), (3, 11), (2, 10**9),
                                 (10**30 + 57, 1)])
def test_verify_refuses_fields_above_cap_at_once(capsys, tmp_path, p, r):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"field": {"p": p, "r": r}, "values": []}))
    start = time.perf_counter()
    code, doc = run_json(capsys, "verify", "--map", str(path))
    assert time.perf_counter() - start < 0.5  # no field is built
    assert code == 2 and doc["error"] == "PreconditionError"
    assert f"capped at q = {VERIFY_CAP}" in doc["reason"]


def test_verify_refuses_negative_r_of_a_huge_p_at_once(capsys, tmp_path):
    # the cap is not computed for r < 1, where p**r is a float that a huge p
    # overflows; build_field refuses the degree instead
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({"field": {"p": 10**400, "r": -1}, "values": [0]}))
    start = time.perf_counter()
    code, doc = run_json(capsys, "verify", "--map", str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and doc["error"] == "PreconditionError"
    assert "extension degree" in doc["reason"]


UNREADABLE_JSON = {
    "non-utf8": b'{"field": "\xff\xfe"}',
    "long-int": b'{"field": ' + b"9" * 5000 + b"}",  # over the int-string digit limit
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
@pytest.mark.parametrize("name", sorted(UNREADABLE_JSON))
def test_verify_unreadable_json_exits_2(capsys, tmp_path, monkeypatch, name, stdin):
    path = tmp_path / "doc.json"
    path.write_bytes(UNREADABLE_JSON[name])
    if stdin:
        import io
        data = io.BytesIO(UNREADABLE_JSON[name])
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(data, encoding="utf-8"))
        path = "-"
    code, doc = run_json(capsys, "verify", "--map", str(path))
    assert code == 2 and doc["error"] == "PreconditionError"
    assert doc["reason"].startswith("cannot read JSON input")


@pytest.mark.parametrize("command", ["field", "pair", "bitrade", "census",
                                     "irregular"])
@pytest.mark.parametrize("p,r", [(1000000000000000003, 1), (2, 10**9),
                                 (1000000000000000003, 0)])
def test_field_args_above_cap_exit_2_at_once(capsys, command, p, r):
    # refused before p is tried for primality, which would take sqrt(p) steps
    start = time.perf_counter()
    code, doc = run_json(capsys, command, str(p), str(r))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and doc["error"] == "PreconditionError"


@pytest.mark.parametrize("p,modulus", [("7", "0,1"), ("5", "2,1")])
def test_field_rejects_prime_modulus_that_contradicts_gamma(capsys, p, modulus):
    # y over GF(7) would put gamma = 0, and y + 2 over GF(5) gamma = 3,
    # while the default gammas are 3 and 2
    code, doc = run_json(capsys, "field", p, "1", "--modulus", modulus)
    assert code == 2 and doc["error"] == "PreconditionError"
    assert "y - gamma" in doc["reason"]
    code, doc = run_json(capsys, "field", "5", "1", "--modulus", "2,1", "--gamma", "3")
    assert code == 0 and doc["field"] == {"p": 5, "r": 1, "modulus": [2, 1], "gamma": 3}


def test_verify_rejects_prime_modulus_that_contradicts_gamma(capsys, tmp_path):
    path = tmp_path / "prime.json"
    for gamma, want in ((2, 2), (3, 0)):
        path.write_text(json.dumps({"field": {"p": 5, "r": 1, "modulus": [2, 1],
                                              "gamma": gamma},
                                    "values": [0, 2, 4, 1, 3]}))
        code, doc = run_json(capsys, "verify", "--map", str(path))
        assert code == want
        if code:
            assert doc["error"] == "PreconditionError" and "y - gamma" in doc["reason"]
        else:
            assert doc["orthomorphism"] is True


def test_verify_refuses_a_reducible_modulus_with_a_given_gamma(capsys, tmp_path):
    # (y + 1)^2 over Z_2: the table of y fails its check, and the trial
    # division then names the modulus, also with asserts stripped
    import subprocess
    from pathlib import Path
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps({"field": {"p": 2, "r": 2, "modulus": [1, 0, 1],
                                          "gamma": 2}, "values": [0, 1, 2, 3]}))
    code, doc = run_json(capsys, "verify", "--map", str(path))
    assert code == 2 and doc == {"error": "PreconditionError",
                                 "reason": "modulus (1, 0, 1) is reducible over Z_2"}
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-O", "-m", "orthokit", "verify", "--map",
                           str(path)], capture_output=True, text=True, cwd=tmp_path,
                          env={"PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout) == doc


#: (y^6 + y + 1)(y^6 + y^3 + 1) over Z_2, with gamma = y; and the cube of
#: GF(2^16)'s default gamma, whose order is (2^16 - 1) / 3.  Both tables
#: have levels long enough to run through byte tables.
LONG_LEVEL_REFUSALS = [
    ({"p": 2, "r": 12, "modulus": [1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1], "gamma": 2},
     "modulus (1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1) is reducible over Z_2"),
    ({"p": 2, "r": 16, "gamma": 120}, "gamma=120 is not a primitive element"),
]


@pytest.mark.parametrize("spec,reason", LONG_LEVEL_REFUSALS,
                         ids=["reducible", "not-primitive"])
def test_refusals_where_the_byte_tables_run(capsys, tmp_path, spec, reason):
    # the failed table check is re-decided with the same messages, in
    # process and through verify, also with asserts stripped
    import subprocess
    from pathlib import Path
    q = spec["p"] ** spec["r"]
    assert build_field(2, 16).exp_array[3] == 120
    with pytest.raises(PreconditionError, match=f"^{re.escape(reason)}$"):
        build_field(spec["p"], spec["r"], spec.get("modulus"), spec["gamma"])
    path = tmp_path / "refused.json"
    path.write_text(json.dumps({"field": spec, "values": list(range(q))}))
    code, doc = run_json(capsys, "verify", "--map", str(path))
    assert code == 2 and doc == {"error": "PreconditionError", "reason": reason}
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-O", "-m", "orthokit", "verify", "--map",
                           str(path)], capture_output=True, text=True, cwd=tmp_path,
                          env={"PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout) == doc


def test_field_rejects_modulus_coefficients_out_of_range(capsys):
    # -1 is not read as 1 mod 2: [1, 1, 1] would be the irreducible y^2+y+1
    code, doc = run_json(capsys, "field", "2", "2", "--modulus", "1,-1,1")
    assert code == 2 and doc["error"] == "PreconditionError"
    assert "[0, 2)" in doc["reason"]
    code, doc = run_json(capsys, "field", "2", "2", "--modulus", "3,1,1")
    assert code == 2 and "[0, 2)" in doc["reason"]


@pytest.mark.parametrize("modulus", ["", "١,1,1", "1,1,١", "1_0,1,1",
                                     " 1,1,1", "1, 1,1", "1,1,1\n", "+1,1,1",
                                     "1,,1", "1.0,1,1"])
def test_modulus_coefficients_are_ascii_integers(capsys, modulus):
    # int() would read each of these, or an empty --modulus would fall
    # through to the default modulus: GF(4) either way
    code, doc = run_json(capsys, "field", "2", "2", "--modulus", modulus)
    assert code == 2 and doc["error"] == "PreconditionError"
    assert "comma-separated integers" in doc["reason"]


@pytest.mark.parametrize("argv", [
    ["field", "1_1", "1"], ["field", "١١", "1"], ["field", " 11", "1"],
    ["field", "11 ", "1"], ["field", "+11", "1"], ["field", "11", "1\n"],
    ["field", "11", "1_0"], ["field", "11", "۱"], ["field", "11", ""],
    ["field", "11", "1", "--gamma", "2_0"], ["field", "11", "1", "--gamma", " 2"],
    ["pair", "11", "1", "--seed", "1_0"], ["irregular", "11", "1", "--seed", "٣"],
    ["bitrade", "7", "1", "--seed", "+1"], ["census", "7", "1", "--jobs", "1 "],
    ["census", "7", "1", "--jobs", "２"],
])
def test_integer_arguments_are_ascii_digits(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "invalid integer" in captured.err


def test_integer_arguments_take_a_minus_sign_and_leading_zeros(capsys):
    code, doc = run_json(capsys, "field", "011", "01", "--gamma", "02",
                         "--modulus", "09,1")
    assert code == 0 and doc["field"] == {"p": 11, "r": 1, "modulus": [9, 1],
                                          "gamma": 2}
    code, doc = run_json(capsys, "field", "-11", "1")
    assert code == 2 and doc["reason"] == "p=-11 is not prime"
    code, doc = run_json(capsys, "census", "7", "1", "--jobs", "-1")
    assert code == 2 and doc["reason"] == "jobs must be a positive integer"


def test_verify_rejects_modulus_coefficients_out_of_range(capsys, tmp_path):
    path = tmp_path / "mod.json"
    path.write_text(json.dumps({"field": {"p": 2, "r": 2, "modulus": [3, -1, 1]},
                                "values": [0, 2, 3, 1]}))
    code, doc = run_json(capsys, "verify", "--map", str(path))
    assert code == 2 and doc["error"] == "PreconditionError"
    assert "[0, 2)" in doc["reason"]


def test_verify_accepts_the_cap_order(capsys, tmp_path):
    # 2^16 itself is accepted: rejected here for its values, after the build
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({"field": {"p": 2, "r": 16}, "values": [0]}))
    code, doc = run_json(capsys, "verify", "--map", str(path))
    assert VERIFY_CAP == 2**16
    assert code == 2 and "exactly q values" in doc["reason"]


def test_gf3125_commands(capsys):
    code, doc = run_json(capsys, "pair", "5", "5")
    assert code == 0 and doc["provenance"] == "LINEARIZED"
    degrees = [len(doc[k]["coeffs"]) - 1 for k in ("f_poly", "g_poly")]
    assert degrees == [5, 3122]
    code, doc = run_json(capsys, "irregular", "5", "5")
    assert code == 0 and doc["branch"] == "max-degree" and doc["degree"] == 3122
    code, doc = run_json(capsys, "bitrade", "5", "5")
    assert code == 0 and doc["homogeneous"] is True
    assert len(doc["L1"]) == len(doc["L2"]) == 3 * 3125


def test_bitrade_json(capsys):
    code, doc = run_json(capsys, "bitrade", "7", "1")
    assert code == 0
    assert set(doc) == {"field", "k", "L1", "L2", "homogeneous"}
    assert doc["k"] == 3 and doc["homogeneous"] is True
    assert len(doc["L1"]) == len(doc["L2"]) == 21
    assert sorted(map(tuple, doc["L1"])) == list(map(tuple, doc["L1"]))


def test_bitrade_csv(capsys):
    code, out = run(capsys, "bitrade", "3", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 18
    assert all(line.split(",")[0] in ("L1", "L2") for line in lines)
    assert all(len(line.split(",")) == 4 for line in lines)
    assert sum(1 for line in lines if line.startswith("L1,")) == 9


class WriteOnly:
    """A stdout with write and flush only, like the benchmark's capture."""

    def __init__(self):
        self.parts = []

    def write(self, s):
        self.parts.append(s)
        return len(s)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_bitrade_streams_through_write_only_stdout(monkeypatch, fmt):
    out = WriteOnly()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["bitrade", "7", "1", "--format", fmt]) == 0
    pair = distance3_pair(build_field(7, 1))
    b = build_bitrade(pair.f, pair.g)
    if fmt == "json":
        expected = json.dumps(b.to_json() | {"homogeneous": True}, indent=2,
                              sort_keys=True)
    else:
        expected = bitrade_csv(b.first.tolist(), b.second.tolist())
    assert "".join(out.parts) == expected + "\n"
    assert len(out.parts) > 2


def _pair_document(fs, seed=0) -> dict:
    """The pair document, built from the library's to_json() methods."""
    pair = distance3_pair(fs, seed=seed)
    return {"field": fs.to_json(), "f": pair.f.to_json(), "g": pair.g.to_json(),
            "distance": pair.distance, "provenance": pair.provenance,
            "f_poly": interpolate(pair.f).to_json(),
            "g_poly": interpolate(pair.g).to_json()}


def _irregular_document(fs, seed=0) -> dict:
    t, how = irregular_orthomorphism(fs, seed)
    return t.to_json() | how | {"irregular": True}


@pytest.mark.parametrize("command", ["pair", "irregular"])
def test_pair_and_irregular_stream_through_write_only_stdout(monkeypatch, command):
    out = WriteOnly()
    monkeypatch.setattr(sys, "stdout", out)
    assert main([command, "11", "1"]) == 0
    build = _pair_document if command == "pair" else _irregular_document
    expected = json.dumps(build(build_field(11, 1)), indent=2, sort_keys=True)
    assert "".join(out.parts) == expected + "\n"
    assert len(out.parts) > 2


def test_pair_and_irregular_stdout_is_json_dumps_of_the_library_documents(capsys):
    for p, r, q in prime_powers(343):
        fs = build_field(p, r)
        for command, build in (("pair", _pair_document),
                               ("irregular", _irregular_document)):
            for seed in (0, 7):
                code, out = run(capsys, command, str(p), str(r), "--seed", str(seed))
                if code == 2:
                    with pytest.raises(PreconditionError):
                        build(fs, seed)
                    continue
                assert code == 0, (command, q)
                assert out == json.dumps(build(fs, seed), indent=2,
                                         sort_keys=True) + "\n", (command, q, seed)


def test_census_payload(capsys):
    code, doc = run_json(capsys, "census", "7", "1")
    assert code == 0
    assert doc["q"] == 7 and doc["total"] == 133
    assert doc["degree_histogram"] == {"1": 35, "4": 98}
    assert doc["min_pairwise_distance"] == 3
    assert doc["irregular_count"] == 0
    assert "field" in doc and "non_irregular_bound" in doc


def test_census_jobs_flag(capsys):
    code1, doc1 = run_json(capsys, "census", "5", "1")
    code2, doc2 = run_json(capsys, "census", "5", "1", "--jobs", "2")
    assert code1 == code2 == 0 and doc1 == doc2
    outs = []
    for jobs in ("1", "1000000000"):
        assert main(["census", "7", "1", "--jobs", jobs]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_census_jobs_below_one_exits_2(capsys, jobs):
    code, doc = run_json(capsys, "census", "5", "1", "--jobs", jobs)
    assert code == 2 and doc["error"] == "PreconditionError"
    assert doc["reason"] == "jobs must be a positive integer"


def test_census_over_cap_exits_2(capsys):
    code, doc = run_json(capsys, "census", "17", "1")
    assert code == 2 and doc["error"] == "PreconditionError"


def test_irregular_even_branch(capsys):
    code, doc = run_json(capsys, "irregular", "2", "4")
    assert code == 0
    assert doc["branch"] == "even-theta" and doc["irregular"] is True
    fs = build_field(2, 4)
    t = map_table(fs, doc["values"])
    assert is_irregular(t)
    a, c = doc["params"]["a"], doc["params"]["c"]
    shifted = {c ^ h for h in (0, 1, a, a ^ 1)}
    for x in range(16):
        want = fs.mul(a, x) if x not in shifted else fs.add(fs.mul(a, x),
                                                            fs.mul(a, a ^ 1))
        assert t[x] == want


def test_irregular_max_degree_branch(capsys):
    code, doc = run_json(capsys, "irregular", "11", "1")
    assert code == 0
    assert doc["branch"] == "max-degree" and doc["degree"] == 8
    t = map_table(build_field(11, 1), doc["values"])
    assert is_irregular(t)


def test_irregular_max_degree_payload_up_to_343(capsys):
    # the printed table is the pair member of degree q - 3, as tabulating
    # its interpolated polynomial gives back
    for p, r, q in prime_powers(343):
        if p == 2 or q <= 7 or q % 3 == 1:
            continue
        fs = build_field(p, r)
        code, doc = run_json(capsys, "irregular", str(p), str(r))
        assert code == 0 and doc["branch"] == "max-degree", q
        assert doc["degree"] == q - 3
        assert doc["values"] == tabulate(max_degree_orthomorphism(fs)).values.tolist(), q
        pair = distance3_pair(fs)
        first = next(t for t in (pair.f, pair.g) if interpolate(t).degree == q - 3)
        assert doc["values"] == first.values.tolist(), q


@pytest.mark.slow
@pytest.mark.parametrize("p,r,branch", [(2, 16, "even-theta"), (3, 9, "max-degree")])
def test_irregular_large_fields(capsys, p, r, branch):
    code, doc = run_json(capsys, "irregular", str(p), str(r))
    assert code == 0 and doc["branch"] == branch and doc["irregular"] is True
    assert is_orthomorphism(map_table(build_field(p, r), doc["values"]))
    if branch == "max-degree":
        assert doc["degree"] == p**r - 3


@pytest.mark.parametrize("p,r", [(7, 1), (13, 1), (2, 2)])
def test_irregular_unsupported_fields_exit_2(capsys, p, r):
    code, doc = run_json(capsys, "irregular", str(p), str(r))
    assert code == 2 and doc["error"] == "PreconditionError"


def test_irregular_orthomorphism_is_what_the_cli_prints(capsys):
    # the CLI only formats the library's result, or its refusal
    for p, r, q in prime_powers(343):
        fs = build_field(p, r)
        for seed in (0, 7):
            code, doc = run_json(capsys, "irregular", str(p), str(r),
                                 "--seed", str(seed))
            if code == 2:
                with pytest.raises(PreconditionError) as err:
                    irregular_orthomorphism(fs, seed)
                assert doc == {"error": "PreconditionError",
                               "reason": str(err.value)}, q
                continue
            t, how = irregular_orthomorphism(fs, seed)
            assert code == 0 and t.to_json() | how | {"irregular": True} == doc, q


class _BoomParser:
    def parse_args(self, argv):
        class A:
            @staticmethod
            def func(args):
                raise AssertionError("wired for testing")
        return A()


def test_internal_assertion_exits_3(capsys, monkeypatch):
    import orthokit.cli as cli
    monkeypatch.setattr(cli, "_build_parser", _BoomParser)
    code = cli.main(["anything"])
    captured = capsys.readouterr()
    assert code == 3
    assert "internal assertion failed: wired for testing" in captured.err
    assert captured.out == ""


def test_parser_is_built_once(capsys):
    import orthokit.cli as cli
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    fresh = cli._build_parser.__wrapped__()
    assert parser.format_help() == fresh.format_help()
    for argv in (["pair", "7"], ["census", "7", "1", "--jobs", "x"], ["verify"],
                 ["irregular", "--help"]):
        errs = []
        for run_with in (main, main, fresh.parse_args):
            with pytest.raises(SystemExit) as exc:
                run_with(argv)
            captured = capsys.readouterr()
            errs.append((exc.value.code, captured.out, captured.err))
        assert errs[0] == errs[1] == errs[2]


def test_failed_bitrade_validation_exits_3_under_O(tmp_path):
    import subprocess, sys
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "import orthokit.cli as cli\n"
        "assert sys.flags.optimize and False\n"  # stripped under -O
        "cli.validate_homogeneous = lambda b: False\n"
        "sys.exit(cli.main(['bitrade', '7', '1']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={"PYTHONPATH": str(src)})
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "constructed bitrade failed validation" in proc.stderr


def test_irregularity_check_exits_3_under_O(tmp_path):
    import subprocess, sys
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "import orthokit.cli as cli\n"
        "import orthokit.construct as construct\n"
        "assert sys.flags.optimize and False\n"  # stripped under -O
        "construct.is_irregular = lambda t: False\n"
        "sys.exit(cli.main(['irregular', '11', '1']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={"PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "maximal-degree orthomorphism is not irregular" in proc.stderr


def test_broken_field_table_exits_3_under_O(tmp_path):
    # a table fault under a given primitive gamma is a defect (exit 3), not
    # a refusal of the gamma (exit 2), also with asserts stripped
    import subprocess, sys
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import orthokit.gf as gf\n"
        "import orthokit.cli as cli\n"
        "assert sys.flags.optimize and False\n"  # stripped under -O
        "good = gf._exp_codes\n"
        "gf._exp_codes = lambda *a: np.where(good(*a) == 5, 3, good(*a))\n"
        "sys.exit(cli.main(['field', '7', '1', '--gamma', '5']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={"PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "exp table failed to cycle the group" in proc.stderr


def test_import_leaves_numpy_fft_unloaded(tmp_path):
    # the chirp-z transform imports numpy.fft when it first runs: importing
    # it costs about 1 ms and 0.6 MB, which every command would pay at start.
    # pair 263 has a dft stage of 131, below CHIRP_MIN, so it stays unloaded
    import subprocess, sys
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import contextlib, io, sys, orthokit\n"
            "from orthokit.cli import main\n"
            "print('numpy.fft' in sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['pair', '263', '1'])\n"
            "print(code, 'numpy.fft' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={"PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n0 False\n"


def test_repeat_invocations_byte_identical(capsys):
    _, out1 = run(capsys, "pair", "11", "1", "--seed", "5")
    _, out2 = run(capsys, "pair", "11", "1", "--seed", "5")
    assert out1 == out2
    _, out3 = run(capsys, "bitrade", "3", "2", "--format", "csv")
    _, out4 = run(capsys, "bitrade", "3", "2", "--format", "csv")
    assert out3 == out4


def test_module_entry_point():
    import subprocess, sys
    proc = subprocess.run(
        [sys.executable, "-m", "orthokit", "field", "3", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["q"] == 3


# sha256 of the stdout of these commands, default gamma and seed 0, as
# written before MapTable held its values as an array; the bitrade fields
# are the benchmark's bitrade-large ones.  The census, irregular and pair
# digests below them were written while reduced degrees were still read by
# separate power-sum routines, before the one top-down walk replaced them.
STDOUT_SHA256 = {
    ("bitrade", "2", "16"):
        "6d24412afb30b62d8d7760a9664e285fcdfaa0fe58c1422af72d7e84f95c2cfd",
    ("bitrade", "2", "15"):
        "a7060b1e32dbbcd0ab9aa51d2c1d8f954577ea38fe3095764912ddbe6aee08f2",
    ("bitrade", "3", "9"):
        "ccf28c1657ac23cdfadff85440602dc8c146ba2bfb902843e2e3d42466f415ea",
    ("bitrade", "2003", "1"):
        "32e6e401008cc631c6b463520b3f9be21b1163a0dd49af7ce0edf4e3632633ce",
    ("pair", "5", "5"):
        "1c9d03e25df0570ef5e363e08deb2641ea3506a770db27f2892c6f8f7db0af60",
    ("irregular", "2", "12"):
        "72ce849eff2751ea549fdbbec4fa89481aaecb8bfb7b828c70fddbe8a9bc608e",
    ("census", "11", "1"):
        "8a09e705ee51b4dc13a36596e89a0f7ed93bf68b1d89d2572263cdab61215f8b",
    ("census", "3", "2"):
        "fc9fe9cf914c2165d67fcd75b5a386ce3f7a1155440722aecc5ce5db7e5bb264",
    ("irregular", "1019", "1"):
        "5b1d5acfd90499479840632503d2cbae103a3014cf7ae4ecef42af152895d0bc",
    ("irregular", "3", "6"):
        "be8ece9ba4d0dd21e58867c8e5cfeac2816a6594053c334a4237ca10f4ee5a97",
    ("pair", "3", "6"):
        "c73973f01cddd7583db8aaa5ffab641232b8b441f6fdca213c92607a05b25c3e",
    ("pair", "2", "10"):
        "c39ecff13c7926724d652c02cf41e01f2cec9bcd3b6eb3136fd591a0166db501",
    # written while interpolation was one O(q^2) power-sum pass, before the
    # mixed-radix and chirp-z transform took it over
    ("pair", "2", "16"):
        "e8f94778f318533a4eb543a34b8c434cd00f02969b4e648c62e4565bae9c5333",
    ("pair", "3", "9"):
        "8d46ae061b4783076244ae900bf6e39db7a5277754831ec71343c9fe19f75d57",
    ("pair", "1019", "1"):
        "989cc450d977f3f9469c23941f96405c5ac1451b36e352bb92756bb3faec1ebe",
    # commands that run the completion search (SMALL_SEARCH, and its NON25
    # lift at 11^2), written while the search kept its open positions
    # compacted in a position array, before one key per field element
    ("pair", "191", "1"):
        "70bca193a5f25a873955d41f2993ba12faa34766aa394d91e7027be08d298ed8",
    ("bitrade", "11", "2"):
        "75a6beb60fa0fd4cc4f49c385adfdc458599939ea21450ef9bf0df491b706f61",
    ("irregular", "317", "1"):
        "00b5fdb6c9dc4643ee164761e70b42820fec53395750884328eccd1b55d1ea7b",
    ("pair", "29", "1"):
        "6cd9ecaf73fc54848104bf38d3eac120e7689222d3d834d68e13cdeb41d1e7e3",
    # written while pair's code lists still went through json.dumps, before
    # every array was written in blocks from a digit table
    ("pair", "2", "20"):
        "58cb54745996739e123b344dc7e5144229f7d9a3be55bb3cb05f6ef9d1a3edd4",
}


@pytest.mark.parametrize("argv", [
    pytest.param(argv, marks=pytest.mark.slow) if argv == ("pair", "2", "20")
    else argv for argv in sorted(STDOUT_SHA256)], ids=" ".join)
def test_stdout_bytes_pinned(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == STDOUT_SHA256[argv]
