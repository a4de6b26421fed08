import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

import horncalc
from horncalc import cli
from horncalc.cli import main
from horncalc.tables import APPENDIX_B_CLOSURE_SIZES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestHornCommands:
    def test_check_false_with_violation(self, capsys):
        code, obj = run_json(capsys, "horn", "check", "--n", "4", "--tuple", "[[1,4],[2,3]]")
        assert code == 1
        assert obj["member"] is False
        assert obj["violation"]["j_tuple"] == [[1], [2]]
        assert obj["violation"]["edim"] == -1

    def test_check_true(self, capsys):
        code, obj = run_json(capsys, "horn", "check", "--n", "4", "--tuple", "[[1,4],[2,4]]")
        assert code == 0 and obj["member"] is True and obj["edim"] == 1

    def test_enumerate_json(self, capsys):
        code, obj = run_json(capsys, "horn", "enumerate", "--r", "1", "--n", "2", "--s", "3")
        assert code == 0
        assert obj["classes"] == [
            {"tuple": [[1], [2], [2]], "edim": 0},
            {"tuple": [[2], [2], [2]], "edim": 1},
        ]

    def test_enumerate_csv(self, capsys):
        code, out = run(capsys, "horn", "enumerate", "--r", "1", "--n", "2", "--s", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,n,J1,J2,J3,edim"
        assert lines[1] == "1,2,{1},{2},{2},0"

    def test_horn0(self, capsys):
        code, obj = run_json(capsys, "horn0", "--d", "1", "--r", "2", "--s", "3")
        assert code == 0
        assert len(obj["tuples"]) == 3

    def test_malformed_tuple_exits_2(self, capsys):
        code = main(["horn", "check", "--n", "4", "--tuple", "[[1,4],[2,3]"])
        err = capsys.readouterr().err
        assert code == 2
        assert "position" in err

    def test_usage_error_exits_2(self, capsys):
        assert main(["horn", "check", "--n", "4"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["horn", "enumerate", "--r", "5", "--n", "3"],
        ["horn", "enumerate", "--r", "2", "--n", "4", "--s", "0"],
        ["horn0", "--d", "0", "--r", "2"],
        ["kirwan", "ineqs", "--r", "0"],
        ["intersect", "certify", "--n", "4", "--tuple", "[[1,4],[2,4]]", "--samples", "0"],
        ["intersect", "certify", "--n", "4", "--tuple", "[[1,4],[2,4]]", "--samples", "-3"],
        # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to the bases 2..37
        ["intersect", "certify", "--n", "4", "--tuple", "[[1,4],[2,4]]", "--prime", "318665857834031151167461"],
        # a flag the subcommand does not read
        ["horn", "check", "--n", "4", "--tuple", "[[1,4],[2,4]]", "--budget", "5"],
        # FLAT names a matrix file that holds the JSON list [1,2,3]
        ["pos", "compute", "--flag", "FLAT", "--subspace", "FLAT"],
        ["hn", "search", "--r", "2", "--theta", '[["a",1],[0,0],[0,0]]'],
        ["variational", "demo", "--r", "3", "--j", "[1]", "--xi", '["a",1,2]'],
        # options or formats the command does not act on
        ["horn", "enumerate", "--r", "2", "--n", "4", "--jobs", "4"],
        ["tables", "appendix-a", "--format", "csv"],
        ["tables", "appendix-b", "--format", "tex"],
        # --field and --prime exclude each other
        ["intersect", "certify", "--n", "4", "--tuple", "[[1,4],[2,4]]", "--field", "rational", "--prime", "7"],
        ["cell", "sample", "--n", "3", "--subset", "[1]", "--prime", "7", "--field", "prime"],
        # GF(q)^0 has no nonzero subspace to minimize over
        ["hn", "search", "--r", "0"],
        # non-finite or negative variational inputs of the right length
        ["variational", "demo", "--r", "3", "--j", "[1]", "--xi", "[1e400,0,0]"],
        ["variational", "demo", "--r", "3", "--j", "[1]", "--tolerance", "nan"],
        ["variational", "demo", "--r", "3", "--j", "[1]", "--trials", "-1"],
        # over the elimination and trial budgets: refused before any sampling
        # (three parts {13..30} of [36]: one sample eliminates 216 x 216 x 216 cells)
        ["intersect", "certify", "--n", "36", "--tuple", json.dumps([list(range(13, 31))] * 3)],
        ["variational", "demo", "--r", "2", "--j", "[1]", "--trials", "100000000"],
        # a 1200 x 1200 tangent map, refused before any inverse
        ["delta", "eval", "--n", "40", "--tuple",
         json.dumps([list(range(1, 21)), list(range(21, 41)), list(range(21, 41))])],
        # a non-intersecting tuple never stops early: the samples are budgeted together
        ["intersect", "certify", "--n", "4", "--tuple", "[[1,4],[2,3]]", "--samples", "1000000000"],
    ],
)
def test_bad_arguments_exit_2(capsys, tmp_path, argv):
    flat = tmp_path / "flat.json"
    flat.write_text("[1,2,3]")
    start = time.perf_counter()
    assert main([str(flat) if a == "FLAT" else a for a in argv]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


def test_malformed_json_arguments_exit_2(capsys, tmp_path):
    # every JSON flag, each with wrong nesting, a wrong entry type or a
    # non-list, is a usage error and never reaches the internal path
    flags = [
        (["horn", "check", "--n", "4", "--tuple"], 2),
        (["intersect", "certify", "--n", "4", "--tuple"], 2),
        (["delta", "eval", "--n", "4", "--tuple"], 2),
        (["kirwan", "check", "--xi"], 2),
        (["lr", "nonzero", "--lambda"], 2),
        (["cell", "sample", "--n", "4", "--subset"], 1),
        (["hn", "search", "--r", "2", "--theta"], 2),
        (["variational", "demo", "--r", "3", "--j"], 1),
        (["variational", "demo", "--r", "3", "--j", "[1]", "--xi"], 1),
    ]
    for prefix, depth in flags:
        inner = "[1,2]" if depth == 2 else "1"
        for bad in ["null", '"x"', "{}", "[" * (depth + 1) + "1" + "]" * (depth + 1),
                    "[" + inner + ',"a"]', "[" * depth + '"1/0"' + "]" * depth, "[" * depth + "1e400" + "]" * depth]:
            assert main(prefix + [bad]) == 2, prefix + [bad]
            assert "Traceback" not in capsys.readouterr().err
    # JSON that the parser refuses outside JSONDecodeError: an integer over
    # Python's 4,300-digit limit (ValueError), nesting past the recursion limit;
    # and entries whose numerator or denominator no answer could print
    digits, deep = "1" * 4401, "[" * 50000 + "]" * 50000
    for argv, message in [
        (["horn", "check", "--n", "4", "--tuple", f"[[{digits},4],[2,4]]"], "malformed JSON in --tuple"),
        (["horn", "check", "--n", "4", "--tuple", deep], "malformed JSON in --tuple"),
        (["kirwan", "check", "--xi", f"[[{digits},0],[0,0]]"], "malformed JSON in --xi"),
        (["kirwan", "check", "--xi", '[["1e5000",0],[0,0]]'], 'bad --xi: entry "1e5000": Exceeds the limit'),
        (["kirwan", "check", "--xi", '[["1e-5000",0],[0,0]]'], 'bad --xi: entry "1e-5000": Exceeds the limit'),
    ]:
        assert main(argv) == 2, argv[:3]
        err = capsys.readouterr().err
        assert "Traceback" not in err and message in err, err[:200]
    matrix = tmp_path / "m.json"
    for bad in [{"field": "rational"}, {"field": {"prime": [7]}, "entries": [[1]]},
                {"field": "rational", "entries": [["1/0"]]}, {"field": "rational", "entries": [[[1]]]}]:
        matrix.write_text(json.dumps(bad))
        assert main(["pos", "compute", "--flag", str(matrix), "--subspace", str(matrix)]) == 2, bad
        assert "Traceback" not in capsys.readouterr().err
    for entries, message in [(f"[[{'1' * 4500}]]", f"malformed JSON in {matrix}"), (deep, f"malformed JSON in {matrix}"),
                             ('[["1e5000"]]', f'bad matrix file {matrix}: entry "1e5000"')]:
        matrix.write_text(f'{{"field": "rational", "entries": {entries}}}')
        assert main(["pos", "compute", "--flag", str(matrix), "--subspace", str(matrix)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and message in err, err[:200]
    # a file that is not UTF-8 (here a UTF-16 byte-order mark) is a usage error naming the file
    matrix.write_bytes(b"\xff\xfe{}")
    for argv in [["pos", "compute", "--flag", str(matrix), "--subspace", str(matrix)],
                 ["cell", "sample", "--n", "4", "--subset", "[1,3]", "--flag", str(matrix)]]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"cannot read {matrix}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["horn", "check", "--n", "4", "--tuple", "[[1.9,4],[2,3]]"], "bad --tuple: entry 1.9: not an integer"),
        (["horn", "check", "--n", "4", "--tuple", "[[true,4],[2,4]]"], "bad --tuple: entry true: not a number"),
        (["lr", "nonzero", "--lambda", "[[1.5,0],[0,0],[0,-1]]"], "bad --lambda: entry 1.5: not an integer"),
        (["cell", "sample", "--n", "4", "--subset", "[1.7,3]"], "bad --subset: entry 1.7: not an integer"),
        (["hn", "search", "--r", "2", "--theta", "[[0.5,1],[0,0],[0,0]]"], "bad --theta: entry 0.5: not an integer"),
        (["variational", "demo", "--j", "[1.2]"], "bad --j: entry 1.2: not an integer"),
        (["pos", "compute", "--flag", "prime.json", "--subspace", "prime.json"],
         "bad matrix file prime.json: entry 1.5: not an integer"),
        (["pos", "compute", "--flag", "rational.json", "--subspace", "rational.json"],
         "bad matrix file rational.json: entry true: not a number"),
    ],
)
def test_float_or_boolean_for_an_integer_exits_2(capsys, tmp_path, monkeypatch, argv, message):
    # payloads allow integers and strings: a float is not truncated, nor a boolean read as 1
    (tmp_path / "prime.json").write_text(json.dumps({"field": {"prime": 7}, "entries": [[1.5, 0], [0, 1]]}))
    (tmp_path / "rational.json").write_text(json.dumps({"field": "rational", "entries": [[True, 0], [0, 1]]}))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_integer_strings_and_exact_rationals_are_read(capsys, tmp_path):
    assert run(capsys, "horn", "check", "--n", "4", "--tuple", '[["1","4"],[2,"4"]]') == run(
        capsys, "horn", "check", "--n", "4", "--tuple", "[[1,4],[2,4]]"
    )
    flag = tmp_path / "flag.json"
    flag.write_text(json.dumps({"field": "rational", "entries": [[1.5, 0], [0, 1]]}))
    code, obj = run_json(capsys, "cell", "sample", "--n", "2", "--subset", "[1]", "--flag", str(flag))
    assert code == 0 and obj["basis"] == [["3/2"], ["0"]]


def test_unbounded_horn_scan_exits_2(capsys):
    # Horn(6, 14, 3) has 180,270,006 canonical candidates, far over the budget
    start = time.perf_counter()
    assert main(["horn", "enumerate", "--r", "6", "--n", "14"]) == 2
    assert time.perf_counter() - start < 10.0
    assert "candidates" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["horn", "check", "--n", "24", "--tuple", json.dumps([list(range(13, 25))] * 3)],
        ["kirwan", "ineqs", "--r", "12"],
    ],
)
def test_over_budget_query_exits_2_before_scanning(capsys, argv):
    # the (6, 12, 3) slice tests 1,252,473 candidates; the query is refused
    # before any level is scanned, not after the r <= 11 slices are built
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 5.0
    assert "candidates" in capsys.readouterr().err


def test_full_cardinality_enumerated_without_scanning(capsys, monkeypatch):
    # Horn(12, 12, 3) holds only ([12], [12], [12]); no level below it is built
    from horncalc.horn import HornTable

    built, build = [], HornTable._build
    monkeypatch.setattr(HornTable, "_build", lambda t, key, full=False: built.append(key) or build(t, key, full=full))
    answers = {}
    for r in (9, 12):
        start = time.perf_counter()
        code, answers[r] = run_json(capsys, "horn", "enumerate", "--r", str(r), "--n", str(r))
        assert code == 0 and time.perf_counter() - start < 1.0
        assert answers[r] == {"r": r, "n": r, "s": 3, "classes": [{"tuple": [list(range(1, r + 1))] * 3, "edim": 0}]}
    assert built == [(9, 9, 3), (12, 12, 3)]


def test_internal_failure_exits_3(capsys, monkeypatch):
    def broken(*_args):
        raise KeyError("boom")

    monkeypatch.setattr("horncalc.horn.horn_member", broken)
    assert main(["horn", "check", "--n", "4", "--tuple", "[[1,4],[2,4]]"]) == 3
    assert "KeyError" in capsys.readouterr().err


def test_unencodable_output_exits_3(capsys, monkeypatch):
    # main encodes the handler's answer inside its try: a NaN is an internal failure, not a verdict
    class NotFinite:
        def to_json(self):
            return {"lhs": float("nan")}

    monkeypatch.setattr("horncalc.kirwan.kirwan_check", lambda *_args: (True, [NotFinite()]))
    assert main(["kirwan", "check", "--xi", "[[1,0],[0,-1],[0,0]]"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "ValueError" in captured.err


# the refusal each of these edges names on stderr
EDGE_REFUSALS = {
    # _expand's listing budget: 2000 tuples of 2000 parts each
    "horn0 --d 1 --r 2 --s 2000": "would list 2000 tuples of 2000 parts",
    # check_budget's counting guard: 600 subsets x 3 parts x 600 budgets
    "horn0 --d 1 --r 600": "would take 1080000 steps",
    "kirwan check --xi [[1,0]]": "need s >= 2",
    "lr nonzero --lambda [[1,0]]": "need s >= 2",
    "kirwan check --xi [[1,0],[1]]": "all components must have the same length",
    # dominance is the chamber check of the cone point
    "lr nonzero --lambda [[0,1],[0,0],[0,0]]": "component 1 is not nonincreasing at positions (1, 2)",
}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["horn", "enumerate", "--r", "0", "--n", "3"], 2),
        (["kirwan", "ineqs", "--r", "2", "--s", "1"], 2),
        (["hn", "search", "--r", "2", "--budget", "0"], 2),
        # a --prime tested for truth instead of against None would certify over the default prime
        (["intersect", "certify", "--n", "2", "--tuple", "[[1],[2]]", "--prime", "0"], 2),
        (["horn0", "--d", "1", "--r", "2", "--s", "1"], 0),
        (["kirwan", "ineqs", "--r", "1"], 0),
        (["delta", "eval", "--n", "0", "--tuple", "[[],[],[]]"], 0),
        (["horn0", "--d", "1", "--r", "2", "--s", "2000"], 2),
        (["horn0", "--d", "1", "--r", "600"], 2),
        (["kirwan", "check", "--xi", "[[1,0]]"], 2),
        (["lr", "nonzero", "--lambda", "[[1,0]]"], 2),
        (["kirwan", "check", "--xi", "[[1,0],[1]]"], 2),
        (["lr", "nonzero", "--lambda", "[[0,1],[0,0],[0,0]]"], 2),
    ],
)
def test_integer_flag_edges_exit_code(capsys, argv, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert (captured.out == "") == (code == 2)
    assert EDGE_REFUSALS.get(" ".join(argv), "") in captured.err


class TestCertifyCommand:
    def test_true_and_deterministic(self, capsys):
        args = ("intersect", "certify", "--n", "4", "--tuple", "[[1,4],[2,4]]", "--seed", "9")
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        obj = json.loads(out1)
        assert obj["kind"] == "intersecting_certified"
        assert obj["field"] == {"prime": 2147483647}

    def test_false(self, capsys):
        code, obj = run_json(
            capsys, "intersect", "certify", "--n", "4", "--tuple", "[[1,4],[2,3]]", "--seed", "9"
        )
        assert code == 1 and obj["kind"] == "not_intersecting_mc"

    def test_large_tuple_with_empty_reduced_matrix(self, capsys):
        # r = 30: the stacked joint matrix is 1800 x 900, the reduced one has no columns
        tup = json.dumps([list(range(1, 31)), list(range(31, 61)), list(range(31, 61))])
        start = time.perf_counter()
        code, obj = run_json(capsys, "intersect", "certify", "--n", "60", "--tuple", tup)
        assert time.perf_counter() - start < 5
        assert code == 0 and obj["kind"] == "intersecting_certified" and obj["min_observed_dim"] == 0

    def test_rational_mode(self, capsys):
        code, obj = run_json(
            capsys,
            "intersect", "certify", "--n", "4", "--tuple", "[[1,4],[2,4]]",
            "--field", "rational", "--samples", "2", "--seed", "1",
        )
        assert code == 0 and obj["field"] == "rational"

    def test_composite_prime_rejected(self, capsys):
        assert main(["intersect", "certify", "--n", "4", "--tuple", "[[1,4],[2,4]]", "--prime", "10"]) == 2


class TestKirwanCommands:
    def test_ineqs_count(self, capsys):
        code, obj = run_json(capsys, "kirwan", "ineqs", "--r", "2", "--s", "3")
        assert code == 0 and obj["count"] == 3

    def test_ineqs_csv(self, capsys):
        code, out = run(capsys, "kirwan", "ineqs", "--r", "3", "--format", "csv")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "d,J1,J2,J3"
        assert len(lines) == 1 + APPENDIX_B_CLOSURE_SIZES[3] and lines[1] == "1,{1},{3},{3}"

    def test_ineqs_tex(self, capsys):
        code, out = run(capsys, "kirwan", "ineqs", "--r", "2", "--s", "3", "--format", "tex")
        assert code == 0 and "\\leq 0" in out

    def test_check_inside(self, capsys):
        code, obj = run_json(capsys, "kirwan", "check", "--xi", "[[1,-1],[1,-1],[1,-1]]")
        assert code == 0 and obj["member"] is True

    def test_check_outside_with_certificates(self, capsys):
        code, obj = run_json(capsys, "kirwan", "check", "--xi", "[[1,0],[1,0],[1,0]]")
        assert code == 1
        assert obj["violations"][0]["kind"] == "trace"

    def test_check_rational_strings(self, capsys):
        code, obj = run_json(capsys, "kirwan", "check", "--xi", '[["1/2","-1/2"],[0,0],["1/2","-1/2"]]')
        assert code == 0 and obj["member"] is True

    def test_non_chamber_exits_2(self, capsys):
        assert main(["kirwan", "check", "--xi", "[[0,1],[0,0],[0,0]]"]) == 2

    def test_check_rational_horn_violations_pinned(self, capsys):
        # a = (1, -2/3, -1), b = (3, 2, -1/2), c = (3, -1, -35/6); trace
        # -2/3 + 9/2 - 23/6 = 0.  Of the twelve r=3 inequalities exactly two
        # fail, listed in inequality-set order (d = 1 before d = 2):
        #   a(3) + b(3) + c(1)                      = -1 - 1/2 + 3   = 3/2
        #   a(2) + a(3) + b(2) + b(3) + c(1) + c(2) = -5/3 + 3/2 + 2 = 11/6
        # 3/2 is 9/6 over the common denominator 6, reported in lowest terms.
        code, out = run(capsys, "kirwan", "check", "--xi", '[[1,"-2/3",-1],[3,2,"-1/2"],[3,-1,"-35/6"]]')
        assert code == 1
        assert out == (
            '{"member": false, "violations": ['
            '{"d": 1, "j_tuple": [[3], [3], [1]], "kind": "horn", "lhs": [3, 2], "status": "violated"}, '
            '{"d": 2, "j_tuple": [[2, 3], [2, 3], [1, 2]], "kind": "horn", "lhs": [11, 6], "status": "violated"}'
            ']}\n'
        )


class TestLrCommand:
    def test_trace_violation(self, capsys):
        code, obj = run_json(capsys, "lr", "nonzero", "--lambda", "[[1,0],[1,0],[1,0]]")
        assert code == 1 and obj["nonzero"] is False

    def test_nonzero(self, capsys):
        code, obj = run_json(capsys, "lr", "nonzero", "--lambda", "[[1,-1],[1,-1],[1,-1]]")
        assert code == 0 and obj["nonzero"] is True
        assert "subset_tuple" in obj

    def test_horn_violations_pinned(self, capsys):
        # a = (3, 0, 0), b = (0, 0, -1), c = (0, -1, -1); trace 3 - 1 - 2 = 0.
        # Two of the twelve r=3 inequalities fail:
        #   a(1) + b(3) + c(3)                      = 3 - 1 - 1     = 1
        #   a(1) + a(3) + b(2) + b(3) + c(1) + c(3) = 3 + (-1) + (-1) = 1
        code, out = run(capsys, "lr", "nonzero", "--lambda", "[[3,0,0],[0,0,-1],[0,-1,-1]]")
        assert code == 1
        assert out == (
            '{"nonzero": false, "violations": ['
            '{"d": 1, "j_tuple": [[1], [3], [3]], "kind": "horn", "lhs": [1, 1], "status": "violated"}, '
            '{"d": 2, "j_tuple": [[1, 3], [2, 3], [1, 3]], "kind": "horn", "lhs": [1, 1], "status": "violated"}'
            '], "weights": [[3, 0, 0], [0, 0, -1], [0, -1, -1]]}\n'
        )


class TestGeometryCommands:
    def test_pos_compute_roundtrip(self, capsys, tmp_path):
        flag_file = tmp_path / "flag.json"
        sub_file = tmp_path / "sub.json"
        flag_file.write_text(json.dumps({
            "field": "rational",
            "entries": [["1", "0", "0", "0"], ["1", "1", "0", "0"], ["1", "1", "1", "0"], ["0", "0", "1", "1"]],
        }))
        sub_file.write_text(json.dumps({
            "field": "rational",
            "entries": [["1", "0"], ["0", "1"], ["0", "0"], ["0", "0"]],
        }))
        code, obj = run_json(capsys, "pos", "compute", "--flag", str(flag_file), "--subspace", str(sub_file))
        assert code == 0
        assert obj["position"] == [2, 4]

    def test_pos_field_mismatch(self, capsys, tmp_path):
        flag_file = tmp_path / "flag.json"
        sub_file = tmp_path / "sub.json"
        flag_file.write_text(json.dumps({"field": "rational", "entries": [["1"]]}))
        sub_file.write_text(json.dumps({"field": {"prime": 7}, "entries": [[1]]}))
        assert main(["pos", "compute", "--flag", str(flag_file), "--subspace", str(sub_file)]) == 2

    def test_cell_sample(self, capsys):
        code, obj = run_json(capsys, "cell", "sample", "--n", "4", "--subset", "[1,3,4]", "--seed", "3")
        assert code == 0
        assert obj["verified_position"] == [1, 3, 4]

    def test_cell_sample_flag_file_field(self, capsys, tmp_path):
        flag_file = tmp_path / "flag.json"
        flag_file.write_text(json.dumps({"field": {"prime": 7}, "entries": [[1, 0, 0], [2, 1, 0], [3, 4, 1]]}))
        argv = ["cell", "sample", "--n", "3", "--subset", "[2]", "--flag", str(flag_file), "--seed", "3"]
        # without --field/--prime the file's field is used; a matching one is accepted
        for extra in ([], ["--prime", "7"]):
            code, obj = run_json(capsys, *argv, *extra)
            assert code == 0 and obj["field"] == {"prime": 7} and obj["verified_position"] == [2]
        for extra in (["--prime", "11"], ["--field", "rational"]):
            assert main(argv + extra) == 2
            assert "field" in capsys.readouterr().err

    def test_cell_sample_prime_field(self, capsys):
        code, obj = run_json(
            capsys, "cell", "sample", "--n", "5", "--subset", "[2,5]", "--prime", "7", "--seed", "3"
        )
        assert code == 0 and obj["field"] == {"prime": 7}

    def test_hn_search(self, capsys):
        code, obj = run_json(capsys, "hn", "search", "--r", "3", "--q", "3", "--s", "2", "--seed", "4")
        assert code == 0
        assert obj["multiplicity"] == 1
        assert obj["subspaces_scanned"] == 27

    def test_hn_budget(self, capsys):
        assert main(["hn", "search", "--r", "5", "--q", "31", "--seed", "1", "--budget", "10"]) == 2

    # stdout recorded from the scan that computed each subspace's position with ``position``
    @pytest.mark.parametrize(
        "argv, stdout",
        [
            (
                ["--r", "4", "--q", "3", "--s", "3", "--seed", "4"],
                '{"dim": 1, "minimizer": [["1"], ["0"], ["0"], ["2"]], "multiplicity": 1, "q": 3, "r": 4, "seed": 4, "slope": [1, 1], "subspaces_scanned": 211, "thetas": [[-1, 0, 0, 3], [1, 1, 2, 4], [-3, -1, 2, 4]]}',
            ),
            (
                ["--r", "5", "--q", "2", "--s", "2", "--seed", "1"],
                '{"dim": 1, "minimizer": [["1"], ["0"], ["0"], ["0"], ["0"]], "multiplicity": 1, "q": 2, "r": 5, "seed": 1, "slope": [-2, 1], "subspaces_scanned": 373, "thetas": [[-4, 0, 2, 3, 3], [-4, -4, 0, 1, 4]]}',
            ),
            # repeated weight entries: equal slopes within and across dimensions
            (
                ["--r", "3", "--q", "5", "--s", "4", "--seed", "1", "--theta", "[[-1,-1,1],[-1,-1,1],[0,0,0],[0,0,0]]"],
                '{"dim": 1, "minimizer": [["0"], ["0"], ["1"]], "multiplicity": 1, "q": 5, "r": 3, "seed": 1, "slope": [-2, 1], "subspaces_scanned": 63, "thetas": [[-1, -1, 1], [-1, -1, 1], [0, 0, 0], [0, 0, 0]]}',
            ),
        ],
    )
    def test_hn_search_stdout_pinned(self, capsys, argv, stdout):
        assert run(capsys, "hn", "search", *argv) == (0, stdout + "\n")

    def test_hn_large_field_refused_before_any_flag(self, capsys, monkeypatch):
        from horncalc.flags import Flag

        def no_draw(*_args):
            raise RuntimeError("a flag was drawn")

        monkeypatch.setattr(Flag, "random", no_draw)
        start = time.perf_counter()
        assert main(["hn", "search", "--r", "2", "--q", "2147483647"]) == 2
        assert time.perf_counter() - start < 1
        assert "budget" in capsys.readouterr().err

    def test_rational_work_weighed_by_field(self, capsys):
        # a cell over Q counts 64 GF(p) cells: these took 3-9 s over Q when every field's cell counted one
        for argv in (
            ["delta", "eval", "--n", "40", "--tuple", "[[],[],[]]"],
            ["cell", "sample", "--n", "120", "--subset", "[1,3]"],
        ):
            start = time.perf_counter()
            assert main(argv) == 2
            assert time.perf_counter() - start < 1
            assert "at 64 GF(p) cells each over rational" in capsys.readouterr().err
        # the message states the weighted total it compares with the budget
        certify = ["intersect", "certify", "--n", "16", "--tuple", json.dumps([[5, 6, 7, 8, 13, 14, 15, 16]] * 3)]
        assert main(certify + ["--field", "rational"]) == 2
        err = capsys.readouterr().err
        assert "156672 elimination cells at 64 GF(p) cells each over rational, 10027008 GF(p) cells in all" in err
        assert main(["cell", "sample", "--n", "120", "--subset", "[1,3]", "--prime", "7"]) == 0

    def test_delta_eval(self, capsys):
        code, obj = run_json(
            capsys, "delta", "eval", "--n", "3", "--tuple", "[[1,2],[2,3],[2,3]]", "--seed", "6"
        )
        assert code == 0
        assert obj["delta"] != "0"

    def test_variational_demo(self, capsys):
        code, obj = run_json(
            capsys, "variational", "demo", "--r", "6", "--j", "[2,4,6]", "--trials", "20", "--seed", "7"
        )
        assert code == 0 and obj["ok"] is True

    def test_variational_demo_huge_spectrum(self, capsys):
        # --tolerance scales with sum |xi|, so rounding at 1e300 is not "false"
        code, obj = run_json(capsys, "variational", "demo", "--r", "3", "--j", "[1,2]", "--xi", "[1e300,1e300,-1e300]")
        assert code == 0 and obj["ok"] is True


class TestTablesAndFixtures:
    def test_appendix_a(self, capsys):
        code, obj = run_json(capsys, "tables", "appendix-a")
        assert code == 0
        assert obj["verified"] is True
        assert len(obj["tables"]) == 6

    def test_appendix_a_text(self, capsys):
        code, out = run(capsys, "tables", "appendix-a", "--format", "text")
        assert code == 0
        assert "Horn(3,4,3)" in out

    def test_appendix_b(self, capsys):
        code, obj = run_json(capsys, "tables", "appendix-b")
        assert code == 0
        counts = {block["r"]: block["count"] for block in obj["tables"]}
        assert counts == {2: 3, 3: 12, 4: 41}

    def test_two_point_fixture(self, capsys):
        code, obj = run_json(capsys, "fixtures", "two-point")
        assert code == 0
        assert obj["ok"] is True
        assert all(check["position"] == [2, 4, 6] for check in obj["checks"])


def test_determinism_across_commands(capsys):
    for argv in (
        ["horn", "enumerate", "--r", "2", "--n", "4"],
        ["kirwan", "ineqs", "--r", "3"],
        ["hn", "search", "--r", "2", "--q", "2", "--seed", "11"],
        ["delta", "eval", "--n", "3", "--tuple", "[[1,2],[2,3],[2,3]]", "--seed", "12"],
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def test_recorded_argvs_replay(capsys, tmp_path, monkeypatch):
    # the exit code and stdout digest of every argv the benchmark's cli workload runs
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "data", "expected.json")
    with open(path) as fh:
        expected = json.load(fh)
    for name, obj in expected["cli_files"].items():
        (tmp_path / name).write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)
    assert len(expected["cli"]) == 78
    for entry in expected["cli"]:
        code, out = run(capsys, *entry["argv"])
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (entry["exit"], entry["sha256"]), entry["argv"]


# ---------------------------------------------------------------- start-up


def fresh(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports this horncalc."""
    src = os.path.dirname(os.path.dirname(horncalc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return proc.stdout


LOADED = (
    "import json, sys; print(json.dumps(sorted(m for m in sys.modules"
    " if m.startswith('horncalc') or m in ('dataclasses', 'fractions', 'inspect', 'numpy'))))"
)


def test_cli_import_loads_only_errors():
    assert json.loads(fresh("import horncalc.cli; " + LOADED)) == [
        "horncalc",
        "horncalc.cli",
        "horncalc.errors",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["horn", "check", "--n", "4", "--tuple", "[[1,4],[2,4]]"],
        ["lr", "nonzero", "--lambda", "[[1,0],[0,0],[0,-1]]"],
        ["kirwan", "check", "--xi", "[[1,0],[0,0],[0,-1]]"],
    ],
    ids=["horn-check", "lr-nonzero", "kirwan-check"],
)
def test_horn_check_loads_no_geometry(argv):
    out = fresh(
        "import contextlib, io\n"
        "from horncalc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n" + LOADED
    )
    loaded = set(json.loads(out))
    assert "horncalc.horn" in loaded
    assert not loaded & {f"horncalc.{m}" for m in ("tangent", "matrices", "flags", "fields")}
    assert not loaded & {"dataclasses", "inspect", "numpy"}
    # the Kirwan commands read rational points; a Horn query needs no fractions
    assert ("fractions" in loaded) == (argv[0] != "horn")


def test_no_module_loads_dataclasses():
    names = sorted(set(horncalc._EXPORTS.values()) | {"cli", "rng", "tables"})
    out = fresh("".join(f"import horncalc.{m}; " for m in names) + LOADED)
    assert not set(json.loads(out)) & {"dataclasses", "inspect", "numpy"}


def test_lazy_namespace():
    assert horncalc.__all__ and set(horncalc.__all__) <= set(dir(horncalc))
    for name in horncalc.__all__:
        module = importlib.import_module(f"horncalc.{horncalc._EXPORTS[name]}")
        assert getattr(horncalc, name) is getattr(module, name), name
    from horncalc import horn, horn_member

    assert horn_member is horn.horn_member and horncalc.horn is horn
    assert horncalc.tables is importlib.import_module("horncalc.tables")
    with pytest.raises(AttributeError):
        horncalc.no_such_name
    with pytest.raises(ImportError):
        from horncalc import no_such_name  # noqa: F401


# ---------------------------------------------------------------- fuzz

JUNK = [0, 1, -1, 2, 10**40, -(10**40), 0.5, 1e308, "a", "", "1/0", True, None, {}, {"a": 1}, [], [[]]]
SIZES = ["0", "1", "2", "3", "4", "6", "12", "1000", "1000000", "1000000000000000000", "-5"]
# (argv before the value, a valid value, argv after it); "{n}", "{k}", "{q}" are sizes
TEMPLATES = [
    (["horn", "check", "--n", "{n}", "--tuple"], [[1, 4], [2, 4]], []),
    (["intersect", "certify", "--n", "{n}", "--tuple"], [[1, 4], [2, 4]], ["--samples", "{k}"]),
    (["delta", "eval", "--n", "{n}", "--tuple"], [[1, 3], [2, 4], [3, 4]], []),
    (["kirwan", "check", "--xi"], [[1, 0], [0, -1], [0, 0]], []),
    (["lr", "nonzero", "--lambda"], [[1, 0], [1, 0], [2, 0]], []),
    (["cell", "sample", "--n", "{n}", "--subset"], [1, 3], []),
    (["hn", "search", "--r", "{n}", "--theta"], [[-1, 0], [0, 1], [0, 0]], ["--q", "{q}"]),
    (["variational", "demo", "--r", "{n}", "--j"], [1, 2], []),
    (["variational", "demo", "--r", "{n}", "--j", "[1]", "--xi"], [1, 0, -1], ["--trials", "{k}"]),
    (["pos", "compute", "--flag", "{file}", "--subspace", "{file}"], [[1, 0], [0, 1]], []),
]


def _leaves(v, path=()):
    if isinstance(v, list):
        for i, x in enumerate(v):
            yield from _leaves(x, path + (i,))
    else:
        yield path


def _replace(v, path, new):
    if not path:
        return new
    return [_replace(x, path[1:], new) if i == path[0] else x for i, x in enumerate(v)]


def _mutate(rnd, v):
    kind = rnd.randrange(7)
    if kind == 0:  # nested too deep
        return rnd.choice([[v], [[v]]])
    if kind == 1:  # nested too shallow
        return [x for part in v for x in (part if isinstance(part, list) else [part])] or 1
    if kind == 2:  # one entry of a wrong type or size
        return _replace(v, rnd.choice(list(_leaves(v))), rnd.choice(JUNK))
    if kind == 3:  # empty lists
        return rnd.choice([[], [[]], [[], []], [[]] * 3])
    if kind == 4:  # many parts
        return [v[0]] * rnd.choice([4, 50, 1000])
    if kind == 5:  # long parts
        k = rnd.choice([30, 200, 2000])
        return [list(range(1, k + 1)) for _ in v] if isinstance(v[0], list) else list(range(1, k + 1))
    return rnd.choice(JUNK)


def fuzz_cases(seed: int, count: int):
    rnd = random.Random(seed)
    for _ in range(count):
        before, valid, after = rnd.choice(TEMPLATES)
        value = valid if rnd.random() < 0.1 else _mutate(rnd, valid)
        sizes = {"n": rnd.choice(SIZES), "k": rnd.choice(["1", "3", "1000000000"]), "q": rnd.choice(["2", "3", "4", "1000000007"])}
        yield [a.format(**sizes, file="{file}") for a in before], value, [a.format(**sizes) for a in after]


def test_fuzz_json_flags_exit_0_1_2(capsys, tmp_path):
    # handler imports run inside main's try, so an import slip would exit 3 here
    matrix = tmp_path / "m.json"
    for before, value, after in fuzz_cases(seed=2026, count=240):
        if "{file}" in before:
            matrix.write_text(json.dumps({"field": "rational", "entries": value}))
            argv = [str(matrix) if a == "{file}" else a for a in before] + after
        else:
            argv = before + [json.dumps(value)] + after
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, err)
        assert elapsed < 5, (argv, elapsed)
        assert "Traceback" not in err, argv
