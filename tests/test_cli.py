"""Command-line interface: subcommands, exit codes, JSON output."""

from __future__ import annotations

import io
import json
import random
import re
import shlex
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friezecalc import FieldDescriptor, FriezeMatrix, cli, parse_element, serialize, zerofrieze
from friezecalc.cli import DEFAULT_SEED, _dumps, run
from friezecalc.generators import random_two_row_matrix

from conftest import FIXTURES

EXM_PRINTED = str(FIXTURES / "exm_as_printed.json")
EXM_CORRECTED = str(FIXTURES / "exm_corrected.json")
CONST23 = str(FIXTURES / "const23_seeds.json")
FIGURE = str(FIXTURES / "figure_frieze_seeds.json")
ZERO_EXAMPLE = str(FIXTURES / "zerofrieze_example_seeds.json")
TWO_ROW = str(FIXTURES / "two_row_123_456.json")


def _ones_matrix(n):
    """An n x n matrix document: 0 on the diagonal, 1 elsewhere."""
    return {"n": n, "entries": [["0" if i == j else "1" for j in range(n)] for i in range(n)]}


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestValidate:
    def test_corrected_passes(self, capsys):
        code, out = run_json(capsys, ["validate", EXM_CORRECTED])
        assert code == 0 and out["ok"]

    def test_printed_fails_at_3_5(self, capsys):
        code, out = run_json(capsys, ["validate", EXM_PRINTED])
        assert code == 1 and not out["ok"]
        assert out["violations"] == [
            {"rule": "diamond", "indices": [3, 5], "lhs": "-6", "rhs": "6"}
        ]

    def test_ptolemy_flag(self, capsys):
        code, out = run_json(capsys, ["validate", EXM_CORRECTED, "--ptolemy"])
        assert code == 0 and out["ptolemy"]["ok"]

    def test_missing_file(self, capsys):
        assert run(["validate", "no-such-file.json"]) == 2

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run(["validate", str(bad)]) == 2

    def test_usage_error(self):
        assert run(["validate"]) == 2
        assert run(["no-such-command"]) == 2


class TestDet:
    def test_both_methods_agree(self, capsys):
        code, out = run_json(capsys, ["det", EXM_CORRECTED, "--method", "both"])
        assert code == 0
        assert out["closed"] == out["elimination"] == "-384 - 192*sqrt(5)"
        assert out["equal"]

    def test_single_methods(self, capsys):
        code, out = run_json(capsys, ["det", EXM_CORRECTED, "--method", "closed"])
        assert code == 0 and out["det"] == "-384 - 192*sqrt(5)"
        code, out = run_json(capsys, ["det", EXM_CORRECTED, "--method", "eliminate"])
        assert code == 0 and out["det"] == "-384 - 192*sqrt(5)"

    def test_closed_form_requires_valid_input(self, capsys):
        code, out = run_json(capsys, ["det", EXM_PRINTED, "--method", "closed"])
        assert code == 1 and not out["ok"]

    def test_eliminate_works_on_any_square_input(self, capsys):
        code, out = run_json(capsys, ["det", EXM_PRINTED, "--method", "eliminate"])
        assert code == 0


class TestTriangulate:
    def test_json_output(self, capsys):
        code, out = run_json(capsys, ["triangulate", EXM_CORRECTED])
        assert code == 0
        diag = [out["t"]["entries"][i][i] for i in range(6)]
        assert diag == ["1", "1", "8", "-12", "2", "-2 - sqrt(5)"]

    def test_trace_and_props(self, capsys):
        code, out = run_json(
            capsys, ["triangulate", EXM_CORRECTED, "--trace", "--check-props"]
        )
        assert code == 0
        assert out["trace_matches_closed_form"]
        assert len(out["trace"]["matrices"]) == 6
        assert out["trace"]["steps"][0] == "swap rows 1 and 2"
        assert out["properties"]["ok"]

    def test_invalid_input_fails(self, capsys):
        code, out = run_json(capsys, ["triangulate", EXM_PRINTED])
        assert code == 1


class TestReconstruct:
    def test_matches_stored(self, capsys):
        code, out = run_json(
            capsys, ["reconstruct", EXM_CORRECTED, "--i", "3", "--j", "4"]
        )
        assert code == 0
        assert out["reconstructed"] == out["stored"] == "6"

    def test_out_of_range(self, capsys):
        assert run(["reconstruct", EXM_CORRECTED, "--i", "2", "--j", "4"]) == 2


class TestFrieze:
    def test_gen_json(self, capsys):
        code, out = run_json(
            capsys, ["frieze", "gen", "--seeds", CONST23, "--rows", "6", "--cols", "4"]
        )
        assert code == 0
        assert out["rows"][0] == ["0", "0", "0", "0"]
        assert out["rows"][1] == ["2", "2", "2", "2"]
        assert out["rows"][5] == ["-11/8"] * 4

    def test_gen_grid(self, capsys):
        code = run(
            ["frieze", "gen", "--seeds", CONST23, "--rows", "4", "--cols", "4", "--grid"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "5/2" in out and "\n" in out

    def test_cone(self, capsys):
        code, out = run_json(
            capsys, ["frieze", "cone", "--seeds", CONST23, "--i", "0", "--j", "3"]
        )
        assert code == 0
        assert len(out["entries"]) == 10
        values = {(e["x"], e["y"]): e["value"] for e in out["entries"]}
        assert values[(0, 3)] == "5/2"

    def test_extract_matrix_json(self, capsys):
        code, out = run_json(
            capsys,
            ["frieze", "extract", "--seeds", FIGURE, "--k", "2", "--n", "3", "--sign", "plus"],
        )
        assert code == 0
        assert out["entries"] == [["0", "6", "-1"], ["6", "0", "2"], ["-1", "2", "0"]]
        code, out = run_json(
            capsys,
            ["frieze", "extract", "--seeds", FIGURE, "--k", "2", "--n", "3", "--sign", "minus"],
        )
        assert code == 0
        assert out["entries"] == [["0", "6", "1"], ["6", "0", "-2"], ["1", "-2", "0"]]

    def test_extract_det_roundtrip(self, capsys, tmp_path):
        code, out = run_json(
            capsys,
            ["frieze", "extract", "--seeds", FIGURE, "--k", "0", "--n", "6", "--sign", "plus"],
        )
        assert code == 0
        path = tmp_path / "m.json"
        path.write_text(json.dumps(out))
        code, det = run_json(capsys, ["det", str(path), "--method", "both"])
        assert code == 0 and det["equal"]
        assert det["closed"] == "-384 - 192*sqrt(5)"

    def test_period(self, capsys):
        code, out = run_json(
            capsys, ["frieze", "period", "--seeds", CONST23, "--max", "4", "--depth", "5"]
        )
        assert code == 0 and out["period"] == 1

    def test_extract_det_pipeline_20_cases(self, capsys, monkeypatch, tmp_path):
        # extract --json | det --method both, checked against the closed form
        # -(-2)^(n-2) * m[1,n] * prod(x_i) applied to the emitted entries
        import io

        from friezecalc import det_closed_form
        from friezecalc.serialize import matrix_from_json

        wide = tmp_path / "wide.json"
        wide.write_text(
            json.dumps(
                {
                    "field": {"kind": "rational"},
                    "x": {"cycle": ["1", "-2"]},
                    "y": {"cycle": ["3", "-1"]},
                }
            )
        )
        cases = []
        for n in (2, 3, 4, 5, 6):
            cases.append((CONST23, 0, n, "plus"))
            cases.append((CONST23, -1, n, "minus"))
            cases.append((str(wide), 1, n, "plus"))
            cases.append((str(wide), 2, n, "minus"))
        assert len(cases) == 20
        for seeds, k, n, sign in cases:
            code, doc = run_json(
                capsys,
                ["frieze", "extract", "--seeds", seeds, "--k", str(k),
                 "--n", str(n), "--sign", sign, "--json"],
            )
            assert code == 0
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
            code, det = run_json(capsys, ["det", "-", "--method", "both"])
            assert code == 0 and det["equal"]
            m = matrix_from_json(doc)
            assert str(det_closed_form(m)) == det["closed"]

    def test_gen_error_when_seeds_admit_no_frieze(self, capsys, tmp_path):
        seeds = tmp_path / "ones.json"
        seeds.write_text(
            json.dumps({"field": {"kind": "rational"}, "x": {"cycle": ["1"]}, "y": {"cycle": ["1"]}})
        )
        code, out = run_json(
            capsys, ["frieze", "gen", "--seeds", str(seeds), "--rows", "5", "--cols", "3"]
        )
        assert code == 1 and not out["ok"]


class TestZeroFrieze:
    def test_gen(self, capsys):
        code, out = run_json(
            capsys,
            ["zerofrieze", "gen", "--seeds", ZERO_EXAMPLE, "--rows", "5", "--cols", "3",
             "--start", "-1"],
        )
        assert code == 0
        assert out["rows"][0] == ["-4", "-4", "-4"]
        assert out["rows"][1] == ["-3/5", "-5/3", "-3"]
        assert out["rows"][2][0] == "-1/4"

    def test_from_frieze(self, capsys):
        code, out = run_json(
            capsys,
            ["zerofrieze", "from-frieze", "--seeds", CONST23, "--k", "0",
             "--rows", "4", "--cols", "4"],
        )
        assert code == 0
        assert out["rows"][0] == ["-4", "-4", "-4", "-4"]
        assert out["rows"][1][2] == "2"  # v at i = 2 equals x_k

    def test_check_ok(self, capsys):
        code, out = run_json(
            capsys,
            ["zerofrieze", "check", ZERO_EXAMPLE, "--rows", "5", "--cols", "3",
             "--start", "-2"],
        )
        assert code == 0 and out["ok"] and out["rank1"]["ok"]

    def test_check_detects_corruption(self, capsys, tmp_path):
        seeds = tmp_path / "zero.json"
        # a zero in the v row is rejected up front by the seed loader
        seeds.write_text(
            json.dumps({"field": {"kind": "rational"}, "u": {"cycle": ["1"]},
                        "v": {"cycle": ["0"]}})
        )
        assert run(["zerofrieze", "check", str(seeds)]) == 2


class TestCcAndBm:
    def test_cc_check(self, capsys):
        code, out = run_json(capsys, ["cc", "check", "--quiddity", "1,2,1,2"])
        assert code == 0
        assert out["det"] == out["expected"] == "-4"

    def test_cc_check_order_violation(self, capsys):
        code, out = run_json(capsys, ["cc", "check", "--quiddity", "2,2,2"])
        assert code == 1 and not out["ok"]

    def test_cc_check_bad_sequence(self, capsys):
        assert run(["cc", "check", "--quiddity", "1,x,2"]) == 2

    def test_cc_random_echoes_seed(self, capsys):
        code, out = run_json(
            capsys, ["cc", "random", "--k", "6", "--count", "5", "--seed", "11"]
        )
        assert code == 0 and out["ok"] and out["seed"] == 11
        assert len(out["cases"]) == 5

    def test_cc_random_deterministic(self, capsys):
        _, first = run_json(capsys, ["cc", "random", "--k", "7", "--count", "3"])
        _, second = run_json(capsys, ["cc", "random", "--k", "7", "--count", "3"])
        assert first == second

    def test_bm_check(self, capsys):
        code, out = run_json(capsys, ["bm", "check", "--matrix", TWO_ROW])
        assert code == 0
        assert out["det"] == out["expected"] == "-108"

    def test_bm_random(self, capsys):
        code, out = run_json(
            capsys, ["bm", "random", "--n", "5", "--count", "4", "--seed", "3"]
        )
        assert code == 0 and out["ok"] and out["seed"] == 3
        assert len(out["cases"]) == 4

    def test_bm_random_at_size_cap(self, capsys):
        code, out = run_json(capsys, ["bm", "random", "--n", "20", "--count", "3"])
        assert code == 0 and out["ok"] and len(out["cases"]) == 3

    def test_bm_zero_minor_is_check_failure(self, capsys, tmp_path):
        doc = tmp_path / "prop.json"
        doc.write_text(
            json.dumps({"field": {"kind": "rational"},
                        "rows": [["1", "2", "2"], ["2", "4", "1"]]})
        )
        code, out = run_json(capsys, ["bm", "check", "--matrix", str(doc)])
        assert code == 1 and not out["ok"]

    @pytest.mark.parametrize(
        "argv, rows, keys",
        [
            (["cc", "check", "--quiddity", "1,2,1,2"], None,
             ["quiddity", "k", "det", "det_oracle", "expected", "ok"]),
            (["cc", "check", "--quiddity", "2,2,2"], None, ["quiddity", "ok", "error"]),
            (["bm", "check", "--matrix"], [["1", "2", "3"], ["4", "5", "6"]],
             ["n", "rows", "det", "det_oracle", "expected", "ok"]),
            (["bm", "check", "--matrix"], [["1", "2", "2"], ["2", "4", "1"]], ["n", "ok", "error"]),
        ],
        ids=["cc", "cc-error", "bm", "bm-error"],
    )
    def test_report_keys_in_order(self, capsys, tmp_path, argv, rows, keys):
        if rows is not None:
            doc = tmp_path / "two_row.json"
            doc.write_text(json.dumps({"rows": rows}))
            argv = [*argv, str(doc)]
        _, out = run_json(capsys, argv)
        assert list(out) == keys


class TestBadInputExits2:
    def test_bm_random_without_a_valid_draw(self, capsys):
        # At n = 30 the default seed's 500 draws all have a zero minor, so
        # the size cap refuses n = 30 before the generator runs.
        assert run(["bm", "random", "--n", "30", "--count", "1"]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "must be at most 20, got 30" in captured.err
        with pytest.raises(ValueError, match="no nonzero-minor 2x30 matrix"):
            random_two_row_matrix(random.Random(DEFAULT_SEED), 30)

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["validate"], {"n": 2, "entries": [["0", "1/0"], ["1/0", "0"]]}),
            (["frieze", "gen", "--rows", "3", "--cols", "2", "--seeds"],
             {"x": {"cycle": ["1/0"]}, "y": {"cycle": ["3"]}}),
            (["bm", "check", "--matrix"], {"rows": [["1", "2"], ["3", "1/0"]]}),
            (["validate"], {"n": 2.0, "entries": [["0", "1"], ["1", "0"]]}),
            (["validate"], {"n": True, "entries": [["0", "1"], ["1", "0"]]}),
            (["frieze", "gen", "--rows", "3", "--cols", "2", "--seeds"],
             {"x": {"cycle": ["1"]}, "y": {"table": {"start": True, "values": ["3"]}}}),
        ],
        ids=["matrix-1/0", "seeds-1/0", "two-row-1/0", "n-float", "n-bool", "start-bool"],
    )
    def test_bad_document(self, capsys, tmp_path, argv, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert run([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cc", "random", "--k", "6", "--count", "-1"],
            ["bm", "random", "--n", "6", "--count", "0"],
            ["frieze", "gen", "--seeds", CONST23, "--rows", "-3", "--cols", "2"],
            ["frieze", "gen", "--seeds", CONST23, "--rows", "3", "--cols", "0"],
            ["zerofrieze", "gen", "--seeds", ZERO_EXAMPLE, "--rows", "0", "--cols", "2"],
            ["zerofrieze", "check", ZERO_EXAMPLE, "--cols", "-1"],
        ],
    )
    def test_sizes_below_one(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be at least 1" in captured.err

    def test_one_row_check_window(self, capsys, monkeypatch):
        # The u row's cells share no index, so a one-row window of more than
        # one column cannot be factored; it is refused before any cell is read.
        def no_cell(*args):
            raise AssertionError("a cell was computed")

        with monkeypatch.context() as m:
            m.setattr(zerofrieze.ZeroFrieze, "entry", no_cell)
            assert run(["zerofrieze", "check", ZERO_EXAMPLE, "--rows", "1", "--cols", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "error: --rows must be at least 2 when --cols is more than 1" in captured.err
        assert run(["zerofrieze", "check", ZERO_EXAMPLE, "--rows", "1", "--cols", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["rank1"]["ok"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["cc", "random", "--k", "3000", "--count", "1"],
            ["cc", "random", "--k", "201", "--count", "1"],
            ["bm", "random", "--n", "201", "--count", "1"],
            ["cc", "random", "--k", "6", "--count", "1001"],
            ["bm", "random", "--n", "21", "--count", "1"],
        ],
    )
    def test_sizes_above_cap(self, capsys, argv):
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert captured.out == "" and "error: argument" in captured.err
        assert "must be at most" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["frieze", "gen", "--seeds", CONST23, "--rows", "101", "--cols", "2"],
             "argument --rows: must be at most 100, got 101"),
            (["zerofrieze", "gen", "--seeds", ZERO_EXAMPLE, "--rows", "2", "--cols", "3000"],
             "argument --cols: must be at most 100, got 3000"),
            (["frieze", "extract", "--seeds", FIGURE, "--k", "0", "--n", "3000", "--sign", "plus"],
             "argument --n: must be at most 200, got 3000"),
            (["frieze", "period", "--seeds", CONST23, "--max", "5000", "--depth", "5"],
             "argument --max: must be at most 100, got 5000"),
            (["frieze", "period", "--seeds", CONST23, "--max", "4", "--depth", "101"],
             "argument --depth: must be at most 100, got 101"),
            (["frieze", "cone", "--seeds", CONST23, "--i", "-1", "--j", "200"],
             "cone extent j - i must be at most 200, got 201"),
            (["zerofrieze", "from-frieze", "--seeds", CONST23, "--k", "0",
              "--rows", "2", "--cols", "2", "--start", "3000"],
             "must be at most 200, got 3004"),
            (["zerofrieze", "from-frieze", "--seeds", CONST23, "--k", "0",
              "--rows", "2", "--cols", "2", "--start", "-3000"],
             "must be at most 200, got 3002"),
            (["cc", "check", "--quiddity", ",".join(["1"] * 3000)],
             "quiddity length must be at most 200, got 3000"),
        ],
        ids=["rows", "cols", "extract-n", "period-max", "period-depth", "cone-extent",
             "reach-right", "reach-left", "quiddity-length"],
    )
    def test_frieze_sizes_above_cap(self, capsys, argv, message):
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["frieze", "cone", "--seeds", CONST23, "--i", "-100", "--j", "100"],
            ["zerofrieze", "from-frieze", "--seeds", CONST23, "--k", "0",
             "--rows", "2", "--cols", "2", "--start", "-198"],
            ["frieze", "period", "--seeds", CONST23, "--max", "100", "--depth", "100"],
            ["cc", "check", "--quiddity", ",".join(map(str, [198, 1] + [2] * 197 + [1]))],
        ],
        ids=["cone-extent", "reach", "period", "quiddity-length"],
    )
    def test_frieze_sizes_at_cap(self, capsys, argv):
        assert run(argv) == 0

    @pytest.mark.parametrize(
        "argv",
        [["validate"], ["frieze", "gen", "--rows", "2", "--cols", "2", "--seeds"]],
    )
    def test_deeply_nested_json(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert run([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "nested too deeply" in captured.err

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            (["validate", "DOC"], _ones_matrix(25), "matrix size n must be at most 24, got 25"),
            (["det", "DOC", "--method", "eliminate"], _ones_matrix(80),
             "matrix size n must be at most 24, got 80"),
            (["bm", "check", "--matrix", "DOC"],
             {"rows": [[str(v) for v in range(1, 42)], ["1"] * 41]},
             "two-row size n must be at most 40, got 41"),
        ],
        ids=["matrix-n", "matrix-n-det", "two-row-n"],
    )
    def test_document_sizes_above_cap(self, capsys, tmp_path, argv, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert run([str(path) if a == "DOC" else a for a in argv]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cc", "random", "--k", "200", "--count", "1000"],
             "count * (k + 12)^3 must be at most 19056256, got 9528128000"),
            (["cc", "random", "--k", "200", "--count", "3"],
             "count * (k + 12)^3 must be at most 19056256, got 28584384"),
            (["bm", "random", "--n", "20", "--count", "1000"],
             "count * (n + 12)^3 must be at most 1638400, got 32768000"),
            (["bm", "random", "--n", "20", "--count", "51"],
             "count * (n + 12)^3 must be at most 1638400, got 1671168"),
        ],
        ids=["cc-caps", "cc-over-budget", "bm-caps", "bm-over-budget"],
    )
    def test_random_work_above_cap(self, capsys, argv, message):
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_oversized_document_is_refused_before_parsing(self, capsys, tmp_path, monkeypatch):
        calls = []
        parse = serialize.parse_element
        monkeypatch.setattr(serialize, "parse_element", lambda *a: calls.append(a) or parse(*a))
        n = cli.MAX_MATRIX_SIZE + 6
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"n": n, "entries": [["x/"] * n for _ in range(n)]}))
        assert run(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"matrix size n must be at most {cli.MAX_MATRIX_SIZE}, got {n}" in captured.err
        assert calls == []

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["det", "DOC", "--method", "eliminate"], _ones_matrix(24)),
            (["bm", "check", "--matrix", "DOC"],
             {"rows": [[str(v) for v in range(1, 41)], ["1"] * 40]}),
        ],
        ids=["matrix-n", "two-row-n"],
    )
    def test_document_sizes_at_cap(self, capsys, tmp_path, argv, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert run([str(path) if a == "DOC" else a for a in argv]) == 0


class TestParserReuse:
    """`run` reuses one argparse tree per process; parsing leaves it unchanged."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reused_parser_matches_a_fresh_one(self, capsys, monkeypatch):
        cc = ["cc", "check", "--quiddity", "1,2,1,2"]
        gen = ["frieze", "gen", "--seeds", CONST23, "--cols", "3"]
        argvs = [
            cc,
            ["validate", EXM_PRINTED],
            gen + ["--rows", "4", "--grid"],
            gen + ["--rows", "3000"],
            ["no-such-command"],
            ["--help"],
            ["frieze", "gen", "--help"],
            cc,
        ]

        def outputs():
            return [(run(argv), *capsys.readouterr()) for argv in argvs]

        reused = outputs()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = outputs()
        assert [code for code, _, _ in reused] == [0, 1, 0, 2, 2, 0, 0, 0]
        assert reused == fresh


class TestMatrixDocumentMemo:
    """`matrix_from_json` parses each distinct entry text once per document."""

    DOC = {
        "field": {"kind": "quadratic", "d": 5},
        "entries": [
            ["0", "1/2", "2/4", "1 + sqrt(5)"],
            ["1/2", "0", "1+sqrt(5)", "0"],
            ["2/4", "1+sqrt(5)", "0", "-3/7*sqrt(5)"],
            ["1 + sqrt(5)", "0", "-3/7*sqrt(5)", "0"],
        ],
    }

    @staticmethod
    def _count_parses(monkeypatch):
        texts = []
        parse = serialize.parse_element
        monkeypatch.setattr(serialize, "parse_element", lambda t, fd: texts.append(t) or parse(t, fd))
        return texts

    def test_equals_per_entry_parsing(self, monkeypatch):
        texts = self._count_parses(monkeypatch)
        m = serialize.matrix_from_json(self.DOC)
        q5 = FieldDescriptor(5)
        expected = FriezeMatrix([[parse_element(s, q5) for s in row] for row in self.DOC["entries"]])
        assert m == expected and m.field == expected.field
        assert [[(e.field, str(e)) for e in r] for r in m.rows()] == [
            [(e.field, str(e)) for e in r] for r in expected.rows()
        ]
        # "0" is a falsy element, parsed once like every other text.
        assert sorted(texts) == sorted({s for row in self.DOC["entries"] for s in row})
        assert m.entry(1, 2) is m.entry(2, 1) and m.entry(1, 1) is m.entry(4, 4)
        assert m.entry(1, 2) == m.entry(1, 3)  # "1/2" and "2/4": one value, two texts

    @pytest.mark.parametrize(
        "bad, error",
        [("1/0", "element '1/0' has a zero denominator"),
         ("sqrt(3)", "sqrt(3) does not belong to Q(sqrt(5))")],
    )
    def test_bad_entry_after_repeated_text(self, monkeypatch, bad, error):
        doc = {"field": {"kind": "quadratic", "d": 5},
               "entries": [["0", "1/2", "1/2"], ["1/2", "0", bad], ["1/2", bad, "0"]]}
        with pytest.raises(ValueError) as per_entry:
            [serialize._element(s, FieldDescriptor(5)) for row in doc["entries"] for s in row]
        assert str(per_entry.value) == error
        texts = self._count_parses(monkeypatch)
        for _ in range(2):  # an error is raised again, never remembered
            with pytest.raises(ValueError) as raised:
                serialize.matrix_from_json(doc)
            assert (type(raised.value), str(raised.value)) == (type(per_entry.value), error)
        assert texts == ["0", "1/2", bad] * 2

    @pytest.mark.parametrize("entry", [[1], {"a": 1}, ["1/2"]], ids=["list", "object", "text-list"])
    def test_json_container_entry_exits_2(self, capsys, tmp_path, entry):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"entries": [["0", entry], [entry, "0"]]}))
        assert run(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err


_json_leaves = (
    st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u2028", "\u00e9", "\U0001f600"])
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.booleans()
    | st.none()
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)


@st.composite
def values_with_a_shared_row(draw):
    """A nested value holding one list of strings twice at one depth and once
    at another, which a text kept by id alone would indent wrongly."""
    row = draw(st.lists(st.text(), max_size=4))
    return {"twice": [row, row], "once": row, "value": draw(_json_values)}


def _readme_commands():
    """The commands of the README's CLI block, each a list of argv pipeline stages."""
    text = (FIXTURES.parent.parent / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [
        [shlex.split(part, comments=True)[1:] for part in line.split("|")]
        for line in lines
        if line.startswith("friezecalc ")
    ]


class TestJsonWriter:
    @given(_json_values | values_with_a_shared_row())
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, value):
        assert _dumps(value) == json.dumps(value, indent=2)

    def test_float_raises(self):
        for value in (1.5, [1, 2.0], {"a": (float("nan"),)}):
            with pytest.raises(TypeError):
                _dumps(value)

    def test_readme_commands_print_the_json_layout(self, capsys, monkeypatch):
        monkeypatch.chdir(FIXTURES.parent.parent)
        commands = _readme_commands()
        assert len(commands) == 17  # one of them a pipe of two
        for stages in commands:
            stdin = ""
            for argv in stages:
                monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
                assert run(argv) in (0, 1)
                stdin = capsys.readouterr().out
            if "--grid" not in argv:
                assert stdin == json.dumps(json.loads(stdin), indent=2) + "\n"
