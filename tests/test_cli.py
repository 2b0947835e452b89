import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import fpminpoly
from fpminpoly import circuit, cli
from fpminpoly.circuit import STRATEGIES, eliminate_common_subexpressions, lower
from fpminpoly.cli import (ENV_MAX_TABLE_SIZE, EXIT_MISMATCH, EXIT_OK, EXIT_SIZE_GUARD,
                           EXIT_USAGE, main)
from fpminpoly.formulas import CATALOG, build_formula
from fpminpoly.oracle import FunctionSpec, tabulate
from fpminpoly.polyring import Polynomial


def run_cli(*argv):
    return main(list(argv))


def _refuse(*args, **kwargs):
    raise AssertionError("the shared lowering must not call lower or CSE")


class TestGen:
    def test_argmax0_p2_expansion(self, tmp_path):
        out = tmp_path / "poly.json"
        assert run_cli("gen", "--func", "argmax0", "--p", "2", "--n", "2",
                       "--out", str(out)) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["p"] == 2 and data["n"] == 2
        # (1 + x0) x1 = x1 + x0 x1: coefficient 1 at indices 2 and 3
        assert data["coeffs"] == [0, 0, 1, 1]

    def test_max_p3_n1_is_identity(self, capsys):
        assert run_cli("gen", "--func", "max", "--p", "3", "--n", "1",
                       "--format", "human") == EXIT_OK
        assert capsys.readouterr().out.strip() == "x0"

    def test_ismax2bit_closed_equals_interpolated_bytes(self, tmp_path):
        closed = tmp_path / "closed.json"
        interp = tmp_path / "interp.json"
        base = ("gen", "--func", "ismax2bit", "--p", "2", "--n", "2")
        assert run_cli(*base, "--out", str(closed)) == EXIT_OK
        assert run_cli(*base, "--form", "interpolated", "--out", str(interp)) == EXIT_OK
        assert closed.read_bytes() == interp.read_bytes()

    def test_gen_from_truth_table_file(self, tmp_path):
        table = tabulate(FunctionSpec("max", 3, 2))
        src = tmp_path / "table.json"
        src.write_text(table.to_json())
        out = tmp_path / "poly.json"
        assert run_cli("gen", "--table", str(src), "--out", str(out)) == EXIT_OK
        poly = Polynomial.from_json(out.read_text())
        assert poly == build_formula("max", p=3, n=2)

    def test_invalid_flag_combination(self, capsys):
        assert run_cli("gen", "--func", "max3", "--p", "5", "--n", "2") == EXIT_USAGE
        assert "p = 3" in capsys.readouterr().err

    def test_size_guard_exit_code(self):
        assert run_cli("gen", "--func", "max", "--p", "2", "--n", "30") == EXIT_SIZE_GUARD

    def test_size_guard_refuses_huge_arity_before_exponentiating(self, capsys):
        for form in ("closed", "interpolated"):
            assert run_cli("gen", "--func", "max2", "--n", "30000000",
                           "--form", form) == EXIT_SIZE_GUARD
            err = capsys.readouterr().err
            assert "2^30000000 exceeds the cap of 16777216" in err
            assert len(err) < 200

    def test_size_guard_override_prints_estimate(self, tmp_path, capsys):
        out = tmp_path / "big.json"
        assert run_cli("gen", "--func", "max2", "--n", "10", "--out", str(out),
                       "--max-table-size", str(1 << 25)) == EXIT_OK
        assert "size guard raised" in capsys.readouterr().err

    def test_size_guard_estimate_counts_shared_small_ints(self, capsys):
        base = ("gen", "--func", "max", "--p", "3", "--n", "2")
        assert run_cli(*base) == EXIT_OK
        plain = capsys.readouterr()
        assert run_cli(*base, "--max-table-size", str(1 << 25)) == EXIT_OK
        raised = capsys.readouterr()
        assert raised.out == plain.out
        # p - 1 value planes of 1 bit per entry at p = 2 and p = 3, 1 byte per
        # entry below p = 128 (bytes), 8 while residues stay shared small
        # ints, 40 beyond p = 257
        assert raised.err == ("size guard raised to 33554432 entries (roughly 4 MiB "
                              "per dense table when p = 2, 8 MiB when p = 3, 32 MiB "
                              "when p < 128, 256 MiB when p <= 257, 1280 MiB above)\n")

    def test_no_temp_files_left_behind(self, tmp_path):
        out = tmp_path / "poly.json"
        run_cli("gen", "--func", "max2", "--n", "3", "--out", str(out))
        leftovers = [p for p in tmp_path.iterdir() if p.name != "poly.json"]
        assert leftovers == []

    def test_determinism_byte_identical(self, tmp_path):
        specs = [
            ("gen", "--func", "max", "--p", "3", "--n", "3"),
            ("gen", "--func", "argmax2", "--n", "6", "--r", "1"),
            ("gen", "--func", "carry", "--p", "7"),
            ("gen", "--func", "ismax3", "--n", "2", "--format", "human"),
            ("gen", "--func", "nummax2", "--n", "5", "--r", "2"),
        ]
        for i, spec in enumerate(specs):
            a = tmp_path / f"a{i}.out"
            b = tmp_path / f"b{i}.out"
            assert run_cli(*spec, "--out", str(a)) == EXIT_OK
            assert run_cli(*spec, "--out", str(b)) == EXIT_OK
            assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_single_formula_pass(self, capsys):
        assert run_cli("verify", "--func", "max5", "--n", "2",
                       "--format", "human") == EXIT_OK
        out = capsys.readouterr().out
        assert "points=25" in out and "pass" in out

    def test_report_json_fields(self, capsys):
        assert run_cli("verify", "--func", "argmax3n3") == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["points_checked"] == 27
        assert report["coefficient_match"] is True
        assert report["function_match"] is True

    def test_corrupted_file_fails_with_mismatch_point(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        run_cli("gen", "--func", "argmax0", "--p", "3", "--n", "2",
                "--out", str(good))
        data = json.loads(good.read_text())
        data["coeffs"][4] = (data["coeffs"][4] + 1) % 3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = run_cli("verify", "--func", "argmax0", "--p", "3", "--n", "2",
                       "--file", str(bad), "--format", "human")
        assert code == EXIT_MISMATCH
        captured = capsys.readouterr()
        assert "MISMATCH" in captured.out and "first mismatch at" in captured.out
        assert captured.err == "fpminpoly: mismatch: 1 of 1 checks failed\n"
        code = run_cli("verify", "--func", "argmax0", "--p", "3", "--n", "2",
                       "--file", str(bad), "--format", "json")
        assert code == EXIT_MISMATCH
        report = json.loads(capsys.readouterr().out)
        # the bumped x0*x1 coefficient first shows at (1, 1), a tie whose argmax is 0
        assert report["mismatch_point"] == [1, 1]
        assert (report["expected"], report["got"]) == (0, 1)
        assert report["coefficient_match"] is False

    @pytest.mark.parametrize("flags", [("--func", "max"), ("--p", "3"), ("--n", "2"),
                                       ("--r", "0"), ("--func", "max", "--p", "3")])
    def test_all_refuses_single_entry_flags(self, flags, capsys):
        assert run_cli("verify", "--all", *flags) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fpminpoly: error: --all verifies every catalog")
        for flag in flags[::2]:
            assert flag in captured.err

    def test_all_refuses_file(self, tmp_path, capsys):
        poly = tmp_path / "max32.json"
        run_cli("gen", "--func", "max", "--p", "3", "--n", "2", "--out", str(poly))
        for extra in ((), ("--func", "max", "--p", "3", "--n", "2")):
            assert run_cli("verify", "--all", "--file", str(poly), *extra) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("fpminpoly: error: verify takes --all or --file, "
                                    "not both\n")

    @pytest.mark.parametrize("flags", [("--table", "table.json"),
                                       ("--form", "interpolated"), ("--form", "closed")])
    def test_refuses_gen_source_flags(self, flags, capsys):
        # verify always checks the closed form against interpolation
        with pytest.raises(SystemExit) as info:
            run_cli("verify", "--func", "max", "--p", "3", "--n", "2", *flags)
        assert info.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: fpminpoly")
        assert "error:" in captured.err and flags[1] in captured.err

    def test_file_from_wrong_ring_is_a_usage_error(self, tmp_path, capsys):
        poly = tmp_path / "max33.json"
        run_cli("gen", "--func", "max", "--p", "3", "--n", "3", "--out", str(poly))
        assert run_cli("verify", "--func", "max", "--p", "3", "--n", "2",
                       "--file", str(poly)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "PolyRing(p=3, n=3)" in err and "PolyRing(p=3, n=2)" in err

    @pytest.mark.parametrize("record,fault", [
        ({"p": "3", "n": 2, "coeffs": [0] * 9}, "modulus must be an int, got str"),
        ({"p": 2.0, "n": 2, "coeffs": [0] * 4}, "modulus must be an int, got float"),
        ({"p": 3, "n": 2, "coeffs": 5}, "'int' object is not iterable"),
    ])
    def test_mistyped_file_is_a_usage_error(self, tmp_path, capsys, record, fault):
        bad = tmp_path / "mistyped.json"
        bad.write_text(json.dumps(record))
        assert run_cli("verify", "--func", "max", "--p", "3", "--n", "2",
                       "--file", str(bad)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "malformed polynomial record" in err and fault in err

    def test_intact_file_passes(self, tmp_path):
        good = tmp_path / "good.json"
        run_cli("gen", "--func", "argmax0", "--p", "3", "--n", "2",
                "--out", str(good))
        assert run_cli("verify", "--func", "argmax0", "--p", "3", "--n", "2",
                       "--file", str(good)) == EXIT_OK

    def test_verify_all_default_grids(self, capsys):
        assert run_cli("verify", "--all", "--format", "json") == EXIT_OK
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == sum(len(e.verify_grid) for e in CATALOG.values())
        assert all(rep["status"] == "pass" for rep in reports)


class TestEval:
    def test_argmax0_p3_n3(self, capsys):
        assert run_cli("eval", "--func", "argmax0", "--p", "3", "--n", "3",
                       "--point", "0,0,2") == EXIT_OK
        assert capsys.readouterr().out.strip() == "2"
        assert run_cli("eval", "--func", "argmax3n3", "--point", "0,0,2") == EXIT_OK
        assert capsys.readouterr().out.strip() == "2"

    def test_nummax_two_maxima(self, capsys):
        assert run_cli("eval", "--func", "nummax2", "--n", "3", "--r", "1",
                       "--point", "1,1,0") == EXIT_OK
        assert capsys.readouterr().out.strip() == "1"

    def test_max5_example(self, capsys):
        assert run_cli("eval", "--func", "max5", "--n", "2",
                       "--point", "3,4") == EXIT_OK
        assert capsys.readouterr().out.strip() == "4"

    def test_circuit_cross_check(self, capsys):
        for strategy in ("naive_monomial", "nested_horner"):
            assert run_cli("eval", "--func", "max3", "--n", "3",
                           "--point", "1,2,0", "--circuit",
                           "--strategy", strategy, "--cse") == EXIT_OK
            assert capsys.readouterr().out.strip() == "2"

    @pytest.mark.parametrize("flags, named", [
        (("--strategy", "naive_monomial"), "--strategy"),
        (("--strategy", "nested_horner"), "--strategy"),
        (("--cse",), "--cse"),
        (("--strategy", "naive_monomial", "--cse"), "--strategy and --cse")])
    def test_circuit_flags_need_circuit(self, flags, named, capsys):
        assert run_cli("eval", "--func", "max3", "--n", "2", "--point", "2,0",
                       *flags) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fpminpoly: error: eval uses {named} only with --circuit\n"

    def test_circuit_disagreement_is_a_mismatch(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run", lambda circuit, point: 1)
        assert run_cli("eval", "--func", "max3", "--n", "2", "--point", "2,0",
                       "--circuit") == EXIT_MISMATCH
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "circuit evaluation disagrees" in captured.err
        assert "1 vs 2" in captured.err

    def test_circuit_cse_takes_the_shared_lowering(self, monkeypatch, capsys):
        f = build_formula("max", 3, 10)
        horner = eliminate_common_subexpressions(lower(f, "nested_horner"))
        for owner in (circuit, cli):
            monkeypatch.setattr(owner, "lower", _refuse)
            monkeypatch.setattr(owner, "eliminate_common_subexpressions", _refuse)
        ran = []
        run = cli.run
        monkeypatch.setattr(cli, "run", lambda circ, point: ran.append(circ) or run(circ, point))
        argv = ("eval", "--func", "max", "--p", "3", "--n", "10",
                "--point", "0,2,1,0,0,1,2,0,1,0", "--circuit", "--cse")
        for strategy in STRATEGIES:
            assert run_cli(*argv, "--strategy", strategy) == EXIT_OK
            assert capsys.readouterr().out == "2\n"
        assert ran[1] == horner
        monkeypatch.setattr(cli, "run", lambda circ, point: 1)
        assert run_cli(*argv) == EXIT_MISMATCH
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "circuit evaluation disagrees with the polynomial: 1 vs 2" in captured.err

    def test_value_out_of_range(self):
        assert run_cli("eval", "--func", "max", "--p", "3", "--n", "2",
                       "--point", "1,5") == EXIT_USAGE

    def test_arity_mismatch(self):
        assert run_cli("eval", "--func", "max", "--p", "3", "--n", "2",
                       "--point", "1,2,0") == EXIT_USAGE

    def test_unparseable_point(self):
        assert run_cli("eval", "--func", "max", "--p", "3", "--n", "2",
                       "--point", "1;2") == EXIT_USAGE


class TestStats:
    def test_constant_function_has_zero_costs(self, capsys):
        # a single-input argmax is identically zero
        assert run_cli("stats", "--func", "argmax", "--p", "3", "--n", "1") == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4
        for row in rows:
            assert row["mul_count"] == 0
            assert row["mul_depth"] == 0

    def test_horner_cse_beats_naive_for_max_p2_8(self, capsys):
        assert run_cli("stats", "--func", "max2", "--n", "8") == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        by_key = {(row["strategy"], row["cse"]): row for row in rows}
        naive = by_key[("naive_monomial", False)]["mul_count"]
        horner_cse = by_key[("nested_horner", True)]["mul_count"]
        assert horner_cse < naive

    def test_json_round_trip(self, capsys):
        assert run_cli("stats", "--func", "carry", "--p", "5",
                       "--format", "json") == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert {row["strategy"] for row in rows} == {"naive_monomial", "nested_horner"}

    def test_human_table_aligned(self, capsys):
        assert run_cli("stats", "--func", "max3", "--n", "2",
                       "--format", "human") == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["strategy", "cse", "muls", "adds", "scales",
                                  "depth", "gates"]
        assert len(out) == 5

    def test_rows_come_without_lower_or_cse(self, monkeypatch, capsys):
        for owner in (circuit, cli):
            monkeypatch.setattr(owner, "lower", _refuse)
            monkeypatch.setattr(owner, "eliminate_common_subexpressions", _refuse)
        assert run_cli("stats", "--func", "max", "--p", "3", "--n", "4") == EXIT_OK
        assert capsys.readouterr().out == (
            '[{"add_count":71,"cse":false,"gates":320,"mul_count":220,"mul_depth":3,'
            '"scale_count":25,"strategy":"naive_monomial"},'
            '{"add_count":71,"cse":true,"gates":172,"mul_count":72,"mul_depth":3,'
            '"scale_count":25,"strategy":"naive_monomial"},'
            '{"add_count":71,"cse":false,"gates":158,"mul_count":62,"mul_depth":4,'
            '"scale_count":19,"strategy":"nested_horner"},'
            '{"add_count":24,"cse":true,"gates":49,"mul_count":17,"mul_depth":4,'
            '"scale_count":2,"strategy":"nested_horner"}]\n')


class TestList:
    def test_contains_every_catalog_entry(self, capsys):
        assert run_cli("list") == EXIT_OK
        out = capsys.readouterr().out
        for name in CATALOG:
            assert name in out

    def test_constraints_shown(self, capsys):
        run_cli("list")
        out = capsys.readouterr().out
        assert "p = 3" in out and "p = 2" in out

    def test_machine_format_stable(self, capsys):
        run_cli("list", "--format", "json")
        first = capsys.readouterr().out
        run_cli("list", "--format", "json")
        second = capsys.readouterr().out
        assert first == second
        entries = json.loads(first)
        assert {e["name"] for e in entries} == set(CATALOG)

    def test_out_in_a_missing_directory_names_the_given_path(self, tmp_path, capsys):
        target = tmp_path / "missing" / "list.txt"
        assert run_cli("list", "--out", str(target)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("fpminpoly: error: [Errno 2] No such file or directory: "
                                f"'{target}'\n")

    def test_out_onto_a_directory_names_it_and_leaves_no_temp_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.mkdir()
        assert run_cli("list", "--out", str(target)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("fpminpoly: error: ") and err.endswith(f": '{target}'\n")
        assert ".tmp" not in err
        assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("argv,refused", [
    (("verify", "--func", "max", "--p", "3", "--n", "2", "--form", "human"),
     "'--form' 'human'"),
    (("gen", "--fun", "max", "--p", "3", "--n", "2"), "'--fun' 'max'"),
    (("stats", "--func", "max", "--p", "3", "--n", "2", "--for", "human"), "'--for' 'human'"),
    (("eval", "--func", "max", "--p", "3", "--n", "2", "--point", "1,2", "--circ"), "'--circ'"),
    (("list", "--form", "json"), "'--form' 'json'"),
    (("--he", "list"), "'--he'"),
])
def test_abbreviated_flags_are_refused(argv, refused, capsys):
    # --form must not be read as --format, --fun as --func, nor --he as --help
    with pytest.raises(SystemExit) as info:
        run_cli(*argv)
    assert info.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {refused}" in captured.err


class TestEnvGuard:
    def test_env_var_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FPMINPOLY_MAX_TABLE_SIZE", "100")
        assert run_cli("gen", "--func", "max2", "--n", "7") == EXIT_SIZE_GUARD
        monkeypatch.setenv("FPMINPOLY_MAX_TABLE_SIZE", "200")
        out = tmp_path / "ok.json"
        assert run_cli("gen", "--func", "max2", "--n", "7",
                       "--out", str(out)) == EXIT_OK

    def test_env_var_must_be_int(self, monkeypatch):
        monkeypatch.setenv("FPMINPOLY_MAX_TABLE_SIZE", "lots")
        assert run_cli("gen", "--func", "max2", "--n", "3") == EXIT_USAGE

    def test_env_var_must_be_nonnegative(self, monkeypatch, capsys):
        monkeypatch.setenv("FPMINPOLY_MAX_TABLE_SIZE", "-5")
        assert run_cli("gen", "--func", "max2", "--n", "3") == EXIT_USAGE
        assert "nonnegative" in capsys.readouterr().err

    def test_flag_must_be_nonnegative(self, capsys):
        assert run_cli("gen", "--func", "max2", "--n", "3",
                       "--max-table-size", "-5") == EXIT_USAGE
        assert "nonnegative" in capsys.readouterr().err


class TestDeepNesting:
    @pytest.mark.parametrize("argv", [
        ("verify", "--func", "max", "--p", "3", "--n", "2", "--file"),
        ("gen", "--func", "max", "--p", "3", "--n", "2", "--table"),
    ], ids=["verify_file", "gen_table"])
    def test_is_a_usage_error_on_one_line(self, argv, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        assert run_cli(*argv, str(deep)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("fpminpoly: error: ") and err.count("\n") == 1
        assert "nesting too deep" in err


#: Every command that reads a record file, with the flag that names it.
FILE_READERS = [
    ("verify", "--func", "max", "--p", "3", "--n", "2", "--file"),
    ("gen", "--func", "max", "--p", "3", "--n", "2", "--table"),
    ("eval", "--point", "1,2", "--table"),
    ("stats", "--table"),
]
FILE_READER_IDS = ["verify_file", "gen_table", "eval_table", "stats_table"]


class TestFileBound:
    @pytest.mark.parametrize("argv", FILE_READERS, ids=FILE_READER_IDS)
    def test_oversized_file_is_refused_before_it_is_read(self, argv, tmp_path, capsys):
        # Nested past the parser's limit: read, it would be a usage error.
        big = tmp_path / "big.json"
        big.write_text("[" * (1 << 20))
        assert run_cli(*argv, str(big), "--max-table-size", "16") == EXIT_SIZE_GUARD
        err = capsys.readouterr().err
        assert err == (f"fpminpoly: size guard: {str(big)!r} is 1048576 bytes, past the "
                       f"bound of 65920 bytes for a table cap of 16 entries\n")
        assert run_cli(*argv, str(big)) == EXIT_USAGE
        assert "nesting too deep" in capsys.readouterr().err

    def test_path_is_quoted_on_one_line(self, tmp_path, capsys):
        path = tmp_path / "a\nb.json"
        path.write_text(" " * 70_000)
        assert run_cli("verify", "--func", "max", "--p", "3", "--n", "2",
                       "--max-table-size", "1", "--file", str(path)) == EXIT_SIZE_GUARD
        err = capsys.readouterr().err
        assert err == (f"fpminpoly: size guard: {str(path)!r} is 70000 bytes, past the "
                       f"bound of 65560 bytes for a table cap of 1 entries\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", FILE_READERS, ids=FILE_READER_IDS)
    def test_indented_file_at_the_cap_passes(self, argv, tmp_path):
        path = tmp_path / "record.json"
        if argv[0] == "verify":
            record = build_formula("max", 3, 2).to_dict()
        else:
            record = json.loads(tabulate(FunctionSpec("max", 3, 2)).to_json())
        path.write_text(json.dumps(record, indent=4))
        assert run_cli(*argv, str(path), "--max-table-size", "9") == EXIT_OK
        assert run_cli(*argv, str(path)) == EXIT_OK


#: Each subcommand of the CLI's own parser with its flags but ``--help``.
SUBCOMMANDS = {name: [action for action in sub._actions
                      if action.option_strings and action.dest != "help"]
               for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)
               for name, sub in action.choices.items()}
#: Requests to start from: every verify_grid entry, and half the time the
#: request the record files of ``argv_files`` are written for.
BASES = [("max", 3, 2, 0)] * 152 + [(name, p, n, r) for name, entry in CATALOG.items()
                                    for p, n, r in entry.verify_grid]
JUNK = st.one_of(st.sampled_from(["", "x", "1.5", "0x10", "3,", ",", "a\nb", "-", "--", "\0"]),
                 st.text(max_size=4))
#: Ints out of every flag's range (moduli, counts, digits, points), and
#: for the table cap, whose values must stay small, only negative ones.
OUT_OF_RANGE = st.sampled_from(["-1", "-5", "0", "1", "4", "9", "65521", "65537",
                                str(10**30), str(-10**30)])
NEGATIVE = st.sampled_from(["-1", "-5", str(-10**30)])
#: Arguments no parser takes, some holding a newline.
STRAYS = st.sampled_from(["stray", "1", "a\nb", "\n", "-\n", "x\ny\n"])
SMALL_CAP = st.one_of(st.just("4096"), st.integers(0, 4096).map(str))
ENV_VALUES = st.one_of(st.none(), st.just(""), SMALL_CAP, st.just(" 12 "),
                       st.sampled_from(["lots", "-5", "1e3", " ", "4k", "0x10", "\n"]))


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Paths for the file flags, valid and not: the readers' and --out's.
    The records are written for p = 3, n = 2; ``other`` is not max."""
    tmp = tmp_path_factory.mktemp("argv")
    paths = {"poly": build_formula("max", 3, 2).to_json(),
             "other": build_formula("min3", 3, 2).to_json(),
             "table": tabulate(FunctionSpec("max", 3, 2)).to_json(), "junk": "not json"}
    for name, text in paths.items():
        (tmp / f"{name}.json").write_text(text)
    (tmp / "out").mkdir()
    missing, junk = str(tmp / "missing.json"), str(tmp / "junk.json")
    return {"file": [str(tmp / "other.json"), str(tmp / "poly.json"), junk, missing,
                     str(tmp), ""],
            "table": [str(tmp / "table.json"), str(tmp / "poly.json"), junk, missing,
                      str(tmp), ""],
            "out": [str(tmp / "out" / "result.txt"), str(tmp), str(tmp / "nope" / "x"), ""]}


@st.composite
def argv_and_env(draw, files):
    """A subcommand, mostly a well-formed request from ``BASES``, often a
    record file for it, then some of the subcommand's own flags, each with a
    valid, junk or out-of-range value, sometimes stray arguments (alone when
    there is no subcommand), sometimes ``--help``; and a
    ``FPMINPOLY_MAX_TABLE_SIZE`` string.  When neither the flag nor the
    variable sets the cap, a small cap is added, so no table passes 4096
    entries."""
    valid = {"func": st.sampled_from(sorted(CATALOG)),
             "p": st.sampled_from(["2", "3", "5", "7", "131"]),
             "n": st.sampled_from(["1", "2", "3", "4", "6"]),
             "r": st.sampled_from(["0", "1", "2"]),
             "form": st.sampled_from(["closed", "interpolated"]),
             "strategy": st.sampled_from(STRATEGIES),
             "format": st.sampled_from(["json", "human"]),
             "point": st.lists(st.integers(0, 4), min_size=1, max_size=5).map(
                 lambda v: ",".join(map(str, v))),
             "max_table_size": SMALL_CAP,
             **{dest: st.sampled_from(paths) for dest, paths in files.items()}}
    command = draw(st.sampled_from([None, *SUBCOMMANDS]))
    if command is None:
        return draw(st.lists(STRAYS, max_size=1)), draw(ENV_VALUES)
    argv = [command]
    if command != "list" and draw(st.sampled_from([True] * 4 + [False])):
        name, p, n, r = draw(st.sampled_from(BASES))
        argv += ["--func", name, "--p", str(p), "--n", str(n), "--r", str(r)]
        if command == "eval":
            arity = CATALOG[name].spec_of(p, n, r).arity
            argv += ["--point", ",".join(draw(st.sampled_from(["0", "1"])) * arity)]
    readers = [a for a in SUBCOMMANDS[command] if a.dest in ("file", "table")]
    if readers and draw(st.sampled_from([False, False, True])):
        argv += [readers[0].option_strings[0], draw(valid[readers[0].dest])]
    for action in draw(st.lists(st.sampled_from(SUBCOMMANDS[command]), max_size=4)):
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs == 0:
            continue
        kind = draw(st.sampled_from(["valid"] * 4 + ["junk", "bad"]))
        if kind == "valid" or action.dest == "out":  # a junk --out would write here
            argv.append(draw(valid[action.dest]))
        else:
            bad = NEGATIVE if action.dest == "max_table_size" else OUT_OF_RANGE
            argv.append(draw(JUNK if kind == "junk" else bad))
    if draw(st.sampled_from([False] * 4 + [True])):
        argv += draw(st.lists(STRAYS, min_size=1, max_size=2))
    if draw(st.sampled_from([False] * 19 + [True])):
        argv.append("--help")
    env = draw(ENV_VALUES)
    if command != "list" and "--max-table-size" not in argv and not env:
        argv += ["--max-table-size", draw(SMALL_CAP)]
    return argv, env


class TestArgvBoundary:
    """Whatever argv and ``FPMINPOLY_MAX_TABLE_SIZE`` hold, the CLI exits 0,
    2, 3 or 4 (argparse's own ``SystemExit(2)`` included), prints no
    traceback, and a failing run ends its stderr with an ``fpminpoly`` line
    (argparse's usage line comes before its error line)."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_exit_codes_and_messages(self, argv_files, data):
        argv, env = data.draw(argv_and_env(argv_files))
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            os.environ.pop(ENV_MAX_TABLE_SIZE, None)
            if env is not None:
                os.environ[ENV_MAX_TABLE_SIZE] = env
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        err = err.getvalue()
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_SIZE_GUARD, EXIT_MISMATCH), (argv, env, err)
        assert "Traceback" not in err, (argv, env, err)
        if code:
            assert err.endswith("\n"), (argv, env, err)
            assert err[:-1].split("\n")[-1].startswith("fpminpoly"), (argv, env, err)


class TestImports:
    def test_cli_import_stays_stdlib_only(self):
        # numpy alone would add about 0.3 s and 14 MiB to every process start.
        src = os.path.dirname(os.path.dirname(os.path.abspath(fpminpoly.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c",
                        "import fpminpoly.cli, sys; assert 'numpy' not in sys.modules"],
                       env=env, check=True)
