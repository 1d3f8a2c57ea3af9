import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import limtower
from limtower.cli import main
from limtower.groups import FgAbGroup, GroupMap, fg_group, identity_map, image, kernel, mat_mul, multiplication_map
from limtower.ordinals import parse_ordinal
from limtower.serialize import (
    SCHEMA_VERSION,
    group_from_json,
    group_to_json,
    matrix_from_json,
    tower_from_json,
    tower_to_json,
)
from limtower.suites import (
    CRITERIA,
    corpus_towers,
    random_decidable_tower,
    random_finite_group,
    random_finite_tower,
    random_hom,
    random_local_tower,
    random_surjective_tower,
)
from limtower.towers import DEFAULT_HORIZON, ConstantEndo, Tower, ZeroTail, analyze, multiplication_tower, null_tower
from limtower.walker import WalkerContext, format_element, height, mul_p_height_step, normalize, parse_element

from test_parsing import valid_element_text


class TestSerialize:
    def test_group_roundtrip(self):
        for g in (fg_group(0), fg_group(4, 6), fg_group(2, 0, 0)):
            assert group_from_json(group_to_json(g)) == g

    def test_tower_roundtrip_random(self):
        rng = random.Random(89)
        for _ in range(60):
            t = random_finite_tower(rng, max_levels=4, max_order=32)
            back = tower_from_json(tower_to_json(t))
            assert back.prefix_groups == t.prefix_groups
            assert back.tail == t.tail
            assert all(
                back.step_map(i).matrix == t.step_map(i).matrix
                for i in range(t.stable_index + 2)
            )

    def test_s_of_a_convenience(self):
        obj = {"kind": "S_of_A", "group": {"free_rank": 0, "invariant_factors": [8]}, "multiplier": 2}
        t = tower_from_json(obj)
        assert t.group(0) == fg_group(8)
        assert t.step_map(0).matrix == multiplication_map(fg_group(8), 2).matrix

    def test_one_object_per_distinct_group(self):
        z4 = {"free_rank": 0, "invariant_factors": [4]}
        z2 = {"free_rank": 0, "invariant_factors": [2]}
        obj = {
            "prefix": [
                {"group": z2, "map_to_previous": None},
                {"group": z4, "map_to_previous": {"domain": z4, "codomain": z2, "matrix": [[1]]}},
                {"group": z4, "map_to_previous": {"domain": z4, "codomain": z4, "matrix": [[2]]}},
            ],
            "tail": {"kind": "constant_endo", "group": z4, "endo": {"domain": z4, "codomain": z4, "matrix": [[3]]}},
        }
        t = tower_from_json(obj)
        g0, g1, g2 = t.prefix_groups
        f0, f1 = t.prefix_maps
        assert g1 is g2 and g0 is not g1
        assert f0.codomain is g0 and f0.domain is g1
        assert f1.codomain is g1 and f1.domain is g2
        assert t.tail.group is g2 and t.tail.endo.domain is g2 and t.tail.endo.codomain is g2
        # separate parses share nothing
        assert tower_from_json(obj).prefix_groups[0] is not g0

    def test_bad_tower_json(self):
        with pytest.raises(ValueError):
            tower_from_json({"prefix": [], "tail": {"kind": "mystery"}})
        with pytest.raises(ValueError):
            matrix_from_json({"matrix": [[1, 2], [3]]})

    def test_json_report_fields(self):
        from limtower.serialize import analysis_report_to_json

        rep = analysis_report_to_json(analyze(multiplication_tower(fg_group(0), 2)))
        assert rep["ml_status"]["kind"] == "never"
        assert rep["length"]["value"] == "w"
        assert rep["lim1_status"]["kind"] == "nonzero"
        assert rep["omega_complete"] is False


Z = {"free_rank": 1, "invariant_factors": []}
Z2 = {"free_rank": 0, "invariant_factors": [2]}
Z_2 = {"free_rank": 2, "invariant_factors": []}


def long_prefix(group: dict, identity: list, w: int, at: int, matrix) -> dict:
    """w levels of `group` under identity maps, except `matrix` on the map into level at - 1."""
    return {"prefix": [
        {"group": group, "map_to_previous": None if i == 0 else
         {"domain": group, "codomain": group, "matrix": matrix if i == at else identity}}
        for i in range(w)
    ]}


@pytest.fixture
def tower_file(tmp_path):
    path = tmp_path / "tower.json"
    path.write_text(
        json.dumps(
            {"kind": "S_of_A", "group": {"free_rank": 0, "invariant_factors": [6]}, "multiplier": 2}
        )
    )
    return str(path)


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"matrix": [[2, 4], [4, 8]]}))
    return str(path)


class TestCli:
    def test_analyze_exit_zero(self, tower_file, capsys):
        assert main(["analyze", tower_file]) == 0
        out = capsys.readouterr().out
        assert "lim: Z/3" in out
        assert "ml_status: stabilized" in out

    def test_horizon_past_the_stage_limit_exit_two(self, tower_file, capsys):
        # the pass takes up to horizon + 2 stages through islice, which stops at sys.maxsize
        assert main(["analyze", tower_file, "--horizon", "100000000000000000000"]) == 2
        assert capsys.readouterr().err == f"error: horizon must be between 1 and {sys.maxsize - 2}\n"
        assert main(["analyze", tower_file, "--horizon", str(sys.maxsize - 2)]) == 0

    def test_analyze_json_schema(self, tower_file, capsys):
        assert main(["analyze", tower_file, "--json"]) == 0
        payload = capsys.readouterr().out.split("\n", 6)[-1]
        obj = json.loads(payload[payload.index("{") :])
        assert obj["schema"] == SCHEMA_VERSION
        assert obj["timing_ms"] is None

    def test_analyze_json_to_file(self, tower_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["analyze", tower_file, "--json", str(out_path)]) == 0
        obj = json.loads(out_path.read_text())
        assert obj["result"]["lim_pretty"] == "Z/3"

    def test_byte_determinism(self, tower_file, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["analyze", tower_file, "--json", str(p1)])
        main(["analyze", tower_file, "--json", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()
        s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
        main(["suite", "paper-examples", "--json", str(s1)])
        main(["suite", "paper-examples", "--json", str(s2)])
        assert s1.read_bytes() == s2.read_bytes()

    def test_timing_opt_in(self, tower_file, tmp_path):
        p = tmp_path / "t.json"
        main(["analyze", tower_file, "--json", str(p), "--timing"])
        assert json.loads(p.read_text())["timing_ms"] is not None

    def test_missing_file_exit_two(self, capsys):
        assert main(["analyze", "/no/such/file.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", str(bad)]) == 2

    @pytest.mark.parametrize(
        "command, body, field",
        [
            ("analyze", {"prefix": 5}, "'prefix'"),
            ("analyze", {"tail": []}, "'tail'"),
            ("snf", {"matrix": [[]]}, "'matrix'"),
            # floats, booleans and wrong containers are rejected, never coerced
            ("analyze", {"prefix": [{"group": {"free_rank": 0, "invariant_factors": [2.7]}}]},
             "'prefix[0].group.invariant_factors[0]'"),
            ("analyze", {"kind": "S_of_A", "group": {"free_rank": True}, "multiplier": 2}, "'group.free_rank'"),
            ("analyze", {"kind": "S_of_A", "group": {"free_rank": 1}, "multiplier": 2.5}, "'multiplier'"),
            ("analyze", {"tail": {"kind": "constant_endo", "group": Z, "endo": {"domain": Z, "codomain": Z, "matrix": [[1.5]]}}},
             "'tail.endo.matrix[0][0]'"),
            ("analyze", {"prefix": [5]}, "'prefix[0]'"),
            ("analyze", {"prefix": [{"group": Z}, {"group": Z, "map_to_previous": 5}]}, "'prefix[1].map_to_previous'"),
            ("analyze", {"prefix": [{"group": {"free_rank": 0, "invariant_factors": 7}}]},
             "'prefix[0].group.invariant_factors'"),
            ("snf", {"matrix": [[1.5]]}, "'matrix[0][0]'"),
            ("snf", {"matrix": [[True, 2]]}, "'matrix[0][0]'"),
            ("snf", {"matrix": 5}, "'matrix'"),
            ("snf", {"matrix": [5]}, "'matrix[0]'"),
            # missing keys, and groups or maps the library rejects, name their path too
            ("analyze", {"prefix": [{"group": Z}, {"group": Z, "map_to_previous": {"domain": Z, "matrix": [[1]]}}]},
             "'prefix[1].map_to_previous.codomain'"),
            ("analyze", {"kind": "S_of_A", "group": Z}, "'multiplier' is missing"),
            ("analyze", {"kind": "S_of_A", "group": {"free_rank": -1}, "multiplier": 2}, "'group.free_rank'"),
            ("analyze", {"kind": "S_of_A", "group": {"free_rank": 0, "invariant_factors": [4, 6]}, "multiplier": 2},
             "'group.invariant_factors'"),
            ("analyze", {"tail": {"kind": "constant_endo", "group": Z, "endo": {"domain": Z, "codomain": Z, "matrix": [[1, 2]]}}},
             "'tail.endo.matrix'"),
            # a map group equal in value to a group parsed before it is still checked at its own path
            ("analyze", {"prefix": [{"group": Z}, {"group": Z, "map_to_previous": {
                "domain": {"free_rank": True}, "codomain": Z, "matrix": [[1]]}}]},
             "'prefix[1].map_to_previous.domain.free_rank'"),
            ("analyze", {"prefix": [{"group": Z}, {"group": Z, "map_to_previous": {
                "domain": {"free_rank": 1.0}, "codomain": Z, "matrix": [[1]]}}]},
             "'prefix[1].map_to_previous.domain.free_rank'"),
            ("analyze", {"prefix": [{"group": Z2}, {"group": Z2, "map_to_previous": {
                "domain": {"free_rank": 0, "invariant_factors": [2.0]}, "codomain": Z2, "matrix": [[1]]}}]},
             "'prefix[1].map_to_previous.domain.invariant_factors[0]'"),
            ("analyze", {"prefix": [{"group": Z2}, {"group": Z2, "map_to_previous": {
                "domain": Z2, "codomain": {"free_rank": 0.0, "invariant_factors": [2]}, "matrix": [[1]]}}]},
             "'prefix[1].map_to_previous.codomain.free_rank'"),
            # a map whose domain is not its neighbour still fails to chain
            ("analyze", {"prefix": [{"group": Z}, {"group": Z, "map_to_previous": {
                "domain": Z2, "codomain": Z, "matrix": [[0]]}}]},
             "prefix map 0 does not chain"),
            # one bad entry or row deep in a long prefix, and factors given as an object
            ("analyze", long_prefix(Z2, [[1]], 40, 33, [[1.0]]), "'prefix[33].map_to_previous.matrix[0][0]'"),
            ("analyze", long_prefix(Z_2, [[1, 0], [0, 1]], 40, 37, [[1, 0], [0, True]]),
             "'prefix[37].map_to_previous.matrix[1][1]'"),
            ("analyze", long_prefix(Z2, [[1]], 40, 21, [5]), "'prefix[21].map_to_previous.matrix[0]'"),
            ("analyze", {"tail": {"kind": "constant_endo", "group": Z, "endo": {"domain": Z, "codomain": Z, "matrix": [{"0": 1}]}}},
             "'tail.endo.matrix[0]'"),
            ("analyze", {"prefix": [{"group": Z2}, {"group": Z2, "map_to_previous": {
                "domain": {"free_rank": 0, "invariant_factors": {"0": 2}}, "codomain": Z2, "matrix": [[1]]}}]},
             "'prefix[1].map_to_previous.domain.invariant_factors'"),
        ],
    )
    def test_ill_typed_field_exit_two(self, tmp_path, capsys, command, body, field):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(body))
        assert main([command, str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, field",
        [
            (json.dumps({"prefix": [{"group": {"free_rank": [0] * 10**6}}]}), "'prefix[0].group.free_rank'"),
            ('{"prefix": [' + "[" * 900 + "]" * 900 + "]}", "'prefix[0]'"),
        ],
        ids=["million-entry-list", "900-deep-list"],
    )
    def test_huge_rejected_value_is_quoted_short(self, tmp_path, capsys, text, field):
        path = tmp_path / "input.json"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert field in err and err.rstrip().endswith("...")
        assert len(err.encode()) < 300

    def test_analyze_writes_d_past_the_str_digit_limit(self, tmp_path, capsys):
        """diag(a, a + 2) with a of 4000 sevens: d = a(a + 2) has 8000 digits, over `str`'s 4300."""
        from decimal import Decimal

        a = int("7" * 4000)
        z2 = {"free_rank": 2, "invariant_factors": []}
        endo = {"domain": z2, "codomain": z2, "matrix": [[a, 0], [0, a + 2]]}
        path, out = tmp_path / "diag.json", tmp_path / "report.json"
        path.write_text(json.dumps({"tail": {"kind": "constant_endo", "group": z2, "endo": endo}}))
        assert main(["analyze", str(path), "--json", str(out)]) == 0
        d = str(Decimal(a * (a + 2)))  # Decimal has no digit limit
        assert len(d) == 8000
        result = json.loads(out.read_text())["result"]
        want = f"image lattice covolume grows by {d} per step on the eventual free part"
        assert result["ml_status"]["witness"] == result["lim1_status"]["reason"] == want
        assert main(["analyze", str(path)]) == 0
        assert "ml_status: never" in capsys.readouterr().out

    def test_snf(self, matrix_file, capsys):
        assert main(["snf", matrix_file, "--json"]) == 0
        out = capsys.readouterr().out
        assert "certified: True" in out

    def test_snf_writes_entries_past_the_str_digit_limit(self, tmp_path, capsys):
        """[[a, 0], [0, a + 2]] with a of 4000 sevens: D holds a(a + 2), 8000 digits, over `str`'s 4300."""
        from decimal import Decimal

        a = int("7" * 4000)
        mat = [[a, 0], [0, a + 2]]
        path = tmp_path / "diag.json"
        path.write_text(json.dumps({"matrix": mat}))
        assert main(["snf", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        lines = out.split("\n", 2)
        d = str(Decimal(a * (a + 2)))  # Decimal has no digit limit
        assert lines[:2] == [f"diagonal: [1, {d}]", "certified: True"]
        result = json.loads(lines[2], parse_int=lambda text: int(Decimal(text)))["result"]
        u, dd, v = result["U"], result["D"], result["V"]
        assert dd == [[1, 0], [0, a * (a + 2)]] and result["diagonal"] == [1, a * (a + 2)]
        assert max(len(str(Decimal(x))) for x in (*u[0], *u[1], *v[0], *v[1])) > 4300
        assert mat_mul(mat_mul(u, mat, 2), v, 2) == dd

    @pytest.mark.parametrize(
        "command, text, field",
        [
            ("analyze", '{"prefix": [{"group": {"free_rank": ' + "1" * 5000 + "}}]}", "'prefix[0].group.free_rank'"),
            ("snf", '{"matrix": [[1, 2], [3, -' + "9" * 5000 + "]]}", "'matrix[1][1]'"),
        ],
    )
    def test_over_long_literal_names_its_field(self, tmp_path, capsys, command, text, field):
        path = tmp_path / "input.json"
        path.write_text(text)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert f"field {field} holds an integer of 5000 digits, over the limit of 4300 digits" in err
        assert "set_int_max_str_digits" not in err

    def test_walker_normalize(self, capsys):
        rc = main(["walker", "normalize", "2*e[0, 1]", "--p", "2", "--alpha", "w"])
        assert rc == 0
        assert "1*e[1]" in capsys.readouterr().out

    def test_walker_height(self, capsys):
        rc = main(["walker", "height", "e[w+1]", "--p", "3", "--alpha", "w*2"])
        assert rc == 0
        assert "height: w + 1" in capsys.readouterr().out

    def test_walker_ulm_probe(self, capsys):
        rc = main(["walker", "ulm-probe", "0", "w", "w+1", "--p", "2", "--alpha", "w*2+3"])
        assert rc == 0
        assert "probe ok" in capsys.readouterr().out

    def test_walker_failed_ulm_probe_exit_one(self, monkeypatch, capsys):
        from limtower import walker
        from limtower.ordinals import OMEGA, ZERO

        bad = walker.UlmProbeReport(2, OMEGA, (walker.UlmProbeEntry(ZERO, OMEGA, True, False),), True, False)
        monkeypatch.setattr(walker, "ulm_probe", lambda ctx, sample: bad)
        assert main(["walker", "ulm-probe", "0", "--p", "2", "--alpha", "w"]) == 1
        assert capsys.readouterr().out == "stage 0: height w MISMATCH\ntop stage p^w trivial: True\nprobe FAILED\n"

    def test_walker_bad_element_exit_two(self, capsys):
        assert main(["walker", "normalize", "e[]", "--p", "2", "--alpha", "w"]) == 2

    @pytest.mark.parametrize("text", ["3*\te[0]", "3\t*\u00a0e[0]"], ids=["tab", "tab-and-no-break-space"])
    def test_walker_any_whitespace_between_tokens(self, capsys, text):
        assert main(["walker", "normalize", "3*e[0]", "--p", "5", "--alpha", "w"]) == 0
        expected = capsys.readouterr().out
        assert main(["walker", "normalize", text, "--p", "5", "--alpha", "w"]) == 0
        assert capsys.readouterr().out == expected == "normal form: 3*e[0]\n"

    @pytest.mark.parametrize(
        "argv, named",
        [
            # int() reads these as 10 and 3; only ASCII digit runs are integers
            (["normalize", "1_0*e[0]"], "'1_0*e[0]'"),
            (["normalize", "٣*e[0]"], "'٣*e[0]'"),
            (["normalize", "e[٣]"], "'٣'"),
            (["height", "e[1٣]"], "'٣'"),
            (["ulm-probe", "٣"], "'٣'"),
            (["normalize", "e[0]", "--p", "٣"], "--p"),
            (["normalize", "e[0]", "--p", "1_1"], "--p"),
            (["normalize", "2*3*e[0]"], "'2*3*e[0]'"),
            # deleting the space would read 12 and 34: whitespace may not split a digit run
            (["normalize", "e[1 2]"], "entry '1 2' in the term at column 1: trailing tokens in ordinal: ['2']"),
            (["normalize", "3 4*e[0]"], "term at column 1: '3 4*e[0]'"),
            # index checks and the digit limit name the column of the term
            (["normalize", "e[1, 0]"], "index entries must strictly increase in the term at column 1"),
            (["height", "e[0] - e[w, 1]"], "index entries must strictly increase in the term at column 6"),
            (["normalize", "e[1] + 2*e[3, w]"], "index entry w is not below alpha = w in the term at column 6"),
            (["normalize", "1" * 5000 + "*e[0]"], "coefficient of 5000 digits in the term at column 1 is over the limit"),
        ],
        ids=["underscore-coefficient", "arabic-indic-coefficient", "arabic-indic-entry", "mixed-digits-entry",
             "arabic-indic-stage", "arabic-indic-p", "underscore-p", "product-coefficient", "split-entry-digits",
             "split-coefficient-digits", "decreasing-index", "decreasing-later-index", "index-past-alpha",
             "over-long-coefficient"],
    )
    def test_walker_bad_input_exit_two(self, capsys, argv, named):
        if "--p" not in argv:
            argv = argv + ["--p", "3"]
        try:
            code = main(["walker"] + argv + ["--alpha", "w"])
        except SystemExit as exc:  # argparse rejects a bad flag value this way
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert named in err and "invalid literal" not in err and "set_int_max_str_digits" not in err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("analyze", "--horizon", "٣"),
            ("analyze", "--horizon", "1_0"),
            ("suite", "--seed", "١_٠"),
            ("suite", "--seed", "٣"),
        ],
        ids=["arabic-indic-horizon", "underscore-horizon", "mixed-seed", "arabic-indic-seed"],
    )
    def test_integer_flag_exit_two(self, tower_file, capsys, command, flag, value):
        # int() reads these as 3, 10, 10 and 3
        target = tower_file if command == "analyze" else "paper-examples"
        with pytest.raises(SystemExit) as exc:  # argparse rejects a bad flag value this way
            main([command, target, flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["walker", "normalize", "e[0]", "--p", "3", "--alpha", "N"],
            ["walker", "height", "e[0]", "--p", "3", "--alpha", "w^N"],
            ["walker", "ulm-probe", "w*N", "--p", "2", "--alpha", "w"],
            ["walker", "normalize", "e[0, N]", "--p", "3", "--alpha", "w"],
        ],
        ids=["alpha", "alpha-exponent", "ulm-probe-stage", "index-entry"],
    )
    def test_over_long_ordinal_integer_exit_two(self, capsys, argv):
        n = "1" * 5000
        assert main([a.replace("N", n) for a in argv]) == 2
        err = capsys.readouterr().err
        assert "integer of 5000 digits in ordinal is over the limit of 4300 digits" in err
        assert "set_int_max_str_digits" not in err and "1" * 61 not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["walker", "normalize", "e[0]", "--p", "N", "--alpha", "w"],
            ["analyze", "TOWER", "--horizon", "N"],
            ["suite", "paper-examples", "--seed", "N"],
        ],
        ids=["p", "horizon", "seed"],
    )
    def test_over_long_integer_flag_exit_two(self, tower_file, capsys, argv):
        argv = [{"N": "7" * 5000, "TOWER": tower_file}.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as exc:  # argparse rejects a bad flag value this way
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        flag = argv[argv.index("7" * 5000) - 1]
        assert f"argument {flag}: integer of 5000 digits is over the limit of 4300 digits" in err
        assert "7" * 61 not in err

    @pytest.mark.parametrize("where", ["stage", "alpha"])
    def test_deeply_nested_ordinal_exit_two(self, capsys, where):
        deep = "w^(" * 1000 + "1" + ")" * 1000
        stage, alpha = (deep, "w") if where == "stage" else ("0", deep)
        assert main(["walker", "ulm-probe", stage, "--p", "2", "--alpha", alpha]) == 2
        err = capsys.readouterr().err
        assert "nested deeper than 200 parentheses near '(w^(w^" in err

    @pytest.mark.parametrize("command", ["analyze", "snf"])
    def test_deeply_nested_json_exit_two(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main([command, str(path)]) == 2
        assert f"{path}: JSON nested too deeply to parse" in capsys.readouterr().err

    def test_suite_runs(self, capsys):
        assert main(["suite", "paper-examples"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        # results are sorted by scenario name
        names = [line.split()[1] for line in out.splitlines() if line.startswith("[PASS]")]
        assert names == sorted(names)

    def test_unknown_suite_exit_two(self, capsys):
        assert main(["suite", "not-a-suite"]) == 2
        assert capsys.readouterr().err == "error: unknown suite 'not-a-suite'\n"

    def test_key_error_inside_a_suite_exit_three(self, monkeypatch, capsys):
        from limtower import suites

        def broken():
            raise KeyError("stage")

        monkeypatch.setattr(suites, "criterion_shift_invariance", broken)
        assert main(["suite", "paper-examples"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: KeyError: 'stage'\n" and captured.out == ""

    def test_failing_suite_exit_one(self, monkeypatch, capsys):
        from limtower import cli as cli_mod
        from limtower.suites import CheckResult

        monkeypatch.setattr(
            cli_mod, "run_suite", lambda name, seed=0: [CheckResult("broken", False, "boom")]
        )
        assert main(["suite", "paper-examples"]) == 1
        assert "[FAIL] broken" in capsys.readouterr().out

    def test_internal_error_exit_three(self, tower_file, monkeypatch, capsys):
        from limtower import cli as cli_mod

        def broken(tower, horizon):
            raise RuntimeError("stable image is not epimorphic")

        monkeypatch.setattr(cli_mod, "analyze", broken)
        assert main(["analyze", tower_file]) == 3
        assert "internal error: RuntimeError: stable image" in capsys.readouterr().err

    def test_library_key_error_exit_three(self, tower_file, monkeypatch, capsys):
        from limtower import cli as cli_mod

        def broken(tower, horizon):
            raise KeyError("stage")

        monkeypatch.setattr(cli_mod, "analyze", broken)
        assert main(["analyze", tower_file]) == 3
        assert "internal error: KeyError: 'stage'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n, target, wrong, message",
        [
            # Z/6 by 2: the stable endomorphism of Z/3 is given itself as its kernel
            (6, "limtower.towers.kernel", image, "surjective endomorphism with kernel on a f.g. group"),
            # Z/6 by 2: the image of the stable endomorphism of Z/3 is read as its trivial kernel
            (6, "limtower.towers.image", kernel, "stable image is not epimorphic; stabilization logic is broken"),
            # Z/4 by 2 is local, and its limit is read as Z/2
            (4, "limtower.towers.Filtration.lim", property(lambda self: fg_group(2)), "local tower must have lim = lim1 = 0"),
        ],
        ids=["kernel-on-the-stable-stage", "image-of-the-stable-stage", "local-tower-with-a-limit"],
    )
    def test_broken_limit_check_inside_analyze_exit_three(self, tmp_path, monkeypatch, capsys, n, target, wrong, message):
        monkeypatch.setattr(target, wrong)
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(tower_to_json(multiplication_tower(fg_group(n), 2))))
        assert main(["analyze", str(path)]) == 3
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (f"internal error: RuntimeError: {message}\n", "")

    def test_seed_changes_property_suite_input(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["suite", "property-suite", "--seed", "1", "--json", str(p1)])
        obj = json.loads(p1.read_text())
        assert obj["input"]["seed"] == 1
        assert obj["passed"] == obj["total"]


N = "9" * 4300  # the longest digit run an input may hold
TWO_N = "1" + "9" * 4299 + "8"  # N + N, one digit longer


@pytest.fixture
def low_digit_limit():
    """The interpreter's int <-> str limit at its lowest, 640 digits, for one test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


class TestIntegerSize:
    """Input digit runs are bounded by MAX_DIGITS; every integer the CLI writes is written in full."""

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["normalize", f"{N}*e[0] + {N}*e[0]", "--alpha", "w"], {"input": f"{TWO_N}*e[0]", "normalized": "0"}),
            (["normalize", "e[0]", "--alpha", f"w*{N} + w*{N}"], {"alpha": f"w*{TWO_N}"}),
            (
                ["ulm-probe", f"w*{N} + w*{N}", "--alpha", "w^2"],
                {"entries": [{"beta": f"w*{TWO_N}", "height": f"w*{TWO_N}", "nonzero": True, "exact": True}]},
            ),
        ],
        ids=["sum-of-coefficients", "sum-in-alpha", "sum-in-stage"],
    )
    def test_sums_of_accepted_literals_are_written_in_full(self, capsys, argv, want):
        assert main(["walker", *argv, "--p", "2", "--json", "-"]) == 0
        out = capsys.readouterr().out
        result = json.loads(out[out.index("\n{") :])["result"]
        assert {k: result[k] for k in want} == want

    def test_limit_is_restored_on_every_exit(self, tower_file, monkeypatch, capsys):
        from limtower import cli as cli_mod

        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            assert main(["analyze", tower_file]) == 0
            assert sys.get_int_max_str_digits() == 5000
            assert main(["walker", "normalize", "e[]", "--p", "2", "--alpha", "w"]) == 2
            assert sys.get_int_max_str_digits() == 5000
            with pytest.raises(SystemExit):  # argparse rejects the flag
                main(["analyze", tower_file, "--horizon", "x"])
            assert sys.get_int_max_str_digits() == 5000
            monkeypatch.setattr(cli_mod, "analyze", lambda tower, horizon: 1 // 0)
            assert main(["analyze", tower_file]) == 3
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(limit)

    def test_input_limit_does_not_follow_the_interpreter(self, tmp_path, capsys, low_digit_limit):
        k = "7" * 1000  # past the interpreter's 640, under MAX_DIGITS
        assert main(["walker", "normalize", f"{k}*e[0]", "--p", "5", "--alpha", f"w*{k}"]) == 0
        assert capsys.readouterr().out == "normal form: 2*e[0]\n"
        assert main(["suite", "paper-examples", "--seed", k, "--json", "-"]) == 0
        assert f'"seed": {k}\n' in capsys.readouterr().out
        path = tmp_path / "mat.json"
        path.write_text(f'{{"matrix": [[{k}]]}}')
        assert main(["snf", str(path)]) == 0
        assert capsys.readouterr().out == f"diagonal: [{k}]\ncertified: True\n"
        assert main(["walker", "normalize", f"{N}1*e[0]", "--p", "5", "--alpha", "w"]) == 2
        assert capsys.readouterr().err == "error: coefficient of 4301 digits in the term at column 1 is over the limit of 4300 digits\n"
        path.write_text(f'{{"matrix": [[-{N}1]]}}')
        assert main(["snf", str(path)]) == 2
        assert capsys.readouterr().err == "error: field 'matrix[0][0]' holds an integer of 4301 digits, over the limit of 4300 digits\n"

    def test_longest_literals_are_accepted(self, tmp_path, capsys):
        assert main(["walker", "normalize", f"{N}*e[0]", "--p", "2", "--alpha", f"w*{N}"]) == 0
        assert capsys.readouterr().out == "normal form: 1*e[0]\n"
        path = tmp_path / "mat.json"
        path.write_text(f'{{"matrix": [[-{N}]]}}')
        assert main(["snf", str(path)]) == 0
        assert capsys.readouterr().out == f"diagonal: [{N}]\ncertified: True\n"

    def test_large_prime_p_is_decided_at_once(self, capsys):
        started = time.monotonic()
        assert main(["walker", "normalize", "e[0]", "--p", "1000000000000000003", "--alpha", "w"]) == 0
        assert time.monotonic() - started < 1.0
        assert capsys.readouterr().out == "normal form: 1*e[0]\n"

    @pytest.mark.parametrize("p", ["3317044064679887385961981", "3" * 1000], ids=["at-the-bound", "1000-digits"])
    def test_p_past_the_primality_bound_exit_two(self, capsys, p):
        assert main(["walker", "normalize", "e[0]", "--p", p, "--alpha", "w"]) == 2
        assert capsys.readouterr().err == (
            "error: p must be below 3317044064679887385961981, where the primality test is exact\n"
        )


X = "x" * 500


class TestQuotedUserText:
    """Every error cuts the user text it quotes to 60 characters: the first 57 and `...`."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["walker", "normalize", "e[0]+" + X, "--p", "2", "--alpha", "w"],
                "expected a term at column 5: '+" + "x" * 56 + "...'",
            ),
            (
                ["walker", "normalize", "e[0]", "--p", "2", "--alpha", "w " + X],
                "bad ordinal syntax near ' " + "x" * 56 + "...'",
            ),
            (
                ["walker", "normalize", "e[0]", "--p", "2", "--alpha", "1 " + "9" * 500],
                "trailing tokens in ordinal: ['" + "9" * 55 + "...",
            ),
            (
                ["walker", "normalize", "e[w " + X + "]", "--p", "2", "--alpha", "w"],
                "bad index entry 'w " + "x" * 55 + "...' in the term at column 1: "
                "bad ordinal syntax near ' " + "x" * 56 + "...'",
            ),
            (
                ["walker", "ulm-probe", "0", "--p", "2", "--alpha", "w^(" * 201 + N + ")" * 201],
                "ordinal nested deeper than 200 parentheses near '(" + "9" * 56 + "...'",
            ),
            (["suite", "s" + X], "unknown suite 's" + "x" * 56 + "...'"),
            (
                ["walker", "normalize", "e[w*" + "9" * 500 + "]", "--p", "2", "--alpha", "w"],
                "index entry w*" + "9" * 55 + "... is not below alpha = w in the term at column 1",
            ),
            (
                ["walker", "normalize", "e[w^2]", "--p", "2", "--alpha", "w*" + "9" * 500],
                "index entry w^2 is not below alpha = w*" + "9" * 55 + "... in the term at column 1",
            ),
        ],
        ids=["element-term", "ordinal-syntax", "trailing-tokens", "index-entry", "nesting", "suite-name",
             "entry-past-alpha", "long-alpha"],
    )
    def test_long_text_is_cut(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_long_flag_value_is_cut(self, capsys):
        with pytest.raises(SystemExit) as exc:  # argparse rejects a bad flag value this way
            main(["suite", "paper-examples", "--seed", "1_" + "0" * 500])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --seed: expected ASCII digits, got '1_" + "0" * 55 + "...'\n")

    def test_long_json_value_is_cut(self, tmp_path, capsys):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps({"matrix": [[1], ["x" * 500]]}))
        assert main(["snf", str(path)]) == 2
        assert capsys.readouterr().err == "error: field 'matrix[1][0]' must be an integer, got \"" + "x" * 56 + "...\n"

    def test_short_text_is_quoted_whole(self, capsys):
        exactly = "x" * 58  # with the `+` and ` `, 60 characters
        assert main(["walker", "normalize", "e[0]+" + exactly, "--p", "2", "--alpha", "w"]) == 2
        assert capsys.readouterr().err == f"error: expected a term at column 5: '+{exactly}'\n"
        assert main(["walker", "normalize", "e[0]", "--p", "2", "--alpha", "w " + exactly]) == 2
        assert capsys.readouterr().err == f"error: bad ordinal syntax near ' {exactly}'\n"


CLI = [sys.executable, "-m", "limtower.cli"]


def checkout_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(limtower.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("rank, seed", [(22, 1), (22, 2), (48, 1), (48, 2)])
def test_analyze_answers_a_wide_torsion_tail(tmp_path, rank, seed):
    """A constant (Z/6)^r tail under a random endomorphism: lim checks the kernel of the stable endomorphism.

    A Smith-form kernel ran past 30 s at r = 22; the Hermite kernel answers
    r = 48 in well under a second.  The timeout makes a regression fail
    instead of hanging.
    """
    rng = random.Random(seed)
    group = {"free_rank": 0, "invariant_factors": [6] * rank}
    endo = {"domain": group, "codomain": group, "matrix": [[rng.randint(0, 5) for _ in range(rank)] for _ in range(rank)]}
    path = tmp_path / "tower.json"
    path.write_text(json.dumps({"prefix": [], "tail": {"kind": "constant_endo", "group": group, "endo": endo}}))
    # subprocess.run kills the child on timeout, so a hang cannot outlive the test
    proc = subprocess.run([*CLI, "analyze", str(path)], env=checkout_env(), capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "ml_status: stabilized" in proc.stdout and "lim1: zero" in proc.stdout


def test_closed_reader_ends_quietly(tmp_path):
    """A reader that stops early, as `head -c 10` does, is not bad input: no error line, the command's own code."""
    n = 100  # U, D and V of the identity: a report of about 330 KB, far past a pipe's buffer
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": [[int(i == j) for j in range(n)] for i in range(n)]}))
    argv = [*CLI, "snf", str(path), "--json", "-"]
    with subprocess.Popen(argv, env=checkout_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            assert proc.stdout.read(10) == b"diagonal: "
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
        assert proc.stderr.read() == b""


def digest_towers():
    """(tower, horizon): the corpus towers at horizons 1, 8 and 64, then 200 seeded towers.

    The seeded ones cycle through the four `suites` generators, a long
    finite prefix (W 30..120, groups of order at most 32, random maps, a
    zero or a random constant tail) and a free Z^2 or Z^3 prefix (W 8..20,
    entries in [-2, 2], an identity or random endomorphism tail).
    """
    for _, t in corpus_towers():
        for horizon in (1, 8, 64):
            yield t, horizon
    rng = random.Random(2027)
    makers = (random_finite_tower, random_surjective_tower, random_local_tower, random_decidable_tower)
    for k in range(200):
        if k % 6 < 4:
            t = makers[k % 6](rng)
        elif k % 6 == 4:
            groups = [random_finite_group(rng, 32) for _ in range(rng.randint(30, 120))]
            maps = tuple(random_hom(rng, groups[i + 1], groups[i]) for i in range(len(groups) - 1))
            top = groups[-1]
            t = Tower(tuple(groups), maps, rng.choice((ZeroTail(), ConstantEndo(top, random_hom(rng, top, top)))))
        else:
            g = FgAbGroup(rng.choice((2, 3)))
            maps = [GroupMap(g, g, [[rng.randint(-2, 2) for _ in range(g.ngens)] for _ in range(g.ngens)])
                    for _ in range(rng.randint(8, 20))]
            endo = maps.pop() if rng.random() < 0.5 else identity_map(g)
            t = Tower((g,) * (len(maps) + 1), tuple(maps), ConstantEndo(g, endo))
        yield t, DEFAULT_HORIZON


RECORDED_REPORT_DIGEST = "9c9d8f3b50255347ecdbb07ff567725fe05b15a8250d9389a5d1993bde66297c"


def test_reports_match_the_recorded_digest(tmp_path, monkeypatch, capsys):
    """Every byte of `analyze --json -` output on `digest_towers()` is as recorded.

    The digest is the sha256 of the concatenated stdout of `limtower analyze
    tower.json --json - --horizon H`, run in process from the directory that
    holds tower.json (so the report's `input` is the relative name), over
    `digest_towers()`. It was recorded by running this same function at
    commit 0b42cc0, before parsing validated at entry and before the image
    step read per-group torsion rows, and both commits give it. A change
    to any status, group, witness, length or report byte changes it.
    """
    monkeypatch.chdir(tmp_path)
    outputs = []
    for tower, horizon in digest_towers():
        (tmp_path / "tower.json").write_text(json.dumps(tower_to_json(tower)))
        assert main(["analyze", "tower.json", "--json", "-", "--horizon", str(horizon)]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(outputs) == 230
    digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
    assert digest == RECORDED_REPORT_DIGEST


@pytest.mark.parametrize(
    "args, recorded",
    [
        (["paper-examples"], "a07e681f7b0eaa820d3416acad03d97993401187575ea7ac748e497775943075"),
        (["property-suite", "--seed", "7"], "56e0bf805a1cf2b30f5b917469eb1af42ebfed87bb0fb1ae2e9ce2d10fc35654"),
    ],
    ids=["paper-examples", "property-suite-seed-7"],
)
def test_suite_output_matches_the_recorded_digest(args, recorded, capsys):
    """The sha256 of the stdout of `limtower suite NAME --json -` is as recorded.

    Both digests were recorded at commit 7d7a6fe, before the worked examples
    and the closed forms read one table, so every line a suite prints,
    failure-free, must come out byte for byte the same.
    """
    assert main(["suite", *args, "--json", "-"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == recorded


# The detail of each criterion the acceptance gate ran at commit 5a9daeb, before it read the criteria table
GATE_DETAILS = {
    "snf-certificates": "500 random matrices certified exactly",
    "finite-ml-soundness": "200 finite towers: stabilized, lim matches threads",
    "shift-invariance": "10 corpus towers invariant under shifts",
    "image-quotient-vanishing": "120 towers, stages up to 6: quotients limitless, 2010 order equations hold",
    "multiplication-closed-forms": "Z/25, Z/6, Z (p=2,3), Z+Z/4 families match closed forms and raw-element oracles",
    "decomposition-signature": "100 decidable towers decomposed; hand-built double agrees",
    "locality-closure": "100 null extensions and products of local towers stayed local",
    "walker-normal-form": "10002 raw elements across p in (2,3,5), alpha in (w, w*2+3)",
    "ulm-length": "54 sampled stages across 6 bounds, heights exact and climbing",
    "adjunction-and-window": "120 hom-set bijections, 36 window inverses verified",
}


def test_acceptance_suite_runs_every_row_of_the_criteria_table(capsys):
    assert main(["suite", "acceptance", "--json", "-"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("\n{") :])
    assert report["total"] == len(CRITERIA)
    assert [r["name"] for r in report["results"]] == sorted(row.name for row in CRITERIA)
    details = {r["name"]: r["detail"] for r in report["results"]}
    assert {name: details[name] for name in GATE_DETAILS} == GATE_DETAILS


def digest_matrices():
    """60 seeded matrices of 1..4 rows and 1..5 columns, entries in [-20, 20], every
    third with its last row a copy of its first; then [[a, 0], [0, a + 2]] with a of
    4000 sevens, whose Smith entry a(a + 2) has 8000 digits."""
    rng = random.Random(2028)
    for k in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        mat = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        if k % 3 == 0:
            mat[-1] = list(mat[0])
        yield mat
    a = int("7" * 4000)
    yield [[a, 0], [0, a + 2]]


RECORDED_SNF_DIGEST = "5c015831f554b365e78de11258c5d977397e5654016a0d42b23b83f4e96d0c09"


def test_snf_output_matches_the_recorded_digest(tmp_path, monkeypatch, capsys):
    """Every byte `snf mat.json --json -` prints on `digest_matrices()` is as recorded.

    The digest is the sha256 of the concatenated stdout, run in process from
    the directory that holds mat.json (so the report's `input` is the
    relative name). It was recorded before the commands began to return
    their report fields to `main`, which alone builds the report envelope.
    """
    monkeypatch.chdir(tmp_path)
    outputs = []
    for mat in digest_matrices():
        (tmp_path / "mat.json").write_text(json.dumps({"matrix": mat}))
        assert main(["snf", "mat.json", "--json", "-"]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(outputs) == 61
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == RECORDED_SNF_DIGEST


def _walker_line(ctx: WalkerContext, text: str) -> str:
    """The normal form, its height and the height-step fields of one element text, or its error."""
    try:
        nx = normalize(parse_element(ctx, text))
        fields = [format_element(nx), str(height(nx))]
        if not nx.is_zero():
            step = mul_p_height_step(nx)
            fields += [str(step.before), str(step.after), str(step.became_zero), str(step.ok)]
    except ValueError as exc:
        fields = ["error", str(exc)]
    return "\t".join(fields) + "\n"


README_WALKER_COMMANDS = (
    ["walker", "normalize", "3*e[0, 1] + e[w]", "--p", "2", "--alpha", "w*2+3"],
    ["walker", "height", "2*e[0, w]", "--p", "2", "--alpha", "w*2"],
    ["walker", "ulm-probe", "0", "5", "w", "w+1", "--p", "3", "--alpha", "w*2+3"],
)
RECORDED_WALKER_DIGEST = "18f1bfcc9e8d50efdfc29dfeafb0a5d97a4411bd8a83cb75ff4bd86ef8495b0d"


def test_walker_output_matches_the_recorded_digest(monkeypatch, capsys):
    """Every normal form, height and height step the walker prints is as recorded.

    The digest is the sha256 of one `_walker_line` per input over the 360
    seed-9 `walker-normalize` benchmark texts and the seeded
    `valid_element_text` texts, at alpha = w^(w^2), up to the 500th that
    parses (p cycling through 2, 3 and 5 over the parsed ones; a rejected
    text is recorded by its message), followed by the stdout of the
    README's `limtower walker` examples, text and `--json -`. It was
    recorded again when one term pattern replaced the term splitter and
    `valid_element_text` began to draw increasing entries: rejected texts
    now name a column, and more texts parse.  The benchmark texts and the
    README commands print the same bytes as before that change.  It was
    recorded once more when index errors began to name the column of their
    term: with each ` in the term at column N` removed from the 158
    `not below alpha` lines, the lines hash to the previous digest,
    84e12c1a547133f467422fd0bdeb9e090b9accb00c53fbd930be1502caf88090.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    lines = [
        _walker_line(inp.context, inp.key[1])
        for inp in itertools.islice(workloads.WORKLOADS["walker-normalize"].inputs("walker-normalize", 9), 360)
    ]
    rng = random.Random(131)
    contexts = [WalkerContext(p, parse_ordinal("w^(w^2)")) for p in (2, 3, 5)]
    accepted = nested = 0
    while accepted < 500:
        text = valid_element_text(rng)
        lines.append(_walker_line(contexts[accepted % 3], text))
        if not lines[-1].startswith("error\t"):
            accepted += 1
            nested += "^(" in format_element(normalize(parse_element(contexts[0], text)))
    assert nested > 100
    for argv in README_WALKER_COMMANDS:
        for extra in ([], ["--json", "-"]):
            assert main([*argv, *extra]) == 0
            lines.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == RECORDED_WALKER_DIGEST
