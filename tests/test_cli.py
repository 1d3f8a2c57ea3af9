import json
import random

import pytest

from limtower.cli import main
from limtower.groups import GroupMap, fg_group, multiplication_map
from limtower.serialize import (
    SCHEMA_VERSION,
    group_from_json,
    group_to_json,
    matrix_from_json,
    tower_from_json,
    tower_to_json,
)
from limtower.suites import random_finite_tower
from limtower.towers import ConstantEndo, Tower, analyze, multiplication_tower, null_tower


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
        ],
    )
    def test_ill_typed_field_exit_two(self, tmp_path, capsys, command, body, field):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(body))
        assert main([command, str(path)]) == 2
        assert field in capsys.readouterr().err

    def test_snf(self, matrix_file, capsys):
        assert main(["snf", matrix_file, "--json"]) == 0
        out = capsys.readouterr().out
        assert "certified: True" in out

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

    def test_walker_bad_element_exit_two(self, capsys):
        assert main(["walker", "normalize", "e[]", "--p", "2", "--alpha", "w"]) == 2

    def test_suite_runs(self, capsys):
        assert main(["suite", "paper-examples"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        # results are sorted by scenario name
        names = [line.split()[1] for line in out.splitlines() if line.startswith("[PASS]")]
        assert names == sorted(names)

    def test_unknown_suite_exit_two(self, capsys):
        assert main(["suite", "not-a-suite"]) == 2
        assert "unknown suite" in capsys.readouterr().err

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

    def test_seed_changes_property_suite_input(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["suite", "property-suite", "--seed", "1", "--json", str(p1)])
        obj = json.loads(p1.read_text())
        assert obj["input"]["seed"] == 1
        assert obj["passed"] == obj["total"]
