import json
import os

import pytest

from rankal.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SAMPLE_RANKS = os.path.join(os.path.dirname(__file__), "..", "sample_data", "rank_lists.csv")


class TestAggregate:
    def test_single_list_echoes_order(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("id,l1\n7,2\n8,1\n9,3\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "aggregate", str(path), "--method", "borda-pnorm")
        assert code == 0
        assert "order (best first): 8 7 9" in out

    def test_bundled_sample_runs(self, capsys):
        code, out, _ = run_cli(capsys, "aggregate", SAMPLE_RANKS, "--method", "mc2",
                               "--no-truncate")
        assert code == 0
        assert "summed distances" in out

    def test_weights_normalization_notice(self, tmp_path, capsys):
        lists = tmp_path / "two.csv"
        lists.write_text("id,l1,l2\n1,1,2\n2,2,1\n", encoding="utf-8")
        weights = tmp_path / "w.txt"
        weights.write_text("2\n2\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "aggregate", str(lists), "--weights", str(weights)
        )
        assert code == 0
        assert "normalizing" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "heavy"])
    def test_bad_weight_exits_2(self, tmp_path, capsys, value):
        lists = tmp_path / "two.csv"
        lists.write_text("id,l1,l2\n1,1,2\n2,2,1\n", encoding="utf-8")
        weights = tmp_path / "w.txt"
        weights.write_text(f"1\n\n{value}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "aggregate", str(lists), "--weights", str(weights))
        assert code == 2
        assert f"{weights}: row 3: weight {value!r} is not a finite number" in err
        assert "order" not in out

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("id,l1\n1,not_a_rank\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "aggregate", str(path))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "body, row, message",
        [
            ("id,l1\n1.5,1\n2,2\n", 2, "not an integer"),
            ("id,l1\n1,1\n2,2\n1,3\n", 4, "duplicate sample id 1"),
        ],
        ids=["non-integer", "duplicate"],
    )
    def test_bad_sample_id_exits_2(self, tmp_path, capsys, body, row, message):
        path = tmp_path / "ids.csv"
        path.write_text(body, encoding="utf-8")
        code, out, err = run_cli(capsys, "aggregate", str(path))
        assert code == 2
        assert str(path) in err and f"row {row}" in err and message in err
        assert "order" not in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rank_exits_2(self, tmp_path, capsys, value):
        path = tmp_path / "ranks.csv"
        path.write_text(f"id,l1,l2\n1,1,2\n2,{value},1\n3,3,3\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "aggregate", str(path), "--method", "bucklin")
        assert code == 2
        assert str(path) in err and "row 3" in err and "finite" in err
        assert "order" not in out

    def test_unknown_method_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("id,l1\n1,1\n2,2\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["aggregate", str(path), "--method", "condorcet"])
        assert exc.value.code == 2


class TestToyTable:
    def test_exits_zero_and_reports_pass(self, capsys):
        code, out, _ = run_cli(capsys, "toy-table2")
        assert code == 0
        assert out.count("PASS") == 8
        assert "FAIL" not in out


def experiment_config(tmp_path, out_dir):
    return {
        "dataset": {"synthetic": {"n": 80, "seed": 0}},
        "split": {"test_fraction": 0.5, "seed": 100},
        "seeds": [0, 1],
        "checkpoints": [0.2, 0.4],
        "output_dir": str(out_dir),
        "methods": [
            {
                "name": "fused-mc2",
                "strategy": "fused",
                "criteria": ["diversity", "margin", "qbc"],
                "aggregator": "mc2",
                "budget": 0.4,
            },
            {"name": "random", "strategy": "random", "budget": 0.4},
        ],
    }


class TestRun:
    def test_writes_traces_curves_summary(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_dir = tmp_path / "results"
        cfg_path.write_text(json.dumps(experiment_config(tmp_path, out_dir)))
        code, out, _ = run_cli(capsys, "run", str(cfg_path))
        assert code == 0
        files = sorted(os.listdir(out_dir))
        traces = [f for f in files if f.startswith("trace_")]
        assert len(traces) == 4  # 2 methods x 2 seeds
        assert "curve_fused-mc2.csv" in files and "curve_random.csv" in files
        assert "summary.json" in files
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["win_tie_loss"]["target"] == "fused-mc2"

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_dir = tmp_path / "results"
        cfg_path.write_text(json.dumps(experiment_config(tmp_path, out_dir)))
        run_cli(capsys, "run", str(cfg_path))
        first = (out_dir / "curve_fused-mc2.csv").read_bytes()
        run_cli(capsys, "run", str(cfg_path))
        assert (out_dir / "curve_fused-mc2.csv").read_bytes() == first

    def test_bad_config_lists_offending_keys(self, tmp_path, capsys):
        cfg = experiment_config(tmp_path, tmp_path / "r")
        cfg["methods"][0]["aggregation"] = "mc2"  # wrong key name
        cfg["surprise"] = 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 2
        assert "aggregation" in err and "surprise" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            # two unnamed fused/mc2 methods both resolve to the label "fused-mc2"
            (lambda m: [dict(m[0], name="", criteria=["margin"]),
                        dict(m[0], name="", criteria=["diversity", "margin"])],
             "methods[1]: label 'fused-mc2' already used by methods[0]"),
            (lambda m: [dict(m[0], budget=0.3), m[1]],
             "methods[0]: checkpoint 0.4 exceeds budget 0.3"),
        ],
        ids=["duplicate-label", "checkpoint-above-budget"],
    )
    def test_config_that_would_lose_results_exits_2(self, tmp_path, capsys, edit, message):
        out_dir = tmp_path / "r"
        cfg = experiment_config(tmp_path, out_dir)
        cfg["methods"] = edit(cfg["methods"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 2
        assert message in err
        assert not out_dir.exists()


    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("checkpoints", ["a"], "'checkpoints' must be a list of numbers"),
            ("checkpoints", [0.2, None], "'checkpoints' must be a list of numbers"),
            ("checkpoints", [True], "'checkpoints' must be a list of numbers"),
            ("checkpoints", 0.2, "'checkpoints' must be a list of numbers"),
            ("seeds", ["a"], "'seeds' must be a non-empty list of non-negative integers"),
            ("seeds", [0.5], "'seeds' must be a non-empty list of non-negative integers"),
            ("seeds", [-1], "'seeds' must be a non-empty list of non-negative integers"),
            ("split", {"test_fraction": "x"}, "'split.test_fraction' must be a number"),
            ("split", {"seed": 1.5}, "'split.seed' must be a non-negative integer"),
            ("split", {"test_fraciton": 0.3}, "'split' may only hold"),
        ],
    )
    def test_mistyped_value_exits_2(self, tmp_path, capsys, key, value, message):
        out_dir = tmp_path / "r"
        cfg = experiment_config(tmp_path, out_dir)
        cfg[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 2
        assert "config errors" in err and message in err
        assert not out_dir.exists()


class TestCompare:
    def test_self_comparison_all_ties(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_dir = tmp_path / "results"
        cfg_path.write_text(json.dumps(experiment_config(tmp_path, out_dir)))
        run_cli(capsys, "run", str(cfg_path))
        code, out, _ = run_cli(capsys, "compare", str(out_dir), str(out_dir))
        assert code == 0
        # each method vs itself must tie at both checkpoints
        assert "fused-mc2" in out and "random" in out
        for line in out.splitlines():
            if line.startswith("IN ALL"):
                wins, ties, losses = line.split()[-1].split("/")
                assert int(wins) == int(losses) == 0 or int(ties) > 0

    def test_missing_dir_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "compare", str(tmp_path), str(tmp_path))
        assert code == 2
        assert "no curve" in err

    def test_differing_checkpoint_grids_exit_2(self, tmp_path, capsys):
        header = "seed,fraction,n_labeled,accuracy,f1,auc\n"
        for name, fractions in (("a", (0.1, 0.2)), ("b", (0.1, 0.3))):
            (tmp_path / name).mkdir()
            rows = "".join(f"{s},{f},4,0.9,0.9,0.9\n" for s in (0, 1) for f in fractions)
            (tmp_path / name / "curve_m.csv").write_text(header + rows, encoding="utf-8")
        code, _, err = run_cli(capsys, "compare", str(tmp_path / "a"), str(tmp_path / "b"))
        assert code == 2
        assert "checkpoint grids" in err
