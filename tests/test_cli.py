import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankal.aggregation import (
    BordaConfig,
    aggregate,
    build_transition,
    check_options,
    markov_aggregate,
    truncate_candidates,
)
from rankal.cli import UsageError, _load_config, main
from rankal.loop import ALConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SAMPLE_RANKS = os.path.join(os.path.dirname(__file__), "..", "sample_data", "rank_lists.csv")
# the range rule of each aggregation option, worded as every entry point states it
OPTION_RULES = {
    "n_select": "n_select must be an integer >= 1",
    "tun1": "tun1 must lie in (0, 1)",
    "tun2": "tun2 must be an integer >= 0",
    "p": "p must be a finite number >= 1",
}
OPTION_FLAGS = {"n_select": "--n", "tun1": "--tun1", "tun2": "--tun2", "p": "--p"}
FLAG_RULES = {OPTION_FLAGS[name]: rule for name, rule in OPTION_RULES.items()}


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

    @pytest.mark.parametrize("method, digest", [
        ("mc2", "820867975c8da77be4fe69fe1bb75ba312965e3895cfe4c53efc355d41086530"),
        ("borda-pnorm", "4cd021507c56347d29dd53c8d263f2262d15650e37efec25c8f443c260fb8922"),
    ])
    def test_3000_rows_in_bounded_memory(self, tmp_path, method, digest):
        # digests of the output when Kendall distances came from dense n x n arrays
        n = 3000
        rng = np.random.default_rng(2800)
        latent = rng.random(n)
        cols = [np.argsort(np.argsort(latent + rng.normal(0, 0.3, n))) + 1 for _ in range(2)]
        cols.append(np.argsort(np.argsort(latent + rng.normal(0, 0.3, n))) // 7 + 1)  # ties
        path = tmp_path / "big.csv"
        path.write_text("\n".join(["id,l1,l2,l3"] + [
            f"{i + 1},{a},{b},{c}" for i, (a, b, c) in enumerate(zip(*cols))
        ]) + "\n", encoding="utf-8")
        if not os.path.exists("/proc/self/status"):
            pytest.skip("needs /proc/self/status for the peak resident set")
        # VmHWM, not ru_maxrss: the latter carries over the forking process's peak
        script = ("import sys\n"
                  "from rankal.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "hwm = [ln for ln in open('/proc/self/status') if ln.startswith('VmHWM')]\n"
                  "print(hwm[0].split()[1], file=sys.stderr)\n"
                  "sys.exit(code)\n")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.run(
            [sys.executable, "-c", script, "aggregate", str(path), "--method", method],
            env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == digest
        assert int(proc.stderr.decode().split()[-1]) < 100 * 1024  # kB

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
            ("id,l1\n1e30,1\n2,2\n", 2, "not an integer"),
            ("id,l1\n9007199254740993,1\n9007199254740992,2\n", 2, "not an integer"),
        ],
        ids=["non-integer", "duplicate", "beyond-int64", "beyond-2**53"],
    )
    def test_bad_sample_id_exits_2(self, tmp_path, capsys, body, row, message):
        path = tmp_path / "ids.csv"
        path.write_text(body, encoding="utf-8")
        code, out, err = run_cli(capsys, "aggregate", str(path))
        assert code == 2
        assert str(path) in err and f"row {row}" in err and message in err
        assert "order" not in out

    @pytest.mark.parametrize(
        "body, message",
        [
            ("id,l1,l2\n\n1,1,2\n\n2,x,1\n", "row 5: rank 'x' is not a finite number >= 1"),
            ("id,l1,l2\n1,1,2\n2,0,1\n", "row 3: rank '0' is not a finite number >= 1"),
            ("1,x,2\n2,1,1\n", "row 1: rank 'x' is not a finite number >= 1"),
            ("id,l1\n", "no data rows"),
        ],
        ids=["blank-lines-counted", "rank-below-1", "first-row-is-data", "header-only"],
    )
    def test_bad_rank_file_names_row(self, tmp_path, capsys, body, message):
        path = tmp_path / "ranks.csv"
        path.write_text(body, encoding="utf-8")
        code, out, err = run_cli(capsys, "aggregate", str(path))
        assert code == 2
        assert f"{path}: {message}" in err
        assert "order" not in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rank_exits_2(self, tmp_path, capsys, value):
        path = tmp_path / "ranks.csv"
        path.write_text(f"id,l1,l2\n1,1,2\n2,{value},1\n3,3,3\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "aggregate", str(path), "--method", "bucklin")
        assert code == 2
        assert str(path) in err and "row 3" in err and "finite" in err
        assert "order" not in out

    @pytest.mark.parametrize(
        "flag, value",
        [("--p", "nan"), ("--p", "inf"), ("--p", "0.5"), ("--n", "-5"), ("--n", "0"),
         ("--tun2", "-9"), ("--tun1", "nan"), ("--tun1", "0"), ("--tun1", "1")],
    )
    def test_bad_flag_exits_2_naming_it(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["aggregate", SAMPLE_RANKS, "--method", "mc2", flag, value])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert f"argument {flag}: {FLAG_RULES[flag]}, got {value!r}" in captured.err
        assert "order" not in captured.out

    def test_bucklin_confirms_fractional_rank_at_its_ceiling(self, tmp_path, capsys):
        path = tmp_path / "half.csv"
        path.write_text("id,l1\n1,1\n2,2.5\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "aggregate", str(path), "--method", "bucklin")
        assert code == 0
        assert "order (best first): 1 2" in out
        assert "\n2,3,2\n" in out  # id 2 confirmed at depth 3 = ceil(2.5)

    def test_fractional_footrule_reported_exactly(self, tmp_path, capsys):
        path = tmp_path / "half.csv"
        path.write_text("id,a,b\n1,1.5,1\n2,1,2\n3,1,3\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "aggregate", str(path), "--method", "mc2", "--no-truncate")
        assert code == 0
        assert "distance to list 1: kendall=2 spearman=3.5\n" in out, out
        assert "distance to list 2: kendall=0 spearman=0\n" in out, out
        assert "summed distances: kendall=2 spearman=3.5\n" in out, out
        path.write_text("id,a,b\n1,1.5,1\n2,1,2.5\n3,1,3\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "aggregate", str(path), "--method", "mc2", "--no-truncate")
        assert code == 0
        assert "distance to list 2: kendall=0 spearman=0.5\n" in out, out
        assert "summed distances: kendall=2 spearman=4\n" in out, out
        path.write_text("id,a\n1,1.1\n2,2\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "aggregate", str(path), "--method", "mc2", "--no-truncate")
        assert "distance to list 1: kendall=0 spearman=0.1\n" in out, out

    def test_unknown_method_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("id,l1\n1,1\n2,2\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["aggregate", str(path), "--method", "condorcet"])
        assert exc.value.code == 2


# per option: values every entry point accepts, then values every one rejects
OPTION_VALUES = {
    "n_select": ([1, 3], [0, -5, 2.5, True, np.nan, np.inf, "x"]),
    "tun1": ([0.05, 0.5, 1e-9], [0, 1, 1.5, -0.1, True, np.nan, np.inf, "x"]),
    "tun2": ([0, 5], [-1, 1.5, True, np.nan, np.inf, "x"]),
    "p": ([1.0, 2, 7.5], [0.5, 0, -1, True, np.nan, np.inf, -np.inf, "x"]),
}
OPTION_CASES = [
    pytest.param(name, value, rule, id=f"{name}-{value!r}")
    for name, (good, bad) in OPTION_VALUES.items()
    for values, rule in ((good, None), (bad, OPTION_RULES[name]))
    for value in values
]
OPTION_LISTS = np.array([[1.0, 2, 3, 4, 5, 6, 7], [3.0, 1, 2, 7, 6, 5, 4], [1.0, 1, 3, 3, 5, 5, 7]])
OPTION_COMMITTEE = np.array([False, False, True])


def _verdict(call):
    """None if ``call()`` returns, else its ValueError's message."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


class TestOptionRanges:
    """Every entry point that takes an aggregation option (``ALConfig``,
    ``aggregate``, each backend, the ``rankal aggregate`` flag) accepts and
    rejects the same values, with the same rule text."""

    @staticmethod
    def library_calls(name, value):
        lists, weights, flags = OPTION_LISTS, np.ones(3), OPTION_COMMITTEE
        kw = {name: value}
        calls = {
            "check_options": lambda: check_options(**kw),
            "ALConfig": lambda: ALConfig(**kw),
            "aggregate-mc2": lambda: aggregate("mc2", lists, weights, committee_flags=flags, **kw),
            "aggregate-bucklin": lambda: aggregate("bucklin", lists, weights, **kw),
        }
        if name in ("n_select", "tun2", "tun1"):
            calls["markov_aggregate"] = lambda: markov_aggregate(
                lists, weights, committee_flags=flags, **kw)
        if name in ("n_select", "tun2"):
            calls["truncate_candidates"] = lambda: truncate_candidates(
                lists, flags, **{"n_select": 1, **kw})
        if name == "tun1":
            calls["build_transition"] = lambda: build_transition(lists, weights, "mc2", **kw)
        if name == "p":
            calls["BordaConfig"] = lambda: BordaConfig("pnorm", **kw)
        return calls

    @pytest.mark.parametrize("name, value, rule", OPTION_CASES)
    def test_same_verdict_everywhere(self, capsys, name, value, rule):
        verdicts = {where: _verdict(call) for where, call in self.library_calls(name, value).items()}
        flag, text = OPTION_FLAGS[name], str(value)
        try:
            code = main(["aggregate", SAMPLE_RANKS, "--method", "mc2", f"{flag}={text}"])
            verdicts[flag] = None if code == 0 else f"exit {code}"
        except SystemExit as exc:
            err = capsys.readouterr().err
            prefix, suffix = f"argument {flag}: ", f", got {text!r}"
            line = err.strip().splitlines()[-1]
            assert exc.code == 2 and prefix in line and line.endswith(suffix), err
            verdicts[flag] = line.split(prefix, 1)[1][:-len(suffix)]
        assert verdicts == dict.fromkeys(verdicts, rule)


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


# method and top-level values: plausible ones, then ones the loader must refuse
METHOD_VALUES = {
    "name": (["", "m1", "m2"], [5, "a/b"]),
    "strategy": (["fused", "serial", "parallel", "random"], ["bandit"]),
    "criteria": ([["margin"], ["diversity", "margin"], ["margin", "qbc"],
                  ["ted", "diversity", "margin"], ["random", "qbc"]],
                 [[], "margin", ["entropy"]]),
    "aggregator": (["mc2", "mc1", "borda-pnorm", "borda-geo", "bucklin"], ["condorcet"]),
    "n_select": ([1, 2, 3], [0, 2.5, "1", True]),
    "initial_batch": (["ted", "random"], ["best"]),
    "n_initial": ([2, 3, 5], [1, 2.5, 1000]),
    "budget": ([0.3, 0.5, 1.0], [0, 1.5, "x"]),
    "tun1": ([0.05, 0.5], [0, 1, 2, "x"]),
    "tun2": ([0, 5], [-1, 1.5]),
    "p": ([1.0, 2], [0.5, "x"]),
    "g": ([2, 5], [1, "5", 2.0]),
    "learner": ([{}, {"kernel": "linear"}, {"max_iter": 3}, {"reg": 1.0, "gamma": 0.5}],
                [{"max_iter": 0}, {"max_iter": "x"}, {"kernel": "poly"}, 5]),
    "diversity_reduce": (["max", "min"], ["mean"]),
    "ted_lambda": ([0.1, 1.0], [0, -1, "x"]),
    "serial_layers": ([None, [1], [10, 1], [6, 3], [8, 4, 2], [5, 5, 1]],
                      [[0], [2.5], "x", [6, 3, 1]]),
    "fixed_weights": ([None, [1.0], [0.5, 0.5], [0.0, 1.0], [0.2, 0.3, 0.5]],
                      [[0.0], [-1.0, 2.0], "x", [1.0, 1.0, 1.0]]),
}
# a drawn fixed_weights or serial_layers comes with the one strategy that reads it;
# spoiling one of them sets it without that strategy
OWN_STRATEGY = {"fixed_weights": "parallel", "serial_layers": "serial"}
TOP_VALUES = {
    "seeds": ([[0], [0, 1]], [[], [-1], [1, 1], "x", [True]]),
    "checkpoints": ([[0.1, 0.2], [0.3], [0.2, 0.5, 1.0]],
                    [[], [0.3, 0.1], [1.5], "x", [0.1, 0.1], [0], [float("nan")]]),
    "split": ([{}, {"test_fraction": 0.5, "seed": 3}, {"test_fraction": 0.3}],
              [{"test_fraction": 1.0}, {"bogus": 1}, {"seed": -1}, {"seed": True},
               {"test_fraction": float("nan")}]),
    "normalize_stats": (["full", "pool"], ["x"]),
}


@st.composite
def run_configs(draw):
    """A config on a 40-sample synthetic set, at most one of its values spoiled,
    and whether the spoiled value is a top-level one (invalid in any config)."""
    def entry(values):
        keys = draw(st.sets(st.sampled_from(sorted(values))))
        drawn = {k: draw(st.sampled_from(values[k][0])) for k in sorted(keys)}
        for key, strategy in OWN_STRATEGY.items():
            if drawn.get(key) is not None:
                drawn["strategy"] = strategy
        return drawn

    cfg = {"dataset": {"synthetic": {"n": 40, "seed": 0}}, "seeds": [0], "checkpoints": [0.2]}
    cfg.update(entry(TOP_VALUES))
    cfg["methods"] = [entry(METHOD_VALUES) for _ in range(draw(st.integers(1, 2)))]
    spoil = draw(st.sampled_from([None, "top", "method"]))
    if spoil == "top":
        key = draw(st.sampled_from(sorted(TOP_VALUES) + ["methods"]))
        cfg[key] = draw(st.sampled_from(TOP_VALUES[key][1] if key in TOP_VALUES else [[], 5, [5]]))
    elif spoil == "method":
        key = draw(st.sampled_from(sorted(METHOD_VALUES)))
        cfg["methods"][0][key] = draw(st.sampled_from(METHOD_VALUES[key][1]))
    return cfg, spoil == "top"


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

    def test_repeated_criterion_writes_one_column_holding_its_weight(self, tmp_path, capsys):
        cfg = experiment_config(tmp_path, tmp_path / "r")
        cfg["seeds"] = [0]
        cfg["methods"] = [{"name": "twice", "strategy": "fused", "aggregator": "mc2",
                           "criteria": ["margin", "margin", "qbc"], "budget": 0.4}]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, _ = run_cli(capsys, "run", str(cfg_path))
        assert code == 0
        header, *rows = (tmp_path / "r" / "trace_twice_seed0.csv").read_text().splitlines()
        assert header == "iteration,selected,w_margin,w_qbc"
        fused = [row.split(",")[2:] for row in rows if row.split(",")[2]]
        assert fused
        for weights in fused:
            assert sum(map(float, weights)) == pytest.approx(1.0)

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
            ("checkpoints", ["a"],
             "methods[0]: checkpoints must be finite, positive and strictly increasing"),
            ("checkpoints", [0.2, None],
             "methods[0]: checkpoints must be finite, positive and strictly increasing"),
            ("checkpoints", [True],
             "methods[0]: checkpoints must be finite, positive and strictly increasing"),
            ("checkpoints", 0.2, "'checkpoints' must be a list of numbers"),
            ("seeds", ["a"], "seeds[0]: seed must be an integer >= 0"),
            ("seeds", [0.5], "seeds[0]: seed must be an integer >= 0"),
            ("seeds", [-1], "seeds[0]: seed must be an integer >= 0"),
            ("split", {"test_fraction": "x"}, "split: test_fraction must lie in (0, 1)"),
            ("split", {"seed": 1.5}, "split: seed must be an integer >= 0"),
            ("split", {"test_fraciton": 0.3}, "'split' may only hold"),
            ("seeds", [0, 1, 0], "'seeds' must not repeat a seed"),
            ("checkpoints", [], "'checkpoints' must be a non-empty list of numbers"),
            ("output_dir", 5, "'output_dir' must be a non-empty string"),
            ("output_dir", None, "'output_dir' must be a non-empty string"),
            ("output_dir", ["x"], "'output_dir' must be a non-empty string"),
            ("output_dir", "", "'output_dir' must be a non-empty string"),
            ("normalize_stats", "x", "'normalize_stats' must be one of 'full', 'pool', got 'x'"),
            ("seeds", [], "'seeds' must be a non-empty list"),
            ("seeds", 3, "'seeds' must be a non-empty list"),
            ("methods", [], "'methods' must list at least one method"),
            ("methods", [5], "methods[0]: must be an object"),
            ("methods", [{"name": "a/b", "strategy": "random", "budget": 0.4}],
             "methods[0]: name 'a/b' must not contain a path separator"),
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


    @pytest.mark.parametrize(
        "params, message",
        [
            ({"bogus": 1}, "'dataset.synthetic' has unknown key 'bogus'"),
            ({"n": "x"}, "dataset.synthetic: n must be an integer >= 1"),
            ({"sigma": -1}, "dataset.synthetic: sigma must be a finite number >= 0"),
            ({"kind": "moons"}, "'dataset.synthetic.kind' must be 'two-blobs'"),
        ],
        ids=["unknown-key", "non-numeric", "out-of-range", "unknown-kind"],
    )
    def test_bad_synthetic_dataset_exits_2(self, tmp_path, capsys, params, message):
        out_dir = tmp_path / "r"
        cfg = experiment_config(tmp_path, out_dir)
        cfg["dataset"]["synthetic"].update(params)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 2
        assert "config errors" in err and message in err
        assert not out_dir.exists()


    @pytest.mark.parametrize("index", [10**12, 2**61], ids=["memory-error", "too-big"])
    def test_unallocatable_sparse_index_exits_2(self, tmp_path, capsys, index):
        data = tmp_path / "s.txt"
        data.write_text(f"1 1:0.5\n-1 {index}:0.2\n1 3:0.1\n-1 2:1\n")
        out_dir = tmp_path / "r"
        cfg = experiment_config(tmp_path, out_dir)
        cfg["dataset"] = {"path": str(data), "format": "sparse-index-value"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 2
        assert f"dataset.path: {data}: row 2: index {index} needs a 4 x {index}" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "text, fmt, message",
        [
            ("label\n1\n-1\n1\n-1\n", "dense-csv", "row 1: no feature column before the label"),
            ("1\n-1\n\n1\n-1\n", "sparse-index-value", "no row holds an index:value feature"),
        ],
        ids=["dense-csv", "sparse"],
    )
    def test_dataset_without_features_exits_2(self, tmp_path, capsys, text, fmt, message):
        data = tmp_path / "labels-only.txt"
        data.write_text(text)
        out_dir = tmp_path / "r"
        cfg = experiment_config(tmp_path, out_dir)
        cfg["dataset"] = {"path": str(data), "format": fmt}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 2
        assert f"dataset.path: {data}: {message}" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "dataset, message",
        [
            ({"path": ["a"]}, "'dataset.path' must be a non-empty string"),
            ({"path": 5}, "'dataset.path' must be a non-empty string"),
            ({"path": SAMPLE_RANKS, "fromat": "dense-csv"}, "'dataset' has unknown key 'fromat'"),
            ({"synthetic": {"n": 40}, "format": "dense-csv"}, "'dataset' has unknown key 'format'"),
            ({"path": SAMPLE_RANKS, "format": "bogus"},
             "'dataset.format' must be one of 'dense-csv', 'sparse-index-value'"),
            ({"path": SAMPLE_RANKS + ".missing"}, "dataset.path: [Errno 2] No such file"),
            ({}, "'dataset' must hold exactly one of 'synthetic' and 'path'"),
            ({"synthetic": {"n": 40}, "path": SAMPLE_RANKS},
             "'dataset' must hold exactly one of 'synthetic' and 'path'"),
            ({"synthetic": 5}, "'dataset.synthetic' must be an object"),
        ],
        ids=["path-list", "path-int", "unknown-path-key", "unknown-synthetic-key", "bad-format",
             "missing-file", "neither", "both", "synthetic-not-object"],
    )
    def test_bad_dataset_exits_2(self, tmp_path, capsys, dataset, message):
        out_dir = tmp_path / "r"
        cfg = experiment_config(tmp_path, out_dir)
        cfg["dataset"] = dataset
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 2
        assert "config errors" in err and message in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"learner": {"max_iter": 0}}, "methods[0]: max_iter must be an integer >= 1"),
            ({"learner": {"max_iter": "x"}}, "methods[0]: max_iter must be an integer >= 1"),
            ({"g": "5"}, "methods[0]: g must be an integer >= 2"),
            ({"g": 1}, "methods[0]: g must be an integer >= 2"),
            ({"n_select": 2.5}, "methods[0]: n_select must be an integer >= 1"),
            ({"n_initial": 3.0}, "methods[0]: n_initial must be an integer >= 2"),
            ({"tun1": 2}, "methods[0]: tun1 must lie in (0, 1)"),
            ({"tun2": -1}, "methods[0]: tun2 must be an integer >= 0"),
            ({"n_initial": 41}, "methods[0]: n_initial 41 exceeds the pool's 40 samples"),
            ({"learner": {"gamma": float("inf")}},
             "methods[0]: gamma must be a positive finite number"),
            ({"learner": {"gamma": True}}, "methods[0]: gamma must be a positive finite number"),
            ({"learner": {"tol": float("nan")}},
             "methods[0]: tol must be a positive finite number"),
        ],
        ids=["max_iter-0", "max_iter-str", "g-str", "g-1", "n_select-float",
             "n_initial-float", "tun1-2", "tun2-negative", "n_initial-above-pool",
             "gamma-inf", "gamma-bool", "tol-nan"],
    )
    def test_bad_learner_or_committee_value_exits_2(self, tmp_path, capsys, edit, message):
        out_dir = tmp_path / "r"
        cfg = experiment_config(tmp_path, out_dir)
        cfg["methods"][0].update(edit)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 2
        assert "config errors" in err and message in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda cfg: {k: v for k, v in cfg.items() if k != "output_dir"},
             "config errors:\n  missing 'output_dir'"),
            (lambda cfg: [cfg], "cfg.json: the config must be a JSON object"),
        ],
        ids=["no-output-dir", "not-an-object"],
    )
    def test_config_of_the_wrong_shape_exits_2(self, tmp_path, capsys, edit, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(edit(experiment_config(tmp_path, tmp_path / "r"))))
        code, out, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 2
        assert message in err
        assert out == "" and os.listdir(tmp_path) == ["cfg.json"]

    def test_nan_reg_in_second_method_exits_2_before_writing(self, tmp_path, capsys):
        # Python's json reads NaN; the first method alone would run and write its files
        out_dir = tmp_path / "r"
        cfg = experiment_config(tmp_path, out_dir)
        cfg["methods"][1]["learner"] = {"reg": float("nan")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert '"reg": NaN' in cfg_path.read_text()
        code, _, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 2
        assert "methods[1]: reg must be a positive finite number" in err
        assert not out_dir.exists()

    def test_one_class_split_exits_2(self, tmp_path, capsys):
        out_dir = tmp_path / "r"
        cfg = experiment_config(tmp_path, out_dir)
        cfg["dataset"]["synthetic"]["pos_fraction"] = 0  # every sample negative
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 2
        assert "seeds[0]: the pool split holds one class" in err
        assert not out_dir.exists()

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=run_configs())
    def test_accepted_configs_run_and_rejected_ones_write_nothing(self, tmp_path, capsys, case):
        cfg, spoiled_top = case
        with tempfile.TemporaryDirectory(dir=tmp_path) as work:
            out_dir = os.path.join(work, "results")
            cfg = dict(cfg, output_dir=out_dir)
            cfg_path = os.path.join(work, "cfg.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            try:
                _load_config(cfg_path)
                accepted = True
            except UsageError:
                accepted = False
            assert not (accepted and spoiled_top), cfg
            code, _, err = run_cli(capsys, "run", cfg_path)
            # _load_config also makes the checks that need the data (pool size,
            # classes per split), so every config it accepts runs
            if accepted:
                assert code == 0, err
                assert os.path.exists(os.path.join(out_dir, "summary.json"))
            else:
                assert code == 2 and "config errors" in err
                assert not os.path.exists(out_dir)


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

    def test_one_seed_exits_2_naming_the_curve_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_dir = tmp_path / "results"
        cfg_path.write_text(json.dumps(dict(experiment_config(tmp_path, out_dir), seeds=[0])))
        assert run_cli(capsys, "run", str(cfg_path))[0] == 0
        code, _, err = run_cli(capsys, "compare", str(out_dir), str(out_dir))
        assert code == 2
        assert f"{out_dir / 'curve_fused-mc2.csv'}: holds one seed" in err

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

    def test_differing_seed_lists_exit_2(self, tmp_path, capsys):
        # equal seed counts, so win_tie_loss alone would pair seed 0 with seed 7
        header = "seed,fraction,n_labeled,accuracy,f1,auc\n"
        for name, seeds in (("a", (0, 1, 2)), ("b", (7, 8, 9))):
            (tmp_path / name).mkdir()
            rows = "".join(f"{s},0.1,4,0.{s},0.9,0.9\n" for s in seeds)
            (tmp_path / name / "curve_m.csv").write_text(header + rows, encoding="utf-8")
        code, out, err = run_cli(capsys, "compare", str(tmp_path / "a"), str(tmp_path / "b"))
        assert code == 2 and out == ""
        assert (f"{tmp_path / 'a' / 'curve_m.csv'} holds seeds [0, 1, 2] but "
                f"{tmp_path / 'b' / 'curve_m.csv'} holds seeds [7, 8, 9]") in err

    CURVE_HEADER = "seed,fraction,n_labeled,accuracy,f1,auc\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            (CURVE_HEADER, "row 1: header without data rows"),
            ("seed,fraction,n_labeled,f1,auc\n0,0.1,4,0.9,0.9\n", "row 1: no accuracy column"),
            (CURVE_HEADER + "0,0.1,4,0.9,0.9,0.9\n0,0.2,4,nan,0.9,0.9\n",
             "row 3: accuracy 'nan' is not a finite number"),
            (CURVE_HEADER + "0,inf,4,0.9,0.9,0.9\n", "row 2: fraction 'inf' is not a finite number"),
            (CURVE_HEADER + "0,0.1,4\n", "row 2: expected 6 fields, got 3"),
            (CURVE_HEADER + "0,0.1,4,0.9,0.9,0.9\n0,0.2,4,0.9,0.9,0.9\n1,0.1,4,0.9,0.9,0.9\n",
             "inconsistent checkpoint grid"),
        ],
        ids=["header-only", "no-metric-column", "nan", "inf", "short-row", "seed-grids-differ"],
    )
    def test_bad_curve_file_exits_2(self, tmp_path, capsys, text, message):
        (tmp_path / "curve_m.csv").write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "compare", str(tmp_path), str(tmp_path))
        assert code == 2
        assert f"{tmp_path / 'curve_m.csv'}: {message}" in err
        assert out == "" and os.listdir(tmp_path) == ["curve_m.csv"]

    def test_metric_selects_curve_column(self, tmp_path, capsys):
        # equal accuracy everywhere; auc of "a" above "b" on every seed
        for name, auc in (("a", 0.9), ("b", 0.6)):
            (tmp_path / name).mkdir()
            rows = "".join(
                f"{s},0.1,4,0.8,0.7,{auc + 0.01 * s}\n" for s in range(5)
            )
            (tmp_path / name / "curve_m.csv").write_text(
                self.CURVE_HEADER + rows, encoding="utf-8"
            )
        dirs = (str(tmp_path / "a"), str(tmp_path / "b"))
        code, out, _ = run_cli(capsys, "compare", *dirs)
        assert code == 0 and "IN ALL: 0/1/0" in out
        code, out, _ = run_cli(capsys, "compare", *dirs, "--metric", "auc")
        assert code == 0 and "IN ALL: 1/0/0" in out
