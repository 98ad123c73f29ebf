import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from halfspace_lab import cli, learner, selftest
from halfspace_lab.cli import (
    LOWERBOUND_HEADER,
    Scenario,
    UsageError,
    expand_sweep,
    main,
    make_label_source,
    parse_overrides,
)
from halfspace_lab.geometry import Halfspace, threshold_for_bias
from halfspace_lab.oracles import BoundaryBand, CleanLabels, RandomFlip, WhiteBoxView

from conftest import spread_offsets

import numpy as np

FAST_LEARN = [
    "--mode", "learn", "--dim", "5", "--tstar", "1.0", "--epsilon", "0.05",
    "--seed", "3", "--set", "restarts_per_gridpoint=1",
]


# the learn CSV's columns, written out so a change to the derived header shows
LEARN_COLUMNS = [
    "schema", "scenario", "mode", "dim", "tstar", "bias", "noise", "epsilon",
    "delta", "seed", "small_class", "budget", "verdict", "err_estimate", "err_se",
    "total_queries", "queries_bias", "queries_init", "queries_refine",
    "queries_tournament", "small_class_draws", "rounds",
]


def cli_learn(seed, restarts, tstar=1.0, spread=False, budget=None, out=None):
    """main on a learn at d=10, eps=0.02, with --budget and --out when
    given; spread moves the candidates' offsets 0.1 apart, so that none
    joins another and the restarts run on to a vote."""
    argv = [
        "--mode", "learn", "--dim", "10", "--tstar", str(tstar), "--epsilon", "0.02",
        "--seed", str(seed), "--set", f"restarts_per_gridpoint={restarts}",
    ]
    argv += [] if budget is None else ["--budget", str(budget)]
    argv += [] if out is None else ["--out", str(out)]
    with pytest.MonkeyPatch.context() as mp:
        if spread:
            mp.setattr(learner, "refine", spread_offsets(learner.refine, (0.0, 0.1, 0.2)))
        return main(argv)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_import_loads_only_scipy_special():
    # scipy.optimize and scipy.stats would add to every run's start-up
    # time and memory; the closed forms need only scipy.special
    code = "import sys, halfspace_lab.cli; print([m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestParsing:
    def test_overrides(self):
        out = parse_overrides(["a=1", "b=0.5", "c=text", "refine.c_stop=10.0"])
        assert out == {"a": 1, "b": 0.5, "c": "text", "refine.c_stop": 10.0}

    def test_bad_override_rejected(self):
        with pytest.raises(UsageError):
            parse_overrides(["novalue"])

    def test_mutually_exclusive_threshold_and_bias(self):
        with pytest.raises(UsageError):
            Scenario(mode="learn", tstar=1.0, bias=0.2)

    def test_bias_converts_to_threshold(self):
        s = Scenario(mode="learn", bias=0.2)
        assert s.threshold == pytest.approx(threshold_for_bias(0.2), abs=1e-9)

    @pytest.mark.parametrize(
        "spec,cls", [("clean", CleanLabels), ("rcn:0.1", RandomFlip), ("band:0.2", BoundaryBand)]
    )
    def test_noise_specs(self, spec, cls):
        target = Halfspace(np.array([1.0, 0.0]), 0.5)
        assert isinstance(make_label_source(spec, target), cls)

    def test_unknown_noise_rejected(self):
        target = Halfspace(np.array([1.0, 0.0]), 0.5)
        for spec in ("salt:1", "band:inf", "band:nan", "band:-inf", "rcn:nan"):
            with pytest.raises(UsageError):
                make_label_source(spec, target)


class TestSweepExpansion:
    def test_cross_product_order(self):
        cells = expand_sweep({"dim": [5, 10], "seed": [0, 1], "epsilon": 0.05})
        assert [(c["dim"], c["seed"]) for c in cells] == [(5, 0), (5, 1), (10, 0), (10, 1)]

    def test_unknown_field_rejected(self):
        with pytest.raises(UsageError):
            expand_sweep({"dimension": [5]})


class TestMainModes:
    def test_learn_writes_row(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert main(FAST_LEARN + ["--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == LEARN_COLUMNS
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["verdict"] in ("learned", "constant_plus_one")
        assert int(row["total_queries"]) > 0

    def test_learn_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(FAST_LEARN + ["--out", str(a)])
        main(FAST_LEARN + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_rows_monotone_in_dim(self, tmp_path):
        spec = {
            "dim": [5, 8],
            "tstar": 1.0,
            "epsilon": 0.02,
            "seed": 3,
            "set": {"restarts_per_gridpoint": 1},
        }
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(spec))
        out = tmp_path / "sweep.csv"
        assert main(["--mode", "sweep", "--sweep-file", str(sweep), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        totals = [int(dict(zip(header, r))["total_queries"]) for r in rows]
        assert len(rows) == 2
        assert totals == sorted(totals)

    def test_empty_sweep_cell_matches_default_learn(self, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text("{}")
        a, b = tmp_path / "learn.csv", tmp_path / "sweep.csv"
        assert main(["--mode", "learn", "--out", str(a)]) == 0
        assert main(["--mode", "sweep", "--sweep-file", str(sweep), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_takes_set_and_out(self, tmp_path):
        # --set next to a sweep file acts as the file's "set" would
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text('{"dim": 5, "set": {"restarts_per_gridpoint": 1}}')
        b.write_text('{"dim": 5}')
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--mode", "sweep", "--sweep-file", str(a), "--out", str(out_a)]) == 0
        assert main([
            "--mode", "sweep", "--sweep-file", str(b), "--set", "restarts_per_gridpoint=1",
            "--out", str(out_b),
        ]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_lowerbound_mode(self, tmp_path):
        out = tmp_path / "lb.csv"
        code = main([
            "--mode", "lowerbound", "--dim", "40", "--tstar", "1.0", "--seed", "1",
            "--set", "m=200", "--set", "tuples=20", "--set", "trials=2000",
            "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == LOWERBOUND_HEADER
        assert [r[2] for r in rows] == [
            "near_isometry_stat",
            "negative_capture_prob",
            "game_negatives_found",
            "game_queries_used",
        ]

    def test_lowerbound_greedy_game_pinned(self, tmp_path):
        # the greedy game prunes its rescoring; its reveals must not move
        out = tmp_path / "lb.csv"
        assert main([
            "--mode", "lowerbound", "--dim", "200", "--tstar", "1.0", "--seed", "0",
            "--set", "m=20000", "--set", "strategy=greedy", "--set", "game_negatives=1000",
            "--set", "tuples=20", "--set", "trials=2000", "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        stats = {r[2]: r[3] for r in rows}
        assert stats["game_negatives_found"] == "1000"
        assert stats["game_queries_used"] == "1376"

    def test_lowerbound_statistics_draw_apart(self, tmp_path):
        # the capture estimate has its own stream: its trial count moves
        # neither the near-isometry tuples nor the game's reveals
        kept = ["near_isometry_stat", "game_negatives_found", "game_queries_used"]
        runs = []
        for trials in (2000, 4000):
            out = tmp_path / f"lb{trials}.csv"
            assert main([
                "--mode", "lowerbound", "--dim", "40", "--tstar", "1.0", "--seed", "1",
                "--set", "game_negatives=5", "--set", f"trials={trials}", "--out", str(out),
            ]) == 0
            _, rows = read_csv(out)
            runs.append([r[3] for r in rows if r[2] in kept])
        assert runs[0] == runs[1]

    def test_readme_one_restart_learn_pinned(self, tmp_path):
        # golden pin, one of the two a change to the random streams
        # re-pins (with test_readme_example_stops_on_agreement); every
        # budget test derives its budget from ledger_marks instead.  The
        # README's first learn with one restart: a change to what the
        # learner queries shows up here as a plain diff
        out = tmp_path / "learn.csv"
        assert main([
            "--mode", "learn", "--dim", "20", "--tstar", "1.0", "--epsilon", "0.02", "--seed", "7",
            "--set", "restarts_per_gridpoint=1", "--out", str(out),
        ]) == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert (row["verdict"], row["total_queries"], row["err_estimate"]) == ("learned", "91738", "0.0003511454899")

    def test_selftest_mode(self, capsys):
        assert main(["--mode", "selftest"]) == 0

    def test_selftest_failure_exits_3(self, capsys, monkeypatch):
        def broken():
            raise AssertionError("broken on purpose")

        monkeypatch.setattr(selftest, "CHECKS", [("broken", broken)])
        assert main(["--mode", "selftest"]) == 3
        assert "FAIL broken: AssertionError('broken on purpose')" in capsys.readouterr().err

    def test_usage_errors_exit_1(self, tmp_path, capsys, monkeypatch):
        # a sweep checks every cell before it runs any learn, and a bad
        # --out path is refused before any scenario runs
        learns, pools = [], []
        monkeypatch.setattr(cli, "learn", lambda *args: learns.append(args))
        monkeypatch.setattr(cli, "Pool", lambda *args: pools.append(args))
        assert main(["--mode", "learn", "--tstar", "1", "--bias", "0.2"]) == 1
        assert main(["--mode", "nosuch"]) == 1
        assert main(["--mode", "sweep"]) == 1
        sweeps = [
            '{"dim": [4,',
            "5",
            '{"epsilon": "x"}',
            '{"tstar": "1"}',
            '{"small_class_oracle": "false"}',
            '{"dim": true}',
            '{"set": 3}',
            '{"noise": ["clean", "rcn:0.7"], "dim": 5, "epsilon": 0.05}',
            '{"dim": [4, 5], "set": {"refine.c1": 2}}',
            '{"set": {"delta": 0.2}}',
            # a value that is no stage config, caught before the first cell runs
            '{"dim": 3, "tstar": 0.5, "epsilon": [0.2, 0.05], "set": {"refine": 3}}',
        ]
        for i, text in enumerate(sweeps):
            sweep = tmp_path / f"sweep{i}.json"
            sweep.write_text(text)
            assert main(["--mode", "sweep", "--sweep-file", str(sweep)]) == 1, text
        # sweep mode takes no scenario flags, and only sweep mode takes a file
        sweep = tmp_path / "seed.json"
        sweep.write_text('{"seed": 3}')
        argvs = [
            ["--mode", "sweep", "--sweep-file", str(sweep), "--dim", "5", "--epsilon", "0.2"],
            ["--mode", "learn", "--sweep-file", str(sweep)],
            ["--mode", "learn", "--set", "tournament_factor=3"],
            ["--mode", "learn", "--noise", "rcn:0.7"],
            ["--mode", "learn", "--noise", "band:-1"],
            ["--mode", "learn", "--set", "refine.c1=2"],
            ["--mode", "learn", "--tstar", "nan"],
            ["--mode", "lowerbound", "--set", "m=abc"],
            ["--mode", "lowerbound", "--set", "M=200"],
            # --set takes neither a scenario field nor a value folded into a constant
            ["--mode", "learn", "--epsilon", "0.05", "--set", "epsilon=0.2"],
            ["--mode", "learn", "--set", "init.c2=16"],
            ["--mode", "learn", "--set", "refine.bias_window=(0.2,0.8)"],
            ["--mode", "learn", "--set", "eval_samples=1000"],
            ["--mode", "learn", "--noise", "band:inf"],
            ["--mode", "learn", "--noise", "band:nan"],
            # paths that cannot be read or written
            ["--mode", "sweep", "--sweep-file", str(tmp_path)],
            ["--mode", "lowerbound", "--out", str(tmp_path)],
            ["--mode", "lowerbound", "--out", str(tmp_path / "missing" / "lb.csv")],
        ]
        # values the learner config rejects, and lowerbound sizes no pool can meet
        learn_argv = ["--mode", "learn", "--dim", "3", "--tstar", "0.5", "--epsilon", "0.05", "--seed", "0"]
        for kv in [
            "grid_step=0", "grid_step=nan", "grid_step=-0.1", "grid_step=1e999",
            "refine.c_stop=0", "refine.c_stop=-1", "refine.grad_samples_multiplier=0",
            "refine.c1=1e999", "restarts_per_gridpoint=1.5", "restarts_per_gridpoint=0",
            "restarts_per_gridpoint=-1", "restarts_per_gridpoint=True", "refine=3",
        ]:
            argvs.append(learn_argv + ["--set", kv])
        for kvs in [
            ["m=0"], ["m=-5"], ["k=0"], ["tuples=0"], ["game_budget=0"], ["m=5", "k=10"],
            # counts are integers >= 1, not truncated
            ["m=1.5"], ["trials=2.7"], ["k=True"], ["tuples=-1"], ["game_negatives=0"],
            ["game_negatives=-1"], ["game_negatives=1.5"], ["game_budget=2.7"], ["game_budget=True"],
        ]:
            argvs.append(["--mode", "lowerbound"] + [arg for kv in kvs for arg in ("--set", kv)])
        for argv in argvs:
            assert main(argv) == 1, argv
        assert learns == [] and pools == []
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 3 + len(sweeps) + len(argvs)
        assert all(line.startswith("halfspace-lab: error: ") for line in errors)
        assert any("--set" in line and "--epsilon" in line for line in errors)
        assert any("--set" in line and "--delta" in line for line in errors)
        # an unknown key names the mode's keys, read off its config's fields
        assert any("'tournament_factor'" in line and "refine.c_stop" in line for line in errors)
        assert any("'M'" in line and "game_budget, strategy" in line for line in errors)

    def test_budget_exit_2(self):
        code = main([
            "--mode", "learn", "--dim", "5", "--tstar", "1.0", "--epsilon", "0.02",
            "--seed", "2", "--budget", "4000", "--set", "restarts_per_gridpoint=1",
        ])
        assert code == 2

    def test_budget_checked_before_each_descent_round(self, tmp_path, ledger_marks):
        # the budget runs out halfway through the first descent: the oracle
        # refuses the batch that would pass it and the row counts the rounds run
        budget = ledger_marks(cli_learn, seed=0, restarts=1).halfway("refine")
        out = tmp_path / "budget.csv"
        code = cli_learn(seed=0, restarts=1, budget=budget, out=out)
        assert code == 2
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["verdict"] == "budget"
        assert int(row["total_queries"]) <= budget
        assert int(row["rounds"]) > 0

    def test_budget_spent_in_tournament_exits_2(self, tmp_path, ledger_marks):
        # three restarts, whose candidates' offsets are spread 0.1 apart so
        # that none joins another, reach a vote over their three leaders;
        # the budget runs out halfway through it, so the vote's first pair
        # is taken and a later one refused
        budget = ledger_marks(cli_learn, seed=4, restarts=3, spread=True).halfway("tournament")
        out = tmp_path / "budget.csv"
        code = cli_learn(seed=4, restarts=3, spread=True, budget=budget, out=out)
        assert code == 2
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["verdict"] == "budget"
        assert int(row["queries_tournament"]) > 0
        assert int(row["total_queries"]) <= budget

    def test_spent_oracle_skips_the_tournament(self, tmp_path, monkeypatch, ledger_marks):
        # the budget runs out halfway through the second restart's descent,
        # whose candidate takes the closed-form offset of its last complete
        # round: no vote can be taken, so the medoid of the candidates by
        # exact disagreement mass wins without sampling a single
        # disagreement point.  The run reaches the end of the last round
        # that fits the budget.  At t* = -1 the learner flips the labels on
        # the oracle it also asks whether it is spent
        marks = {tstar: ledger_marks(cli_learn, seed=0, restarts=2, tstar=tstar) for tstar in (1.0, -1.0)}
        calls, descents = [], []
        sample, refine = learner.sample_disagreement, learner.refine

        def spy(oracle, *args, **kwargs):
            descents.append((oracle, oracle.label_sign, *refine(oracle, *args, **kwargs)))
            return descents[-1][2:]

        monkeypatch.setattr(
            learner, "sample_disagreement", lambda *args: calls.append(args) or sample(*args)
        )
        monkeypatch.setattr(learner, "refine", spy)
        out = tmp_path / "budget.csv"
        for tstar, marked in marks.items():
            budget = marked.halfway("refine", 1)
            descents.clear()
            code = cli_learn(seed=0, restarts=2, tstar=tstar, budget=budget, out=out)
            assert code == 2
            assert calls == []
            oracle, sign, h, state = descents[-1]
            assert state.round > 0
            assert h.t == state.t_cf
            winner = learner.medoid([c for _, _, c, _ in descents if c is not None])
            err = WhiteBoxView(oracle.source).true_error(winner if sign == 1 else winner.flipped())
            reached = max(end for _, end in marked["round"] if end <= budget)
            header, rows = read_csv(out)
            row = dict(zip(header, rows[0]))
            assert (row["verdict"], row["err_estimate"], row["total_queries"]) == (
                "budget", cli._fmt(err), str(reached)
            )
            assert row["queries_tournament"] == "0"
