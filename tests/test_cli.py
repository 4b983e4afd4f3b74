import csv
import math
import os
import subprocess
import sys
import warnings
from functools import partial

import numpy as np
import pytest

import segbench
from segbench import cli, model
from segbench.cli import (
    CURVE_MAX_POINTS,
    EXIT_CHECK,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    _derive_seed,
    build_parser,
    main,
    parse_loss_token,
    run_gradcheck,
    run_grid,
)

# tiny-but-valid dataset/training flags shared by the heavier subcommands
FAST = [
    "--width", "16", "--height", "16", "--n-images", "12", "--fg-fraction", "0.2",
    "--noise-sigma", "0.05", "--epochs", "2", "--batch-size", "8", "--lr", "0.01",
]
# at FAST's shape this step size sends the network output to nan in some runs and not in others:
# train/roc at --seed 0 and grid/compare run 1 diverge, grid/compare run 0 does not
DIVERGING_LR = ["--lr", "1e300"]


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestCurve:
    def test_endpoints_and_threshold_row(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--out", str(out), "--n-points", "51"]) == EXIT_OK
        rows = read_rows(out)
        assert rows[0]["x"] == "0"
        assert float(rows[0]["loss"]) == 0.0
        assert float(rows[0]["derivative"]) == pytest.approx(20.0)
        assert any(float(r["x"]) == 0.1 for r in rows)
        captured = capsys.readouterr().out
        assert "15.6667" in captured  # derivative jump reported

    def test_linear_branch_value(self, tmp_path):
        out = tmp_path / "curve.csv"
        main(["curve", "--out", str(out), "--n-points", "11"])
        row = next(r for r in read_rows(out) if r["x"] == "0.3")
        assert float(row["loss"]) == pytest.approx(0.3 - (0.1 - 10 * math.log(1.2)), rel=1e-5)

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["curve", "--out", str(a)])
        main(["curve", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_out(self):
        assert main(["curve"]) == EXIT_USAGE


class TestGendata:
    def test_files_and_manifest(self, tmp_path):
        d = tmp_path / "ds"
        rc = main(["gendata", "--out-dir", str(d), "--n-images", "4", "--width", "16", "--height", "16"])
        assert rc == EXIT_OK
        pgms = sorted(p.name for p in d.glob("*.pgm"))
        assert len(pgms) == 8
        assert len(read_rows(d / "manifest.csv")) == 4

    def test_byte_identical_rerun(self, tmp_path):
        d = tmp_path / "ds"
        args = ["gendata", "--out-dir", str(d), "--n-images", "3", "--width", "16", "--height", "16"]
        main(args)
        before = {p.name: p.read_bytes() for p in d.iterdir()}
        main(args)
        after = {p.name: p.read_bytes() for p in d.iterdir()}
        assert before == after

    def test_manifest_fraction_matches_mask_recount(self, tmp_path):
        from segbench.synthdata import read_pgm

        d = tmp_path / "ds"
        main(["gendata", "--out-dir", str(d), "--n-images", "3", "--width", "24", "--height", "24"])
        for row in read_rows(d / "manifest.csv"):
            mask = read_pgm(d / row["mask_path"]) >= 128
            assert float(row["fg_fraction"]) == pytest.approx(mask.mean(), abs=1e-6)

    def test_unreachable_fraction_is_data_error(self, tmp_path):
        rc = main(["gendata", "--out-dir", str(tmp_path / "ds"), "--n-images", "1",
                   "--width", "16", "--height", "16", "--fg-fraction", "0.002"])
        assert rc == EXIT_DATA


class TestBadLossIsUsageError:
    @pytest.mark.parametrize("command", ["train", "roc", "grid", "compare"])
    @pytest.mark.parametrize("loss_flags", [
        ["hinge"],
        ["tversky", "--tversky-alpha", "-1"],
        ["tversky", "--smooth", "-1"],
        ["focal", "--focal-alpha", "2"],
    ])
    def test_exit_1(self, tmp_path, capsys, command, loss_flags):
        selector = ["--losses" if command == "compare" else "--loss", *loss_flags]
        assert main([command, *FAST, *selector, "--out", str(tmp_path / "o.csv")]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_compare_accepts_bce(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", *FAST, "--losses", "bce", "--seeds", "1", "--out", str(out)]) == EXIT_OK
        assert [r["loss"] for r in read_rows(out)] == ["bce", "bce"]


class TestTrain:
    def test_writes_record(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["train", *FAST, "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 2
        assert set(rows[0]) == {"epoch", "train_loss", "val_jaccard", "val_dice",
                               "val_recall", "val_specificity", "val_f1"}

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["train", *FAST, "--out", str(a)])
        main(["train", *FAST, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_all_wrap_flag(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["train", *FAST, "--all-wrap", "--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("command", ["train", "roc"])
    @pytest.mark.parametrize("wrap", [[], ["--all-wrap"]])
    def test_diverged_run_is_check_failure(self, tmp_path, capsys, command, wrap):
        with warnings.catch_warnings():  # the isfinite checks report it, not numpy's overflow warnings
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, *FAST, *DIVERGING_LR, *wrap, "--out", str(tmp_path / "o.csv")]) == EXIT_CHECK
        err = capsys.readouterr().err
        assert "check failed: non-finite network output" in err
        assert "Traceback" not in err

    def test_divergence_in_the_last_step_is_check_failure(self, tmp_path, capsys):
        # one batch in one epoch: only the validation pass sees the diverged weights
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["train", *FAST, *DIVERGING_LR, "--batch-size", "16", "--epochs", "1",
                         "--out", str(tmp_path / "o.csv")]) == EXIT_CHECK
        assert "check failed: non-finite validation output at epoch 0, batch 0" in capsys.readouterr().err


class TestGrid:
    def test_single_cell_rows(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(["grid", *FAST, "--out", str(out),
                   "--gammas", "0.1", "--omegas", "10", "--epsilons", "0.5", "--seeds", "1"])
        assert rc == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 2
        assert rows[0]["seed"] == "0"
        assert rows[1]["seed"] == "mean"
        assert rows[0]["val_jaccard"] == rows[1]["val_jaccard"]

    def test_cell_means_exact_on_report(self):
        o = {
            "width": 16, "height": 16, "fg_fraction": 0.2, "n_images": 12, "noise_sigma": 0.05,
            "blob_min": 1, "blob_max": 3, "data_seed": 0, "split_ratio": 0.8,
            "lr": 0.01, "batch_size": 8, "epochs": 2, "loss": "dice", "all_wrap": False,
            "smooth": 1e-6, "tversky_alpha": 0.7, "tversky_beta": 0.3, "focal_alpha": 1.0,
            "focal_gamma": 2.0, "mix": 0.5, "ft_gamma": 4 / 3, "gamma": 0.1, "omega": 10.0,
            "epsilon": 0.5, "gammas": "0.1", "omegas": "8,10", "epsilons": "0.5", "seeds": 2,
            "seed": 0, "jobs": 1, "out": "",
        }
        rows = run_grid(o)
        assert len(rows) == 2 * 2 + 2
        for cell in ("8", "10"):
            runs = [r for r in rows if r["omega"] == float(cell) and r["seed"] != "mean"]
            mean = next(r for r in rows if r["omega"] == float(cell) and r["seed"] == "mean")
            assert mean["val_jaccard"] == pytest.approx(np.mean([r["val_jaccard"] for r in runs]), abs=1e-12)

    def test_diverged_run_is_a_row(self, tmp_path):
        out = tmp_path / "grid.csv"
        with warnings.catch_warnings():  # the diverged row is the report, not numpy's overflow warnings
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["grid", *FAST, *DIVERGING_LR, "--out", str(out),
                         "--gammas", "0.1", "--omegas", "10", "--epsilons", "0.5", "--seeds", "2"]) == EXIT_OK
        rows = read_rows(out)
        assert [(r["seed"], r["status"]) for r in rows] == [("0", "ok"), ("1", "diverged"), ("mean", "ok")]
        assert (rows[1]["val_jaccard"], rows[1]["val_dice"], rows[1]["epochs_run"]) == ("nan", "nan", "0")
        assert rows[2]["val_jaccard"] == rows[0]["val_jaccard"]

    def test_mean_row_averages_only_ok_runs(self, monkeypatch):
        real_train = model.train

        def train(config, *sets):
            # omega 8: run 1 of 3 diverges; omega 12: every run diverges
            omega = config.adaptive_params.omega
            if omega == 12 or (omega == 8 and config.seed == _derive_seed(0, 1)):
                raise model.TrainingDiverged(0, 0, "loss nan")
            return real_train(config, *sets)

        monkeypatch.setattr(model, "train", train)
        o = dict(build_parser()[1]["grid"], width=16, height=16, fg_fraction=0.2, n_images=12, noise_sigma=0.05,
                 epochs=2, batch_size=8, lr=0.01, omegas="8,10,12", epsilons="0.5", seeds=3)
        rows = run_grid(o)
        cells = {w: [r for r in rows if r["omega"] == w] for w in (8.0, 10.0, 12.0)}
        assert [r["status"] for r in cells[8.0]] == ["ok", "diverged", "ok", "ok"]
        assert [r["status"] for r in cells[10.0]] == ["ok"] * 4
        assert [r["status"] for r in cells[12.0]] == ["diverged"] * 4
        for w in (8.0, 10.0):
            ok = [r for r in cells[w][:3] if r["status"] == "ok"]
            for key in ("val_jaccard", "val_dice", "epochs_run"):
                assert cells[w][3][key] == float(np.mean([r[key] for r in ok]))
        assert math.isnan(cells[8.0][1]["val_jaccard"]) and cells[8.0][1]["epochs_run"] == 0
        assert math.isnan(cells[12.0][3]["val_dice"]) and cells[12.0][3]["epochs_run"] == 0

    def test_branch_inactive_params_identical(self, tmp_path):
        # two gamma values both so large the linear branch never engages at
        # these loss scales differ only through the constant shift, which does
        # not change gradients: identical Jaccard, bitwise
        out = tmp_path / "grid.csv"
        main(["grid", *FAST, "--out", str(out),
              "--gammas", "0.0001,0.0002", "--omegas", "10", "--epsilons", "0.5", "--seeds", "1"])
        rows = [r for r in read_rows(out) if r["seed"] != "mean"]
        assert len(rows) == 2
        assert rows[0]["val_jaccard"] == rows[1]["val_jaccard"]


class TestJobs:
    @pytest.mark.parametrize("args", [
        ["compare", "--losses", "dice,all", "--seeds", "2"],
        ["grid", "--gammas", "0.1", "--omegas", "8,10", "--epsilons", "0.5", "--seeds", "2"],
        ["compare", "--losses", "dice,all", "--seeds", "2", *DIVERGING_LR],
        ["grid", "--gammas", "0.1", "--omegas", "8,10", "--epsilons", "0.5", "--seeds", "2", *DIVERGING_LR],
    ])
    def test_jobs_do_not_change_results(self, tmp_path, args):
        outputs = []
        for jobs in ("1", "2"):
            d = tmp_path / jobs
            d.mkdir()
            assert main([args[0], *FAST, *args[1:], "--jobs", jobs, "--out", str(d / "out.csv")]) == EXIT_OK
            outputs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
        assert outputs[0] == outputs[1]


class TestCompare:
    def test_zero_seeds_usage_error(self, tmp_path):
        assert main(["compare", *FAST, "--losses", "dice", "--seeds", "0",
                     "--out", str(tmp_path / "cmp.csv")]) == EXIT_USAGE

    def test_schema_and_determinism(self, tmp_path):
        out = tmp_path / "cmp.csv"
        rc = main(["compare", *FAST, "--out", str(out), "--losses", "dice,all", "--seeds", "2"])
        assert rc == EXIT_OK
        rows = read_rows(out)
        # 2 runs + 1 mean per loss
        assert len(rows) == 6
        assert set(rows[0]) == {"loss", "seed", "status", "recall", "specificity", "jaccard", "dice", "f1", "auc"}
        trace = read_rows(tmp_path / "cmp_epochs.csv")
        assert {r["loss"] for r in trace} == {"dice", "all"}
        assert set(trace[0]) == {"loss", "seed", "epoch", "val_jaccard"}

    def test_same_loss_listed_twice_identical(self, tmp_path):
        out = tmp_path / "cmp.csv"
        main(["compare", *FAST, "--out", str(out), "--losses", "dice,dice", "--seeds", "1"])
        rows = read_rows(out)
        a = [r for r in rows if r["seed"] == "0"]
        assert len(a) == 2
        assert {k: a[0][k] for k in a[0] if k != "loss"} == {k: a[1][k] for k in a[1] if k != "loss"}

    def test_loss_tokens(self):
        assert parse_loss_token("all") == ("dice", True)
        assert parse_loss_token("tversky+all") == ("tversky", True)
        assert parse_loss_token("focal") == ("focal", False)
        assert parse_loss_token("bce+all") == ("bce", True)
        from segbench.cli import UsageError

        with pytest.raises(UsageError):
            parse_loss_token("nope")


class TestRoc:
    def test_curve_output(self, tmp_path):
        out = tmp_path / "roc.csv"
        rc = main(["roc", *FAST, "--out", str(out), "--n-thresholds", "64"])
        assert rc == EXIT_OK
        rows = read_rows(out)
        assert rows[0]["fpr"] == "0" and rows[0]["tpr"] == "0"
        assert rows[-1]["fpr"] == "1" and rows[-1]["tpr"] == "1"
        aucs = {r["auc"] for r in rows}
        assert len(aucs) == 1
        assert 0.0 <= float(aucs.pop()) <= 1.0

    def test_auc_matches_train(self, tmp_path, capsys):
        flags = [*FAST, "--loss", "tversky", "--all-wrap"]
        assert main(["train", *flags, "--out", str(tmp_path / "run.csv")]) == EXIT_OK
        train_auc = capsys.readouterr().out.split("auc ")[-1].strip()
        assert main(["roc", *flags, "--n-thresholds", "256", "--out", str(tmp_path / "roc.csv")]) == EXIT_OK
        assert capsys.readouterr().out.split()[1] == train_auc


class TestGradcheckCommand:
    def test_passes_at_defaults(self):
        assert run_gradcheck(trials=5, tolerance=1e-6, net_tolerance=1e-4, seed=0, report=lambda *a: None)

    def test_corrupted_gradient_fails(self):
        assert not run_gradcheck(trials=3, tolerance=1e-6, net_tolerance=1e-4, seed=0,
                                 corrupt=1e-3, report=lambda *a: None)

    def test_zero_tolerance_fails(self):
        assert not run_gradcheck(trials=1, tolerance=0.0, net_tolerance=1e-4, seed=0,
                                 report=lambda *a: None)

    def test_cli_exit_codes(self, monkeypatch):
        assert main(["gradcheck", "--trials", "3"]) == EXIT_OK
        assert main(["gradcheck", "--trials", "3", "--corrupt", "0.001"]) == EXIT_USAGE  # a test hook, not a flag
        monkeypatch.setattr(cli, "run_gradcheck", partial(run_gradcheck, corrupt=1e-3))
        assert main(["gradcheck", "--trials", "3"]) == EXIT_CHECK

    def test_runs_as_python_m_segbench(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(segbench.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "segbench", "gradcheck", "--help"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.startswith("usage: segbench gradcheck")


class TestFlagsAndConfig:
    def test_unknown_flag_usage_error(self):
        assert main(["curve", "--bogus", "1"]) == EXIT_USAGE

    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_config_file_supplies_flags(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n-points = 21\nomega = 12\n")
        out = tmp_path / "c.csv"
        assert main(["curve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 21  # threshold 0.1 already on the 21-point grid
        assert any(float(r["x"]) == 0.1 for r in rows)
        assert float(rows[0]["derivative"]) == pytest.approx(24.0)  # omega/epsilon = 12/0.5

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("omega=12\n")
        out = tmp_path / "c.csv"
        main(["curve", "--config", str(cfg), "--omega", "6", "--out", str(out)])
        assert float(read_rows(out)[0]["derivative"]) == pytest.approx(12.0)

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus=1\n")
        assert main(["curve", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == EXIT_USAGE

    @pytest.mark.parametrize("line", ["lr=abc", "epochs=2.5", "noise-sigma=1e"])
    def test_bad_config_value(self, tmp_path, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run.csv")]) == EXIT_USAGE

    @pytest.mark.parametrize("command,flags", [
        ("grid", ["--gamma", "5"]),
        ("grid", ["--gamma", "0.2"]),
        ("grid", ["--omega", "12"]),
        ("grid", ["--epsilon", "1"]),
        ("grid", ["--all-wrap"]),
        ("compare", ["--loss", "hinge"]),
        ("compare", ["--loss", "dice"]),
        ("compare", ["--all-wrap"]),
    ])
    def test_flags_a_command_would_ignore_are_usage_errors(self, tmp_path, command, flags):
        assert main([command, *FAST, *flags, "--seeds", "1", "--out", str(tmp_path / "o.csv")]) == EXIT_USAGE

    @pytest.mark.parametrize("command,line", [
        ("grid", "gamma=0.2"), ("grid", "omega=12"), ("grid", "epsilon=1"), ("grid", "all-wrap=1"),
        ("compare", "loss=dice"), ("compare", "all_wrap=yes"),
    ])
    def test_config_keys_a_command_would_ignore_are_usage_errors(self, tmp_path, command, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        assert main([command, *FAST, "--config", str(cfg), "--seeds", "1",
                     "--out", str(tmp_path / "o.csv")]) == EXIT_USAGE

    @pytest.mark.parametrize("command,flag,value", [
        ("gendata", "--out", "x.csv"), ("gendata", "--seed", "1"), ("gendata", "--jobs", "2"),
        ("curve", "--seed", "1"), ("curve", "--jobs", "2"),
        ("gradcheck", "--out", "x.csv"), ("gradcheck", "--jobs", "2"),
        ("train", "--jobs", "2"), ("roc", "--jobs", "2"),
    ])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_flags_a_command_does_not_read_are_usage_errors(self, tmp_path, capsys, command, flag, value, via_config):
        valid = {  # each command's arguments without the flag under test: all of them valid
            "gendata": ["--out-dir", str(tmp_path / "ds"), "--n-images", "2", "--width", "16", "--height", "16"],
            "curve": ["--out", str(tmp_path / "c.csv")],
            "gradcheck": ["--trials", "1"],
            "train": [*FAST, "--out", str(tmp_path / "o.csv")],
            "roc": [*FAST, "--out", str(tmp_path / "o.csv")],
        }[command]
        if via_config:
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(f"{flag[2:]}={value}\n")
            extra, message = ["--config", str(cfg)], f"unknown config key {flag[2:]!r}"
        else:
            extra, message = [flag, value], f"unrecognized arguments: {flag} {value}"
        assert main([command, *valid, *extra]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "ds").exists() and not (tmp_path / "o.csv").exists()

    def test_missing_config_file_is_data_error(self, tmp_path):
        assert main(["curve", "--config", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "c.csv")]) == EXIT_DATA


class TestDegenerateInputs:
    @pytest.mark.parametrize("argv", [
        *[[command, *FAST, *flags]
          for command in ("train", "roc", "grid", "compare")
          for flags in (["--split-ratio", "1.0"], ["--split-ratio", "0"], ["--n-images", "1"])],
        ["roc", *FAST, "--n-thresholds", "1"],
        ["curve", "--n-points", str(CURVE_MAX_POINTS + 1)],
        ["curve", "--n-points", "1"],
        ["grid", *FAST, "--jobs", "0"],
        ["compare", *FAST, "--jobs", "-3"],
    ])
    def test_usage_error_before_any_work(self, tmp_path, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the input was checked")

        monkeypatch.setattr(segbench.synthdata, "generate", no_work)
        monkeypatch.setattr(model, "train", no_work)
        assert main([*argv, "--out", str(tmp_path / "o.csv")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()
