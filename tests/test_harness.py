"""Experiment runner, sweep aggregation, cost report, and CLI surface."""

import gc
import json
import subprocess
import sys
import weakref

import numpy as np
import pytest

from splitsim import harness
from splitsim.cli import main as cli_main
from splitsim.errors import ConfigError
from splitsim.harness import (
    ExperimentConfig,
    emit_cost_report,
    run_experiment,
    set_by_path,
    sweep,
)


def base_config(**overrides):
    raw = {
        "protocol": {
            "kind": "sglr",
            "clients": 2,
            "active_fraction": 0.5,
            "lr_exponent": 0.5,
            "batch_size": 4,
            "epochs": 2,
            "seed": 3,
        },
        "dataset": {
            "kind": "synthetic",
            "classes": 3,
            "per_class": 80,
            "dim": 8,
            "separation": 4.0,
            "per_client": 40,
            "validation": 60,
        },
        "model": {"hidden": [8], "cut_index": 2},
    }
    for key, value in overrides.items():
        set_by_path(raw, key, value)
    return raw


class TestConfig:
    def test_roundtrip(self):
        cfg = ExperimentConfig.from_dict(base_config())
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_missing_protocol_section(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"dataset": {}})
        assert "protocol" in str(err.value)

    def test_bad_field_reports_path(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(base_config(**{"dataset.kind": "parquet"}))
        assert "dataset.kind" in str(err.value)

    def test_cut_index_bounds(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(base_config(**{"model.cut_index": 9}))
        assert "model.cut_index" in str(err.value)

    def test_missing_idx_file(self):
        raw = base_config(**{"dataset.kind": "idx", "dataset.images": "/no/such",
                             "dataset.labels": "/no/such"})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_insufficient_samples(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(base_config(**{"dataset.per_client": 1000}))
        assert "per_client" in str(err.value)

    def test_cost_overrides_flow_into_summary(self):
        raw = base_config()
        raw["cost"] = {
            "cut_size_mb": 0.024, "model_size_mb": 200.0,
            "client_size_mb": 67.0, "dataset_size": 50_000,
            "clients": 100, "active_fraction": 0.5,
        }
        result = run_experiment(ExperimentConfig.from_dict(raw))
        row = result.summary_row()
        assert row["analytic_total_mb"] == pytest.approx(1800.024)

    def test_bad_cost_section(self):
        raw = base_config()
        raw["cost"] = {"cut_size_mb": -1.0, "model_size_mb": 0, "client_size_mb": 0,
                       "dataset_size": 1, "clients": 1}
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(raw)
        assert "cost" in str(err.value)


class TestRunExperiment:
    def test_separable_single_client_reaches_perfect_accuracy(self):
        raw = base_config(
            **{
                "protocol.kind": "sglr",
                "protocol.clients": 1,
                "protocol.epochs": 8,
                "protocol.base_lr": 0.01,
                "dataset.separation": 8.0,
                "dataset.per_client": 60,
            }
        )
        result = run_experiment(ExperimentConfig.from_dict(raw))
        assert result.final_accuracy == 1.0

    def test_one_record_per_epoch(self):
        result = run_experiment(ExperimentConfig.from_dict(base_config()))
        assert len(result.records) == 2
        assert [r.epoch for r in result.records] == [0, 1]

    def test_metrics_files_byte_identical_across_reruns(self, tmp_path):
        raw = base_config()
        for d in ("a", "b"):
            run_experiment(ExperimentConfig.from_dict(raw), tmp_path / d)
        for name in ("sglr-c2-phi0.5-a0.5-seed3.metrics.jsonl",
                     "sglr-c2-phi0.5-a0.5-seed3.summary.csv",
                     "sglr-c2-phi0.5-a0.5-seed3.config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_psl_equals_sglr_with_mechanisms_off(self):
        a = run_experiment(
            ExperimentConfig.from_dict(base_config(**{"protocol.kind": "psl"}))
        )
        b = run_experiment(
            ExperimentConfig.from_dict(
                base_config(
                    **{
                        "protocol.kind": "sglr",
                        "protocol.active_fraction": 0.0,
                        "protocol.lr_exponent": 0.0,
                    }
                )
            )
        )
        assert [r.val_accuracy for r in a.records] == [
            r.val_accuracy for r in b.records
        ]
        assert [r.train_loss for r in a.records] == [
            r.train_loss for r in b.records
        ]

    def test_leakage_scores_emitted_when_enabled(self):
        raw = base_config(**{"leakage.enabled": True, "leakage.pairs": 8,
                             "leakage.probe": 64})
        result = run_experiment(ExperimentConfig.from_dict(raw))
        assert all(r.leakage_score is not None for r in result.records)

    def test_degenerate_configs_run(self):
        for overrides in (
            {"protocol.kind": "psl", "protocol.clients": 1, "protocol.epochs": 1},
            {"protocol.kind": "sglr", "protocol.active_fraction": 1.0,
             "protocol.epochs": 1},
            {"protocol.kind": "sglr", "protocol.active_fraction": 0.0,
             "protocol.lr_exponent": 0.0, "protocol.epochs": 1},
            {"protocol.kind": "fl", "protocol.epochs": 1},
            {"protocol.kind": "ssl", "protocol.epochs": 1},
        ):
            result = run_experiment(ExperimentConfig.from_dict(base_config(**overrides)))
            assert np.isfinite(result.final_loss)


class TestSweep:
    def test_grid_shape_and_aggregation(self, tmp_path):
        rows = sweep(
            base_config(),
            grid={"protocol.clients": [1, 2], "protocol.active_fraction": [0.0, 0.5]},
            seeds=[1, 2],
            out_dir=tmp_path,
        )
        assert len(rows) == 4
        assert all(row["seeds"] == 2 for row in rows)
        assert (tmp_path / "sweep.csv").exists()
        run_files = list((tmp_path / "runs").glob("*.metrics.jsonl"))
        assert len(run_files) == 8

    def test_single_cell_matches_run_experiment(self):
        raw = base_config()
        rows = sweep(raw, grid={"protocol.kind": ["psl"]}, seeds=[5])
        direct = run_experiment(
            ExperimentConfig.from_dict(
                base_config(**{"protocol.kind": "psl", "protocol.seed": 5})
            )
        )
        assert rows[0]["mean_final_accuracy"] == direct.final_accuracy

    def test_cell_means_match_recomputation(self, tmp_path):
        rows = sweep(
            base_config(),
            grid={"protocol.active_fraction": [0.0, 1.0]},
            seeds=[7, 8, 9],
            out_dir=tmp_path,
        )
        for row in rows:
            finals = []
            for seed in (7, 8, 9):
                raw = base_config(
                    **{
                        "protocol.active_fraction": row["protocol.active_fraction"],
                        "protocol.seed": seed,
                    }
                )
                finals.append(run_experiment(ExperimentConfig.from_dict(raw)).final_accuracy)
            assert row["mean_final_accuracy"] == pytest.approx(np.mean(finals), rel=1e-12)

    def test_finished_runs_are_released(self, monkeypatch):
        """A sweep keeps only each run's finals, not its trainer."""
        finished = []
        original = harness.run_experiment

        def tracked(cfg, out_dir=None):
            gc.collect()
            assert all(ref() is None for ref in finished)
            result = original(cfg, out_dir)
            finished.append(weakref.ref(result.trainer))
            return result

        monkeypatch.setattr(harness, "run_experiment", tracked)
        rows = sweep(base_config(), grid={"protocol.kind": ["psl", "fl"]}, seeds=[1, 2])
        assert len(finished) == 4 and len(rows) == 2

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep(base_config(), grid={}, seeds=[1])

    def test_thread_env_gives_identical_rows(self, monkeypatch):
        grid = {"protocol.kind": ["psl", "sglr"]}
        serial = sweep(base_config(), grid=grid, seeds=[4, 5])
        monkeypatch.setenv("SPLITSIM_THREADS", "2")
        threaded = sweep(base_config(), grid=grid, seeds=[4, 5])
        assert serial == threaded


class TestCostReport:
    def test_reference_row_present_with_sglr_total(self):
        text = emit_cost_report()
        lines = [l for l in text.splitlines() if l.startswith("reference-100clients,sglr")]
        assert len(lines) == 1
        total_mb = float(lines[0].split(",")[-2])
        assert total_mb == pytest.approx(1800.024)

    def test_dataset_grid_includes_50000(self):
        text = emit_cost_report()
        assert "dataset-50000," in text

    def test_empty_methods(self):
        text = emit_cost_report(methods=())
        assert text.count("\n") >= 1


class TestCli:
    def _write_config(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_run_verb(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, base_config())
        code = cli_main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["protocol"] == "sglr"
        assert (tmp_path / "out").glob("*.metrics.jsonl")

    def test_set_override_and_seed(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, base_config())
        code = cli_main(
            ["run", "--config", cfg, "--seed", "11",
             "--set", "protocol.kind=psl", "--set", "protocol.epochs=1"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["protocol"] == "psl"
        assert summary["seed"] == 11
        assert summary["epochs"] == 1

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, base_config(**{"protocol.kind": "bogus"}))
        assert cli_main(["run", "--config", cfg]) == 2

    def test_missing_config_file(self, capsys):
        assert cli_main(["run", "--config", "/does/not/exist.json"]) == 2

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, base_config(**{"protocol.epochs": 1}))
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        assert cli_main(["run", "--config", cfg, "--out", str(blocker)]) == 3

    def test_leakage_rejects_fl(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, base_config(**{"protocol.kind": "fl"}))
        assert cli_main(["leakage", "--config", cfg]) == 2

    def test_cost_verb_stdout(self, capsys):
        assert cli_main(["cost"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("name,method")
        assert "reference-100clients" in out

    def test_sweep_verb(self, tmp_path, capsys):
        raw = {
            "experiment": base_config(),
            "grid": {"protocol.kind": ["psl", "sglr"]},
            "seeds": [1],
        }
        cfg = self._write_config(tmp_path, raw)
        code = cli_main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_leakage_verb(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, base_config(**{"protocol.epochs": 1}))
        code = cli_main(["leakage", "--config", cfg])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["final_leakage_score"] is not None

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "splitsim.cli", "cost"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("name,method")
