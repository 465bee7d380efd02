"""Experiment runner, sweep aggregation, cost report, and CLI surface."""

import dataclasses
import gc
import json
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from splitsim import cli, comm, data, harness, nn, protocols, splitting
from splitsim.cli import cost_setting
from splitsim.cli import main as cli_main
from splitsim.comm import CostParams
from splitsim.errors import ConfigError, NumericError
from splitsim.harness import (
    DatasetSpec,
    ExperimentConfig,
    LeakageSpec,
    ModelSpec,
    emit_cost_report,
    run_experiment,
    set_by_path,
    sweep,
)
from splitsim.protocols import PROTOCOL_KINDS, STREAM_BATCH, ProtocolConfig, SplitTrainer


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
    def test_roundtrip(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(run_id="back"))
        again = ExperimentConfig.from_dict(dataclasses.asdict(cfg))
        assert dataclasses.asdict(again) == dataclasses.asdict(cfg)
        run_experiment(cfg, tmp_path)  # the config.json a run writes loads back too
        written = json.loads((tmp_path / "back.config.json").read_text())
        assert dataclasses.asdict(ExperimentConfig.from_dict(written)) == dataclasses.asdict(cfg)

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

    def test_fields_are_the_accepted_top_level_keys(self):
        assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
            "protocol", "dataset", "model", "leakage", "run_id"]

    def test_every_section_field_has_a_type_rule(self):
        """A field with an annotation ``FIELD_TYPES`` lacks would fail every
        config that sets it."""
        for cls in (ProtocolConfig, DatasetSpec, ModelSpec, LeakageSpec, CostParams):
            for f in dataclasses.fields(cls):
                assert f.type in harness.FIELD_TYPES, (cls.__name__, f.name, f.type)


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

    @pytest.mark.parametrize("kind", ["psl", "slr", "ssl"])
    def test_formula_total_matches_the_ledger_over_two_epochs(self, kind):
        """Without averaging, every byte is in the closed form: ssl's hand-off
        counts once in each epoch, as it is sent."""
        result = run_experiment(ExperimentConfig.from_dict(
            base_config(**{"protocol.kind": kind, "protocol.epochs": 2})))
        row = result.summary_row()
        assert row["formula_total_bytes"] == row["total_comm_bytes"] > 0

    @pytest.mark.parametrize("overrides", [{"protocol.active_fraction": 0.0}], ids=["phi0"])
    def test_sglr_without_averaging_sends_no_broadcast_in_the_formula(self, overrides):
        """An epoch in which no client averages has no broadcast in the run or
        in its closed form: 2 epochs of 2 * D * S_L, C = 4, 10 rounds of 4 rows."""
        raw = base_config(**{"protocol.clients": 4, "dataset.per_client": 40,
                             "model.hidden": [32], **overrides})
        row = run_experiment(ExperimentConfig.from_dict(raw)).summary_row()
        assert row["formula_total_bytes"] == row["total_comm_bytes"] == 2 * 2 * 160 * 32 * 8

    def test_records_start_with_the_summary_run_fields(self, tmp_path):
        """Every JSONL record holds the six fields that name the run, equal to
        the first six columns of the run's summary row."""
        cfg = ExperimentConfig.from_dict(base_config())
        result = run_experiment(cfg, tmp_path)
        header = list(result.summary_row().items())[:6]
        assert [key for key, _ in header] == ["run_id", "protocol", "clients",
                                              "active_fraction", "lr_exponent", "seed"]
        lines = (tmp_path / f"{cfg.resolved_run_id()}.metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert [(key, record[key]) for key, _ in header] == header

    def test_final_fields_read_the_records_and_the_ledger(self):
        result = run_experiment(ExperimentConfig.from_dict(base_config()))
        assert result.final_accuracy == result.records[-1].val_accuracy
        assert result.final_loss == result.records[-1].train_loss
        assert result.total_comm_bytes == result.ledger.total_bytes() > 0
        assert result.total_comm_bytes == sum(r.comm_bytes for r in result.records)
        for name in ("final_accuracy", "final_loss", "total_comm_bytes"):
            with pytest.raises(AttributeError):
                setattr(result, name, 0)
        # The closed form is the run total that reconcile reports, bit for bit,
        # here at an active share of 2/3 over 7 epochs, where a sum of the
        # epochs' closed forms ends one ulp away from it.
        raw = base_config(**{"protocol.clients": 3, "protocol.active_fraction": 0.75,
                             "protocol.epochs": 7, "protocol.seed": 0, "dataset.classes": 4,
                             "dataset.per_class": 60, "dataset.dim": 16,
                             "dataset.validation": 20, "model.hidden": [6, 8]})
        result = run_experiment(ExperimentConfig.from_dict(raw))
        report = comm.reconcile(result.ledger, harness.COST_METHOD["sglr"], clients=3,
                                rounds=7 * (40 // 4), batch_size=4, cut_width=6,
                                active_count=2, epochs=7,
                                param_counts={"segment": 16 * 6 + 6,
                                              "model": 16 * 6 + 6 + 6 * 8 + 8 + 8 * 4 + 4})
        assert result.formula_total_bytes == report.formula_total

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

    def test_colliding_run_ids_keep_every_run(self, tmp_path):
        """base_lr and cut_index are not in the default run id; each run
        still writes its own files, named after its grid cell."""
        grid = {"protocol.base_lr": [1e-3, 1e-2], "model.cut_index": [1, 2]}
        sweep(base_config(), grid=grid, seeds=[1, 2], out_dir=tmp_path)
        names = sorted(p.name for p in (tmp_path / "runs").glob("*.metrics.jsonl"))
        assert len(names) == 8
        assert "sglr-c2-phi0.5-a0.5-seed2-base_lr0.01-cut_index2.metrics.jsonl" in names
        for name in names:
            run_id = name.removesuffix(".metrics.jsonl")
            record = json.loads((tmp_path / "runs" / name).read_text().splitlines()[0])
            assert record["run_id"] == run_id

    def test_distinct_run_ids_keep_their_names(self, tmp_path):
        sweep(base_config(), grid={"protocol.kind": ["psl", "fl"]}, seeds=[1, 2],
              out_dir=tmp_path)
        names = {p.name for p in (tmp_path / "runs").glob("*.metrics.jsonl")}
        assert names == {
            f"{kind}-c2-phi0.5-a0.5-seed{seed}.metrics.jsonl"
            for kind in ("psl", "fl") for seed in (1, 2)
        }

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep(base_config(), grid={}, seeds=[1])

    def test_named_run_id_keeps_every_seed(self, tmp_path):
        """An experiment's own run_id is the same for every seed; runs that
        still collide after their grid cell get their seed appended."""
        sweep(base_config(run_id="mine"), grid={"protocol.kind": ["psl", "sglr"]},
              seeds=[0, 1], out_dir=tmp_path)
        names = sorted(p.name for p in (tmp_path / "runs").glob("*.metrics.jsonl"))
        assert names == [f"mine-kind{kind}-seed{seed}.metrics.jsonl"
                         for kind in ("psl", "sglr") for seed in (0, 1)]
        for name in names:
            record = json.loads((tmp_path / "runs" / name).read_text().splitlines()[0])
            assert record["run_id"] == name.removesuffix(".metrics.jsonl")

    def test_sweep_rows_identical_across_reruns(self):
        grid = {"protocol.kind": ["psl", "sglr"]}
        first = sweep(base_config(), grid=grid, seeds=[4, 5])
        again = sweep(base_config(), grid=grid, seeds=[4, 5])
        assert first == again


class TestSharedBatchOrders:
    """A sweep draws each batch order once and shares it between its runs."""

    @pytest.mark.parametrize("grid", [{"protocol.kind": list(PROTOCOL_KINDS)},
                                      {"protocol.batch_size": [4, 8]}], ids=["kinds", "batch"])
    def test_sweep_files_equal_the_runs_one_by_one(self, tmp_path, grid):
        """Every file a sweep writes is byte-identical to the one its config,
        run on its own outside any sweep, writes."""
        sweep(base_config(), grid=grid, seeds=[1, 2], out_dir=tmp_path / "sweep")
        swept = tmp_path / "sweep" / "runs"
        configs = sorted(swept.glob("*.config.json"))
        assert len(configs) == 2 * len(next(iter(grid.values())))
        for path in configs:
            raw = json.loads(path.read_text())
            run_experiment(ExperimentConfig.from_dict(raw), tmp_path / "alone")
        alone = sorted(p.name for p in (tmp_path / "alone").iterdir())
        assert alone == sorted(p.name for p in swept.iterdir())
        for name in alone:
            assert (tmp_path / "alone" / name).read_bytes() == (swept / name).read_bytes()

    def test_repeated_key_returns_one_read_only_order(self):
        """Inside the scope, trainers of any kind get one object per key:
        the fresh keyed draw, read-only. Outside it, each call draws anew."""
        rng = np.random.default_rng(0)
        model = splitting.SplitModel(nn.build_mlp([5, 6, 3], rng), 1)
        pairs = [(rng.normal(size=(n, 5)), rng.integers(0, 3, size=n)) for n in (9, 12)]
        cfg = ProtocolConfig(kind="psl", clients=2, batch_size=4, seed=7)
        psl = SplitTrainer(model.copy(), pairs, cfg)
        ssl = SplitTrainer(model.copy(), pairs, dataclasses.replace(cfg, kind="ssl"))
        with protocols.shared_batch_orders():
            for client in psl.clients:
                order = psl._batches_for(client, 1)
                assert psl._batches_for(client, 1) is order
                assert ssl._batches_for(ssl.clients[client.client_id], 1) is order
                assert not order.flags.writeable
                fresh = protocols._epoch_batches(
                    len(client.labels), 4, protocols.keyed_rng(7, STREAM_BATCH, 1,
                                                               client.client_id))
                assert np.array_equal(order, fresh)
        assert protocols._shared_orders is None
        client = psl.clients[0]
        assert psl._batches_for(client, 1) is not psl._batches_for(client, 1)

    def test_scope_is_released_after_a_sweep(self, monkeypatch):
        held, original = [], harness.run_experiment

        def spy(cfg, out_dir=None):
            held.append(protocols._shared_orders is not None)
            return original(cfg, out_dir)

        monkeypatch.setattr(harness, "run_experiment", spy)
        sweep(base_config(), grid={"protocol.kind": ["psl", "ssl"]}, seeds=[1])
        assert held == [True, True] and protocols._shared_orders is None

    def test_scope_is_released_after_a_run_raises(self):
        with pytest.raises((NumericError, RuntimeWarning)):  # an overflow warning may raise first
            sweep(base_config(**{"protocol.base_lr": 1e300}), grid={"protocol.kind": ["psl"]},
                  seeds=[1])
        assert protocols._shared_orders is None

    def test_a_nested_scope_keeps_the_outer_orders(self):
        with protocols.shared_batch_orders():
            outer = protocols._shared_orders
            outer["drawn"] = np.arange(3)
            with protocols.shared_batch_orders():
                assert protocols._shared_orders is outer and "drawn" in outer
            assert protocols._shared_orders is outer and "drawn" in outer
        assert protocols._shared_orders is None

    def test_two_sweeps_in_one_scope_draw_each_order_once(self, tmp_path, monkeypatch):
        """The second sweep reuses every order the first drew, and both write
        the files that each sweep, and each of its runs, writes alone."""
        grids = [{"protocol.kind": ["psl", "ssl"]}, {"protocol.kind": ["sglr", "fl"]}]
        for i, grid in enumerate(grids):
            sweep(base_config(), grid=grid, seeds=[1], out_dir=tmp_path / f"alone{i}")
        draws, original = [], protocols._epoch_batches
        monkeypatch.setattr(protocols, "_epoch_batches",
                            lambda *args: draws.append(args) or original(*args))
        with protocols.shared_batch_orders():
            for i, grid in enumerate(grids):
                sweep(base_config(), grid=grid, seeds=[1], out_dir=tmp_path / f"scoped{i}")
        assert len(draws) == 2 * 2  # 2 epochs x 2 clients, all in the first sweep
        for i in range(len(grids)):
            alone, scoped = tmp_path / f"alone{i}", tmp_path / f"scoped{i}"
            names = sorted(p.relative_to(alone) for p in alone.rglob("*") if p.is_file())
            assert len(names) == 1 + 2 * 3  # sweep.csv, and each run's three files
            assert names == sorted(p.relative_to(scoped) for p in scoped.rglob("*")
                                   if p.is_file())
            for name in names:
                assert (alone / name).read_bytes() == (scoped / name).read_bytes()

    def test_outer_scope_is_released_after_a_run_raises(self):
        with pytest.raises((NumericError, RuntimeWarning)):  # an overflow warning may raise first
            with protocols.shared_batch_orders():
                sweep(base_config(**{"protocol.base_lr": 1e300}),
                      grid={"protocol.kind": ["psl"]}, seeds=[1])
        assert protocols._shared_orders is None

    def test_a_single_run_holds_nothing(self, monkeypatch):
        draws, original = [], protocols._epoch_batches
        monkeypatch.setattr(protocols, "_epoch_batches",
                            lambda *args: draws.append(args) or original(*args))
        run_experiment(ExperimentConfig.from_dict(base_config()))
        assert protocols._shared_orders is None
        run_experiment(ExperimentConfig.from_dict(base_config()))
        assert len(draws) == 2 * 2 * 2  # every run draws its own: 2 epochs x 2 clients


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

    @pytest.mark.parametrize("exponent", ["400", "200.0"])
    def test_overflowing_server_lr_exits_2(self, tmp_path, capsys, exponent):
        cfg = self._write_config(tmp_path, base_config(**{"protocol.clients": 100}))
        code = cli_main(["run", "--config", cfg, "--set", f"protocol.lr_exponent={exponent}"])
        assert code == 2
        assert "protocol" in capsys.readouterr().err

    def test_cost_out_writes_the_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["cost", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"{out / 'cost_report.csv'}\n"
        golden = Path(__file__).parent / "golden" / "cost_default.csv"
        assert (out / "cost_report.csv").read_bytes() == golden.read_bytes()

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

    @pytest.mark.parametrize("overrides", [
        {"leakage.bins": 1},
        {"leakage.pairs": 0},
        {"leakage.pairs": harness.MAX_LEAKAGE_PAIRS + 1},
        {"leakage.probe": 0},
        {"leakage.probe": 256, "dataset.validation": 10},  # 10 probe rows < 16 bins
        {"leakage.probe": 8, "dataset.validation": 0},
        # Without validation rows the data caps the probe: 2 x 6 rows < 16 bins.
        {"dataset.classes": 2, "dataset.per_class": 6, "dataset.per_client": 4,
         "dataset.validation": 0},
    ], ids=["bins", "pairs", "pairs-above-the-bound", "probe", "probe-capped-by-validation",
            "probe-no-validation", "probe-capped-by-the-data"])
    def test_bad_leakage_settings_exit_2_before_training(self, tmp_path, capsys, overrides):
        raw = base_config(**{"leakage.enabled": True, **overrides})
        cfg = self._write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "leakage." in capsys.readouterr().err
        assert not out.exists()
        raw["leakage"]["enabled"] = False
        ExperimentConfig.from_dict(raw)  # only checked when scoring is on

    def test_probe_as_large_as_bins_accepted(self):
        ExperimentConfig.from_dict(base_config(**{
            "leakage.enabled": True, "leakage.bins": 10, "leakage.probe": 256,
            "dataset.validation": 10}))

    def test_pairs_at_the_bound_accepted(self):
        ExperimentConfig.from_dict(base_config(**{
            "leakage.enabled": True, "leakage.pairs": harness.MAX_LEAKAGE_PAIRS}))

    COST_SETTING = {"cut_size_mb": 1, "model_size_mb": 2, "client_size_mb": 1,
                    "dataset_size": 10, "clients": 2, "active_fraction": 0.5,
                    "link_rate": 1.0, "compute_time": 0.0}

    @pytest.mark.parametrize("raw, field", [
        ({"settings": [5]}, "settings[0]"),
        ({"settings": [{"cut_size_mb": 1, "model_size_mb": 2, "client_size_mb": 1,
                        "dataset_size": 10, "clients": 2}, "x"]}, "settings[1]"),
        ({"settings": {"cut_size_mb": 1}}, "settings"),
        ({"methods": ["fl", "sgl"]}, "methods"),
        ({"methods": "fl"}, "methods"),
        ({"settings": [{**COST_SETTING, "clients": True}]}, "settings[0].clients"),
        ({"settings": [{**COST_SETTING, "clients": 2.5}]}, "settings[0].clients"),
        ({"settings": [{**COST_SETTING, "dataset_size": 50000.5}]}, "settings[0].dataset_size"),
        ({"methods": ["fl"], "bogus": 1}, "bogus"),
        ({"settings": [{**COST_SETTING, "name": 7}]}, "settings[0].name"),
        ({"settings": [{**COST_SETTING, "name": ["a"]}]}, "settings[0].name"),
        ({"settings": [{**COST_SETTING, "name": None}]}, "settings[0].name"),
        ({"settings": [{**COST_SETTING, "clients": 0}]}, "settings[0]"),
        ({"settings": [{**COST_SETTING, "foo": 1}]}, "settings[0].foo"),
        ({"settings": [{"cut_size_mb": 1}]}, "settings[0].model_size_mb"),
    ])
    def test_malformed_cost_config_exits_2(self, tmp_path, capsys, raw, field):
        cfg = self._write_config(tmp_path, raw)
        assert cli_main(["cost", "--config", cfg]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err

    def test_cost_setting_leaves_its_entry_as_given(self):
        entry = {**self.COST_SETTING, "name": "mine"}
        before = dict(entry)
        assert cost_setting(entry, 0) == ("mine", CostParams(**self.COST_SETTING))
        assert entry == before
        assert cost_setting(dict(self.COST_SETTING), 3)[0] == "setting_3"

    def test_zero_link_rate_in_cost_config_exits_2(self, tmp_path, capsys):
        setting = {"cut_size_mb": 1, "model_size_mb": 2, "client_size_mb": 1,
                   "dataset_size": 10, "clients": 2, "link_rate": 0}
        cfg = self._write_config(tmp_path, {"settings": [setting]})
        assert cli_main(["cost", "--config", cfg]) == 2
        assert "config error: settings[0]: " in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("leakge", {"enabled": True}),
                                            ("cost", {"cut_size_mb": 1}),
                                            ("include_timestamps", False)])
    def test_unknown_top_level_key_exits_2_naming_it(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        cfg = self._write_config(tmp_path, base_config(**{key: value}))
        assert cli_main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {key}: unknown key" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_wrapper_holds_only_experiment_grid_and_seeds(self, tmp_path, capsys):
        raw = {"experiment": base_config(), "grid": {"protocol.kind": ["psl"]}, "seeds": [0],
               "leakage": {"enabled": True}}
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", self._write_config(tmp_path, raw),
                         "--out", str(out)]) == 2
        assert "config error: leakage: unknown key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("run_id", ["../escaped", "a/b", "", "a b", 7, ["x"]])
    def test_bad_run_id_exits_2_before_training(self, tmp_path, capsys, run_id):
        out = tmp_path / "out" / "x"
        cfg = self._write_config(tmp_path, base_config(run_id=run_id))
        assert cli_main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: run_id: must be a string of" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    @pytest.mark.parametrize("override, field", [
        ("protocol.base_lr=NaN", "protocol: base_lr"),
        ("protocol.base_lr=Infinity", "protocol: base_lr"),
        ("protocol.lr_exponent=Infinity", "protocol: lr_exponent"),
        ("protocol.lr_exponent=NaN", "protocol: lr_exponent"),
        ("protocol.active_fraction=NaN", "protocol: active_fraction"),
        ("dataset.separation=NaN", "dataset.separation: "),
        ("dataset.separation=Infinity", "dataset.separation: "),
    ])
    def test_nonfinite_run_setting_exits_2_before_training(self, tmp_path, capsys, override,
                                                         field):
        out = tmp_path / "out"
        cfg = self._write_config(tmp_path, base_config())
        assert cli_main(["run", "--config", cfg, "--set", override, "--out", str(out)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", list(COST_SETTING))
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_cost_setting_exits_2(self, tmp_path, capsys, name, value):
        setting = {**self.COST_SETTING, name: value}  # json writes NaN and Infinity
        cfg = self._write_config(tmp_path, {"settings": [setting]})
        assert cli_main(["cost", "--config", cfg]) == 2
        # The two counts are integers: a float of any value is turned away as such.
        want = (f"settings[0].{name}: must be an integer" if name in ("dataset_size", "clients")
                else f"settings[0]: {name} must be finite")
        assert f"config error: {want}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [
        "protocol.clients", "protocol.batch_size", "protocol.epochs", "protocol.seed",
        "dataset.classes", "dataset.per_class", "dataset.dim", "dataset.per_client",
        "dataset.validation", "model.cut_index", "model.hidden", "leakage.bins",
        "leakage.pairs", "leakage.probe",
    ])
    def test_non_integer_count_exits_2_naming_the_field(self, tmp_path, capsys, field):
        cfg = self._write_config(tmp_path, base_config(**{"leakage.enabled": True}))
        out = tmp_path / "out"
        for text in ("2.5", "NaN", "true", "4.0", '"4"'):
            value = f"[8, {text}]" if field == "model.hidden" else text
            code = cli_main(["run", "--config", cfg, "--set", f"{field}={value}",
                             "--out", str(out)])
            assert code == 2, value
            assert f"config error: {field}: must be " in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("verb, overrides, field", [
        ("run", ['dataset.separation="x"'], "dataset.separation"),
        ("run", ["dataset.kind=idx", "dataset.images=[1]"], "dataset.images"),
        ("run", ["protocol.active_fraction=true"], "protocol.active_fraction"),
        ("run", ["protocol.base_lr=true"], "protocol.base_lr"),
        ("run", ["protocol.optimizer=5"], "protocol.optimizer"),
        ("run", ['leakage.enabled="yes"'], "leakage.enabled"),
        ("run", ["leakage.enabled=1"], "leakage.enabled"),
        ("cost", ["settings=" + json.dumps([{**COST_SETTING, "cut_size_mb": True}])],
         "settings[0].cut_size_mb"),
        ("run", ["protocol=5"], "protocol"),
    ])
    def test_value_of_the_wrong_type_exits_2_naming_the_field(self, tmp_path, capsys, verb,
                                                             overrides, field):
        """A bool is no number and a number no bool or string."""
        cfg = self._write_config(tmp_path, base_config() if verb == "run" else {})
        out = tmp_path / "out"
        args = [verb, "--config", cfg, "--out", str(out)]
        for override in overrides:
            args += ["--set", override]
        assert cli_main(args) == 2
        assert f"config error: {field}: must be " in capsys.readouterr().err
        assert not out.exists()

    BEYOND_FLOAT = 10**400  # an integer too large for a float

    @pytest.mark.parametrize("verb, override, field", [
        ("run", f"protocol.base_lr={BEYOND_FLOAT}", "protocol.base_lr"),
        ("run", f"dataset.separation={BEYOND_FLOAT}", "dataset.separation"),
        ("cost", "settings=" + json.dumps([{**COST_SETTING, "cut_size_mb": BEYOND_FLOAT}]),
         "settings[0].cut_size_mb"),
    ], ids=["base_lr", "separation", "cut_size_mb"])
    def test_number_too_large_for_a_float_exits_2_naming_the_field(self, tmp_path, capsys, verb,
                                                                  override, field):
        cfg = self._write_config(tmp_path, base_config() if verb == "run" else {})
        out = tmp_path / "out"
        assert cli_main([verb, "--config", cfg, "--set", override, "--out", str(out)]) == 2
        assert f"config error: {field}: is too large for a float" in capsys.readouterr().err
        assert not out.exists()

    BEYOND_ARRAY = 10**20  # a length whose float64 array no address space holds

    @pytest.mark.parametrize("override, field", [
        (f"dataset.per_class={BEYOND_ARRAY}", "dataset.per_class"),
        (f"dataset.dim={BEYOND_ARRAY}", "dataset.dim"),
        (f"model.hidden=[{BEYOND_ARRAY}]", "model.hidden"),
    ], ids=["per_class", "dim", "hidden"])
    def test_size_numpy_cannot_hold_exits_2_naming_the_field(self, tmp_path, capsys, override,
                                                            field):
        cfg = self._write_config(tmp_path, {"protocol": {"kind": "psl", "clients": 2,
                                                         "epochs": 1}})
        out = tmp_path / "out"
        assert cli_main(["run", "--config", cfg, "--set", override, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {field}: " in err and "bytes an array can hold" in err
        assert not out.exists()

    def test_leakage_pairs_beyond_the_bound_exit_2_before_any_draw(self, tmp_path, capsys,
                                                                   monkeypatch):
        def no_draw(*args):
            raise AssertionError("pairs were drawn")

        monkeypatch.setattr(harness, "draw_pairs", no_draw)
        cfg = self._write_config(tmp_path, {"protocol": {"kind": "psl", "clients": 2,
                                                         "epochs": 1}})
        out = tmp_path / "out"
        code = cli_main(["run", "--config", cfg, "--set", "leakage.enabled=true",
                         "--set", "leakage.pairs=100000000000000000000", "--out", str(out)])
        assert code == 2
        assert "config error: leakage.pairs: must be at most 1048576" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cut", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", PROTOCOL_KINDS)
    def test_parameter_bound_is_the_trainers_buffer(self, monkeypatch, kind, cut):
        """The config check bounds the very buffer the trainer allocates: a
        limit one byte below its size rejects the config, naming model.hidden."""
        raw = base_config(**{"protocol.kind": kind, "protocol.epochs": 1,
                             "model.hidden": [64, 64], "model.cut_index": cut})
        nbytes = run_experiment(ExperimentConfig.from_dict(raw)).trainer.buffer.params.nbytes
        monkeypatch.setattr(sys, "maxsize", nbytes)
        ExperimentConfig.from_dict(raw)
        monkeypatch.setattr(sys, "maxsize", nbytes - 1)
        with pytest.raises(ConfigError, match="^model.hidden: "):
            ExperimentConfig.from_dict(raw)

    def test_memory_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg, out_dir=None):
            raise MemoryError("Unable to allocate 8.00 EiB")

        monkeypatch.setattr(cli, "run_experiment", exhausted)
        cfg = self._write_config(tmp_path, base_config())
        assert cli_main(["run", "--config", cfg]) == 3
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 8.00 EiB\n"

    @pytest.mark.parametrize("override, field", [
        ("protocol.seed=-1", "protocol: seed must be nonnegative"),
        ("dataset.validation=-5", "dataset.validation: must be nonnegative"),
        ("model.hidden=[-3]", "model.hidden: every width must be at least 1"),
        ("model.hidden=[0]", "model.hidden: every width must be at least 1"),
        ("model.hidden=[8, 0]", "model.hidden: every width must be at least 1"),
        ("protocol.clients=0", "protocol: need at least one client"),
        ("protocol.epochs=0", "protocol: batch_size and epochs must be at least 1"),
        ("dataset.classes=0", "dataset.classes: must be at least 1"),
        ("dataset.per_class=-5", "dataset.per_class: must be at least 1"),
        ("dataset.dim=2", "dataset.dim: dim must be >= classes"),
        ("dataset.per_client=3", "dataset.per_client: per_client smaller than the batch size"),
    ])
    def test_out_of_range_count_exits_2_naming_the_field(self, tmp_path, capsys, override,
                                                        field):
        cfg = self._write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert cli_main(["run", "--config", cfg, "--set", override, "--out", str(out)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override, field", [
        ("protocol.active_fraction=1.5", "protocol: active_fraction must lie in [0, 1]"),
        ("protocol.lr_exponent=-1", "protocol: lr_exponent must be nonnegative"),
        ("protocol.base_lr=0", "protocol: base_lr must be positive"),
        ('protocol.optimizer="rmsprop"', "protocol: unknown optimizer 'rmsprop'"),
        ("dataset.kind=idx", "dataset.images: required for idx datasets"),
        ("protocol.kind.x=1", "protocol.kind.x: path crosses a non-object value"),
        ("foo", "--set expects key=value, got 'foo'"),
        ("dataset.foo=1", "dataset.foo: unknown key; dataset holds only kind, classes, per_class"),
        ('protocol={"clients": 2}', "protocol.kind: required\n"),
    ])
    def test_rejected_setting_exits_2_naming_it(self, tmp_path, capsys, override, field):
        cfg = self._write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert cli_main(["run", "--config", cfg, "--set", override, "--out", str(out)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("{not json", "config is not valid JSON"),
        ("[1, 2]", "config root must be a JSON object"),
    ], ids=["not-json", "root-not-object"])
    def test_config_that_is_no_json_object_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert cli_main(["run", "--config", str(path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("splitavg_mean", False),
                                            ("lr_scale_basis", "batch")])
    def test_removed_protocol_key_exits_2(self, tmp_path, capsys, key, value):
        """The literal-sum average and the batch-based server rate are gone;
        a config that still sets either is rejected, not silently ignored."""
        cfg = self._write_config(tmp_path, base_config(**{f"protocol.{key}": value}))
        assert cli_main(["run", "--config", cfg]) == 2
        assert f"config error: protocol.{key}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["file", "set"])
    def test_phase_key_exits_2(self, tmp_path, capsys, where):
        """Averaging has no schedule: phi alone decides who averages, and a
        config that still sets a phase is rejected before anything is written."""
        in_file = {"protocol.phase": "always"} if where == "file" else {}
        cfg = self._write_config(tmp_path, base_config(**in_file))
        out = tmp_path / "out"
        args = ["run", "--config", cfg, "--out", str(out)]
        assert cli_main(args + (["--set", "protocol.phase=always"] if where == "set" else [])) == 2
        assert "config error: protocol.phase: unknown key" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    def test_model_hidden_must_be_a_list(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, base_config())
        assert cli_main(["run", "--config", cfg, "--set", "model.hidden=8"]) == 2
        assert "config error: model.hidden: must be a list of integers" in capsys.readouterr().err

    def test_truncated_idx_pixels_exit_3(self, tmp_path, capsys):
        images, labels = tmp_path / "images", tmp_path / "labels"
        rng = np.random.default_rng(0)
        data.write_idx(images, labels, rng.integers(0, 256, size=(40, 3, 2), dtype=np.uint8),
                       rng.integers(0, 3, size=40))
        images.write_bytes(images.read_bytes()[:16 + 100])  # header intact, pixels cut short
        raw = base_config(**{"dataset.kind": "idx", "dataset.images": str(images),
                             "dataset.labels": str(labels), "dataset.per_client": 12,
                             "dataset.validation": 8})
        cfg = self._write_config(tmp_path, raw)
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "truncated pixel data" in err

    def test_idx_count_mismatch_exits_3(self, tmp_path, capsys):
        images, labels = tmp_path / "images", tmp_path / "labels"
        data.write_idx(images, labels, np.zeros((40, 3, 2)), np.arange(40) % 3)
        labels.write_bytes(struct.pack(">II", data.IDX_LABEL_MAGIC, 39) + bytes(39))
        raw = base_config(**{"dataset.kind": "idx", "dataset.images": str(images),
                             "dataset.labels": str(labels), "dataset.per_client": 12,
                             "dataset.validation": 8})
        cfg = self._write_config(tmp_path, raw)
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "error: image count 40 does not match label count 39\n")

    @pytest.mark.parametrize("label_file, message", [
        (struct.pack(">II", 0x802, 60) + bytes(60), "{labels}: bad label magic 0x00000802"),
        (struct.pack(">II", data.IDX_LABEL_MAGIC, 59) + bytes(59),
         "image count 60 does not match label count 59"),
    ], ids=["magic", "count"])
    def test_idx_label_header_fault_exits_3_before_loading_pixels(
            self, tmp_path, capsys, monkeypatch, label_file, message):
        """Both headers are read when the config is checked, so a bad label
        header fails before any payload of the pair is read."""
        images, labels = tmp_path / "images", tmp_path / "labels"
        data.write_idx(images, labels, np.zeros((60, 3, 2)), np.arange(60) % 3)
        labels.write_bytes(label_file)
        reads = []
        read_idx = data._read_idx
        monkeypatch.setattr(data, "_read_idx",
                            lambda *args: (reads.append(args), read_idx(*args))[1])
        raw = base_config(**{"dataset.kind": "idx", "dataset.images": str(images),
                             "dataset.labels": str(labels), "dataset.per_client": 12,
                             "dataset.validation": 8})
        cfg = self._write_config(tmp_path, raw)
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"error: {message.format(labels=labels)}\n"
        assert reads == []

    @pytest.mark.parametrize("validation, left", [(10, 50), (60, 0)])
    def test_idx_short_of_rows_exits_2_before_loading_pixels(
            self, tmp_path, capsys, monkeypatch, validation, left):
        """The image count comes from the IDX header, and the capacity check
        is the synthetic one: 4 clients x 20 rows do not fit in 60 images."""
        images, labels = tmp_path / "images", tmp_path / "labels"
        data.write_idx(images, labels, np.zeros((60, 3, 2)), np.arange(60) % 3)
        monkeypatch.setattr(data, "load_idx", lambda *_: pytest.fail("pixels loaded"))
        raw = base_config(**{"dataset.kind": "idx", "dataset.images": str(images),
                             "dataset.labels": str(labels), "protocol.clients": 4,
                             "dataset.per_client": 20, "dataset.validation": validation})
        cfg = self._write_config(tmp_path, raw)
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: dataset.per_client: needs 80 training samples but only "
            f"{left} remain after validation\n")

    def test_idx_model_numpy_cannot_hold_exits_2_before_loading_pixels(
            self, tmp_path, capsys, monkeypatch):
        images, labels = tmp_path / "images", tmp_path / "labels"
        data.write_idx(images, labels, np.zeros((60, 3, 2)), np.arange(60) % 3)
        monkeypatch.setattr(data, "load_idx", lambda *_: pytest.fail("pixels loaded"))
        raw = base_config(**{"dataset.kind": "idx", "dataset.images": str(images),
                             "dataset.labels": str(labels), "dataset.per_client": 20,
                             "dataset.validation": 10, "model.hidden": [10**19]})
        cfg = self._write_config(tmp_path, raw)
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: model.hidden: ")

    def test_sweep_seed_flag_runs_only_that_seed(self, tmp_path, capsys):
        raw = {"experiment": base_config(**{"protocol.epochs": 1}),
               "grid": {"protocol.kind": ["psl", "sglr"]}, "seeds": [1, 2]}
        cfg = self._write_config(tmp_path, raw)
        out = tmp_path / "sw"
        assert cli_main(["sweep", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(row["protocol.kind"], row["seeds"]) for row in rows] == [("psl", 1), ("sglr", 1)]
        seeds = {json.loads(line)["seed"] for path in (out / "runs").glob("*.metrics.jsonl")
                 for line in path.read_text().splitlines()}
        assert seeds == {7}

    @pytest.mark.parametrize("values", [3, [], "psl"])
    def test_sweep_grid_value_must_be_a_non_empty_list(self, tmp_path, capsys, values):
        key = "protocol.kind" if values == "psl" else "protocol.clients"
        raw = {"experiment": base_config(), "grid": {key: values}, "seeds": [0]}
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", self._write_config(tmp_path, raw),
                         "--out", str(out)]) == 2
        assert f"config error: grid.{key}: must be a non-empty list" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_grid_value_listed_twice_exits_2(self, tmp_path, capsys):
        raw = {"experiment": base_config(), "grid": {"protocol.kind": ["psl", "psl"]},
               "seeds": [0]}
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", self._write_config(tmp_path, raw),
                         "--out", str(out)]) == 2
        assert "config error: grid: sweep runs share a run id" in capsys.readouterr().err
        assert not out.exists()

    def test_cost_config_methods_subset(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, {"methods": ["psl", "fl"]})
        assert cli_main(["cost", "--config", cfg]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert {row.split(",")[1] for row in rows} == {"psl", "fl"}

    def test_sweep_grid_of_lists_keeps_one_run_and_row_per_cell(self, tmp_path, capsys):
        raw = {"experiment": base_config(**{"protocol.epochs": 1}),
               "grid": {"model.hidden": [[8], [4]]}, "seeds": [1]}
        out = tmp_path / "sw"
        assert cli_main(["sweep", "--config", self._write_config(tmp_path, raw),
                         "--out", str(out)]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [row["model.hidden"] for row in rows] == [[8], [4]]
        names = sorted(p.name for p in (out / "runs").glob("*.metrics.jsonl"))
        assert names == ["sglr-c2-phi0.5-a0.5-seed1-hidden_4_.metrics.jsonl",
                         "sglr-c2-phi0.5-a0.5-seed1-hidden_8_.metrics.jsonl"]
        csv_rows = (out / "sweep.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in csv_rows] == ["model.hidden", "[8]", "[4]"]

    @pytest.mark.parametrize("experiment", [[1], "x", None])
    def test_sweep_experiment_must_be_an_object(self, tmp_path, capsys, experiment):
        raw = {"experiment": experiment, "grid": {"protocol.kind": ["psl"]}, "seeds": [0]}
        assert cli_main(["sweep", "--config", self._write_config(tmp_path, raw)]) == 2
        assert "config error: experiment: must be an object" in capsys.readouterr().err

    def test_unwrapped_sweep_config_exits_2_naming_its_first_stray_key(self, tmp_path, capsys):
        raw = {**base_config(), "grid": {"protocol.kind": ["psl"]}, "seeds": [0]}
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", self._write_config(tmp_path, raw),
                         "--out", str(out)]) == 2
        assert "config error: protocol: unknown key" in capsys.readouterr().err
        assert not out.exists()

    def test_protocol_seed_grid_key_exits_2(self, tmp_path, capsys):
        raw = {"experiment": base_config(), "grid": {"protocol.seed": [1, 2]}, "seeds": [0]}
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", self._write_config(tmp_path, raw),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: grid.protocol.seed: " in err and "seeds" in err
        assert not out.exists()

    def test_sweep_section_grid_value_is_left_as_given(self, tmp_path, capsys):
        protocol = {key: value for key, value in base_config()["protocol"].items()
                    if key != "seed"}
        protocol.update(epochs=1, kind="psl")
        given = json.loads(json.dumps(protocol))
        raw = {"experiment": base_config(), "grid": {"protocol": [protocol]}, "seeds": [1, 2]}
        out = tmp_path / "sw"
        assert cli_main(["sweep", "--config", self._write_config(tmp_path, raw),
                         "--out", str(out)]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(row["protocol"], row["seeds"]) for row in rows] == [(given, 2)]
        seeds = {json.loads(line)["seed"] for path in (out / "runs").glob("*.metrics.jsonl")
                 for line in path.read_text().splitlines()}
        assert seeds == {1, 2}

    def test_sweep_protocol_grid_value_holding_seed_exits_2(self, tmp_path, capsys):
        protocol = {**base_config()["protocol"], "seed": 5}
        raw = {"experiment": base_config(), "grid": {"protocol": [protocol]}, "seeds": [1, 2]}
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", self._write_config(tmp_path, raw),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: grid.protocol: " in err and "seeds" in err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", [[], ["a"], [True], [-1], [0.5]])
    def test_sweep_seeds_must_be_non_negative_integers(self, tmp_path, capsys, seeds):
        raw = {"experiment": base_config(), "grid": {"protocol.kind": ["psl"]}, "seeds": seeds}
        assert cli_main(["sweep", "--config", self._write_config(tmp_path, raw)]) == 2
        assert "config error: seeds: must be a non-empty list" in capsys.readouterr().err

    def test_cost_set_applies_without_a_config(self, capsys):
        assert cli_main(["cost", "--set", 'methods=["fl"]']) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows and {row.split(",")[1] for row in rows} == {"fl"}

    def test_cost_refuses_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["cost", "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_console_script_installed(self, package_env):
        proc = subprocess.run(
            [sys.executable, "-m", "splitsim.cli", "cost"],
            capture_output=True,
            text=True,
            env=package_env,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("name,method")
