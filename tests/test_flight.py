"""Tests for the cost-model flight recorder (``repro.telemetry.flight``).

Covers the bounded ring file, the module-level recording switchboard
(configure / env var / disable), recording through the real ``auto``
pipeline, the calibration math (scale fitting, mispick detection, tie
epsilon), the ``transform_ms`` record field, and the ``repro telemetry
calibrate`` CLI.
"""

import json

import pytest

from repro import telemetry
from repro.telemetry import flight


@pytest.fixture(autouse=True)
def clean_recorder(monkeypatch):
    """No recorder and no env leakage around every test."""
    monkeypatch.delenv(flight.FLIGHT_ENV_VAR, raising=False)
    flight.disable_recording()
    telemetry.reset()
    telemetry.disable()
    yield
    flight.disable_recording()
    telemetry.reset()
    telemetry.disable()


def _record(rec, **over):
    base = {
        "n": 1000, "nnz": 4000, "n_components": 1,
        "estimates": {"serial": 100.0, "vectorized": 120.0},
        "chosen": "serial", "actual_wall_ms": 1.0,
    }
    base.update(over)
    rec.record(base)


class TestRingFile:
    def test_appends_records(self, tmp_path):
        rec = flight.FlightRecorder(tmp_path / "f.jsonl", limit=100)
        for i in range(5):
            _record(rec, n=i)
        records = flight.read_records(tmp_path / "f.jsonl")
        assert [r["n"] for r in records] == [0, 1, 2, 3, 4]
        assert all(r["schema"] == flight.RECORD_SCHEMA for r in records)

    def test_ring_stays_bounded(self, tmp_path):
        path = tmp_path / "f.jsonl"
        rec = flight.FlightRecorder(path, limit=10)
        for i in range(95):
            _record(rec, n=i)
        lines = path.read_text().strip().splitlines()
        assert len(lines) <= 2 * 10
        # newest records survive compaction
        records = flight.read_records(path)
        assert records[-1]["n"] == 94

    def test_limit_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            flight.FlightRecorder(tmp_path / "f.jsonl", limit=0)

    def test_concurrent_writers_never_corrupt_the_ring(self, tmp_path):
        # 8 threads hammering one recorder: every surviving line must
        # strict-parse and the ring bound must hold throughout
        import threading

        path = tmp_path / "f.jsonl"
        limit = 50
        rec = flight.FlightRecorder(path, limit=limit)
        n_threads, per_thread = 8, 100

        def writer(tid):
            for i in range(per_thread):
                _record(rec, n=tid * per_thread + i)

        threads = [
            threading.Thread(target=writer, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        lines = path.read_text().strip().splitlines()
        assert lines, "no records survived"
        assert len(lines) <= 2 * limit
        for line in lines:
            parsed = json.loads(line)  # raises on a torn/interleaved write
            assert parsed["schema"] == flight.RECORD_SCHEMA
        records = flight.read_records(path)
        assert len(records) == len(lines)

    def test_read_records_skips_foreign_lines(self, tmp_path):
        path = tmp_path / "f.jsonl"
        rec = flight.FlightRecorder(path)
        _record(rec)
        with path.open("a") as fh:
            fh.write('{"schema": "other/v9"}\n')
            fh.write("{truncated garbage\n")
        records = flight.read_records(path)
        assert len(records) == 1


class TestSwitchboard:
    def test_disabled_by_default(self, tmp_path):
        assert flight.get_recorder() is None
        flight.record_auto(
            n=1, nnz=1, n_components=1, estimates={"serial": 1.0},
            chosen="serial", actual_wall_ms=0.1,
        )  # must be a silent no-op

    def test_configure_and_disable(self, tmp_path):
        rec = flight.configure(tmp_path / "f.jsonl")
        assert flight.get_recorder() is rec
        flight.disable_recording()
        assert flight.get_recorder() is None

    def test_env_var_enables_lazily(self, tmp_path, monkeypatch):
        monkeypatch.setenv(flight.FLIGHT_ENV_VAR, str(tmp_path / "env.jsonl"))
        flight._ENV_CHECKED = False  # simulate fresh process
        rec = flight.get_recorder()
        assert rec is not None
        assert rec.path == tmp_path / "env.jsonl"

    def test_record_auto_computes_margin(self, tmp_path):
        flight.configure(tmp_path / "f.jsonl")
        flight.record_auto(
            n=10, nnz=40, n_components=2,
            estimates={"serial": 100.0, "vectorized": 80.0, "parallel": 90.0},
            chosen="vectorized", actual_wall_ms=0.5,
        )
        (rec,) = flight.read_records(tmp_path / "f.jsonl")
        assert rec["chosen"] == "vectorized"
        assert rec["mispick_margin"] == pytest.approx(10.0)
        assert rec["n_components"] == 2

    def test_auto_reorder_records_through_pipeline(self, tmp_path, medium_grid):
        from repro.core.api import _reorder_rcm

        flight.configure(tmp_path / "auto.jsonl")
        res = _reorder_rcm(medium_grid, method="auto")
        (rec,) = flight.read_records(tmp_path / "auto.jsonl")
        assert rec["chosen"] == res.method
        assert rec["n"] == medium_grid.n
        assert rec["nnz"] == medium_grid.nnz
        assert rec["actual_wall_ms"] > 0
        assert res.method in rec["estimates"]
        assert len(rec["estimates"]) >= 2

    def test_explicit_method_records_nothing(self, tmp_path, medium_grid):
        from repro.core.api import _reorder_rcm

        path = tmp_path / "none.jsonl"
        flight.configure(path)
        _reorder_rcm(medium_grid, method="serial")
        assert not path.exists()


class TestCalibrate:
    def test_empty_report(self):
        report = flight.calibrate([])
        assert report["records"] == 0
        assert report["mispick_rate"] == 0.0
        assert report["backends"] == {}

    def _mk(self, chosen, estimates, actual):
        return {
            "chosen": chosen, "estimates": estimates,
            "actual_wall_ms": actual, "n": 1, "nnz": 4, "n_components": 1,
        }

    def test_perfect_model_has_zero_mispicks(self):
        records = [
            self._mk("serial", {"serial": 100.0, "vectorized": 200.0}, 1.0),
            self._mk("serial", {"serial": 100.0, "vectorized": 200.0}, 1.0),
        ]
        report = flight.calibrate(records)
        assert report["mispicks"] == 0
        stats = report["backends"]["serial"]
        assert stats["picks"] == 2
        assert stats["mean_actual_ms"] == pytest.approx(1.0)
        assert stats["scale_ms_per_cycle"] == pytest.approx(0.01)

    def test_mispick_detected_via_calibrated_scales(self):
        # serial's picks cost 10x what its estimate scale suggests elsewhere:
        # vectorized runs 1ms per 100 cycles, serial 10ms per 100 cycles, so
        # on the contested record the rejected candidate was truly cheaper
        records = [
            self._mk("vectorized", {"vectorized": 100.0}, 1.0),
            self._mk("serial", {"serial": 100.0}, 10.0),
            self._mk(
                "serial", {"serial": 100.0, "vectorized": 110.0}, 10.0
            ),
        ]
        report = flight.calibrate(records)
        assert report["mispicks"] == 1
        assert report["backends"]["serial"]["mispicks"] == 1
        assert report["mispick_rate"] == pytest.approx(1 / 3)

    def test_tie_epsilon_suppresses_close_calls(self):
        records = [
            self._mk("vectorized", {"vectorized": 100.0}, 1.0),
            self._mk("serial", {"serial": 100.0}, 1.0),
            self._mk(
                "serial", {"serial": 100.0, "vectorized": 98.0}, 1.0
            ),
        ]
        strict = flight.calibrate(records, tie_epsilon=0.0)
        lax = flight.calibrate(records, tie_epsilon=0.05)
        assert strict["mispicks"] == 1
        assert lax["mispicks"] == 0

    def test_format_report_renders(self):
        records = [
            self._mk("serial", {"serial": 100.0, "vectorized": 150.0}, 2.0),
        ]
        text = flight.format_report(flight.calibrate(records))
        assert "serial" in text
        assert "mispick" in text

    def test_per_scenario_breakdown(self):
        """The hub-dominated calibration case: a pool pick on a giant
        component shows up as a mispick *in its own scenario bucket*, not
        diluted into the aggregate by well-behaved mesh picks."""
        mesh = [
            dict(self._mk(
                "vectorized", {"vectorized": 100.0, "parallel": 400.0}, 1.0
            ), scenario="mesh")
            for _ in range(8)
        ]
        # the regression shape: auto chose the pool for one giant
        # component; the calibrated vectorized prediction undercuts it
        hub = [
            dict(self._mk(
                "parallel", {"parallel": 400.0, "vectorized": 100.0}, 40.0
            ), scenario="hub-dominated", max_component=999),
            dict(self._mk("parallel", {"parallel": 400.0}, 40.0),
                 scenario="hub-dominated"),
        ]
        report = flight.calibrate(mesh + hub)
        assert report["scenarios"]["mesh"]["mispicks"] == 0
        assert report["scenarios"]["hub-dominated"]["mispicks"] == 1
        assert report["scenarios"]["hub-dominated"]["mispick_rate"] == \
            pytest.approx(0.5)
        text = flight.format_report(report)
        assert "hub-dominated" in text
        assert "scenario" in text

    def test_records_without_scenario_skip_breakdown(self):
        records = [
            self._mk("serial", {"serial": 100.0}, 1.0),
        ]
        report = flight.calibrate(records)
        assert report["scenarios"] == {}
        assert "scenario" not in flight.format_report(report)


class TestCli:
    def _run(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_calibrate_prints_report(self, tmp_path, capsys):
        rec = flight.FlightRecorder(tmp_path / "f.jsonl")
        _record(rec)
        assert self._run("telemetry", "calibrate", str(tmp_path / "f.jsonl")) == 0
        out = capsys.readouterr().out
        assert "flight records : 1" in out
        assert "serial" in out

    def test_calibrate_json(self, tmp_path, capsys):
        rec = flight.FlightRecorder(tmp_path / "f.jsonl")
        _record(rec)
        assert self._run(
            "telemetry", "calibrate", str(tmp_path / "f.jsonl"), "--json"
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["records"] == 1
        assert "serial" in doc["backends"]

    def test_calibrate_missing_file_is_clean_no_data(self, tmp_path, capsys):
        # CI runs calibrate unconditionally after serve smoke tests, so
        # an absent or empty flight log must not fail the build
        assert self._run(
            "telemetry", "calibrate", str(tmp_path / "missing.jsonl")
        ) == 0
        assert "no flight data" in capsys.readouterr().out

    def test_calibrate_empty_file_is_clean_no_data(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert self._run("telemetry", "calibrate", str(path)) == 0
        assert "no flight data" in capsys.readouterr().out

    def test_calibrate_threshold_gate(self, tmp_path, capsys):
        rec = flight.FlightRecorder(tmp_path / "f.jsonl")
        # construct a guaranteed mispick (see TestCalibrate)
        for entry in (
            {"chosen": "vectorized", "estimates": {"vectorized": 100.0},
             "actual_wall_ms": 1.0},
            {"chosen": "serial", "estimates": {"serial": 100.0},
             "actual_wall_ms": 10.0},
            {"chosen": "serial",
             "estimates": {"serial": 100.0, "vectorized": 110.0},
             "actual_wall_ms": 10.0},
        ):
            rec.record({"n": 1, "nnz": 4, "n_components": 1, **entry})
        assert self._run(
            "telemetry", "calibrate", str(tmp_path / "f.jsonl"),
            "--max-mispick-rate", "0.1",
        ) == 1

    def test_inventory_prints_table(self, capsys):
        assert self._run("telemetry", "inventory") == 0
        out = capsys.readouterr().out
        assert "service_requests_total" in out


class TestTransformFlightRecord:
    def test_record_auto_accepts_transform_ms(self, tmp_path, monkeypatch):
        monkeypatch.delenv(flight.FLIGHT_ENV_VAR, raising=False)
        flight.configure(tmp_path / "f.jsonl")
        try:
            flight.record_auto(
                n=10, nnz=40, n_components=1,
                estimates={"serial": 1.0}, chosen="serial",
                actual_wall_ms=0.5, transform_ms=3.25,
            )
            flight.record_auto(
                n=10, nnz=40, n_components=1,
                estimates={"serial": 1.0}, chosen="serial",
                actual_wall_ms=0.5,
            )
            with_t, without_t = flight.read_records(tmp_path / "f.jsonl")
            assert with_t["transform_ms"] == pytest.approx(3.25)
            assert "transform_ms" not in without_t
        finally:
            flight.disable_recording()

    def test_auto_pipeline_records_transform_phase(
        self, tmp_path, monkeypatch, medium_grid
    ):
        from repro.core.api import _reorder_rcm

        monkeypatch.delenv(flight.FLIGHT_ENV_VAR, raising=False)
        flight.configure(tmp_path / "auto.jsonl")
        try:
            _reorder_rcm(medium_grid, method="auto")
            (rec,) = flight.read_records(tmp_path / "auto.jsonl")
            assert "transform_ms" in rec
            assert rec["transform_ms"] >= 0.0
        finally:
            flight.disable_recording()
