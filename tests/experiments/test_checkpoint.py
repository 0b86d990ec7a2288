"""Checkpoint/resume: bit-identity, format guards, uid floors, cell files.

The contract under test is absolute: a run interrupted at any checkpoint
and resumed — in this process or a fresh one — produces a result
byte-for-byte identical to the uninterrupted run.  Anything weaker would
let the recovery machinery silently change figures.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.cache import cell_key, code_version
from repro.experiments.checkpoint import (
    MAGIC,
    SNAPSHOT_VERSION,
    CheckpointError,
    read_checkpoint,
    restore_scenario,
    write_checkpoint,
)
from repro.experiments.config import table2_config
from repro.experiments.parallel import execute_cell, expand_cells
from repro.experiments.scenario import Scenario
from repro.experiments.engine import SweepSpec
from repro.net.node import sample_request_uid_floor
from repro.phy.frame import sample_frame_uid_floor


def _quick_config(**overrides):
    defaults = dict(n_sensors=8, sim_time_s=10.0, side_m=3000.0, seed=3)
    defaults.update(overrides)
    return table2_config(**defaults)


class _Interrupt(Exception):
    """Raised by checkpoint hooks to simulate dying mid-run."""


def _snapshot_at(config, nth: int, run):
    """Run until the nth checkpoint, capture it, and abandon the run."""
    taken = []

    def hook(scenario: Scenario) -> None:
        taken.append(scenario.snapshot())
        if len(taken) >= nth:
            raise _Interrupt

    scenario = Scenario(config)
    with pytest.raises(_Interrupt):
        run(scenario, hook)
    return taken[-1]


class TestBitIdentity:
    def test_steady_state_resume_is_bit_identical(self):
        config = _quick_config()
        baseline = Scenario(config).run_steady_state().to_dict()
        blob = _snapshot_at(
            config, 2, lambda s, hook: s.run_steady_state(3.0, hook)
        )
        resumed = Scenario.restore(blob).resume().to_dict()
        assert resumed == baseline

    def test_batch_resume_reports_identical_drain_time(self):
        config = _quick_config(max_retries=100)
        baseline = Scenario(config).run_batch(4, 600.0).to_dict()
        assert "drain_time_s" in baseline
        blob = _snapshot_at(
            config, 1, lambda s, hook: s.run_batch(4, 600.0, 5.0, hook)
        )
        resumed = Scenario.restore(blob).resume().to_dict()
        assert resumed == baseline

    def test_checkpointing_on_without_interruption_changes_nothing(self):
        config = _quick_config()
        plain = Scenario(config).run_steady_state()
        checkpointed = Scenario(config).run_steady_state(2.0)
        assert checkpointed.to_dict() == plain.to_dict()
        assert checkpointed.perf.checkpoints_taken > 0
        assert plain.perf.checkpoints_taken == 0

    def test_restore_in_fresh_process_is_bit_identical(self, tmp_path):
        config = _quick_config(n_sensors=6, sim_time_s=6.0)
        baseline = Scenario(config).run_steady_state().to_dict()
        blob = _snapshot_at(
            config, 1, lambda s, hook: s.run_steady_state(2.0, hook)
        )
        blob_path = tmp_path / "mid.ckpt"
        blob_path.write_bytes(blob)
        script = tmp_path / "resume_child.py"
        script.write_text(
            "import json, pathlib, sys\n"
            "from repro.experiments.scenario import Scenario\n"
            "blob = pathlib.Path(sys.argv[1]).read_bytes()\n"
            "result = Scenario.restore(blob).resume()\n"
            "print(json.dumps(result.to_dict()))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, str(script), str(blob_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == json.loads(json.dumps(baseline))


class TestFormatGuards:
    def _blob(self):
        return _snapshot_at(
            _quick_config(n_sensors=6, sim_time_s=4.0),
            1,
            lambda s, hook: s.run_steady_state(2.0, hook),
        )

    def test_bad_magic_rejected(self):
        with pytest.raises(CheckpointError, match="magic"):
            restore_scenario(b"NOT-A-CHECKPOINT" + b"\x00" * 32)

    def test_truncated_blob_rejected(self):
        blob = self._blob()
        with pytest.raises(CheckpointError):
            restore_scenario(blob[: len(blob) // 2])

    def test_wrong_snapshot_version_rejected(self):
        blob = self._blob()
        payload = pickle.loads(blob[len(MAGIC):])
        payload["version"] = SNAPSHOT_VERSION + 1
        forged = MAGIC + pickle.dumps(payload)
        with pytest.raises(CheckpointError, match="version"):
            restore_scenario(forged)

    def test_code_drift_rejected_unless_overridden(self):
        blob = self._blob()
        payload = pickle.loads(blob[len(MAGIC):])
        payload["code"] = "0123456789abcdef"
        forged = MAGIC + pickle.dumps(payload)
        with pytest.raises(CheckpointError, match="different simulation code"):
            restore_scenario(forged)
        scenario = restore_scenario(forged, check_code=False)
        assert scenario.resumes == 1

    def test_resume_without_plan_refuses(self):
        with pytest.raises(RuntimeError, match="never started"):
            Scenario(_quick_config()).resume()

    def test_snapshot_carries_current_code_version(self):
        blob = self._blob()
        payload = pickle.loads(blob[len(MAGIC):])
        assert payload["code"] == code_version()


class TestUidFloors:
    def test_restore_advances_uid_counters_past_snapshot(self):
        blob = _snapshot_at(
            _quick_config(n_sensors=6, sim_time_s=4.0),
            1,
            lambda s, hook: s.run_steady_state(2.0, hook),
        )
        payload = pickle.loads(blob[len(MAGIC):])
        restore_scenario(blob)
        # Fresh draws after the restore can never collide with any uid
        # the snapshotted run already issued.
        assert sample_request_uid_floor() > payload["request_uid_floor"]
        assert sample_frame_uid_floor() > payload["frame_uid_floor"]


class TestCheckpointFiles:
    def test_write_read_round_trip(self, tmp_path):
        config = _quick_config(n_sensors=6, sim_time_s=4.0)
        baseline = Scenario(config).run_steady_state().to_dict()

        def hook(scenario: Scenario) -> None:
            write_checkpoint(tmp_path / "cell.ckpt", scenario)
            raise _Interrupt

        with pytest.raises(_Interrupt):
            Scenario(config).run_steady_state(2.0, hook)
        restored = read_checkpoint(tmp_path / "cell.ckpt")
        assert restored.resumes == 1
        assert restored.resume().to_dict() == baseline

    def test_corrupt_file_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"garbage")
        with pytest.raises(CheckpointError):
            read_checkpoint(path)
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(tmp_path / "missing.ckpt")

    def test_execute_cell_resumes_and_cleans_up(self, tmp_path):
        spec = SweepSpec(
            x_values=[0.4],
            configure=lambda base, x, protocol, seed: base.with_(
                offered_load_kbps=x, protocol=protocol, seed=seed
            ),
        )
        cell = expand_cells(spec, _quick_config(), ("EW-MAC",), (1,))[0]
        baseline = execute_cell(cell).to_dict()

        # Die mid-run after writing one checkpoint for this exact cell.
        key = cell_key(cell.config, cell.batch, code_version())
        ckpt = tmp_path / f"{key}.ckpt"

        def hook(scenario: Scenario) -> None:
            write_checkpoint(ckpt, scenario)
            raise _Interrupt

        with pytest.raises(_Interrupt):
            Scenario(cell.config).run_steady_state(3.0, hook)
        assert ckpt.exists()

        result = execute_cell(
            cell, checkpoint_path=ckpt, checkpoint_every_s=3.0
        )
        assert result.to_dict() == baseline
        assert result.perf.resumes == 1
        assert not ckpt.exists()  # consumed on success

    def test_execute_cell_ignores_checkpoint_for_other_config(self, tmp_path):
        spec = SweepSpec(
            x_values=[0.4],
            configure=lambda base, x, protocol, seed: base.with_(
                offered_load_kbps=x, protocol=protocol, seed=seed
            ),
        )
        mine, other = expand_cells(spec, _quick_config(), ("EW-MAC",), (1, 2))

        def hook(scenario: Scenario) -> None:
            write_checkpoint(tmp_path / "wrong.ckpt", scenario)
            raise _Interrupt

        with pytest.raises(_Interrupt):
            Scenario(other.config).run_steady_state(3.0, hook)
        baseline = execute_cell(mine).to_dict()
        # A checkpoint whose config is not exactly this cell's config is
        # ignored: the cell reruns from zero with an identical result.
        result = execute_cell(mine, checkpoint_path=tmp_path / "wrong.ckpt")
        assert result.to_dict() == baseline
        assert result.perf.resumes == 0
