"""Deterministic fault injection (repro.faults).

The recovery paths these faults exercise are tested where they live:
the checkpoint journal in tests/unit/test_checkpoint.py and
tests/integration/test_crash_resume.py, the solve store in
tests/unit/test_store.py.
"""

import pytest

from repro import faults


class TestFaultSpecs:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.FaultSpec("meteor_strike")

    def test_constructors_build_valid_specs(self):
        assert faults.corrupt_checkpoint(3).after == 3
        assert faults.truncate_checkpoint().kind == "truncate_checkpoint"
        assert faults.kill_after_checkpoint(1).kind == "kill_after_checkpoint"


class TestStoreFaults:
    """Store-level fault constructors and their injection points.

    The recovery behavior itself (torn tails kept, manifests rebuilt,
    locks taken over, ENOSPC retried) lives in tests/unit/test_store.py;
    here we pin the spec surface and the plan's dispatch.
    """

    def test_constructors_build_valid_specs(self):
        assert faults.torn_segment(index=2).after == 2
        assert faults.corrupt_manifest(index=1).kind == "corrupt_manifest"
        assert faults.stale_lock().pid is None
        assert faults.stale_lock(pid=12345).pid == 12345
        assert faults.enospc(index=3).after == 3

    def test_enospc_raises_only_at_its_index(self):
        plan = faults.FaultPlan(specs=(faults.enospc(index=1),))
        plan.check_store_write(0)  # index 0 untouched
        with pytest.raises(OSError) as excinfo:
            plan.check_store_write(1)
        import errno
        assert excinfo.value.errno == errno.ENOSPC
        plan.check_store_write(2)

    def test_torn_segment_truncates_written_file(self, tmp_path):
        from repro.store.segment import read_segment, write_segment

        path = str(tmp_path / "seg-0000-000000.seg")
        write_segment(path, [b"a" * 64, b"b" * 64, b"c" * 64])
        plan = faults.FaultPlan(specs=(faults.torn_segment(index=0),))
        plan.on_segment_written(0, path)
        records, torn = read_segment(path)
        assert torn
        assert len(records) < 3

    def test_corrupt_manifest_damages_payload(self, tmp_path):
        import json

        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format": 1, "generation": 0,
                                    "segments": []}))
        before = path.read_bytes()
        plan = faults.FaultPlan(specs=(faults.corrupt_manifest(index=0),))
        plan.on_manifest_written(0, str(path))
        assert path.read_bytes() != before

    def test_stale_lock_plants_dead_owner(self, tmp_path):
        from repro.store.lock import LOCK_NAME, StoreLock

        plan = faults.FaultPlan(specs=(faults.stale_lock(),))
        plan.on_store_open(str(tmp_path))
        assert (tmp_path / LOCK_NAME).exists()
        lock = StoreLock(str(tmp_path))
        lock.acquire()  # dead owner: takeover, not StoreLockedError
        assert lock.takeovers == 1
        lock.release()
