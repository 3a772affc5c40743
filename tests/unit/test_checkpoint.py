"""Checkpoint journal and crash-safe resume (repro.cegar.checkpoint)."""

import os
import sys
import warnings

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from repro import faults
from repro.cegar import (
    CegarCheckpoint,
    CegarConfig,
    CegarStatus,
    CheckpointError,
    CheckpointJournal,
    RefinementStats,
    TaintVerificationTask,
    run_compass,
)
from repro.cegar.checkpoint import FORMAT_VERSION, _read
from repro.taint import TaintScheme, TaintSources
from conftest import build_mux_chain  # noqa: E402


def _checkpoint(iteration=3, digest="d" * 8):
    return CegarCheckpoint(
        version=FORMAT_VERSION,
        task_name="fig2",
        config_digest=digest,
        iteration=iteration,
        scheme=TaintScheme("blackbox"),
        stats=RefinementStats(refinements=2),
        last_bound=5,
        rng_state=None,
        cache_entries={},
        pruned_candidates={"cell:m._mux1"},
    )


def _fig2_task(sel2_free=False, name="fig2"):
    return TaintVerificationTask(
        name=name,
        circuit=build_mux_chain(sel2_free),
        sources=TaintSources(registers={"m.secret": -1}),
        sinks=("sink",),
        symbolic_registers=frozenset(
            {"m.secret", "m.pub1", "m.pub2", "m.pub3"}),
    )


_KNOBS = dict(max_bound=6, induction_max_k=6, seed=0)


def _written(tmp_path, checkpoint=None):
    return CheckpointJournal(str(tmp_path)).append(checkpoint or _checkpoint())


class TestEncoding:
    def test_round_trip(self, tmp_path):
        ckpt = _checkpoint()
        back = _read(_written(tmp_path, ckpt))
        assert back.iteration == ckpt.iteration
        assert back.task_name == ckpt.task_name
        assert back.config_digest == ckpt.config_digest
        assert back.scheme == ckpt.scheme
        assert back.stats.refinements == 2
        assert back.pruned_candidates == {"cell:m._mux1"}

    def test_rejects_truncation(self, tmp_path):
        path = _written(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        with pytest.raises(CheckpointError, match="checksum|malformed"):
            _read(path)

    def test_rejects_bit_flip(self, tmp_path):
        path = _written(tmp_path)
        with open(path, "r+b") as handle:
            blob = bytearray(handle.read())
            blob[-1] ^= 0xFF
            handle.seek(0)
            handle.write(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            _read(path)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "journal-000000.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="bad magic"):
            _read(str(path))

    def test_rejects_foreign_version(self, tmp_path):
        ckpt = _checkpoint()
        ckpt.version = FORMAT_VERSION + 1
        with pytest.raises(CheckpointError, match="format version"):
            _read(_written(tmp_path, ckpt))

    def test_v2_entry_is_refused(self, tmp_path):
        from repro.codec import dumps, to_doc
        from repro.store.segment import write_segment

        doc = to_doc(_checkpoint())
        doc.update(version=2, speculation=None)
        path = str(tmp_path / "journal-000000.ckpt")
        write_segment(path, [dumps(doc)])
        with pytest.raises(CheckpointError, match="format version 2 != 3"):
            _read(path)

    def test_sequential_checkpoint_round_trips(self):
        from repro.codec import dumps, from_doc, loads, to_doc

        ckpt = CegarCheckpoint(version=FORMAT_VERSION, task_name="t",
                               config_digest="d", iteration=0,
                               scheme=_fig2_task().initial_scheme(),
                               stats=RefinementStats())
        back = from_doc(CegarCheckpoint, loads(dumps(to_doc(ckpt))))
        assert back == ckpt

    def test_pickled_payload_is_skipped_not_executed(self, tmp_path):
        """A journal entry is attacker-reachable bytes: a pickle inside
        an intact segment is corrupt, and unpickling never happens."""
        import pickle

        from repro.store.segment import write_segment

        marker = tmp_path / "owned"

        class Exploit:
            def __reduce__(self):
                return (open, (str(marker), "w"))

        journal_dir = tmp_path / "journal"
        journal = CheckpointJournal(str(journal_dir))
        journal.append(_checkpoint(iteration=1))
        write_segment(str(journal_dir / "journal-000001.ckpt"),
                      [pickle.dumps(Exploit())])
        latest, skipped = journal.latest_with_diagnostics()
        assert latest.iteration == 1
        assert len(skipped) == 1 and "undecodable" in skipped[0]
        assert not marker.exists()

    def test_pickle_journal_is_refused_on_resume(self, tmp_path):
        """A journal from the pickle format cannot be resumed, and the
        error says what to do about it."""
        import hashlib
        import pickle

        payload = pickle.dumps({"iteration": 1})
        entry = tmp_path / "journal-000000.ckpt"
        entry.write_bytes(b"COMPASS-CKPT v1\n"
                          + hashlib.sha256(payload).hexdigest().encode()
                          + b"\n" + payload)
        with pytest.raises(CheckpointError,
                           match="predates the JSON checkpoint format.*delete"):
            run_compass(_fig2_task(), CegarConfig(**_KNOBS),
                        checkpoint_dir=str(tmp_path), resume=True)

    def test_rng_state_round_trips_exactly(self, tmp_path):
        import random

        rng = random.Random(1234)
        rng.gauss(0.0, 1.0)  # leaves a cached gauss_next in the state
        ckpt = _checkpoint()
        ckpt.rng_state = rng.getstate()
        back = _read(_written(tmp_path, ckpt))
        assert back.rng_state == ckpt.rng_state
        resumed = random.Random()
        resumed.setstate(back.rng_state)
        assert [resumed.random() for _ in range(8)] == \
            [rng.random() for _ in range(8)]


class TestJournal:
    def test_append_and_latest(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path))
        assert journal.latest() is None
        journal.append(_checkpoint(iteration=1))
        journal.append(_checkpoint(iteration=2))
        assert len(journal) == 2
        assert journal.latest().iteration == 2

    def test_prunes_to_keep(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path), keep=2)
        for i in range(5):
            journal.append(_checkpoint(iteration=i))
        indices = [index for index, _ in journal.entries()]
        assert indices == [3, 4]
        assert journal.latest().iteration == 4

    def test_keep_below_two_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointJournal(str(tmp_path), keep=1)

    def test_corrupt_newest_falls_back_to_previous(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path))
        journal.append(_checkpoint(iteration=1))
        path = journal.append(_checkpoint(iteration=2))
        with open(path, "r+b") as handle:
            size = os.path.getsize(path)
            handle.truncate(size // 2)
        latest, skipped = journal.latest_with_diagnostics()
        assert latest.iteration == 1
        assert len(skipped) == 1 and "journal-000001" in skipped[0]

    def test_all_entries_corrupt_raises(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path))
        for i in range(2):
            path = journal.append(_checkpoint(iteration=i))
            with open(path, "wb") as handle:
                handle.write(b"garbage")
        with pytest.raises(CheckpointError, match="no intact checkpoint"):
            journal.latest()

    def test_truncate_fault_damages_entry(self, tmp_path):
        plan = faults.FaultPlan(specs=(faults.truncate_checkpoint(index=1),))
        journal = CheckpointJournal(str(tmp_path), faults=plan)
        journal.append(_checkpoint(iteration=1))
        journal.append(_checkpoint(iteration=2))
        assert journal.latest().iteration == 1

    def test_corrupt_fault_damages_entry(self, tmp_path):
        plan = faults.FaultPlan(
            specs=(faults.corrupt_checkpoint(index=1),), seed=7)
        journal = CheckpointJournal(str(tmp_path), faults=plan)
        journal.append(_checkpoint(iteration=1))
        journal.append(_checkpoint(iteration=2))
        assert journal.latest().iteration == 1


class TestResume:
    def test_run_writes_journal(self, tmp_path):
        result = run_compass(_fig2_task(), CegarConfig(**_KNOBS),
                             checkpoint_dir=str(tmp_path))
        assert result.status is CegarStatus.PROVED
        assert result.stats.checkpoints_written >= 2
        assert len(CheckpointJournal(str(tmp_path))) >= 2

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_compass(_fig2_task(), CegarConfig(**_KNOBS), resume=True)

    def test_resume_empty_journal_starts_fresh(self, tmp_path):
        result = run_compass(_fig2_task(), CegarConfig(**_KNOBS),
                             checkpoint_dir=str(tmp_path), resume=True)
        assert result.status is CegarStatus.PROVED
        assert result.stats.resumed_from is None

    def test_resume_equals_fresh(self, tmp_path):
        fresh = run_compass(_fig2_task(), CegarConfig(**_KNOBS),
                            checkpoint_dir=str(tmp_path))
        # Keep only the mid-run entries: the resumed run must redo the
        # remaining iterations and land on the identical result.
        for index, path in CheckpointJournal(str(tmp_path)).entries():
            if index > 1:
                os.unlink(path)
        resumed = run_compass(_fig2_task(), CegarConfig(**_KNOBS),
                              checkpoint_dir=str(tmp_path), resume=True)
        assert resumed.status is fresh.status
        assert resumed.scheme == fresh.scheme
        assert resumed.stats.refinement_log == fresh.stats.refinement_log
        assert resumed.stats.resumed_from == 1

    def test_resume_of_finished_run_hits_cache(self, tmp_path):
        fresh = run_compass(_fig2_task(), CegarConfig(**_KNOBS),
                            checkpoint_dir=str(tmp_path))
        resumed = run_compass(_fig2_task(), CegarConfig(**_KNOBS),
                              checkpoint_dir=str(tmp_path), resume=True)
        assert resumed.status is fresh.status
        assert resumed.scheme == fresh.scheme
        assert resumed.stats.cache is not None
        assert resumed.stats.cache.hits > 0

    def test_resume_skips_corrupt_tail_with_warning(self, tmp_path):
        plan = faults.FaultPlan(specs=(faults.truncate_checkpoint(index=2),))
        run_compass(_fig2_task(), CegarConfig(**_KNOBS, faults=plan),
                    checkpoint_dir=str(tmp_path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resumed = run_compass(_fig2_task(), CegarConfig(**_KNOBS),
                                  checkpoint_dir=str(tmp_path), resume=True)
        assert resumed.status is CegarStatus.PROVED
        messages = [str(w.message) for w in caught]
        assert any("journal-000002" in m for m in messages)

    def test_resume_refuses_different_config(self, tmp_path):
        run_compass(_fig2_task(), CegarConfig(**_KNOBS),
                    checkpoint_dir=str(tmp_path))
        with pytest.raises(CheckpointError, match="different configuration"):
            run_compass(
                _fig2_task(),
                CegarConfig(max_bound=5, induction_max_k=6, seed=0),
                checkpoint_dir=str(tmp_path), resume=True)

    def test_resume_allows_fresh_time_budget(self, tmp_path):
        """Wall-clock budgets are not part of the config digest: the
        whole point of resuming is finishing with a new budget."""
        run_compass(_fig2_task(), CegarConfig(**_KNOBS),
                    checkpoint_dir=str(tmp_path))
        resumed = run_compass(
            _fig2_task(), CegarConfig(**_KNOBS, total_time_limit=3600.0),
            checkpoint_dir=str(tmp_path), resume=True)
        assert resumed.status is CegarStatus.PROVED
