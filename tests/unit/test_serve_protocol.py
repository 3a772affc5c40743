"""The job daemon's wire protocol and job handlers (repro.serve)."""

import json

import pytest

from repro.hdl import ModuleBuilder
from repro.hdl.serialize import circuit_to_dict
from repro.serve import (
    PROTOCOL_VERSION,
    JobError,
    ProtocolError,
    decode_message,
    encode_message,
    job_digest,
    run_job,
)


def _safe_machine(width=4):
    b = ModuleBuilder("safe")
    c = b.reg("cnt", width)
    c.drive(c)
    b.output("bad", c.eq(5))
    return b.build()


def _solve_job(**config):
    return {
        "kind": "solve",
        "circuit": circuit_to_dict(_safe_machine()),
        "prop": {"bad": "bad"},
        "config": dict({"max_bound": 6}, **config),
    }


class TestWireProtocol:
    def test_round_trip(self):
        msg = {"type": "submit", "id": 3, "job": {"kind": "ping"}}
        line = encode_message(msg)
        assert line.endswith(b"\n")
        decoded = decode_message(line)
        assert decoded["type"] == "submit"
        assert decoded["id"] == 3
        assert decoded["v"] == PROTOCOL_VERSION

    def test_version_is_checked_exactly(self):
        line = json.dumps({"v": PROTOCOL_VERSION + 1,
                           "type": "ping"}).encode() + b"\n"
        with pytest.raises(ProtocolError, match="protocol version"):
            decode_message(line)
        with pytest.raises(ProtocolError, match="protocol version"):
            decode_message(json.dumps({"type": "ping"}).encode())

    def test_garbage_rejected(self):
        with pytest.raises(ProtocolError, match="not a JSON message"):
            decode_message(b"\xff\xfe not json")
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_message(b"[1, 2, 3]")
        line = json.dumps({"v": PROTOCOL_VERSION}).encode()
        with pytest.raises(ProtocolError, match="no 'type'"):
            decode_message(line)

    def test_oversized_message_rejected(self):
        from repro.serve.protocol import MAX_MESSAGE

        with pytest.raises(ProtocolError, match="too large"):
            decode_message(b"x" * (MAX_MESSAGE + 1))


class TestClientReadLoop:
    def test_idless_error_reply_is_terminal(self):
        """The daemon replies to an undecodable/oversized line with an
        ``error`` carrying no id; the client's submit loop must surface
        it (as ServeUnavailable, so the caller falls back to local
        execution) instead of waiting forever for a reply with its id."""
        import socket

        from repro.serve.client import ServeClient, ServeUnavailable

        left, right = socket.socketpair(socket.AF_UNIX,
                                        socket.SOCK_STREAM)
        try:
            # Queue the daemon's reply up front: small enough to sit in
            # the socketpair buffer, so no reader thread is needed.
            right.sendall(encode_message(
                {"type": "error", "error": "message too large"}))
            client = ServeClient(left)
            with pytest.raises(ServeUnavailable, match="too large"):
                client.submit({"kind": "ping"})
        finally:
            left.close()
            right.close()

    def test_progress_for_another_id_is_still_skipped(self):
        import socket

        from repro.serve.client import ServeClient

        left, right = socket.socketpair(socket.AF_UNIX,
                                        socket.SOCK_STREAM)
        try:
            right.sendall(
                encode_message({"type": "progress", "id": 99,
                                "elapsed": 0.1, "events": 1,
                                "counters": {}})
                + encode_message({"type": "result", "id": 0, "ok": True,
                                  "result": {"pong": True},
                                  "dedup": False, "elapsed": 0.2}))
            client = ServeClient(left)
            reply = client.submit({"kind": "ping"})
            assert reply["result"] == {"pong": True}
        finally:
            left.close()
            right.close()


class TestJobDigest:
    def test_stable_under_key_order(self):
        a = {"kind": "lint", "core": {"name": "Sodor", "xlen": 4}}
        b = {"core": {"xlen": 4, "name": "Sodor"}, "kind": "lint"}
        assert job_digest(a) == job_digest(b)

    def test_faults_change_identity(self):
        """Every field is part of the identity, even one no handler
        reads: a job with an extra field never dedups against its twin."""
        clean = {"kind": "verify", "core": {"name": "Sodor"}}
        faulted = dict(clean, faults={"specs": [
            {"kind": "kill_worker", "engine": "bmc"}]})
        assert job_digest(clean) != job_digest(faulted)

    def test_unserializable_job_is_a_job_error(self):
        with pytest.raises(JobError, match="not JSON-serializable"):
            job_digest({"kind": "solve", "circuit": object()})


class TestRunJobErrors:
    def test_unknown_kind(self):
        with pytest.raises(JobError, match="unknown job kind"):
            run_job({"kind": "espresso"})
        with pytest.raises(JobError, match="must be an object"):
            run_job(["kind", "solve"])

    def test_unknown_core(self):
        with pytest.raises(JobError, match="unknown core"):
            run_job({"kind": "lint", "core": {"name": "Pentium"}})

    def test_unknown_workload(self):
        with pytest.raises(JobError, match="unknown workload"):
            run_job({"kind": "simulate", "core": "Rocket",
                     "workload": "crysis"})

    def test_unknown_config_field_rejected(self):
        job = _solve_job()
        job["config"]["rm_rf"] = True
        with pytest.raises(JobError, match="unknown solve config field"):
            run_job(job)

    def test_bad_circuit_document(self):
        with pytest.raises(JobError, match="must be an object"):
            run_job({"kind": "solve", "circuit": "nope",
                     "prop": {"bad": "bad"}})

    def test_candidate_kind_and_speculate_config_rejected(self):
        with pytest.raises(JobError, match="unknown job kind 'candidate'"):
            run_job({"kind": "candidate", "task": {}, "scheme": {},
                     "config": {}})
        with pytest.raises(JobError,
                           match="unknown verify config field 'speculate'"):
            run_job({"kind": "verify", "config": {"speculate": 2},
                     "core": {"name": "Sodor", "xlen": 4, "imem": 4,
                              "dmem": 4, "secret_words": 1}})

    def test_prop_needs_bad_signal(self):
        job = _solve_job()
        job["prop"] = {"name": "p"}
        with pytest.raises(JobError, match="'bad' signal"):
            run_job(job)


class TestRunJobHappyPaths:
    def test_solve_round_trips_through_json(self):
        """The whole job AND result must survive a JSON round-trip:
        that is exactly what the socket does to them."""
        job = json.loads(json.dumps(_solve_job()))
        result = run_job(job)
        assert result["kind"] == "solve"
        assert result["status"] == "proved"
        assert result["counterexample"] is None
        assert any(r["winner"] for r in result["reports"])
        json.dumps(result)  # must be wire-clean

    def test_solve_violation_carries_counterexample(self):
        b = ModuleBuilder("unsafe")
        c = b.reg("cnt", 4)
        c.drive(c + 1)
        b.output("bad", c.eq(3))
        job = {"kind": "solve", "circuit": circuit_to_dict(b.build()),
               "prop": {"bad": "bad"}, "config": {"max_bound": 8}}
        result = run_job(job)
        assert result["status"] == "counterexample"
        cex = result["counterexample"]
        assert cex is not None and cex["length"] >= 1
        json.dumps(result)

    def test_solve_consults_the_cache(self):
        from repro.formal import SolveCache

        cache = SolveCache()
        cold = run_job(_solve_job(), cache=cache)
        warm = run_job(_solve_job(), cache=cache)
        assert cold["status"] == warm["status"] == "proved"
        assert not cold["cache_hit"]
        assert warm["cache_hit"]

    def test_deadline_caps_time_limit(self):
        """A submitted deadline must tighten, never widen, the job's
        own budget."""
        job = _solve_job(time_limit=3600.0)
        result = run_job(job, deadline=0.0)
        # Zero remaining budget: the portfolio gives up immediately
        # rather than out-waiting the deadline.
        assert result["status"] in ("unknown", "bound_reached", "proved")

    def test_lint_job(self):
        result = run_job({"kind": "lint",
                          "core": {"name": "Sodor", "xlen": 4, "imem": 4,
                                   "dmem": 4, "secret_words": 1}})
        assert result["kind"] == "lint"
        assert result["report"]["schema"] == "repro-lint/v1"
        json.dumps(result)

    def test_simulate_job_lanes(self):
        result = run_job({"kind": "simulate", "core": "Sodor",
                          "workload": "median", "lanes": 2, "seed": 7})
        assert result["lanes"] == 2
        assert len(result["cycles"]) == 2
        json.dumps(result)
