"""CLI smoke tests (fast subcommands only; heavy flows are covered by
the integration suite and examples)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("verify", "leak-check", "overhead", "simulate",
                        "export", "lint", "tables"):
            assert command in text

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_core(self):
        with pytest.raises(SystemExit):
            main(["verify", "--core", "Pentium"])


class TestTables:
    def test_tables_prints_both(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "CellIFT" in out
        assert "Compass" in out


class TestSimulate:
    def test_runs_workload_self_checked(self, capsys):
        assert main(["simulate", "--core", "Sodor", "--workload", "median"]) == 0
        out = capsys.readouterr().out
        assert "median on Sodor" in out
        assert "self-checked" in out

    def test_single_lane_taint_output(self, capsys):
        assert main(["simulate", "--core", "Sodor", "--workload", "median",
                     "--taint"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("median on Sodor: 130 cycles, ")
        assert lines[0].endswith("s (self-checked against the ISA interpreter)")
        assert lines[1] == ("tainted memory words after run (inputs 0-3 "
                            f"tainted): {list(range(32))}")

    @pytest.mark.parametrize("lanes", ["0", "-3"])
    def test_rejects_nonpositive_lanes(self, lanes, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--core", "Sodor", "--lanes", lanes])
        assert info.value.code == 2
        assert "lane count must be >= 1" in capsys.readouterr().err


class TestLint:
    def test_selftest_passes(self, capsys):
        assert main(["lint", "--selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS unsound custom handler" in out
        assert "PASS combinational loop" in out

    def test_core_lints_clean(self, capsys):
        assert main(["lint", "Sodor", "--min-severity", "error"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_json_output(self, capsys):
        assert main(["lint", "Sodor", "--json", "--no-semantic"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"]["error"] == 0
        assert doc["circuit"] == "sodor"

    def test_netlist_file_with_loop_exits_nonzero(self, tmp_path, capsys):
        from repro.hdl import ModuleBuilder
        from repro.hdl.serialize import circuit_to_dict

        b = ModuleBuilder("t")
        a = b.input("a", 1)
        b.output("o", a & a)
        doc = circuit_to_dict(b.build())
        # Rewire the AND cell to consume its own output: a loop.
        cell = next(c for c in doc["cells"] if c["op"] == "and")
        cell["ins"] = [cell["out"], cell["out"]]
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(doc))
        assert main(["lint", str(path)]) == 1
        assert "comb-loop" in capsys.readouterr().out

    def test_waive_and_disable_flags(self, capsys):
        code = main(["lint", "Sodor", "--disable", "dead-logic",
                     "--waive", "stuck-register:*", "--no-semantic"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 warning(s)" in out

    def test_missing_design_is_usage_error(self, capsys):
        assert main(["lint"]) == 2
        assert main(["lint", "NoSuchCoreOrFile"]) == 2

    def test_malformed_waive_is_usage_error(self, capsys):
        assert main(["lint", "Sodor", "--waive", "no-glob-part"]) == 2
        assert "RULE:GLOB" in capsys.readouterr().err

    def test_corrupt_netlist_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "corrupt.json"
        path.write_text("not json{")
        assert main(["lint", str(path)]) == 2
        assert "not a readable netlist" in capsys.readouterr().err


class TestExport:
    def test_verilog_export(self, tmp_path):
        out_file = tmp_path / "core.v"
        code = main(["export", "--core", "Sodor", "--xlen", "4", "--imem", "4",
                     "--dmem", "4", "--secret-words", "1",
                     "--format", "verilog", "-o", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("module")
        assert "endmodule" in text

    def test_json_export_reloads(self, tmp_path):
        from repro.hdl.serialize import load

        out_file = tmp_path / "core.json"
        code = main(["export", "--core", "Sodor", "--xlen", "4", "--imem", "4",
                     "--dmem", "4", "--secret-words", "1",
                     "--format", "json", "-o", str(out_file), "--no-shadow"])
        assert code == 0
        with open(out_file) as handle:
            circuit = load(handle)
        assert circuit.registers
        json.loads(out_file.read_text())  # valid JSON document


class TestRemoteVerify:
    TINY = ["verify", "--core", "Sodor", "--xlen", "4", "--imem", "4",
            "--dmem", "4", "--secret-words", "1", "--remote", "/no/such.sock"]

    @pytest.fixture
    def submitted(self, monkeypatch):
        import repro.cli as cli

        calls = []

        def submit(socket_path, job, deadline=None):
            calls.append(job)
            return {"elapsed": 0.1, "result": {
                "status": "proved", "bound": -1, "rows": ["remote row"],
                "secure": True, "scheme": {}}}

        monkeypatch.setattr(cli, "_remote_submit", submit)
        return calls

    def test_local_only_option_runs_locally(self, submitted, monkeypatch,
                                            capsys):
        import repro.cegar

        class RanLocally(Exception):
            pass

        def run_compass(*args, **kwargs):
            raise RanLocally

        monkeypatch.setattr(repro.cegar, "run_compass", run_compass)
        with pytest.raises(RanLocally):
            main(self.TINY + ["--prune"])
        assert submitted == []
        assert "--prune needs a local run" in capsys.readouterr().err

    def test_plain_verify_is_served_remotely(self, submitted, capsys):
        assert main(self.TINY) == 0
        assert [job["kind"] for job in submitted] == ["verify"]
        assert "remote row" in capsys.readouterr().out
