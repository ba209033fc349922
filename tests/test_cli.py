"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mazunat" in out and "MazuNAT" in out

    def test_compile_bundled(self, tmp_path, capsys):
        assert main(["compile", "minilb", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pre=" in out
        assert (tmp_path / "minilb.p4").exists()
        assert (tmp_path / "minilb_server.cc").exists()

    def test_compile_file(self, tmp_path, capsys):
        source_path = tmp_path / "custom.cc"
        source_path.write_text(
            "class Custom { void process(Packet *pkt) {"
            " iphdr *ip = pkt->network_header();"
            " ip->ttl = ip->ttl - 1; pkt->send(); } };"
        )
        assert main(["compile", str(source_path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "custom.p4").exists()

    def test_compile_unknown_target(self):
        with pytest.raises(SystemExit):
            main(["compile", "does-not-exist"])

    def test_partition_output(self, capsys):
        assert main(["partition", "minilb"]) == 0
        out = capsys.readouterr().out
        assert "pre-processing (switch)" in out
        assert "map_find state.map" in out
        assert "shim to server" in out

    def test_experiments_table1(self, capsys):
        assert main(["experiments", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "MazuNAT" in out

    def test_experiments_table3(self, capsys):
        assert main(["experiments", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Insert" in out

    def test_difftest_compiled(self, capsys):
        assert main(["difftest", "--compiled", "--runs", "3",
                     "--seed", "21"]) == 0
        out = capsys.readouterr().out
        assert "both ways" in out
        assert "0 diverge" in out

    def test_faults_summary_json(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "summary.json"
        assert main(["faults", "--runs", "2", "--seed", "13",
                     "--summary-json", str(out_path)]) == 0
        summary = json.loads(out_path.read_text())
        assert summary["runs"] == 2
        assert "promotion_windows" in summary
        assert "rollbacks" in summary


class TestCompileRefusals:
    """A source the compiler refuses ends in ``error:`` lines and exit
    status 1 on every compile-path command, never in a traceback."""

    COMMANDS = ("compile", "partition", "verify")

    def _refused(self, command, target, capsys, tmp_path):
        argv = [command, str(target)]
        if command == "compile":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        assert captured.err.startswith("error: ")
        return captured.err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_syntax_error_names_the_location(self, command, capsys, tmp_path):
        path = tmp_path / "broken.cc"
        path.write_text(
            "class Bad { void process(Packet *pkt) {\n"
            "  uint32_t x = ;\n  pkt->send(); } };\n"
        )
        err = self._refused(command, path, capsys, tmp_path)
        assert "broken.cc:2:16: unexpected token ';'" in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_type_names_the_location(self, command, capsys, tmp_path):
        path = tmp_path / "typo.cc"
        path.write_text(
            "class Bad { HashMap<quux_t, uint32_t> m;\n"
            " void process(Packet *pkt) { pkt->send(); } };\n"
        )
        err = self._refused(command, path, capsys, tmp_path)
        assert "typo.cc:1:21: unknown type 'quux_t'" in err

    def test_out_of_subset_source_is_a_refusal(self, capsys, tmp_path):
        path = tmp_path / "falls_off.cc"
        path.write_text("class Bad { void process(Packet *pkt) { } };\n")
        err = self._refused("compile", path, capsys, tmp_path)
        assert "falls_off.cc:1:" in err and "fall off the end" in err

    # The partitioner moves work to the server rather than overflow a
    # default-sized shim, so no source file reaches these three from the
    # CLI; raise them where compile_source would.

    def _raising(self, monkeypatch, error):
        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr("repro.cli.compile_source", refuse)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_partition_error(self, command, capsys, tmp_path, monkeypatch):
        from repro.partition.partitioner import PartitionError

        self._raising(monkeypatch, PartitionError(
            "minilb: partitioning left violations:"
            " ['constraint 4: per-packet metadata 120 bytes > 96']"
        ))
        err = self._refused(command, "minilb", capsys, tmp_path)
        assert "constraint 4" in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_switch_program_error_names_the_code(
        self, command, capsys, tmp_path, monkeypatch
    ):
        from repro.partition.constraints import SwitchResources
        from repro.runtime.deployment import compile_middlebox
        from repro.switchsim.program import SwitchProgramError
        from tests.conftest import MINILB_SOURCE

        with pytest.raises(SwitchProgramError) as refused:
            compile_middlebox(
                MINILB_SOURCE, SwitchResources(transfer_bytes=0)
            )
        self._raising(monkeypatch, refused.value)
        err = self._refused(command, "minilb", capsys, tmp_path)
        assert "PART005" in err and "shim" in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_verification_error_prints_every_diagnostic(
        self, command, capsys, tmp_path, monkeypatch
    ):
        from repro.verify import VerificationError, VerificationReport
        from repro.verify.diagnostics import STAGE_P4LINT, error

        report = VerificationReport("minilb", [
            error("P4L006", STAGE_P4LINT, "chain of 30 stages", "pre"),
            error("P4L007", STAGE_P4LINT, "metadata 200B", "post"),
        ])
        self._raising(monkeypatch, VerificationError(report))
        err = self._refused(command, "minilb", capsys, tmp_path)
        assert err.count("error: ") == 2
        assert "P4L006" in err and "P4L007" in err

    def test_compiler_bugs_keep_their_traceback(self, monkeypatch):
        from repro.ir.validate import IRValidationError

        self._raising(monkeypatch, IRValidationError("IR003: bad block"))
        with pytest.raises(IRValidationError):
            main(["compile", "minilb"])
