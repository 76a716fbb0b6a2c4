"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestInfo:
    def test_prints_platform(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "C2070" in out


class TestSelect:
    def test_all_strategies_reported(self, capsys):
        assert main(["select", "--elements", "50000000"]) == 0
        out = capsys.readouterr().out
        for token in ("with_round_trip", "serial", "fused", "fission",
                      "fused_fission"):
            assert token in out

    def test_custom_parameters(self, capsys):
        assert main(["select", "--elements", "10000000", "--num", "3",
                     "--selectivity", "0.1"]) == 0
        assert "3 x SELECT(10%)" in capsys.readouterr().out


class TestQueries:
    @pytest.mark.parametrize("q", ["q1", "q21", "q6"])
    def test_simulated_run(self, q, capsys):
        assert main([q, "--elements", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "auto ->" in out
        assert "fusion result" in out

    def test_functional_run(self, capsys):
        assert main(["q6", "--functional", "--scale-factor", "0.002",
                     "--elements", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "agg_revenue" in out


class TestFuse:
    def test_chain_description(self, capsys):
        assert main(["fuse"]) == 0
        assert "FUSED" in capsys.readouterr().out

    def test_render(self, capsys):
        assert main(["fuse", "--query", "q1", "--render"]) == 0
        out = capsys.readouterr().out
        assert "__global__" in out
        assert "join stage" in out


class TestTrace:
    def test_writes_valid_json(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        assert main(["trace", "--elements", "100000000",
                     "--output", str(path)]) == 0
        trace = json.loads(path.read_text())
        assert trace["traceEvents"]


class TestCompile:
    def test_chain(self, capsys):
        assert main(["compile", "--elements", "50000000"]) == 0
        out = capsys.readouterr().out
        assert "strategy" in out and "simulated" in out

    def test_q1(self, capsys):
        assert main(["compile", "--query", "q1", "--elements", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "fused_fission" in out


class TestSql:
    STATEMENT = ("SELECT l_returnflag, COUNT(*) AS n FROM lineitem "
                 "GROUP BY l_returnflag")

    def test_query_runs(self, capsys):
        assert main(["sql", self.STATEMENT, "--scale-factor", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "l_returnflag" in out

    def test_unknown_table(self, capsys):
        assert main(["sql", "SELECT a FROM widgets",
                     "--scale-factor", "0.002"]) == 1
        assert "unknown table" in capsys.readouterr().out

    def test_row_limit(self, capsys):
        assert main(["sql",
                     "SELECT l_orderkey FROM lineitem WHERE l_orderkey < 50",
                     "--scale-factor", "0.002", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "rows total" in out

    def test_statement_explain_prints_fused_plan(self, capsys):
        assert main(["sql", self.STATEMENT, "--explain",
                     "--scale-factor", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "bound query:" in out
        assert "AGGREGATE" in out and "rows~" in out
        assert "fusion:" in out

    def test_statement_validates(self, capsys):
        assert main(["sql", self.STATEMENT, "--validate",
                     "--scale-factor", "0.002"]) == 0
        assert "statement: ok" in capsys.readouterr().out

    def test_exactly_one_source_required(self, capsys):
        assert main(["sql", self.STATEMENT, "--query", "q1"]) == 2
        assert "exactly one" in capsys.readouterr().out


class TestExplain:
    def test_q1_tree(self, capsys):
        assert main(["explain", "--query", "q1", "--elements", "1000"]) == 0
        out = capsys.readouterr().out
        assert "SORT" in out and "fused region" in out and "rows~" in out

    def test_chain(self, capsys):
        assert main(["explain", "--query", "chain",
                     "--elements", "1000"]) == 0
        assert "SELECT" in capsys.readouterr().out


class TestServe:
    ARGS = ["serve", "--qps", "40", "--duration", "0.5", "--seed", "3"]

    def test_batched_run_renders_summary(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "mode: batched" in out
        assert "goodput" in out
        assert "p50/p95/p99" in out

    def test_both_modes_compared(self, capsys):
        assert main(self.ARGS + ["--mode", "both"]) == 0
        out = capsys.readouterr().out
        assert "mode: batched" in out
        assert "mode: isolated" in out
        assert "batched vs isolated" in out

    def test_summary_json_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.ARGS + ["--summary", str(a)]) == 0
        assert main(self.ARGS + ["--summary", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["batched"]["metrics"]["offered"] > 0
        assert doc["batched"]["config"]["seed"] == 3

    def test_chaos_validated_run(self, tmp_path, capsys):
        # global flags precede the subcommand (the CI smoke invocation)
        assert main(["--validate", "--chaos", "7:0.02"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "[chaos]" in out
        assert "faults observed" in out

    def test_trace_output(self, tmp_path, capsys):
        path = tmp_path / "serve_trace.json"
        assert main(self.ARGS + ["--trace-output", str(path)]) == 0
        trace = json.loads(path.read_text())
        assert trace["traceEvents"]

    def test_analyze_preflight(self, capsys):
        assert main(self.ARGS + ["--analyze"]) == 0
        out = capsys.readouterr().out
        assert "goodput" in out


class TestAnalyze:
    ARGS = ["analyze", "--fuzz-seeds", "3"]

    def test_strict_corpus_is_clean(self, capsys):
        assert main(self.ARGS + ["--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_reports_target_count(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "target(s)" in out

    def test_json_output(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["errors"] == 0
        assert doc["targets"] > 0
        assert isinstance(doc["diagnostics"], list)

    def test_baseline_round_trip(self, tmp_path, capsys):
        path = tmp_path / "baseline.txt"
        assert main(self.ARGS + ["--write-baseline", str(path)]) == 0
        assert path.exists()
        capsys.readouterr()
        # with every current finding baselined, nothing is reported
        assert main(self.ARGS + ["--baseline", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["warnings"] == 0
        assert doc["summary"]["infos"] == 0  # indexed locations too
        assert doc["summary"]["suppressed"] > 0
        assert doc["stale_suppressions"] == []

    def test_json_is_byte_stable_across_runs(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--json"]) == 0
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        assert doc["schema"] == "repro.analyze.report/v1"

    def test_stale_suppressions_reported(self, tmp_path, capsys):
        path = tmp_path / "baseline.txt"
        path.write_text("FUS999 nothing:matches:this\n")
        assert main(self.ARGS + ["--baseline", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stale_suppressions"] == ["FUS999 nothing:matches:this"]
        # text mode prints the same warning...
        assert main(self.ARGS + ["--baseline", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stale suppression (matched nothing): FUS999" in out
        # ...but without --prune-baseline the file is untouched
        assert path.read_text() == "FUS999 nothing:matches:this\n"

    def test_prune_baseline_drops_only_stale_lines(self, tmp_path, capsys):
        path = tmp_path / "baseline.txt"
        assert main(self.ARGS + ["--write-baseline", str(path)]) == 0
        live = path.read_text()
        path.write_text(live + "FUS999 nothing:matches:this\n")
        capsys.readouterr()
        assert main(self.ARGS + ["--baseline", str(path), "--strict",
                                 "--prune-baseline"]) == 0
        err = capsys.readouterr().err
        assert "pruned 1 stale suppression(s)" in err
        pruned = path.read_text()
        assert "FUS999" not in pruned
        # every live suppression survived: the pruned file still silences
        # the full corpus under --strict with nothing stale left
        assert main(self.ARGS + ["--baseline", str(path), "--strict",
                                 "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stale_suppressions"] == []

    def test_prune_baseline_requires_baseline(self, capsys):
        assert main(self.ARGS + ["--prune-baseline"]) == 2
        assert "--prune-baseline requires --baseline" in \
            capsys.readouterr().err


class TestCluster:
    ARGS = ["cluster", "--devices", "4", "--query", "q1",
            "--elements", "2000000", "--seed", "9"]

    def test_reports_speedup_over_single_device(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "@x4" in out
        assert "suffix mode exchange" in out
        assert "speedup" in out

    def test_q21_host_suffix(self, capsys):
        assert main(["cluster", "--devices", "4", "--query", "q21",
                     "--elements", "2000000"]) == 0
        out = capsys.readouterr().out
        assert "suffix mode host" in out
        assert "partition key: orderkey" in out

    def test_validated_summary_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["--validate"] + self.ARGS + ["--summary", str(a)]) == 0
        assert main(["--validate"] + self.ARGS + ["--summary", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["cluster.devices"] == 4
        assert doc["cluster.lost_devices"] == []
        assert doc["exchange.out_bytes"] > 0

    def test_kill_device_recovers(self, tmp_path, capsys):
        assert main(["--validate"] + self.ARGS
                    + ["--kill-device", "2"]) == 0
        out = capsys.readouterr().out
        assert "lost device(s) [2]" in out
        assert "re-executed on survivors" in out

    def test_functional_byte_identity(self, capsys):
        assert main(["cluster", "--devices", "2", "--query", "q21",
                     "--functional", "--scale-factor", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "byte-identical to single device: True" in out

    def test_trace_output_has_device_lanes(self, tmp_path, capsys):
        path = tmp_path / "cluster_trace.json"
        assert main(self.ARGS + ["--trace-output", str(path)]) == 0
        trace = json.loads(path.read_text())
        names = {e["args"]["name"] for e in trace["traceEvents"]
                 if e.get("name") == "process_name"}
        assert names == {"device 0", "device 1", "device 2", "device 3",
                         "cluster host"}

    def test_partition_scheme_flag(self, capsys):
        assert main(self.ARGS + ["--partition", "range"]) == 0
        assert "range partitioning" in capsys.readouterr().out

    def test_serve_accepts_devices(self, capsys):
        assert main(["serve", "--qps", "40", "--duration", "0.5",
                     "--seed", "3", "--devices", "2"]) == 0
        out = capsys.readouterr().out
        assert "goodput" in out
