"""Smoke tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_every_command_registered(self):
        parser = build_parser()
        for name in COMMANDS:
            args = parser.parse_args([name])
            assert args.command == name

    def test_sweep_options(self):
        parser = build_parser()
        args = parser.parse_args(
            ["sweep", "--scheduler", "wfq", "--loads", "0.3", "0.5",
             "--seed", "7"]
        )
        assert args.scheduler == "wfq"
        assert args.loads == [0.3, 0.5]
        assert args.seed == 7


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "theorem" in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "fig1" in capsys.readouterr().out

    def test_fig3_runs_and_exports(self, tmp_path, capsys):
        path = str(tmp_path / "fig3.json")
        assert main(["fig3", "--duration", "0.006", "--json", path]) == 0
        out = capsys.readouterr().out
        assert "queue 1" in out
        payload = json.loads(open(path).read())
        assert payload["queue2_gbps"] > payload["queue1_gbps"]

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "PMSB(e)" in capsys.readouterr().out

    def test_fig8(self, capsys):
        assert main(["fig8", "--duration", "0.006"]) == 0
        assert "q1" in capsys.readouterr().out

    def test_pool(self, capsys):
        assert main(["pool", "--duration", "0.006"]) == 0
        assert "port A" in capsys.readouterr().out

    def test_theorem_csv_export(self, tmp_path, capsys):
        path = str(tmp_path / "theorem.csv")
        assert main(["theorem", "--duration", "0.006", "--csv", path]) == 0
        with open(path) as handle:
            header = handle.readline()
        assert "utilization" in header


class TestNewCommands:
    def test_burst_and_transports_registered(self):
        parser = build_parser()
        assert parser.parse_args(["burst"]).command == "burst"
        assert parser.parse_args(["transports"]).command == "transports"

    def test_transports_runs(self, capsys):
        assert main(["transports", "--duration", "0.006"]) == 0
        out = capsys.readouterr().out
        assert "dctcp" in out and "dcqcn" in out


class TestAuditFlag:
    def test_every_command_accepts_audit(self):
        parser = build_parser()
        for name in COMMANDS:
            assert parser.parse_args([name, "--audit"]).audit is True
            assert parser.parse_args([name]).audit is False

    def test_audit_default_scoped_to_command(self, capsys, monkeypatch):
        # --audit rides in the command's RunConfig: it audits that
        # command and leaves nothing behind for the next one.
        from repro.experiments import scenario
        audited = []
        real = scenario.FabricAuditor
        monkeypatch.setattr(scenario, "FabricAuditor",
                            lambda sim: audited.append(sim) or real(sim))
        assert main(["fig3", "--duration", "0.006", "--audit"]) == 0
        assert "queue 1" in capsys.readouterr().out
        assert len(audited) == 1
        assert main(["fig3", "--duration", "0.006"]) == 0
        assert len(audited) == 1

    def test_fig8_under_audit(self, capsys):
        assert main(["fig8", "--duration", "0.006", "--audit"]) == 0
        assert "q1" in capsys.readouterr().out


class TestCommonFlags:
    def test_every_command_accepts_common_flags(self):
        # The shared parent parser: identical spellings everywhere.
        parser = build_parser()
        for name in COMMANDS:
            args = parser.parse_args(
                [name, "--duration", "0.01", "--profile", "tiny",
                 "--jobs", "2", "--audit", "--json", "x.json",
                 "--csv", "x.csv"])
            assert args.duration == 0.01
            assert args.profile == "tiny"
            assert args.jobs == 2
            assert args.audit is True

class TestSweepParallelFlags:
    def test_jobs_flag(self):
        parser = build_parser()
        args = parser.parse_args(["sweep", "--jobs", "4"])
        assert args.jobs == 4

    def test_jobs_defaults_to_profile_choice(self):
        parser = build_parser()
        assert parser.parse_args(["sweep"]).jobs is None

    def test_profile_events_flag(self):
        parser = build_parser()
        assert parser.parse_args(
            ["sweep", "--profile-events"]).profile_events is True
        assert parser.parse_args(["sweep"]).profile_events is False

    def test_sweep_tiny_serial_equals_parallel(self, capsys):
        argv = ["sweep", "--profile", "tiny", "--seed", "3"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out


class TestUnsupportedCombinations:
    @pytest.mark.parametrize("argv,message", [
        # Sharded execution is gone; its flag is not parsed at all.
        (["sweep", "--shards", "2"],
         "error: unrecognized arguments: --shards 2"),
        (["chaos-sweep", "--shards", "2"],
         "error: unrecognized arguments: --shards 2"),
        (["xscale", "--shards", "2"],
         "error: unrecognized arguments: --shards 2"),
        # Flags the command's runner never reads are rejected, not
        # parsed and dropped.
        (["xscale", "--faults", "iid-loss:rate=0.2,links=*"],
         "error: --faults: xscale does not support it"),
        # Closed-loop threshold control is gone: no command, no flag.
        (["autotune", "--profile", "tiny"],
         "error: argument command: invalid choice: 'autotune'"),
        # A family's own sweep variable beats the matching flag.
        (["chaos-sweep", "--faults", "iid-loss:rate=0.05,links=*"],
         "error: --faults: chaos-sweep does not support it"),
        (["chaos3", "--faults", "iid-loss:rate=0.05,links=*"],
         "error: --faults: chaos3 does not support it"),
        (["xscale", "--topology", "clos:tiers=2,ports=8,oversub=1.5"],
         "error: --topology: xscale does not support it"),
        (["sharedbuf", "--shared-buffer", "dt:capacity=40,alpha=0.5"],
         "error: --shared-buffer: sharedbuf does not support it"),
        (["fig3", "--controller", "theorem"],
         "error: unrecognized arguments: --controller theorem"),
        (["sweep", "--controller", "theorem:period=0.0005"],
         "error: unrecognized arguments: --controller"),
        # The extension builders wire their own two-port fabrics.
        (["pool", "--faults", "iid-loss:rate=0.05,links=*"],
         "error: --faults: pool does not support it"),
        (["coexist", "--faults", "iid-loss:rate=0.05,links=*"],
         "error: --faults: coexist does not support it"),
        (["burst", "--topology", "leaf-spine"],
         "error: --topology: burst does not support it"),
        (["transports", "--shared-buffer", "dt:capacity=64"],
         "error: --shared-buffer: transports does not support it"),
        # table1 simulates nothing.
        (["table1", "--topology", "leaf-spine"],
         "error: --topology: table1 does not support it"),
        (["table1", "--shared-buffer", "dt:capacity=64"],
         "error: --shared-buffer: table1 does not support it"),
        # A ValueError from a runner is one line too, not a traceback.
        (["xscale", "--profile", "tiny", "--ladder",
          "clos:tiers=2,ports=4,oversub=1"],
         "error: fabric has 8 hosts but the scenario needs 10"),
        # Numeric execution flags are checked once, by RunConfig.
        (["sweep", "--shards", "1"],
         "error: unrecognized arguments: --shards 1"),
        (["fig9", "--shards", "2"],
         "error: unrecognized arguments: --shards 2"),
        (["fig3", "--duration", "inf"],
         "error: --duration: must be a finite number of seconds > 0"),
        (["fig3", "--duration", "-1"],
         "error: --duration: must be a finite number of seconds > 0"),
        (["fig3", "--duration", "0"],
         "error: --duration: must be a finite number of seconds > 0"),
        (["fig8", "--duration", "nan"],
         "error: --duration: must be a finite number of seconds > 0"),
        (["sweep", "--jobs", "-3"],
         "error: --jobs: must be 0 (all cores) or a positive worker count"),
        # The packet-train tier is gone; its flag is not parsed at all.
        (["fig3", "--trains", "16"],
         "error: unrecognized arguments: --trains 16"),
        # One spec grammar: a bad number names its field, whichever flag.
        (["fig3", "--faults", "iid:rate=abc"],
         "error: --faults: bad fault spec 'iid:rate=abc': field 'rate' "
         "needs a number, got 'abc'"),
        (["fig3", "--topology", "clos:ports=x"],
         "error: --topology: bad topology spec 'clos:ports=x': "
         "field 'ports' needs a number, got 'x'"),
        (["fig3", "--shared-buffer", "dt:alpha="],
         "error: --shared-buffer: bad shared-buffer spec 'dt:alpha=': "
         "field 'alpha' needs a number, got ''"),
        # One spelling per flag: no --scale alias of --profile, and no
        # --resume (a cache dir alone resumes).
        (["sweep", "--scale", "tiny"],
         "error: unrecognized arguments: --scale tiny"),
        (["sweep", "--cache-dir", "c", "--resume"],
         "error: unrecognized arguments: --resume"),
    ])
    def test_exits_2_with_one_error_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        error_lines = [line for line in captured.err.splitlines()
                       if "error:" in line]
        assert len(error_lines) == 1 and message in error_lines[0]
        assert "Traceback" not in captured.err

    def test_other_exceptions_keep_their_traceback(self, monkeypatch):
        # Only ValueError is "input the runner cannot honour".
        from repro.experiments import motivation
        from repro.sim.audit import InvariantViolation

        def broken(*args, **kwargs):
            raise InvariantViolation("ledger", "sw0:bottleneck",
                                     ("a", 1), ("b", 2), "test", 0.0)
        monkeypatch.setattr(motivation, "per_port_victim", broken)
        with pytest.raises(InvariantViolation):
            main(["fig3", "--duration", "0.004"])

    def test_neutral_values_and_reading_commands_pass(self, capsys):
        # --jobs 0 asks for nothing.
        assert main(["fig8", "--duration", "0.004", "--jobs", "0"]) == 0
        assert main(["xscale", "--profile", "tiny", "--schemes", "pmsb",
                     "--hogs", "4", "--jobs", "1",
                     "--ladder", "clos:tiers=2,ports=4,oversub=3"]) == 0
        assert "PMSB" in capsys.readouterr().out


class TestSweepCacheFlags:
    def test_cache_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(["sweep", "--cache-dir", "/tmp/c"])
        assert args.cache_dir == "/tmp/c"
        assert args.force is False

    def test_force_requires_cache_dir(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--force"])
        assert "--cache-dir" in capsys.readouterr().err

    def test_cached_sweep_output_identical(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["sweep", "--profile", "tiny", "--seed", "5",
                "--cache-dir", cache]
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        assert main(argv) == 0  # every point answered from the store
        warm_out = capsys.readouterr().out
        assert cold_out == warm_out


class TestRunsGroup:
    def test_runs_without_subcommand_lists(self, capsys):
        assert main(["runs"]) == 0
        out = capsys.readouterr().out
        assert "list" in out and "gc" in out

    def test_list_empty_store(self, tmp_path, capsys):
        assert main(["runs", "list", "--cache-dir",
                     str(tmp_path / "empty")]) == 0
        assert "no records" in capsys.readouterr().out

    def test_list_show_diff_gc_roundtrip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["sweep", "--profile", "tiny", "--seed", "5",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()

        assert main(["runs", "list", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "fct-point" in out and "pmsb" in out

        from repro.store import RunStore
        keys = RunStore(cache).keys()
        assert main(["runs", "show", "--cache-dir", cache,
                     keys[0][:12]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["key"] == keys[0]
        assert payload["spec"]["experiment"] == "fct-point"

        assert main(["runs", "diff", "--cache-dir", cache,
                     keys[0], keys[1]]) == 0
        assert "spec." in capsys.readouterr().out

        assert main(["runs", "gc", "--cache-dir", cache]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_corrupt_record_is_listed_then_reclaimed(self, tmp_path, capsys):
        from repro.experiments.scale import TINY
        from repro.store import ExperimentSpec, RunStore
        store = RunStore(tmp_path / "cache")
        good = store.put(ExperimentSpec.create("demo", profile=TINY), 1)
        bad = store.put(ExperimentSpec.create("demo", seed=2), 2)
        bad_path = tmp_path / "cache" / "runs" / f"{bad.key}.json"
        bad_path.write_text(bad_path.read_text()[:40])  # truncated
        cache = str(tmp_path / "cache")

        assert main(["runs", "list", "--cache-dir", cache]) == 0
        captured = capsys.readouterr()
        assert f"{bad.key[:12]} corrupt" in captured.out
        assert good.key[:12] in captured.out
        assert "[1 record(s), 1 corrupt under" in captured.out
        assert str(bad_path) in captured.err

        assert main(["runs", "gc", "--cache-dir", cache]) == 0
        assert "removed 1 file(s) (unreadable=1)" in capsys.readouterr().out
        assert RunStore(cache).keys() == [good.key]

    def test_old_record_with_a_shards_block_still_reads(self, tmp_path,
                                                        capsys):
        # Records written while sharded execution existed carry a
        # ``shards`` spec param and a provenance ``shards`` block; both
        # are plain data that list and show print as they are.
        from repro.experiments.scale import TINY
        from repro.store import ExperimentSpec, RunStore, make_provenance
        provenance = make_provenance(
            profile_name="tiny", elapsed_s=1.5,
            engine={"events_processed": 1000})
        provenance["shards"] = {"n": 2, "sync_rounds": 40,
                                "blocked_s": 0.25}
        record = RunStore(tmp_path).put(
            ExperimentSpec.create("fct-point", scheme="pmsb",
                                  scheduler="dwrr", load=0.5, seed=1,
                                  profile=TINY, params={"shards": 2}),
            {"completed": 10}, provenance)
        cache = str(tmp_path)

        assert main(["runs", "list", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert record.key[:12] in out and "shards=2" in out
        assert main(["runs", "show", "--cache-dir", cache,
                     record.key[:12]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["provenance"]["shards"] == provenance["shards"]

    def test_old_closed_loop_records_still_read(self, tmp_path, capsys):
        # Records written while closed-loop threshold control existed:
        # an ``autotune-point`` and an ``fct-point`` whose params carry
        # a ``controller``.  They are plain data to list, show and diff,
        # and their specs still hash to the keys they are filed under.
        from repro.store import ExperimentSpec
        profile = {"fabric": [2, 2, 3], "largescale_flows": 30,
                   "link_rate": 10000000000.0, "name": "tiny",
                   "size_scale": 0.05, "static_duration": 0.015,
                   "time_cap": 0.5}
        base = {"audit": False, "code_version": "1.0.0", "profile": profile,
                "scheduler": "dwrr", "schema_version": 1, "scheme": "pmsb",
                "seed": 1}
        autotune = dict(base, experiment="autotune-point", load=0.3,
                        params={"chaos": False, "k0": 12.0, "k1": 24.0,
                                "load_hi": 0.7, "period": 0.0005})
        controlled = dict(base, experiment="fct-point", load=0.5, params={
            "controller": [["floor", 1.0], ["k0", 12.0], ["k1", 12.0],
                           ["margin", 1.5], ["name", "theorem"],
                           ["period", 0.0005], ["t1", 0.0]],
            "topology": "leaf-spine"})
        records = {
            "50b93abfd5bd520033dbd3bf18243b08a62b98fbd6815956f959115083ea01dc":
                (autotune, {"k0": 12.0, "k1": 24.0, "objective": 0.001}),
            "ce2108ef522489aaf43cdac287d5d3ea86fc4f943203aa67045dd970e365840e":
                (controlled, {"completed": 30, "n_flows": 30}),
        }
        runs = tmp_path / "runs"
        runs.mkdir()
        for key, (spec, result) in records.items():
            assert ExperimentSpec.from_canonical(spec).key() == key
            (runs / f"{key}.json").write_text(json.dumps(
                {"key": key, "spec": spec, "result": result,
                 "provenance": {"profile_name": "tiny"}}) + "\n")
        old, fct = records
        cache = str(tmp_path)

        assert main(["runs", "list", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "autotune-point" in out and old[:12] in out
        assert "controller=" in out and fct[:12] in out
        assert "[2 record(s)" in out
        assert main(["runs", "show", "--cache-dir", cache, old[:12]]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["spec"] == autotune and shown["key"] == old
        assert main(["runs", "show", "--cache-dir", cache, fct[:12]]) == 0
        assert json.loads(capsys.readouterr().out)["spec"] == controlled
        assert main(["runs", "diff", "--cache-dir", cache, old, fct]) == 0
        out = capsys.readouterr().out
        assert "spec.experiment" in out and "spec.params.controller" in out

    def test_show_miss_exits_nonzero(self, tmp_path, capsys):
        assert main(["runs", "show", "--cache-dir",
                     str(tmp_path / "c"), "deadbeef"]) == 1
        assert "no record" in capsys.readouterr().err


class TestSharedBufferFlag:
    def test_every_command_accepts_shared_buffer(self):
        parser = build_parser()
        for name in COMMANDS:
            args = parser.parse_args(
                [name, "--shared-buffer", "dt:capacity=64,alpha=2"])
            assert args.shared_buffer == "dt:capacity=64,alpha=2"

    def test_bad_spec_is_a_parse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig3", "--shared-buffer", "bogus"])
        assert "sharing policy" in capsys.readouterr().err

    def test_default_scoped_to_command(self, capsys):
        # --shared-buffer changes the command it is given to and
        # nothing after it: the flagless command prints the same rows
        # before and after a flagged one in the same process.
        argv = ["fig3", "--duration", "0.004"]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        assert main(argv + ["--shared-buffer",
                            "dt:capacity=20,alpha=0.5"]) == 0
        assert capsys.readouterr().out != clean
        assert main(argv) == 0
        assert capsys.readouterr().out == clean

    def test_sharedbuf_command_runs_and_caches(self, tmp_path, capsys):
        argv = ["sharedbuf", "--profile", "tiny", "--schemes", "pmsb",
                "--alphas", "1.0", "--target-delays", "0.0002",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "dt" in cold and "bshare" in cold and "none" in cold
        assert main(argv) == 0  # warm: answered from the run store
        assert capsys.readouterr().out == cold


class TestSpecFlags:
    """The three spec-valued flags share one table and one parse
    function: every bad input must die in argparse with the flag's own
    name prefixed, and a flag reaches only the command it was given to."""

    @pytest.mark.parametrize("flag,value,needle", [
        ("--topology", "bogus", "unknown topology preset"),
        ("--topology", "clos:tiers=4", "tiers"),
        ("--topology", "leaf-spine:weird=1", "unknown field 'weird'"),
        ("--faults", "nope", "unknown fault model"),
        ("--shared-buffer", "bogus", "sharing policy"),
        ("--shared-buffer", "dt:capacity=lots", "needs a number"),
    ])
    def test_bad_spec_names_the_flag(self, capsys, flag, value, needle):
        with pytest.raises(SystemExit):
            main(["fig3", flag, value])
        err = capsys.readouterr().err
        assert f"{flag}: " in err
        assert needle in err

    def test_every_command_accepts_every_spec_flag(self):
        parser = build_parser()
        for name in COMMANDS:
            args = parser.parse_args(
                [name, "--topology", "clos:tiers=2,ports=8,oversub=1.5",
                 "--faults", "iid-loss:rate=0.001",
                 "--shared-buffer", "dt:capacity=64"])
            assert args.topology == "clos:tiers=2,ports=8,oversub=1.5"
            assert args.faults == ["iid-loss:rate=0.001"]

    def test_topology_default_scoped_to_command(self, capsys):
        argv = ["fig8", "--duration", "0.004"]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        assert main(argv + ["--topology",
                            "leaf-spine:leaf=2,spine=2,hosts=3"]) == 0
        assert capsys.readouterr().out != clean
        assert main(argv) == 0
        assert capsys.readouterr().out == clean

    def test_sweep_with_topology_runs(self, capsys):
        assert main(["sweep", "--profile", "tiny", "--loads", "0.5",
                     "--seed", "3", "--jobs", "1", "--topology",
                     "clos:tiers=2,ports=4,oversub=3"]) == 0
        out = capsys.readouterr().out
        assert "PMSB" in out


class TestXScaleCommand:
    def test_registered_with_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["xscale", "--schemes", "pmsb", "--hogs", "4", "--ladder",
             "clos:tiers=2,ports=8,oversub=1.5", "clos:tiers=2,ports=16"])
        assert args.command == "xscale"
        assert args.schemes == ["pmsb"]
        assert args.hogs == 4
        assert len(args.ladder) == 2

    def test_runs_one_rung(self, capsys):
        assert main(["xscale", "--profile", "tiny", "--schemes", "pmsb",
                     "--hogs", "4", "--jobs", "1", "--ladder",
                     "clos:tiers=2,ports=4,oversub=3"]) == 0
        out = capsys.readouterr().out
        assert "hosts" in out and "24" in out and "PMSB" in out

    def test_spec_flag_reaches_the_simulation_and_its_key(self, tmp_path,
                                                          capsys):
        # Regression: the flag used to change the fabric (through a
        # process global) but not the cache key, so the second command
        # was answered with the first one's private-buffer row.
        cache = str(tmp_path / "cache")
        argv = ["xscale", "--profile", "tiny", "--schemes", "pmsb",
                "--hogs", "4", "--jobs", "1", "--cache-dir", cache,
                "--ladder", "clos:tiers=2,ports=4,oversub=3"]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        assert main(argv + ["--shared-buffer",
                            "dt:capacity=40,alpha=0.5"]) == 0
        assert capsys.readouterr().out != clean
        from repro.store import RunStore
        assert len(RunStore(cache)) == 2


class TestElideParams:
    def test_empty_renders_dash(self):
        from repro.cli import _elide_params
        assert _elide_params(None) == "-"
        assert _elide_params({}) == "-"
        assert _elide_params(()) == "-"

    def test_key_sorted_cells(self):
        from repro.cli import _elide_params
        assert _elide_params({"b": 2, "a": 1}) == "a=1,b=2"

    def test_accepts_nested_pairs(self):
        from repro.cli import _elide_params
        assert _elide_params((("topology", "clos"),)) == "topology=clos"

    def test_first_entry_always_shown(self):
        from repro.cli import _elide_params
        cell = _elide_params({"alpha": "x" * 80, "beta": 1}, budget=20)
        assert cell.startswith("alpha=xxx")
        assert cell.endswith("+1 more")

    def test_elides_whole_entries_with_explicit_tail(self):
        from repro.cli import _elide_params
        params = {f"k{i}": i for i in range(9)}
        cell = _elide_params(params, budget=30)
        body, _, tail = cell.partition(" +")
        shown = body.split(",")
        assert shown[0] == "k0=0"
        assert tail.endswith("more")
        assert len(shown) + int(tail.split()[0]) == 9

    def test_under_budget_shows_everything(self):
        from repro.cli import _elide_params
        assert _elide_params({"a": 1, "b": 2}, budget=44) == "a=1,b=2"
        assert "more" not in _elide_params({"a": 1, "b": 2}, budget=44)

    def test_runs_list_shows_params_column(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["sweep", "--profile", "tiny", "--seed", "5",
                     "--loads", "0.5", "--jobs", "1",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "params" in out
        assert "topology=leaf-spine" in out
