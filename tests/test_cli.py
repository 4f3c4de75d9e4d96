import csv
import io
import os
from pathlib import Path

import pytest

import semcache
from semcache.cli import main

REFERENCE_KB = Path(semcache.__file__).parent / "data" / "reference_kb.triples"

KB_TEXT = """\
"wiki/Alice" spouse "wiki/Bob"
"wiki/Alice" type Person
"wiki/Alice" size 50000
"wiki/Bob" type Person
"wiki/Bob" size 25000
"""

TRACE_TEXT = """\
time_ms,user_id,cell_id,entity_iri
0,0,0,wiki/Alice
5000,0,0,wiki/Bob
"""


@pytest.fixture
def kb_file(tmp_path):
    path = tmp_path / "kb.triples"
    path.write_text(KB_TEXT)
    return str(path)


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(TRACE_TEXT)
    return str(path)


class TestSimulate:
    def test_valid_run_writes_csv(self, kb_file, trace_file, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        code = main(
            ["simulate", "--kb", kb_file, "--trace", trace_file, "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        text = out.read_text()
        assert "hit_ratio" in text
        assert "hit ratio" in capsys.readouterr().out

    def test_missing_kb_is_config_error(self, trace_file, capsys):
        code = main(["simulate", "--trace", trace_file])
        assert code == 2
        assert "kb" in capsys.readouterr().err

    def test_missing_kb_file_is_config_error(self, trace_file, capsys):
        code = main(["simulate", "--kb", "/nonexistent", "--trace", trace_file])
        assert code == 2
        assert "kb" in capsys.readouterr().err

    def test_determinism_byte_identical(self, kb_file, trace_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--kb", kb_file, "--trace", trace_file,
                "--mode", "semantic", "--seed", "7"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_records_jsonl(self, kb_file, trace_file, tmp_path):
        records = tmp_path / "records.jsonl"
        code = main(
            ["simulate", "--kb", kb_file, "--trace", trace_file,
             "--records", str(records)]
        )
        assert code == 0
        lines = records.read_text().strip().splitlines()
        assert len(lines) == 2

    def test_records_of_empty_trace_is_empty_file(self, kb_file, tmp_path, capsys):
        trace = tmp_path / "empty.csv"
        trace.write_text("time_ms,user_id,cell_id,entity_iri\n")
        records = tmp_path / "records.jsonl"
        code = main(
            ["simulate", "--kb", kb_file, "--trace", str(trace), "--records", str(records)]
        )
        assert code == 0
        assert "requests:                0" in capsys.readouterr().out
        assert records.read_bytes() == b""

    def test_scenario_file_with_override(self, kb_file, trace_file, tmp_path, capsys):
        scen = tmp_path / "scenario.yaml"
        scen.write_text(
            f"kb: {kb_file}\ntrace: {trace_file}\nmode: traditional\n"
            "cache_location: pgw\ncache_size: 1000000\n"
        )
        code = main(["simulate", "--scenario", str(scen), "--mode", "semantic"])
        assert code == 0
        assert "mode:                    semantic" in capsys.readouterr().out

    def test_env_seed_fallback(self, kb_file, trace_file, monkeypatch, capsys):
        monkeypatch.setenv("SEMCACHE_SEED", "99")
        assert main(["simulate", "--kb", kb_file, "--trace", trace_file]) == 0

    def test_no_partial_output_on_failure(self, kb_file, tmp_path):
        bad_trace = tmp_path / "bad.csv"
        bad_trace.write_text("0,0,0,wiki/Unknown\n")
        out = tmp_path / "metrics.csv"
        code = main(
            ["simulate", "--kb", kb_file, "--trace", str(bad_trace), "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()

    def test_failed_rename_leaves_no_file(self, kb_file, trace_file, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        out = tmp_path / "metrics.csv"
        code = main(["simulate", "--kb", kb_file, "--trace", trace_file, "--out", str(out)])
        assert code == 1
        assert "rename refused" in capsys.readouterr().err
        assert not out.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
    )
    def test_output_files_get_the_umask_mode(self, kb_file, trace_file, tmp_path, umask, mode):
        """Each output file gets the mode a plain ``open(path, "w")`` would
        give it: ``0o666`` less the umask."""
        out, records, trace = tmp_path / "m.csv", tmp_path / "r.jsonl", tmp_path / "t.csv"
        previous = os.umask(umask)
        try:
            assert main(["simulate", "--kb", kb_file, "--trace", trace_file,
                         "--out", str(out), "--records", str(records)]) == 0
            assert main(["gen-trace", "--kb", kb_file, "--n-users", "2", "--out", str(trace)]) == 0
        finally:
            os.umask(previous)
        assert [path.stat().st_mode & 0o777 for path in (out, records, trace)] == [mode] * 3

    def test_overwritten_output_keeps_its_mode(self, kb_file, trace_file, tmp_path):
        """An output file that exists keeps its mode, as with ``open(path, "w")``."""
        out = tmp_path / "m.csv"
        out.write_text("")
        out.chmod(0o640)
        previous = os.umask(0o022)
        try:
            assert main(["simulate", "--kb", kb_file, "--trace", trace_file, "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert out.stat().st_mode & 0o777 == 0o640
        assert "hit_ratio" in out.read_text()


class TestSweep:
    def test_cache_size_sweep(self, kb_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--kb", kb_file, "--variable", "cache-size",
             "--values", "100000", "200000", "--n-users", "2", "--out", str(out)]
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 5
        assert "semantic" in capsys.readouterr().out

    def test_location_sweep(self, kb_file, capsys):
        code = main(
            ["sweep", "--kb", kb_file, "--variable", "cache-location",
             "--values", "enodeb", "pgw", "--n-users", "2"]
        )
        assert code == 0

    def _sweep_rows(self, tmp_path, scenario_text):
        scen = tmp_path / "scenario.yaml"
        scen.write_text(f"kb: {REFERENCE_KB}\n{scenario_text}")
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--scenario", str(scen), "--variable", "cache-size",
             "--values", "3000000", "--n-users", "10", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        return {r["mode"]: r for r in csv.DictReader(io.StringIO(out.read_text()))}

    def test_scenario_max_prefetch(self, tmp_path):
        assert int(self._sweep_rows(tmp_path, "")["semantic"]["prefetched_bytes"]) > 0
        rows = self._sweep_rows(tmp_path, "max_prefetch: 0\n")
        assert rows["semantic"]["prefetched_bytes"] == "0"

    def test_scenario_eviction(self, tmp_path):
        lru = self._sweep_rows(tmp_path, "eviction: lru\n")
        fifo = self._sweep_rows(tmp_path, "eviction: fifo\n")
        assert self._sweep_rows(tmp_path, "") == lru
        assert fifo["traditional"]["hit_ratio"] != lru["traditional"]["hit_ratio"]


class TestConfigErrors:
    def test_non_integer_env_seed(self, kb_file, trace_file, monkeypatch, capsys):
        monkeypatch.setenv("SEMCACHE_SEED", "abc")
        assert main(["simulate", "--kb", kb_file, "--trace", trace_file]) == 2
        assert "SEMCACHE_SEED" in capsys.readouterr().err

    def test_non_integer_sweep_value(self, kb_file, capsys):
        code = main(
            ["sweep", "--kb", kb_file, "--variable", "cache-size", "--values", "10x"]
        )
        assert code == 2
        assert "10x" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "variable, value", [("cache-size", "0"), ("user-count", "-3")]
    )
    def test_non_positive_sweep_value(self, kb_file, capsys, variable, value):
        code = main(["sweep", "--kb", kb_file, "--variable", variable, "--values", value])
        assert code == 2
        assert "values" in capsys.readouterr().err

    def test_unknown_sweep_location(self, kb_file, capsys):
        code = main(
            ["sweep", "--kb", kb_file, "--variable", "cache-location", "--values", "foo"]
        )
        assert code == 2
        assert "foo" in capsys.readouterr().err

    def test_negative_max_prefetch(self, kb_file, trace_file, capsys):
        code = main(
            ["simulate", "--kb", kb_file, "--trace", trace_file, "--max-prefetch", "-1"]
        )
        assert code == 2
        assert "max_prefetch" in capsys.readouterr().err

    def test_scenario_max_prefetch_coerced(self, kb_file, trace_file, tmp_path, capsys):
        scen = tmp_path / "scenario.yaml"
        scen.write_text(f"kb: {kb_file}\ntrace: {trace_file}\nmax_prefetch: \"0\"\n")
        assert main(["simulate", "--scenario", str(scen)]) == 0
        from_file = capsys.readouterr().out
        argv = ["simulate", "--kb", kb_file, "--trace", trace_file, "--max-prefetch", "0"]
        assert main(argv) == 0
        assert from_file == capsys.readouterr().out
        assert "prefetched bytes:        0\n" in from_file

    @pytest.mark.parametrize(
        "argv",
        [["simulate"], ["sweep", "--variable", "cache-size", "--values", "100000"]],
    )
    def test_scenario_unknown_eviction(self, kb_file, trace_file, tmp_path, capsys, argv):
        scen = tmp_path / "scenario.yaml"
        scen.write_text(f"kb: {kb_file}\ntrace: {trace_file}\neviction: foo\n")
        assert main(argv + ["--scenario", str(scen)]) == 2
        assert "eviction" in capsys.readouterr().err

    def test_scenario_max_prefetch_not_integer(self, kb_file, trace_file, tmp_path, capsys):
        scen = tmp_path / "scenario.yaml"
        scen.write_text(f"kb: {kb_file}\ntrace: {trace_file}\nmax_prefetch: two\n")
        assert main(["simulate", "--scenario", str(scen)]) == 2
        assert "max_prefetch" in capsys.readouterr().err

    def test_unknown_scenario_key(self, kb_file, trace_file, tmp_path, capsys):
        scen = tmp_path / "scenario.yaml"
        scen.write_text(f"kb: {kb_file}\ntrace: {trace_file}\ncache_sise: 5\n")
        assert main(["simulate", "--scenario", str(scen)]) == 2
        assert "cache_sise" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value, name",
        [
            ("simulate", "requests_per_user", "5", "requests_per_user"),
            ("simulate", "gap_ms", "abc", "gap_ms"),
            ("simulate", "p_follow", "[1]", "p_follow"),
            ("simulate", "ue_enb_delay_ms", "[1]", "ue_enb_delay_ms"),
            ("simulate", "kb", "[kb.triples]", "kb"),
            ("simulate", "cache_size", "1.7", "cache_size"),
            ("simulate", "seed", "1.5", "seed"),
            ("simulate", "max_prefetch", "1.9", "max_prefetch"),
            ("simulate", "ue_enb_delay_ms", ".nan", "ue_enb"),
            ("gen-trace", "gap_ms", ".nan", "gap"),
            ("gen-trace", "mode", "foo", "mode"),
            # Every present key is range-checked and named, whatever the subcommand.
            ("gen-trace", "cache_size", "0", "'cache_size'"),
            ("simulate", "cells", "0", "'cells'"),
            ("gen-trace", "n_users", "-1", "'n_users'"),
            ("gen-trace", "ue_enb_delay_ms", ".nan", "'ue_enb_delay_ms'"),
            ("simulate", "ue_enb_delay_ms", ".nan", "'ue_enb_delay_ms'"),
            ("simulate", "pgw_inet_bandwidth", "0", "'pgw_inet_bandwidth'"),
            ("simulate", "p_follow", "1.5", "'p_follow'"),
            ("simulate", "gap_ms", ".nan", "'gap_ms'"),
            ("gen-trace", "gap_ms", ".nan", "'gap_ms'"),
            ("gen-trace", "gap_ms", "[5, 1]", "'gap_ms'"),
            ("gen-trace", "requests_per_user", "[0, 3]", "'requests_per_user'"),
            # Delays and gaps must be finite.
            ("simulate", "ue_enb_delay_ms", ".inf", "'ue_enb_delay_ms'"),
            ("gen-trace", "pgw_inet_delay_ms", ".inf", "'pgw_inet_delay_ms'"),
            ("simulate", "gap_ms", ".inf", "'gap_ms'"),
            ("gen-trace", "gap_ms", ".inf", "'gap_ms'"),
            ("gen-trace", "gap_ms", "[1, .inf]", "'gap_ms'"),
        ],
    )
    def test_bad_scenario_value(
        self, kb_file, trace_file, tmp_path, capsys, command, key, value, name
    ):
        scen = tmp_path / "scenario.yaml"
        lines = {"kb": kb_file, "trace": trace_file, key: value}
        scen.write_text("".join(f"{k}: {v}\n" for k, v in lines.items()))
        assert main([command, "--scenario", str(scen)]) == 2
        assert name in capsys.readouterr().err

    _OUTPUT_FLAGS = pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--out"], "out"),
            (["simulate", "--records"], "records"),
            (["sweep", "--variable", "cache-size", "--values", "100000", "--out"], "out"),
            (["gen-trace", "--out"], "out"),
        ],
    )

    def _refused_before_kb(self, monkeypatch, kb_file, trace_file, tmp_path, argv, out):
        def no_kb(path):
            raise AssertionError("the KB loaded before the output path was checked")

        monkeypatch.setattr("semcache.cli.load_knowledge_base", no_kb)
        scen = tmp_path / "scenario.yaml"
        scen.write_text(f"kb: {kb_file}\ntrace: {trace_file}\n")
        return main(argv + [out, "--scenario", str(scen)])

    @_OUTPUT_FLAGS
    def test_missing_output_directory(
        self, kb_file, trace_file, tmp_path, capsys, monkeypatch, argv, flag
    ):
        out = str(tmp_path / "missing" / "x")
        assert self._refused_before_kb(monkeypatch, kb_file, trace_file, tmp_path, argv, out) == 2
        err = capsys.readouterr().err
        assert f"config error in '{flag}'" in err and out in err

    @_OUTPUT_FLAGS
    def test_output_path_is_a_directory(
        self, kb_file, trace_file, tmp_path, capsys, monkeypatch, argv, flag
    ):
        out = tmp_path / "existing"
        out.mkdir()
        code = self._refused_before_kb(monkeypatch, kb_file, trace_file, tmp_path, argv, str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error in '{flag}': {out} is a directory" in err

    def test_missing_records_directory_leaves_no_file(self, kb_file, trace_file, tmp_path):
        ok = tmp_path / "ok.csv"
        missing = str(tmp_path / "missing" / "r.jsonl")
        argv = ["simulate", "--kb", kb_file, "--trace", trace_file]
        assert main(argv + ["--out", str(ok), "--records", missing]) == 2
        assert not ok.exists()

    def test_missing_scenario_file(self, tmp_path, capsys):
        missing = str(tmp_path / "none.yaml")
        assert main(["simulate", "--scenario", missing]) == 2
        assert "file not found" in capsys.readouterr().err

    def test_scenario_not_a_mapping(self, tmp_path, capsys):
        scen = tmp_path / "scenario.yaml"
        scen.write_text("- kb\n- trace\n")
        assert main(["simulate", "--scenario", str(scen)]) == 2
        assert "key-value mapping" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, content",
        [
            ("simulate", "scenario", b"kb: [unclosed\n"),
            ("simulate", "scenario", b"\xff\xfe"),
            ("simulate", "scenario", None),
            ("validate-kb", "kb", None),
        ],
        ids=["not-yaml", "not-utf8", "scenario-directory", "kb-directory"],
    )
    def test_unreadable_input(self, tmp_path, capsys, command, key, content):
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert main([command, f"--{key}", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"config error in '{key}'" in err
        assert ("is a directory" in err) is (content is None)

    def test_flag_read_like_file(self, kb_file, trace_file, tmp_path, capsys):
        scen = tmp_path / "scenario.yaml"
        scen.write_text(f"kb: {kb_file}\ntrace: {trace_file}\nmode: Traditional\n")
        assert main(["simulate", "--scenario", str(scen)]) == 0
        from_file = capsys.readouterr().out
        argv = ["simulate", "--kb", kb_file, "--trace", trace_file]
        assert main(argv + ["--mode", "Traditional"]) == 0
        assert capsys.readouterr().out == from_file
        assert "mode:                    traditional\n" in from_file
        assert main(argv + ["--cache-size", "1.5"]) == 2
        assert "cache_size" in capsys.readouterr().err

    def test_every_scenario_key_accepted(self, kb_file, trace_file, tmp_path):
        scen = tmp_path / "scenario.yaml"
        links = "".join(
            f"{link}_delay_ms: 5\n{link}_bandwidth: 2000\n"
            for link in ("ue_enb", "enb_sgw", "sgw_pgw", "pgw_inet")
        )
        scen.write_text(
            f"kb: {kb_file}\ntrace: {trace_file}\nmode: traditional\n"
            "cache_location: sgw\ncache_size: 1000000\ncells: 1\neviction: fifo\n"
            "seed: 3\nmax_prefetch: 1\nn_users: 2\np_follow: 0.5\n"
            "gap_ms: [1000, 2000]\nrequests_per_user: [2, 3]\n" + links
        )
        assert main(["simulate", "--scenario", str(scen)]) == 0
        assert main(
            ["sweep", "--scenario", str(scen), "--variable", "cache-size",
             "--values", "100000"]
        ) == 0
        assert main(["gen-trace", "--scenario", str(scen)]) == 0


class TestGenTrace:
    def test_stdout_trace(self, kb_file, capsys):
        code = main(["gen-trace", "--kb", kb_file, "--n-users", "2", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("time_ms,user_id,cell_id,entity_iri")

    def test_forced_follow_chain(self, kb_file, capsys):
        # p_follow=1 on a single-successor KB: after wiki/Alice comes wiki/Bob.
        code = main(
            ["gen-trace", "--kb", kb_file, "--n-users", "1", "--p-follow", "1.0",
             "--seed", "3"]
        )
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        iris = [r.split(",")[3] for r in rows]
        for prev, cur in zip(iris, iris[1:]):
            if prev == "wiki/Alice":
                assert cur == "wiki/Bob"

    def test_write_to_file(self, kb_file, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["gen-trace", "--kb", kb_file, "--n-users", "3", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("time_ms")

    @pytest.mark.parametrize("flag, value", [("--cache-size", "5"), ("--cache-location", "pgw")])
    def test_cache_flags_refused(self, kb_file, flag, value):
        # A trace does not depend on the cache, so gen-trace has no cache flags.
        with pytest.raises(SystemExit) as exc:
            main(["gen-trace", "--kb", kb_file, flag, value])
        assert exc.value.code == 2


class TestValidateKb:
    def test_valid(self, kb_file, capsys):
        assert main(["validate-kb", "--kb", kb_file]) == 0
        assert capsys.readouterr().out == "ok: 2 entities (2 persons, 0 TV series), 3 triples\n"

    def test_edge_whitespace_iri_reports_type_line(self, tmp_path, capsys):
        path = tmp_path / "spaced.triples"
        path.write_text('" wiki/A" type Person\n" wiki/A" size 100\n')
        assert main(["validate-kb", "--kb", str(path)]) == 1
        assert "line 1: entity_iri must not begin or end" in capsys.readouterr().err

    def test_missing_size_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.triples"
        path.write_text('"wiki/A" spouse "wiki/B"\n"wiki/A" type Person\n"wiki/A" size 5\n"wiki/B" type Person\n')
        code = main(["validate-kb", "--kb", str(path)])
        assert code == 1
        assert "line 1" in capsys.readouterr().err


class TestCodec:
    def test_encode_decode_round_trip(self, capsys):
        assert main(["codec", "encode", "--iri", "wiki/Example", "--kind", "person"]) == 0
        hex_out = capsys.readouterr().out.strip()
        assert main(["codec", "decode", "--hex", hex_out]) == 0
        out = capsys.readouterr().out
        assert "entity_iri: wiki/Example" in out
        assert "entity_kind: PERSON" in out

    @pytest.mark.parametrize("iri", ["wiki/a\tb", "x" * 2028], ids=["tab", "too-long"])
    def test_refused_iri_is_config_error(self, iri, capsys):
        assert main(["codec", "encode", "--iri", iri]) == 2
        assert "config error in 'iri'" in capsys.readouterr().err

    def test_edge_whitespace_iri_is_config_error(self, capsys):
        assert main(["codec", "encode", "--iri", " wiki/A"]) == 2
        assert "config error in 'iri'" in capsys.readouterr().err

    @pytest.mark.parametrize("action, flag", [("encode", "iri"), ("decode", "hex")])
    def test_missing_input_is_config_error(self, action, flag, capsys):
        assert main(["codec", action]) == 2
        assert f"{action} requires --{flag}" in capsys.readouterr().err

    def test_bad_hex_is_config_error(self, capsys):
        assert main(["codec", "decode", "--hex", "zz"]) == 2

    def test_malformed_header_is_runtime_error(self, capsys):
        assert main(["codec", "decode", "--hex", "00"]) == 1


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for sub in ("simulate", "sweep", "gen-trace", "validate-kb", "codec"):
        assert sub in out
