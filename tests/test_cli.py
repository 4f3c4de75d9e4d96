import pytest

from semcache.cli import main

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


class TestValidateKb:
    def test_valid(self, kb_file, capsys):
        assert main(["validate-kb", "--kb", kb_file]) == 0
        assert "2 entities" in capsys.readouterr().out

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
