"""Tests for the command-line experiment runner."""

import pytest

from repro.experiments import cli
from repro.experiments.context import SMALL


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out and "table1" in out and "sec6b" in out

    def test_catalogue_covers_every_paper_artifact(self):
        expected = {"fig2", "fig3", "fig4", "fig5", "fig7", "fig11",
                    "fig12", "fig13", "fig14", "fig15", "table1", "table2",
                    "sec6a", "sec6b", "sec6c"}
        assert expected <= set(cli.EXPERIMENTS)

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            cli.main(["fig99"])

    def test_run_one_experiment(self, small_context, capsys, monkeypatch):
        # Reuse the session's SMALL context instead of building a new one.
        monkeypatch.setattr(cli, "get_context",
                            lambda profile: small_context)
        assert cli.main(["fig12", "--profile", "small"]) == 0
        out = capsys.readouterr().out
        assert "Figure 12" in out
        assert "TPR" in out

    def test_run_table(self, small_context, capsys, monkeypatch):
        monkeypatch.setattr(cli, "get_context",
                            lambda profile: small_context)
        assert cli.main(["table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_calibrate_command(self, small_context, capsys, monkeypatch):
        monkeypatch.setattr(cli, "get_context",
                            lambda profile: small_context)
        exit_code = cli.main(["calibrate"])
        out = capsys.readouterr().out
        assert "Calibration scorecard" in out
        assert exit_code == 0

    def test_list_mentions_calibrate(self, capsys):
        cli.main(["list"])
        assert "calibrate" in capsys.readouterr().out

    def test_extra_positional_rejected_for_experiments(self):
        with pytest.raises(SystemExit):
            cli.main(["fig12", "stats"])


class TestCacheCommand:
    def _populate(self, root):
        root.mkdir(parents=True, exist_ok=True)
        (root / "a.fpdns2").write_bytes(b"x" * 10)
        (root / "b.fpdns.gz").write_bytes(b"y" * 4)

    def test_stats(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert cli.main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 artifacts" in out and "14 bytes" in out
        assert ".fpdns2" in out and ".fpdns.gz" in out

    def test_stats_is_default_action(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert cli.main(["cache", "--dir", str(tmp_path)]) == 0
        assert "2 artifacts" in capsys.readouterr().out

    def test_prune(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert cli.main(["cache", "prune", "--dir", str(tmp_path),
                         "--max-bytes", "4"]) == 0
        assert "pruned 1 artifacts" in capsys.readouterr().out
        remaining = sorted(p.name for p in tmp_path.iterdir())
        assert len(remaining) == 1

    def test_prune_requires_max_bytes(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["cache", "prune", "--dir", str(tmp_path)])

    def test_env_knobs_supply_directories(self, tmp_path, capsys,
                                          monkeypatch):
        self._populate(tmp_path)
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", str(tmp_path))
        assert cli.main(["cache", "stats"]) == 0
        assert "2 artifacts" in capsys.readouterr().out

    def test_no_directories_errors(self, monkeypatch):
        monkeypatch.delenv("REPRO_ARTIFACT_CACHE", raising=False)
        with pytest.raises(SystemExit):
            cli.main(["cache", "stats"])

    def test_unknown_action_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["cache", "wipe", "--dir", str(tmp_path)])

    def test_list_mentions_cache(self, capsys):
        cli.main(["list"])
        assert "cache" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["cache", "stats"],
    ["cache", "prune", "--max-bytes", "0"],
    ["pdns", "stats"],
    ["pdns", "compact"],
    ["pdns", "prune", "--max-bytes", "0"],
], ids=lambda argv: "-".join(argv[:2]))
def test_missing_directory_is_a_usage_error(tmp_path, capsys, argv):
    """Maintenance commands name a missing ``--dir`` and exit 2; they
    neither crash nor create the directory and report success."""
    missing = tmp_path / "no-such-dir"
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--dir", str(missing)])
    assert excinfo.value.code == 2
    assert str(missing) in capsys.readouterr().err
    assert not missing.exists()


class TestServeCommand:
    def test_list_mentions_serve(self, capsys):
        assert cli.main(["list"]) == 0
        assert "serve" in capsys.readouterr().out

    def test_serve_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--host", "--port", "--profile", "--model",
                     "--threshold", "--max-batch", "--batch-window-ms"):
            assert flag in out

    def test_serve_rejects_unknown_profile(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["serve", "--profile", "huge"])

    def test_serve_wires_settings_and_serves(self, monkeypatch, capsys):
        """`repro serve` builds a server from the parsed settings and
        runs it; a stub server keeps the test off the network."""
        from repro.service import app as service_app

        captured = {}

        class StubServer:
            server_address = ("127.0.0.1", 43210)

            class batcher:  # noqa: N801 - attribute stand-in
                close = staticmethod(lambda: captured.setdefault(
                    "batcher_closed", True))

            def serve_forever(self):
                captured["served"] = True
                raise KeyboardInterrupt

            def server_close(self):
                captured["closed"] = True

        def fake_build_server(settings):
            captured["settings"] = settings
            return StubServer()

        monkeypatch.setattr(service_app, "build_server", fake_build_server)
        assert cli.main(["serve", "--port", "0", "--profile", "small",
                         "--threshold", "0.8", "--batch-window-ms", "1.5",
                         "--cache-size", "128"]) == 0
        settings = captured["settings"]
        assert settings.port == 0
        assert settings.threshold == 0.8
        assert settings.cache_size == 128
        assert settings.batch_window_s == pytest.approx(0.0015)
        assert captured["served"]
        assert captured["closed"]
        assert captured["batcher_closed"]
        assert "shutting down" in capsys.readouterr().out


class TestPdnsCommand:
    def _populate(self, root):
        from repro.dns.message import RRType
        from repro.pdns.store import SegmentedPdnsStore

        store = SegmentedPdnsStore(root)
        store.ingest_rrs("2011-02-22", [
            ("a.x.example.com", RRType.A, "10.0.0.1"),
            ("b.x.example.com", RRType.A, "10.0.0.2")])
        store.ingest_rrs("2011-02-23", [
            ("c.y.example.net", RRType.A, "10.0.0.3")])
        return store

    def test_stats(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert cli.main(["pdns", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 segments" in out and "3 rows" in out

    def test_stats_is_default_action(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert cli.main(["pdns", "--dir", str(tmp_path)]) == 0
        assert "2 segments" in capsys.readouterr().out

    def test_compact(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert cli.main(["pdns", "compact", "--dir", str(tmp_path)]) == 0
        assert "compacted 2 segments" in capsys.readouterr().out
        assert len(list(tmp_path.glob("*.pdnsseg"))) == 1

    def test_prune(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert cli.main(["pdns", "prune", "--dir", str(tmp_path),
                         "--max-bytes", "0"]) == 0
        assert "pruned 2 segments" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.pdnsseg"))

    def test_prune_requires_max_bytes(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["pdns", "prune", "--dir", str(tmp_path)])

    def test_env_knob_supplies_directory(self, tmp_path, capsys,
                                         monkeypatch):
        self._populate(tmp_path)
        monkeypatch.setenv("REPRO_PDNS_STORE", str(tmp_path))
        assert cli.main(["pdns", "stats"]) == 0
        assert "2 segments" in capsys.readouterr().out

    def test_no_directories_errors(self, monkeypatch):
        monkeypatch.delenv("REPRO_PDNS_STORE", raising=False)
        with pytest.raises(SystemExit):
            cli.main(["pdns", "stats"])

    def test_unknown_action_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["pdns", "wipe", "--dir", str(tmp_path)])

    def test_corrupt_segment_reported_not_fatal(self, tmp_path, capsys):
        self._populate(tmp_path)
        bad = sorted(tmp_path.glob("*.pdnsseg"))[0]
        bad.write_bytes(b"#garbage\n")
        assert cli.main(["pdns", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 segments" in out
        assert "corrupt segment skipped" in out
        assert bad.name in out

    def test_list_mentions_pdns(self, capsys):
        cli.main(["list"])
        assert "pdns" in capsys.readouterr().out
