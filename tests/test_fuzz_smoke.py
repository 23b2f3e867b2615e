"""Smoke test for the differential fuzzing tool (short runs).

The tool itself (`tools/fuzz_engines.py`) is meant for long campaigns;
these tests keep it importable and verify short runs stay green and
that it actually detects an injected mismatch.
"""

import pathlib
import sys

import numpy as np


sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

from fuzz_engines import build_engine, main, random_config, run_one  # noqa: E402


class TestFuzzTool:
    def test_short_campaign_is_green(self, capsys):
        assert main(["--iterations", "30", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_random_config_fields(self):
        rng = np.random.default_rng(0)
        config = random_config(rng)
        assert config["engine"] in (
            "sam", "sam_chained", "lookback", "reduce_scan",
            "three_phase", "streamscan", "stream", "sharded", "threaded",
            "plan", "compressed", "float_eft", "fused_order", "file",
        )
        assert 1 <= config["order"] <= 4
        assert 1 <= config["tuple_size"] <= 8

    def test_every_engine_kind_constructible(self):
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(200):
            config = random_config(rng)
            if config["engine"] in seen:
                continue
            seen.add(config["engine"])
            if config["engine"] not in ("float_eft", "fused_order", "file"):
                # float_eft and fused_order drive several engines per
                # iteration, and file draws its own dtype and chunk
                # budget; all three are dispatched before construction
                # in run_one.
                build_engine(config)
        assert len(seen) == 14

    def test_run_one_agrees(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            config = random_config(rng)
            assert run_one(config, rng)

    def test_detects_broken_engine(self, monkeypatch, capsys):
        # Sabotage the oracle comparison path: a mismatching engine
        # must be reported with a nonzero exit code.
        import fuzz_engines

        class BrokenEngine:
            def run(self, values, **kw):
                class R:
                    pass

                r = R()
                # "Forgets" to scan: returns the input unchanged.
                r.values = np.asarray(values).copy()
                return r

        monkeypatch.setattr(
            fuzz_engines, "build_engine", lambda config: BrokenEngine()
        )
        code = fuzz_engines.main(["--iterations", "5", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "MISMATCH" in out or "CRASH" in out

    def test_stream_only_campaign(self, capsys):
        # The dedicated split-point mode: every iteration cuts the
        # input at random chunk boundaries through a ScanSession.
        assert main(
            ["--iterations", "15", "--seed", "4", "--only", "stream"]
        ) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_file_only_campaign(self, capsys):
        # Random arrays round-tripped through scan_file at chunk budgets
        # of one element, below, at and above the file size.
        assert main(
            ["--iterations", "15", "--seed", "5", "--only", "file"]
        ) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out
