"""Tests for the command-line front end: exit codes, formats, determinism."""

import json
import math
import os

import numpy as np
import pytest

from qpriv import cli
from qpriv import divergences as dv
from qpriv import privacy
from qpriv import quantum_core as qc


@pytest.fixture
def state_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    qc.save_state(qc.DensityMatrix(np.diag([1.0, 0.0])), a)
    qc.save_state(qc.DensityMatrix(np.diag([0.0, 1.0])), b)
    return str(a), str(b)


class TestDivergenceCommand:
    def test_trace_on_orthogonal_pure_files(self, state_files, capsys):
        code = cli.main(["divergence", "trace", *state_files])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.000000000000"

    def test_hockey_matches_module(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rho = qc.random_density_matrix(2, seed=rng)
        sigma = qc.random_density_matrix(2, seed=rng)
        pa, pb = tmp_path / "ra.json", tmp_path / "rb.json"
        qc.save_state(rho, pa)
        qc.save_state(sigma, pb)
        code = cli.main(["divergence", "hockey", str(pa), str(pb), "--gamma", "2"])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(dv.hockey_stick(rho, sigma, 2.0), abs=1e-12)

    def test_malformed_file_exits_two(self, tmp_path, state_files):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert cli.main(["divergence", "trace", str(bad), state_files[1]]) == 2

    def test_dimension_mismatch_exits_three(self, tmp_path, state_files):
        big = tmp_path / "big.json"
        qc.save_state(qc.DensityMatrix(np.eye(3) / 3), big)
        assert cli.main(["divergence", "trace", state_files[0], str(big)]) == 3


class TestCertifyCommand:
    def test_built_mechanism_certifies(self, tmp_path, capsys):
        path = tmp_path / "mech.json"
        qc.save_channel(privacy.build_qldp_mechanism(np.diag([1.0, 0.0]), 1.0), path)
        code = cli.main(["certify", str(path), "--epsilon", "1.0", "--budget", "16"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certified"] is True

    def test_identity_channel_fails(self, tmp_path, capsys):
        path = tmp_path / "ident.json"
        qc.save_channel(qc.KrausChannel((np.eye(2),)), path)
        code = cli.main(["certify", str(path), "--epsilon", "1.0", "--budget", "8"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["certified"] is False

    def test_missing_file_exits_two(self, tmp_path):
        assert cli.main(["certify", str(tmp_path / "nope.json"), "--epsilon", "1"]) == 2


class TestReproduceCommand:
    def test_contraction_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["reproduce", "contraction", "--seed", "7", "--trials", "120"]
        assert cli.main([*args, "--out", str(out1)]) == 0
        assert cli.main([*args, "--out", str(out2)]) == 0
        assert (out1 / "contraction.csv").read_bytes() == (
            out2 / "contraction.csv"
        ).read_bytes()

    def test_reproduce_all_emits_every_table(self, tmp_path):
        out = tmp_path / "all"
        code = cli.main(
            ["reproduce", "all", "--seed", "3", "--trials", "120", "--out", str(out)]
        )
        assert code == 0
        for name in ("contraction", "sample_complexity", "applications"):
            assert (out / f"{name}.csv").exists()

    def test_tolerance_override_forces_violation_exit(self, tmp_path):
        code = cli.main(
            [
                "reproduce",
                "contraction",
                "--seed",
                "1",
                "--trials",
                "80",
                "--out",
                str(tmp_path / "v"),
                "--tol",
                "tol_scan=-1",
            ]
        )
        assert code == 1

    def test_json_format_and_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "trials": 80, "format": "json"}))
        out = tmp_path / "json_out"
        code = cli.main(
            [
                "reproduce",
                "sample_complexity",
                "--config",
                str(cfg),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = json.loads((out / "sample_complexity.json").read_text())
        assert rows and set(rows[0]) >= {
            "epsilon",
            "delta",
            "alpha",
            "p",
            "T",
            "dB2",
            "sc_exact",
            "sc_lower",
            "sc_upper",
            "method",
            "seed",
        }
        for row in rows:
            assert row["sc_lower"] - 1 < row["sc_exact"] <= math.ceil(row["sc_upper"])


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out + captured.err


class TestHostileInput:
    def test_nan_state_exits_three_without_nan_output(self, tmp_path, state_files, capsys):
        entries = [[math.nan, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        bad = write_json(tmp_path / "nan.json", {"dim": 2, "entries": entries})
        code, text = run_cli(["divergence", "trace", bad, state_files[1]], capsys)
        assert code == 3
        assert "NaN" not in text and "inf" not in text

    def test_nan_channel_exits_three_without_nan_output(self, tmp_path, capsys):
        kraus = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [math.nan, 0.0]]]
        bad = write_json(tmp_path / "nan.json", {"dim_in": 2, "dim_out": 2, "kraus": kraus})
        code, text = run_cli(["certify", bad, "--epsilon", "1", "--budget", "4"], capsys)
        assert code == 3
        assert "NaN" not in text and "inf" not in text

    def test_epsilon_past_overflow_exits_three(self, tmp_path, capsys):
        path = tmp_path / "ident.json"
        qc.save_channel(qc.KrausChannel((np.eye(2),)), path)
        code, text = run_cli(["certify", str(path), "--epsilon", "1e9"], capsys)
        assert code == 3 and text.startswith("error: ")

    def test_ragged_entries_exit_two(self, tmp_path, state_files, capsys):
        entries = [[1.0, 0.0], [0.0], [0.0, 0.0], [0.0, 0.0]]
        bad = write_json(tmp_path / "ragged.json", {"dim": 2, "entries": entries})
        code, text = run_cli(["divergence", "trace", bad, state_files[1]], capsys)
        assert code == 2 and text.startswith("error: ")

    def test_non_integer_dim_exits_two(self, tmp_path, state_files, capsys):
        entries = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        bad = write_json(tmp_path / "dim.json", {"dim": "x", "entries": entries})
        code, text = run_cli(["divergence", "trace", bad, state_files[1]], capsys)
        assert code == 2 and text.startswith("error: ")

    @pytest.mark.parametrize("item", ["tol_scan=abc", "tol_scan"])
    def test_unparsable_tolerance_exits_two(self, tmp_path, item, capsys):
        out = str(tmp_path / "t")
        code, text = run_cli(["reproduce", "contraction", "--out", out, "--tol", item], capsys)
        assert code == 2 and text.startswith("error: ")

    def test_unparsable_config_exits_two(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"trials": "many"})
        out = str(tmp_path / "c")
        code, text = run_cli(["reproduce", "contraction", "--config", cfg, "--out", out], capsys)
        assert code == 2 and text.startswith("error: ")

    @pytest.mark.parametrize(
        "field", [{"format": "xml"}, {"format": ["csv"]}, {"output_path": 5}]
    )
    def test_ill_typed_config_field_exits_two(self, tmp_path, monkeypatch, field, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_json(tmp_path / "cfg.json", {"trials": 10, **field})
        code, text = run_cli(["reproduce", "sample_complexity", "--config", cfg], capsys)
        assert code == 2 and text.startswith("error: ")
        assert os.listdir(tmp_path) == ["cfg.json"]


class TestWorkerCount:
    """Parse-only: none of these starts a thread pool."""

    def test_default(self, monkeypatch):
        monkeypatch.delenv("QPRIV_THREADS", raising=False)
        assert cli._worker_count() == min(8, os.cpu_count() or 1)
        monkeypatch.setenv("QPRIV_THREADS", "")
        assert cli._worker_count() == min(8, os.cpu_count() or 1)

    @pytest.mark.parametrize("raw", ["0", "-3", "1", "100000"])
    def test_clamped_to_cpu_count(self, monkeypatch, raw):
        monkeypatch.setenv("QPRIV_THREADS", raw)
        assert cli._worker_count() == min(max(int(raw), 1), os.cpu_count() or 1)

    @pytest.mark.parametrize("raw", ["abc", "2.5", "1e3"])
    def test_non_integer_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("QPRIV_THREADS", raw)
        with pytest.raises(cli._ParseError):
            cli._worker_count()

    def test_non_integer_exits_two_before_any_work(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("QPRIV_THREADS", "many")
        out = str(tmp_path / "w")
        code, text = run_cli(["reproduce", "contraction", "--out", out], capsys)
        assert code == 2 and "QPRIV_THREADS" in text
