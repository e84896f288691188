"""Tests for the command-line front end: exit codes, formats, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qpriv
from qpriv import cli, contraction
from qpriv import divergences as dv
from qpriv import hypothesis as hyp
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

    @pytest.mark.parametrize("dim_out", [2, 3])
    def test_one_dimensional_input_certifies(self, tmp_path, dim_out):
        path = tmp_path / "one.json"
        qc.save_channel(qc.KrausChannel((np.eye(dim_out, 1),)), path)
        proc = subprocess.run(
            [sys.executable, "-m", "qpriv.cli", "certify", str(path), "--epsilon", "1", "--budget", "4"],
            capture_output=True, text=True, env=_env_with_src(), timeout=120,
        )
        assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
        report = json.loads(proc.stdout)
        assert report["certified"] is True and report["worst_value"] == 0.0


class TestReproduceCommand:
    def test_contraction_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["reproduce", "contraction", "--seed", "7", "--trials", "120"]
        assert cli.main([*args, "--out", str(out1)]) == 0
        assert cli.main([*args, "--out", str(out2)]) == 0
        assert (out1 / "contraction.csv").read_bytes() == (
            out2 / "contraction.csv"
        ).read_bytes()

    def test_bound_zero_hockey_rows_read_zero(self, tmp_path, monkeypatch):
        """The numerator floor zeroes the gamma = e^+-eps rows and moves no other row."""

        def table(name):
            out = tmp_path / name
            args = ["reproduce", "contraction", "--seed", "3", "--trials", "2000"]
            assert cli.main([*args, "--out", str(out)]) == 0
            with open(out / "contraction.csv", encoding="utf-8") as fh:
                return list(csv.DictReader(fh))

        floored = table("floored")
        monkeypatch.setattr(contraction, "_hockey_floor", lambda gamma: -math.inf)
        raw = table("raw")
        zero = [(a, b) for a, b in zip(floored, raw) if float(a["theory_bound"]) == 0.0]
        assert len(zero) == 8 and all(a["divergence_id"] == "hockey" for a, _ in zero)
        assert all(float(a["empirical_sup"]) == 0.0 for a, _ in zero)
        assert any(float(b["empirical_sup"]) != 0.0 for _, b in zero)  # residue without it
        assert [a for a in floored if float(a["theory_bound"]) != 0.0] == [
            b for b in raw if float(b["theory_bound"]) != 0.0
        ]

    def test_contraction_builds_no_witness_channel(self, tmp_path, monkeypatch):
        """The table holds no witness channel, so no row builds one."""
        built = []
        monkeypatch.setattr(contraction, "_witness", lambda *args: built.append(args))
        args = ["reproduce", "contraction", "--seed", "3", "--trials", "300"]
        assert cli.main([*args, "--out", str(tmp_path / "r")]) == 0
        assert built == []

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


class TestApplicationRows:
    def test_rows_are_exact(self):
        """Fairness margins read 0 under the rounding rule; each Holevo row is
        ln 2 - h(p / 2), the value at the effect's extreme eigenvectors."""
        rows = cli._applications_rows(cli.RunConfig())
        fairness = [r for r in rows if r["check"] == "fairness"]
        holevo = [r for r in rows if r["check"] == "holevo"]
        assert len(fairness) == len(holevo) == 3
        assert all(r["holds"] is True and r["value"] == 0.0 for r in fairness)
        for row in holevo:
            q = 1.0 / (math.exp(row["epsilon"]) + 1.0)  # p / 2
            expected = math.log(2.0) + q * math.log(q) + (1.0 - q) * math.log(1.0 - q)
            assert abs(row["value"] - expected) <= 1e-12
            assert row["holds"] is True and type(row["value"]) is float

    def test_rows_do_not_depend_on_seed_or_trials(self):
        rows = cli._applications_rows(cli.RunConfig(seed=4, trials=50))
        other = cli._applications_rows(cli.RunConfig(seed=9, trials=5000))
        assert [{**r, "seed": 0} for r in rows] == [{**r, "seed": 0} for r in other]


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

    @pytest.mark.parametrize(
        "argv, data",
        [
            (["certify", "{}", "--epsilon", "1"], '{"dim_in": 1e999, "dim_out": 2, "kraus": []}'),
            (["divergence", "trace", "{}", "{}"], '{"dim": 1e999, "entries": []}'),
        ],
        ids=["certify", "divergence"],
    )
    def test_overflowing_dimension_exits_two(self, tmp_path, argv, data):
        """int(inf) raises OverflowError; it is a parse error, not a finding (exit 1)."""
        path = tmp_path / "overflow.json"
        path.write_text(data)
        proc = subprocess.run(
            [sys.executable, "-m", "qpriv.cli", *(str(path) if a == "{}" else a for a in argv)],
            capture_output=True, text=True, env=_env_with_src(), timeout=120,
        )
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
        assert proc.stderr.startswith("error: ")

    def test_empty_kraus_set_exits_three(self, tmp_path, capsys):
        bad = write_json(tmp_path / "empty.json", {"dim_in": 2, "dim_out": 2, "kraus": []})
        code, text = run_cli(["certify", bad, "--epsilon", "1"], capsys)
        assert code == 3 and text.startswith("error: ")

    @pytest.mark.parametrize("item", ["tol_scan=abc", "tol_scan", "tol_sacn=5"])
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
        "field",
        [
            {"format": "xml"},
            {"format": ["csv"]},
            {"output_path": 5},
            {"trials": 2.9},
            {"trials": True},
            {"seed": True},
            {"seed": 1.5},
            {"seed": "3"},
            {"tolerances": {"tol_sacn": 5}},
        ],
    )
    def test_ill_typed_config_field_exits_two(self, tmp_path, monkeypatch, field, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_json(tmp_path / "cfg.json", {"trials": 10, **field})
        code, text = run_cli(["reproduce", "sample_complexity", "--config", cfg], capsys)
        assert code == 2 and text.startswith("error: ")
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_integral_float_config_numbers_are_accepted(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"seed": 3.0, "trials": 10.0})
        args = cli._build_parser().parse_args(["reproduce", "contraction", "--config", cfg])
        parsed = cli.RunConfig.from_args(args)
        assert (parsed.seed, parsed.trials) == (3, 10)
        assert type(parsed.seed) is int and type(parsed.trials) is int

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tol_scan_exits_three(self, tmp_path, value, capsys):
        out = str(tmp_path / "t")
        code, text = run_cli(
            ["reproduce", "contraction", "--out", out, "--tol", f"tol_scan={value}"], capsys
        )
        assert code == 3 and text.startswith("error: ")
        assert not os.path.exists(out)

    def test_non_finite_tol_scan_in_config_exits_three(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"trials": 10, "tolerances": {"tol_scan": NaN}}')
        out = str(tmp_path / "t")
        code, text = run_cli(["reproduce", "contraction", "--config", str(cfg), "--out", out],
                             capsys)
        assert code == 3 and text.startswith("error: ")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("suite", ["all", "applications"])
    def test_negative_seed_flag_exits_three(self, tmp_path, suite, capsys):
        out = str(tmp_path / "t")
        code, text = run_cli(["reproduce", suite, "--seed", "-1", "--out", out], capsys)
        assert code == 3 and text.startswith("error: ") and "Traceback" not in text
        assert not os.path.exists(out)

    def test_negative_seed_in_config_exits_three(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"seed": -4, "trials": 10})
        out = str(tmp_path / "t")
        code, text = run_cli(["reproduce", "all", "--config", cfg, "--out", out], capsys)
        assert code == 3 and text.startswith("error: ") and "Traceback" not in text
        assert not os.path.exists(out)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_certify_negative_seed_exits_three(self, tmp_path, dim, capsys):
        """A qutrit output draws random starts from the seed; a qubit output never does."""
        path = tmp_path / "dep.json"
        qc.save_channel(qc.depolarizing_channel(dim, 0.9), path)
        code, text = run_cli(["certify", str(path), "--epsilon", "1", "--seed", "-1"], capsys)
        assert code == 3 and text.startswith("error: ") and "Traceback" not in text

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
    def test_non_finite_gamma_exits_three(self, state_files, gamma, capsys):
        code, text = run_cli(["divergence", "hockey", *state_files, f"--gamma={gamma}"], capsys)
        assert code == 3 and text.startswith("error: ")
        assert "nan" not in text.lower() and "inf" not in text


_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy or a submodule now fails
import numpy as np
from qpriv import cli, divergences as dv, hypothesis as hyp, quantum_core as qc

code = cli.main(["reproduce", "all", "--trials", "50", "--seed", "1", "--out", sys.argv[1]])
rho = qc.DensityMatrix(np.diag([0.5, 0.3, 0.2]))
sigma = qc.DensityMatrix(np.diag([0.2, 0.3, 0.5]))
kl = dv.f_divergence(rho, sigma, dv.kl_function())
result = hyp.exact_sample_complexity(hyp.HypothesisInstance(rho, sigma, 0.5, 0.05))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m])
print(json.dumps({"code": code, "kl": kl, "exact": result.exact,
                  "method": result.method, "scipy": loaded}))
"""


def _env_with_src() -> dict:
    """The environment of a child interpreter that imports this checkout's qpriv."""
    src = str(Path(qpriv.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestRuntimeWithoutScipy:
    def test_cli_and_kernels_run_with_scipy_blocked(self, tmp_path):
        env = _env_with_src()
        out = tmp_path / "tables"
        proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(out)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report["code"] == 0 and report["scipy"] == []
        assert sorted(os.listdir(out)) == [
            "applications.csv", "contraction.csv", "sample_complexity.csv"]
        rho = qc.DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        sigma = qc.DensityMatrix(np.diag([0.2, 0.3, 0.5]))
        assert report["kl"] == pytest.approx(dv.relative_entropy(rho, sigma), abs=1e-9)
        expected = hyp.exact_sample_complexity(hyp.HypothesisInstance(rho, sigma, 0.5, 0.05))
        assert (report["exact"], report["method"]) == (expected.exact, expected.method)
