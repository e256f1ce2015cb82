import json
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from eprqkd import cli


def run_cli(argv, capsys):
    """Invoke the entry point in-process and capture its JSON report."""
    code = cli.main(argv)
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip().startswith("{") else None
    return code, report, out.err


BUNDLED = str(resources.files("eprqkd").joinpath("data", "table1.csv"))


class TestQberCommand:
    def test_reference_values(self, capsys):
        code, report, _ = run_cli(["qber", "table1.csv"], capsys)
        assert code == 0
        res = report["results"]
        assert abs(res["qber"] - 0.047) < 5e-4
        assert abs(res["qber_xx"] - 0.064) < 5e-4
        assert abs(res["qber_pp"] - 0.027) < 5e-4

    def test_diagonal_table(self, capsys, tmp_path):
        path = tmp_path / "diag.csv"
        path.write_text(
            ",Bx1,Bx2,Bp1,Bp2\nAx1,100,0,0,0\nAx2,0,100,0,0\n"
            "Ap1,0,0,100,0\nAp2,0,0,0,100\n"
        )
        code, report, _ = run_cli(["qber", str(path)], capsys)
        assert code == 0
        assert report["results"]["qber"] == 0.0

    def test_malformed_table_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",Bx1,Bx2,Bp1,Bp2\nAx1,1,2,3,4\nAx2,1,2,3,4\nAp1,1,2,3,4\n")
        code, report, err = run_cli(["qber", str(path)], capsys)
        assert code == cli.EXIT_VALIDATION
        assert "rows" in err

    def test_missing_table(self, capsys):
        code, _, err = run_cli(["qber", "nonexistent.csv"], capsys)
        assert code == cli.EXIT_VALIDATION
        assert "not found" in err


class TestChecksum:
    def test_tampered_fixture_refused(self, capsys, tmp_path):
        target = tmp_path / "table1.csv"
        shutil.copy(BUNDLED, target)
        shutil.copy(BUNDLED + ".sha256", str(target) + ".sha256")
        text = target.read_text().replace("943", "944")
        target.write_text(text)
        code, _, err = run_cli(["qber", str(target)], capsys)
        assert code == cli.EXIT_VALIDATION
        assert "checksum" in err

    def test_no_verify_overrides(self, capsys, tmp_path):
        target = tmp_path / "table1.csv"
        shutil.copy(BUNDLED, target)
        shutil.copy(BUNDLED + ".sha256", str(target) + ".sha256")
        text = target.read_text().replace("943", "944")
        target.write_text(text)
        code, report, _ = run_cli(["qber", str(target), "--no-verify"], capsys)
        assert code == 0
        assert report["results"]["wrong_counts"] == 190.0

    def test_bundled_fixture_passes_checksum(self, capsys):
        code, _, _ = run_cli(["qber", BUNDLED], capsys)
        assert code == 0


class TestEvePredictCommand:
    def test_reference_prediction(self, capsys):
        code, report, _ = run_cli(["eve-predict", "table1.csv", "--p", "0.5"], capsys)
        assert code == 0
        assert abs(report["results"]["qber"] - 0.296) < 5e-4
        assert report["results"]["chi_counts"] == 2475.0

    def test_zero_resend(self, capsys):
        code, report, _ = run_cli(["eve-predict", "table1.csv", "--p", "0"], capsys)
        assert code == 0
        assert abs(report["results"]["qber"] - 0.0211) < 5e-4

    def test_full_resend(self, capsys):
        code, report, _ = run_cli(["eve-predict", "table1.csv", "--p", "1"], capsys)
        assert code == 0
        assert abs(report["results"]["qber"] - 5140 / 8994) < 1e-9

    def test_out_of_range_probability(self, capsys):
        code, _, err = run_cli(["eve-predict", "table1.csv", "--p", "1.5"], capsys)
        assert code == cli.EXIT_VALIDATION


class TestSimulateCommand:
    def test_default_session_continues(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("session.coincidences = 8000\nsession.estimation_pairs = 800\n")
        code, report, _ = run_cli(
            ["simulate", "--config", str(cfg), "--seed", "42",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        res = report["results"]
        assert res["aborted"] is False
        assert res["qber_estimate"] < 0.15
        key = Path(res["alice_key_path"]).read_text().strip()
        assert set(key) <= {"0", "1"}
        assert len(key) == res["key_bits"]
        assert Path(res["table_path"]).exists()

    def test_attack_aborts_with_exit_code(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "session.coincidences = 8000\nsession.estimation_pairs = 800\n"
            "attack.policy = uniform_random\n"
        )
        code, report, _ = run_cli(
            ["simulate", "--config", str(cfg), "--seed", "42",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == cli.EXIT_ABORTED
        assert report["results"]["aborted"] is True
        assert report["results"]["qber_estimate"] > 0.15

    def test_zero_coincidences_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("session.coincidences = 0\n")
        code, _, err = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys
        )
        assert code == cli.EXIT_VALIDATION

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("session.size = 100\n")
        code, _, err = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert "unknown config key" in err

    def test_seed_reproducibility(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("session.coincidences = 5000\nsession.estimation_pairs = 500\n")
        results = []
        for _ in range(2):
            _, report, _ = run_cli(
                ["simulate", "--config", str(cfg), "--seed", "7",
                 "--out-dir", str(tmp_path)],
                capsys,
            )
            results.append(report["results"])
        assert results[0] == results[1]

    def test_env_seed_override(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("session.coincidences = 5000\nsession.estimation_pairs = 500\n")
        monkeypatch.setenv(cli.SEED_ENV_VAR, "1234")
        _, report, _ = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys
        )
        assert report["seed"] == 1234

    def test_config_seed_beats_env(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "session.coincidences = 5000\nsession.estimation_pairs = 500\n"
            "session.seed = 99\n"
        )
        monkeypatch.setenv(cli.SEED_ENV_VAR, "1234")
        _, report, _ = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys
        )
        assert report["seed"] == 99

    @pytest.mark.parametrize(
        "argv,config,env,origin",
        [
            (["--seed", "-3"], "", None, "--seed"),
            ([], "session.seed = -3\n", None, "session.seed"),
            ([], "session.seed = abc\n", None, "session.seed"),
            ([], "", "-1", "EPRQKD_SEED"),
            ([], "", "1.5", "EPRQKD_SEED"),
        ],
    )
    def test_invalid_seed_names_its_source(
        self, capsys, tmp_path, monkeypatch, argv, config, env, origin
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        if env is None:
            monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(cli.SEED_ENV_VAR, env)
        code, _, err = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)] + argv,
            capsys,
        )
        assert code == cli.EXIT_VALIDATION
        assert origin in err and "non-negative integer" in err

    @pytest.mark.parametrize("guard", ["0", "-5"])
    def test_nonpositive_emission_guard_rejected(self, capsys, tmp_path, guard):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"session.max_emitted = {guard}\n")
        code, _, err = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert "max_emitted" in err

    @pytest.mark.parametrize(
        "key,value",
        [("station.x_slit_width_mm", "nan"), ("station.object_distance_mm", "inf"),
         ("source.target_var_x_mm2", "nan")],
    )
    def test_non_finite_config_value_rejected(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code, _, err = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert key in err

    def test_emission_guard_is_runtime_error(self, capsys, tmp_path):
        # A guard far below the needed emissions trips mid-session, which is
        # a runtime condition (exit 3), not a config problem.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "session.coincidences = 1000\nsession.estimation_pairs = 100\n"
            "session.max_emitted = 2000\n"
        )
        code, _, err = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys
        )
        assert code == cli.EXIT_RUNTIME
        assert "pathologically low" in err


class TestScanCommand:
    def test_peaked_scan(self, capsys, tmp_path):
        out_csv = tmp_path / "scan.csv"
        code, report, _ = run_cli(
            ["scan", "--fixed", "Ax1", "--bases", "xx", "--grid", "0:3:0.1",
             "--pairs", "60000", "--seed", "7", "--out-csv", str(out_csv)],
            capsys,
        )
        assert code == 0
        res = report["results"]
        assert res["flat"] is False
        assert abs(res["fit"]["center_mm"] - 1.0) < 0.1
        text = out_csv.read_text().splitlines()
        assert text[0] == "position_mm,counts"
        assert len(text) == 1 + res["points"]

    def test_mixed_scan_flagged_flat(self, capsys):
        code, report, _ = run_cli(
            ["scan", "--fixed", "Ax1", "--bases", "xp", "--grid", "1:2:0.05",
             "--pairs", "60000", "--seed", "7"],
            capsys,
        )
        assert code == 0
        assert report["results"]["flat"] is True

    def test_bad_grid_step(self, capsys):
        code, _, err = run_cli(
            ["scan", "--fixed", "Ax1", "--bases", "xx", "--grid", "0:3:-0.1"], capsys
        )
        assert code == cli.EXIT_VALIDATION

    def test_bad_bases(self, capsys):
        code, _, err = run_cli(
            ["scan", "--fixed", "Ax1", "--bases", "xz", "--grid", "0:3:0.1"], capsys
        )
        assert code == cli.EXIT_VALIDATION


class TestEprCheckCommand:
    def test_reference_defaults(self, capsys):
        code, report, _ = run_cli(["epr-check"], capsys)
        assert code == 0
        res = report["results"]
        assert abs(res["product_hbar2"] - 0.1036) < 1e-3
        assert res["satisfied"] is True
        assert res["sigma_distance"] > 3
        assert "uncertainty_note" in res

    def test_explicit_variances(self, capsys):
        code, report, _ = run_cli(
            ["epr-check", "--var-x", "1.0", "--var-p", "1.0"], capsys
        )
        assert code == 0
        assert report["results"]["satisfied"] is False
        assert report["results"]["product_hbar2"] == 1.0

    def test_explicit_uncertainties(self, capsys):
        code, report, _ = run_cli(
            ["epr-check", "--var-x", "0.152", "0.080", "--var-p", "0.912", "0.875",
             "--unc-x", "0.003", "0.002", "--unc-p", "0.017", "0.090"],
            capsys,
        )
        assert code == 0
        assert report["results"]["sigma_distance"] > 3

    def test_mismatched_uncertainties_rejected(self, capsys):
        code, _, err = run_cli(
            ["epr-check", "--var-x", "0.1", "--var-p", "0.9", "--unc-x", "0.01"],
            capsys,
        )
        assert code == cli.EXIT_VALIDATION

    def test_fit_file_route(self, capsys, tmp_path):
        paths = []
        for basis, det, seed in (("x", 1, 11), ("x", 2, 12), ("p", 1, 13), ("p", 2, 14)):
            out = tmp_path / f"fit_{basis}{det}.json"
            code, _, _ = run_cli(
                ["scan", "--fixed", f"A{basis}{det}", "--bases", basis * 2,
                 "--grid", "0:3:0.1", "--pairs", "60000", "--seed", str(seed),
                 "--out", str(out)],
                capsys,
            )
            assert code == 0
            paths.append(str(out))
        code, report, _ = run_cli(["epr-check", "--fits", *paths], capsys)
        assert code == 0
        assert report["results"]["satisfied"] is True

    def test_flat_fit_file_rejected(self, capsys, tmp_path):
        out = tmp_path / "flat.json"
        code, _, _ = run_cli(
            ["scan", "--fixed", "Ax1", "--bases", "xp", "--grid", "1:2:0.05",
             "--pairs", "60000", "--seed", "7", "--out", str(out)],
            capsys,
        )
        assert code == 0
        code, _, err = run_cli(
            ["epr-check", "--fits", str(out), str(out), str(out), str(out)], capsys
        )
        assert code == cli.EXIT_VALIDATION


def test_report_shape(capsys):
    code, report, _ = run_cli(["qber", "table1.csv"], capsys)
    assert set(report) == {"command", "args", "config_hash", "seed", "results", "duration_s"}
    assert report["command"] == "qber"


def test_console_script_smoke():
    """The installed entry point runs standalone."""
    proc = subprocess.run(
        [sys.executable, "-m", "eprqkd.cli", "qber", "table1.csv"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert '"qber"' in proc.stdout
