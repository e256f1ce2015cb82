import dataclasses
import json
import math
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from eprqkd import analysis, cli, protocol
from eprqkd import source as source_module


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

    def test_empty_same_basis_block_omits_its_rate(self, capsys, tmp_path):
        path = tmp_path / "no_pp.csv"
        path.write_text(
            ",Bx1,Bx2,Bp1,Bp2\nAx1,90,10,5,5\nAx2,10,90,5,5\n"
            "Ap1,5,5,0,0\nAp2,5,5,0,0\n"
        )
        code, report, _ = run_cli(["qber", str(path)], capsys)
        assert code == 0
        res = report["results"]
        assert res["qber"] == res["qber_xx"] == 0.1
        assert "qber_pp" not in res

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

    @pytest.mark.parametrize("command", ["qber", "eve-predict"])
    def test_checksum_cannot_be_skipped(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "table1.csv", "--no-verify"])
        assert exc.value.code == cli.EXIT_VALIDATION
        assert "--no-verify" in capsys.readouterr().err

    def test_bundled_fixture_passes_checksum(self, capsys):
        code, _, _ = run_cli(["qber", BUNDLED], capsys)
        assert code == 0

    def test_empty_sidecar_names_it(self, capsys, tmp_path):
        target = tmp_path / "table1.csv"
        shutil.copy(BUNDLED, target)
        sidecar = tmp_path / "table1.csv.sha256"
        sidecar.write_text("\n")
        code, report, err = run_cli(["qber", str(target)], capsys)
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert str(sidecar) in err


class TestEvePredictCommand:
    def test_reference_prediction(self, capsys):
        code, report, _ = run_cli(["eve-predict", "table1.csv", "--p", "0.5"], capsys)
        assert code == 0
        assert abs(report["results"]["qber"] - 0.296) < 5e-4
        assert report["results"]["chi_counts"] == 2475.0

    def test_detector_weighted_prediction(self, capsys):
        # chi restricted to Bob's detector-1 columns: 462+492+700+655 = 2309.
        code, report, _ = run_cli(["eve-predict", "table1.csv", "--p", "1", "--p2", "0"], capsys)
        assert code == 0
        assert report["results"]["p_resend"] == [1.0, 0.0]
        assert report["results"]["chi_counts"] == 2309.0

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

    @pytest.mark.parametrize("argv, flag", [
        (["--p", "1.5"], "--p"),
        (["--p", "-0.1", "--p2", "0.5"], "--p"),
        (["--p2", "1.5"], "--p2"),
        (["--p", "0.5", "--p2", "nan"], "--p2"),
    ])
    def test_out_of_range_probability_names_flag(self, capsys, argv, flag):
        code, report, err = run_cli(["eve-predict", "table1.csv", *argv], capsys)
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert err.startswith(f"error: {flag} must lie in [0, 1]"), err


@pytest.mark.parametrize("command", [["qber", "table1.csv"], ["eve-predict", "table1.csv"]])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_table_command_rejects_unwritable_out(capsys, tmp_path, command, where):
    target = tmp_path / "out"
    target.mkdir()
    path = target / "missing" / "r.json" if where == "missing-dir" else target
    code, report, err = run_cli(command + ["--out", str(path)], capsys)
    assert code == cli.EXIT_VALIDATION
    assert report is None
    assert err.startswith("error: --out:")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["simulate"],
    ["scan", "--fixed", "Ax1", "--bases", "xx", "--grid", "0:3:0.1"],
    ["epr-check", "--from-scans"],
])
def test_config_directory_names_it(capsys, monkeypatch, tmp_path, command):
    def no_setup(cfg):
        raise AssertionError("--config must be read before setup")

    monkeypatch.setattr(cli, "build_setup", no_setup)
    cfg_dir = tmp_path / "run.cfg"
    cfg_dir.mkdir()
    code, report, err = run_cli(command + ["--config", str(cfg_dir)], capsys)
    assert code == cli.EXIT_VALIDATION
    assert report is None
    assert str(cfg_dir) in err


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

    def test_unknown_attack_policy_names_key(self, capsys, monkeypatch, tmp_path):
        def no_setup(cfg):
            raise AssertionError("attack.policy must be checked before setup")

        monkeypatch.setattr(cli, "build_setup", no_setup)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("attack.policy = bogus\n")
        code, report, err = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert err.startswith("error: attack.policy ") and "'bogus'" in err

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_out_dir_naming_a_file_rejected_before_session(
        self, capsys, monkeypatch, tmp_path, sub
    ):
        def no_session(*args, **kwargs):
            raise AssertionError("--out-dir must be checked before the session")

        monkeypatch.setattr(protocol, "run_session", no_session)
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        code, report, err = run_cli(
            ["simulate", "--out-dir", str(taken / sub), "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert err.startswith("error: --out-dir:") and str(taken) in err
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert taken.read_text() == "keep\n"

    @pytest.mark.parametrize("key, value", [
        ("attack.p_same", "1.5"),
        ("attack.p_same", "-0.1"),
        ("attack.p_cross_1", "-0.2"),
        ("attack.p_cross_2", "1.2"),
        ("attack.p_same", "1.0"),
        ("attack.p_cross_1", "0.5"),
        ("attack.p_cross_2", "0.5"),
    ])
    def test_attack_probability_out_of_range_names_key(
        self, capsys, monkeypatch, tmp_path, key, value
    ):
        """The resend is one fixed rule: a run file that sets one of its old
        probability keys, at any value, is rejected as an unknown key before setup."""
        def no_setup(cfg):
            raise AssertionError("config keys must be checked before setup")

        monkeypatch.setattr(cli, "build_setup", no_setup)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"attack.policy = uniform_random\n{key} = {value}\n")
        code, report, err = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert err.startswith(f"error: {cfg}:2: unknown config key {key!r}"), err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("lines, named", [
        # sigma_plus^2 kappa_minus^2 = 1.8^2 * 0.5^2 = 0.81 < 1
        ("source.sigma_minus_mm = 0.3\nsource.kappa_minus_per_mm = 0.5\n",
         ["sigma_plus^2 * kappa_minus^2 = 0.81 < 1", "uncertainty product"]),
        ("source.sigma_minus_mm = 0.33\n", ["source.sigma_minus_mm requires source.kappa_minus_per_mm"]),
        ("source.kappa_minus_per_mm = 0.83\n", ["source.kappa_minus_per_mm requires source.sigma_minus_mm"]),
        ("source.sigma_minus_mm = 0.33\nsource.kappa_minus_per_mm = 0.83\n"
         "source.target_var_p_hbar2_mm2 = 0.9\n",
         ["source.target_var_p_hbar2_mm2", "source.sigma_minus_mm"]),
        ("source.sigma_minus_mm = 0.33\nsource.target_var_x_mm2 = 0.2\n",
         ["source.target_var_x_mm2", "source.sigma_minus_mm"]),
        ("source.calibrate = false\n", ["unknown config key 'source.calibrate'"]),
    ])
    def test_source_width_route_rejections_name_keys(
        self, capsys, monkeypatch, tmp_path, lines, named
    ):
        """Widths unphysical, one width alone, a width beside a changed target,
        or the removed calibrate switch: exit 2 before the session, naming the keys."""
        def no_session(*args, **kwargs):
            raise AssertionError("the source must be checked before the session")

        monkeypatch.setattr(protocol, "run_session", no_session)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        code, report, err = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        for text in named:
            assert text in err, err

    @pytest.mark.parametrize("key", ["output.alice_key", "output.bob_key", "output.table"])
    @pytest.mark.parametrize("value, named", [
        ("taken", "is a directory"),
        ("missing/file.txt", "does not exist"),
    ])
    def test_unwritable_session_output_rejected_before_session(
        self, capsys, monkeypatch, tmp_path, key, value, named
    ):
        def no_session(*args, **kwargs):
            raise AssertionError("output.* keys must be checked before the session")

        monkeypatch.setattr(protocol, "run_session", no_session)
        out_dir = tmp_path / "out"
        (out_dir / "taken").mkdir(parents=True)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code, report, err = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(out_dir),
             "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert err.startswith(f"error: config key {key}:") and named in err, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "run.cfg"]
        assert [p.name for p in out_dir.iterdir()] == ["taken"]
        assert list((out_dir / "taken").iterdir()) == []

    def test_session_outputs_sharing_a_file_rejected(self, capsys, monkeypatch, tmp_path):
        def no_session(*args, **kwargs):
            raise AssertionError("output.* keys must be checked before the session")

        monkeypatch.setattr(protocol, "run_session", no_session)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("output.table = bob_key.txt\n")
        code, report, err = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert err.startswith("error: config key output.table:") and "already" in err, err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_report_over_a_key_rejected(self, capsys, monkeypatch, tmp_path):
        """--out and the output.* files are one set of outputs: none may overwrite another."""
        def no_setup(cfg):
            raise AssertionError("outputs must be checked before setup")

        monkeypatch.setattr(cli, "build_setup", no_setup)
        out_dir = tmp_path / "d"
        code, report, err = run_cli(
            ["simulate", "--out-dir", str(out_dir), "--out", str(out_dir / "alice_key.txt")],
            capsys,
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert err.startswith("error: --out:") and "config key output.alice_key" in err, err
        assert list(tmp_path.iterdir()) == []

    def test_report_inside_a_new_out_dir(self, capsys, tmp_path):
        """The --out-dir that simulate creates also holds --out."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("session.coincidences = 2000\nsession.estimation_pairs = 200\n")
        out_dir = tmp_path / "new"
        code, report, _ = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(out_dir),
             "--out", str(out_dir / "report.json")],
            capsys,
        )
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "alice_key.txt", "bob_key.txt", "report.json", "session_table.csv",
        ]
        assert json.loads((out_dir / "report.json").read_text()) == report

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

    def test_outputs_do_not_depend_on_worker_count(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("session.coincidences = 5000\nsession.estimation_pairs = 500\n")
        outputs = []
        for workers in (1, 3):
            monkeypatch.setattr(source_module, "worker_threads", lambda: workers)
            out_dir = tmp_path / f"w{workers}"
            code, _, _ = run_cli(
                ["simulate", "--config", str(cfg), "--seed", "7",
                 "--out-dir", str(out_dir), "--out", str(tmp_path / f"w{workers}.json")],
                capsys,
            )
            assert code == 0
            report = json.loads((tmp_path / f"w{workers}.json").read_text())
            report.pop("duration_s")
            files = {p.name: p.read_text() for p in sorted(out_dir.iterdir())}
            for key in ("alice_key_path", "bob_key_path", "table_path"):
                report["results"].pop(key)
            outputs.append((report, files))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1]) == 3

    @pytest.mark.parametrize("config,seed", [("", cli.DEFAULT_SEED), ("session.seed = 99\n", 99)])
    def test_environment_does_not_set_the_seed(self, capsys, tmp_path, monkeypatch, config, seed):
        """The seed comes from --seed, session.seed or the default, never the environment."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("session.coincidences = 5000\nsession.estimation_pairs = 500\n" + config)
        monkeypatch.setenv("EPRQKD_SEED", "1234")
        _, report, _ = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys
        )
        assert report["seed"] == seed

    @pytest.mark.parametrize(
        "argv,config,origin",
        [
            (["--seed", "-3"], "", "--seed"),
            ([], "session.seed = -3\n", "session.seed"),
            ([], "session.seed = abc\n", "session.seed"),
        ],
    )
    def test_invalid_seed_names_its_source(self, capsys, tmp_path, argv, config, origin):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        code, _, err = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)] + argv,
            capsys,
        )
        assert code == cli.EXIT_VALIDATION
        assert origin in err and "non-negative integer" in err

    @pytest.mark.parametrize("guard", ["0", "-5"])
    def test_nonpositive_emission_guard_rejected(self, capsys, tmp_path, guard):
        """The emission guard is fixed: session.max_emitted is an unknown key."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"session.max_emitted = {guard}\n")
        code, _, err = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert "unknown config key 'session.max_emitted'" in err

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
        # Micron slits almost never click together, so the fixed guard of
        # 10^4 N emitted pairs trips mid-session: a runtime condition (exit
        # 3), not a config problem, and no file is written.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "station.x_slit_width_mm = 0.001\nstation.p_slit_width_mm = 0.001\n"
            "session.coincidences = 10\nsession.estimation_pairs = 1\n"
        )
        out_dir = tmp_path / "out"
        code, report, err = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(out_dir),
             "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == cli.EXIT_RUNTIME
        assert report is None
        assert "pathologically low" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


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
             "--pairs", "300000", "--seed", "7"],
            capsys,
        )
        assert code == 0
        assert report["results"]["flat"] is True

    def test_unconverged_fit_is_runtime_error(self, capsys, monkeypatch):
        # A peak fit that runs out of steps is a runtime error (exit 3).
        monkeypatch.setattr(analysis, "FIT_MAX_STEPS", 2)
        code, report, err = run_cli(
            ["scan", "--fixed", "Ax1", "--bases", "xx", "--grid", "0:3:0.1",
             "--pairs", "60000", "--seed", "7"],
            capsys,
        )
        assert code == cli.EXIT_RUNTIME
        assert report is None
        assert "did not converge" in err

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

    @pytest.mark.parametrize("fixed, bases", [
        ("Axbogus2", "xx"), ("Ap1", "xx"), ("Ax1", "px"), ("Ax3", "xp"), ("ax1", "xx"),
    ])
    def test_malformed_fixed_names_fixed(self, capsys, monkeypatch, fixed, bases):
        def no_setup(cfg):
            raise AssertionError("--fixed must be checked before setup")

        monkeypatch.setattr(cli, "build_setup", no_setup)
        code, report, err = run_cli(
            ["scan", "--fixed", fixed, "--bases", bases, "--grid", "0:3:0.1"], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert "--fixed" in err and repr(fixed) in err

    @pytest.mark.parametrize("grid", ["0:nan:0.1", "0:inf:0.1", "nan:3:0.1", "0:3:inf"])
    def test_non_finite_grid_names_grid(self, capsys, grid):
        code, report, err = run_cli(
            ["scan", "--fixed", "Ax1", "--bases", "xx", "--grid", grid], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert "--grid" in err and "finite" in err

    @pytest.mark.parametrize("command", [
        ["scan", "--fixed", "Ax1", "--bases", "xx", "--grid", "0:3:0.1"],
        ["epr-check", "--from-scans"],
    ])
    def test_nonpositive_pairs_names_pairs(self, capsys, command):
        code, report, err = run_cli(command + ["--pairs", "0"], capsys)
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert "--pairs" in err

    @pytest.mark.parametrize("command, flag", [
        (["scan", "--fixed", "Ax1", "--bases", "xx", "--grid", "0:3:0.1"], "--out-csv"),
        (["scan", "--fixed", "Ax1", "--bases", "xx", "--grid", "0:3:0.1"], "--out"),
        (["epr-check", "--from-scans"], "--out"),
        (["simulate"], "--out"),
    ])
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output_rejected_before_setup(
        self, capsys, monkeypatch, tmp_path, command, flag, where
    ):
        def no_setup(cfg):
            raise AssertionError(f"{flag} must be checked before setup")

        monkeypatch.setattr(cli, "build_setup", no_setup)
        path = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
        code, report, err = run_cli(command + [flag, str(path)], capsys)
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert err.startswith(f"error: {flag}:")

    @pytest.mark.parametrize("spelling", ["./c.json", "absolute"])
    def test_report_over_the_csv_rejected(self, capsys, monkeypatch, tmp_path, spelling):
        def no_setup(cfg):
            raise AssertionError("outputs must be checked before setup")

        monkeypatch.setattr(cli, "build_setup", no_setup)
        monkeypatch.chdir(tmp_path)
        out = str(tmp_path / "c.json") if spelling == "absolute" else spelling
        code, report, err = run_cli(
            ["scan", "--fixed", "Ax1", "--bases", "xp", "--grid", "1:2:0.1",
             "--out-csv", "c.json", "--out", out],
            capsys,
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert err.startswith("error: --out:") and "--out-csv" in err, err
        assert list(tmp_path.iterdir()) == []

    def test_same_seed_same_outputs(self, capsys, tmp_path):
        outputs = []
        for run in ("a", "b"):
            csv_path, out_path = tmp_path / f"{run}.csv", tmp_path / f"{run}.json"
            code, _, _ = run_cli(
                ["scan", "--fixed", "Ap1", "--bases", "pp", "--grid", "0:3:0.1",
                 "--pairs", "20000", "--seed", "3", "--out-csv", str(csv_path),
                 "--out", str(out_path)],
                capsys,
            )
            assert code == 0
            report = json.loads(out_path.read_text())
            report.pop("duration_s")
            report["results"].pop("scan_csv")
            outputs.append((csv_path.read_text(), report))
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("policy", ["uniform_random", "always_x", "bogus"])
@pytest.mark.parametrize("command", [
    ["scan", "--fixed", "Ax1", "--bases", "xx", "--grid", "0:3:0.1"],
    ["epr-check", "--from-scans"],
    ["epr-check", "--fits", "a", "b", "c", "d"],
])
def test_scans_reject_an_attack(capsys, monkeypatch, tmp_path, command, policy):
    """Scans run no attack, so a run file that asks for one exits 2 before setup."""
    def no_setup(cfg):
        raise AssertionError("attack.policy must be checked before setup")

    monkeypatch.setattr(cli, "build_setup", no_setup)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"attack.policy = {policy}\n")
    code, report, err = run_cli(command + ["--config", str(cfg)], capsys)
    assert code == cli.EXIT_VALIDATION
    assert report is None
    assert err.startswith("error: attack.policy") and repr(policy) in err, err


class TestEprCheckCommand:
    def test_reference_defaults(self, capsys):
        code, report, _ = run_cli(["epr-check"], capsys)
        assert code == 0
        res = report["results"]
        assert abs(res["product_hbar2"] - 0.1036) < 1e-3
        assert res["satisfied"] is True
        assert res["sigma_distance"] > 3
        assert "uncertainty_note" in res

    def test_from_scans_uncertainty_recomputed_from_the_fits(self, capsys):
        """Each fit's sd(sigma) carried into its variance, then into the product."""
        import numpy as np

        from eprqkd.defaults import default_setup
        from eprqkd.detection import conversion_for

        code, report, _ = run_cli(
            ["epr-check", "--from-scans", "--pairs", "100000", "--seed", "7"], capsys
        )
        assert code == 0
        res = report["results"]
        source, alice, bob = default_setup()
        rng = np.random.default_rng(7)
        var, unc = {"x": [], "p": []}, {"x": [], "p": []}
        for basis in "xp":
            scale = conversion_for(bob, basis)
            for det in (1, 2):
                scan = analysis.scan_simulation(
                    source, alice, bob, f"A{basis}{det}", (basis, basis),
                    np.arange(0.0, 3.05, 0.1), 100_000, rng,
                )
                fit = analysis.fit_gaussian(scan)
                sd_sigma = math.sqrt(np.asarray(fit.covariance)[2, 2])
                var[basis].append((scale * fit.sigma) ** 2)
                unc[basis].append(2 * scale**2 * fit.sigma * sd_sigma)
        assert res["var_x_mm2"] == var["x"] and res["var_p_hbar2_per_mm2"] == var["p"]
        mean_x, mean_p = sum(var["x"]) / 2, sum(var["p"]) / 2
        # Variance of each mean is the sum of squared uncertainties over 2^2.
        product_unc = math.sqrt(
            mean_p**2 * sum(u * u for u in unc["x"]) / 4
            + mean_x**2 * sum(u * u for u in unc["p"]) / 4
        )
        assert math.isclose(res["product_uncertainty_hbar2"], product_unc, rel_tol=1e-12)
        assert math.isclose(
            res["sigma_distance"], (0.25 - mean_x * mean_p) / product_unc, rel_tol=1e-12
        )
        assert res["sigma_distance"] > 3

    def test_from_scans_uncertainty_null_without_every_covariance(self, capsys, monkeypatch):
        fit_gaussian, fits = analysis.fit_gaussian, []

        def fit_without_first_covariance(scan):
            fit = fit_gaussian(scan)
            fits.append(fit)
            return dataclasses.replace(fit, covariance=None) if len(fits) == 1 else fit

        monkeypatch.setattr(analysis, "fit_gaussian", fit_without_first_covariance)
        code, report, _ = run_cli(["epr-check", "--from-scans", "--pairs", "20000"], capsys)
        assert code == 0
        assert len(fits) == 4 and all(fit.covariance is not None for fit in fits)
        assert report["results"]["product_uncertainty_hbar2"] is None
        assert report["results"]["sigma_distance"] is None

    def test_from_scans_flat_scan_names_detector_and_pairs(self, capsys):
        code, report, err = run_cli(
            ["epr-check", "--from-scans", "--pairs", "50", "--seed", "1"], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert err.strip() == (
            "error: --from-scans: the Ax1 scan is flat at --pairs 50; no width to convert"
        )

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

    @pytest.mark.parametrize("argv, field", [
        (["--var-x", "0.1", "nan", "--var-p", "0.5", "0.5"], "var_x[1]"),
        (["--var-x", "0.1", "--var-p", "0.5", "inf"], "var_p[1]"),
        (["--var-x", "0.1", "--var-p", "0.5", "--unc-x", "-0.01", "--unc-p", "0.1"], "unc_x[0]"),
        (["--var-x", "0.1", "--var-p", "0.5", "--unc-x", "0.01", "--unc-p", "nan"], "unc_p[0]"),
    ])
    def test_non_finite_or_negative_input_rejected(self, capsys, argv, field):
        code, report, err = run_cli(["epr-check", *argv], capsys)
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert field in err

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

    def test_mixed_basis_fit_file_rejected(self, capsys, tmp_path):
        out = tmp_path / "xp.json"
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
        assert "need a same-basis scan report, got 'xp'" in err

    def test_flat_fit_file_rejected(self, capsys, tmp_path):
        out = tmp_path / "flat_xx.json"
        out.write_text(json.dumps(
            {"command": "scan", "results": {"basis_pair": "xx", "flat": True,
                                            "fit": {"sigma_mm": None, "flat": True}}}
        ))
        code, report, err = run_cli(
            ["epr-check", "--fits", str(out), str(out), str(out), str(out)], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert "scan is flat; no width to convert" in err

    @pytest.mark.parametrize("text", [
        "[]",
        json.dumps({"results": {"basis_pair": "xx", "fit": None}}),
        json.dumps({"results": ["basis_pair", "xx"]}),
        json.dumps({"results": {"basis_pair": "xx", "fit": {"sigma_mm": "wide"}}}),
        "not json at all",
    ], ids=["list", "null-fit", "list-results", "string-sigma", "not-json"])
    def test_malformed_fit_file_names_file(self, capsys, tmp_path, text):
        out = tmp_path / "malformed_report.json"
        out.write_text(text)
        code, report, err = run_cli(
            ["epr-check", "--fits", str(out), str(out), str(out), str(out)], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert str(out) in err

    @pytest.mark.parametrize("sigma", [
        "true", "false", "NaN", "Infinity", "-Infinity", "0", "0.0", "-0.31",
    ])
    def test_invalid_fit_width_names_file_and_field(self, capsys, tmp_path, sigma):
        out = tmp_path / "bad_width.json"
        out.write_text(f'{{"results": {{"basis_pair": "xx", "fit": {{"sigma_mm": {sigma}}}}}}}')
        code, report, err = run_cli(
            ["epr-check", "--fits", str(out), str(out), str(out), str(out)], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert str(out) in err and "fit.sigma_mm" in err

    @pytest.mark.parametrize("argv, named", [
        (["--var-x", "0.5", "0.6"], ["--var-x", "--var-p"]),
        (["--var-p", "0.9"], ["--var-p", "--var-x"]),
        (["--var-x", "0.1", "--unc-x", "0.01"], ["--var-x", "--var-p"]),
        (["--unc-x", "0.01", "--unc-p", "0.02"], ["--unc-x", "--var-x", "--var-p"]),
        (["--unc-p", "0.02"], ["--unc-p", "--var-x", "--var-p"]),
        (["--from-scans", "--var-x", "0.1", "--var-p", "0.9"], ["--var-x", "--from-scans"]),
        (["--from-scans", "--unc-p", "0.02"], ["--unc-p", "--from-scans"]),
        (["--fits", "a", "b", "c", "d", "--var-p", "0.9"], ["--var-p", "--fits"]),
        (["--fits", "a", "b", "c", "d", "--from-scans"], ["--fits", "--from-scans"]),
    ])
    def test_ignored_flags_rejected(self, capsys, monkeypatch, argv, named):
        def no_setup(cfg):
            raise AssertionError("flags must be checked before setup")

        monkeypatch.setattr(cli, "build_setup", no_setup)
        code, report, err = run_cli(["epr-check", *argv], capsys)
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert all(flag in err for flag in named), err

    @pytest.mark.parametrize("argv, named", [
        (["--config", "/nonexistent.cfg"], "--config"),
        (["--seed", "3"], "--seed"),
        (["--pairs", "1000"], "--pairs"),
        (["--var-x", "1", "--var-p", "1", "--config", "/nonexistent.cfg"], "--config"),
        (["--var-x", "1", "--var-p", "1", "--seed", "3"], "--seed"),
        (["--var-x", "1", "--var-p", "1", "--pairs", "-5"], "--pairs"),
        (["--var-x", "1", "--var-p", "1", "--config", "/nonexistent.cfg", "--seed", "3",
          "--pairs", "-5"], "--config"),
        (["--fits", "a", "b", "c", "d", "--seed", "3"], "--seed"),
        (["--fits", "a", "b", "c", "d", "--pairs", "1000"], "--pairs"),
    ])
    def test_unused_flags_rejected(self, capsys, monkeypatch, argv, named):
        def no_setup(cfg):
            raise AssertionError("flags must be checked before setup")

        monkeypatch.setattr(cli, "build_setup", no_setup)
        code, report, err = run_cli(["epr-check", *argv], capsys)
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert named in err, err


def test_report_shape(capsys):
    code, report, _ = run_cli(["qber", "table1.csv"], capsys)
    assert set(report) == {"command", "args", "config_hash", "seed", "results", "duration_s"}
    assert report["command"] == "qber"


def test_table_commands_do_not_load_scipy(tmp_path):
    """No command, and no default setup, imports scipy.

    A subprocess, because pytest's warning filters import scipy here.  The
    four same-basis scans save the reports that epr-check --fits reads.
    """
    cfg = tmp_path / "run.cfg"
    cfg.write_text("session.coincidences = 2000\nsession.estimation_pairs = 200\n")
    scan = ["scan", "--grid", "0:3:0.1", "--pairs", "20000", "--seed", "5"]
    fits = {f"A{b}{d}": str(tmp_path / f"A{b}{d}.json") for b in "xp" for d in (1, 2)}
    commands = [
        ["qber", "table1.csv"],
        ["eve-predict", "table1.csv"],
        ["epr-check"],
        ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)],
        [*scan, "--fixed", "Ax1", "--bases", "xp"],
        *([*scan, "--fixed", fixed, "--bases", fixed[1] * 2, "--out", path]
          for fixed, path in fits.items()),
        ["epr-check", "--from-scans", "--pairs", "20000"],
        ["epr-check", "--fits", *fits.values(), "--config", str(cfg)],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "import eprqkd\n"
        "eprqkd.default_setup()\n"
        "assert 'scipy' not in sys.modules, 'default_setup'\n"
        "from eprqkd import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    assert 'scipy' not in sys.modules, argv\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_table_commands_do_not_load_numpy(tmp_path):
    """The package, the default setup and the table commands need no numpy.

    A subprocess, because this test process has numpy loaded already.  The
    four saved scan reports that epr-check --fits reads are written by hand.
    """
    fits = []
    for basis, sigma in (("xx", 0.31), ("xx", 0.29), ("pp", 0.27), ("pp", 0.26)):
        path = tmp_path / f"{basis}_{len(fits)}.json"
        path.write_text(json.dumps({"results": {"basis_pair": basis, "fit": {"sigma_mm": sigma}}}))
        fits.append(str(path))
    commands = [
        ["qber", "table1.csv"],
        ["eve-predict", "table1.csv"],
        ["epr-check"],
        ["epr-check", "--var-x", "0.15", "0.08", "--var-p", "0.91", "0.88"],
        ["epr-check", "--fits", *fits],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "import eprqkd\n"
        "assert 'numpy' not in sys.modules, 'import eprqkd'\n"
        "eprqkd.default_setup()\n"
        "assert 'numpy' not in sys.modules, 'default_setup'\n"
        "from eprqkd import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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
