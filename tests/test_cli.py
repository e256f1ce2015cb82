import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from eprqkd import analysis, cli, protocol


def run_cli(argv, capsys):
    """Invoke the entry point in-process and capture its JSON report."""
    code = cli.main(argv)
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip().startswith("{") else None
    return code, report, out.err


BUNDLED = str(resources.files("eprqkd").joinpath("data", "table1.csv"))


# The run file's numeric keys: every float key, and those that must be positive.
POSITIVE_KEYS = (
    "source.target_var_x_mm2", "source.target_var_p_hbar2_mm2", "source.sigma_plus_mm",
    "source.kappa_plus_per_mm", "station.object_distance_mm", "station.image_distance_mm",
    "station.focal_length_mm", "station.wavenumber_per_mm", "station.x_slit_width_mm",
    "station.p_slit_width_mm",
)
FLOAT_KEYS = POSITIVE_KEYS + (
    "station.origin_mm", "station.detector1_mm", "station.detector2_mm",
)


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

    def test_missing_path_does_not_fall_back_to_the_fixture(self, capsys, tmp_path):
        """Only a bare file name resolves to the bundled table of that name."""
        for name in (str(tmp_path / "nosuchdir" / "table1.csv"), "nosuchdir/table1.csv"):
            code, report, err = run_cli(["qber", name], capsys)
            assert code == cli.EXIT_VALIDATION and report is None
            assert "not found" in err and name in err

    @pytest.mark.parametrize("command", [["qber"], ["eve-predict", "--p", "0.5"]])
    def test_unreadable_table_names_path(self, capsys, tmp_path, command):
        """A directory or a file that is not UTF-8 exits 2 naming it, not with a traceback."""
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b",Bx1,Bx2,Bp1,Bp2\nAx1,\xff\xfe,0,0,0\n")
        for path in (tmp_path, binary):
            code, report, err = run_cli([command[0], str(path), *command[1:]], capsys)
            assert code == cli.EXIT_VALIDATION and report is None
            assert str(path) in err


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

    @pytest.mark.parametrize("key,value,rule", [
        *((key, value, "a number" if value == "abc" else "finite")
          for key in FLOAT_KEYS for value in ("nan", "inf", "abc", "1e400")),
        *((key, value, "an integer")
          for key in ("session.coincidences", "session.estimation_pairs")
          for value in ("nan", "inf", "abc", "1e400")),
        *((key, value, "positive") for key in POSITIVE_KEYS for value in ("0", "-1")),
    ])
    def test_bad_numeric_value_named_before_setup(
        self, capsys, monkeypatch, tmp_path, key, value, rule
    ):
        from eprqkd import detection

        def no_setup(*args, **kwargs):
            raise AssertionError(f"{key} must be checked before setup")

        monkeypatch.setattr(detection, "calibrate_source", no_setup)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code, report, err = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert err == f"error: config key {key} must be {rule}, got '{value}'\n"

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
        ("session.seed", "99"),
        ("session.qber_threshold", "0.5"),
    ])
    def test_attack_probability_out_of_range_names_key(
        self, capsys, monkeypatch, tmp_path, key, value
    ):
        """A run file that sets a removed key, at any value, is rejected as an
        unknown key before setup: the resend is one fixed rule, the seed comes
        from --seed alone and the abort threshold is fixed."""
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
        # the calibrated kappa_minus gives sigma_plus^2 kappa_minus^2 = 0.6426 < 1
        pytest.param("source.target_var_p_hbar2_mm2 = 0.4\n",
                     ["sigma_plus^2 * kappa_minus^2 = 0.6426 < 1", "uncertainty product"],
                     id="unphysical-target"),
        pytest.param("source.sigma_minus_mm = 0.33\n",
                     ["unknown config key 'source.sigma_minus_mm'"], id="sigma_minus"),
        pytest.param("source.kappa_minus_per_mm = 0.83\n",
                     ["unknown config key 'source.kappa_minus_per_mm'"], id="kappa_minus"),
        pytest.param("station.equalize = false\n",
                     ["unknown config key 'station.equalize'"], id="equalize"),
        pytest.param("source.calibrate = false\n",
                     ["unknown config key 'source.calibrate'"], id="calibrate"),
        pytest.param("source.pump_waist_mm = 2.0\n",
                     ["unknown config key 'source.pump_waist_mm'"], id="pump_waist"),
        pytest.param("source.sigma_plus_mm 1.8\n", ["run.cfg:1: expected 'key = value'"],
                     id="no-equals"),
    ])
    def test_source_rejections_name_product_or_key(
        self, capsys, monkeypatch, tmp_path, lines, named
    ):
        """Targets that calibrate to an unphysical source, a removed key (the
        squeezed widths, the equalize and calibrate switches, the pump waist
        that no computation read) or a line with no '=': exit 2 before the
        session, naming the product, key or line."""
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

    def test_outputs_and_files_repeat_for_a_seed(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("session.coincidences = 5000\nsession.estimation_pairs = 500\n")
        outputs = []
        for run in range(2):
            out_dir = tmp_path / f"run{run}"
            code, _, _ = run_cli(
                ["simulate", "--config", str(cfg), "--seed", "7",
                 "--out-dir", str(out_dir), "--out", str(tmp_path / f"run{run}.json")],
                capsys,
            )
            assert code == 0
            report = json.loads((tmp_path / f"run{run}.json").read_text())
            report.pop("duration_s")
            files = {p.name: p.read_text() for p in sorted(out_dir.iterdir())}
            for key in ("alice_key_path", "bob_key_path", "table_path"):
                report["results"].pop(key)
            outputs.append((report, files))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1]) == 3

    @pytest.mark.parametrize("key", ["station.origin_mm", "station.detector1_mm", "station.detector2_mm"])
    def test_dark_geometry_ends_fast(self, capsys, tmp_path, key):
        # Moved 1 mm off the pump, the slits see a coincidence in fewer than
        # 1 in 10^4 pairs (the oracle's clean rate), so the session could
        # not fill within its 10^4 N emission cap: refused before emission.
        import time

        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = -1\n")
        start = time.perf_counter()
        argv = ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        code, report, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert "station.origin_mm, station.detector1_mm, station.detector2_mm" in err
        p = "2.31e-06" if key == "station.origin_mm" else "1.47e-05"
        assert f"the slits see a coincidence in {p} of the pairs, below 1 in 10000" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config,seed", [("", cli.DEFAULT_SEED)])
    def test_environment_does_not_set_the_seed(self, capsys, tmp_path, monkeypatch, config, seed):
        """The seed comes from --seed or the default, never the environment."""
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

    @pytest.mark.parametrize("config", [
        "session.coincidences = 0\n",
        "session.estimation_pairs = 60000\n",
        "session.estimation_pairs = 0\n",
    ])
    def test_session_errors_name_their_keys(self, capsys, monkeypatch, tmp_path, config):
        def no_setup(cfg):
            raise AssertionError("the session keys must be checked before setup")

        monkeypatch.setattr(cli, "build_setup", no_setup)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        code, report, err = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert "session.coincidences" in err and "session.estimation_pairs" in err
        assert not (tmp_path / "out").exists()

    _MICRON_SLITS = (
        "station.x_slit_width_mm = 0.001\nstation.p_slit_width_mm = 0.001\n"
        "session.coincidences = 10\nsession.estimation_pairs = 1\n"
    )

    def test_micron_slits_refused_before_emission(self, capsys, tmp_path):
        # Micron slits almost never click together: the oracle's rate is
        # below 1 in 10^4 pairs, a config problem (exit 2), and no file is written.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self._MICRON_SLITS)
        code, report, err = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
             "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert "station.x_slit_width_mm and station.p_slit_width_mm" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_emission_guard_is_runtime_error(self, capsys, tmp_path, monkeypatch):
        # With the oracle's check passed by a stand-in, micron slits reach
        # the session's own guard of 10^4 N emitted pairs, which trips
        # mid-session: a runtime condition (exit 3), and no file is written.
        from eprqkd import detection

        monkeypatch.setattr(detection, "cell_probability", lambda cell: 1.0)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self._MICRON_SLITS)
        code, report, err = run_cli(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
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

    @pytest.mark.parametrize("grid, message", [
        ("0:0.2:0.1", "at least 5 points"),
        # 10^18 and 10^19 points: numpy refuses each before it allocates.
        ("0:1e9:1e-9", "too many points"),
        ("0:1e19:1", "too many points"),
    ])
    def test_grid_size_checked_before_setup(self, capsys, monkeypatch, grid, message):
        def no_setup(cfg):
            raise AssertionError("--grid must be checked before setup")

        monkeypatch.setattr(cli, "build_setup", no_setup)
        code, report, err = run_cli(
            ["scan", "--fixed", "Ax1", "--bases", "xx", "--grid", grid], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert err.startswith("error: --grid") and message in err

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

    @pytest.mark.parametrize("command", [
        ["scan", "--fixed", "Ax1", "--bases", "xx", "--grid", "0:3:0.1"],
        ["epr-check", "--from-scans"],
    ])
    @pytest.mark.parametrize("pairs", [2**63, 10**19, 10**20])
    def test_pairs_past_int64_names_pairs(self, capsys, monkeypatch, command, pairs):
        # A binomial count past 2^63 - 1 overflowed numpy with a traceback;
        # it is refused before setup.  2^63 - 1 itself is valid and runs for
        # hours, so it is not run here.
        def no_setup(cfg):
            raise AssertionError("--pairs must be checked before setup")

        monkeypatch.setattr(cli, "build_setup", no_setup)
        code, report, err = run_cli(command + ["--pairs", str(pairs)], capsys)
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert err.startswith("error: --pairs") and "2^63 - 1" in err

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
    monkeypatch.setattr(cli, "build_station", no_setup)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"attack.policy = {policy}\n")
    code, report, err = run_cli(command + ["--config", str(cfg)], capsys)
    assert code == cli.EXIT_VALIDATION
    assert report is None
    assert err.startswith("error: attack.policy") and repr(policy) in err, err


@pytest.mark.parametrize("detector2, basis", [("1.1", "x"), ("1.4", "p"), ("1.0", "x")],
                         ids=["x", "p-only", "both"])
@pytest.mark.parametrize("command", [
    ["simulate"],
    ["scan", "--fixed", "Ax1", "--bases", "xx", "--grid", "0:3:0.1"],
    ["epr-check", "--fits", "a", "b", "c", "d"],
], ids=["simulate", "scan", "fits"])
def test_overlapping_slits_name_keys_and_basis(
    capsys, monkeypatch, tmp_path, command, detector2, basis
):
    """Overlapping slits exit 2 before calibration, naming the keys and the first such basis.

    At 1.1 mm both bases overlap and x is named; at 1.4 mm only the wider p
    slits do.
    """
    from eprqkd import detection

    def no_setup(*args, **kwargs):
        raise AssertionError("the slits must be checked before calibration")

    monkeypatch.setattr(detection, "calibrate_source", no_setup)
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(f"station.detector2_mm = {detector2}\n")
    code, report, err = run_cli(command + ["--config", "run.cfg"], capsys)
    assert code == cli.EXIT_VALIDATION
    assert report is None
    keys = f"station.detector1_mm, station.detector2_mm and station.{basis}_slit_width_mm"
    assert err.startswith(f"error: config keys {keys}: {basis} slit intervals overlap: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("origin, basis", [("-3.5", "p"), ("-4", "x"), ("-100", "x")])
def test_overlapping_derived_slits_name_keys(capsys, tmp_path, origin, basis):
    """Far off axis party A's derived slits overlap: exit 2 naming the keys that place them.

    From -3.5 mm on, the default geometry clamps A's two slits onto the
    search bracket; at -100 mm the two intervals are identical.
    """
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"station.origin_mm = {origin}\n")
    code, report, err = run_cli(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys)
    assert code == cli.EXIT_VALIDATION
    assert report is None
    keys = "station.origin_mm, station.detector1_mm and station.detector2_mm"
    assert err.startswith(f"error: config keys {keys}: party A's derived slits: {basis} slit "), err
    assert "Traceback" not in err


SIMULATE = ["simulate"]
SCAN = ["scan", "--fixed", "Ax1", "--bases", "xx", "--grid", "0:3:0.1", "--pairs", "1000"]
FROM_SCANS = ["epr-check", "--from-scans", "--pairs", "1000"]
FITS = ["epr-check", "--fits"]
FITS_COVARIANCE = ["epr-check", "--fits"]  # with reports that carry a fit.covariance


@pytest.mark.parametrize("line, command", [
    ("source.sigma_plus_mm = 1e160", SIMULATE),
    ("source.sigma_plus_mm = 1e160", SCAN),
    ("source.sigma_plus_mm = 1e160", FROM_SCANS),
    ("source.kappa_plus_per_mm = 1e200", SIMULATE),
    ("station.image_distance_mm = 1e-300", SIMULATE),
    ("station.origin_mm = 1e300", SIMULATE),
    ("station.detector2_mm = 1e300", SIMULATE),
    ("station.x_slit_width_mm = 1e-300", SIMULATE),
    ("station.wavenumber_per_mm = 1e-300", SIMULATE),
    ("station.image_distance_mm = 1e-300", FITS),
    # alpha^2 = 1e308 is finite, but 2 alpha^2 sigma sd(sigma) is not.
    ("station.image_distance_mm = 1e-152", FITS_COVARIANCE),
], ids=["sigma_plus-simulate", "sigma_plus-scan", "sigma_plus-from-scans", "kappa_plus",
        "image_distance", "origin", "detector2", "x_slit_width", "wavenumber",
        "image_distance-fits", "image_distance-fits-uncertainty"])
def test_extreme_finite_values_name_their_key(capsys, monkeypatch, tmp_path, line, command):
    """A finite run-file value that squares out of the float range, or leaves a
    slit no mass, exits 2 naming its key, not with a traceback."""
    def no_session(*args, **kwargs):
        raise AssertionError("the setup must be refused before the session")

    monkeypatch.setattr(protocol, "run_session", no_session)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    if command is FITS or command is FITS_COVARIANCE:
        sd_sigma = 0.01 if command is FITS_COVARIANCE else None
        command = FITS + _fit_reports(tmp_path, FOUR_FITS, sd_sigma)
    outputs = ["--out-dir", str(tmp_path / "out")] if command is SIMULATE else []
    code, report, err = run_cli([*command, "--config", str(cfg), *outputs], capsys)
    assert code == cli.EXIT_VALIDATION, err
    assert report is None
    assert err.startswith("error: config keys ") and line.split(" = ")[0] in err, err


class TestEprCheckCommand:
    def test_reference_defaults(self, capsys):
        code, report, _ = run_cli(["epr-check"], capsys)
        assert code == 0
        res = report["results"]
        assert abs(res["product_hbar2"] - 0.1036) < 1e-3
        assert res["satisfied"] is True
        assert res["sigma_distance"] > 3
        assert "uncertainty_note" in res

    @pytest.mark.parametrize("seed", [7, 8])
    @pytest.mark.parametrize("var_x, var_p", [(0.6, 2.5), (1.2, 4.0), (2.0, 6.0)])
    def test_from_scans_separable_source_fails(self, capsys, tmp_path, var_x, var_p, seed):
        """Sources calibrated to separable variances fail the witness end to end."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"source.target_var_x_mm2 = {var_x}\nsource.target_var_p_hbar2_mm2 = {var_p}\n")
        code, report, _ = run_cli(
            ["epr-check", "--from-scans", "--seed", str(seed), "--config", str(cfg)], capsys
        )
        assert code == 0
        res = report["results"]
        assert res["satisfied"] is False
        assert res["sigma_distance"] < -3

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
        # With one pair per point no count exceeds 1, so every seed's scans are flat.
        code, report, err = run_cli(["epr-check", "--from-scans", "--pairs", "1"], capsys)
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert err.strip() == (
            "error: --from-scans: the Ax1 scan is flat at --pairs 1; no width to convert"
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
        (["--var-x", "1e300", "1e300", "--var-p", "1e300", "1e300", "--unc-x", "1", "1",
          "--unc-p", "1", "1"], "product is inf"),
        (["--var-x", "0.1", "0.1", "--var-p", "0.9", "0.9", "--unc-x", "1e200", "1e200",
          "--unc-p", "1", "1"], "product_uncertainty is inf"),
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

    def test_fit_reports_match_from_scans(self, capsys, monkeypatch, tmp_path):
        """--fits converts each scan-written width and sd(sigma) exactly as --from-scans does."""
        from eprqkd.defaults import default_setup
        from eprqkd.detection import conversion_for

        duan_check, checked = analysis.duan_check, []

        def recording_check(*lists):
            checked.append(lists)
            return duan_check(*lists)

        monkeypatch.setattr(analysis, "duan_check", recording_check)
        paths, var, unc = [], {"x": [], "p": []}, {"x": [], "p": []}
        _, _, bob = default_setup()
        for basis in "xp":
            for det in (1, 2):
                out = tmp_path / f"A{basis}{det}.json"
                code, report, _ = run_cli(
                    ["scan", "--fixed", f"A{basis}{det}", "--bases", basis * 2,
                     "--grid", "0:3:0.1", "--pairs", "100000", "--seed", "7", "--out", str(out)],
                    capsys,
                )
                assert code == 0
                paths.append(str(out))
                fit, scale = report["results"]["fit"], conversion_for(bob, basis)
                var[basis].append((scale * fit["sigma_mm"]) ** 2)
                unc[basis].append(
                    2 * scale**2 * fit["sigma_mm"] * math.sqrt(fit["covariance"][2][2])
                )
        code, report, _ = run_cli(["epr-check", "--fits", *paths], capsys)
        assert code == 0
        assert checked[-1] == (var["x"], var["p"], unc["x"], unc["p"])
        res, hand = report["results"], duan_check(var["x"], var["p"], unc["x"], unc["p"])
        assert res["product_uncertainty_hbar2"] is not None
        assert res["product_uncertainty_hbar2"] == hand.product_uncertainty
        assert res["sigma_distance"] == hand.sigma_distance

        # Ax1 is the first scan --from-scans draws from the same seed.
        code, _, _ = run_cli(
            ["epr-check", "--from-scans", "--pairs", "100000", "--seed", "7"], capsys
        )
        assert code == 0
        var_x, _, unc_x, _ = checked[-1]
        assert var_x[0] == var["x"][0] == 0.1109557814663368
        assert unc_x[0] == unc["x"][0]

    @pytest.mark.parametrize("covariance", ["absent", "null", "one-null"])
    def test_fit_reports_without_covariance_give_no_uncertainty(
        self, capsys, tmp_path, covariance
    ):
        paths = []
        for i, (pair, sigma) in enumerate((("xx", 0.31), ("xx", 0.29), ("pp", 0.27), ("pp", 0.26))):
            fit = {"sigma_mm": sigma}
            if covariance == "null" or (covariance == "one-null" and i == 2):
                fit["covariance"] = None
            elif covariance == "one-null":
                fit["covariance"] = [[0.0] * 4, [0.0] * 4, [0.0, 0.0, 1e-6, 0.0], [0.0] * 4]
            path = tmp_path / f"{pair}_{i}.json"
            path.write_text(json.dumps({"results": {"basis_pair": pair, "fit": fit}}))
            paths.append(str(path))
        code, report, _ = run_cli(["epr-check", "--fits", *paths], capsys)
        assert code == 0
        res = report["results"]
        assert res["product_uncertainty_hbar2"] is None and res["sigma_distance"] is None
        alpha, k_over_f = 200.0 / (2 * 100.0), 330.0 / 150.0  # the default optics
        assert res["var_x_mm2"] == [(alpha * 0.31) ** 2, (alpha * 0.29) ** 2]
        assert res["var_p_hbar2_per_mm2"] == [(k_over_f * 0.27) ** 2, (k_over_f * 0.26) ** 2]

    @pytest.mark.parametrize("covariance", [
        "[[1.0]]", "[[0, 0, 0], [0, 0, 0], [0, 0]]", "[[0, 0, 0], [0, 0, 0], [0, 0, null]]",
        "3.0", '"wide"', '{"2": {"2": 1e-6}}',
        "[[0, 0, 0], [0, 0, 0], [0, 0, true]]", '[[0, 0, 0], [0, 0, 0], [0, 0, "1e-6"]]',
        "[[0, 0, 0], [0, 0, 0], [0, 0, NaN]]", "[[0, 0, 0], [0, 0, 0], [0, 0, Infinity]]",
        "[[0, 0, 0], [0, 0, 0], [0, 0, -1e-6]]",
    ], ids=["short", "short-row", "null-entry", "number", "string", "object",
            "bool", "string-entry", "nan", "infinite", "negative"])
    def test_invalid_fit_covariance_names_file_and_field(self, capsys, tmp_path, covariance):
        out = tmp_path / "bad_covariance.json"
        out.write_text(
            f'{{"results": {{"basis_pair": "xx", "fit": {{"sigma_mm": 0.3, "covariance": {covariance}}}}}}}'
        )
        code, report, err = run_cli(
            ["epr-check", "--fits", str(out), str(out), str(out), str(out)], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert str(out) in err and "fit.covariance" in err, err

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
        paths = []
        for i in range(4):
            out = tmp_path / f"flat_xx_{i}.json"
            out.write_text(json.dumps(
                {"command": "scan", "results": {"basis_pair": "xx", "flat": True,
                                                "fit": {"sigma_mm": None, "flat": True}}}
            ))
            paths.append(str(out))
        code, report, err = run_cli(["epr-check", "--fits", *paths], capsys)
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert "scan is flat; no width to convert" in err

    @pytest.mark.parametrize("pairs, counts", [(("xx",) * 3 + ("pp",), "3 xx / 1 pp"),
                                               (("xx",) + ("pp",) * 3, "1 xx / 3 pp")])
    def test_fit_reports_need_two_of_each_basis(self, capsys, tmp_path, pairs, counts):
        paths = _fit_reports(tmp_path, [(pair, 0.3 + i / 100) for i, pair in enumerate(pairs)])
        code, report, err = run_cli(["epr-check", "--fits", *paths], capsys)
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert err == f"error: need two xx and two pp fit reports, got {counts}\n", err

    @pytest.mark.parametrize("spelling", ["same", "relative"])
    def test_repeated_fit_report_rejected(self, capsys, monkeypatch, tmp_path, spelling):
        """One scan is not two measurements: a path given twice exits 2 and names it."""
        monkeypatch.chdir(tmp_path)
        paths = _fit_reports(tmp_path, (("xx", 0.31), ("xx", 0.29), ("pp", 0.27), ("pp", 0.26)))
        repeat = paths[0] if spelling == "same" else f"./{Path(paths[0]).name}"
        code, report, err = run_cli(["epr-check", "--fits", paths[0], repeat, *paths[2:]], capsys)
        assert code == cli.EXIT_VALIDATION
        assert report is None
        assert err.startswith(f"error: {repeat}: already given as {paths[0]}"), err

    def test_fits_read_only_b_station(self, capsys, monkeypatch, tmp_path):
        """--fits converts widths with B's optics and never calibrates a source,
        so slits too wide to calibrate on still give a witness."""
        from eprqkd import detection

        def no_calibration(*args, **kwargs):
            raise AssertionError("--fits must not calibrate a source")

        monkeypatch.setattr(detection, "calibrate_source", no_calibration)
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("station.x_slit_width_mm = 1.5\nstation.detector2_mm = 4.0\n")
        paths = _fit_reports(tmp_path, (("xx", 0.31), ("xx", 0.29), ("pp", 0.27), ("pp", 0.26)))
        code, report, err = run_cli(["epr-check", "--fits", *paths, "--config", str(cfg)], capsys)
        assert code == 0, err
        res = report["results"]
        alpha, k_over_f = 200.0 / (2 * 100.0), 330.0 / 150.0  # the default optics
        assert res["var_x_mm2"] == [(alpha * 0.31) ** 2, (alpha * 0.29) ** 2]
        assert res["var_p_hbar2_per_mm2"] == [(k_over_f * 0.27) ** 2, (k_over_f * 0.26) ** 2]

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

    def test_unreadable_fit_report_names_path(self, capsys, tmp_path):
        dirs = [tmp_path / name for name in "abcd"]
        for path in dirs:
            path.mkdir()
        code, report, err = run_cli(["epr-check", "--fits", *map(str, dirs)], capsys)
        assert code == cli.EXIT_VALIDATION and report is None
        assert str(dirs[0]) in err

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


# Two xx and two pp widths: the fit reports a --fits witness needs.
FOUR_FITS = (("xx", 0.31), ("xx", 0.29), ("pp", 0.27), ("pp", 0.26))


def _fit_reports(tmp_path, fits, sd_sigma=None):
    """Minimal saved scan reports, one per (basis pair, width), with no covariance
    unless sd_sigma is given: then the covariance holds sd_sigma^2 at [2][2] alone."""
    paths = []
    for i, (pair, sigma) in enumerate(fits):
        fit = {"sigma_mm": sigma}
        if sd_sigma is not None:
            fit["covariance"] = [[sd_sigma**2 if r == c == 2 else 0.0 for c in range(4)] for r in range(4)]
        path = tmp_path / f"{pair}_{i}.json"
        path.write_text(json.dumps({"results": {"basis_pair": pair, "fit": fit}}))
        paths.append(str(path))
    return paths


def test_report_shape(capsys):
    code, report, _ = run_cli(["qber", "table1.csv"], capsys)
    assert set(report) == {"command", "args", "config", "seed", "results", "duration_s"}
    assert report["command"] == "qber"


def _strict_report(capsys) -> dict:
    """The printed report, parsed as strict JSON: NaN and Infinity are refused."""
    def refuse(constant):
        raise AssertionError(f"the report prints {constant}")

    return json.loads(capsys.readouterr().out, parse_constant=refuse)


def _rerun_argv(report, run_file) -> list[str]:
    """A report's run as argv: its command, every flag in args and its seed, with
    its config written to run_file as the run file."""
    args = dict(report["args"], seed=report["seed"])
    argv = [report["command"], *([args.pop("table")] if "table" in args else [])]
    if report["config"] is not None:
        run_file.write_text("".join(f"{key} = {value}\n" for key, value in report["config"].items()))
        args["config"] = str(run_file)
    for name, value in args.items():
        flag = "--" + name.replace("_", "-")
        if isinstance(value, list):
            argv += [flag, *map(str, value)]
        elif value is True:
            argv.append(flag)
        elif value not in (None, False):
            argv.append(f"{flag}={value}")
    return argv


RUN_FILE = (
    "session.coincidences = 2000\nsession.estimation_pairs = 200\nstation.p_slit_width_mm = 0.45\n"
)
PATH_KEYS = ("alice_key_path", "bob_key_path", "table_path", "scan_csv")


@pytest.mark.parametrize("argv, run_file, outputs", [
    (["qber", "table1.csv"], None, []),
    (["eve-predict", "table1.csv", "--p", "0.4", "--p2", "0.25"], None, []),
    (["simulate", "--seed", "7"], RUN_FILE, ["--out-dir", "{out}"]),
    (["simulate"], RUN_FILE + "attack.policy = always_p\n", ["--out-dir", "{out}"]),
    (["scan", "--fixed", "Ap1", "--bases", "pp", "--grid=-1:4:0.25", "--pairs", "20000",
      "--seed", "3"], None, ["--out-csv", "{out}/scan.csv"]),
    (["epr-check", "--from-scans", "--pairs", "20000", "--seed", "5"], None, []),
    (["epr-check", "--fits", "{fits}"], "station.image_distance_mm = 120\n", []),
    (["epr-check", "--var-x", "0.15", "0.08", "--var-p", "0.9", "0.88", "--unc-x", "0.003",
      "0.002", "--unc-p", "0.02", "0.09"], None, []),
    (["epr-check"], None, []),
], ids=["qber", "eve-predict", "simulate", "simulate-always_p", "scan", "epr-check-from-scans",
        "epr-check-fits", "epr-check-variances", "epr-check-reference"])
def test_report_reruns_its_run(capsys, tmp_path, argv, run_file, outputs):
    """A report's command, args and seed, with its config written back as the run
    file, rerun the same results and files, and every report is strict JSON."""
    fits = _fit_reports(tmp_path, FOUR_FITS)
    argv = [part for arg in argv for part in (fits if arg == "{fits}" else [arg])]
    if run_file is not None:
        (tmp_path / "given.cfg").write_text(run_file)
        argv += ["--config", str(tmp_path / "given.cfg")]
    reports, written = [], []
    for run in ("first", "rerun"):
        out = tmp_path / run
        out.mkdir()
        if run == "rerun":
            argv = _rerun_argv(reports[0], tmp_path / "rerun.cfg")
        code = cli.main(argv + [o.format(out=out) for o in outputs])
        assert code == (cli.EXIT_ABORTED if "always_p" in str(run_file) else cli.EXIT_OK)
        reports.append(_strict_report(capsys))
        written.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))})
    first, rerun = ({k: v for k, v in r["results"].items() if k not in PATH_KEYS} for r in reports)
    assert json.dumps(rerun) == json.dumps(first)
    assert reports[1]["config"] == reports[0]["config"]
    assert written[1] == written[0] and bool(written[0]) == bool(outputs)



def test_report_config_is_the_resolved_run_file(capsys, tmp_path):
    """config holds every key of the config table, the run file's strings
    where it sets them and the defaults elsewhere, and no retired key."""
    from eprqkd.defaults import parse_config_file

    cfg = tmp_path / "run.cfg"
    cfg.write_text("station.image_distance_mm = 120\n")
    code, report, err = run_cli(
        [*FITS, *_fit_reports(tmp_path, FOUR_FITS), "--config", str(cfg)], capsys
    )
    assert code == cli.EXIT_OK, err
    assert report["config"] == parse_config_file(str(cfg))
    assert report["config"]["station.image_distance_mm"] == "120"
    assert list(report["config"]) == list(parse_config_file(None))
    assert "source.pump_waist_mm" not in report["config"]

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
    four saved scan reports that epr-check --fits reads are written by hand,
    with a covariance so that the sd(sigma) conversion runs too.
    """
    fits = []
    for basis, sigma in (("xx", 0.31), ("xx", 0.29), ("pp", 0.27), ("pp", 0.26)):
        path = tmp_path / f"{basis}_{len(fits)}.json"
        covariance = [[0.0] * 4, [0.0] * 4, [0.0, 0.0, 4e-6, 0.0], [0.0] * 4]
        fit = {"sigma_mm": sigma, "covariance": covariance}
        path.write_text(json.dumps({"results": {"basis_pair": basis, "fit": fit}}))
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
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n"
        "# The last command is epr-check --fits.\n"
        "assert json.loads(out.getvalue())['results']['product_uncertainty_hbar2'] > 0\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")], ids=["unset", "preset"])
def test_main_pins_openblas_threads_unless_set(tmp_path, preset, expected):
    """cli.main sets OPENBLAS_NUM_THREADS to 1 before a command imports numpy; a set value wins.

    A subprocess, because this test process has numpy loaded already.
    """
    config = tmp_path / "run.cfg"
    config.write_text("session.coincidences = 2000\nsession.estimation_pairs = 200\n")
    code = (
        "import contextlib, io, os, sys\n"
        "from eprqkd import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['simulate', '--config', sys.argv[1], '--out-dir', sys.argv[2]])\n"
        "assert code == 0, code\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", code, str(config), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


TABLE_ROUTE = {"eprqkd", "eprqkd.cli", "eprqkd.defaults", "eprqkd.source", "eprqkd.tables"}


def _main(*args: str) -> str:
    """A statement running cli.main on args, each a Python expression."""
    return f"from eprqkd import cli; assert cli.main([{', '.join(args)}]) == 0"


@pytest.mark.parametrize("statement, expected, hashlib", [
    ("import eprqkd", {"eprqkd"}, None),
    ("import eprqkd; eprqkd.default_setup()",
     {"eprqkd", "eprqkd.defaults", "eprqkd.detection", "eprqkd.source"}, None),
    (_main("'qber'", "'table1.csv'"), TABLE_ROUTE, None),
    (_main("'qber'", "sys.argv[1]"), TABLE_ROUTE, False),
    (_main("'eve-predict'", "'table1.csv'", "'--p'", "'0.5'"), TABLE_ROUTE, None),
    (_main("'epr-check'"), TABLE_ROUTE | {"eprqkd.analysis"}, None),
    (_main(*map(repr, ["epr-check", "--var-x", "0.15", "0.08", "--var-p", "0.91", "0.88"])),
     TABLE_ROUTE | {"eprqkd.analysis"}, False),
    (_main("'simulate'", "'--config'", "sys.argv[2]", "'--out-dir'", "sys.argv[3]"),
     TABLE_ROUTE | {"eprqkd.detection", "eprqkd.protocol"}, None),
    (_main(*map(repr, ["scan", "--fixed", "Ax1", "--bases", "xp", "--grid", "1:2:0.1",
                       "--pairs", "20000"])),
     TABLE_ROUTE | {"eprqkd.detection", "eprqkd.analysis"}, None),
    (_main(*map(repr, ["epr-check", "--from-scans", "--pairs", "20000"])),
     TABLE_ROUTE | {"eprqkd.detection", "eprqkd.analysis"}, None),
    (_main("'epr-check'", "'--fits'", "*sys.argv[4:]", "'--config'", "sys.argv[2]"),
     TABLE_ROUTE | {"eprqkd.detection", "eprqkd.analysis"}, False),
], ids=["import", "default_setup", "qber", "qber-no-sidecar", "eve-predict",
        "epr-check-reference", "epr-check-variances", "simulate", "scan", "epr-check-from-scans",
        "epr-check-fits"])
def test_each_route_loads_only_its_modules(tmp_path, statement, expected, hashlib):
    """A cold command compiles every module it imports, so each loads only its layers.

    A fresh process per case: this one has loaded every module already.
    sys.argv[1] is a copy of the bundled table without its .sha256 sidecar,
    sys.argv[2] a 2,000-coincidence run file, sys.argv[3] simulate's
    output directory and sys.argv[4:] four saved fit reports; hashlib is
    False where no sidecar needs it.  Only simulate loads protocol, which
    imports numpy on load, and no route loads concurrent.futures.
    """
    table = tmp_path / "table1.csv"
    shutil.copy(BUNDLED, table)
    run_file = tmp_path / "run.cfg"
    run_file.write_text("session.coincidences = 2000\nsession.estimation_pairs = 200\n")
    fits = _fit_reports(tmp_path, FOUR_FITS)
    code = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {statement}\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'eprqkd')\n"
        "print(json.dumps([loaded, 'hashlib' in sys.modules, 'concurrent.futures' in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(table), str(run_file), str(tmp_path / "out"), *fits],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, hashlib_loaded, pool_loaded = json.loads(proc.stdout)
    assert set(loaded) == expected
    assert not pool_loaded  # no command starts a thread pool
    if hashlib is not None:
        assert hashlib_loaded == hashlib


def test_star_import_binds_every_public_name():
    code = (
        "import eprqkd\n"
        "namespace = {}\n"
        "exec('from eprqkd import *', namespace)\n"
        "assert sorted(set(namespace) - {'__builtins__'}) == sorted(eprqkd.__all__)\n"
        "assert all(namespace[name] is getattr(eprqkd, name) for name in eprqkd.__all__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
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


def test_closed_stdout_ends_quietly(tmp_path):
    """A reader that closes stdout early (``| head -1``) gets no traceback:
    the command exits with its own code and its --out report is complete."""
    report = tmp_path / "report.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "eprqkd.cli", "qber", "table1.csv", "--out", str(report)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(report.read_text())["command"] == "qber"
