"""Command-line front end.

Subcommands:

    qber        error rates of a 4x4 coincidence table (CSV)
    eve-predict intercept-resend error-rate prediction from a table
    simulate    run a full key-distribution session, write keys and table
    scan        Monte Carlo coincidence scan plus peak fit
    epr-check   variance-product entanglement witness

Every command prints a JSON report and is bit-reproducible for a fixed seed.
Runs are configured by a flat key-value file with dotted section names
(``source.sigma_plus_mm = 1.8``); any key omitted falls back to the bundled
default experiment.  The environment variable EPRQKD_SEED overrides the
default seed when neither the command line nor the config file set one.

Exit codes: 0 success, 2 validation error, 3 runtime/convergence error,
4 session aborted on an eavesdropping alarm (simulate only).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis, defaults, detection, protocol, source as source_mod
from .adversary import AttackConfig

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_ABORTED = 4

SEED_ENV_VAR = "EPRQKD_SEED"
DEFAULT_SEED = 42
FROM_SCANS_PAIRS = 200_000


class ConfigError(ValueError):
    pass


class FixtureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

_CONFIG_DEFAULTS = {
    "source.calibrate": "true",
    "source.target_var_x_mm2": repr(defaults.TARGET_VAR_X_MM2),
    "source.target_var_p_hbar2_mm2": repr(defaults.TARGET_VAR_P_HBAR2_MM2),
    "source.sigma_minus_mm": "",  # used when calibrate = false
    "source.kappa_minus_per_mm": "",
    "source.sigma_plus_mm": repr(defaults.SIGMA_PLUS_MM),
    "source.kappa_plus_per_mm": repr(defaults.KAPPA_PLUS_PER_MM),
    "source.pump_waist_mm": repr(defaults.PUMP_WAIST_MM),
    "station.object_distance_mm": repr(defaults.OBJECT_DISTANCE_MM),
    "station.image_distance_mm": repr(defaults.IMAGE_DISTANCE_MM),
    "station.focal_length_mm": repr(defaults.FOCAL_LENGTH_MM),
    "station.wavenumber_per_mm": repr(defaults.WAVENUMBER_PER_MM),
    "station.origin_mm": repr(defaults.STAGE_ORIGIN_MM),
    "station.x_slit_width_mm": repr(defaults.X_SLIT_WIDTH_MM),
    "station.p_slit_width_mm": repr(defaults.P_SLIT_WIDTH_MM),
    "station.detector1_mm": repr(defaults.DETECTOR_1_MM),
    "station.detector2_mm": repr(defaults.DETECTOR_2_MM),
    "station.equalize": "true",
    "session.coincidences": "100000",
    "session.estimation_pairs": "10000",
    "session.qber_threshold": repr(defaults.QBER_THRESHOLD),
    "session.max_emitted": "",  # pair-emission guard; default 10^4 * N
    "session.seed": "",
    "attack.policy": "none",
    "attack.p_same": "1.0",
    "attack.p_cross_1": "0.5",
    "attack.p_cross_2": "0.5",
    "output.alice_key": "alice_key.txt",
    "output.bob_key": "bob_key.txt",
    "output.table": "session_table.csv",
}


def parse_config_file(path: str | None) -> dict[str, str]:
    """Flat ``key = value`` lines with # comments; unknown keys are rejected."""
    cfg = dict(_CONFIG_DEFAULTS)
    if path is None:
        return cfg
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in cfg:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg[key] = value
    return cfg


def config_hash(cfg: dict[str, str]) -> str:
    canon = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _as_float(cfg, key) -> float:
    try:
        value = float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key} must be a number, got {cfg[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"config key {key} must be finite, got {cfg[key]!r}")
    return value


def _as_int(cfg, key) -> int:
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key} must be an integer, got {cfg[key]!r}") from exc


def _as_bool(cfg, key) -> bool:
    value = cfg[key].lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ConfigError(f"config key {key} must be true/false, got {cfg[key]!r}")


def build_setup(cfg: dict[str, str]):
    """Source plus both stations from a parsed config."""
    def slits(width_key):
        width = _as_float(cfg, width_key)
        return (
            detection.SlitDetector(_as_float(cfg, "station.detector1_mm"), width, 0),
            detection.SlitDetector(_as_float(cfg, "station.detector2_mm"), width, 1),
        )

    bob = detection.StationConfig(
        object_distance=_as_float(cfg, "station.object_distance_mm"),
        image_distance=_as_float(cfg, "station.image_distance_mm"),
        focal_length=_as_float(cfg, "station.focal_length_mm"),
        wavenumber=_as_float(cfg, "station.wavenumber_per_mm"),
        x_detectors=slits("station.x_slit_width_mm"),
        p_detectors=slits("station.p_slit_width_mm"),
        origin=_as_float(cfg, "station.origin_mm"),
    )

    pump = source_mod.PumpProfile(_as_float(cfg, "source.pump_waist_mm"))
    if _as_bool(cfg, "source.calibrate"):
        src = source_mod.calibrate_source(
            _as_float(cfg, "source.target_var_x_mm2"),
            _as_float(cfg, "source.target_var_p_hbar2_mm2"),
            bob,
            bob,
            sigma_plus=_as_float(cfg, "source.sigma_plus_mm"),
            kappa_plus=_as_float(cfg, "source.kappa_plus_per_mm"),
            pump=pump,
        )
    else:
        if not cfg["source.sigma_minus_mm"] or not cfg["source.kappa_minus_per_mm"]:
            raise ConfigError(
                "source.calibrate = false requires source.sigma_minus_mm and "
                "source.kappa_minus_per_mm"
            )
        src = source_mod.build_source(
            _as_float(cfg, "source.sigma_minus_mm"),
            _as_float(cfg, "source.sigma_plus_mm"),
            _as_float(cfg, "source.kappa_minus_per_mm"),
            _as_float(cfg, "source.kappa_plus_per_mm"),
            pump,
        )
    return defaults.assemble_setup(src, bob, _as_bool(cfg, "station.equalize"))


def build_attack(cfg: dict[str, str]) -> AttackConfig | None:
    policy = cfg["attack.policy"]
    if policy == "none":
        return None
    return AttackConfig(
        basis_policy=policy,
        p_same_basis_correct=_as_float(cfg, "attack.p_same"),
        p_cross_basis=(_as_float(cfg, "attack.p_cross_1"), _as_float(cfg, "attack.p_cross_2")),
    )


def resolve_seed(cli_seed: int | None, cfg: dict[str, str] | None) -> int:
    """Seed from --seed, else session.seed, else EPRQKD_SEED, else the default."""
    if cli_seed is not None:
        origin, raw = "--seed", cli_seed
    elif cfg is not None and cfg.get("session.seed"):
        origin, raw = "session.seed", cfg["session.seed"]
    elif os.environ.get(SEED_ENV_VAR):
        origin, raw = SEED_ENV_VAR, os.environ[SEED_ENV_VAR]
    else:
        return DEFAULT_SEED
    try:
        seed = int(raw)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise ConfigError(f"{origin} must be a non-negative integer, got {raw!r}")
    return seed


# ---------------------------------------------------------------------------
# Fixtures and IO
# ---------------------------------------------------------------------------


def resolve_table_path(name: str) -> Path:
    """Existing path as given, else the packaged data file of that name."""
    path = Path(name)
    if path.exists():
        return path
    packaged = resources.files("eprqkd").joinpath("data", path.name)
    if packaged.is_file():
        return Path(str(packaged))
    raise FileNotFoundError(f"coincidence table {name!r} not found")


def verify_checksum(path: Path, skip: bool) -> None:
    """Refuse a fixture whose sibling .sha256 no longer matches."""
    if skip:
        return
    sidecar = Path(str(path) + ".sha256")
    if not sidecar.exists():
        return
    expected = sidecar.read_text().strip().split()[0]
    actual = hashlib.sha256(path.read_bytes()).hexdigest()
    if actual != expected:
        raise FixtureError(
            f"{path} does not match its recorded checksum; pass --no-verify to force"
        )


def atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _check_out_path(flag: str, path: str | None) -> None:
    """Reject an output path in a missing directory or naming a directory, before setup."""
    if not path:
        return
    target = Path(path)
    if not target.parent.is_dir():
        raise ConfigError(f"{flag}: directory {str(target.parent)!r} does not exist")
    if target.is_dir():
        raise ConfigError(f"{flag}: {path!r} is a directory")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def make_report(command: str, args: dict, seed, cfg, results: dict, started: float) -> dict:
    return {
        "command": command,
        "args": args,
        "config_hash": config_hash(cfg) if cfg is not None else None,
        "seed": seed,
        "results": results,
        "duration_s": round(time.perf_counter() - started, 6),
    }


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=False)
    if out_path:
        atomic_write(Path(out_path), text + "\n")
    print(text)


def _qber_results(report: protocol.QberReport) -> dict:
    out = {
        "qber": report.qber,
        "qber_uncertainty": report.uncertainty,
        "wrong_counts": report.p_wrong,
        "right_counts": report.p_right,
    }
    if report.qber_xx is not None:
        out["qber_xx"] = report.qber_xx
    if report.qber_pp is not None:
        out["qber_pp"] = report.qber_pp
    if report.chi is not None:
        out["chi_counts"] = report.chi
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_qber(args) -> tuple[int, dict]:
    started = time.perf_counter()
    _check_out_path("--out", args.out)
    path = resolve_table_path(args.table)
    verify_checksum(path, args.no_verify)
    table = protocol.CoincidenceTable.load_csv(path)
    rep = protocol.qber_from_counts(table)
    results = _qber_results(rep)
    results["table_path"] = str(path)
    report = make_report("qber", {"table": args.table}, None, None, results, started)
    _emit(report, args.out)
    return EXIT_OK, report


def cmd_eve_predict(args) -> tuple[int, dict]:
    started = time.perf_counter()
    _check_out_path("--out", args.out)
    path = resolve_table_path(args.table)
    verify_checksum(path, args.no_verify)
    table = protocol.CoincidenceTable.load_csv(path)
    p_resend = (args.p, args.p if args.p2 is None else args.p2)
    rep = protocol.qber_with_eve_prediction(table, p_resend=p_resend)
    results = _qber_results(rep)
    results["p_resend"] = list(p_resend)
    results["table_path"] = str(path)
    report = make_report(
        "eve-predict", {"table": args.table, "p": args.p, "p2": args.p2},
        None, None, results, started,
    )
    _emit(report, args.out)
    return EXIT_OK, report


def cmd_simulate(args) -> tuple[int, dict]:
    started = time.perf_counter()
    _check_out_path("--out", args.out)
    cfg = parse_config_file(args.config)
    seed = resolve_seed(args.seed, cfg)
    attack = build_attack(cfg)
    session = protocol.SessionConfig(
        n_coincidences=_as_int(cfg, "session.coincidences"),
        m_estimation=_as_int(cfg, "session.estimation_pairs"),
        qber_threshold=_as_float(cfg, "session.qber_threshold"),
        rng_seed=seed,
        max_emitted=_as_int(cfg, "session.max_emitted")
        if cfg["session.max_emitted"] else None,
    )
    src, alice, bob = build_setup(cfg)
    result = protocol.run_session(src, alice, bob, session, attack=attack)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    key_a = out_dir / cfg["output.alice_key"]
    key_b = out_dir / cfg["output.bob_key"]
    table_path = out_dir / cfg["output.table"]
    atomic_write(key_a, result.sifted_bits_A + "\n")
    atomic_write(key_b, result.sifted_bits_B + "\n")
    tmp_table = table_path.with_name(table_path.name + ".tmp")
    result.table.save_csv(tmp_table)
    os.replace(tmp_table, table_path)

    results = {
        "qber_estimate": result.estimate.qber,
        "qber_estimate_uncertainty": result.estimate.uncertainty,
        "qber_xx": result.estimate.qber_xx,
        "qber_pp": result.estimate.qber_pp,
        "aborted": result.aborted,
        "key_bits": len(result.sifted_bits_A),
        "coincidences": session.n_coincidences,
        "emitted_pairs": result.emitted_pairs,
        "attack_policy": cfg["attack.policy"],
        "alice_key_path": str(key_a),
        "bob_key_path": str(key_b),
        "table_path": str(table_path),
    }
    report = make_report("simulate", {"config": args.config}, seed, cfg, results, started)
    _emit(report, args.out)
    return (EXIT_ABORTED if result.aborted else EXIT_OK), report


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(part) for part in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"--grid must be start:stop:step, got {spec!r}") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"--grid start, stop and step must be finite, got {spec!r}")
    if step <= 0 or stop <= start:
        raise ConfigError(f"--grid must be increasing with positive step, got {spec!r}")
    return np.arange(start, stop + step / 2.0, step)


def _check_pairs(pairs: int) -> None:
    if pairs <= 0:
        raise ConfigError(f"--pairs must be positive, got {pairs}")


def cmd_scan(args) -> tuple[int, dict]:
    started = time.perf_counter()
    if len(args.bases) != 2 or any(b not in "xp" for b in args.bases):
        raise ConfigError(f"--bases must be two of x/p (e.g. xx, xp), got {args.bases!r}")
    basis_pair = (args.bases[0], args.bases[1])
    allowed = (f"A{basis_pair[0]}1", f"A{basis_pair[0]}2")
    if args.fixed not in allowed:
        raise ConfigError(
            f"--fixed must be {allowed[0]} or {allowed[1]} for --bases {args.bases}, "
            f"got {args.fixed!r}"
        )
    grid = _parse_grid(args.grid)
    _check_pairs(args.pairs)
    _check_out_path("--out-csv", args.out_csv)
    _check_out_path("--out", args.out)
    cfg = parse_config_file(args.config)
    seed = resolve_seed(args.seed, cfg)
    src, alice, bob = build_setup(cfg)
    rng = np.random.default_rng(seed)
    scan = analysis.scan_simulation(
        src, alice, bob, args.fixed, basis_pair, grid, args.pairs, rng
    )
    fit = analysis.fit_gaussian(scan)

    if args.out_csv:
        tmp = Path(args.out_csv + ".tmp")
        scan.save_csv(tmp)
        os.replace(tmp, Path(args.out_csv))

    fit_fields = {
        "amplitude_counts": fit.amplitude,
        "center_mm": fit.center,
        "sigma_mm": fit.sigma,
        "offset_counts": fit.offset,
        "chi_square": fit.chi_square,
        "flat": fit.flat,
        "covariance": fit.covariance,
    }
    results = {
        "fixed_detector": args.fixed,
        "basis_pair": "".join(basis_pair),
        "points": len(scan.positions),
        "pairs_per_point": args.pairs,
        "max_min_ratio": scan.max_min_ratio(),
        "flat": fit.flat,
        "fit": fit_fields,
        "scan_csv": args.out_csv,
    }
    report = make_report(
        "scan",
        {"config": args.config, "fixed": args.fixed, "bases": args.bases, "grid": args.grid},
        seed, cfg, results, started,
    )
    _emit(report, args.out)
    return EXIT_OK, report


def _epr_results(
    check: analysis.EprCheckResult, note: str | None = None, labeled: bool = False
) -> dict:
    out = {
        "var_x_mm2": list(check.var_x_list),
        "var_p_hbar2_per_mm2": list(check.var_p_list),
        "product_hbar2": check.product,
        "bound_hbar2": check.bound,
        "satisfied": check.satisfied,
        "sigma_distance": check.sigma_distance,
        "product_uncertainty_hbar2": check.product_uncertainty,
    }
    if labeled:
        out["var_x_labels"] = list(defaults.REFERENCE_VAR_X_LABELS)
        out["var_p_labels"] = list(defaults.REFERENCE_VAR_P_LABELS)
    if note:
        out["uncertainty_note"] = note
    return out


def _variances_from_fit_reports(paths, station) -> tuple[list, list]:
    """Pull conditional variances out of saved scan reports (2 xx + 2 pp)."""
    var_x, var_p = [], []
    for path in paths:
        try:
            data = json.loads(Path(path).read_text())
        except ValueError as exc:
            raise ConfigError(f"{path}: not a JSON scan report: {exc}") from exc
        results = data.get("results", data) if isinstance(data, dict) else None
        fit = results.get("fit") if isinstance(results, dict) else None
        if not isinstance(fit, dict):
            raise ConfigError(f"{path}: not a scan report: need an object with a 'fit' object")
        pair = results.get("basis_pair")
        sigma = fit.get("sigma_mm")
        if pair not in ("xx", "pp"):
            raise ConfigError(f"{path}: need a same-basis scan report, got {pair!r}")
        if sigma is None:
            raise ConfigError(f"{path}: scan is flat; no width to convert")
        if not isinstance(sigma, (int, float)):
            raise ConfigError(f"{path}: fit.sigma_mm must be a number, got {sigma!r}")
        basis = pair[0]
        variance = (detection.conversion_for(station, basis) * sigma) ** 2
        (var_x if basis == "x" else var_p).append(variance)
    if len(var_x) != 2 or len(var_p) != 2:
        raise ConfigError(
            f"need two xx and two pp fit reports, got {len(var_x)} xx / {len(var_p)} pp"
        )
    return var_x, var_p


def _check_epr_flags(args) -> None:
    """Reject the epr-check flags that the chosen route would ignore."""
    names = ("var_x", "var_p", "unc_x", "unc_p")
    given = ["--" + n.replace("_", "-") for n in names if getattr(args, n) is not None]
    routes = [flag for flag, on in (("--fits", args.fits), ("--from-scans", args.from_scans)) if on]
    if len(routes) == 2:
        raise ConfigError("--fits and --from-scans cannot be combined")
    if routes and given:
        raise ConfigError(f"{given[0]} cannot be combined with {routes[0]}")
    if given and given[:2] != ["--var-x", "--var-p"]:
        missing = " and ".join(f for f in ("--var-x", "--var-p") if f not in given)
        raise ConfigError(f"{given[0]} requires {missing}")
    route = routes[0] if routes else "the variance route (no --fits or --from-scans)"
    unused = {"--from-scans": (), "--fits": ("seed", "pairs")}.get(route, ("config", "seed", "pairs"))
    for name in unused:
        if getattr(args, name) is not None:
            raise ConfigError(f"--{name} is not used by {route}")


def cmd_epr_check(args) -> tuple[int, dict]:
    started = time.perf_counter()
    _check_epr_flags(args)
    _check_out_path("--out", args.out)
    note = None
    labeled = False
    if args.fits:
        cfg = parse_config_file(args.config)
        seed = None
        _, _, bob = build_setup(cfg)
        var_x, var_p = _variances_from_fit_reports(args.fits, bob)
        unc_x = unc_p = None
    elif args.from_scans:
        pairs = FROM_SCANS_PAIRS if args.pairs is None else args.pairs
        _check_pairs(pairs)
        cfg = parse_config_file(args.config)
        seed = resolve_seed(args.seed, cfg)
        src, alice, bob = build_setup(cfg)
        rng = np.random.default_rng(seed)
        grid = np.arange(0.0, 3.0001, 0.1)
        var_x, var_p = [], []
        for basis, var_list in (("x", var_x), ("p", var_p)):
            for det in (1, 2):
                scan = analysis.scan_simulation(
                    src, alice, bob, f"A{basis}{det}", (basis, basis), grid, pairs, rng
                )
                fit = analysis.fit_gaussian(scan)
                var_list.append(
                    analysis.conditional_variance(fit, detection.conversion_for(bob, basis))
                )
        unc_x = unc_p = None
    else:
        cfg, seed = None, None
        if args.var_x is not None:
            var_x, var_p = args.var_x, args.var_p
            unc_x, unc_p = args.unc_x, args.unc_p
        else:
            var_x, var_p = list(defaults.REFERENCE_VAR_X), list(defaults.REFERENCE_VAR_P)
            unc_x, unc_p = list(defaults.REFERENCE_UNC_X), list(defaults.REFERENCE_UNC_P)
            note = defaults.UNCERTAINTY_NOTE
            labeled = True
        if (unc_x is None) != (unc_p is None):
            raise ConfigError("provide uncertainties for both axes or neither")

    check = analysis.duan_check(var_x, var_p, unc_x, unc_p)
    report = make_report(
        "epr-check",
        {"from_scans": args.from_scans},
        seed, cfg, _epr_results(check, note, labeled), started,
    )
    _emit(report, args.out)
    return EXIT_OK, report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprqkd",
        description="Position/momentum entanglement QKD simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    q = sub.add_parser("qber", help="error rates of a coincidence table")
    q.add_argument("table", help="4x4 coincidence CSV (bundled table1.csv if not a file)")
    q.add_argument("--no-verify", action="store_true", help="skip fixture checksum check")
    q.add_argument("--out", help="also write the JSON report to this path")
    q.set_defaults(func=cmd_qber)

    e = sub.add_parser("eve-predict", help="intercept-resend error-rate prediction")
    e.add_argument("table")
    e.add_argument("--p", type=float, default=0.5, help="resend probability per detector")
    e.add_argument("--p2", type=float, default=None, help="detector-2 resend probability")
    e.add_argument("--no-verify", action="store_true")
    e.add_argument("--out")
    e.set_defaults(func=cmd_eve_predict)

    s = sub.add_parser("simulate", help="run a key-distribution session")
    s.add_argument("--config", help="flat key=value run configuration")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out-dir", default=".", help="directory for key and table files")
    s.add_argument("--out")
    s.set_defaults(func=cmd_simulate)

    c = sub.add_parser("scan", help="Monte Carlo coincidence scan with peak fit")
    c.add_argument("--config")
    c.add_argument("--fixed", required=True, help="fixed detector of party A, e.g. Ax1")
    c.add_argument("--bases", required=True, help="basis pair, e.g. xx or xp")
    c.add_argument("--grid", required=True, help="start:stop:step in mm")
    c.add_argument("--pairs", type=int, default=200_000, help="pairs emitted per grid point")
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--out-csv", help="write the scan as position_mm,counts CSV")
    c.add_argument("--out")
    c.set_defaults(func=cmd_scan)

    p = sub.add_parser("epr-check", help="variance-product entanglement witness")
    p.add_argument("--var-x", type=float, nargs="+", help="position variances in mm^2")
    p.add_argument("--var-p", type=float, nargs="+", help="momentum variances in hbar^2/mm^2")
    p.add_argument("--unc-x", type=float, nargs="+", default=None)
    p.add_argument("--unc-p", type=float, nargs="+", default=None)
    p.add_argument("--fits", nargs=4, default=None,
                   help="four saved scan reports (two xx, two pp)")
    p.add_argument("--from-scans", action="store_true",
                   help="derive the four variances from simulated scans")
    p.add_argument("--pairs", type=int, default=None,
                   help=f"pairs per scan point with --from-scans (default {FROM_SCANS_PAIRS})")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_epr_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, _report = args.func(args)
        return code
    except (ConfigError, FixtureError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (protocol.ProtocolError, analysis.FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
