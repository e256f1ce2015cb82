"""Command-line front end.

Subcommands:

    qber        error rates of a 4x4 coincidence table (CSV)
    eve-predict intercept-resend error-rate prediction from a table
    simulate    run a full key-distribution session, write keys and table
    scan        Monte Carlo coincidence scan plus peak fit
    epr-check   variance-product entanglement witness

Every command prints a JSON report and is bit-reproducible for a fixed seed.
The report echoes every flag as parsed but the output paths (args), the
resolved run file as its 19 strings (config, null on the table routes), the
seed and the results, so a report reruns its own run.
Runs are configured by a flat key-value file with dotted section names
(``source.sigma_plus_mm = 1.8``); any key omitted falls back to the bundled
default experiment, the one config table in ``eprqkd.defaults``, and any
other key is rejected.  The seed comes from --seed, else 42; no config key or
environment variable enters it.

Exit codes: 0 success; 2 validation error (a ConfigError or other
ValueError, or a missing file); 3 run error (a RunError: a session or peak
fit that could not complete); 4 session aborted on an eavesdropping alarm
(simulate only).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from importlib import resources
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import defaults, tables
from .defaults import ConfigError, RunError, _as_int, build_setup, build_station, parse_config_file

if TYPE_CHECKING:
    import numpy as np

    from . import analysis, protocol

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_ABORTED = 4

DEFAULT_SEED = 42
DEFAULT_PAIRS = 200_000
FROM_SCANS_GRID = "0:3:0.1"
# Where a run writes, in the order it writes: a report's args echo every flag but these.
OUTPUT_FLAGS = ("out_dir", "out_csv", "out")


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def build_attack(cfg: dict[str, str]) -> protocol.AttackConfig | None:
    """The configured attack; attack.policy = none is no attack (None)."""
    from . import protocol

    policy = cfg["attack.policy"]
    if policy == "none":
        return None
    if policy not in protocol.BASIS_POLICIES:
        policies = (*protocol.BASIS_POLICIES, "none")
        raise ConfigError(f"attack.policy must be one of {policies}, got {policy!r}")
    return protocol.AttackConfig(basis_policy=policy)


def resolve_seed(cli_seed: int | None) -> int:
    """Seed from --seed, else the default."""
    if cli_seed is None:
        return DEFAULT_SEED
    if cli_seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {cli_seed!r}")
    return cli_seed


# ---------------------------------------------------------------------------
# Fixtures and IO
# ---------------------------------------------------------------------------


def resolve_table_path(name: str) -> Path:
    """Existing path as given, else for a bare file name the packaged data file of that name."""
    path = Path(name)
    if path.exists():
        return path
    packaged = resources.files("eprqkd").joinpath("data", name)
    if path.name == name and packaged.is_file():
        return Path(str(packaged))
    raise FileNotFoundError(f"coincidence table {name!r} not found")


def verify_checksum(path: Path) -> None:
    """Refuse a fixture whose sibling .sha256 no longer matches."""
    sidecar = Path(str(path) + ".sha256")
    if not sidecar.exists():
        return
    import hashlib

    recorded = sidecar.read_text().split()
    if not recorded:
        raise ConfigError(f"{sidecar} is empty; remove it to use {path} unverified")
    if hashlib.sha256(path.read_bytes()).hexdigest() != recorded[0]:
        raise ConfigError(
            f"{path} does not match its recorded checksum; remove {sidecar} to use it as edited"
        )


def _load_table(args) -> tuple[Path, tables.CoincidenceTable]:
    """The table and its path; one that cannot be read or decoded exits 2 naming the path."""
    path = resolve_table_path(args.table)
    try:
        verify_checksum(path)
        return path, tables.CoincidenceTable.load_csv(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"coincidence table {str(path)!r}: {exc}") from exc


def atomic_write(path: Path, save) -> None:
    """Run save(tmp) on a sibling temporary path, then move it over path."""
    tmp = path.with_name(path.name + ".tmp")
    save(tmp)
    os.replace(tmp, path)


def _check_outputs(args, named: dict[str, Path] | None = None) -> None:
    """Reject, before any work, an output file that cannot be written or that two outputs share.

    The run writes the named files (simulate's output.* keys), then --out-csv
    and --out.  The --out-dir that simulate creates counts as an existing
    directory.  Each command calls this once, before setup or table load.
    """
    out_dir = getattr(args, "out_dir", None)
    created = None
    if out_dir:
        target = Path(out_dir)
        nearest = next(p for p in (target, *target.parents) if p.exists())
        if not nearest.is_dir():
            raise ConfigError(f"--out-dir: {str(nearest)!r} is not a directory")
        created = target.resolve()
    outputs = dict(named or {})
    for attr in OUTPUT_FLAGS[1:]:
        if getattr(args, attr, None):
            outputs["--" + attr.replace("_", "-")] = Path(getattr(args, attr))
    written = {}
    for name, path in outputs.items():
        resolved = path.resolve()
        if path.is_dir() or resolved == created:
            raise ConfigError(f"{name}: {str(path)!r} is a directory")
        if not path.parent.is_dir() and path.parent.resolve() != created:
            raise ConfigError(f"{name}: directory {str(path.parent)!r} does not exist")
        if resolved in written:
            raise ConfigError(f"{name}: {str(path)!r} is already the output of {written[resolved]}")
        written[resolved] = name


# ---------------------------------------------------------------------------
# Commands: each returns (exit code, seed, config, results)
# ---------------------------------------------------------------------------


def _qber_results(report: tables.QberReport) -> dict:
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


def cmd_qber(args):
    _check_outputs(args)
    path, table = _load_table(args)
    results = _qber_results(tables.qber_from_counts(table))
    results["table_path"] = str(path)
    return EXIT_OK, None, None, results


def cmd_eve_predict(args):
    _check_outputs(args)
    for flag, value in (("--p", args.p), ("--p2", args.p2)):
        if value is not None and not 0.0 <= value <= 1.0:
            raise ConfigError(f"{flag} must lie in [0, 1], got {value}")
    path, table = _load_table(args)
    p_resend = (args.p, args.p if args.p2 is None else args.p2)
    results = _qber_results(tables.qber_with_eve_prediction(table, p_resend=p_resend))
    results["p_resend"] = list(p_resend)
    results["table_path"] = str(path)
    return EXIT_OK, None, None, results


def cmd_simulate(args):
    from . import protocol
    from .detection import cell_probability

    cfg = parse_config_file(args.config)
    seed = resolve_seed(args.seed)
    attack = build_attack(cfg)
    out_dir = Path(args.out_dir)
    outputs = {f"config key {key}": out_dir / cfg[key]
               for key in ("output.alice_key", "output.bob_key", "output.table")}
    _check_outputs(args, outputs)
    key_a, key_b, table_path = outputs.values()
    n, m = (_as_int(cfg, key) for key in ("session.coincidences", "session.estimation_pairs"))
    try:
        session = protocol.SessionConfig(n_coincidences=n, m_estimation=m, rng_seed=seed)
    except ValueError as exc:
        raise ConfigError(f"session.coincidences = {n}, session.estimation_pairs = {m}: {exc}") from exc
    src, alice, bob = build_setup(cfg)
    # The oracle's clean coincidence probability per pair: a geometry the
    # session could not fill within its emission cap is refused here.
    p = math.fsum(map(cell_probability, protocol._cells(src, alice, bob, None)))
    if p < 1.0 / protocol.EMITTED_PER_COINCIDENCE:
        raise ConfigError(
            "config keys station.origin_mm, station.detector1_mm, station.detector2_mm, "
            f"station.x_slit_width_mm and station.p_slit_width_mm: the slits see a coincidence "
            f"in {p:.3g} of the pairs, below 1 in {protocol.EMITTED_PER_COINCIDENCE}"
        )
    result = protocol.run_session(src, alice, bob, session, attack=attack)

    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(key_a, lambda tmp: tmp.write_text(result.sifted_bits_A + "\n"))
    atomic_write(key_b, lambda tmp: tmp.write_text(result.sifted_bits_B + "\n"))
    atomic_write(table_path, result.table.save_csv)

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
    code = EXIT_ABORTED if result.aborted else EXIT_OK
    return code, seed, cfg, results


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(part) for part in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"--grid must be start:stop:step, got {spec!r}") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"--grid start, stop and step must be finite, got {spec!r}")
    if step <= 0 or stop <= start:
        raise ConfigError(f"--grid must be increasing with positive step, got {spec!r}")
    import numpy as np

    from .analysis import _MIN_POINTS

    try:
        grid = np.arange(start, stop + step / 2.0, step)
    except (MemoryError, ValueError) as exc:  # ValueError: "Maximum allowed size exceeded"
        raise ConfigError(f"--grid {spec!r} has too many points: {exc}") from exc
    if grid.size < _MIN_POINTS:
        raise ConfigError(f"--grid needs at least {_MIN_POINTS} points, got {grid.size} from {spec!r}")
    return grid


def _check_pairs(pairs: int) -> None:
    """--pairs is a binomial draw's count, so it must fit in int64."""
    if pairs <= 0:
        raise ConfigError(f"--pairs must be positive, got {pairs}")
    if pairs > 2**63 - 1:
        raise ConfigError(f"--pairs must be at most 2^63 - 1, got {pairs}")


def _scan_config(path: str | None) -> dict[str, str]:
    """The run config of a scan route, which runs no attack."""
    cfg = parse_config_file(path)
    if cfg["attack.policy"] != "none":
        raise ConfigError(f"attack.policy must be none for scans, got {cfg['attack.policy']!r}")
    return cfg


def _scan_and_fit(args, detectors, grid, pairs):
    """Scan and peak-fit each (fixed detector, basis pair) in turn on one seeded generator.

    Returns the config, the seed, B's station and the (scan, fit) pairs.
    """
    import numpy as np

    from . import analysis

    cfg = _scan_config(args.config)
    seed = resolve_seed(args.seed)
    src, alice, bob = build_setup(cfg)
    rng = np.random.default_rng(seed)
    fitted = []
    for fixed, basis_pair in detectors:
        scan = analysis.scan_simulation(src, alice, bob, fixed, basis_pair, grid, pairs, rng)
        fitted.append((scan, analysis.fit_gaussian(scan)))
    return cfg, seed, bob, fitted


def cmd_scan(args):
    _check_outputs(args)
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
    cfg, seed, _, [(scan, fit)] = _scan_and_fit(
        args, [(args.fixed, basis_pair)], grid, args.pairs
    )
    if args.out_csv:
        atomic_write(Path(args.out_csv), scan.save_csv)

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
    return EXIT_OK, seed, cfg, results


def _epr_results(check: analysis.EprCheckResult, note: str | None) -> dict:
    """Witness fields; a note marks the bundled reference values, which are labeled."""
    out = {
        "var_x_mm2": list(check.var_x_list),
        "var_p_hbar2_per_mm2": list(check.var_p_list),
        "product_hbar2": check.product,
        "bound_hbar2": check.bound,
        "satisfied": check.satisfied,
        "sigma_distance": check.sigma_distance,
        "product_uncertainty_hbar2": check.product_uncertainty,
    }
    if note:
        out["var_x_labels"] = list(defaults.REFERENCE_VAR_X_LABELS)
        out["var_p_labels"] = list(defaults.REFERENCE_VAR_P_LABELS)
        out["uncertainty_note"] = note
    return out


def _fits_from_reports(paths) -> list:
    """(basis, flat label, fit) per saved scan report, the fit holding sigma and covariance.

    A path that resolves to one already given exits: one scan is not two measurements.
    """
    fits, given = [], {}
    for path in paths:
        resolved = Path(path).resolve()
        if resolved in given:
            raise ConfigError(f"{path}: already given as {given[resolved]}; --fits needs four scans")
        given[resolved] = path
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read scan report: {exc.strerror}") from exc
        except ValueError as exc:
            raise ConfigError(f"{path}: not a JSON scan report: {exc}") from exc
        results = data.get("results", data) if isinstance(data, dict) else None
        fit = results.get("fit") if isinstance(results, dict) else None
        if not isinstance(fit, dict):
            raise ConfigError(f"{path}: not a scan report: need an object with a 'fit' object")
        pair, sigma, cov = results.get("basis_pair"), fit.get("sigma_mm"), fit.get("covariance")
        if pair not in ("xx", "pp"):
            raise ConfigError(f"{path}: need a same-basis scan report, got {pair!r}")
        # json.loads accepts NaN and Infinity; type() also turns away a bool.
        if sigma is not None and not (type(sigma) in (int, float) and 0 < sigma < math.inf):
            raise ConfigError(f"{path}: fit.sigma_mm must be a positive finite width, got {sigma!r}")
        try:
            var_sigma = 0.0 if cov is None else cov[2][2]
        except (IndexError, KeyError, TypeError):
            raise ConfigError(f"{path}: fit.covariance has no entry [2][2]") from None
        if not (type(var_sigma) in (int, float) and 0 <= var_sigma < math.inf):
            raise ConfigError(f"{path}: fit.covariance[2][2] must be finite, >= 0, got {var_sigma!r}")
        fit = SimpleNamespace(sigma=sigma, covariance=cov, flat=sigma is None)
        fits.append((pair[0], f"{path}: scan is flat", fit))
    return fits


def _witness_variances(fits, station) -> tuple:
    """var_x, var_p, unc_x, unc_p from (basis, flat label, fit), two xx and two pp fits.

    A flat fit exits with its label; uncertainties are None unless every fit has a covariance.
    """
    from . import analysis, detection

    with_unc = all(fit.covariance is not None for _, _, fit in fits)
    var, unc = {"x": [], "p": []}, {"x": [], "p": []}
    for basis, label, fit in fits:
        if fit.flat:
            raise ConfigError(f"{label}; no width to convert")
        scale = detection.conversion_for(station, basis)
        try:
            var[basis].append(analysis.conditional_variance(fit, scale))
            if with_unc:  # d(scale sigma)^2 = 2 scale^2 sigma d(sigma)
                unc[basis].append(2 * scale**2 * fit.sigma * math.sqrt(fit.covariance[2][2]))
            if not all(map(math.isfinite, var[basis] + unc[basis])):  # a product overflowed
                raise OverflowError
        except OverflowError:
            keys = {"x": "object_distance_mm and station.image_distance_mm",
                    "p": "wavenumber_per_mm and station.focal_length_mm"}[basis]
            raise ConfigError(f"config keys station.{keys}: the {basis} scale {scale:.6g} "
                              f"squares a {fit.sigma} mm width out of the float range") from None
    if len(var["x"]) != 2 or len(var["p"]) != 2:
        raise ConfigError(
            f"need two xx and two pp fit reports, got {len(var['x'])} xx / {len(var['p'])} pp"
        )
    unc_x, unc_p = (unc["x"], unc["p"]) if with_unc else (None, None)
    return var["x"], var["p"], unc_x, unc_p


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


def cmd_epr_check(args):
    from . import analysis

    _check_outputs(args)
    _check_epr_flags(args)
    cfg = seed = unc_x = unc_p = note = None
    if args.fits:
        cfg = _scan_config(args.config)
        bob = build_station(cfg)
        var_x, var_p, unc_x, unc_p = _witness_variances(_fits_from_reports(args.fits), bob)
    elif args.from_scans:
        pairs = DEFAULT_PAIRS if args.pairs is None else args.pairs
        _check_pairs(pairs)
        fixed = [f"A{basis}{det}" for basis in "xp" for det in (1, 2)]
        cfg, seed, bob, fitted = _scan_and_fit(
            args, [(f, (f[1], f[1])) for f in fixed], _parse_grid(FROM_SCANS_GRID), pairs
        )
        fits = [(f[1], f"--from-scans: the {f} scan is flat at --pairs {pairs}", fit)
                for f, (_, fit) in zip(fixed, fitted)]
        var_x, var_p, unc_x, unc_p = _witness_variances(fits, bob)
    elif args.var_x is not None:
        var_x, var_p = args.var_x, args.var_p
        unc_x, unc_p = args.unc_x, args.unc_p
    else:
        var_x, var_p = list(defaults.REFERENCE_VAR_X), list(defaults.REFERENCE_VAR_P)
        unc_x, unc_p = list(defaults.REFERENCE_UNC_X), list(defaults.REFERENCE_UNC_P)
        note = defaults.UNCERTAINTY_NOTE

    check = analysis.duan_check(var_x, var_p, unc_x, unc_p)
    return EXIT_OK, seed, cfg, _epr_results(check, note)


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
    q.add_argument("--out", help="also write the JSON report to this path")
    q.set_defaults(func=cmd_qber)

    e = sub.add_parser("eve-predict", help="intercept-resend error-rate prediction")
    e.add_argument("table")
    e.add_argument("--p", type=float, default=0.5, help="resend probability per detector")
    e.add_argument("--p2", type=float, default=None, help="detector-2 resend probability")
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
    c.add_argument("--pairs", type=int, default=DEFAULT_PAIRS, help="pairs emitted per grid point")
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
                   help=f"derive the four variances from simulated scans over {FROM_SCANS_GRID}")
    p.add_argument("--pairs", type=int, default=None,
                   help=f"pairs per scan point with --from-scans (default {DEFAULT_PAIRS})")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_epr_check)

    return parser


def main(argv=None) -> int:
    """Run the command, then print (and save) its report."""
    # numpy's bundled OpenBLAS starts a worker thread per CPU on import, which
    # costs start-up time and CPU; no command calls BLAS beyond
    # the peak fit's 4x4 solve.  It reads this before numpy is imported, and a
    # value already set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code, seed, cfg, results = args.func(args)
        report = {
            "command": args.subcommand,
            "args": {k: v for k, v in vars(args).items()
                     if k not in ("subcommand", "func", *OUTPUT_FLAGS)},
            "config": cfg,
            "seed": seed,
            "results": results,
            "duration_s": round(time.perf_counter() - started, 6),
        }
        text = json.dumps(report, indent=2)
        if args.out:
            atomic_write(Path(args.out), lambda tmp: tmp.write_text(text + "\n"))
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # The reader closed stdout early: send the interpreter's final
            # flush to devnull so that it stays quiet too.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
