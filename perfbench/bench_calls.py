"""Every call the benchmark makes into eprqkd, and the child processes that make them.

The benchmark reaches the package in two ways only: the command line (argv
and ``--config`` files, see ``cli_argv``) and names in ``eprqkd.__all__``.
This module is the single place that does either, so an API change means
editing this file alone.  ``eprqkd`` is imported inside the functions, so
importing this module costs nothing.

Run as a script it is the benchmark's child process:

    python3 bench_calls.py setup --default-setup 0|1 --extras none|session|scans
        print "ready" once import (and default_setup) finish, then one JSON
        line with versions and the oracle values the checks need
    python3 bench_calls.py sweep --seed N
        print "ready" after import, then for each stdin line "run SECONDS"
        sweep seeded geometries for that long and print one JSON line; for
        "probe" set up the known-defect geometry and print one JSON line
    python3 bench_calls.py trace --seed N --work DIR
        replay one pass of every workload in-process with spans around each
        call, print one JSON line of per-layer metrics, write the spans to DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from dataclasses import replace

import bench_checks as checks
import bench_inputs as inputs
from bench_trace import Tracer

CLI_MODULE = "eprqkd.cli"
GEOMETRY_STREAM = "geometry-sweep/in-process"
TRACE_GEOMETRIES = 6


def cli_argv(python: str, *args: str) -> list[str]:
    """A cold command-line invocation of eprqkd."""
    return [python, "-m", CLI_MODULE, *args]


def _span(tracer: Tracer | None, name: str, op: str):
    return tracer.span(name, op) if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# Setup and oracle
# ---------------------------------------------------------------------------


def versions() -> dict:
    import numpy
    import scipy

    import eprqkd

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "eprqkd": eprqkd.__version__,
    }


def oracle_cells(setup, tracer: Tracer | None = None, op: str = "") -> list[list[float]]:
    """The 16-cell coincidence oracle, rows Ax1..Ap2, columns Bx1..Bp2."""
    from eprqkd import coincidence_probability

    source, alice, bob = setup
    labels = (("x", 1), ("x", 2), ("p", 1), ("p", 2))
    cells = []
    for basis_a, det_a in labels:
        row = []
        for basis_b, det_b in labels:
            with _span(tracer, "detection.coincidence_probability", op):
                row.append(coincidence_probability(source, alice, bob, basis_a, basis_b, det_a, det_b))
        cells.append(row)
    return cells


def scan_grid() -> list[float]:
    """The conjugate-scan grid as the CLI builds it from SCAN_GRID."""
    import numpy as np

    start, stop, step = (float(v) for v in inputs.SCAN_GRID.split(":"))
    return [float(v) for v in np.arange(start, stop + step / 2.0, step)]


def conjugate_scan_probabilities(setup) -> dict[str, list[float]]:
    """Per-pair hit probability at each grid point of every conjugate scan.

    Scans leave the filters out, so attenuation is excluded; B's scanning
    slit is placed at each grid position in turn.
    """
    from eprqkd import SlitDetector, coincidence_probability

    source, alice, bob = setup
    out = {}
    for fixed, bases in inputs.CONJUGATE_SCANS:
        basis_a, basis_b = bases
        width = bob.detectors(basis_b)[0].width
        probs = []
        for center in scan_grid():
            slits = (SlitDetector(center, width, 0), SlitDetector(center + 1000.0 * width, width, 1))
            moved = replace(bob, **{f"{basis_b}_detectors": slits})
            probs.append(coincidence_probability(
                source, alice, moved, basis_a, basis_b, int(fixed[-1]), 1, include_attenuation=False,
            ))
        out[fixed] = probs
    return out


def setup_child(default_setup: bool, extras: str) -> None:
    import eprqkd

    setup = eprqkd.default_setup() if default_setup else None
    print("ready", flush=True)
    info = {"versions": versions()}
    if extras == "session":
        cells = oracle_cells(setup)
        info["cells"] = cells
        info["predicted_qber"] = checks.predicted_qber(cells)
        info["coincidence_probability"] = sum(map(sum, cells)) / 4.0
    elif extras == "scans":
        info["grid"] = scan_grid()
        info["scan_probabilities"] = conjugate_scan_probabilities(setup)
    print(json.dumps(info), flush=True)


# ---------------------------------------------------------------------------
# Geometry sweep
# ---------------------------------------------------------------------------


def build_geometry(geo: dict, tracer: Tracer | None = None, op: str = ""):
    """Set up one custom geometry the way a ``--config`` run does.

    Calibrate the source on B's station, derive A's slit centers for both
    bases, then equalize the levels.  Returns (source, alice, bob).
    """
    from eprqkd import (
        PumpProfile, SlitDetector, StationConfig, calibrate_source, derive_partner_centers, equalize_levels,
    )

    def slits(width):
        return (SlitDetector(geo["detector1_mm"], width, 0), SlitDetector(geo["detector2_mm"], width, 1))

    bob = StationConfig(
        object_distance=inputs.OBJECT_DISTANCE_MM,
        image_distance=geo["image_distance_mm"],
        focal_length=inputs.FOCAL_LENGTH_MM,
        wavenumber=inputs.WAVENUMBER_PER_MM,
        x_detectors=slits(geo["x_slit_mm"]),
        p_detectors=slits(geo["p_slit_mm"]),
        origin=inputs.ORIGIN_MM,
    )
    with _span(tracer, "source.calibrate_source", op):
        source = calibrate_source(
            inputs.TARGET_VAR_X_MM2, inputs.TARGET_VAR_P_HBAR2_MM2, bob, bob,
            sigma_plus=inputs.SIGMA_PLUS_MM, kappa_plus=inputs.KAPPA_PLUS_PER_MM,
            pump=PumpProfile(inputs.PUMP_WAIST_MM),
        )
    centers = {}
    for basis in ("x", "p"):
        with _span(tracer, "detection.derive_partner_centers", op):
            centers[basis] = derive_partner_centers(source, bob, bob, basis)
    alice = replace(
        bob,
        x_detectors=tuple(replace(d, center=c) for d, c in zip(bob.x_detectors, centers["x"])),
        p_detectors=tuple(replace(d, center=c) for d, c in zip(bob.p_detectors, centers["p"])),
    )
    with _span(tracer, "detection.equalize_levels", op):
        alice, bob = equalize_levels(source, alice, bob)
    return source, alice, bob


def sweep_geometry(index: int, seed: int, tracer: Tracer | None = None) -> dict:
    """Set up and predict geometry ``index`` of the seeded stream, then check it.

    Only set-up and prediction are timed; the round-trip check's calls to
    detected_variance happen after the clock stops.
    """
    from eprqkd import detected_variance

    geo = inputs.generate_geometry(inputs.op_rng(seed, GEOMETRY_STREAM, index))
    op = f"geometry/{index}"
    record = {"index": index, "geometry": geo}
    start = time.perf_counter()
    try:
        with _span(tracer, "op.geometry", op):
            setup = build_geometry(geo, tracer, op)
            cells = oracle_cells(setup, tracer, op)
            qber = checks.predicted_qber(cells)
    except Exception as exc:  # counted as a failed operation, never skipped
        record.update(seconds=time.perf_counter() - start, ok=False, error=_describe(exc))
        return record
    record["seconds"] = time.perf_counter() - start
    source, alice, bob = setup
    result = {
        "target_var_x": inputs.TARGET_VAR_X_MM2,
        "target_var_p": inputs.TARGET_VAR_P_HBAR2_MM2,
        "detected_var_x": detected_variance(source, alice, bob, "x"),
        "detected_var_p": detected_variance(source, alice, bob, "p"),
        "cells": cells,
        "qber_pred": qber,
    }
    try:
        checks.check_geometry(result)
    except checks.CheckError as exc:
        record.update(ok=False, wrong=True, error=str(exc))
        return record
    record["ok"] = True
    return record


def known_defect_probe() -> str | None:
    """Set up ``inputs.KNOWN_DEFECT_GEOMETRY``: the error it raises, or None once fixed."""
    try:
        build_geometry(inputs.KNOWN_DEFECT_GEOMETRY)
    except Exception as exc:
        return _describe(exc)
    return None


def _qber_report(rep) -> dict:
    """A QberReport in the shape the CLI prints it."""
    fields = {
        "qber": rep.qber, "qber_uncertainty": rep.uncertainty,
        "wrong_counts": rep.p_wrong, "right_counts": rep.p_right,
        "qber_xx": rep.qber_xx, "qber_pp": rep.qber_pp, "chi_counts": rep.chi,
    }
    return {"results": {k: v for k, v in fields.items() if v is not None}}


def _describe(exc: Exception) -> str:
    """Exception type, the first package function it came from, and its message."""
    inside = [f.name for f in traceback.extract_tb(exc.__traceback__) if "eprqkd" in f.filename]
    where = f" in {inside[0]}" if inside else ""
    return f"{type(exc).__name__}{where}: {exc}"


def sweep_child(seed: int) -> None:
    import eprqkd  # noqa: F401  (import is paid before the first geometry)

    print("ready", flush=True)
    index = 0
    for line in sys.stdin:
        command = line.split()
        if command == ["probe"]:
            print(json.dumps({"known_defect": known_defect_probe()}), flush=True)
            continue
        if not command or command[0] != "run":
            break
        deadline = time.perf_counter() + float(command[1])
        records = []
        while not records or time.perf_counter() < deadline:
            records.append(sweep_geometry(index, seed))
            index += 1
        print(json.dumps(records), flush=True)


# ---------------------------------------------------------------------------
# Traced replay
# ---------------------------------------------------------------------------


class Replay:
    """One traced pass over every workload's operations, in pipeline order."""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work = work_dir
        self.tracer = Tracer()
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.op_seconds: dict[str, list[float]] = {}
        self.metrics: dict[str, float] = {}

    @contextlib.contextmanager
    def op(self, workload: str, kind: str):
        """Time one operation, count it, and record how it failed if it did."""
        self.attempted += 1
        name = f"{workload}/{kind}"
        start = time.perf_counter()
        try:
            with self.tracer.span(f"op.{workload}", name):
                yield name
        except checks.CheckError as exc:
            self.failures.append(f"{name}: {exc}")
            self.wrong.append(f"{name}: {exc}")
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{name}: {_describe(exc)}")
        finally:
            self.op_seconds.setdefault(workload, []).append(time.perf_counter() - start)

    def call(self, name: str, op: str, fn, *args, **kwargs):
        with self.tracer.span(name, op):
            return fn(*args, **kwargs)

    def run(self) -> None:
        tr = self.tracer
        with tr.span("import", "import"):
            import eprqkd
        self.metrics["import.s"] = tr.total("import")
        self.metrics["import.modules"] = len(sys.modules)
        self.metrics["import.scipy_loaded"] = int("scipy" in sys.modules)
        self.setup = self.call("defaults.default_setup", "setup", eprqkd.default_setup)
        self.cells = oracle_cells(self.setup, tr, "setup")
        self.p_coincidence = sum(map(sum, self.cells)) / 4.0
        self.tables()
        self.geometries()
        self.sessions()
        self.scans()
        self.cli_main()

    def tables(self) -> None:
        from eprqkd import CoincidenceTable, qber_from_counts, qber_with_eve_prediction

        rng = inputs.op_rng(self.seed, "tables", 0)
        for kind, counts in (("reference", inputs.REFERENCE_TABLE), ("generated", inputs.generate_table(rng))):
            with self.op("tables", kind) as op:
                path = f"{self.work}/trace_{kind}.csv"
                with open(path, "w") as fh:
                    fh.write(inputs.table_csv(counts))
                table = self.call("protocol.CoincidenceTable.load_csv", op, CoincidenceTable.load_csv, path)
                rep = self.call("protocol.qber_from_counts", op, qber_from_counts, table)
                p1, p2 = (0.5, 0.5) if kind == "reference" else inputs.generate_resend(rng)
                eve = self.call("protocol.qber_with_eve_prediction", op, qber_with_eve_prediction, table, (p1, p2))
                checks.check_qber(checks.EXIT_OK, _qber_report(rep), counts)
                checks.check_eve(checks.EXIT_OK, _qber_report(eve), counts, p1, p2)

    def geometries(self) -> None:
        for index in range(TRACE_GEOMETRIES):
            self.attempted += 1
            start = time.perf_counter()
            record = sweep_geometry(index, self.seed, self.tracer)
            self.op_seconds.setdefault("geometry-sweep", []).append(time.perf_counter() - start)
            if not record["ok"]:
                self.failures.append(f"geometry/{index}: {record['error']}")
                if record.get("wrong"):
                    self.wrong.append(f"geometry/{index}: {record['error']}")
        # Not an operation and not traced: it reports whether the known defect still shows.
        self.metrics["source.calibrate_source.known_defect_errors"] = int(known_defect_probe() is not None)

    def sessions(self) -> None:
        import numpy as np

        from eprqkd import AttackConfig, SessionConfig, run_session, sample_pairs, tally_coincidences

        source, alice, bob = self.setup
        n, m = inputs.SESSION_COINCIDENCES, inputs.SESSION_ESTIMATION_PAIRS
        rng = inputs.op_rng(self.seed, "session", 0)
        clean = attacked = None
        with self.op("session", "clean") as op:
            config = SessionConfig(n_coincidences=n, m_estimation=m, rng_seed=inputs.new_seed(rng))
            clean = self.call("protocol.run_session", op, run_session, source, alice, bob, config)
            self._check_clean(clean, n, m)
        with self.op("session", "attacked") as op:
            config = SessionConfig(n_coincidences=n, m_estimation=m, rng_seed=inputs.new_seed(rng))
            attack = AttackConfig(basis_policy="uniform_random")
            attacked = self.call("adversary.run_session_attacked", op, run_session, source, alice, bob, config, attack=attack)
            checks.check_attacked_session(checks.EXIT_ABORTED if attacked.aborted else checks.EXIT_OK, {
                "results": {"aborted": attacked.aborted, "qber_estimate": attacked.estimate.qber}})
        if clean is None or attacked is None:
            raise RuntimeError("a traced session failed; see failures")

        # The same number of emitted pairs through the sampler alone and
        # through sampling plus click and tally.
        emitted = clean.emitted_pairs
        gen = np.random.default_rng(inputs.new_seed(rng))
        with self.tracer.span("source.sample_pairs", "session/layers"):
            left = emitted
            while left > 0:
                batch = min(left, 1_000_000)
                sample_pairs(source, batch, gen)
                left -= batch
        self.call("protocol.tally_coincidences", "session/layers", tally_coincidences, source, alice, bob, emitted, gen)

        t = self.tracer.total
        met = self.metrics
        met["source.sample_pairs.s"] = t("source.sample_pairs")
        met["source.sample_pairs.pairs"] = emitted
        met["source.sample_pairs.pairs_per_s"] = emitted / t("source.sample_pairs")
        met["protocol.tally_coincidences.s"] = t("protocol.tally_coincidences")
        met["protocol.click_tally.self_s"] = t("protocol.tally_coincidences") - t("source.sample_pairs")
        met["protocol.run_session.s"] = t("protocol.run_session")
        met["protocol.run_session.emitted_pairs"] = emitted
        met["protocol.run_session.expected_emitted"] = n / self.p_coincidence
        met["protocol.run_session.coincidence_yield"] = n / emitted
        met["protocol.run_session.key_bits"] = len(clean.sifted_bits_A)
        met["protocol.run_session.sifted"] = len(clean.sifted_bits_A) + m
        met["protocol.sift_key.self_s"] = t("protocol.run_session") - t("protocol.tally_coincidences")
        met["adversary.run_session_attacked.s"] = t("adversary.run_session_attacked")
        met["adversary.run_session_attacked.emitted_pairs"] = attacked.emitted_pairs
        met["adversary.run_session_attacked.coincidence_yield"] = n / attacked.emitted_pairs
        met["adversary.extra_s_per_mpair"] = 1e6 * (
            t("adversary.run_session_attacked") / attacked.emitted_pairs - t("protocol.run_session") / emitted
        )

    def _check_clean(self, result, n: int, m: int) -> None:
        report = {"results": {
            "aborted": result.aborted, "qber_estimate": result.estimate.qber, "key_bits": len(result.sifted_bits_A),
        }}
        predicted = checks.predicted_qber(self.cells)
        table_text = inputs.table_csv(result.table.counts.tolist())
        exit_code = checks.EXIT_ABORTED if result.aborted else checks.EXIT_OK
        checks.check_clean_session(exit_code, report, result.sifted_bits_A, result.sifted_bits_B, table_text, n, m, predicted)

    def scans(self) -> None:
        import numpy as np

        from eprqkd import conditional_variance, conversion_for, duan_check, fit_gaussian, scan_simulation

        source, alice, bob = self.setup
        rng = inputs.op_rng(self.seed, "scans", 0)
        pairs = hits = 0
        with self.op("scans", "from-scans") as op:
            gen = np.random.default_rng(inputs.new_seed(rng))
            grid = np.arange(0.0, 3.0001, 0.1)
            var = {"x": [], "p": []}
            for basis in ("x", "p"):
                for det in (1, 2):
                    scan = self.call("analysis.scan_simulation", op, scan_simulation, source, alice, bob,
                                     f"A{basis}{det}", (basis, basis), grid, inputs.FROM_SCANS_PAIRS, gen)
                    pairs += len(grid) * inputs.FROM_SCANS_PAIRS
                    hits += sum(scan.counts)
                    fit = self.call("analysis.fit_gaussian", op, fit_gaussian, scan)
                    var[basis].append(conditional_variance(fit, conversion_for(bob, basis)))
            check = self.call("analysis.duan_check", op, duan_check, var["x"], var["p"])
            checks.check_from_scans(checks.EXIT_OK, {"results": {
                "var_x_mm2": list(check.var_x_list), "var_p_hbar2_per_mm2": list(check.var_p_list),
                "satisfied": check.satisfied, "product_hbar2": check.product}})
        probabilities = conjugate_scan_probabilities(self.setup)
        grid = scan_grid()
        flat_fits = 0
        for fixed, bases in (inputs.CONJUGATE_SCANS[rng.randrange(2)], inputs.CONJUGATE_SCANS[2 + rng.randrange(2)]):
            with self.op("scans", bases) as op:
                gen = np.random.default_rng(inputs.new_seed(rng))
                scan = self.call("analysis.scan_simulation", op, scan_simulation, source, alice, bob,
                                 fixed, tuple(bases), grid, inputs.SCAN_PAIRS, gen)
                pairs += len(grid) * inputs.SCAN_PAIRS
                hits += sum(scan.counts)
                fit = self.call("analysis.fit_gaussian", op, fit_gaussian, scan)
                flat_fits += int(fit.flat)
                csv_text = "position_mm,counts\n" + "".join(f"{p:.6g},{c}\n" for p, c in zip(scan.positions, scan.counts))
                report = {"results": {
                    "flat": fit.flat, "fit": {"sigma_mm": fit.sigma, "offset_counts": fit.offset},
                    "max_min_ratio": scan.max_min_ratio()}}
                checks.check_conjugate_scan(checks.EXIT_OK, report, csv_text, grid, probabilities[fixed], inputs.SCAN_PAIRS)
        t, named = self.tracer.total, self.tracer.named
        met = self.metrics
        met["analysis.scan_simulation.s"] = self.tracer.mean("analysis.scan_simulation")
        met["analysis.scan_simulation.pairs"] = pairs
        met["analysis.scan_simulation.pairs_per_s"] = pairs / t("analysis.scan_simulation")
        met["analysis.scan_simulation.hit_yield"] = hits / pairs
        met["analysis.fit_gaussian.s"] = self.tracer.mean("analysis.fit_gaussian")
        met["analysis.fit_gaussian.calls"] = len(named("analysis.fit_gaussian"))
        met["analysis.fit_gaussian.flat_calls"] = flat_fits
        met["analysis.duan_check.s"] = t("analysis.duan_check")

    def cli_main(self) -> None:
        """Each command through cli.main in this warm process: the CLI body alone."""
        from eprqkd import cli

        rng = inputs.op_rng(self.seed, "cli", 0)
        var = inputs.generate_variances(rng)
        commands = {
            "qber": ["qber", "table1.csv"],
            "eve-predict": ["eve-predict", "table1.csv", "--p", "0.5"],
            "simulate": ["simulate", "--seed", str(inputs.new_seed(rng)), "--out-dir", f"{self.work}/trace_simulate"],
            "scan": ["scan", "--fixed", "Ax1", "--bases", "xp", "--grid", inputs.SCAN_GRID,
                     "--pairs", str(inputs.SCAN_PAIRS), "--seed", str(inputs.new_seed(rng))],
            "epr-check": ["epr-check", "--var-x", *map(repr, var["var_x"]), "--var-p", *map(repr, var["var_p"])],
            "epr-check-from-scans": ["epr-check", "--from-scans", "--seed", str(inputs.new_seed(rng))],
        }
        for name, argv in commands.items():
            with self.op("cli", name) as op:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = self.call(f"cli.main.{name}", op, cli.main, argv)
                if code not in (checks.EXIT_OK, checks.EXIT_ABORTED):
                    raise RuntimeError(f"cli.main {name} exited {code}")
                json.loads(out.getvalue())
            self.metrics[f"cli.main.{name}.s"] = self.tracer.total(f"cli.main.{name}")

    def layer_metrics(self) -> dict[str, float]:
        met = dict(self.metrics)
        tr = self.tracer
        met["defaults.default_setup.s"] = tr.total("defaults.default_setup")
        for name in ("source.calibrate_source", "detection.derive_partner_centers",
                     "detection.equalize_levels", "detection.coincidence_probability"):
            met[f"{name}.s"] = tr.mean(name)
        met["source.calibrate_source.calls"] = len(tr.named("source.calibrate_source"))
        met["detection.coincidence_probability.calls"] = len(tr.named("detection.coincidence_probability"))
        for name in ("protocol.qber_from_counts", "protocol.qber_with_eve_prediction", "protocol.CoincidenceTable.load_csv"):
            met[f"{name}.s"] = tr.mean(name)
        return met


def trace_child(seed: int, work_dir: str) -> None:
    replay = Replay(seed, work_dir)
    try:
        replay.run()
        metrics = replay.layer_metrics()
    except Exception as exc:  # report what ran; the parent prints no result
        replay.failures.append(f"replay: {_describe(exc)}")
        metrics = None
    replay.tracer.dump(f"{work_dir}/spans.json")
    print(json.dumps({
        "metrics": metrics,
        "attempted": replay.attempted,
        "failures": replay.failures,
        "wrong": replay.wrong,
        "op_seconds": replay.op_seconds,
        "versions": versions(),
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--default-setup", type=int, choices=(0, 1), required=True)
    s.add_argument("--extras", choices=("none", "session", "scans"), default="none")
    w = sub.add_parser("sweep")
    w.add_argument("--seed", type=int, required=True)
    t = sub.add_parser("trace")
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup_child(bool(args.default_setup), args.extras)
    elif args.mode == "sweep":
        sweep_child(args.seed)
    else:
        trace_child(args.seed, args.work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
