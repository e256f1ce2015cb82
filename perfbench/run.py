#!/usr/bin/env python3
"""Benchmark of eprqkd: cold-CLI latency, set-up time and geometry-sweep throughput.

Usage, from the root of a checkout (the package is run from ./src):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is tables, session, scans, geometry-sweep, or all (the four interleaved).
With --trace 0 every operation runs in a fresh child process, one at a time,
for about S seconds, and the end-to-end metrics are printed.  With --trace 1
one in-process replay of every workload records a span around each call into
the package and the per-layer metrics are printed.  Every output is checked.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Full records and spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import bench_checks as checks
import bench_inputs as inputs
from bench_calls import cli_argv

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
CALLS = str(BENCH_DIR / "bench_calls.py")
OUT_DIR = ROOT / ".perfbench_out"
PYTHON = sys.executable
CHILD_TIMEOUT_S = 60.0
SWEEP_CHUNK_S = 2.5
WORKLOADS = ("tables", "session", "scans", "geometry-sweep")


@dataclass
class Child:
    code: int
    wall: float
    rss_mb: float
    out: str
    err: str
    ready: float | None = None


class OpFailure(Exception):
    """The program reported an error or crashed instead of producing output."""


class Bench:
    """Where children run, with what environment, and what they reported about it."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "EPRQKD_SEED"}
        self.env["PYTHONPATH"] = str(SRC)
        self.versions: dict = {}

    def run(self, argv: list[str], ready: bool = False) -> Child:
        """Run a child to completion; wall time and peak RSS come from wait4."""
        with open(self.work / "stderr.txt", "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=subprocess.PIPE, stderr=err, text=True)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                ready_at = None
                if ready and proc.stdout.readline().strip() == "ready":
                    ready_at = time.perf_counter() - start
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                timer.cancel()
                proc.stdout.close()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, out, err.read(), ready_at)


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


class Workload:
    """One workload: its set-up probe, one cycle of operations, its metrics."""

    name = ""
    default_setup = False
    extras = "none"

    def __init__(self, bench: Bench, seed: int):
        self.bench = bench
        self.seed = seed
        self.index = 0
        self.walls: dict[str, list[float]] = defaultdict(list)
        self.setup_times: list[float] = []
        self.rss: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.oracle: dict | None = None

    def rng(self):
        self.index += 1
        return inputs.op_rng(self.seed, self.name, self.index)

    def fail(self, kind: str, message: str, wrong: bool = False) -> None:
        self.failures.append(f"{self.name}/{kind}: {message}")
        if wrong:
            self.wrong.append(f"{self.name}/{kind}: {message}")

    def setup_probe(self) -> None:
        """Fresh interpreter until import (and default_setup) are done."""
        child = self.bench.run(
            [PYTHON, CALLS, "setup", "--default-setup", str(int(self.default_setup)), "--extras", self.extras],
            ready=True,
        )
        self.attempted += 1
        self.rss.append(child.rss_mb)
        if child.code != 0 or child.ready is None:
            self.fail("setup", f"exit {child.code}: {_last_line(child.err)}")
            return
        self.setup_times.append(child.ready)
        info = json.loads(_last_line(child.out))
        self.bench.versions = info.pop("versions")
        self.oracle = self.oracle or info

    def cli(self, kind: str, args: list[str], check) -> None:
        """One cold CLI invocation; ``check(exit_code, report)`` judges the output."""
        child = self.bench.run(cli_argv(PYTHON, *args))
        self.attempted += 1
        self.rss.append(child.rss_mb)
        self.walls[kind].append(child.wall)
        try:
            if child.code not in (checks.EXIT_OK, checks.EXIT_ABORTED):
                raise OpFailure(f"exit {child.code}: {_last_line(child.err)}")
            check(child.code, json.loads(child.out))
        except checks.CheckError as exc:
            self.fail(kind, str(exc), wrong=True)
        except (OpFailure, OSError, ValueError, KeyError, TypeError) as exc:
            self.fail(kind, f"{type(exc).__name__}: {exc}")

    def write(self, name: str, text: str) -> str:
        path = self.bench.work / name
        path.write_text(text)
        return str(path)

    def cycle(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def ops_per_s(self) -> float:
        walls = [w for kind in self.walls.values() for w in kind]
        return len(walls) / sum(walls)

    def metrics(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_times),
            # Per-kind medians, averaged, so alternating kinds of different
            # length do not make the median jump between them.
            "cli_wall_s": statistics.fmean(statistics.median(w) for w in self.walls.values()),
            "ops_per_s": self.ops_per_s(),
            "peak_rss_mb": max(self.rss),
        }


class Tables(Workload):
    """qber and eve-predict on table1.csv and generated tables; epr-check on generated variances."""

    name = "tables"

    def cycle(self) -> None:
        ref = inputs.REFERENCE_TABLE
        self.cli("qber-reference", ["qber", "table1.csv"], lambda c, r: checks.check_qber(c, r, ref))
        self.cli("eve-reference", ["eve-predict", "table1.csv", "--p", "0.5"],
                 lambda c, r: checks.check_eve(c, r, ref, 0.5, 0.5))

        rng = self.rng()
        counts = inputs.generate_table(rng)
        path = self.write(f"table_{self.index}.csv", inputs.table_csv(counts))
        self.cli("qber-generated", ["qber", path], lambda c, r: checks.check_qber(c, r, counts))
        p1, p2 = inputs.generate_resend(rng)
        self.cli("eve-generated", ["eve-predict", path, "--p", repr(p1), "--p2", repr(p2)],
                 lambda c, r: checks.check_eve(c, r, counts, p1, p2))

        v = inputs.generate_variances(rng)
        args = ["epr-check"]
        for key in ("var_x", "var_p", "unc_x", "unc_p"):
            args += ["--" + key.replace("_", "-"), *map(repr, v[key])]
        self.cli("epr-check", args,
                 lambda c, r: checks.check_witness(c, r, v["var_x"], v["var_p"], v["unc_x"], v["unc_p"]))


class Session(Workload):
    """simulate at 1e5 coincidences, alternating a clean and an attacked config."""

    name = "session"
    default_setup = True
    extras = "session"

    def cycle(self) -> None:
        for attacked in (False, True):
            rng = self.rng()
            out_dir = self.bench.work / f"session_{self.index}"
            config = self.write(f"session_{self.index}.cfg", inputs.session_config(attacked))
            args = ["simulate", "--config", config, "--seed", str(inputs.new_seed(rng)), "--out-dir", str(out_dir)]
            if attacked:
                self.cli("attacked", args, checks.check_attacked_session)
            else:
                self.cli("clean", args, lambda c, r: self.check_clean(c, r, out_dir))
            shutil.rmtree(out_dir, ignore_errors=True)

    def check_clean(self, code: int, report: dict, out_dir: Path) -> None:
        if self.oracle is None:
            raise OpFailure("no oracle prediction: every set-up probe failed")
        res = report["results"]
        checks.check_clean_session(
            code, report,
            Path(res["alice_key_path"]).read_text(), Path(res["bob_key_path"]).read_text(),
            Path(res["table_path"]).read_text(),
            inputs.SESSION_COINCIDENCES, inputs.SESSION_ESTIMATION_PAIRS, self.oracle["predicted_qber"],
        )


class Scans(Workload):
    """epr-check --from-scans, then one xp and one px conjugate scan."""

    name = "scans"
    default_setup = True
    extras = "scans"

    def cycle(self) -> None:
        rng = self.rng()
        self.cli("from-scans", ["epr-check", "--from-scans", "--pairs", str(inputs.FROM_SCANS_PAIRS),
                                "--seed", str(inputs.new_seed(rng))],
                 checks.check_from_scans)
        for fixed, bases in (inputs.CONJUGATE_SCANS[rng.randrange(2)], inputs.CONJUGATE_SCANS[2 + rng.randrange(2)]):
            csv_path = self.bench.work / f"scan_{self.index}_{bases}.csv"
            args = ["scan", "--fixed", fixed, "--bases", bases, "--grid", inputs.SCAN_GRID,
                    "--pairs", str(inputs.SCAN_PAIRS), "--seed", str(inputs.new_seed(rng)), "--out-csv", str(csv_path)]
            self.cli(bases, args, lambda c, r: self.check_scan(c, r, csv_path, fixed))

    def check_scan(self, code: int, report: dict, csv_path: Path, fixed: str) -> None:
        if self.oracle is None:
            raise OpFailure("no oracle prediction: every set-up probe failed")
        checks.check_conjugate_scan(
            code, report, csv_path.read_text(), self.oracle["grid"],
            self.oracle["scan_probabilities"][fixed], inputs.SCAN_PAIRS,
        )


class GeometrySweep(Workload):
    """Seeded custom geometries: in-process sweep chunks, plus epr-check --fits --config."""

    name = "geometry-sweep"

    def __init__(self, bench: Bench, seed: int):
        super().__init__(bench, seed)
        self.sweep = True
        self.proc = None
        self.attempted_chunks = 0
        self.geometries: list[dict] = []
        self.known_defect: str | None = "not probed: the sweep child did not start"

    def cycle(self) -> None:
        rng = self.rng()
        geo = inputs.generate_geometry(rng)
        widths = inputs.generate_fit_widths(rng)
        reports = [self.write(f"fit_{self.index}_{b}{i}.json", inputs.fit_report(b, s))
                   for b in ("x", "p") for i, s in enumerate(widths[b])]
        config = self.write(f"geometry_{self.index}.cfg", inputs.geometry_config(geo))
        self.cli("epr-check-fits", ["epr-check", "--fits", *reports, "--config", config],
                 lambda c, r: checks.check_fit_witness(c, r, widths, geo["image_distance_mm"]))
        if self.sweep:
            self.sweep_chunk()

    def sweep_chunk(self) -> None:
        """Run the long-lived sweep child for SWEEP_CHUNK_S more seconds."""
        if self.proc is None:
            self.stderr = open(self.bench.work / "sweep_stderr.txt", "w")
            self.proc = subprocess.Popen(
                [PYTHON, CALLS, "sweep", "--seed", str(self.seed)], cwd=self.bench.work, env=self.bench.env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr, text=True,
            )
        timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            if self.attempted_chunks == 0:
                if self.proc.stdout.readline().strip() != "ready":
                    raise OpFailure("sweep child did not start")
                self.probe_known_defect()
            self.attempted_chunks += 1
            self.proc.stdin.write(f"run {SWEEP_CHUNK_S}\n")
            self.proc.stdin.flush()
            records = json.loads(self.proc.stdout.readline())
        except (OpFailure, OSError, ValueError) as exc:
            self.attempted += 1
            self.fail("sweep", f"{type(exc).__name__}: {exc}")
            self.sweep = False
            return
        finally:
            timer.cancel()
        for record in records:
            self.geometries.append(record)
            self.attempted += 1
            if not record["ok"]:
                self.fail(f"geometry/{record['index']}", record["error"], wrong=record.get("wrong", False))

    def probe_known_defect(self) -> None:
        """Set up the known-defect geometry once; reported, not counted as an operation."""
        self.proc.stdin.write("probe\n")
        self.proc.stdin.flush()
        self.known_defect = json.loads(self.proc.stdout.readline())["known_defect"]

    def close(self) -> None:
        if self.proc is None:
            return
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.stderr.close()
        self.rss.append(usage.ru_maxrss / 1024.0)

    def ops_per_s(self) -> float:
        """Geometries set up and predicted per second, import excluded."""
        done = sum(1 for g in self.geometries if g["ok"])
        return done / sum(g["seconds"] for g in self.geometries)


WORKLOAD_TYPES = {cls.name: cls for cls in (Tables, Session, Scans, GeometrySweep)}


def reference_probe() -> float:
    """Fixed pure-Python work that never touches eprqkd: a host-speed gauge."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - start


def host_info() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": sys.platform,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() in ("model name", "cache size"):
                    info[key.strip().replace(" ", "_")] = value.strip()
    except OSError:
        pass
    try:
        info["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        info["git_commit"] = None
    return info


def measure(workloads: list[Workload], seconds: float) -> list[float]:
    """Interleaved cycles until the time is up; every cycle probes set-up first.

    A cycle starts only if it is expected to end no later than half a cycle
    past the deadline.  Returns the reference-probe timings, one per cycle.
    """
    deadline = time.perf_counter() + seconds
    ref = []
    try:
        while True:
            started = time.perf_counter()
            for wl in workloads:
                wl.setup_probe()
                wl.cycle()
            ref.append(reference_probe())
            now = time.perf_counter()
            if now + 0.5 * (now - started) > deadline:
                return ref
    finally:
        for wl in workloads:
            wl.close()


def timed_run(args, bench: Bench) -> tuple[dict, dict]:
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    workloads = [WORKLOAD_TYPES[n](bench, args.seed) for n in names]
    ref = measure(workloads, args.seconds)
    metrics, details = {}, {}
    for wl in workloads:
        prefix = "" if len(workloads) == 1 else wl.name + "."
        for key, value in wl.metrics().items():
            metrics[prefix + key] = value
        details[wl.name] = {
            "setup_s": wl.setup_times,
            "cli_wall_s": dict(wl.walls),
            "peak_rss_mb": max(wl.rss),
            "attempted": wl.attempted,
            "failures": wl.failures,
            "failed_frac": len(wl.failures) / wl.attempted,
        }
        if isinstance(wl, GeometrySweep):
            details[wl.name]["geometries"] = len(wl.geometries)
            details[wl.name]["geometries_per_s"] = wl.ops_per_s()
            details[wl.name]["known_defect"] = wl.known_defect
    return metrics, {"workloads": workloads, "details": details, "reference_probe_s": ref}


def traced_run(args, bench: Bench) -> tuple[dict, dict]:
    """One in-process replay with spans, plus one untraced cycle to size the gap."""
    ref = [reference_probe() for _ in range(5)]
    child = bench.run([PYTHON, CALLS, "trace", "--seed", str(args.seed), "--work", str(bench.work)])
    try:
        replay = json.loads(_last_line(child.out))
    except ValueError:
        replay = None
    if child.code != 0 or replay is None or replay["metrics"] is None:
        reason = replay["failures"] if replay else _last_line(child.err)
        raise SystemExit(f"traced replay failed: {reason}")
    bench.versions = replay["versions"]
    shutil.copy(bench.work / "spans.json", OUT_DIR / f"spans_{args.workload}_seed{args.seed}.json")

    wl = WORKLOAD_TYPES[args.workload](bench, args.seed)
    if isinstance(wl, GeometrySweep):
        wl.sweep = False  # the replay's geometries stand in for the sweep
    wl.setup_probe()
    wl.cycle()
    cold = [w for kind in wl.walls.values() for w in kind]
    replayed = replay["op_seconds"][args.workload]
    metrics = dict(replay["metrics"])
    # Cold CLI wall minus the in-process replay of the same kind of operation:
    # interpreter start, import, set-up, argument parsing and report output.
    metrics["trace.cli_gap_s"] = statistics.fmean(cold) - statistics.fmean(replayed)

    replayed_ops = SimpleNamespace(attempted=replay["attempted"], failures=replay["failures"], wrong=replay["wrong"])
    details = {"cold_walls": cold, "replay_op_seconds": replay["op_seconds"]}
    return metrics, {"workloads": [wl, replayed_ops], "details": details, "reference_probe_s": ref}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def summary_lines(args, metrics: dict, units: dict, record: dict) -> list[str]:
    lines = [f"eprqkd benchmark: workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}"]
    for key, value in metrics.items():
        lines.append(f"  {key:<52} {value:>14.6g} {units[key]}")
    for name, info in record["details"].items():
        if isinstance(info, dict) and "failed_frac" in info:
            lines.append(f"  {name + '.failed_frac':<52} {info['failed_frac']:>14.6g} ratio "
                         f"({len(info['failures'])} of {info['attempted']})")
            if "geometries_per_s" in info:
                lines.append(f"  {name + '.geometries_per_s':<52} {info['geometries_per_s']:>14.6g} 1/s "
                             f"({info['geometries']} geometries)")
                outcome = info["known_defect"] or "fixed: the geometry sets up"
                lines.append(f"  {name + '.known_defect':<52} {outcome}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace and args.workload == "all":
        parser.error("--trace 1 needs one workload; its replay covers every layer anyway")
    if not (SRC / "eprqkd" / "__init__.py").is_file():
        print(f"error: no eprqkd sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(work)
    host = host_info()
    load_before = os.getloadavg()
    try:
        metrics, record = (traced_run if args.trace else timed_run)(args, bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ref = record.pop("reference_probe_s")
    provenance = dict(
        host, versions=bench.versions, loadavg_before=load_before, loadavg_after=os.getloadavg(),
        reference_probe_median_s=statistics.median(ref), reference_probe_s=ref,
    )

    declared = declared_units(args.trace)
    units = {k: declared[k.split(".", 1)[1] if args.workload == "all" else k] for k in metrics}
    if args.workload != "all" and set(metrics) != set(declared):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    workloads = record.pop("workloads")
    failures = [f for wl in workloads for f in wl.failures]
    wrong = [f for wl in workloads for f in wl.wrong]
    result = {
        "correct": not wrong,
        "attempted": sum(wl.attempted for wl in workloads),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(dict(result, failures=failures, provenance=provenance, **record), fh, indent=1)
    for line in summary_lines(args, metrics, units, record):
        print(line)
    for failure in failures[:20]:
        print(f"  failed: {failure}")
    print("provenance: " + json.dumps(provenance))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
