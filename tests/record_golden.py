"""Re-record the golden digests of the seeded command outputs.

    PYTHONPATH=src python tests/record_golden.py

writes tests/golden_digests.json: a SHA-256 digest of each output of a small
fixed set of seeded commands, run in-process through cli.main, and the numpy
version that made them.  tests/test_golden.py recomputes the digests and
compares.  Re-recording changes test data: do it only when a random stream
changes on purpose, and say in CHANGES.md which stream changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

RECORD = Path(__file__).with_name("golden_digests.json")
SMALL_SESSION = "session.coincidences = 10000\nsession.estimation_pairs = 1000\n"
# name -> (run file or None, argv); "{cfg}" is that run file's path.
RUNS = {
    "simulate-clean": (SMALL_SESSION, ["simulate", "--config", "{cfg}", "--seed", "7"]),
    "simulate-attacked": (
        SMALL_SESSION + "attack.policy = uniform_random\n",
        ["simulate", "--config", "{cfg}", "--seed", "7"],
    ),
    "simulate-always-x": (
        SMALL_SESSION + "attack.policy = always_x\n",
        ["simulate", "--config", "{cfg}", "--seed", "7"],
    ),
    "simulate-always-p": (
        SMALL_SESSION + "attack.policy = always_p\n",
        ["simulate", "--config", "{cfg}", "--seed", "7"],
    ),
    "scan": (None, ["scan", "--fixed", "Ax1", "--bases", "xp", "--grid", "0:3:0.1",
                    "--pairs", "20000", "--seed", "7"]),
    # 300,000 pairs per point: two emission blocks, 2^18 pairs and the rest.
    "scan-two-blocks": (None, ["scan", "--fixed", "Ap1", "--bases", "pp", "--grid", "0:3:0.1",
                               "--pairs", "300000", "--seed", "7"]),
    "epr-check-from-scans": (None, ["epr-check", "--from-scans", "--pairs", "20000", "--seed", "7"]),
    "qber": (None, ["qber", "table1.csv"]),
}
# Report keys that name files; the files they name are digested instead.
PATH_KEYS = ("alice_key_path", "bob_key_path", "table_path")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests() -> dict[str, str]:
    """Run every command in RUNS and digest its results and the files simulate writes."""
    from eprqkd import cli

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (config, argv) in RUNS.items():
            work = Path(tmp) / name
            work.mkdir()
            argv = [arg.replace("{cfg}", str(work / "run.cfg")) for arg in argv]
            if config is not None:
                (work / "run.cfg").write_text(config)
                argv += ["--out-dir", str(work / "out")]
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                cli.main(argv)
            results = json.loads(stdout.getvalue())["results"]
            if config is not None:
                for key in PATH_KEYS:
                    out[f"{name}/{key.removesuffix('_path')}"] = _sha256(
                        Path(results[key]).read_bytes()
                    )
            for key in PATH_KEYS:
                results.pop(key, None)
            out[f"{name}/results"] = _sha256(json.dumps(results, sort_keys=True).encode())
    return out


def numpy_version() -> str:
    import numpy as np

    return np.__version__


def main() -> int:
    record = {"numpy": numpy_version(), "digests": digests()}
    RECORD.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {len(record['digests'])} digests to {RECORD}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
