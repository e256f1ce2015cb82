"""Seeded inputs for the benchmark workloads.

Every generator takes a ``random.Random`` made by ``op_rng`` from the
workload seed, the workload name and the operation index, so the same seed
always yields the same inputs and the i-th operation does not depend on how
many operations ran before it.  Nothing here imports eprqkd: the program sees
only the files and argv values built from these numbers.
"""

from __future__ import annotations

import json
import random

ALICE_LABELS = ("Ax1", "Ax2", "Ap1", "Ap2")
BOB_LABELS = ("Bx1", "Bx2", "Bp1", "Bp2")

# The bundled reference table (rows Ax1..Ap2, columns Bx1..Bp2).  Kept here so
# the checks do not trust the file the program reads.
REFERENCE_TABLE = (
    (943, 67, 462, 614),
    (72, 1079, 492, 591),
    (700, 671, 956, 29),
    (655, 765, 22, 876),
)

# Default experiment used by the session and scan workloads.
SESSION_COINCIDENCES = 100_000
SESSION_ESTIMATION_PAIRS = 10_000
SCAN_GRID = "1.0:2.0:0.05"
SCAN_PAIRS = 1_500_000
FROM_SCANS_PAIRS = 200_000
CONJUGATE_SCANS = (("Ax1", "xp"), ("Ax2", "xp"), ("Ap1", "px"), ("Ap2", "px"))

# Parts of a custom geometry the sweep keeps at the CLI's config defaults.
TARGET_VAR_X_MM2 = 0.116
TARGET_VAR_P_HBAR2_MM2 = 0.894
SIGMA_PLUS_MM = 1.8
KAPPA_PLUS_PER_MM = 3.7
PUMP_WAIST_MM = 2.0
OBJECT_DISTANCE_MM = 200.0
FOCAL_LENGTH_MM = 150.0
WAVENUMBER_PER_MM = 330.0
ORIGIN_MM = 1.5

# Physical geometry ranges for the sweep.  Image distances above ~120 mm give
# unphysical sources; slits never overlap because the separation exceeds the
# widest slit.
GEOMETRY_RANGES = {
    "x_slit_mm": (0.1, 0.4),
    "p_slit_mm": (0.2, 0.6),
    "image_distance_mm": (70.0, 100.0),
    "detector1_mm": (0.9, 1.1),
    "separation_mm": (0.8, 1.2),
}

# Slit widths come from a catalog in 0.01 mm steps, as real slits do; the
# other lengths are continuous.  A continuous slit width would also hit the
# defect below on about 0.1% of draws, and a workload must not fail on its
# own inputs, so the defect is probed on its own instead.
SLIT_STEPS_PER_MM = 100
CATALOG_SLITS = ("x_slit_mm", "p_slit_mm")

# A geometry on which calibrate_source raises QuadratureError: brentq's probe
# near zero width makes detected_variance's error estimate exceed its 1e-8
# tolerance.  The failure depends on the p-slit width alone and hits a sparse,
# irregular set of widths, none of them catalog widths.  Each geometry-sweep
# run and each traced run sets it up once and reports the outcome.
KNOWN_DEFECT_GEOMETRY = {
    "x_slit_mm": 0.23959404775665646,
    "p_slit_mm": 0.3201709872567525,
    "image_distance_mm": 99.62577827047394,
    "detector1_mm": 0.9574357597445292,
    "separation_mm": 0.9736726675712876,
    "detector2_mm": 1.9311084273158168,
}


def op_rng(seed: int, workload: str, index: int) -> random.Random:
    """Independent stream for one operation of one workload."""
    return random.Random(f"{workload}/{seed}/{index}")


def new_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def generate_table(rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """A 4x4 coincidence table shaped like a real run.

    Same-basis right cells are large, same-basis wrong cells small but may
    be zero, cross-basis cells middling.  Every same-basis block is non-empty.
    """
    rows = []
    for i in range(4):
        row = []
        for j in range(4):
            same_basis = (i < 2) == (j < 2)
            if same_basis and i % 2 == j % 2:
                row.append(rng.randint(200, 5000))
            elif same_basis:
                row.append(rng.randint(0, 400))
            else:
                row.append(rng.randint(50, 3000))
        rows.append(tuple(row))
    return tuple(rows)


def table_csv(counts) -> str:
    lines = ["," + ",".join(BOB_LABELS)]
    for label, row in zip(ALICE_LABELS, counts):
        lines.append(label + "," + ",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def generate_resend(rng: random.Random) -> tuple[float, float]:
    """Per-detector resend probabilities for eve-predict."""
    return rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)


def generate_variances(rng: random.Random) -> dict[str, list[float]]:
    """Two position and two momentum variances with their uncertainties."""
    return {
        "var_x": [rng.uniform(0.05, 0.3) for _ in range(2)],
        "var_p": [rng.uniform(0.4, 1.2) for _ in range(2)],
        "unc_x": [rng.uniform(0.001, 0.02) for _ in range(2)],
        "unc_p": [rng.uniform(0.005, 0.1) for _ in range(2)],
    }


def session_config(attacked: bool) -> str:
    """Config file for a default-geometry session, clean or under attack."""
    policy = "uniform_random" if attacked else "none"
    return (
        f"session.coincidences = {SESSION_COINCIDENCES}\n"
        f"session.estimation_pairs = {SESSION_ESTIMATION_PAIRS}\n"
        f"attack.policy = {policy}\n"
    )


def generate_geometry(rng: random.Random) -> dict[str, float]:
    """One physical station geometry; detector 2 sits one separation past detector 1."""
    geo = {}
    for name, (lo, hi) in GEOMETRY_RANGES.items():
        if name in CATALOG_SLITS:
            steps = rng.randint(round(lo * SLIT_STEPS_PER_MM), round(hi * SLIT_STEPS_PER_MM))
            geo[name] = steps / SLIT_STEPS_PER_MM
        else:
            geo[name] = rng.uniform(lo, hi)
    geo["detector2_mm"] = geo["detector1_mm"] + geo["separation_mm"]
    return geo


def geometry_config(geo: dict[str, float]) -> str:
    """The same geometry as a ``--config`` file (values round-trip exactly)."""
    return (
        f"station.image_distance_mm = {geo['image_distance_mm']!r}\n"
        f"station.x_slit_width_mm = {geo['x_slit_mm']!r}\n"
        f"station.p_slit_width_mm = {geo['p_slit_mm']!r}\n"
        f"station.detector1_mm = {geo['detector1_mm']!r}\n"
        f"station.detector2_mm = {geo['detector2_mm']!r}\n"
    )


def generate_fit_widths(rng: random.Random) -> dict[str, list[float]]:
    """Fitted peak widths (detection-plane mm) of two xx and two pp scans."""
    return {
        "x": [rng.uniform(0.15, 0.35) for _ in range(2)],
        "p": [rng.uniform(0.3, 0.6) for _ in range(2)],
    }


def fit_report(basis: str, sigma_mm: float) -> str:
    """A saved same-basis scan report, as ``epr-check --fits`` reads it."""
    return json.dumps({"results": {"basis_pair": basis + basis, "fit": {"sigma_mm": sigma_mm}}})
