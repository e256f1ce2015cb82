"""Output checks for every benchmark operation.

Each check raises CheckError naming what is wrong.  Table and witness
arithmetic is redone here in the package's operation order, so those results
must match exactly.  Monte Carlo outputs are checked statistically or by
exact count identities, never against a recorded random stream, so a sampler
that changes the stream but keeps the law still passes.
"""

from __future__ import annotations

import csv
import io
import math

import bench_inputs as inputs

EXIT_OK = 0
EXIT_ABORTED = 4
DUAN_BOUND = 0.25
FLAT_RATIO_BOUND = 1.3
SESSION_Z = 4.0
SCAN_Z = 5.0
ATTACKED_QBER_RANGE = (0.20, 0.35)
VARIANCE_TOL = 1e-8
CELL_REL_TOL = 1e-9


class CheckError(Exception):
    """An operation produced an output that is wrong."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _expect_exit(exit_code: int, wanted: int) -> None:
    _expect(exit_code == wanted, f"exit code {exit_code}, expected {wanted}")


def _equal(name: str, got, want) -> None:
    _expect(got == want, f"{name} = {got!r}, expected {want!r}")


def _blocks(counts):
    def block(rows, cols):
        return [[counts[r][c] for c in cols] for r in rows]

    x, p = (0, 1), (2, 3)
    return {"xx": block(x, x), "pp": block(p, p), "xp": block(x, p), "px": block(p, x)}


def _uncertainty(q: float, total: float) -> float:
    return math.sqrt(max(q * (1.0 - q), 0.0) / total)


def table_rates(counts) -> dict:
    """Error rates of a 4x4 table, in the package's order of operations."""
    b = _blocks(counts)
    wrong_xx = float(b["xx"][0][1] + b["xx"][1][0])
    wrong_pp = float(b["pp"][0][1] + b["pp"][1][0])
    total_xx = float(sum(map(sum, b["xx"])))
    total_pp = float(sum(map(sum, b["pp"])))
    total = total_xx + total_pp
    wrong = wrong_xx + wrong_pp
    qber = wrong / total
    return {
        "qber": qber,
        "qber_uncertainty": _uncertainty(qber, total),
        "wrong_counts": wrong,
        "right_counts": total - wrong,
        "qber_xx": wrong_xx / total_xx,
        "qber_pp": wrong_pp / total_pp,
    }


def eve_rates(counts, p1: float, p2: float) -> dict:
    """Intercept-resend prediction, in the package's order of operations."""
    b = _blocks(counts)
    weights = (float(p1), float(p2))
    grand = float(sum(map(sum, counts)))
    wrong_same = float(b["xx"][0][1] + b["xx"][1][0] + b["pp"][0][1] + b["pp"][1][0])
    chi = sum(
        weights[t] * float(sum(row[t] for row in b["xp"]) + sum(row[t] for row in b["px"]))
        for t in (0, 1)
    )
    qber = (wrong_same + chi) / grand
    return {
        "qber": qber,
        "qber_uncertainty": _uncertainty(qber, grand),
        "wrong_counts": wrong_same + chi,
        "right_counts": grand - wrong_same - chi,
        "chi_counts": chi,
    }


def witness(var_x, var_p, unc_x=None, unc_p=None) -> dict:
    """The variance-product witness, in the package's order of operations."""
    mean_x = sum(var_x) / len(var_x)
    mean_p = sum(var_p) / len(var_p)
    product = mean_x * mean_p
    product_unc = sigma_distance = None
    if unc_x is not None and unc_p is not None:
        unc_mean_x = math.sqrt(sum(u * u for u in unc_x)) / len(unc_x)
        unc_mean_p = math.sqrt(sum(u * u for u in unc_p)) / len(unc_p)
        product_unc = product * math.hypot(unc_mean_x / mean_x, unc_mean_p / mean_p)
        if product_unc > 0:
            sigma_distance = (DUAN_BOUND - product) / product_unc
    return {
        "var_x_mm2": list(var_x),
        "var_p_hbar2_per_mm2": list(var_p),
        "product_hbar2": product,
        "bound_hbar2": DUAN_BOUND,
        "satisfied": product < DUAN_BOUND,
        "sigma_distance": sigma_distance,
        "product_uncertainty_hbar2": product_unc,
    }


def _expect_fields(results: dict, expected: dict) -> None:
    for key, want in expected.items():
        _equal(key, results.get(key), want)


def check_qber(exit_code: int, report: dict, counts) -> None:
    _expect_exit(exit_code, EXIT_OK)
    _expect_fields(report["results"], table_rates(counts))


def check_eve(exit_code: int, report: dict, counts, p1: float, p2: float) -> None:
    _expect_exit(exit_code, EXIT_OK)
    _expect_fields(report["results"], eve_rates(counts, p1, p2))


def check_witness(exit_code: int, report: dict, var_x, var_p, unc_x=None, unc_p=None) -> None:
    _expect_exit(exit_code, EXIT_OK)
    _expect_fields(report["results"], witness(var_x, var_p, unc_x, unc_p))


def check_fit_witness(exit_code: int, report: dict, widths: dict, image_distance_mm: float) -> None:
    """epr-check --fits: widths converted with the station's scales, then the witness."""
    alpha = inputs.OBJECT_DISTANCE_MM / (2.0 * image_distance_mm)
    k_over_f = inputs.WAVENUMBER_PER_MM / inputs.FOCAL_LENGTH_MM
    var_x = [(alpha * s) ** 2 for s in widths["x"]]
    var_p = [(k_over_f * s) ** 2 for s in widths["p"]]
    check_witness(exit_code, report, var_x, var_p)


def parse_table_csv(text: str) -> list[list[int]]:
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    _expect(len(rows) == 5, f"table file has {len(rows)} rows, expected 5")
    return [[int(v) for v in row[1:]] for row in rows[1:]]


def check_clean_session(
    exit_code: int, report: dict, key_a: str, key_b: str, table_text: str,
    coincidences: int, estimation_pairs: int, predicted_qber: float,
) -> None:
    """Clean session: not aborted, QBER near the oracle, keys consistent with the table.

    Key mismatches must equal the table's same-basis wrong count minus the
    wrong pairs spent on estimation; key length must equal the same-basis
    total minus the estimation pairs.  Both are exact count identities.
    """
    _expect_exit(exit_code, EXIT_OK)
    res = report["results"]
    _expect(res["aborted"] is False, "clean session aborted")
    sigma = math.sqrt(predicted_qber * (1.0 - predicted_qber) / estimation_pairs)
    z = (res["qber_estimate"] - predicted_qber) / sigma
    _expect(abs(z) <= SESSION_Z, f"QBER {res['qber_estimate']} is {z:.2f} sigma from oracle {predicted_qber:.5f}")

    counts = parse_table_csv(table_text)
    _equal("table total", sum(map(sum, counts)), coincidences)
    b = _blocks(counts)
    same_total = sum(map(sum, b["xx"])) + sum(map(sum, b["pp"]))
    same_wrong = b["xx"][0][1] + b["xx"][1][0] + b["pp"][0][1] + b["pp"][1][0]

    bits_a, bits_b = key_a.strip(), key_b.strip()
    _equal("alice key length", len(bits_a), res["key_bits"])
    _equal("bob key length", len(bits_b), res["key_bits"])
    _expect(set(bits_a) <= {"0", "1"} and set(bits_b) <= {"0", "1"}, "key file holds non-bits")
    _equal("key_bits", res["key_bits"], same_total - estimation_pairs)
    spent_wrong = round(res["qber_estimate"] * estimation_pairs)
    mismatches = sum(a != b for a, b in zip(bits_a, bits_b))
    _equal("key mismatches", mismatches, same_wrong - spent_wrong)


def check_attacked_session(exit_code: int, report: dict) -> None:
    _expect_exit(exit_code, EXIT_ABORTED)
    res = report["results"]
    _expect(res["aborted"] is True, "attacked session did not abort")
    lo, hi = ATTACKED_QBER_RANGE
    _expect(lo <= res["qber_estimate"] <= hi, f"attacked QBER {res['qber_estimate']} outside [{lo}, {hi}]")


def check_from_scans(exit_code: int, report: dict) -> None:
    """epr-check --from-scans: four peaked same-basis fits give a satisfied witness."""
    _expect_exit(exit_code, EXIT_OK)
    res = report["results"]
    for key in ("var_x_mm2", "var_p_hbar2_per_mm2"):
        values = res[key]
        _expect(len(values) == 2 and all(v > 0 and math.isfinite(v) for v in values), f"{key} = {values}")
    _expect(res["satisfied"] is True, f"witness not satisfied: product {res['product_hbar2']}")


def check_conjugate_scan(
    exit_code: int, report: dict, scan_csv: str, positions, probabilities, pairs: int
) -> None:
    """Conjugate scan: flat, and every point within SCAN_Z sigma of the oracle count."""
    _expect_exit(exit_code, EXIT_OK)
    res = report["results"]
    _expect(res["flat"] is True and res["fit"]["sigma_mm"] is None, "conjugate scan fitted as a peak")
    _expect(res["max_min_ratio"] < FLAT_RATIO_BOUND, f"max/min ratio {res['max_min_ratio']}")
    rows = [r for r in csv.reader(io.StringIO(scan_csv)) if r][1:]
    _equal("scan points", len(rows), len(positions))
    counts = []
    for (pos_text, count_text), pos, prob in zip(rows, positions, probabilities):
        _equal("scan position", pos_text, f"{pos:.6g}")
        count = int(count_text)
        expected = pairs * prob
        z = (count - expected) / math.sqrt(expected)
        _expect(abs(z) <= SCAN_Z, f"count {count} at {pos_text} mm is {z:.2f} sigma from oracle {expected:.1f}")
        counts.append(count)
    mean = sum(counts) / len(counts)
    _expect(math.isclose(res["fit"]["offset_counts"], mean, rel_tol=1e-12), "flat offset is not the mean count")


def check_geometry(result: dict) -> None:
    """One swept geometry: calibration round trip and the oracle's 16 cells."""
    for basis in ("x", "p"):
        got, target = result[f"detected_var_{basis}"], result[f"target_var_{basis}"]
        _expect(abs(got - target) <= VARIANCE_TOL, f"detected variance {basis} = {got}, target {target}")
    cells = result["cells"]
    _expect(all(0.0 <= c <= 1.0 for row in cells for c in row), "cell probability outside [0, 1]")
    b = _blocks(cells)
    for name in ("xp", "px"):
        m = b[name]
        lhs, rhs = m[0][0] * m[1][1], m[0][1] * m[1][0]
        _expect(math.isclose(lhs, rhs, rel_tol=CELL_REL_TOL), f"{name} block does not factorize")
    # equalize_levels brings each basis' right cells to a common geometric
    # mean; the two cells of one basis agree only for symmetric slits.
    level_x = math.sqrt(b["xx"][0][0] * b["xx"][1][1])
    level_p = math.sqrt(b["pp"][0][0] * b["pp"][1][1])
    _expect(math.isclose(level_x, level_p, rel_tol=CELL_REL_TOL), f"right-cell levels differ: xx {level_x}, pp {level_p}")
    q = result["qber_pred"]
    _expect(0.0 <= q < 0.5, f"predicted QBER {q}")


def predicted_qber(cells) -> float:
    """QBER the oracle predicts: same-basis wrong cells over same-basis cells."""
    b = _blocks(cells)
    wrong = b["xx"][0][1] + b["xx"][1][0] + b["pp"][0][1] + b["pp"][1][0]
    total = sum(map(sum, b["xx"])) + sum(map(sum, b["pp"]))
    return wrong / total
