"""Tests of the benchmark itself: seeded generators and output checks.

Nothing here imports eprqkd; the checks are exercised on synthetic outputs,
each once as produced and once corrupted.
"""

import copy
import random

import pytest

import bench_checks as checks
import bench_inputs as inputs
from bench_trace import Tracer

SEEDS = range(20)


def _rngs(seed, workload="tables"):
    return inputs.op_rng(seed, workload, 3), inputs.op_rng(seed, workload, 3)


class TestGenerators:
    @pytest.mark.parametrize("make", [
        inputs.generate_table, inputs.generate_resend, inputs.generate_variances,
        inputs.generate_geometry, inputs.generate_fit_widths, inputs.new_seed,
    ])
    def test_same_seed_same_inputs(self, make):
        for seed in SEEDS:
            a, b = _rngs(seed)
            assert make(a) == make(b)

    def test_streams_differ_by_seed_index_and_workload(self):
        draws = {
            inputs.op_rng(1, "tables", 1).random(),
            inputs.op_rng(2, "tables", 1).random(),
            inputs.op_rng(1, "tables", 2).random(),
            inputs.op_rng(1, "session", 1).random(),
        }
        assert len(draws) == 4

    def test_tables_are_valid(self):
        for seed in SEEDS:
            counts = inputs.generate_table(inputs.op_rng(seed, "tables", 0))
            assert len(counts) == 4 and all(len(row) == 4 for row in counts)
            assert all(isinstance(v, int) and v >= 0 for row in counts for v in row)
            blocks = checks._blocks(counts)
            assert sum(map(sum, blocks["xx"])) > 0 and sum(map(sum, blocks["pp"])) > 0

    def test_table_csv_round_trips(self):
        counts = inputs.generate_table(random.Random(5))
        assert checks.parse_table_csv(inputs.table_csv(counts)) == [list(r) for r in counts]

    def test_geometries_are_physical_and_slits_disjoint(self):
        for seed in SEEDS:
            geo = inputs.generate_geometry(inputs.op_rng(seed, "geometry-sweep", 0))
            for name, (lo, hi) in inputs.GEOMETRY_RANGES.items():
                assert lo <= geo[name] <= hi
            widest = max(geo["x_slit_mm"], geo["p_slit_mm"])
            assert geo["detector2_mm"] - geo["detector1_mm"] > widest

    def test_slit_widths_are_catalog_widths(self):
        for seed in SEEDS:
            geo = inputs.generate_geometry(inputs.op_rng(seed, "geometry-sweep", 0))
            for name in inputs.CATALOG_SLITS:
                steps = geo[name] * inputs.SLIT_STEPS_PER_MM
                assert geo[name] == round(steps) / inputs.SLIT_STEPS_PER_MM

    def test_known_defect_geometry_is_outside_the_catalog(self):
        p_slit = inputs.KNOWN_DEFECT_GEOMETRY["p_slit_mm"]
        assert p_slit != round(p_slit * inputs.SLIT_STEPS_PER_MM) / inputs.SLIT_STEPS_PER_MM

    def test_geometry_config_round_trips_exactly(self):
        geo = inputs.generate_geometry(random.Random(9))
        parsed = dict(line.split(" = ") for line in inputs.geometry_config(geo).splitlines())
        assert float(parsed["station.image_distance_mm"]) == geo["image_distance_mm"]
        assert float(parsed["station.detector2_mm"]) == geo["detector2_mm"]


def _report(results):
    return {"results": results}


class TestTableChecks:
    def test_reference_rates_match_published_values(self):
        rates = checks.table_rates(inputs.REFERENCE_TABLE)
        eve = checks.eve_rates(inputs.REFERENCE_TABLE, 0.5, 0.5)
        got = [round(v, 3) for v in (rates["qber"], rates["qber_xx"], rates["qber_pp"], eve["qber"])]
        assert got == [0.047, 0.064, 0.027, 0.296]

    def test_qber_accepts_exact_and_rejects_offset(self):
        counts = inputs.generate_table(random.Random(1))
        good = _report(checks.table_rates(counts))
        checks.check_qber(0, good, counts)
        bad = copy.deepcopy(good)
        bad["results"]["qber"] += 1e-3
        with pytest.raises(checks.CheckError):
            checks.check_qber(0, bad, counts)

    def test_eve_rejects_offset(self):
        counts = inputs.REFERENCE_TABLE
        good = _report(checks.eve_rates(counts, 0.5, 0.5))
        checks.check_eve(0, good, counts, 0.5, 0.5)
        bad = copy.deepcopy(good)
        bad["results"]["qber"] -= 1e-3
        with pytest.raises(checks.CheckError):
            checks.check_eve(0, bad, counts, 0.5, 0.5)

    def test_reference_eve_values(self):
        rates = checks.eve_rates(inputs.REFERENCE_TABLE, 0.5, 0.5)
        assert rates["chi_counts"] == 2475
        assert rates["qber"] == (190 + 2475) / 8994

    def test_witness_rejects_offset_and_wrong_exit(self):
        v = inputs.generate_variances(random.Random(2))
        args = (v["var_x"], v["var_p"], v["unc_x"], v["unc_p"])
        good = _report(checks.witness(*args))
        checks.check_witness(0, good, *args)
        bad = copy.deepcopy(good)
        bad["results"]["product_hbar2"] += 1e-3
        with pytest.raises(checks.CheckError):
            checks.check_witness(0, bad, *args)
        with pytest.raises(checks.CheckError):
            checks.check_witness(2, good, *args)


def _clean_session(seed=0):
    """A self-consistent synthetic clean session: report, keys, table."""
    rng = random.Random(seed)
    n, m = 20_000, 1_000
    counts = [[0] * 4 for _ in range(4)]
    pairs = []
    for _ in range(n):
        a, b = rng.randrange(4), rng.randrange(4)
        if (a < 2) == (b < 2):
            b = a if rng.random() > 0.03 else a ^ 1
            pairs.append((a % 2, b % 2))
        counts[a][b] += 1
    rng.shuffle(pairs)
    est, key = pairs[:m], pairs[m:]
    wrong_est = sum(a != b for a, b in est)
    results = {"aborted": False, "qber_estimate": wrong_est / m, "key_bits": len(key)}
    key_a = "".join(str(a) for a, _ in key) + "\n"
    key_b = "".join(str(b) for _, b in key) + "\n"
    return results, key_a, key_b, inputs.table_csv(counts), n, m


class TestSessionChecks:
    def test_clean_session_accepted(self):
        results, key_a, key_b, table, n, m = _clean_session()
        checks.check_clean_session(0, _report(results), key_a, key_b, table, n, m, 0.03)

    def test_one_flipped_key_bit_rejected(self):
        results, key_a, key_b, table, n, m = _clean_session()
        flipped = key_b[:10] + ("1" if key_b[10] == "0" else "0") + key_b[11:]
        with pytest.raises(checks.CheckError, match="mismatches"):
            checks.check_clean_session(0, _report(results), key_a, flipped, table, n, m, 0.03)

    def test_short_key_rejected(self):
        results, key_a, key_b, table, n, m = _clean_session()
        with pytest.raises(checks.CheckError, match="length"):
            checks.check_clean_session(0, _report(results), key_a[1:], key_b, table, n, m, 0.03)

    def test_qber_far_from_oracle_rejected(self):
        results, key_a, key_b, table, n, m = _clean_session()
        with pytest.raises(checks.CheckError, match="sigma"):
            checks.check_clean_session(0, _report(results), key_a, key_b, table, n, m, 0.10)

    def test_attacked_session(self):
        checks.check_attacked_session(4, _report({"aborted": True, "qber_estimate": 0.25}))
        with pytest.raises(checks.CheckError):
            checks.check_attacked_session(0, _report({"aborted": False, "qber_estimate": 0.25}))
        with pytest.raises(checks.CheckError):
            checks.check_attacked_session(4, _report({"aborted": True, "qber_estimate": 0.16}))


class TestScanChecks:
    POSITIONS = [1.0 + 0.05 * i for i in range(21)]
    PROBS = [0.015 + 0.0002 * i for i in range(21)]

    def _scan(self, counts, flat=True):
        csv = "position_mm,counts\n" + "".join(f"{p:.6g},{c}\n" for p, c in zip(self.POSITIONS, counts))
        report = _report({
            "flat": flat, "max_min_ratio": max(counts) / min(counts),
            "fit": {"sigma_mm": None if flat else 0.3, "offset_counts": sum(counts) / len(counts)},
        })
        return report, csv

    def test_expected_counts_accepted(self):
        counts = [round(100_000 * p) for p in self.PROBS]
        report, csv = self._scan(counts)
        checks.check_conjugate_scan(0, report, csv, self.POSITIONS, self.PROBS, 100_000)

    def test_count_off_by_many_sigma_rejected(self):
        counts = [round(100_000 * p) for p in self.PROBS]
        counts[5] += 300
        report, csv = self._scan(counts)
        with pytest.raises(checks.CheckError, match="sigma"):
            checks.check_conjugate_scan(0, report, csv, self.POSITIONS, self.PROBS, 100_000)

    def test_peaked_fit_rejected(self):
        counts = [round(100_000 * p) for p in self.PROBS]
        report, csv = self._scan(counts, flat=False)
        with pytest.raises(checks.CheckError):
            checks.check_conjugate_scan(0, report, csv, self.POSITIONS, self.PROBS, 100_000)

    def test_from_scans(self):
        good = _report({"var_x_mm2": [0.1, 0.11], "var_p_hbar2_per_mm2": [0.8, 0.9],
                        "satisfied": True, "product_hbar2": 0.09})
        checks.check_from_scans(0, good)
        bad = copy.deepcopy(good)
        bad["results"]["satisfied"] = False
        with pytest.raises(checks.CheckError):
            checks.check_from_scans(0, bad)


class TestGeometryCheck:
    def _result(self):
        # Masses of A's and B's slits; cross cells factorize, right cells share a level.
        a, b = (0.1, 0.12), (0.11, 0.09)
        xp = [[a[i] * b[j] for j in range(2)] for i in range(2)]
        cells = [
            [0.02, 0.001, *xp[0]],
            [0.001, 0.02, *xp[1]],
            [*xp[0], 0.025, 0.002],
            [*xp[1], 0.002, 0.016],
        ]
        return {
            "target_var_x": 0.116, "target_var_p": 0.894,
            "detected_var_x": 0.116 + 1e-12, "detected_var_p": 0.894 - 1e-12,
            "cells": cells, "qber_pred": checks.predicted_qber(cells),
        }

    def test_consistent_geometry_accepted(self):
        checks.check_geometry(self._result())

    def test_round_trip_miss_rejected(self):
        result = self._result()
        result["detected_var_p"] += 1e-6
        with pytest.raises(checks.CheckError, match="detected variance"):
            checks.check_geometry(result)

    def test_non_factorizing_cross_block_rejected(self):
        result = self._result()
        result["cells"][0][2] *= 1.001
        with pytest.raises(checks.CheckError, match="factorize"):
            checks.check_geometry(result)

    def test_unequal_levels_rejected(self):
        result = self._result()
        result["cells"][3][3] *= 1.01
        with pytest.raises(checks.CheckError, match="levels"):
            checks.check_geometry(result)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer", "op") as outer:
        with tracer.span("inner", "op"):
            pass
        with tracer.span("inner", "op"):
            pass
    inner = tracer.total("inner")
    assert tracer.self_time(outer) == pytest.approx(outer.duration - inner)
    assert [s.parent for s in tracer.named("inner")] == [outer.id, outer.id]
