import dataclasses
import json
import math

import numpy as np
import pytest

import oracles
from sphererec import geometry
from sphererec.hypersphere import write_json
from sphererec.geometry import (CircleConfig, SweepRow, config_metrics, sweep_moving_point,
                                verify_low_variance_claim)


def oracle_metrics(angles):
    points = geometry.circle_points(angles).tolist()
    return oracles.uniform_part(points), oracles.kernel_variance(points)


class TestConfigMetrics:
    def test_equilateral(self):
        loss, variance = config_metrics(CircleConfig((0.0, 120.0, 240.0)))
        assert loss == pytest.approx(-6.0, abs=1e-6)
        assert variance == pytest.approx(0.0, abs=1e-12)

    def test_collapsed_pair_plus_antipode(self):
        loss, variance = config_metrics(CircleConfig((0.0, 0.0, 180.0)))
        expected_loss, expected_variance = oracle_metrics([0.0, 0.0, 180.0])
        assert expected_loss == pytest.approx(math.log((1 + 2 * math.e**-8) / 3), abs=1e-9)
        assert loss == pytest.approx(expected_loss, abs=1e-10)
        assert variance == pytest.approx(expected_variance, abs=1e-10)

    def test_antipodal_pair(self):
        loss, variance = config_metrics(CircleConfig((0.0, 180.0)))
        assert loss == pytest.approx(-8.0, abs=1e-6)
        assert variance == 0.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            CircleConfig((45.0,))

    def test_rotation_invariance(self):
        base = config_metrics(CircleConfig((0.0, 37.0, 204.0)))
        rotated = config_metrics(CircleConfig((90.0, 127.0, 294.0)))
        assert rotated[0] == pytest.approx(base[0], abs=1e-12)
        assert rotated[1] == pytest.approx(base[1], abs=1e-12)


class TestSweep:
    def test_default_sweep_shape_and_minimum(self):
        rows = sweep_moving_point((0.0, 120.0), 1.0)
        assert len(rows) == 360
        losses = [row.uniform_loss for row in rows]
        best = rows[int(np.argmin(losses))]
        assert best.moving_angle_deg == 240.0
        assert best.kernel_variance <= 1e-12

    def test_coarse_step(self):
        assert len(sweep_moving_point((0.0, 120.0), 90.0)) == 4

    def test_bad_steps_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            sweep_moving_point((0.0, 120.0), 7.0)
        with pytest.raises(ValueError, match="positive"):
            sweep_moving_point((0.0, 120.0), 0.0)

    def test_rows_match_config_metrics(self):
        rows = sweep_moving_point((0.0, 120.0), 90.0)
        for row in rows:
            loss, variance = config_metrics(
                CircleConfig((0.0, 120.0, row.moving_angle_deg)))
            assert row.uniform_loss == loss
            assert row.kernel_variance == variance


class TestVerifyLowVarianceClaim:
    def test_equilateral_minimum_has_zero_variance(self):
        verification = verify_low_variance_claim(sweep_moving_point((0.0, 120.0), 1.0))
        assert verification.min_loss_angle_deg == 240.0
        assert verification.variance_at_min <= 1e-12

    def test_loss_and_variance_co_move(self):
        verification = verify_low_variance_claim(sweep_moving_point((0.0, 120.0), 1.0))
        assert verification.rank_correlation > 0.0

    def test_variance_stays_below_collapsed_case(self):
        _, collapsed_variance = config_metrics(CircleConfig((0.0, 0.0, 180.0)))
        rows = sweep_moving_point((0.0, 120.0), 1.0)
        assert all(row.kernel_variance < collapsed_variance for row in rows)

    def test_constant_sweep_reports_nan(self):
        rows = [SweepRow(angle, -1.0, 0.25) for angle in (0.0, 90.0, 180.0)]
        verification = verify_low_variance_claim(rows)
        assert math.isnan(verification.rank_correlation)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            verify_low_variance_claim([])


def test_csv_and_json_outputs(tmp_path):
    rows = sweep_moving_point((0.0, 120.0), 90.0)
    geometry.sweep_to_csv(rows, tmp_path / "sweep.csv")
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "moving_angle,uniform_loss,kernel_variance"
    assert len(lines) == 5
    verification = verify_low_variance_claim(rows)
    write_json(tmp_path / "verify.json", dataclasses.asdict(verification))
    written = json.loads((tmp_path / "verify.json").read_text())
    assert list(written) == ["min_loss_angle_deg", "variance_at_min", "rank_correlation"]
    assert written["min_loss_angle_deg"] == verification.min_loss_angle_deg
