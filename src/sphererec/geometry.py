"""Unit-circle demonstrator: uniformity versus kernel variance for small point sets.

Sweeping one point of a 3-point configuration around the circle traces how
the pairwise-kernel uniformity loss and the kernel-value variance co-move:
the variance reaches zero exactly where the configuration is most uniform
(the equilateral arrangement), and collapsed configurations score a
deceptively low uniformity loss while their variance spikes.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np
from scipy.stats import spearmanr

from .hypersphere import write_csv
from .losses import uniformity_and_variance


@dataclass(frozen=True)
class CircleConfig:
    """Point angles (degrees) on the unit circle."""

    angles_deg: tuple[float, ...]

    def __post_init__(self):
        if len(self.angles_deg) < 2:
            raise ValueError("need at least 2 points")
        if not all(math.isfinite(a) for a in self.angles_deg):
            raise ValueError("angles must be finite")


@dataclass(frozen=True)
class SweepRow:
    moving_angle_deg: float
    uniform_loss: float
    kernel_variance: float


@dataclass(frozen=True)
class SweepVerification:
    """Summary of one sweep: loss argmin, variance there, loss/variance co-movement.

    rank_correlation is the Spearman coefficient between uniform_loss and
    kernel_variance across rows; NaN when either column is constant.
    """

    min_loss_angle_deg: float
    variance_at_min: float
    rank_correlation: float


def circle_points(angles_deg) -> np.ndarray:
    """Embed angles as 2-D unit vectors."""
    radians = np.deg2rad(np.asarray(angles_deg, dtype=np.float64))
    return np.column_stack([np.cos(radians), np.sin(radians)])


def config_metrics(cfg: CircleConfig) -> tuple[float, float]:
    """(uniform_loss, kernel_variance) of the configuration's point set."""
    return uniformity_and_variance(circle_points(cfg.angles_deg))


def sweep_moving_point(
    fixed_angles_deg: tuple[float, float] = (0.0, 120.0),
    step_deg: float = 1.0,
) -> list[SweepRow]:
    """Scan a third point over [0, 360) and record both metrics per position."""
    if step_deg <= 0:
        raise ValueError(f"step must be positive, got {step_deg}")
    count = 360.0 / step_deg
    if abs(count - round(count)) > 1e-9:
        raise ValueError(f"step must divide 360 evenly, got {step_deg}")
    rows = []
    for index in range(int(round(count))):
        moving = index * step_deg
        loss, variance = config_metrics(CircleConfig((*fixed_angles_deg, moving)))
        rows.append(SweepRow(moving_angle_deg=moving, uniform_loss=loss, kernel_variance=variance))
    return rows


def verify_low_variance_claim(rows: list[SweepRow]) -> SweepVerification:
    """Check that low variance accompanies high uniformity across a sweep."""
    if not rows:
        raise ValueError("empty sweep")
    losses = np.array([row.uniform_loss for row in rows])
    variances = np.array([row.kernel_variance for row in rows])
    best = int(np.argmin(losses))
    if np.ptp(losses) == 0.0 or np.ptp(variances) == 0.0:
        correlation = float("nan")
    else:
        correlation = float(spearmanr(losses, variances).statistic)
    return SweepVerification(
        min_loss_angle_deg=rows[best].moving_angle_deg,
        variance_at_min=float(variances[best]),
        rank_correlation=correlation,
    )


def sweep_to_csv(rows: list[SweepRow], path) -> None:
    # the header says `moving_angle` for the moving_angle_deg field; sweep.csv readers use it
    write_csv(path, ["moving_angle", "uniform_loss", "kernel_variance"], map(astuple, rows))
