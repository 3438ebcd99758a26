"""Baseline power statistics (paper §3.2).

The paper characterises the service's baseline as the mean compute-cabinet
power over a multi-month window (3,220 kW for Dec 2021 – Apr 2022, the
orange line in Figure 1). This module computes that mean plus the spread
statistics needed to judge whether later differences are real, and compares
measured baselines against the inventory's bounding values (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from ..facility.inventory import FacilityInventory
from ..telemetry.series import TimeSeries
from ..telemetry.streaming import (
    DEFAULT_CHUNK_SIZE,
    ChunkedSeriesReader,
    MergingQuantileSketch,
    OnlineStats,
    as_chunk_reader,
)

__all__ = ["BaselineStats", "summarise", "summarise_streaming", "compare_to_inventory"]


@dataclass(frozen=True)
class BaselineStats:
    """Summary statistics of a power series (all in the series' unit)."""

    mean: float
    std: float
    p5: float
    median: float
    p95: float
    minimum: float
    maximum: float
    n_samples: int
    span_days: float

    @property
    def standard_error(self) -> float:
        """Naive standard error of the mean (ignores autocorrelation).

        Power telemetry is strongly autocorrelated, so treat this as a lower
        bound on the true uncertainty; the change-point analysis handles
        significance properly.
        """
        return self.std / np.sqrt(self.n_samples) if self.n_samples else float("nan")


def summarise(series: TimeSeries) -> BaselineStats:
    """Baseline statistics over a (possibly gappy) power series."""
    if series.n_valid == 0:
        raise AnalysisError(f"series {series.name!r} has no valid samples")
    p5, median, p95 = (float(x) for x in series.percentile(np.array([5.0, 50.0, 95.0])))
    return BaselineStats(
        mean=series.mean(),
        std=series.std(),
        p5=p5,
        median=median,
        p95=p95,
        minimum=series.min(),
        maximum=series.max(),
        n_samples=series.n_valid,
        span_days=series.span_s / 86_400.0,
    )


def summarise_streaming(
    source: "TimeSeries | str | ChunkedSeriesReader",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> BaselineStats:
    """Chunk-fed :func:`summarise`: one pass, chunk-bounded memory.

    Mean, standard deviation, min/max, count and span come from an
    :class:`OnlineStats` accumulator and match the batch path to float
    accumulation error; the three percentiles come from one
    :class:`~repro.telemetry.streaming.MergingQuantileSketch` (equal to the
    batch percentiles below its 16,384-sample block, rank error about
    ``F / (4 * 2048)`` after ``F`` folds beyond).
    Accepts anything :func:`~repro.telemetry.streaming.as_chunk_reader`
    does — an in-memory series, a telemetry CSV/NPZ path, or a reader.
    """
    reader = as_chunk_reader(source, chunk_size)
    stats = OnlineStats(name=reader.name)
    sketch = MergingQuantileSketch()
    for chunk in reader:
        stats.update(chunk.times_s, chunk.values)
        sketch.update(chunk.values)
    if stats.n_valid == 0:
        raise AnalysisError(f"series {reader.name!r} has no valid samples")
    return BaselineStats(
        mean=stats.mean,
        std=stats.std,
        p5=sketch.result(0.05),
        median=sketch.result(0.5),
        p95=sketch.result(0.95),
        minimum=stats.minimum,
        maximum=stats.maximum,
        n_samples=stats.n_valid,
        span_days=stats.span_s / 86_400.0,
    )


def compare_to_inventory(
    stats: BaselineStats, inventory: FacilityInventory
) -> dict[str, float]:
    """Relate a measured cabinet baseline to Table 2 bounding values.

    Returns the measured mean as a fraction of the inventory's fully loaded
    and idle compute-cabinet power — the §3.2 sanity check that the mean sits
    below full load (scheduling overheads) but far above idle (busy service).
    ``stats`` must be in watts.
    """
    loaded = inventory.compute_cabinet_power_w(1.0)
    idle = inventory.compute_cabinet_power_w(0.0)
    if loaded <= 0:
        raise AnalysisError("inventory has no compute-cabinet power")
    return {
        "measured_mean_w": stats.mean,
        "inventory_loaded_w": loaded,
        "inventory_idle_w": idle,
        "fraction_of_loaded": stats.mean / loaded,
        "fraction_of_idle": stats.mean / idle if idle else float("inf"),
    }
