"""Short-horizon carbon-intensity forecasting.

Carbon-aware operation (load shifting, maintenance-window placement) needs a
CI forecast, not just history. National grid operators publish 24–48 h
forecasts built from demand and weather models; offline we provide the two
standard reference methods any such product is benchmarked against:

* **persistence** — tomorrow looks like right now;
* **diurnal template** — tomorrow looks like the average recent day at the
  same time-of-day (captures the evening peak that matters for shifting).

Both are honest baselines with quantified skill, which is exactly what the
planning modules need.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from ..telemetry.series import TimeSeries
from ..units import SECONDS_PER_DAY, ensure_positive

__all__ = [
    "ForecastSkill",
    "ForecastWindow",
    "ForecastIndex",
    "FeedOutage",
    "ForecastFeed",
    "sample_feed_outages",
    "persistence_forecast",
    "diurnal_template_forecast",
    "evaluate_forecast",
]


def _forecast_grid(t_end_s: float, horizon_s: float, interval_s: float) -> np.ndarray:
    """Forecast timestamps: one per whole sampling interval in the horizon.

    The step count is pinned with an epsilon before flooring so an exact
    multiple never loses (or gains) its final point to float division error
    — a 24 h horizon at a 1800 s cadence yields exactly 48 points even when
    ``horizon / interval`` lands at 47.999999…; mirrors the resample grid
    fix in :mod:`repro.telemetry.series`.
    """
    n_steps = int(np.floor(horizon_s / interval_s + 1e-9))
    if n_steps < 1:
        raise AnalysisError("horizon shorter than one sampling interval")
    return t_end_s + interval_s * np.arange(1, n_steps + 1)


@dataclass(frozen=True)
class ForecastSkill:
    """Error metrics of a forecast against the realised series."""

    mae_g_per_kwh: float
    rmse_g_per_kwh: float
    mean_absolute_percentage: float

    def better_than(self, other: "ForecastSkill") -> bool:
        """Whether this forecast beats ``other`` on RMSE."""
        return self.rmse_g_per_kwh < other.rmse_g_per_kwh


def persistence_forecast(history: TimeSeries, horizon_s: float) -> TimeSeries:
    """Flat forecast at the last observed value.

    Skilful for the first hour or two (CI is strongly autocorrelated),
    degrading as the diurnal cycle turns.
    """
    ensure_positive(horizon_s, "horizon_s")
    if len(history) < 2:
        raise AnalysisError("need at least 2 samples of history")
    interval = float(np.median(np.diff(history.times_s)))
    last_valid = history.values[~np.isnan(history.values)]
    if len(last_valid) == 0:
        raise AnalysisError("history has no valid samples")
    times = _forecast_grid(history.t_end_s, horizon_s, interval)
    return TimeSeries(times, np.full(len(times), last_valid[-1]), "ci-persistence")


def diurnal_template_forecast(
    history: TimeSeries, horizon_s: float, template_days: int = 7
) -> TimeSeries:
    """Forecast from the mean recent day, indexed by time-of-day.

    Uses up to ``template_days`` of trailing history binned by time-of-day
    at the sampling cadence; bins with no valid history fall back to the
    overall mean.
    """
    ensure_positive(horizon_s, "horizon_s")
    if template_days < 1:
        raise AnalysisError("template_days must be at least 1")
    if len(history) < 2:
        raise AnalysisError("need at least 2 samples of history")
    interval = float(np.median(np.diff(history.times_s)))
    bins_per_day = max(1, int(round(SECONDS_PER_DAY / interval)))

    window_start = history.t_end_s - template_days * SECONDS_PER_DAY
    recent_mask = history.times_s >= window_start
    times_recent = history.times_s[recent_mask]
    values_recent = history.values[recent_mask]

    bin_idx = ((times_recent % SECONDS_PER_DAY) / interval).astype(int) % bins_per_day
    sums = np.zeros(bins_per_day)
    counts = np.zeros(bins_per_day)
    valid = ~np.isnan(values_recent)
    np.add.at(sums, bin_idx[valid], values_recent[valid])
    np.add.at(counts, bin_idx[valid], 1.0)
    overall = float(np.nanmean(history.values))
    with np.errstate(invalid="ignore"):
        template = np.where(counts > 0, sums / np.maximum(counts, 1), overall)

    out_times = _forecast_grid(history.t_end_s, horizon_s, interval)
    out_bins = ((out_times % SECONDS_PER_DAY) / interval).astype(int) % bins_per_day
    return TimeSeries(out_times, template[out_bins], "ci-diurnal-template")


@dataclass(frozen=True)
class ForecastWindow:
    """A candidate execution window with its exact mean carbon intensity."""

    t_start_s: float
    t_end_s: float
    mean_ci_g_per_kwh: float

    @property
    def duration_s(self) -> float:
        """Window length, seconds."""
        return self.t_end_s - self.t_start_s


class ForecastIndex:
    """Exact window queries over a step-function carbon-intensity forecast.

    Treats the series as previous-value hold — ``values[i]`` holds on
    ``[times_s[i], times_s[i+1])`` — extended flat beyond both ends, and
    precomputes the prefix integral so any window mean is an O(log n)
    lookup with no quadrature error. This is what the malleable scheduler
    calls on every placement decision, so it must be cheap and, for
    reproducibility, bit-deterministic.
    """

    def __init__(self, series: TimeSeries) -> None:
        if np.any(np.isnan(series.values)):
            raise AnalysisError(
                "forecast series contains NaN samples; fill gaps before indexing"
            )
        self.series = series
        # _prefix[i] = ∫ ci dt over [times[0], times[i]], summed in NumPy;
        # the lookups then bisect plain lists of the same float64 values,
        # which skips NumPy's per-call dispatch on scalar queries.
        segment = series.values[:-1] * np.diff(series.times_s)
        self._prefix: list[float] = np.concatenate(([0.0], np.cumsum(segment))).tolist()
        self._times: list[float] = series.times_s.tolist()
        self._values: list[float] = series.values.tolist()

    def ci_at(self, t_s: float) -> float:
        """Carbon intensity at ``t_s``, gCO₂/kWh (previous-value hold)."""
        idx = bisect_right(self._times, t_s) - 1
        idx = min(max(idx, 0), len(self._times) - 1)
        return self._values[idx]

    def _integral_to(self, t_s: float) -> float:
        """∫ ci dt from the first breakpoint to ``t_s`` (flat extension)."""
        t_first = self._times[0]
        if t_s <= t_first:
            return self._values[0] * (t_s - t_first)
        t_last = self._times[-1]
        if t_s >= t_last:
            return self._prefix[-1] + self._values[-1] * (t_s - t_last)
        idx = bisect_right(self._times, t_s) - 1
        return self._prefix[idx] + self._values[idx] * (t_s - self._times[idx])

    def window_mean(self, t0_s: float, t1_s: float) -> float:
        """Exact mean carbon intensity over ``[t0_s, t1_s]``, gCO₂/kWh."""
        if t1_s <= t0_s:
            raise AnalysisError("window end must exceed window start")
        return (self._integral_to(t1_s) - self._integral_to(t0_s)) / (t1_s - t0_s)

    def greenest_window(
        self, duration_s: float, t_earliest_s: float, t_latest_s: float
    ) -> ForecastWindow:
        """Lowest-mean-CI window of ``duration_s`` starting in the slack range.

        The window mean is piecewise-linear in the start time (the CI is a
        step function), so the minimum lies where the window's start or end
        crosses a breakpoint, or at the range edges — only those candidates
        are evaluated. Ties break to the earliest start, which keeps the
        scheduler deterministic.
        """
        ensure_positive(duration_s, "duration_s")
        if t_latest_s < t_earliest_s:
            raise AnalysisError("t_latest_s must not precede t_earliest_s")
        candidates = {t_earliest_s, t_latest_s}
        # Only breakpoints inside the slack range (window start crossings)
        # or inside its duration-shifted image (window end crossings) can
        # host a minimum — slice them out so a submission costs O(window),
        # not O(whole forecast), at million-job scale.
        times = self._times
        lo = bisect_right(times, t_earliest_s)
        hi = bisect_left(times, t_latest_s)
        candidates.update(times[lo:hi])
        lo = bisect_right(times, t_earliest_s + duration_s)
        hi = bisect_left(times, t_latest_s + duration_s)
        candidates.update(t - duration_s for t in times[lo:hi])
        best_start_s = t_earliest_s
        best_mean = float("inf")
        for start_s in sorted(candidates):
            mean = self.window_mean(start_s, start_s + duration_s)
            if mean < best_mean:
                best_mean = mean
                best_start_s = start_s
        return ForecastWindow(
            t_start_s=best_start_s,
            t_end_s=best_start_s + duration_s,
            mean_ci_g_per_kwh=best_mean,
        )


@dataclass(frozen=True)
class FeedOutage:
    """One interval during which the carbon-intensity feed is unreachable.

    Refresh attempts inside ``[t_start_s, t_end_s)`` fail; the first
    attempt at or after ``t_end_s`` succeeds again.
    """

    t_start_s: float
    t_end_s: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t_start_s) and np.isfinite(self.t_end_s)):
            raise AnalysisError("outage bounds must be finite")
        if self.t_end_s <= self.t_start_s:
            raise AnalysisError(
                f"outage end {self.t_end_s} must exceed start {self.t_start_s}"
            )

    def covers(self, t_s: float) -> bool:
        """Whether a refresh attempt at ``t_s`` falls inside the outage."""
        return self.t_start_s <= t_s < self.t_end_s


class ForecastFeed:
    """A live CI feed: periodic refreshes over an index, with outages.

    Real carbon-intensity products are polled on a cadence (the national
    grid API publishes half-hourly); between refreshes consumers hold the
    last fetched value, and when the feed is down they keep holding it —
    growing stale — until a refresh succeeds again. ``ci_at`` returns the
    value as of the last *successful* refresh, and ``staleness_s`` tells a
    consumer how old that is, so it can degrade gracefully past a
    threshold. The feed holds no mutable state (everything is a pure
    function of time), so checkpointed simulations need not serialize it.
    """

    def __init__(
        self,
        index: ForecastIndex,
        refresh_interval_s: float = 1800.0,
        outages: tuple[FeedOutage, ...] = (),
    ) -> None:
        ensure_positive(refresh_interval_s, "refresh_interval_s")
        self.index = index
        self.refresh_interval_s = refresh_interval_s
        self.outages = tuple(sorted(outages, key=lambda o: o.t_start_s))
        for prev, cur in zip(self.outages, self.outages[1:]):
            if cur.t_start_s < prev.t_end_s:
                raise AnalysisError(
                    f"outages overlap: [{prev.t_start_s}, {prev.t_end_s}) and "
                    f"[{cur.t_start_s}, {cur.t_end_s})"
                )
        self._t0 = float(index.series.times_s[0])

    def last_refresh_s(self, t_s: float) -> float:
        """Time of the last successful refresh at or before ``t_s``.

        Refresh instants sit on the cadence grid anchored at the series
        start; the initial fetch at the anchor always succeeds (a feed that
        never connected has nothing to hold).
        """
        if t_s <= self._t0:
            return self._t0
        k = int(np.floor((t_s - self._t0) / self.refresh_interval_s + 1e-9))
        while k > 0:
            candidate = self._t0 + k * self.refresh_interval_s
            blocking = next((o for o in self.outages if o.covers(candidate)), None)
            if blocking is None:
                return candidate
            # Jump straight to the last grid instant before the outage began.
            k = int(
                np.floor(
                    (blocking.t_start_s - self._t0) / self.refresh_interval_s - 1e-9
                )
            )
        return self._t0

    def staleness_s(self, t_s: float) -> float:
        """Age of the data a consumer sees at ``t_s``, seconds."""
        return t_s - self.last_refresh_s(t_s)

    def is_stale(self, t_s: float, threshold_s: float) -> bool:
        """Whether the held value is older than ``threshold_s``."""
        return self.staleness_s(t_s) > threshold_s

    def ci_at(self, t_s: float) -> float:
        """CI as of the last successful refresh (held during outages)."""
        return self.index.ci_at(self.last_refresh_s(t_s))


def sample_feed_outages(
    duration_s: float,
    rng: np.random.Generator,
    mtbf_hours: float = 72.0,
    mttr_hours: float = 3.0,
) -> tuple[FeedOutage, ...]:
    """Seeded Poisson outage schedule for a forecast feed over a span.

    Outages arrive with exponential gaps (mean ``mtbf_hours`` measured from
    the end of the previous outage) and last an exponential ``mttr_hours``,
    truncated at the span end — non-overlapping by construction.
    """
    ensure_positive(duration_s, "duration_s")
    ensure_positive(mtbf_hours, "mtbf_hours")
    ensure_positive(mttr_hours, "mttr_hours")
    mtbf_s = mtbf_hours * 3600.0
    mttr_s = mttr_hours * 3600.0
    outages: list[FeedOutage] = []
    t = 0.0
    while True:
        start = t + float(rng.exponential(mtbf_s))
        if start >= duration_s:
            break
        end = min(start + float(rng.exponential(mttr_s)), duration_s)
        if end > start:
            outages.append(FeedOutage(start, end))
        t = end
    return tuple(outages)


def evaluate_forecast(forecast: TimeSeries, realised: TimeSeries) -> ForecastSkill:
    """Score a forecast against the realised series at shared timestamps."""
    common, f_idx, r_idx = np.intersect1d(
        forecast.times_s, realised.times_s, return_indices=True
    )
    if len(common) == 0:
        raise AnalysisError("forecast and realised series share no timestamps")
    f = forecast.values[f_idx]
    r = realised.values[r_idx]
    valid = ~np.isnan(f) & ~np.isnan(r)
    if not np.any(valid):
        raise AnalysisError("no overlapping valid samples")
    err = f[valid] - r[valid]
    with np.errstate(divide="ignore", invalid="ignore"):
        pct = np.abs(err) / np.abs(r[valid])
    return ForecastSkill(
        mae_g_per_kwh=float(np.mean(np.abs(err))),
        rmse_g_per_kwh=float(np.sqrt(np.mean(err**2))),
        mean_absolute_percentage=float(np.mean(pct[np.isfinite(pct)])),
    )
