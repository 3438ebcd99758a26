"""Carbon-intensity forecasting tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError, UnitError
from repro.grid.carbon_intensity import CarbonIntensityModel
from repro.grid.forecast import (
    FeedOutage,
    ForecastFeed,
    ForecastIndex,
    ForecastWindow,
    diurnal_template_forecast,
    evaluate_forecast,
    persistence_forecast,
    sample_feed_outages,
)
from repro.telemetry.series import TimeSeries
from repro.units import SECONDS_PER_DAY


@pytest.fixture
def history(rng):
    """Two weeks of UK-shaped CI at hourly cadence."""
    return CarbonIntensityModel(mean_ci_g_per_kwh=190.0).series(
        0.0, 14 * SECONDS_PER_DAY, 3600.0, rng
    )


class TestPersistence:
    def test_flat_at_last_value(self, history):
        forecast = persistence_forecast(history, 6 * 3600.0)
        assert len(np.unique(forecast.values)) == 1
        assert forecast.values[0] == history.values[-1]

    def test_starts_after_history(self, history):
        forecast = persistence_forecast(history, 6 * 3600.0)
        assert forecast.t_start_s > history.t_end_s

    def test_horizon_respected(self, history):
        forecast = persistence_forecast(history, 24 * 3600.0)
        assert len(forecast) == 24

    def test_too_short_horizon_rejected(self, history):
        with pytest.raises(AnalysisError):
            persistence_forecast(history, 60.0)


class TestDiurnalTemplate:
    def test_template_has_diurnal_shape(self, history):
        forecast = diurnal_template_forecast(history, SECONDS_PER_DAY)
        # Evening hours must exceed early-morning hours, like the source.
        hours = (forecast.times_s % SECONDS_PER_DAY) / 3600.0
        evening = forecast.values[(hours >= 18) & (hours < 21)].mean()
        early = forecast.values[(hours >= 3) & (hours < 6)].mean()
        assert evening > early

    def test_deterministic_history_recovered(self):
        """With a perfectly periodic history, the template is exact."""
        times = np.arange(0.0, 7 * SECONDS_PER_DAY, 3600.0)
        hours = (times % SECONDS_PER_DAY) / 3600.0
        values = 200.0 + 30.0 * np.cos(2 * np.pi * (hours - 19.0) / 24.0)
        history = TimeSeries(times, values)
        forecast = diurnal_template_forecast(history, SECONDS_PER_DAY)
        f_hours = (forecast.times_s % SECONDS_PER_DAY) / 3600.0
        expected = 200.0 + 30.0 * np.cos(2 * np.pi * (f_hours - 19.0) / 24.0)
        np.testing.assert_allclose(forecast.values, expected, rtol=1e-9)

    def test_bad_template_days(self, history):
        with pytest.raises(AnalysisError):
            diurnal_template_forecast(history, SECONDS_PER_DAY, template_days=0)


class TestEvaluate:
    def test_template_beats_persistence_at_a_day(self, rng):
        """At 24 h horizon the diurnal template must beat persistence —
        the skill ordering the forecast literature guarantees."""
        model = CarbonIntensityModel(mean_ci_g_per_kwh=190.0, noise_sigma=0.08)
        full = model.series(0.0, 20 * SECONDS_PER_DAY, 3600.0, rng)
        split = 16 * SECONDS_PER_DAY
        history = full.slice(0.0, split)
        realised = full.slice(split, 20 * SECONDS_PER_DAY)
        horizon = 2 * SECONDS_PER_DAY
        pers = evaluate_forecast(persistence_forecast(history, horizon), realised)
        tmpl = evaluate_forecast(diurnal_template_forecast(history, horizon), realised)
        assert tmpl.better_than(pers)

    def test_perfect_forecast_zero_error(self, history):
        skill = evaluate_forecast(history, history)
        assert skill.mae_g_per_kwh == 0.0
        assert skill.rmse_g_per_kwh == 0.0

    def test_disjoint_series_rejected(self, history):
        other = TimeSeries(history.times_s + 1.0, history.values)
        with pytest.raises(AnalysisError):
            evaluate_forecast(history, other)


class TestEvaluateMisaligned:
    """Forecast and realised series rarely share a grid in practice: the
    forecast runs at its own cadence while telemetry arrives on another.
    evaluate_forecast scores on the shared-timestamp subset only."""

    def test_coarser_realised_cadence_uses_shared_subset(self):
        times_fine = np.arange(0.0, 48 * 3600.0, 1800.0)
        forecast = TimeSeries(times_fine, np.full(len(times_fine), 100.0))
        times_coarse = times_fine[::2]  # hourly realised vs half-hourly forecast
        realised = TimeSeries(times_coarse, np.full(len(times_coarse), 110.0))
        skill = evaluate_forecast(forecast, realised)
        assert skill.mae_g_per_kwh == pytest.approx(10.0)
        assert skill.rmse_g_per_kwh == pytest.approx(10.0)

    def test_partial_overlap_scores_only_the_overlap(self):
        times = np.arange(0.0, 24 * 3600.0, 3600.0)
        forecast = TimeSeries(times, np.full(len(times), 100.0))
        shifted = times + 12 * 3600.0  # second half overlaps, first half beyond
        errors = np.where(shifted < 24 * 3600.0, 5.0, 1000.0)
        realised = TimeSeries(shifted, np.full(len(times), 100.0) + errors)
        skill = evaluate_forecast(forecast, realised)
        # Only the 12 overlapping hours score; the +1000 tail is ignored.
        assert skill.mae_g_per_kwh == pytest.approx(5.0)

    def test_offset_grids_share_nothing(self):
        """Same cadence, phase-shifted by one second: no shared stamps."""
        times = np.arange(0.0, 24 * 3600.0, 3600.0)
        forecast = TimeSeries(times, np.full(len(times), 100.0))
        realised = TimeSeries(times + 1.0, np.full(len(times), 100.0))
        with pytest.raises(AnalysisError):
            evaluate_forecast(forecast, realised)

    def test_all_nan_overlap_rejected(self):
        """Shared stamps whose realised values are all NaN cannot score."""
        times = np.arange(0.0, 10 * 3600.0, 3600.0)
        forecast = TimeSeries(times, np.full(len(times), 100.0))
        realised_values = np.full(len(times), np.nan)
        realised = TimeSeries(times, realised_values)
        with pytest.raises(AnalysisError):
            evaluate_forecast(forecast, realised)


class TestForecastGridEdges:
    """Horizon-edge regression: exact multiples must not drop their last point."""

    def test_exact_multiple_with_fp_hostile_interval(self, history):
        # 3600/7 is not representable in binary; 24 intervals of it would
        # floor to 23 points under naive division.
        interval = 3600.0 / 7.0
        times = np.arange(0.0, 2 * SECONDS_PER_DAY, interval)
        series = TimeSeries(times, np.full(len(times), 150.0))
        forecast = persistence_forecast(series, 24 * interval)
        assert len(forecast) == 24
        assert forecast.times_s[-1] == pytest.approx(series.t_end_s + 24 * interval)

    def test_exact_multiple_hourly(self, history):
        forecast = persistence_forecast(history, 24 * 3600.0)
        assert len(forecast) == 24

    def test_diurnal_grid_matches_persistence_grid(self, history):
        horizon = 36 * 3600.0
        p = persistence_forecast(history, horizon)
        d = diurnal_template_forecast(history, horizon)
        assert np.array_equal(p.times_s, d.times_s)

    def test_sub_interval_horizon_rejected(self, history):
        with pytest.raises(AnalysisError):
            persistence_forecast(history, 60.0)  # hourly cadence, 1 min horizon


class TestForecastIndex:
    @pytest.fixture
    def step_series(self):
        """100 on [0, 3600), 40 on [3600, 7200), 200 from 7200 on."""
        return TimeSeries(
            np.array([0.0, 3600.0, 7200.0]),
            np.array([100.0, 40.0, 200.0]),
            "ci",
        )

    def test_window_mean_exact_on_step_function(self, step_series):
        index = ForecastIndex(step_series)
        assert index.window_mean(0.0, 3600.0) == pytest.approx(100.0)
        assert index.window_mean(0.0, 7200.0) == pytest.approx(70.0)
        # Half in the 40 segment, half in the 200 segment.
        assert index.window_mean(5400.0, 9000.0) == pytest.approx(120.0)

    def test_ci_at_holds_previous_value_and_extends_flat(self, step_series):
        index = ForecastIndex(step_series)
        assert index.ci_at(-100.0) == 100.0
        assert index.ci_at(3599.0) == 100.0
        assert index.ci_at(3600.0) == 40.0
        assert index.ci_at(1e9) == 200.0

    def test_greenest_window_finds_the_low_segment(self, step_series):
        index = ForecastIndex(step_series)
        window = index.greenest_window(3600.0, 0.0, 86_400.0)
        assert window.t_start_s == 3600.0
        assert window.mean_ci_g_per_kwh == pytest.approx(40.0)

    def test_greenest_window_ties_break_earliest(self):
        flat = TimeSeries(
            np.arange(0.0, 10 * 3600.0, 3600.0), np.full(10, 80.0), "ci"
        )
        window = ForecastIndex(flat).greenest_window(1800.0, 900.0, 5 * 3600.0)
        assert window.t_start_s == 900.0

    def test_nan_forecast_rejected(self):
        series = TimeSeries(
            np.array([0.0, 3600.0]), np.array([100.0, np.nan]), "ci"
        )
        with pytest.raises(AnalysisError):
            ForecastIndex(series)

    def test_degenerate_window_rejected(self, step_series):
        with pytest.raises(AnalysisError):
            ForecastIndex(step_series).window_mean(100.0, 100.0)


class SearchsortedIndex:
    """The array-based ForecastIndex lookups, kept as an oracle: the list
    and ``bisect`` implementation must return bit-identical floats."""

    def __init__(self, series: TimeSeries) -> None:
        self._times = series.times_s
        self._values = series.values
        segment = self._values[:-1] * np.diff(self._times)
        self._prefix = np.concatenate(([0.0], np.cumsum(segment)))

    def ci_at(self, t_s):
        idx = int(np.searchsorted(self._times, t_s, side="right")) - 1
        idx = min(max(idx, 0), len(self._times) - 1)
        return float(self._values[idx])

    def _integral_to(self, t_s):
        t_first = float(self._times[0])
        if t_s <= t_first:
            return float(self._values[0]) * (t_s - t_first)
        t_last = float(self._times[-1])
        if t_s >= t_last:
            return float(self._prefix[-1]) + float(self._values[-1]) * (t_s - t_last)
        idx = int(np.searchsorted(self._times, t_s, side="right")) - 1
        return float(self._prefix[idx]) + float(self._values[idx]) * (
            t_s - float(self._times[idx])
        )

    def window_mean(self, t0_s, t1_s):
        return (self._integral_to(t1_s) - self._integral_to(t0_s)) / (t1_s - t0_s)

    def greenest_window(self, duration_s, t_earliest_s, t_latest_s):
        candidates = {t_earliest_s, t_latest_s}
        lo = int(np.searchsorted(self._times, t_earliest_s, side="right"))
        hi = int(np.searchsorted(self._times, t_latest_s, side="left"))
        for t in self._times[lo:hi]:
            candidates.add(float(t))
        lo = int(np.searchsorted(self._times, t_earliest_s + duration_s, side="right"))
        hi = int(np.searchsorted(self._times, t_latest_s + duration_s, side="left"))
        for t in self._times[lo:hi]:
            candidates.add(float(t) - duration_s)
        best_start_s = t_earliest_s
        best_mean = float("inf")
        for start_s in sorted(candidates):
            mean = self.window_mean(start_s, start_s + duration_s)
            if mean < best_mean:
                best_mean = mean
                best_start_s = start_s
        return ForecastWindow(best_start_s, best_start_s + duration_s, best_mean)


@st.composite
def step_series_and_times(draw):
    """A step series plus query times: on breakpoints, next to them, before
    the first, after the last and anywhere in between."""
    t0 = draw(st.floats(-1e6, 1e6, allow_nan=False))
    gaps = draw(st.lists(st.floats(0.5, 1e5, allow_nan=False), min_size=0, max_size=30))
    times = np.asarray(t0 + np.concatenate(([0.0], np.cumsum(gaps))), dtype=float)
    times = np.unique(times)
    values = draw(
        st.lists(
            st.floats(0.0, 1000.0, allow_nan=False),
            min_size=len(times),
            max_size=len(times),
        )
    )
    series = TimeSeries(times, np.asarray(values, dtype=float), "ci")
    points = times.tolist()
    span = (points[0] - 2e5, points[-1] + 2e5)
    query = st.one_of(
        st.sampled_from(points),
        st.sampled_from(points).map(lambda t: float(np.nextafter(t, -np.inf))),
        st.sampled_from(points).map(lambda t: float(np.nextafter(t, np.inf))),
        st.floats(*span, allow_nan=False),
    )
    return series, draw(st.lists(query, min_size=2, max_size=8))


def same_bits(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


class TestForecastIndexOracle:
    @given(step_series_and_times())
    @settings(max_examples=200, deadline=None)
    def test_ci_at_matches_searchsorted(self, case):
        series, queries = case
        index, oracle = ForecastIndex(series), SearchsortedIndex(series)
        for t in queries:
            assert same_bits(index.ci_at(t), oracle.ci_at(t))

    @given(step_series_and_times())
    @settings(max_examples=200, deadline=None)
    def test_window_mean_matches_searchsorted(self, case):
        series, queries = case
        index, oracle = ForecastIndex(series), SearchsortedIndex(series)
        for t0, t1 in zip(queries, queries[1:]):
            if t1 < t0:
                t0, t1 = t1, t0
            if t1 > t0:
                assert same_bits(index.window_mean(t0, t1), oracle.window_mean(t0, t1))

    @given(
        step_series_and_times(),
        st.one_of(st.floats(1.0, 3e5, allow_nan=False), st.sampled_from([1800.0, 3600.0])),
    )
    @settings(max_examples=200, deadline=None)
    def test_greenest_window_matches_searchsorted(self, case, duration_s):
        series, queries = case
        index, oracle = ForecastIndex(series), SearchsortedIndex(series)
        for t0, t1 in zip(queries, queries[1:]):
            earliest, latest = min(t0, t1), max(t0, t1)
            got = index.greenest_window(duration_s, earliest, latest)
            want = oracle.greenest_window(duration_s, earliest, latest)
            assert same_bits(got.t_start_s, want.t_start_s)
            assert same_bits(got.t_end_s, want.t_end_s)
            assert same_bits(got.mean_ci_g_per_kwh, want.mean_ci_g_per_kwh)

    def test_duration_shifted_breakpoints_are_candidates(self):
        """A query whose window end lands exactly on a breakpoint."""
        series = TimeSeries(
            np.array([0.0, 3600.0, 7200.0]), np.array([100.0, 40.0, 200.0]), "ci"
        )
        index, oracle = ForecastIndex(series), SearchsortedIndex(series)
        for args in ((3600.0, 0.0, 3600.0), (1800.0, 1800.0, 5400.0), (3600.0, 3600.0, 3600.0)):
            assert index.greenest_window(*args) == oracle.greenest_window(*args)


@pytest.fixture
def hourly_series():
    t = np.arange(0.0, 48 * 3600.0, 3600.0)
    return TimeSeries(t, 100.0 + np.arange(len(t), dtype=float), "ci")


class TestForecastFeed:
    def test_refresh_on_cadence_grid(self, hourly_series):
        feed = ForecastFeed(ForecastIndex(hourly_series), refresh_interval_s=1800.0)
        assert feed.last_refresh_s(0.0) == 0.0
        assert feed.last_refresh_s(1799.0) == 0.0
        assert feed.last_refresh_s(1800.0) == 1800.0
        assert feed.last_refresh_s(5000.0) == 3600.0

    def test_exact_grid_instant_not_lost_to_float_error(self, hourly_series):
        feed = ForecastFeed(ForecastIndex(hourly_series), refresh_interval_s=0.1)
        assert feed.last_refresh_s(100 * 0.1) == pytest.approx(10.0)

    def test_outage_holds_last_value(self, hourly_series):
        feed = ForecastFeed(
            ForecastIndex(hourly_series),
            refresh_interval_s=1800.0,
            outages=(FeedOutage(3600.0, 4 * 3600.0),),
        )
        # Refreshes at 3600, 5400, ... are blocked; last success was 1800.
        assert feed.last_refresh_s(2 * 3600.0) == 1800.0
        assert feed.last_refresh_s(3.9 * 3600.0) == 1800.0
        assert feed.ci_at(3.9 * 3600.0) == feed.index.ci_at(1800.0)

    def test_recovers_at_first_refresh_after_outage(self, hourly_series):
        feed = ForecastFeed(
            ForecastIndex(hourly_series),
            refresh_interval_s=1800.0,
            outages=(FeedOutage(3600.0, 4 * 3600.0),),
        )
        # First grid instant at/after the outage end is 4 h exactly.
        assert feed.last_refresh_s(4 * 3600.0) == 4 * 3600.0
        assert feed.staleness_s(4 * 3600.0) == 0.0

    def test_staleness_and_threshold(self, hourly_series):
        feed = ForecastFeed(
            ForecastIndex(hourly_series),
            refresh_interval_s=1800.0,
            outages=(FeedOutage(3600.0, 10 * 3600.0),),
        )
        assert feed.is_stale(6 * 3600.0, threshold_s=2 * 3600.0)
        assert not feed.is_stale(2 * 3600.0, threshold_s=2 * 3600.0)

    def test_before_series_start_pins_to_anchor(self, hourly_series):
        feed = ForecastFeed(ForecastIndex(hourly_series))
        assert feed.last_refresh_s(-500.0) == 0.0

    def test_overlapping_outages_rejected(self, hourly_series):
        with pytest.raises(AnalysisError):
            ForecastFeed(
                ForecastIndex(hourly_series),
                outages=(FeedOutage(0.0, 7200.0), FeedOutage(3600.0, 9000.0)),
            )

    def test_outage_validation(self):
        with pytest.raises(AnalysisError):
            FeedOutage(100.0, 100.0)
        with pytest.raises(AnalysisError):
            FeedOutage(0.0, float("inf"))


class TestSampleFeedOutages:
    def test_seeded_and_non_overlapping(self):
        span = 30 * SECONDS_PER_DAY
        a = sample_feed_outages(span, np.random.default_rng(9))
        b = sample_feed_outages(span, np.random.default_rng(9))
        assert a == b
        for prev, cur in zip(a, a[1:]):
            assert cur.t_start_s >= prev.t_end_s
        for outage in a:
            assert 0.0 <= outage.t_start_s < outage.t_end_s <= span

    def test_frequent_outages_appear(self):
        outages = sample_feed_outages(
            30 * SECONDS_PER_DAY,
            np.random.default_rng(2),
            mtbf_hours=24.0,
            mttr_hours=2.0,
        )
        assert len(outages) > 5

    def test_validation(self):
        with pytest.raises(UnitError):
            sample_feed_outages(0.0, np.random.default_rng(0))
