"""Chunk-fed analysis variants must agree with their batch counterparts."""

import numpy as np
import pytest

from repro.analysis.baseline import summarise, summarise_streaming
from repro.analysis.changepoint import (
    detect_single,
    detect_single_streaming,
    segment_means,
    segment_means_streaming,
)
from repro.errors import AnalysisError
from repro.telemetry.streaming import ChunkedSeriesReader
from repro.telemetry.series import TimeSeries


def step_series(n=5000, split=3000, before=3220.0, after=3010.0, seed=9):
    rng = np.random.default_rng(seed)
    times = 1.6e9 + 900.0 * np.arange(n)
    values = np.where(np.arange(n) < split, before, after)
    values = values + 30.0 * rng.standard_normal(n)
    values[rng.random(n) < 0.02] = np.nan
    return TimeSeries(times, values, "step")


class TestDetectSingleStreaming:
    @pytest.mark.parametrize("chunk_size", [64, 997, 10_000])
    def test_matches_batch(self, chunk_size):
        series = step_series()
        batch = detect_single(series)
        stream = detect_single_streaming(series, chunk_size)
        assert stream.index == batch.index
        assert stream.time_s == batch.time_s
        assert stream.mean_before == pytest.approx(batch.mean_before, rel=1e-9)
        assert stream.mean_after == pytest.approx(batch.mean_after, rel=1e-9)
        assert stream.significance == pytest.approx(batch.significance, rel=1e-9)

    def test_accepts_reader(self):
        series = step_series(1000, 400)
        reader = ChunkedSeriesReader(series, chunk_size=77)
        batch = detect_single(series)
        stream = detect_single_streaming(reader)
        assert stream.index == batch.index
        assert stream.delta == pytest.approx(batch.delta, rel=1e-9)

    def test_accepts_file_source(self, tmp_path):
        from repro.telemetry.io import save_csv

        series = step_series(600, 250)
        path = tmp_path / "step.csv"
        save_csv(series, path)
        stream = detect_single_streaming(str(path), chunk_size=101)
        batch = detect_single(series)
        assert stream.index == batch.index
        assert stream.mean_before == pytest.approx(batch.mean_before, rel=1e-6)

    def test_split_on_chunk_boundary(self):
        # The best split's right segment starts exactly at a chunk start.
        values = np.concatenate([np.full(200, 100.0), np.zeros(200)])
        series = TimeSeries(np.arange(400.0), values)
        batch = detect_single(series)
        stream = detect_single_streaming(series, chunk_size=50)
        assert batch.index == 200
        assert stream.index == batch.index
        assert stream.time_s == batch.time_s
        assert stream.mean_before == pytest.approx(100.0)
        assert stream.mean_after == pytest.approx(0.0)

    def test_too_few_valid_samples(self):
        series = TimeSeries(np.arange(5.0), [1.0, np.nan, np.nan, 2.0, 3.0])
        with pytest.raises(AnalysisError):
            detect_single_streaming(series)

    def test_constant_series_zero_significance(self):
        series = TimeSeries(np.arange(10.0), np.full(10, 5.0))
        stream = detect_single_streaming(series, chunk_size=3)
        batch = detect_single(series)
        assert stream.significance == batch.significance == 0.0
        assert stream.index == batch.index


class TestSegmentMeansStreaming:
    def test_matches_batch(self):
        series = step_series()
        changes = [float(series.times_s[3000]), float(series.times_s[4000])]
        batch = segment_means(series, changes)
        stream = segment_means_streaming(series, changes, chunk_size=333)
        assert stream == pytest.approx(batch, rel=1e-9)

    def test_empty_segment_raises(self):
        series = step_series(100, 50)
        far_future = float(series.times_s[-1]) + 1e6
        with pytest.raises(AnalysisError):
            segment_means_streaming(series, [far_future], chunk_size=17)

    def test_too_few_valid_samples(self):
        series = TimeSeries(np.arange(3.0), np.array([1.0, 2.0, np.nan]))
        with pytest.raises(AnalysisError):
            segment_means_streaming(series, [1.5])


class TestSummariseStreaming:
    def test_moments_match_batch(self):
        series = step_series()
        batch = summarise(series)
        stream = summarise_streaming(series, chunk_size=256)
        assert stream.mean == pytest.approx(batch.mean, rel=1e-9)
        assert stream.std == pytest.approx(batch.std, rel=1e-9)
        assert stream.minimum == batch.minimum
        assert stream.maximum == batch.maximum
        assert stream.n_samples == batch.n_samples
        assert stream.span_days == pytest.approx(batch.span_days, rel=1e-9)

    @pytest.mark.parametrize("chunk_size", [1, 256, 4096])
    def test_percentiles_exact_below_one_sketch_block(self, chunk_size):
        # ~4,900 valid samples stay in the sketch's first block, so the
        # bimodal step's percentiles equal the batch ones bit for bit.
        series = step_series()
        batch = summarise(series)
        stream = summarise_streaming(series, chunk_size=chunk_size)
        assert stream.p5 == batch.p5
        assert stream.median == batch.median
        assert stream.p95 == batch.p95

    def test_percentiles_approximate_batch(self):
        # 20,000 valid samples overflow one 16,384-sample sketch block, so
        # one fold makes the percentiles approximate (well inside 2 %).
        series = step_series(20_000, split=0)
        batch = summarise(series)
        stream = summarise_streaming(series, chunk_size=4096)
        spread = batch.p95 - batch.p5
        assert stream.p5 == pytest.approx(batch.p5, abs=0.02 * spread)
        assert stream.median == pytest.approx(batch.median, abs=0.02 * spread)
        assert stream.p95 == pytest.approx(batch.p95, abs=0.02 * spread)

    def test_standard_error_available(self):
        stats = summarise_streaming(step_series(500, 200))
        assert stats.standard_error > 0

    def test_all_nan_raises(self):
        series = TimeSeries(np.arange(5.0), np.full(5, np.nan), "dead-meter")
        with pytest.raises(AnalysisError):
            summarise_streaming(series)
