"""Property-based tests (hypothesis) of the streaming statistics layer.

The streaming accumulators of :mod:`repro.sim.stats` back the million-trial
Monte Carlo runs, so their contracts are checked against randomly shaped
streams instead of a handful of hand-picked cases:

* :class:`QuantileSketch` quantiles stay within one (padded) bin of the
  bracketing order statistics, remain inside ``[min, max]``, are monotone
  in the level, and hit the exact extrema at ``q = 0`` and ``q = 1`` —
  including streams whose later batches escape the frozen grid;
* :meth:`RunningMoments.merge` is associative and agrees with a direct
  update of the concatenated stream;
* :class:`ReservoirSample` includes every stream element with probability
  ``capacity / n`` (checked over a population of fixed seeds).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rv.empirical import RunningMoments
from repro.sim.stats import QuantileSketch, ReservoirSample, StreamingSummary
from oracles.p2_quantile import P2Quantile

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


def batches_strategy(min_total=8, max_total=400):
    """A stream of 1-4 batches of finite floats."""
    return st.lists(
        st.lists(finite_floats, min_size=1, max_size=max_total // 2),
        min_size=1,
        max_size=4,
    ).filter(lambda chunks: min_total <= sum(len(c) for c in chunks) <= max_total)


class TestQuantileSketchProperties:
    @settings(max_examples=60, deadline=None)
    @given(chunks=batches_strategy(), bins=st.sampled_from([16, 64, 256]))
    def test_quantiles_within_one_bin_of_order_statistics(self, chunks, bins):
        sketch = QuantileSketch(bins=bins)
        for chunk in chunks:
            sketch.update(np.asarray(chunk, dtype=np.float64))
        data = np.concatenate([np.asarray(c, dtype=np.float64) for c in chunks])
        _, edges = sketch.histogram()
        bin_width = float(edges[1] - edges[0])
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            value = sketch.quantile(q)
            lower = float(np.quantile(data, q, method="lower"))
            higher = float(np.quantile(data, q, method="higher"))
            if lower < float(edges[0]) or higher > float(edges[-1]):
                # Out-of-grid mass only guarantees finite, monotone
                # quantiles interpolated against the exact extrema.
                assert float(data.min()) - 1e-12 <= value <= float(data.max()) + 1e-12
                continue
            slack = bin_width + 1e-9 * max(1.0, abs(lower), abs(higher))
            # In-grid order statistics: the sketch's inverse-CDF read
            # lands within one bin of the interval they span.
            assert lower - slack <= value <= higher + slack

    @settings(max_examples=60, deadline=None)
    @given(chunks=batches_strategy())
    def test_quantiles_monotone_and_bounded(self, chunks):
        sketch = QuantileSketch(bins=64)
        for chunk in chunks:
            sketch.update(np.asarray(chunk, dtype=np.float64))
        data = np.concatenate([np.asarray(c, dtype=np.float64) for c in chunks])
        levels = np.linspace(0.0, 1.0, 21)
        values = [sketch.quantile(float(q)) for q in levels]
        span = float(data.max() - data.min())
        slack = 1e-9 * (1.0 + span + abs(float(data.max())))
        assert values[0] == float(data.min())
        assert values[-1] == pytest.approx(float(data.max()), abs=slack)
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + slack
        for v in values:
            assert float(data.min()) - slack <= v <= float(data.max()) + slack

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        scale=st.floats(min_value=1e-3, max_value=1e3),
        tail=st.sampled_from(["low", "high", "both"]),
    )
    def test_out_of_grid_tails_are_tracked(self, seed, scale, tail):
        rng = np.random.default_rng(seed)
        first = rng.uniform(0.0, scale, size=200)
        sketch = QuantileSketch(bins=128)
        sketch.update(first)
        extra = []
        if tail in ("low", "both"):
            extra.append(rng.uniform(-10 * scale, -5 * scale, size=100))
        if tail in ("high", "both"):
            extra.append(rng.uniform(5 * scale, 10 * scale, size=100))
        for chunk in extra:
            sketch.update(chunk)
        data = np.concatenate([first] + extra)
        assert sketch.count == data.size
        assert sketch.quantile(0.0) == pytest.approx(float(data.min()))
        assert sketch.quantile(1.0) == pytest.approx(float(data.max()))
        # The median of the combined stream still lands within the data
        # range and near the exact median (tail segments are interpolated
        # against the running extrema, so allow their span).
        exact = float(np.median(data))
        lo = float(np.quantile(data, 0.35))
        hi = float(np.quantile(data, 0.65))
        assert lo - scale <= sketch.quantile(0.5) <= hi + scale

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), q=st.sampled_from([0.25, 0.5, 0.9]))
    def test_sketch_agrees_with_p2_reference(self, seed, q):
        rng = np.random.default_rng(seed)
        data = rng.normal(100.0, 10.0, size=4_000)
        sketch = QuantileSketch(bins=512)
        p2 = P2Quantile(q)
        for chunk in np.split(data, 8):
            sketch.update(chunk)
            p2.update(chunk)
        exact = float(np.quantile(data, q))
        span = float(data.max() - data.min())
        assert sketch.quantile(q) == pytest.approx(exact, abs=span / 100)
        assert p2.value() == pytest.approx(exact, abs=span / 20)


class TestRunningMomentsProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(finite_floats, min_size=0, max_size=200),
        b=st.lists(finite_floats, min_size=0, max_size=200),
        c=st.lists(finite_floats, min_size=1, max_size=200),
    )
    def test_merge_is_associative(self, a, b, c):
        def fold(parts):
            acc = RunningMoments()
            for part in parts:
                m = RunningMoments()
                m.update(np.asarray(part, dtype=np.float64))
                acc.merge(m)
            return acc

        grouped_left = fold([a, b, c])           # ((a ⊕ b) ⊕ c)
        right_inner = RunningMoments()
        right_inner.update(np.asarray(b, dtype=np.float64))
        tail = RunningMoments()
        tail.update(np.asarray(c, dtype=np.float64))
        right_inner.merge(tail)
        grouped_right = fold([a])
        grouped_right.merge(right_inner)         # (a ⊕ (b ⊕ c))

        assert grouped_left.count == grouped_right.count == len(a) + len(b) + len(c)
        scale = max(1.0, abs(grouped_left.mean))
        assert math.isclose(grouped_left.mean, grouped_right.mean,
                            rel_tol=1e-9, abs_tol=1e-9 * scale)
        if grouped_left.count >= 2:
            vscale = max(1.0, abs(grouped_left.variance))
            assert math.isclose(grouped_left.variance, grouped_right.variance,
                                rel_tol=1e-8, abs_tol=1e-8 * vscale)
        assert grouped_left.minimum == grouped_right.minimum
        assert grouped_left.maximum == grouped_right.maximum

    @settings(max_examples=60, deadline=None)
    @given(
        parts=st.lists(
            st.lists(finite_floats, min_size=0, max_size=150),
            min_size=1, max_size=5,
        ).filter(lambda ps: sum(len(p) for p in ps) >= 2)
    )
    def test_merge_matches_direct_concatenation(self, parts):
        merged = RunningMoments()
        for part in parts:
            m = RunningMoments()
            m.update(np.asarray(part, dtype=np.float64))
            merged.merge(m)
        data = np.concatenate(
            [np.asarray(p, dtype=np.float64) for p in parts]
        )
        direct = RunningMoments()
        direct.update(data)
        assert merged.count == direct.count == data.size
        scale = max(1.0, float(np.abs(data).max()))
        assert merged.mean == pytest.approx(direct.mean, rel=1e-9, abs=1e-9 * scale)
        assert merged.variance == pytest.approx(
            direct.variance, rel=1e-8, abs=1e-8 * scale * scale
        )
        assert merged.minimum == direct.minimum
        assert merged.maximum == direct.maximum


class TestReservoirProperties:
    def test_inclusion_probability_is_uniform_over_seeds(self):
        """Every element of a 60-long stream lands in a capacity-10
        reservoir with probability 1/6 (checked over 400 fixed seeds; the
        5-sigma binomial band is ±0.093)."""
        n, capacity, seeds = 60, 10, 400
        stream = np.arange(n, dtype=np.float64)
        hits = np.zeros(n)
        for seed in range(seeds):
            reservoir = ReservoirSample(capacity, rng=np.random.default_rng(seed))
            # Vary the batch boundaries with the seed: the sequential and
            # batched updates must realise the same inclusion law.
            split = 1 + seed % (n - 1)
            reservoir.update(stream[:split])
            reservoir.update(stream[split:])
            hits[np.unique(reservoir.samples()).astype(np.int64)] += 1
        freq = hits / seeds
        expected = capacity / n
        band = 5.0 * math.sqrt(expected * (1 - expected) / seeds)
        assert np.all(np.abs(freq - expected) < band + 0.02)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 300),
        capacity=st.integers(1, 40),
        pieces=st.integers(1, 4),
    )
    def test_reservoir_is_a_subsample_of_the_stream(self, seed, n, capacity, pieces):
        rng = np.random.default_rng(seed)
        stream = rng.normal(size=n)
        reservoir = ReservoirSample(capacity, rng=rng)
        bounds = sorted(rng.integers(0, n + 1, size=pieces - 1).tolist())
        for chunk in np.split(stream, bounds):
            reservoir.update(chunk)
        sample = reservoir.samples()
        assert reservoir.count == n
        assert sample.shape[0] == min(capacity, n)
        assert np.isin(sample, stream).all()
        if n <= capacity:
            np.testing.assert_array_equal(sample, stream)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_streaming_summary_composes_the_accumulators(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(5.0, 2.0, size=2_000)
        summary = StreamingSummary(bins=256, reservoir=64, rng=rng)
        for chunk in np.split(data, 4):
            summary.update(chunk)
        assert summary.moments.count == data.size
        assert summary.moments.mean == pytest.approx(float(data.mean()), rel=1e-12)
        assert summary.quantile(0.0) == float(data.min())
        assert summary.quantile(1.0) == pytest.approx(float(data.max()), rel=1e-12)
        assert summary.reservoir.samples().shape == (64,)
