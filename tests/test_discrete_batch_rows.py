"""Row extraction of :class:`DiscreteBatch` skips re-normalisation.

``DiscreteBatch.row`` builds its :class:`DiscreteRV` with a trusted
constructor that only divides by the total mass.  On every row of random
``add``/``maximum`` batches it must be bit-for-bit the variable the full
``DiscreteRV(values, probs)`` constructor builds from the same atoms.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.rv.discrete import DiscreteRV
from repro.rv.discrete_batch import DiscreteBatch


def random_rv(rng: np.random.Generator) -> DiscreteRV:
    size = int(rng.integers(1, 12))
    # A coarse grid makes exact and near-tolerance ties between atoms likely.
    values = rng.integers(0, 40, size) * rng.choice([0.25, 1e-13, 1.0])
    probs = rng.random(size) + 1e-3
    return DiscreteRV(values, probs / probs.sum())


def assert_rows_match_full_constructor(batch: DiscreteBatch) -> None:
    for i in range(batch.num_rows):
        size = int(batch.sizes[i])
        fast = batch.row(i)
        full = DiscreteRV(batch.values[i, :size], batch.probs[i, :size])
        assert fast.values.tobytes() == full.values.tobytes()
        assert fast.probabilities.tobytes() == full.probabilities.tobytes()
        assert not fast.values.flags.writeable
        assert not fast.probabilities.flags.writeable


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 24),
    op=st.sampled_from(["add", "maximum"]),
    cap=st.sampled_from([2, 4, 16, 64]),
)
def test_rows_equal_full_constructor(seed, rows, op, cap):
    rng = np.random.default_rng(seed)
    lhs = DiscreteBatch.from_rvs([random_rv(rng) for _ in range(rows)])
    rhs = DiscreteBatch.from_rvs([random_rv(rng) for _ in range(rows)])
    assert_rows_match_full_constructor(getattr(lhs, op)(rhs, cap))


def test_rows_own_their_memory():
    rng = np.random.default_rng(3)
    batch = DiscreteBatch.from_rvs([random_rv(rng) for _ in range(4)])
    row = batch.row(0)
    before = row.values.copy()
    batch.values[0, :] = -1.0
    assert np.array_equal(row.values, before)
