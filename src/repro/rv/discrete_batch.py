"""Row-batched finite discrete random variables.

The discrete topological sweep (:mod:`repro.estimators.sweep`) performs one
CDF-product maximum per predecessor and one convolution + pruning per task.
Implemented one :class:`~repro.rv.discrete.DiscreteRV` at a time, each
operation is a handful of NumPy calls on tiny arrays — on a few-thousand
task DAG the interpreter and allocator overhead dominates the arithmetic.

This module stores *one distribution per row* of a padded ``(m, width)``
pair of arrays and evaluates the same operations for all rows of a
topological level at once:

* rows are sorted ascending; padding slots hold value ``+inf`` with
  probability ``0`` (padding therefore sorts after every real atom and
  carries no mass through cumulative sums);
* every operation mirrors the scalar implementation *step by step* — the
  same normalisation, the same ``1e-12`` tolerance merge keeping the first
  value of each merged run, the same zero-atom drop, the same CDF-product
  maximum on the exact-unique merged support, the same outer-sum
  convolution order, and the same equal-mass pruning groups.  Partial sums
  are evaluated in the same element order, so batched results match the
  scalar pipeline to ulp-level rounding (the only re-ordered reductions are
  NumPy's pairwise row sums over trailing zero padding).

The batched sweep in :mod:`repro.estimators.sweep` is the only consumer;
the scalar :class:`DiscreteRV` remains the reference implementation (and
the pruning-ablation / Dodin work-horse).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import EstimationError
from .discrete import DiscreteRV

__all__ = ["DiscreteBatch"]

#: Tolerance below which two support points are considered identical
#: (shared with the scalar implementation).
_ATOL = 1e-12


@dataclass
class DiscreteBatch:
    """A batch of finite discrete random variables, one per row.

    Attributes
    ----------
    values:
        ``(m, width)`` support points, ascending per row, padded with
        ``+inf``.
    probs:
        ``(m, width)`` probabilities aligned with ``values``, padded with
        ``0``.
    sizes:
        ``(m,)`` number of real atoms per row.
    """

    values: np.ndarray
    probs: np.ndarray
    sizes: np.ndarray

    @property
    def num_rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def width(self) -> int:
        return int(self.values.shape[1])

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, m: int, value: float = 0.0) -> "DiscreteBatch":
        """``m`` copies of the degenerate variable equal to ``value``."""
        return cls(
            values=np.full((m, 1), float(value)),
            probs=np.ones((m, 1)),
            sizes=np.ones(m, dtype=np.int64),
        )

    @classmethod
    def from_rvs(cls, rvs: "list[DiscreteRV]") -> "DiscreteBatch":
        """Pack scalar :class:`DiscreteRV` instances as rows of one batch.

        The scalar class invariant (ascending support, normalised mass)
        matches the batch invariant directly, so packing is a pad-only
        copy — no re-normalisation that could perturb the atoms.  This is
        the bridge Dodin's batched reduction rounds use to lift arc laws
        into row-parallel operations.
        """
        if not rvs:
            raise EstimationError("cannot build a batch from zero variables")
        sizes = np.array([rv.support_size for rv in rvs], dtype=np.int64)
        width = int(sizes.max())
        values = np.full((len(rvs), width), np.inf)
        probs = np.zeros((len(rvs), width))
        for i, rv in enumerate(rvs):
            size = int(sizes[i])
            values[i, :size] = rv.values
            probs[i, :size] = rv.probabilities
        return cls(values=values, probs=probs, sizes=sizes)

    @classmethod
    def two_state(
        cls, nominal: np.ndarray, reexecuted: np.ndarray, pfail: np.ndarray
    ) -> "DiscreteBatch":
        """Per-row two-state laws (the batched ``DiscreteRV.two_state``).

        Rows with ``pfail`` of exactly 0 or 1 collapse to a single atom,
        like the scalar constructor.
        """
        nominal = np.asarray(nominal, dtype=np.float64)
        reexecuted = np.asarray(reexecuted, dtype=np.float64)
        pfail = np.asarray(pfail, dtype=np.float64)
        if np.any((pfail < 0.0) | (pfail > 1.0)):
            raise EstimationError("pfail must be in [0, 1]")
        mixed = (pfail > 0.0) & (pfail < 1.0)
        values = np.stack(
            [np.where(pfail >= 1.0, reexecuted, nominal),
             np.where(mixed, reexecuted, np.inf)],
            axis=1,
        )
        probs = np.stack(
            [np.where(mixed, 1.0 - pfail, 1.0), np.where(mixed, pfail, 0.0)],
            axis=1,
        )
        return _normalize_sorted(values, probs)

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def row(self, i: int) -> DiscreteRV:
        """Extract one row as a scalar :class:`DiscreteRV`.

        Rows are already sorted, merged and free of zero atoms (the batch
        invariant), so the row skips the full ``DiscreteRV`` normalisation;
        the result is bit-identical to ``DiscreteRV(values, probs)``.
        """
        size = int(self.sizes[i])
        return DiscreteRV._from_canonical(
            self.values[i, :size], self.probs[i, :size]
        )

    def take(self, rows: np.ndarray) -> "DiscreteBatch":
        """Gather a sub-batch of rows, trimmed to their maximal width."""
        sizes = self.sizes[rows]
        width = max(1, int(sizes.max())) if sizes.size else 1
        return DiscreteBatch(
            values=self.values[rows, :width],
            probs=self.probs[rows, :width],
            sizes=sizes,
        )

    def means(self) -> np.ndarray:
        """Per-row expected values."""
        contrib = np.where(self.probs > 0.0, self.values * self.probs, 0.0)
        return contrib.sum(axis=1)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def maximum(self, other: "DiscreteBatch", max_support: int) -> "DiscreteBatch":
        """Row-wise maximum of independent variables (CDF product).

        Mirrors :meth:`DiscreteRV.maximum`: the product of the two CDFs is
        evaluated on the exact-unique merged support, differentiated into a
        pmf, clipped, renormalised by the terminal CDF value and pruned.
        """
        m = self.num_rows
        vals = np.concatenate([self.values, other.values], axis=1)
        pa = np.concatenate([self.probs, np.zeros_like(other.probs)], axis=1)
        pb = np.concatenate([np.zeros_like(self.probs), other.probs], axis=1)
        order = np.argsort(vals, axis=1, kind="stable")
        vals = np.take_along_axis(vals, order, axis=1)
        pa = np.take_along_axis(pa, order, axis=1)
        pb = np.take_along_axis(pb, order, axis=1)

        # Each variable's CDF at every merged point: cumulative sums of its
        # own atom probabilities in merged order (zeros at the other
        # variable's slots leave the partial sums bit-identical to the
        # scalar searchsorted evaluation).
        cum_a = np.cumsum(pa, axis=1)
        cum_b = np.cumsum(pb, axis=1)

        newgrp = np.empty(vals.shape, dtype=bool)
        newgrp[:, 0] = True
        newgrp[:, 1:] = vals[:, 1:] != vals[:, :-1]
        islast = np.empty_like(newgrp)
        islast[:, -1] = True
        islast[:, :-1] = newgrp[:, 1:]
        groups = np.cumsum(newgrp, axis=1) - 1
        num_groups = newgrp.sum(axis=1)
        width = int(num_groups.max())
        flat = groups + np.arange(m)[:, None] * width

        cdf = np.zeros((m, width))
        cdf.reshape(-1)[flat[islast]] = (cum_a * cum_b)[islast]
        merged = np.full((m, width), np.inf)
        merged.reshape(-1)[flat[newgrp]] = vals[newgrp]

        pmf = cdf.copy()
        pmf[:, 1:] -= cdf[:, :-1]
        terminal = cdf[np.arange(m), num_groups - 1]
        probs = np.clip(pmf, 0.0, None) / np.maximum(terminal, 1e-300)[:, None]
        return _normalize_sorted(merged, probs).pruned(max_support)

    def add(self, other: "DiscreteBatch", max_support: int) -> "DiscreteBatch":
        """Row-wise sum of independent variables (outer-sum convolution).

        ``other`` is expected to be narrow (the two-state task laws); the
        outer sums are laid out in the scalar implementation's ravel order
        before the stable sort, so ties resolve identically.
        """
        m = self.num_rows
        vals = (self.values[:, :, None] + other.values[:, None, :]).reshape(m, -1)
        probs = (self.probs[:, :, None] * other.probs[:, None, :]).reshape(m, -1)
        order = np.argsort(vals, axis=1, kind="stable")
        vals = np.take_along_axis(vals, order, axis=1)
        probs = np.take_along_axis(probs, order, axis=1)
        return _normalize_sorted(vals, probs).pruned(max_support)

    def pruned(self, max_support: int) -> "DiscreteBatch":
        """Row-wise equal-mass pruning to at most ``max_support`` atoms.

        Rows already within the cap are returned unchanged (the scalar
        implementation returns ``self``); the others are merged with the
        scalar grouping rule (groups of equal probability mass, each
        replaced by its conditional mean).
        """
        if max_support < 1:
            raise EstimationError("max_support must be at least 1")
        need = self.sizes > max_support
        if not need.any():
            return self._trimmed()
        sub = DiscreteBatch(self.values[need], self.probs[need], self.sizes[need])
        pruned = _prune_all(sub, max_support)
        if need.all():
            return pruned

        keep_sizes = self.sizes[~need]
        width = max(pruned.width, int(keep_sizes.max()) if keep_sizes.size else 1)
        m = self.num_rows
        out_v = np.full((m, width), np.inf)
        out_p = np.zeros((m, width))
        out_v[need, : pruned.width] = pruned.values
        out_p[need, : pruned.width] = pruned.probs
        cols = min(self.width, width)
        out_v[~need, :cols] = self.values[~need, :cols]
        out_p[~need, :cols] = self.probs[~need, :cols]
        sizes = np.where(need, 0, self.sizes)
        sizes[need] = pruned.sizes
        return DiscreteBatch(out_v, out_p, sizes)

    def _trimmed(self) -> "DiscreteBatch":
        width = max(1, int(self.sizes.max())) if self.sizes.size else 1
        if width == self.width:
            return self
        return DiscreteBatch(
            self.values[:, :width], self.probs[:, :width], self.sizes
        )


def _normalize_sorted(values: np.ndarray, probs: np.ndarray) -> DiscreteBatch:
    """The scalar constructor's normalisation, batched over sorted rows.

    Mirrors ``DiscreteRV.__init__`` once the atoms are sorted: clip, scale
    to total mass one, merge runs closer than the tolerance (keeping the
    first value of each run), and drop atoms without probability mass.
    """
    m, _ = values.shape
    probs = np.clip(probs, 0.0, None)
    total = probs.sum(axis=1)
    if np.any(total <= 0.0):
        raise EstimationError("probabilities sum to zero")
    probs = probs / total[:, None]

    keep = np.empty(values.shape, dtype=bool)
    keep[:, 0] = True
    with np.errstate(invalid="ignore"):
        # inf - inf (padding) yields NaN, which correctly compares False.
        keep[:, 1:] = (values[:, 1:] - values[:, :-1]) > _ATOL
    groups = np.cumsum(keep, axis=1) - 1
    width = int(keep.sum(axis=1).max())
    flat = groups + np.arange(m)[:, None] * width
    merged_p = np.bincount(
        flat.ravel(), weights=probs.ravel(), minlength=m * width
    ).reshape(m, width)
    merged_v = np.full((m, width), np.inf)
    merged_v.reshape(-1)[flat[keep]] = values[keep]

    positive = merged_p > 0.0
    merged_v = np.where(positive, merged_v, np.inf)
    merged_p = np.where(positive, merged_p, 0.0)
    order = np.argsort(merged_v, axis=1, kind="stable")
    merged_v = np.take_along_axis(merged_v, order, axis=1)
    merged_p = np.take_along_axis(merged_p, order, axis=1)
    sizes = positive.sum(axis=1)
    width = max(1, int(sizes.max()))
    return DiscreteBatch(merged_v[:, :width], merged_p[:, :width], sizes)


def _prune_all(batch: DiscreteBatch, max_support: int) -> DiscreteBatch:
    """Apply the scalar pruning rule to every row of ``batch``."""
    m = batch.num_rows
    p = batch.probs
    cum = np.cumsum(p, axis=1)
    groups = np.minimum(
        (cum - 1e-15) * max_support, max_support - 1
    ).astype(np.int64)
    groups = np.maximum.accumulate(groups, axis=1)
    v_zeroed = np.where(p > 0.0, batch.values, 0.0)
    flat = groups + np.arange(m)[:, None] * max_support
    new_p = np.bincount(
        flat.ravel(), weights=p.ravel(), minlength=m * max_support
    ).reshape(m, max_support)
    new_vp = np.bincount(
        flat.ravel(), weights=(p * v_zeroed).ravel(), minlength=m * max_support
    ).reshape(m, max_support)
    positive = new_p > 0.0
    new_v = np.where(positive, new_vp / np.where(positive, new_p, 1.0), np.inf)
    new_p = np.where(positive, new_p, 0.0)
    # Skipped group slots leave +inf holes between real atoms; compact (the
    # real atoms are already ascending: group means of consecutive runs of
    # an ascending support are monotone).
    order = np.argsort(new_v, axis=1, kind="stable")
    new_v = np.take_along_axis(new_v, order, axis=1)
    new_p = np.take_along_axis(new_p, order, axis=1)
    return _normalize_sorted(new_v, new_p)
