"""An index that keeps one float64 weight per hit walk, kept for the tests as
the reference for `rcic.sampling.WalkIndex`'s per-group weights.

It stands in for a store's index: every attribute but the weights is read
from the index it wraps, and its weighted sums, `hit_mass` and `weights_of`
read the walks' own weights, given by the caller, as the index did before
it weighted by group.  A store's objectives, gains and greedy runs on it
must have the same bits as on the index it wraps.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

import rcic.sampling


def per_walk_weights(store) -> np.ndarray:
    """A weight per hit walk, from the store and not its index's groups:
    1/X for a sampled store, each hit realization's probability for an
    exact one."""
    if hasattr(store, "realizations"):
        return np.array([r.probability for r in store.realizations if r.hit],
                        dtype=np.float64)
    return np.full(store.index.n_hit_walks, 1.0 / store.X, dtype=np.float64)


class PerWalkWeightIndex:
    """`index` with `walk_weights`, one float64 per hit walk, in place of
    its groups' weights."""

    def __init__(self, index, walk_weights):
        self._index = index
        self.walk_weights = np.asarray(walk_weights, dtype=np.float64)
        assert self.walk_weights.shape == (index.n_hit_walks,)

    def __getattr__(self, name):
        return getattr(self._index, name)

    def weights_of(self, walks) -> np.ndarray:
        return self.walk_weights[walks]

    def weighted_sum(self, values, walks=None) -> float:
        n = self.n_hit_walks if walks is None else len(walks)
        block = rcic.sampling._BLOCK_ENTRIES
        total = 0.0
        for b0 in range(0, n, block):
            sel = slice(b0, b0 + block) if walks is None else walks[b0:b0 + block]
            total += np.einsum("i,i->", self.walk_weights[sel], values(sel))
        return float(total)

    @cached_property
    def hit_mass(self) -> np.ndarray:
        mass = np.zeros(self.n_candidates, dtype=np.float64)
        for w0, w1 in self._walk_blocks():
            np.add.at(mass, self._block_keys(w0, w1), np.repeat(
                self.walk_weights[w0:w1], np.diff(self.walk_indptr[w0:w1 + 1])))
        return mass
