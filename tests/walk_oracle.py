"""A scalar random walker, kept for the tests as the reference for the walk
pass of `rcic.sampling`.

It walks one step at a time with Python lists and sets: no sink nodes, no
step matrix and no candidate positions.  The pass simulates every walk of a
chunk in lockstep on the graph's CSR with an absorbing HIT node, so a store
whose every walk this walker replays, fed the same uniforms, is evidence,
not tautology.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WalkProfile:
    """One sampled walk: its start, whether it reached the rumor set, and its
    prefix, the distinct non-rumor nodes seen before the first rumor node.

    A store keeps that prefix for hit walks only; a miss's row there is its
    start node alone.
    """

    start: int
    hit: bool
    prefix: frozenset[int]


def sample_walk(g, u: int, rumor_set, T: int, rng) -> WalkProfile:
    """Simulate one walk of at most T steps from u.

    rng needs a .random() method returning uniforms in [0, 1).  Consumes one
    uniform per executed step, none after a hit or at a dead end.
    """
    if u in rumor_set:
        raise ValueError(f"start node {u} is in the rumor set")
    prefix = {u}
    cur = u
    hit = False
    for _ in range(T):
        nbrs = g.neighbors(cur)
        if not nbrs:
            break
        nxt = nbrs[int(rng.random() * len(nbrs))]
        if nxt in rumor_set:
            hit = True
            break
        prefix.add(nxt)
        cur = nxt
    return WalkProfile(start=u, hit=hit, prefix=frozenset(prefix))
