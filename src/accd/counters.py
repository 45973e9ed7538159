"""Run-wide computation tallies.

Every code path that evaluates a true point-to-point distance bumps
``point_distances`` exactly once; distances evaluated only to feed bound
computations (landmark pairs, point-to-landmark offsets, drifts, the
k-means tightening of a point's upper bound to its own centre, the
distances from every point to every centre landmark and from every centre
to every centre that seed k-means iteration 1, and the join's m*z from
every point to every target landmark, which its cut is made from) go to
``bound_computations``; the throwaway work of building groups, of the one
set each pipeline groups (the join's targets, k-means' centres, n-body's
particles), goes to ``grouping_distances``, which counts the rows*z
point-landmark pairs each nearest-landmark assignment decides (per
``build_groups`` call 6*n*z, or 5*s*z + n*z when its five Lloyd rounds run
on a sample of s = 16*z < n points), not the candidates of its open
(near-tie) points or the final pass's point-to-landmark distances, which
it recomputes exactly. Its tiles go through the pipelines' tile engine,
yet count in no kernel tally. Avoided point-pair work is split into
mutually exclusive buckets so per-iteration conservation can be checked:
pruned by bounds, or reused (a
k-means iteration in which no centroid moved keeps every assignment; the
mirrored half of the group pairs a self-set step tiles, whose pairs are
the tiled half's, swapped). ``all_inside_pairs`` is always 0: a self-set
rebuild tiles every group pair it keeps, even one whose upper bound lies
within its cut. The field stays because benchmark records and the run
report (schema v5, of ``accd run`` and ``accd bench``) read it.
``recomputed_distances`` counts the point pairs a pipeline evaluates by
direct differencing, the oracles' arithmetic, on top of the kernel's fast
tile: to settle a decision the tile's error bound leaves open, or to
report an output distance (such as a k-means winner's, which seeds the
point's bound). It is the cost of exactness in floating point, stays
outside pair conservation, and leaves out grouping's own near-tie
candidates. ``tiles_executed`` counts kernel calls and ``bytes_streamed``
the operand rows each call reads, (rows + cols) * d float64 values; both
follow the tiling, so the batching of source points and the tile budget
change them; ``mac_ops`` counts each call's rows * cols * d terms. Both
it and ``bytes_streamed`` count the d data columns, not the d + 2 of an
L2 operand row (``kernel.fast_rows``), two of which carry its norm. The
landmark and centre tiles that k-means and the join take as bound work
count in all three.

A self-set step that keeps its Verlet list (a list step) makes no kernel
call. It evaluates each listed unordered pair once by direct
differencing, which counts as ``point_distances`` with no tile; the
pair's other orientation counts as ``reused_pairs``, and every other
ordered pair, each point with itself included, as ``pruned_pairs``. It
sweeps no source batch (``source_batches`` 0), and ``tiles_executed``,
``mac_ops`` and ``bytes_streamed``, which count only kernel calls and
their operands, stay 0 on it. A step that rebuilds the list counts its
sweep as above, and its direct evaluation of the new list as
``recomputed_distances``.

Functions that take ``counters=None`` tally nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class CounterSet:
    point_distances: int = 0
    bound_computations: int = 0
    grouping_distances: int = 0
    pruned_pairs: int = 0
    all_inside_pairs: int = 0
    reused_pairs: int = 0
    recomputed_distances: int = 0
    mac_ops: int = 0
    tiles_executed: int = 0
    bytes_streamed: int = 0

    def add(self, other: "CounterSet") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def snapshot(self) -> "CounterSet":
        return CounterSet(**self.as_dict())

    def delta_since(self, base: "CounterSet") -> "CounterSet":
        return CounterSet(
            **{f.name: getattr(self, f.name) - getattr(base, f.name) for f in fields(self)}
        )

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
