"""Optimal m-fold piercing of open circular arcs with exact certificates.

Positions are restricted to canonical "infinitesimally CCW past an arc
start" slots: sliding any piercing point clockwise to the nearest start
keeps every arc it was in, so an optimal canonical solution always
exists.  Membership of the slot past start s in the open arc (a, b) is
the exact half-open test s in [a, b), decided by orientation signs only,
so every test runs on the primitive integer rays of the endpoints, which
each ``Arc`` computes once (``Arc.rays``); polygon vertex arcs take them
from their polygon instead.

A total T is infeasible exactly when some chain of k arcs with pairwise
disjoint slot intervals wraps the circle w times with k*m > w*T (a
positive cycle of the cut-and-unroll difference constraints below).  So
the optimum is I^m(P) = ceil(m * rho) for every m at once, where
rho = max k/w is the fractional illumination number I*(P) (M. Naszodi,
"Fractional illumination of convex bodies", Contrib. Discrete Math. 4
(2009)).  Earliest-end greedy on the slot intervals finds the densest
chain in O(n) after the sort (W.-L. Hsu and K.-H. Tsai, "Linear time
algorithms on circular-arc graphs", IPL 40 (1991)); one longest-path
feasibility call at T = ceil(k*m/w) then yields the multiplicities, and
the chain is the optimality certificate.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations_with_replacement
from typing import Iterator

import numpy as np

from .errors import DomainError, GeometryInternalError
from .geometry import (
    Direction,
    DirectionMultiset,
    _integer_vector,
    _over,
    _primitive_ray,
    _ray_unit,
    angle_cmp,
    angle_sort_key,
    ccw_rel_lt,
    cross2,
    in_halfopen_arc,
    in_open_arc,
)


class Arc:
    """Open CCW arc on the circle of directions, exact rational endpoints.

    ``int_start`` and ``int_end`` hold the endpoints as integers (x, y, d)
    for (x/d, y/d), d > 0; ``start`` and ``end`` build their ``Fraction``
    values when read, and equality and hashing are those of (start, end).
    ``rays`` holds the primitive integer rays of (start, end), on which
    every membership test runs.
    """

    __slots__ = ("int_start", "int_end", "rays")

    def __init__(self, start, end):
        self.int_start, self.int_end = _integer_vector(start), _integer_vector(end)
        self.rays = (_primitive_ray(self.int_start[:-1]), _primitive_ray(self.int_end[:-1]))
        if self.rays[0] == self.rays[1]:
            raise DomainError("arc endpoints coincide (length 0 or full circle)")

    @classmethod
    def _on_rays(cls, int_start, int_end, rays) -> "Arc":
        """Arc on integer endpoints whose primitive rays (distinct) the caller
        already holds; nothing is recomputed."""
        arc = object.__new__(cls)
        arc.int_start, arc.int_end, arc.rays = int_start, int_end, rays
        return arc

    @property
    def start(self) -> tuple[Fraction, Fraction]:
        return _over(self.int_start)

    @property
    def end(self) -> tuple[Fraction, Fraction]:
        return _over(self.int_end)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.start, self.end) == (other.start, other.end)

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __repr__(self) -> str:
        return f"Arc(start={self.start!r}, end={self.end!r})"

    def contains_slot(self, s) -> bool:
        """Does this open arc contain the slot just CCW past direction s (any
        positive multiple)?"""
        return in_halfopen_arc(*self.rays, s)

    def contains_direction(self, u) -> bool:
        """Strict interior membership of a concrete direction (any positive
        multiple)."""
        return in_open_arc(*self.rays, u)

    def length(self) -> float:
        """Arc length in radians (float, for reporting only)."""
        (sx, sy), (ex, ey) = (_ray_unit(r) for r in self.rays)
        ang = math.atan2(sx * ey - sy * ex, sx * ex + sy * ey)
        return ang % (2 * math.pi)


@dataclass
class ArcSystem:
    """Arcs to pierce."""

    arcs: list[Arc]

    def __post_init__(self):
        if not self.arcs:
            raise DomainError("arc system must be nonempty")

    @property
    def n(self) -> int:
        return len(self.arcs)


@dataclass
class PiercingSolution:
    """Optimal multiset of slots with exact concrete directions.

    ``slots`` holds (arc index owning the start, multiplicity); the
    matching entries of ``directions`` are exact rational vectors strictly
    inside every arc the slot pierces.  ``certificate`` is the chain lower
    bound proving optimality.
    """

    size: int
    m: int
    slots: list[tuple[int, int]]
    directions: list[tuple[Fraction, Fraction]]
    certificate: dict

    def as_direction_multiset(self) -> DirectionMultiset:
        return DirectionMultiset(
            [(Direction(d), mult) for d, (_, mult) in zip(self.directions, self.slots)]
        )


def _slot_order(system: ArcSystem) -> list[int]:
    keys = [angle_sort_key(arc.rays[0]) for arc in system.arcs]
    return sorted(range(system.n), key=keys.__getitem__)


def _membership(system: ArcSystem, order: list[int]) -> list[list[bool]]:
    """member[i][k]: arc i contains the slot at sorted position k."""
    return [
        [arc.contains_slot(system.arcs[order[k]].rays[0]) for k in range(system.n)]
        for arc in system.arcs
    ]


def _slot_intervals(arcs) -> tuple[list[int], list[tuple[int, int]]]:
    """Slot order and the cyclic slot interval [l, r] of every arc (l may
    exceed r).

    Arc i holds the slots whose start lies in [start_i, end_i): the run
    from the first start equal to start_i up to the last start before
    end_i: one pass over the sorted starts, and one merge of the sorted ends
    into them (a convex polygon's starts and ends sort as two runs each).
    """
    n = len(arcs)
    starts = [arc.rays[0] for arc in arcs]
    order = sorted(range(n), key=[angle_sort_key(s) for s in starts].__getitem__)
    first = [0] * n  # primitive rays: equal iff on the same ray
    for k, prev, i in zip(range(1, n), order, order[1:]):
        first[i] = first[prev] if starts[i] == starts[prev] else k
    below, j = [0] * n, 0
    for i in sorted(range(n), key=[angle_sort_key(a.rays[1]) for a in arcs].__getitem__):
        while j < n and angle_cmp(starts[order[j]], arcs[i].rays[1]) < 0:
            j += 1
        below[i] = j
    intervals = []
    for l, b in zip(first, below):
        # cyclic distance from l to the first start at or past the end; 0
        # means no start lies in [end, start), so the arc holds every slot
        count = (b - l) % n or n
        intervals.append((0, n - 1) if count == n else (l, (l + count - 1) % n))
    return order, intervals


def _greedy_chain(intervals, n) -> tuple[list[int], int]:
    """Densest chain: k arcs with pairwise disjoint slot intervals that wrap
    the circle w times, k/w as large as possible.

    The circle of slots is unrolled twice.  From a position p the greedy
    takes the arc with the smallest end among the arcs starting at or past
    p (suffix minima over the starts) and moves to one past its end; the
    copies starting in the second turn stand in for everything later.  The
    walk is periodic mod n, so it ends in a cycle: the arcs taken since the
    first visit of a position, wrapping (displacement)/n times.
    Earliest-end greedy is optimal on every window, so the cycle has the
    largest density (Hsu and Tsai 1991).
    """
    best = [(3 * n, -1)] * (2 * n + 1)
    for i, (l, r) in enumerate(intervals):
        end = r if l <= r else r + n
        best[l] = min(best[l], (end, i))
        best[l + n] = min(best[l + n], (end + n, i))
    for p in range(2 * n - 1, -1, -1):
        best[p] = min(best[p], best[p + 1])
    chain, seen, pos = [], {}, 0
    while pos % n not in seen:
        seen[pos % n] = (len(chain), pos)
        end, i = best[pos % n]
        chain.append(i)
        pos += end + 1 - pos % n
    first, first_pos = seen[pos % n]
    return chain[first:], (pos - first_pos) // n


def _feasible(intervals, n, m, total) -> list[int]:
    """Slot multiplicities summing to ``total`` that pierce every arc m times.

    Cut before slot 0 and unroll: nodes 0..n are the prefix sums
    y_{-1}..y_{n-1} anchored at y_{-1}=0, and the constraints are solved by
    longest paths.  A total below the optimum leaves a positive cycle and
    the relaxation never settles; that means the chain bound is wrong.
    """
    edges = [(j, j + 1, 0) for j in range(n)]
    edges += [(l, r + 1, m - total if l > r else m) for l, r in intervals]
    edges.append((n, 0, -total))
    dist = [-(10 ** 18)] * (n + 1)
    dist[0] = 0
    for _ in range(n + 1):
        changed = False
        for a, b, w in edges:
            if dist[a] + w > dist[b]:
                dist[b] = dist[a] + w
                changed = True
        if not changed:
            break
    else:
        raise GeometryInternalError(f"total {total} is infeasible: wrong chain bound")
    x = [dist[j + 1] - dist[j] for j in range(n)]
    x[n - 1] += total - dist[n]
    return x


def _nearest_covering(arcs, order, intervals, slots) -> Iterator[int]:
    """For each slot k of the ascending ``slots``, a covering arc with the
    end nearest CCW from the slot's start, by one heap sweep.

    The heap holds the arcs covering slot k keyed by their last slot
    unrolled past k (a wrapping arc starts in it, sorted, with key r and
    enters again at l with key r + n).  An arc with last slot r ends in
    (start_r, start_(r+1)], so the least key holds the nearest end, and
    ``ccw_rel_lt`` breaks ties.  A full-circle arc is stored as (0, n - 1)
    whatever its first slot, so its end is compared directly instead."""
    n = len(arcs)
    full = [i for i in range(n) if intervals[i] == (0, n - 1)]
    heap, p = sorted((r, i) for i, (l, r) in enumerate(intervals) if l > r), 0
    for k in slots:
        while p < n and intervals[order[p]][0] <= k:  # non-full starts ascend
            l, r = intervals[order[p]]
            if (l, r) != (0, n - 1):
                heappush(heap, (r if l <= r else r + n, order[p]))
            p += 1
        while heap and heap[0][0] < k:
            heappop(heap)
        ties = [heappop(heap)] if heap else []
        while heap and heap[0][0] == ties[0][0]:
            ties.append(heappop(heap))
        for entry in ties:
            heappush(heap, entry)
        s, (near, *rest) = arcs[order[k]].rays[0], [i for _, i in ties] + full
        for i in rest:
            if ccw_rel_lt(s, arcs[i].rays[1], arcs[near].rays[1]):
                near = i
        yield near


def _concretize_slot(system: ArcSystem, k: int, order, intervals, near_idx: int):
    """Exact rational direction strictly inside every arc covering slot k.

    Rotates the start vector s CCW by the rational rotation of parameter
    t = 1/q (angle 2*atan(t) < 2/q), doubling q from 4 until every strict
    membership holds.  The tests run on q^2 times the rotated start ray;
    only the accepted direction is built from the exact start.

    Every covering arc holds [s, e) for its end e, so all of them hold the
    open arc (s, e_j) to the nearest covering end e_j, that of arc
    ``near_idx``: a rotation landing there is accepted at once.  Only one
    that passes e_j and re-enters arc j, so arc j is longer than pi (never
    a vertex arc), reads the covering arcs off the slot intervals and
    tests them all.  With the integer coordinates of s and e_j below 2^b in
    absolute value, the rays are at least 2^(-2b-1) apart (|cross| >= 1
    over a product of norms below 2^(2b+1)), so the rotation lands in
    (s, e_j) once q >= 2^(2b+2), which 2b doublings reach; the loop
    allows 2b + 2.
    """
    arcs = system.arcs
    s, near = arcs[order[k]].rays[0], arcs[near_idx]
    end, long = near.rays[1], cross2(*near.rays) < 0  # longer than pi
    sx, sy = s
    b = max(abs(c).bit_length() for c in (sx, sy, *end))
    q = 4
    for _ in range(2 * b + 3):
        c = q * q - 1
        w = (c * sx - 2 * q * sy, 2 * q * sx + c * sy)
        if in_open_arc(s, end, w) or (long and near.contains_direction(w) and all(
            arcs[i].contains_direction(w)
            for i, (l, r) in enumerate(intervals)
            if (l <= k <= r if l <= r else not r < k < l)
        )):
            # ((1 - t^2) x - 2 t y, 2 t x + (1 - t^2) y) at t = 1/q on integers
            x, y, d = arcs[order[k]].int_start
            den = q * q * d
            return Fraction(c * x - 2 * q * y, den), Fraction(2 * q * x + c * y, den)
        q *= 2
    raise GeometryInternalError("failed to concretize a piercing slot")


def min_mfold_pierce(system: ArcSystem, m: int) -> PiercingSolution:
    """Provably optimal multiset piercing every arc at least m times.

    O(n log n) besides the feasibility relaxation and the slot rotations."""
    if m < 1:
        raise DomainError("demand must be >= 1")
    n = system.n
    order, intervals = _slot_intervals(system.arcs)
    chain, wraps = _greedy_chain(intervals, n)
    total = -(-len(chain) * m // wraps)
    emitted = [(k, x) for k, x in enumerate(_feasible(intervals, n, m, total)) if x > 0]
    nearest = _nearest_covering(system.arcs, order, intervals, [k for k, _ in emitted])
    return PiercingSolution(
        size=total, m=m, slots=[(order[k], mult) for k, mult in emitted],
        directions=[_concretize_slot(system, k, order, intervals, near)
                    for (k, _), near in zip(emitted, nearest)],
        certificate={
            "anchor_arc": chain[0], "chain": chain, "wraps": wraps, "bound": total
        },
    )


def certificate_lower_bound(system: ArcSystem, certificate: dict, m: int) -> int:
    """Independent re-derivation of the chain certificate's lower bound.

    Every circle point lies in at most ``cover`` chain arcs; each chain arc
    needs m points, hence any solution has at least ceil(k*m/cover) points.
    Coverage is piecewise constant, changing only at chain arc endpoints,
    and no point has more than the slot just past it, so one sweep over the
    sorted endpoints finds the maximum: it starts from the slots just past
    the first key, counted directly, and applies every later end before
    the starts at its key (the arcs are open).
    """
    chain = [system.arcs[i] for i in certificate["chain"]]
    # an end (-1) sorts before a start (+1) at an equal key
    events = sorted(
        (angle_sort_key(ray), delta)
        for arc in chain
        for ray, delta in zip(arc.rays, (1, -1))
    )
    first = events[0][0]
    running = cover = sum(1 for arc in chain if arc.contains_slot(first.obj))
    for _, delta in events[bisect_right(events, (first, 1)):]:
        running += delta
        cover = max(cover, running)
    if cover == 0:
        raise GeometryInternalError("certificate chain covers nothing")
    return math.ceil(len(chain) * m / cover)


def verify_piercing(system: ArcSystem, solution: PiercingSolution, m: int) -> bool:
    """Exact feasibility re-check of the concrete directions."""
    rays = [_primitive_ray(d) for d in solution.directions]
    for arc in system.arcs:
        covered = sum(
            mult
            for u, (_, mult) in zip(rays, solution.slots)
            if arc.contains_direction(u)
        )
        if covered < m:
            return False
    return True


def min_mfold_pierce_bruteforce(system: ArcSystem, m: int) -> int:
    """Exhaustive search over canonical slot multisets; cross-checks the DP.

    Guarded to small instances: n <= 9, m <= 4.
    """
    n = system.n
    if n > 9 or m > 4:
        raise DomainError("brute force is guarded to n <= 9, m <= 4")
    order = _slot_order(system)
    member = np.array(_membership(system, order), dtype=np.int64)
    for size in range(m, m * n + 1):
        combos = np.array(list(combinations_with_replacement(range(n), size)))
        counts = np.zeros((len(combos), n), dtype=np.int64)
        np.add.at(counts, (np.arange(len(combos))[:, None], combos), 1)
        coverage = counts @ member.T
        if bool((coverage >= m).all(axis=1).any()):
            return size
    raise GeometryInternalError("brute force found no feasible multiset")
