"""The coupled Wythoff sequences: mex recursion and exact closed form.

Two independent constructions of the same pair of sequences live here.

``build_recursive`` materializes the lower sequence p = 1, 3, 4, 6, 8, ...
and the upper sequence q = 2, 5, 7, 10, 13, ... by the minimal-excludant
rule: p(1) = 1, q(n) = p(n) + n, and p(n+1) is the smallest positive
integer not yet used by either sequence.  Together the two sequences
partition the positive integers.

``beatty_p`` / ``beatty_q`` compute the same values in closed form as
floor(n*phi) and floor(n*phi^2), where phi is the golden ratio, using
exact integer arithmetic only (no floating point at any width).  The two
routes are deliberately kept independent so each can serve as an oracle
for the other.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from math import isqrt

from .errors import CapacityError, RangeError

# Largest n_max build_recursive accepts.  A build peaks at ~85 bytes per
# pair (94.9 MiB RSS at 10^6), so the ceiling is ~0.9 GB.
_TABLE_CAP = 10_000_000


class SeqKind(Enum):
    """Which of the two sequences an integer belongs to."""

    P = "P"
    Q = "Q"


@dataclass(frozen=True)
class Membership:
    """Classification of one integer: the sequence it sits in, and where."""

    kind: SeqKind
    index: int


def beatty_p(n: int) -> int:
    """floor(n*phi) by exact integer arithmetic, for n >= 1.

    With phi = (1 + sqrt5)/2, floor(n*phi) = (n + isqrt(5*n^2)) // 2.
    sqrt5 is irrational, so 5*n^2 is never a perfect square beyond the
    integer part and the floor can never be off by one.  Valid for
    arbitrarily large n (Python integers are unbounded).
    """
    if n < 1:
        raise RangeError(f"n must be >= 1, got {n}")
    return (n + isqrt(5 * n * n)) // 2


def beatty_q(n: int) -> int:
    """floor(n*phi^2) for n >= 1; equals beatty_p(n) + n since phi^2 = phi + 1."""
    return beatty_p(n) + n


class PairTable:
    """Materialized prefix of the coupled sequences.

    ``p`` and ``q`` are 1-indexed lists (slot 0 is an unused sentinel)
    holding the first ``n_max`` terms of each sequence.  Every integer
    in [1, span], where ``span = q(n_max)``, belongs to exactly one
    sequence.  Lower-sequence indices of integers in the span may exceed
    ``n_max``: the lower sequence runs ahead of the part of the prefix
    whose upper partner is still in range.

    Tables are built by :func:`build_recursive`; a completed table is
    treated as immutable and is safe to share across threads.
    """

    __slots__ = ("n_max", "p", "q", "span")

    def __init__(self, n_max: int, p: list[int], q: list[int]):
        self.n_max = n_max
        self.p = p
        self.q = q
        self.span = q[n_max]

    def __repr__(self) -> str:
        return f"PairTable(n_max={self.n_max}, span={self.span})"

    def copy(self) -> "PairTable":
        """Independent deep copy, to corrupt without touching the original."""
        return PairTable(self.n_max, list(self.p), list(self.q))

    def classify_integer(self, m: int) -> Membership:
        """The unique (kind, index) with p(index) = m or q(index) = m.

        The two sequences partition the positive integers, so with i upper
        values <= m, m is either q(i) or the (m - i)-th lower value.
        """
        if not 1 <= m <= self.span:
            raise RangeError(f"{m} outside the indexed span [1, {self.span}]")
        i = bisect_right(self.q, m, 1, self.n_max + 1) - 1
        if self.q[i] == m:
            return Membership(SeqKind.Q, i)
        return Membership(SeqKind.P, m - i)


def build_recursive(n_max: int) -> PairTable:
    """Build the first n_max pairs by the minimal-excludant recursion.

    A rolling cursor tracks the smallest integer not yet assigned to
    either sequence, giving O(q(n_max)) construction time.

    The occupancy structure is preallocated at 3*n_max + 2 cells, which
    the step bound p(n+1) - p(n) <= 2 guarantees is enough; exceeding it
    raises :class:`CapacityError`, and so does an n_max above the
    table ceiling, before anything is allocated.
    """
    if n_max < 1:
        raise RangeError(f"n_max must be >= 1, got {n_max}")
    if n_max > _TABLE_CAP:
        raise CapacityError(f"n_max {n_max} exceeds the table bound {_TABLE_CAP}")
    cap = 3 * n_max + 2
    used = bytearray(cap + 2)
    p = [0] * (n_max + 1)
    q = [0] * (n_max + 1)

    cursor = 1
    for n in range(1, n_max + 1):
        p[n] = cursor
        qn = cursor + n
        if qn > cap:
            raise CapacityError(f"q({n}) = {qn} exceeds the index bound {cap}")
        if used[qn]:
            raise CapacityError(f"occupancy collision at {qn}; table corrupt")
        q[n] = qn
        used[cursor] = 1
        used[qn] = 1
        cursor += 1
        while used[cursor]:
            cursor += 1

    return PairTable(n_max, p, q)
