"""The coupled Wythoff sequences: mex recursion and exact closed form.

Two independent constructions of the same pair of sequences live here.

``lower_values`` runs the minimal-excludant recursion as a left-to-right
cursor, yielding the lower sequence p = 1, 3, 4, 6, 8, ... one term at a
time: p(1) = 1, q(n) = p(n) + n, and p(n+1) is the smallest positive
integer not yet used by either sequence.  ``build_recursive`` collects
it, with the upper sequence q = 2, 5, 7, 10, 13, ..., into a
``PairTable``.  Together the two sequences partition the positive
integers.

``beatty_p`` / ``beatty_q`` compute the same values in closed form as
floor(n*phi) and floor(n*phi^2), where phi is the golden ratio, using
exact integer arithmetic only (no floating point at any width): the
isqrt formula (n + isqrt(5*n^2)) // 2 below 2**31, and above it a
fixed-point product with a cached floor(phi * 2**K) whose exact bracket
falls back to the isqrt formula when it cannot decide.  Above 2**31 the
last answer is kept, so a game query that asks for the same floor(n*phi)
twice pays for one product.  The two routes are deliberately kept
independent so each can serve as an oracle for the other.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from math import isqrt
from operator import add
from typing import Iterator

from .errors import CapacityError, RangeError

# Largest n_max lower_values and build_recursive accept.  A table build
# peaks at ~85 bytes per pair (94.9 MiB RSS at 10^6), so ~0.9 GB at the
# ceiling; streaming the recursion holds only its ~3 bytes per pair of
# occupancy marks (~30 MB at the ceiling).
_TABLE_CAP = 10_000_000

# (K, floor(phi * 2**K)) for beatty_p above 2**31, replaced as one tuple.
# K at least doubles when it grows, so it stays at most 2 * (bits + 64)
# of the largest n seen.
_phi_cache = (0, 1)

# (n, floor(n*phi)) of the last beatty_p call above 2**31, replaced as one
# tuple like _phi_cache.
_last = (0, 0)


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

    With phi = (1 + sqrt5)/2 the formula is (n + isqrt(5*n^2)) // 2:
    isqrt(5*n^2) = floor(n*sqrt5), and (n + floor(x)) // 2 =
    floor((n + x)/2) for any integer n, so the result is exactly
    floor((n + n*sqrt5)/2).  Below 2**31 that formula is the cheapest
    route.  Above, the kernel multiplies n by s = floor(phi * 2**k), with
    k = n.bit_length() + 64, taken by a shift from one cached pair.  Since
    s <= phi * 2**k < s + 1, floor(n*s / 2**k) and floor((n*s + n) / 2**k)
    bracket floor(n*phi); when they agree that is the answer, and when
    they do not (n*phi within 2**-64 of an integer, as at Fibonacci n)
    the isqrt formula decides.  No floats are used at any width, and both
    routes are exact for arbitrarily large n.

    Above 2**31 the last (n, answer) pair is kept in ``_last`` on both
    routes, and a repeated n returns it with no product, as when
    ``best_move`` follows ``is_losing`` or re-checks a partner.  It is read
    after the bit_length call, so 3e9 still raises TypeError right after
    3 * 10**9, which equals it.  One tuple, read and replaced whole, keeps
    it thread-safe: n and its answer always come from the same call.
    """
    if n < 1:
        raise RangeError(f"n must be >= 1, got {n}")
    if n < 1 << 31:
        return (n + isqrt(5 * n * n)) // 2
    global _phi_cache, _last
    k = int.bit_length(n) + 64  # a TypeError for floats, as isqrt gives
    last_n, last = _last
    if n == last_n:
        return last
    top, scaled = _phi_cache
    if k > top:
        top = max(k, 2 * top)
        scaled = ((1 << top) + isqrt(5 << 2 * top)) // 2
        _phi_cache = top, scaled
    prod = n * (scaled >> (top - k))
    floor = prod >> k
    if floor != (prod + n) >> k:
        floor = (n + isqrt(5 * n * n)) // 2
    _last = n, floor
    return floor


def beatty_q(n: int) -> int:
    """floor(n*phi^2) for n >= 1; equals beatty_p(n) + n since phi^2 = phi + 1."""
    return beatty_p(n) + n


class PairTable:
    """Materialized prefix of the coupled sequences.

    ``p`` and ``q`` are 1-indexed lists (slot 0 is an unused sentinel)
    holding the first ``n_max`` terms of each sequence; lists of any
    other length raise :class:`RangeError`.  Every integer in [1, span],
    where ``span = q(n_max)``, belongs to exactly one sequence.
    Lower-sequence indices of integers in the span may exceed
    ``n_max``: the lower sequence runs ahead of the part of the prefix
    whose upper partner is still in range.

    Tables are built by :func:`build_recursive`; a completed table is
    treated as immutable and is safe to share across threads.
    """

    __slots__ = ("n_max", "p", "q", "span")

    def __init__(self, n_max: int, p: list[int], q: list[int]):
        if len(p) != n_max + 1 or len(q) != n_max + 1:
            raise RangeError(
                f"p and q must hold n_max + 1 = {n_max + 1} entries, "
                f"got {len(p)} and {len(q)}"
            )
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


def lower_values(n_max: int) -> Iterator[int]:
    """Yield p(1), ..., p(n_max) by the minimal-excludant recursion.

    The only state is a cursor at the smallest integer not yet assigned
    to either sequence and one occupancy mark per integer, preallocated
    at 3*n_max + 4 cells (~3 bytes per pair).  Only upper values are
    marked: the cursor only moves up and every later q(n) = cursor + n
    lies above it, so nothing would read a mark on a lower value.  The
    cells suffice by the recursion's own steps.  The cursor rises
    strictly, so q(n) = cursor + n rises by at least 2 per step, and no
    cell is marked twice.  The marks are at least 2 apart, so the cursor
    skips at most one mark per step: p(n) <= 2n - 1 and q(n) <= 3n - 1.
    An n_max below 1 or above the table ceiling raises on the call,
    before anything is allocated.  q(n) is p(n) + n, so a consumer needs
    nothing else.
    """
    if n_max < 1:
        raise RangeError(f"n_max must be >= 1, got {n_max}")
    if n_max > _TABLE_CAP:
        raise CapacityError(f"n_max {n_max} exceeds the table bound {_TABLE_CAP}")

    def mex() -> Iterator[int]:
        used = bytearray(3 * n_max + 4)
        cursor = 1
        for n in range(1, n_max + 1):
            used[cursor + n] = 1
            yield cursor
            cursor += 1
            while used[cursor]:
                cursor += 1

    return mex()


def build_recursive(n_max: int) -> PairTable:
    """Build the first n_max pairs by the minimal-excludant recursion.

    Collects :func:`lower_values` into p and sets q(n) = p(n) + n, the
    recursion's own definition, in O(q(n_max)) time.  Its errors pass
    through unchanged: an n_max below 1 or above the table ceiling raises
    before anything is allocated.
    """
    p = [0]
    p.extend(lower_values(n_max))
    q = list(map(add, p, range(n_max + 1)))
    return PairTable(n_max, p, q)
