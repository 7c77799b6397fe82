"""Primes and the composites they leave behind, as an indexed pair.

The positive integers (excluding 1) split into the primes and the
composites, mirroring the two-sequence partition elsewhere in this
package.  With both sides materialized as 1-indexed sequences, the
composite sitting at position ``prime(n) - n - 1`` turns out to be
``prime(n) - 1`` for every n >= 3: below prime(n) there are exactly
n primes and the number 1, so prime(n) - n - 1 composites, and
prime(n) - 1 is composite (it is even and greater than 2), hence the
largest of them.  :func:`check_prime_claim` tests that equality and
returns the full evidence either way.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress
from math import ceil, isqrt, log

from .errors import CapacityError, RangeError

_SIEVE_CAP = 10_000_000


@dataclass(frozen=True)
class PrimeClaimEvidence:
    """One evaluation of the composite-index identity at n."""

    n: int
    p_n: int
    index: int
    q_at_index: int
    holds: bool


class PrimeGapTable:
    """Primes and composites up to ``limit``, each 1-indexed and ascending.

    1 is counted on neither side, so primes, composites, and {1}
    partition [1, limit].  Composites start at 4.
    """

    __slots__ = ("limit", "primes", "composites")

    def __init__(self, limit: int, primes: array, composites: array):
        self.limit = limit
        self.primes = primes
        self.composites = composites

    def __repr__(self) -> str:
        return (
            f"PrimeGapTable(limit={self.limit}, primes={len(self.primes)},"
            f" composites={len(self.composites)})"
        )

    def prime_at(self, n: int) -> int:
        """The n-th prime (1-indexed); RangeError if the sieve is too small."""
        return self._nth(self.primes, "prime", n)

    def composite_at(self, n: int) -> int:
        """The n-th composite (1-indexed); RangeError if the sieve is too small."""
        return self._nth(self.composites, "composite", n)

    def _nth(self, values: array, name: str, n: int) -> int:
        if n < 1:
            raise RangeError(f"{name} index must be >= 1, got {n}")
        if n > len(values):
            raise RangeError(
                f"sieve limit {self.limit} yields only {len(values)} {name}s,"
                f" index {n} unavailable"
            )
        return values[n - 1]


def build_prime_gap(limit: int) -> PrimeGapTable:
    """Sieve of Eratosthenes split into prime and composite sequences.

    Both are arrays of C ints ("i", 4 bytes), half the size of 8-byte
    ones: no value exceeds the sieve cap of 10^7 < 2**31.
    """
    if limit < 4:
        raise RangeError(f"limit must be >= 4, got {limit}")
    if limit > _SIEVE_CAP:
        raise CapacityError(f"limit {limit} exceeds the sieve bound {_SIEVE_CAP}")
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    primes = array("i", compress(range(limit + 1), sieve))
    is_composite = sieve.translate(bytes.maketrans(b"\0\1", b"\1\0"))
    is_composite[0] = is_composite[1] = 0
    composites = array("i", compress(range(limit + 1), is_composite))
    return PrimeGapTable(limit, primes, composites)


def check_prime_claim(table: PrimeGapTable, n: int) -> PrimeClaimEvidence:
    """Evaluate composite(prime(n) - n - 1) == prime(n) - 1 at one n.

    Defined for n >= 3: the identity needs prime(n) - 1 to be composite,
    which fails for the consecutive primes 2, 3 below that point.

    For 3 <= n <= len(table.primes), prime(n) <= limit and the index
    prime(n) - n - 1 >= 1 counts the composites below prime(n), all in the
    sieve: the composites never run out first, and the index never falls
    as n rises.  So n = len(table.primes) + 1 is the first n to raise, and
    one call at min(N, len(table.primes) + 1) fails iff some n in 3..N would.
    """
    if n < 3:
        raise RangeError(f"the claim is stated for n >= 3, got {n}")
    p_n = table.prime_at(n)
    index = p_n - n - 1
    q_at = table.composite_at(index)
    return PrimeClaimEvidence(n, p_n, index, q_at, q_at == p_n - 1)


def sieve_limit_for(count: int) -> int:
    """A sieve limit guaranteed to contain at least ``count`` primes.

    Uses the Rosser-style bound p_n < n (ln n + ln ln n) for n >= 6 and
    a fixed floor below that.
    """
    if count < 1:
        raise RangeError(f"count must be >= 1, got {count}")
    if count < 6:
        return 13
    return ceil(count * (log(count) + log(log(count)))) + 1
