"""Prime/composite tables and the composite-index identity."""

import tracemalloc
from bisect import bisect_right

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wythoff import (
    CapacityError,
    RangeError,
    build_prime_gap,
    check_prime_claim,
    sieve_limit_for,
)


class TestBuildPrimeGap:
    def test_limit_ten(self):
        t = build_prime_gap(10)
        assert list(t.primes) == [2, 3, 5, 7]
        assert list(t.composites) == [4, 6, 8, 9, 10]

    def test_limit_four(self):
        t = build_prime_gap(4)
        assert list(t.primes) == [2, 3]
        assert list(t.composites) == [4]

    def test_composites_through_twenty_two(self):
        t = build_prime_gap(22)
        assert list(t.composites) == [4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 22]

    def test_against_sympy(self):
        t = build_prime_gap(10_000)
        assert list(t.primes) == list(sympy.primerange(2, 10_001))
        marked = set(t.primes) | set(t.composites) | {1}
        assert marked == set(range(1, 10_001))
        assert not (set(t.primes) & set(t.composites))

    def test_every_small_limit_against_sympy(self):
        for limit in range(4, 301):
            t = build_prime_gap(limit)
            assert list(t.primes) == list(sympy.primerange(2, limit + 1)), limit
            assert list(t.composites) == [
                i for i in range(4, limit + 1) if not sympy.isprime(i)
            ], limit

    def test_sorted(self):
        t = build_prime_gap(5_000)
        assert list(t.primes) == sorted(t.primes)
        assert list(t.composites) == sorted(t.composites)

    def test_limit_too_small(self):
        with pytest.raises(RangeError):
            build_prime_gap(3)

    def test_limit_too_large(self):
        with pytest.raises(CapacityError):
            build_prime_gap(10_000_001)

    def test_values_take_four_bytes(self):
        # the sieve and its composite mask take 1 byte per integer each, and
        # the primes and composites 4 bytes per integer between them: a peak
        # near 6 bytes per integer, where 8-byte values would put it near 10
        limit = 10**5
        tracemalloc.start()
        try:
            build_prime_gap(limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * limit

    def test_indexing(self):
        t = build_prime_gap(30)
        assert t.prime_at(1) == 2
        assert t.prime_at(10) == 29
        assert t.composite_at(1) == 4
        with pytest.raises(RangeError, match="^prime index must be >= 1, got 0$"):
            t.prime_at(0)
        with pytest.raises(
            RangeError, match="^sieve limit 30 yields only 10 primes, index 11 unavailable$"
        ):
            t.prime_at(11)
        with pytest.raises(RangeError, match="^composite index must be >= 1, got 0$"):
            t.composite_at(0)
        with pytest.raises(
            RangeError,
            match="^sieve limit 30 yields only 19 composites, index 20 unavailable$",
        ):
            t.composite_at(len(t.composites) + 1)


@pytest.fixture(scope="module")
def table():
    return build_prime_gap(20_000)


class TestPrimeClaim:
    def test_n_three(self, table):
        ev = check_prime_claim(table, 3)
        assert (ev.p_n, ev.index, ev.q_at_index, ev.holds) == (5, 1, 4, True)

    def test_n_four(self, table):
        ev = check_prime_claim(table, 4)
        assert (ev.p_n, ev.index, ev.q_at_index, ev.holds) == (7, 2, 6, True)

    def test_below_three_rejected(self, table):
        with pytest.raises(RangeError):
            check_prime_claim(table, 2)
        with pytest.raises(RangeError):
            check_prime_claim(table, 0)

    def test_holds_over_range(self, table):
        for n in range(3, 1001):
            assert check_prime_claim(table, n).holds

    def test_sieve_too_small(self):
        small = build_prime_gap(30)
        with pytest.raises(RangeError):
            check_prime_claim(small, 25)

    def test_first_unserved_n_is_one_past_the_prime_count(self):
        # check_prime_claim's docstring proves this; the primes command leans
        # on it to check one n before any output
        for limit in range(4, 3001):
            t = build_prime_gap(limit)
            count = len(t.primes)
            assert all(check_prime_claim(t, n).holds for n in range(3, count + 1)), limit
            message = f"^sieve limit {limit} yields only {count} primes, index {count + 1} "
            with pytest.raises(RangeError, match=message + "unavailable$"):
                check_prime_claim(t, count + 1)

    def test_counting_identity(self, table):
        # below the n-th prime sit exactly n primes and the number 1,
        # so prime(n) - n - 1 composites
        for n in range(3, 500):
            p_n = table.prime_at(n)
            assert bisect_right(table.composites, p_n) == p_n - n - 1

    def test_predecessor_is_composite(self, table):
        for n in range(3, 500):
            p_n = table.prime_at(n)
            assert not sympy.isprime(p_n - 1)
            assert bisect_right(table.composites, p_n - 1) > bisect_right(
                table.composites, p_n - 2
            )


class TestSieveLimit:
    @given(st.integers(min_value=1, max_value=2_000))
    @settings(max_examples=40, deadline=None)
    def test_limit_yields_enough_primes(self, count):
        limit = sieve_limit_for(count)
        assert len(build_prime_gap(limit).primes) >= count

    def test_large_count(self):
        limit = sieve_limit_for(10_000)
        table = build_prime_gap(limit)
        assert len(table.primes) >= 10_000

    def test_rejects_nonpositive(self):
        with pytest.raises(RangeError):
            sieve_limit_for(0)
