"""Sequence construction, closed-form kernels, and the table API."""

import random
import sys
import threading
import time
import tracemalloc
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wythoff.sequences
from wythoff import (
    CapacityError,
    PairTable,
    RangeError,
    SeqKind,
    beatty_p,
    beatty_q,
    build_recursive,
)
from wythoff.sequences import lower_values

# First terms, frozen from an independent hand application of the
# smallest-unused rule: p(1)=1 forces q(1)=2; the smallest unused is
# then 3, and so on.
P_FIRST = [1, 3, 4, 6, 8, 9, 11, 12, 14, 16]
Q_FIRST = [2, 5, 7, 10, 13, 15, 18, 20, 23, 26]


def naive_pairs(n_max):
    """Set-based reference construction, deliberately simple and slow."""
    used = set()
    p, q = [0], [0]
    for n in range(1, n_max + 1):
        m = 1
        while m in used:
            m += 1
        p.append(m)
        q.append(m + n)
        used.add(m)
        used.add(m + n)
    return p, q


def bracketed(n, m):
    """m = floor(n*phi) exactly when 2m - n <= n*sqrt5 < 2m + 2 - n, squared."""
    return (2 * m - n) ** 2 < 5 * n * n < (2 * m + 2 - n) ** 2


def fibonacci(limit):
    """Fibonacci numbers 1, 2, 3, 5, ... up to limit."""
    a, b = 1, 2
    while a <= limit:
        yield a
        a, b = b, a + b


class TestBuildRecursive:
    def test_first_ten_pairs(self):
        t = build_recursive(10)
        assert t.p[1:] == P_FIRST
        assert t.q[1:] == Q_FIRST

    def test_first_five(self):
        t = build_recursive(5)
        assert t.p[1:] == [1, 3, 4, 6, 8]
        assert t.q[1:] == [2, 5, 7, 10, 13]

    def test_matches_naive_construction(self):
        t = build_recursive(200)
        p, q = naive_pairs(200)
        assert t.p == p
        assert t.q == q

    def test_span_is_last_q(self):
        t = build_recursive(37)
        assert t.span == t.q[37]

    def test_rejects_nonpositive(self):
        with pytest.raises(RangeError):
            build_recursive(0)
        with pytest.raises(RangeError):
            build_recursive(-3)

    def test_table_ceiling(self, monkeypatch):
        # checked before anything is allocated; lowered so a missing check
        # cannot make the test build a huge table
        monkeypatch.setattr(wythoff.sequences, "_TABLE_CAP", 100)
        assert build_recursive(100).n_max == 100
        with pytest.raises(CapacityError, match="table bound 100"):
            build_recursive(101)

    def test_single_entry(self):
        t = build_recursive(1)
        assert (t.p[1], t.q[1]) == (1, 2)
        assert t.span == 2

    def test_peak_memory_near_held(self):
        # the build keeps only p and q; a second table-sized temporary
        # would lift the peak well above what the finished table holds
        tracemalloc.start()
        try:
            t = build_recursive(50_000)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert t.n_max == 50_000
        assert peak <= 1.15 * held


class TestLowerValues:
    def test_matches_build_recursive(self):
        for n in range(1, 301):
            assert list(lower_values(n)) == build_recursive(n).p[1:]

    def test_errors_raise_on_the_call(self, monkeypatch):
        # raised by the first next(), before any value
        with pytest.raises(RangeError):
            next(lower_values(0))
        monkeypatch.setattr(wythoff.sequences, "_TABLE_CAP", 100)
        assert len(list(lower_values(100))) == 100
        with pytest.raises(CapacityError, match="table bound 100"):
            next(lower_values(101))


class TestClosedForm:
    def test_known_values(self):
        assert beatty_p(4) == 6
        assert beatty_p(10) == 16
        assert beatty_q(10) == 26
        assert beatty_p(100) - 100 == 61  # floor(100/phi)

    def test_first_ten(self):
        assert [beatty_p(n) for n in range(1, 11)] == P_FIRST
        assert [beatty_q(n) for n in range(1, 11)] == Q_FIRST

    def test_rejects_nonpositive(self):
        for fn in (beatty_p, beatty_q):
            with pytest.raises(RangeError):
                fn(0)

    @pytest.mark.parametrize("n", [2.5, 3e9])
    def test_rejects_floats_on_both_routes(self, n):
        with pytest.raises(TypeError):
            beatty_p(n)

    @given(st.integers(min_value=1, max_value=10**15))
    def test_q_is_p_plus_n(self, n):
        assert beatty_q(n) == beatty_p(n) + n

    @given(st.integers(min_value=1, max_value=10**6))
    def test_strictly_increasing_with_small_steps(self, n):
        step = beatty_p(n + 1) - beatty_p(n)
        assert step in (1, 2)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_inverse_counts_lower_values(self, n):
        # floor((m + 1)/phi) = beatty_p(m + 1) - (m + 1) counts
        # lower-sequence values <= m, so at m = p(n) it recovers n.
        m = beatty_p(n)
        assert beatty_p(m + 1) - (m + 1) == n

    @given(st.integers(min_value=1, max_value=10**6))
    def test_complementarity_pointwise(self, m):
        # every integer is hit by exactly one of the two sequences
        lowers = beatty_p(m + 1) - (m + 1)  # lower values <= m
        uppers = m - lowers  # upper values <= m, if the two partition
        is_lower = lowers >= 1 and beatty_p(lowers) == m
        is_upper = uppers >= 1 and beatty_q(uppers) == m
        assert is_lower != is_upper

    def test_large_n_match_the_bracket(self):
        rng = random.Random(14)
        for _ in range(300):
            digits = rng.randint(10, 3000)
            n = rng.randrange(10 ** (digits - 1), 10**digits)
            assert bracketed(n, beatty_p(n)), digits

    @pytest.mark.parametrize("n", [2**31 - 1, 2**31, 2**31 + 1])
    def test_both_sides_of_the_fixed_point_threshold(self, n):
        assert bracketed(n, beatty_p(n))

    def test_fibonacci_n_match_the_bracket(self):
        # n*phi lies within 1/n of an integer, so past ~2**63 every one of
        # these takes the isqrt fallback
        for n in fibonacci(10**1200):
            assert bracketed(n, beatty_p(n)), n

    def test_precision_grows_by_doubling(self, monkeypatch):
        monkeypatch.setattr(wythoff.sequences, "_phi_cache", (0, 1))
        largest = 0
        # bit lengths at and just past each cached precision K - 64
        for bits, cached in [(200, 264), (201, 528), (464, 528), (465, 1056)]:
            for n in (1 << (bits - 1), (1 << bits) - 1):
                assert bracketed(n, beatty_p(n)), bits
                largest = max(largest, n.bit_length())
                top, scaled = wythoff.sequences._phi_cache
                assert top == cached
                assert top <= 2 * (largest + 64)
                assert bracketed(1 << top, scaled)

    def test_isqrt_only_on_the_fallback(self, monkeypatch):
        n = random.Random(16).randrange(10**999, 10**1000)
        fib = max(fibonacci(10**1000))
        expected = [(m + isqrt(5 * m * m)) // 2 for m in (n, fib)]
        assert [beatty_p(n), beatty_p(fib)] == expected  # warms the cache
        calls = []

        def counting_isqrt(m):
            calls.append(m)
            return isqrt(m)

        monkeypatch.setattr(wythoff.sequences, "isqrt", counting_isqrt)
        assert beatty_p(n) == expected[0]
        assert calls == []
        assert beatty_p(fib) == expected[1]
        assert calls == [5 * fib * fib]


class TestLastAnswerMemo:
    """The one-entry memo above 2**31 never changes an answer."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(wythoff.sequences, "_last", (0, 0))

    @pytest.mark.parametrize("n, same", [(2**40, 2.0**40), (3 * 10**9, 3e9)])
    def test_floats_raise_right_after_an_equal_int(self, n, same):
        assert bracketed(n, beatty_p(n))
        with pytest.raises(TypeError):
            beatty_p(same)

    def test_repeated_fibonacci_n_calls_isqrt_once(self, monkeypatch):
        fib = max(fibonacci(10**100))
        n = fib + 1
        assert bracketed(n, beatty_p(n))  # warms the precision cache
        calls = []

        def counting_isqrt(m):
            calls.append(m)
            return isqrt(m)

        monkeypatch.setattr(wythoff.sequences, "isqrt", counting_isqrt)
        assert bracketed(fib, beatty_p(fib))
        assert bracketed(fib, beatty_p(fib))
        assert calls == [5 * fib * fib]
        for m in (n, fib, n, fib):
            assert bracketed(m, beatty_p(m)), m
        assert calls == [5 * fib * fib] * 3

    def test_repeated_consecutive_fibonacci_n(self):
        # n*phi lies just below an integer at one of these and just above it
        # at the other, so the lower bracket is the answer at only one: a
        # memo must keep the decided answer, not the bracket
        *_, before, last = fibonacci(10**100)
        for n in (before, before, last, last):
            assert bracketed(n, beatty_p(n)), n

    def test_a_hit_does_no_product(self, monkeypatch):
        n = random.Random(17).randrange(10**999, 10**1000)
        expected = beatty_p(n)
        # a product with this scaled phi would give 0
        monkeypatch.setattr(wythoff.sequences, "_phi_cache", (1 << 20, 0))
        assert beatty_p(n) == expected
        assert beatty_p(n + 1) == 0  # the poison reaches every miss

    def test_threads_sharing_the_memo(self):
        rng = random.Random(18)
        pool = [rng.randrange(10**999, 10**1000) for _ in range(4)]
        pool.append(max(fibonacci(10**1000)))  # the isqrt fallback route
        wrong, done = [], []
        deadline = time.perf_counter() + 0.5

        def worker(seed):
            # its own values, some of them repeated back to back
            mine = random.Random(seed).choices(pool, k=16) + [pool[0] + seed] * 2
            calls = 0
            while time.perf_counter() < deadline:
                for n in mine:
                    if not bracketed(n, beatty_p(n)):
                        wrong.append(n)
                    calls += 1
            done.append(calls)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert wrong == []
        assert len(done) == 8 and min(done) > 0


@pytest.fixture(scope="module")
def table():
    return build_recursive(500)


class TestPairTable:
    def test_classify_lower(self, table):
        m = table.classify_integer(4)
        assert m.kind is SeqKind.P
        assert m.index == 3

    def test_classify_upper(self, table):
        m = table.classify_integer(13)
        assert m.kind is SeqKind.Q
        assert m.index == 5
        first = table.classify_integer(2)
        assert (first.kind, first.index) == (SeqKind.Q, 1)

    # every span starts at m = 1, below the first upper value; from n_max 2
    # on, the span also ends in lower values whose indices exceed n_max
    @pytest.mark.parametrize("n_max", [1, 2, 3, 500])
    def test_classify_covers_span(self, n_max):
        table = build_recursive(n_max)
        for v in range(1, table.span + 1):
            m = table.classify_integer(v)
            if m.kind is SeqKind.P:
                assert beatty_p(m.index) == v
            else:
                assert m.index <= table.n_max
                assert table.q[m.index] == v

    def test_classify_indices_past_n_max(self, table):
        # lower values between p(n_max) and q(n_max) carry indices
        # beyond n_max; they must still be correct
        v = table.span - 1  # q(n)-1 = p(p(n)) is always a lower value
        m = table.classify_integer(v)
        assert m.kind is SeqKind.P
        assert m.index > table.n_max
        assert beatty_p(m.index) == v

    def test_classify_out_of_range(self, table):
        with pytest.raises(RangeError):
            table.classify_integer(0)
        with pytest.raises(RangeError):
            table.classify_integer(table.span + 1)

    def test_copy_is_independent(self, table):
        dup = table.copy()
        dup.p[3] += 7
        assert table.p[3] == 4
        assert dup.p[3] == 11
        assert dup.q == table.q

    # one entry short or one too many, in either list
    @pytest.mark.parametrize("p_len, q_len", [(500, 501), (502, 501), (501, 500), (501, 502)])
    def test_lists_must_hold_n_max_plus_one_entries(self, table, p_len, q_len):
        p = (table.p + [0])[:p_len]
        q = (table.q + [0])[:q_len]
        with pytest.raises(RangeError, match=r"n_max \+ 1 = 501 entries"):
            PairTable(500, p, q)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=300))
def test_recursion_agrees_with_closed_form(n_max):
    t = build_recursive(n_max)
    assert t.p[1:] == [beatty_p(n) for n in range(1, n_max + 1)]
    assert t.q[1:] == [beatty_q(n) for n in range(1, n_max + 1)]
