"""Sequence construction, closed-form kernels, and the table API."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wythoff.sequences
from wythoff import (
    CapacityError,
    RangeError,
    SeqKind,
    beatty_p,
    beatty_q,
    build_recursive,
)

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


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=300))
def test_recursion_agrees_with_closed_form(n_max):
    t = build_recursive(n_max)
    assert t.p[1:] == [beatty_p(n) for n in range(1, n_max + 1)]
    assert t.q[1:] == [beatty_q(n) for n in range(1, n_max + 1)]
