"""Game rules, the retrograde solver, and the closed-form play engine."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wythoff.game
from wythoff import (
    CapacityError,
    GameState,
    IllegalMoveError,
    Move,
    MoveKind,
    NoWinningMoveError,
    Outcome,
    RangeError,
    SeqKind,
    apply_move,
    beatty_p,
    beatty_q,
    best_move,
    build_recursive,
    classify_closed_form,
    is_losing,
    legal_moves,
    solve_retrograde,
)
from wythoff.game import _pair_partner


def naive_solve(cap):
    """Reference solver: direct successor enumeration, no shared code.

    Returns {(a, b): True if the mover loses} over all canonical states
    with b <= cap.
    """
    loses = {}
    for s in range(2 * cap + 1):
        for a in range(max(0, s - cap), s // 2 + 1):
            b = s - a
            succs = [(a - k, b) for k in range(1, a + 1)]
            succs += [(a, b - k) for k in range(1, b + 1)]
            succs += [(a - k, b - k) for k in range(1, a + 1)]
            loses[(a, b)] = all(
                not loses[(min(x, y), max(x, y))] for x, y in succs
            )
    return loses


class TestStateAndMoves:
    def test_canonicalization(self):
        assert GameState.of(7, 3) == GameState(3, 7)

    def test_invalid_states(self):
        with pytest.raises(RangeError):
            GameState(5, 3)
        with pytest.raises(RangeError):
            GameState(-1, 2)

    def test_move_amount_positive(self):
        with pytest.raises(IllegalMoveError):
            Move(MoveKind.TAKE_A, 0)

    def test_enumeration_order(self):
        moves = legal_moves(GameState(1, 2))
        assert moves == [
            Move(MoveKind.TAKE_A, 1),
            Move(MoveKind.TAKE_B, 1),
            Move(MoveKind.TAKE_B, 2),
            Move(MoveKind.TAKE_BOTH, 1),
        ]

    def test_terminal_has_no_moves(self):
        assert legal_moves(GameState(0, 0)) == []

    def test_move_count(self):
        assert len(legal_moves(GameState(4, 9))) == 4 + 9 + 4

    def test_apply_examples(self):
        assert apply_move(GameState(3, 5), Move(MoveKind.TAKE_BOTH, 2)) == GameState(1, 3)
        assert apply_move(GameState(1, 2), Move(MoveKind.TAKE_B, 1)) == GameState(1, 1)

    def test_apply_recanonicalizes(self):
        assert apply_move(GameState(4, 9), Move(MoveKind.TAKE_B, 7)) == GameState(2, 4)

    def test_apply_overdraw(self):
        with pytest.raises(IllegalMoveError):
            apply_move(GameState(1, 2), Move(MoveKind.TAKE_BOTH, 2))
        with pytest.raises(IllegalMoveError):
            apply_move(GameState(1, 2), Move(MoveKind.TAKE_A, 2))
        with pytest.raises(IllegalMoveError):
            apply_move(GameState(1, 2), Move(MoveKind.TAKE_B, 3))

    @given(st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_apply_shrinks_total(self, x, y):
        state = GameState.of(x, y)
        for move in legal_moves(state):
            nxt = apply_move(state, move)
            assert 0 <= nxt.a <= nxt.b
            assert nxt.total < state.total


@pytest.fixture(scope="module")
def solved():
    return solve_retrograde(60)


class TestRetrogradeSolver:
    def test_matches_naive_solver(self, solved):
        naive = naive_solve(60)
        for (a, b), mover_loses in naive.items():
            got = solved.classify(GameState(a, b)).outcome
            want = Outcome.LOSING if mover_loses else Outcome.WINNING
            assert got is want, (a, b)

    def test_losing_states_prefix(self, solved):
        first = [(s.a, s.b) for s in solved.losing_states[:6]]
        assert first == [(0, 0), (1, 2), (3, 5), (4, 7), (6, 10), (8, 13)]

    def test_losing_states_match_pairs(self, solved):
        expected = {(0, 0)}
        n = 1
        while beatty_q(n) <= 60:
            expected.add((beatty_p(n), beatty_q(n)))
            n += 1
        assert {(s.a, s.b) for s in solved.losing_states} == expected

    def test_witnesses_reach_losing_states(self, solved):
        for a in range(61):
            for b in range(a, 61):
                c = solved.classify(GameState(a, b))
                if c.outcome is Outcome.WINNING:
                    target = apply_move(c.state, c.witness)
                    assert solved.classify(target).outcome is Outcome.LOSING
                else:
                    assert c.witness is None

    def test_witness_is_deterministic_first_hit(self, solved):
        c = solved.classify(GameState(2, 5))
        assert c.witness == Move(MoveKind.TAKE_B, 4)
        c = solved.classify(GameState(4, 5))
        assert c.witness == Move(MoveKind.TAKE_BOTH, 3)

    def test_beyond_cap(self, solved):
        with pytest.raises(CapacityError):
            solved.classify(GameState(0, 61))

    def test_negative_cap(self):
        with pytest.raises(RangeError):
            solve_retrograde(-1)

    def test_solver_ceiling(self, monkeypatch):
        # checked before anything is allocated; lowered so a missing check
        # cannot make the test solve a huge cap
        monkeypatch.setattr(wythoff.game, "_SOLVE_CAP", 30)
        assert solve_retrograde(30).cap == 30
        with pytest.raises(CapacityError, match="solver bound 30"):
            solve_retrograde(31)

    def test_cap_zero(self):
        solved = solve_retrograde(0)
        assert [(s.a, s.b) for s in solved.losing_states] == [(0, 0)]

    def test_peak_memory_near_held(self):
        # the state arrays are allocated once, at their final size; a
        # table-sized temporary would lift the peak well above the result,
        # and a third per-state array would lift what is held
        cap = 500
        tracemalloc.start()
        try:
            solved = solve_retrograde(cap)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert solved.cap == cap
        assert peak <= 1.15 * held
        assert held < 10 * (cap + 1) * (cap + 2) // 2


class TestClosedForm:
    def test_known_losing(self):
        for a, b in [(0, 0), (1, 2), (3, 5), (4, 7), (6, 10), (8, 13)]:
            assert is_losing(GameState(a, b))
            assert classify_closed_form(GameState(a, b)).outcome is Outcome.LOSING

    def test_equal_piles_win(self):
        for k in range(1, 30):
            assert not is_losing(GameState(k, k))

    def test_empty_pile_wins(self):
        for b in range(1, 30):
            assert not is_losing(GameState(0, b))

    def test_no_witness_attached(self):
        assert classify_closed_form(GameState(4, 5)).witness is None

    def test_agrees_with_solver(self):
        solved = solve_retrograde(80)
        for a in range(81):
            for b in range(a, 81):
                state = GameState(a, b)
                assert (
                    classify_closed_form(state).outcome
                    is solved.classify(state).outcome
                ), (a, b)


class TestPairPartner:
    def test_matches_recursion(self):
        # every value whose pair lies inside the table: 2 * n_max of them
        table = build_recursive(2000)
        checked = 0
        for v in range(1, table.span + 1):
            m = table.classify_integer(v)
            if m.index > table.n_max:
                continue
            other = table.q if m.kind is SeqKind.P else table.p
            assert _pair_partner(v) == other[m.index], v
            checked += 1
        assert checked == 2 * table.n_max
        assert _pair_partner(0) == 0

    @given(st.integers(min_value=10**100, max_value=10**1000))
    @settings(max_examples=100, deadline=None)
    def test_involution_at_scale(self, v):
        w = _pair_partner(v)
        assert w != v
        assert _pair_partner(w) == v
        assert is_losing(GameState.of(v, w))


class TestBestMove:
    def test_examples(self):
        assert best_move(GameState(1, 1)) == Move(MoveKind.TAKE_BOTH, 1)
        assert best_move(GameState(2, 2)) == Move(MoveKind.TAKE_BOTH, 2)
        assert best_move(GameState(4, 5)) == Move(MoveKind.TAKE_BOTH, 3)

    def test_take_both_makes_one_kernel_call(self, monkeypatch):
        # the take-from-both target decides the state and aims the move
        calls = []
        kernel = wythoff.game.beatty_p

        def counted(n):
            calls.append(n)
            return kernel(n)

        monkeypatch.setattr(wythoff.game, "beatty_p", counted)
        assert best_move(GameState(4, 5)) == Move(MoveKind.TAKE_BOTH, 3)
        assert calls == [1]

    def test_losing_state_raises(self):
        for a, b in [(0, 0), (1, 2), (3, 5)]:
            with pytest.raises(NoWinningMoveError):
                best_move(GameState(a, b))

    def test_matches_solver_witness(self):
        solved = solve_retrograde(70)
        for a in range(71):
            for b in range(a, 71):
                c = solved.classify(GameState(a, b))
                if c.outcome is Outcome.WINNING:
                    assert best_move(GameState(a, b)) == c.witness, (a, b)

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_target_is_losing_at_scale(self, x, y):
        state = GameState.of(x, y)
        if is_losing(state):
            with pytest.raises(NoWinningMoveError):
                best_move(state)
        else:
            move = best_move(state)
            assert is_losing(apply_move(state, move))

    def test_huge_state(self):
        state = GameState.of(2**40, 2**39)
        move = best_move(state)
        assert is_losing(apply_move(state, move))
