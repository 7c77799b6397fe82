"""Game rules, the retrograde solver, and the closed-form play engine."""

import copy
import dataclasses
import pickle
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

import zeckendorf


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
        assert GameState.of(7, 3).diff == 4

    def test_invalid_states(self):
        with pytest.raises(RangeError):
            GameState(5, 3)
        with pytest.raises(RangeError):
            GameState(-1, 2)

    def test_move_amount_positive(self):
        with pytest.raises(IllegalMoveError):
            Move(MoveKind.TAKE_A, 0)

    @pytest.mark.parametrize(
        "value, field",
        [(GameState(3, 5), "a"), (Move(MoveKind.TAKE_B, 4), "amount")],
        ids=["state", "move"],
    )
    def test_value_semantics(self, value, field):
        # states and moves are frozen, slotted values
        assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, 1)
        twin = dataclasses.replace(value)
        assert twin is not value
        assert twin == value and hash(twin) == hash(value)
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert copied == value and type(copied) is type(value)

    def test_states_sort(self):
        states = [GameState(3, 5), GameState(0, 9), GameState(3, 4)]
        assert sorted(states) == [GameState(0, 9), GameState(3, 4), GameState(3, 5)]

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
        # the solver keeps only its O(cap) line arrays and the losing states,
        # and allocates nothing per state along the way: 512 bytes per pile
        # size comes to 1 MiB at cap 2000, where a table of 9 bytes per
        # state would hold 17.4 MiB.  Cap 500 keeps the traced sweep short.
        cap = 500
        tracemalloc.start()
        try:
            solved = solve_retrograde(cap)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert solved.cap == cap
        assert peak <= 1.15 * held
        assert peak <= 512 * (cap + 1)

    def test_classification_independent_of_cap(self, solved):
        # the line arrays also hold losing states above a queried state;
        # only one below it may make the state winning or name its witness
        for cap in range(41):
            small = solve_retrograde(cap)
            for a in range(cap + 1):
                for b in range(a, cap + 1):
                    state = GameState(a, b)
                    assert small.classify(state) == solved.classify(state), (cap, state)


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

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Arguments of every beatty_p call the game engines make."""
        calls = []
        kernel = wythoff.game.beatty_p

        def counted(n):
            calls.append(n)
            return kernel(n)

        monkeypatch.setattr(wythoff.game, "beatty_p", counted)
        return calls

    def test_take_both_makes_one_kernel_call(self, kernel_calls):
        # the take-from-both target decides the state and aims the move
        assert best_move(GameState(4, 5)) == Move(MoveKind.TAKE_BOTH, 3)
        assert kernel_calls == [1]

    @pytest.mark.parametrize(
        "state, move, calls",
        [
            # the smaller pile 2 is an upper value: its partner 1 lies below
            (GameState(2, 5), Move(MoveKind.TAKE_B, 4), [3, 3, 1, 1]),
            # the smaller pile 3 is a lower value: its partner 5 lies above
            (GameState(3, 7), Move(MoveKind.TAKE_B, 2), [4, 4, 2, 2]),
        ],
        ids=["2-5", "3-7"],
    )
    def test_take_b_makes_four_kernel_calls(self, kernel_calls, state, move, calls):
        # one for the diagonal, then the smaller pile's partner and its
        # re-check; the larger pile's partner is never computed
        assert best_move(state) == move
        assert kernel_calls == calls

    @pytest.mark.parametrize("shift", [1, -1])
    @pytest.mark.parametrize("a, b", [(2, 5), (3, 7)])
    def test_take_b_recheck_refuses_a_wrong_partner(self, monkeypatch, a, b, shift):
        # a partner search off by one aims at a winning state, which the
        # re-check must refuse rather than return as the move
        partner = wythoff.game._pair_partner
        monkeypatch.setattr(wythoff.game, "_pair_partner", lambda v: partner(v) + shift)
        with pytest.raises(NoWinningMoveError, match="classification inconsistent"):
            best_move(GameState(a, b))

    def test_losing_state_raises(self):
        for a, b in [(0, 0), (1, 2), (3, 5)]:
            with pytest.raises(NoWinningMoveError):
                best_move(GameState(a, b))

    def test_matches_solver_witness(self):
        solved = solve_retrograde(300)
        for a in range(301):
            for b in range(a, 301):
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


class TestZeckendorfOracle:
    """The engines against Fibonacci numeration, which shares no kernel."""

    def test_oracle_matches_solver(self):
        solved = solve_retrograde(300)
        losing = {(s.a, s.b) for s in solved.losing_states}
        for a in range(301):
            for b in range(a, 301):
                assert zeckendorf.is_losing(a, b) == ((a, b) in losing), (a, b)

    _BIG = st.integers(min_value=10**100, max_value=10**1000)

    @given(_BIG, st.one_of(_BIG, st.integers(-3, 3)))
    @settings(max_examples=100, deadline=None)
    def test_engines_at_scale(self, v, other):
        # a small ``other`` puts the second pile beside v's partner, so
        # losing states and take-from-B wins are drawn as often as random
        # states, which take-from-both nearly always wins
        w = zeckendorf.partner(v)
        assert _pair_partner(v) == w
        state = GameState.of(v, other if abs(other) > 3 else w + other)
        losing = zeckendorf.is_losing(state.a, state.b)
        assert is_losing(state) == losing
        if losing:
            with pytest.raises(NoWinningMoveError):
                best_move(state)
        else:
            target = apply_move(state, best_move(state))
            assert zeckendorf.is_losing(target.a, target.b)
