"""Two-pile subtraction game: rules, a retrograde solver, and fast play.

A state is an unordered pair of pile sizes, kept canonically as
``(a, b)`` with ``a <= b``.  A move removes chips from one pile, or the
same number from both; whoever takes the last chip wins, so the player
to move from ``(0, 0)`` has already lost.

Three independent engines answer "who wins here?":

* :func:`solve_retrograde` sweeps all states up to a cap in increasing
  total-chip order and derives outcomes purely from the move rule.  It
  keeps one entry per pile size and per difference, never one per
  state, knows nothing about the sequence machinery and serves as the
  oracle of record at desk scale.
* :func:`classify_closed_form` decides a single state in O(1) integer
  operations: the losing states are exactly the pairs
  ``(floor(d*phi), floor(d*phi^2))`` over d >= 0.
* :func:`best_move` produces a winning move in O(1) by trying two move
  families, taking from both piles or from the larger one, each aimed
  at its unique losing state by closed-form arithmetic alone; the
  take-from-B target is re-checked by the same integer test.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import CapacityError, IllegalMoveError, NoWinningMoveError, RangeError
from .sequences import beatty_p

# Largest cap solve_retrograde accepts.  The solver holds O(cap) memory, so
# the ceiling bounds sweep time, not memory: the 50M states of cap 10^4 take
# 5-7 s with CPython 3.11 on a 2-vCPU host.
_SOLVE_CAP = 10_000


class MoveKind(Enum):
    """Move families: pile A is the smaller pile, pile B the larger."""

    TAKE_A = "take_a"
    TAKE_B = "take_b"
    TAKE_BOTH = "take_both"


class Outcome(Enum):
    """Value of a state for the player about to move."""

    LOSING = "losing"
    WINNING = "winning"


@dataclass(frozen=True, slots=True)
class Move:
    kind: MoveKind
    amount: int

    def __post_init__(self):
        if self.amount < 1:
            raise IllegalMoveError(f"move amount must be >= 1, got {self.amount}")


@dataclass(frozen=True, order=True, slots=True)
class GameState:
    """Canonical game state: 0 <= a <= b."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.a > self.b:
            raise RangeError(f"state must satisfy 0 <= a <= b, got ({self.a}, {self.b})")

    @classmethod
    def of(cls, x: int, y: int) -> "GameState":
        """Canonicalize an unordered pair of pile sizes."""
        return cls(x, y) if x <= y else cls(y, x)

    @property
    def total(self) -> int:
        return self.a + self.b

    @property
    def diff(self) -> int:
        return self.b - self.a


@dataclass(frozen=True)
class Classification:
    """Outcome of a state; winning states may carry one witness move.

    The retrograde solver always attaches a witness; the closed-form
    classifier leaves it to :func:`best_move` on demand.
    """

    state: GameState
    outcome: Outcome
    witness: Move | None = None


def legal_moves(state: GameState) -> list[Move]:
    """All legal moves from ``state``, in a fixed deterministic order.

    Take-from-A for 1..a, then take-from-B for 1..b, then take-from-both
    for 1..a.  Empty exactly at (0, 0).
    """
    a, b = state.a, state.b
    moves = [Move(MoveKind.TAKE_A, k) for k in range(1, a + 1)]
    moves += [Move(MoveKind.TAKE_B, k) for k in range(1, b + 1)]
    moves += [Move(MoveKind.TAKE_BOTH, k) for k in range(1, a + 1)]
    return moves


def apply_move(state: GameState, move: Move) -> GameState:
    """Resulting canonical state, or IllegalMoveError if the move overdraws."""
    a, b, k = state.a, state.b, move.amount
    if move.kind is MoveKind.TAKE_A:
        if k > a:
            raise IllegalMoveError(f"cannot take {k} from a pile of {a}")
        return GameState.of(a - k, b)
    if move.kind is MoveKind.TAKE_B:
        if k > b:
            raise IllegalMoveError(f"cannot take {k} from a pile of {b}")
        return GameState.of(a, b - k)
    if k > a:
        raise IllegalMoveError(f"cannot take {k} from both piles of ({a}, {b})")
    return GameState(a - k, b - k)


class RetrogradeTable:
    """Solved outcomes for every state with larger pile <= cap.

    Holds only the solver's two line arrays.  ``partner[v]`` is the
    other pile of the losing state containing pile size v, and
    ``diag[d]`` the smaller pile of the losing state with difference d;
    ``cap + 1`` marks a line with no losing state up to the cap.  Each
    line holds at most one losing state, and a state wins exactly when
    one of its three lines holds a losing state below it.  The witness
    is read off the first such line under the search order
    take-from-both, take-from-A, take-from-B.  Built by
    :func:`solve_retrograde`.
    """

    __slots__ = ("cap", "losing_states", "_partner", "_diag")

    def __init__(
        self,
        cap: int,
        losing_states: list[GameState],
        partner: list[int],
        diag: list[int],
    ):
        self.cap = cap
        self.losing_states = losing_states
        self._partner = partner
        self._diag = diag

    def __repr__(self) -> str:
        return f"RetrogradeTable(cap={self.cap}, losing={len(self.losing_states)})"

    def classify(self, state: GameState) -> Classification:
        """Stored classification; CapacityError beyond the solved cap."""
        a, b = state.a, state.b
        if b > self.cap:
            raise CapacityError(
                f"state ({a}, {b}) outside solved range (cap {self.cap})"
            )
        partner, low = self._partner, self._diag[b - a]
        if low < a:
            move = Move(MoveKind.TAKE_BOTH, a - low)
        elif partner[b] < a:
            move = Move(MoveKind.TAKE_A, a - partner[b])
        elif partner[a] < b:
            move = Move(MoveKind.TAKE_B, b - partner[a])
        else:
            return Classification(state, Outcome.LOSING)
        return Classification(state, Outcome.WINNING, move)


def solve_retrograde(cap: int) -> RetrogradeTable:
    """Solve every state with larger pile <= cap by increasing chip total.

    All moves strictly shrink the total, so sweeping totals upward sees
    every successor before the states that reach it.  A state loses
    exactly when none of its three lines (its two pile sizes and its
    difference) holds a losing state of smaller total yet; it is then
    recorded in ``partner`` and ``diag``, and every later state on those
    lines wins by moving onto it.  So each line gets at most one losing
    state, each test is a constant-time lookup, and the O(cap^2) states
    take O(cap^2) work but only O(cap) memory.  A cap above the solver
    ceiling raises :class:`CapacityError` before anything is allocated.
    """
    if cap < 0:
        raise RangeError(f"cap must be >= 0, got {cap}")
    if cap > _SOLVE_CAP:
        raise CapacityError(f"cap {cap} exceeds the solver bound {_SOLVE_CAP}")

    losing: list[GameState] = []
    unset = cap + 1
    partner = [unset] * (cap + 1)
    diag = [unset] * (cap + 1)

    for s in range(2 * cap + 1):
        for a in range(max(0, s - cap), s // 2 + 1):
            b = s - a
            d = b - a
            # a state recorded on a line always lies below the current one,
            # so only the unset sentinel passes each comparison
            if diag[d] > a and partner[b] > a and partner[a] > b:
                losing.append(GameState(a, b))
                diag[d] = a
                partner[a] = b
                partner[b] = a

    return RetrogradeTable(cap, losing, partner, diag)


def _pair_partner(v: int) -> int:
    """The other pile size of the unique losing state containing v.

    Every positive integer appears in exactly one losing pair.  The
    count of lower-sequence values <= v is i = floor((v+1)/phi); v is
    the i-th lower value iff floor(i*phi) = v, in which case its partner
    is v + i.  Otherwise v is an upper value and its partner is i.
    """
    if v == 0:
        return 0
    i = beatty_p(v + 1) - (v + 1)
    if beatty_p(i) == v:
        return v + i
    return i


def _losing(a: int, b: int) -> bool:
    """Closed-form membership test for the pair 0 <= a <= b."""
    return a == (beatty_p(b - a) if b > a else 0)


def is_losing(state: GameState) -> bool:
    """Closed-form membership test for the losing set."""
    return _losing(state.a, state.b)


def classify_closed_form(state: GameState) -> Classification:
    """O(1) outcome for a single state; no witness (see best_move)."""
    if is_losing(state):
        return Classification(state, Outcome.LOSING)
    return Classification(state, Outcome.WINNING)


def best_move(state: GameState) -> Move:
    """A winning move in O(1), or NoWinningMoveError from losing states.

    Two move families are tried.  Take-from-both aims at the losing
    state of difference d, so one kernel call both classifies the state
    and aims the move; take-from-B aims at the pair completing the
    smaller pile and is re-checked by the integer test on the target
    pair, with no state built.  When the smaller pile is a lower value
    p(i), the re-check asks for the p(i) the partner search just
    computed, which the kernel's memo answers.

    Take-from-A never wins first: were (x, b) losing with x < a, then
    x >= 1 and (x, b) = (p(k), q(k)) with k = b - x > d, so the losing
    state of difference d has the smaller pile p(d) < p(k) = x < a (or
    0 < a if d = 0), which take-from-both reaches.  The rule-only
    solver still searches all three lines.
    """
    a, b = state.a, state.b
    d = b - a

    target_a = beatty_p(d) if d else 0
    if a == target_a:
        raise NoWinningMoveError(f"({a}, {b}) is losing; every move loses")
    if target_a < a:
        return Move(MoveKind.TAKE_BOTH, a - target_a)

    other = _pair_partner(a)
    # the partner lies above a lower-value pile and below an upper one
    if other < b and (_losing(a, other) if a <= other else _losing(other, a)):
        return Move(MoveKind.TAKE_B, b - other)

    raise NoWinningMoveError(
        f"no winning move found from ({a}, {b}); classification inconsistent"
    )  # unreachable if the closed form is sound
