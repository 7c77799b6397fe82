"""Exhaustive identity suite tying the independent engines together.

Every structural fact the package relies on is registered here as a
named identity that checks its maximal valid sub-range of [1, n_max] and
reports counterexamples.  Each table identity is one declared rule: a
range rule giving the last n it may check, and a per-n rule, and one
shared scan walks every such range.  Only the partition identity L2,
which walks values rather than indices, keeps its own loop.  Every
identity caps its counterexamples through the same helper.
The rules read only the public sequence arrays, so a corrupted table
entry is always visible to them, and a lookup the corruption sends
outside the table becomes a counterexample.
A corrupted table therefore yields failed reports, never an exception;
`fault_injected_reports` turns that into a self-test of the suite itself.

Registry identifiers are short stable codes (L1, C2, ..., game-equiv,
prime-claim) used verbatim by the command-line interface; descriptions
carry the human-readable statement.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, islice
from time import perf_counter
from typing import Callable, Iterable

from .errors import RangeError, UnknownIdentityError, WythoffError
from .game import solve_retrograde
from .primes import build_prime_gap, check_prime_claim, sieve_limit_for
from .sequences import PairTable, beatty_p, build_recursive

MAX_COUNTEREXAMPLES = 10


@dataclass(frozen=True)
class Counterexample:
    """One failing instance: the index n plus expected/actual values."""

    n: int
    expected: int | str
    actual: int | str

    def to_dict(self) -> dict:
        return {"n": self.n, "expected": self.expected, "actual": self.actual}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity over the effective range [lo, hi].

    hi < lo marks an empty (vacuously passing) range.  ``passed`` is
    true exactly when ``counterexamples`` is empty; the stored list is
    capped at MAX_COUNTEREXAMPLES entries.  ``elapsed`` is wall-clock
    seconds and is excluded from the machine serialization so identical
    inputs serialize identically.
    """

    identity_id: str
    lo: int
    hi: int
    passed: bool
    counterexamples: tuple[Counterexample, ...]
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "identity": self.identity_id,
            "lo": self.lo,
            "hi": self.hi,
            "passed": self.passed,
            "counterexamples": [ce.to_dict() for ce in self.counterexamples],
        }


@dataclass(frozen=True)
class Identity:
    """Registry entry: stable id, human statement, and the checker.

    ``kind`` selects the checker signature: "table" checkers take
    (PairTable, n_max), "game" checkers take a solver cap, and "prime"
    checkers take a prime-index bound.  ``conjecture`` marks identities
    that are empirically supported but unproven, so their failures are
    reported as conjecture counterexamples rather than engine bugs.
    """

    identity_id: str
    description: str
    kind: str
    check: Callable
    conjecture: bool = False


def _capped(ces: Iterable[Counterexample]) -> list[Counterexample]:
    """The first MAX_COUNTEREXAMPLES counterexamples; stops pulling after that."""
    return list(islice(ces, MAX_COUNTEREXAMPLES))


def _index_bound(values: list[int], n_max: int) -> int:
    """Largest i <= n_max with values[i] <= n_max (values 1-indexed ascending)."""
    return bisect_right(values, n_max, 1, n_max + 1) - 1


def _is_lower_value(p: list[int], n_max: int, m: int) -> bool:
    """Whether m appears among p[1..n_max], by binary search on the array."""
    i = bisect_left(p, m, 1, n_max + 1)
    return i <= n_max and p[i] == m


# A per-n rule returns None where its identity holds and the pair
# (expected, actual) where it fails.  A lookup whose index falls outside
# the table fails with _OUTSIDE instead of raising or wrapping around.
_OUTSIDE = ("index inside the table", "index outside the table")


def _scan(rule: Callable, hi: int, p: list[int], q: list[int], n_max: int):
    """Yield the counterexamples of rule(n, p, q, n_max) for n in [1, hi]."""
    for n in range(1, hi + 1):
        try:
            failure = rule(n, p, q, n_max)
        except IndexError:
            failure = _OUTSIDE
        if failure is not None:
            yield Counterexample(n, *failure)


def _table_rule(hi: Callable[[PairTable, int], int], rule: Callable) -> Callable:
    """Checker for a table identity: rule over [1, hi(table, n_max)]."""

    def check(table: PairTable, n_max: int):
        top = hi(table, n_max)
        return 1, top, _capped(_scan(rule, top, table.p, table.q, n_max))

    return check


def _error_rule(allowed: tuple[int, ...], expected: int | str) -> Callable:
    """Rule on the gap e = p(n) - floor(n*phi): it holds when e is allowed."""
    return lambda n, p, q, m: (
        None if (e := p[n] - beatty_p(n)) in allowed else (expected, e)
    )


def _partition(table: PairTable, n_max: int):
    """L2: each of 1..p(n_max) lies in exactly one of p[1..n_max], q[1..n_max]."""
    top = table.p[n_max]

    def violations():
        marks = bytearray(max(top, 0) + 1)
        for value in chain(islice(table.p, 1, n_max + 1), islice(table.q, 1, n_max + 1)):
            if 0 < value <= top:
                if marks[value]:
                    yield Counterexample(value, "exactly one sequence", "both")
                marks[value] = 1
        for value in range(1, top + 1):
            if not marks[value]:
                yield Counterexample(value, "exactly one sequence", "neither")

    return 1, top, _capped(violations())


def _game_equivalence(cap: int):
    table = build_recursive(cap // 2 + 2)
    expected = {(0, 0)}
    for n in range(1, table.n_max + 1):
        if table.q[n] <= cap:
            expected.add((table.p[n], table.q[n]))
    solved = solve_retrograde(cap)
    actual = {(st.a, st.b) for st in solved.losing_states}
    ces = chain(
        (
            Counterexample(a, "not losing", f"solver: ({a}, {b}) losing")
            for a, b in sorted(actual - expected)
        ),
        (
            Counterexample(a, f"({a}, {b}) losing", "solver: not losing")
            for a, b in sorted(expected - actual)
        ),
    )
    return 0, cap, _capped(ces)


def _prime_gap_claim(prime_n_max: int):
    if prime_n_max < 3:
        return 3, prime_n_max, []
    table = build_prime_gap(sieve_limit_for(prime_n_max))
    evidence = (check_prime_claim(table, n) for n in range(3, prime_n_max + 1))
    ces = (
        Counterexample(ev.n, ev.p_n - 1, ev.q_at_index)
        for ev in evidence
        if not ev.holds
    )
    return 3, prime_n_max, _capped(ces)


# One row per identity.  A table row pairs a range rule, the last n it may
# check without reading past n_max, with its per-n rule.
_IDENTITIES = (
    Identity("L1", "lower sequence strictly increasing", "table", _table_rule(
        lambda t, m: m - 1,
        lambda n, p, q, m: None if p[n] < p[n + 1] else (f"> {p[n]}", p[n + 1]),
    )),
    Identity("C2", "no two adjacent integers in the upper sequence", "table", _table_rule(
        lambda t, m: m - 1,
        lambda n, p, q, m: None if (gap := q[n + 1] - q[n]) >= 2 else ("gap >= 2", gap),
    )),
    Identity("L2", "the two sequences partition the positive integers", "table", _partition),
    Identity("L3", "lower-sequence steps are 1 or 2", "table", _table_rule(
        lambda t, m: m - 1,
        lambda n, p, q, m: None if (s := p[n + 1] - p[n]) in (1, 2) else ("step in {1, 2}", s),
    )),
    Identity("C-dq", "upper-sequence steps are 2 or 3", "table", _table_rule(
        lambda t, m: m - 1,
        lambda n, p, q, m: None if (s := q[n + 1] - q[n]) in (2, 3) else ("step in {2, 3}", s),
    )),
    Identity("C-no3p", "no three consecutive integers in the lower sequence", "table", _table_rule(
        lambda t, m: m - 2,
        lambda n, p, q, m: (
            None if p[n + 1] != p[n] + 1 or p[n + 2] != p[n] + 2
            else ("no three consecutive", f"{p[n]}, {p[n] + 1}, {p[n] + 2}")
        ),
    )),
    Identity("L4", "q(n) = p(p(n)) + 1", "table", _table_rule(
        lambda t, m: _index_bound(t.p, m),
        lambda n, p, q, m: _OUTSIDE if p[n] < 1 else (
            None if (want := p[p[n]] + 1) == (got := q[n]) else (want, got)
        ),
    )),
    Identity("L5", "step after n is 2 exactly when n is a lower value", "table", _table_rule(
        lambda t, m: m - 1,
        lambda n, p, q, m: (
            None if (p[n + 1] - p[n] == 2) == _is_lower_value(p, m, n)
            else (
                "step 2 iff n in lower sequence",
                f"step={p[n + 1] - p[n]}, member={_is_lower_value(p, m, n)}",
            )
        ),
    )),
    # the lower values up to n are the p(i) <= n, all with i <= n as p(i) >= i
    Identity("C3", "p(n+1) = n + 1 + |{i <= n : i in lower sequence}|", "table", _table_rule(
        lambda t, m: m - 1,
        lambda n, p, q, m: (
            None if (want := bisect_right(p, n, 1, n + 1) + n) == (got := p[n + 1])
            else (want, got)
        ),
    )),
    Identity("C-qp", "q(p(n)) = p(n) + q(n) - 1", "table", _table_rule(
        lambda t, m: _index_bound(t.p, m),
        lambda n, p, q, m: _OUTSIDE if p[n] < 1 else (
            None if (want := p[n] + q[n] - 1) == (got := q[p[n]]) else (want, got)
        ),
    )),
    Identity("L-pq", "p(q(n)) = p(n) + q(n)", "table", _table_rule(
        lambda t, m: _index_bound(t.q, m),
        lambda n, p, q, m: _OUTSIDE if q[n] < 1 else (
            None if (want := p[n] + q[n]) == (got := p[q[n]]) else (want, got)
        ),
    )),
    Identity("C-pair", "p(q(n)) = p(n) + q(n) and q(q(n)) = p(n) + 2q(n)", "table", _table_rule(
        lambda t, m: _index_bound(t.q, m),
        lambda n, p, q, m: _OUTSIDE if q[n] < 1 else (
            None if (want := (p[n] + q[n], p[n] + 2 * q[n])) == (got := (p[q[n]], q[q[n]]))
            else (str(want), str(got))
        ),
    )),
    Identity("C-final", "p(q(n)) = q(p(n)) + 1", "table", _table_rule(
        lambda t, m: _index_bound(t.q, m),
        lambda n, p, q, m: _OUTSIDE if p[n] < 1 or q[n] < 1 else (
            None if (want := q[p[n]] + 1) == (got := p[q[n]]) else (want, got)
        ),
    )),
    Identity("L-E", "recursive minus closed form lies in {-1, 0, 1}", "table", _table_rule(
        lambda t, m: m, _error_rule((-1, 0, 1), "e in {-1, 0, 1}"),
    )),
    Identity("E-zero", "recursive equals closed form exactly", "table", _table_rule(
        lambda t, m: m, _error_rule((0,), 0),
    ), conjecture=True),
    Identity("game-equiv", "retrograde losing set equals the pair set", "game", _game_equivalence),
    Identity("prime-claim", "composite(prime(n) - n - 1) = prime(n) - 1", "prime", _prime_gap_claim),
)

REGISTRY: dict[str, Identity] = {ident.identity_id: ident for ident in _IDENTITIES}

IDENTITY_IDS: tuple[str, ...] = tuple(REGISTRY)


def verify_identity(
    identity_id: str, n_max: int, table: PairTable | None = None
) -> VerificationReport:
    """Run one registered identity over its valid sub-range of [1, n_max].

    For "game" identities n_max is the solver's pile cap; for "prime"
    identities it bounds the prime index.  A prebuilt table may be
    passed to share construction work across table identities; it must
    cover at least n_max entries.
    """
    ident = REGISTRY.get(identity_id)
    if ident is None:
        raise UnknownIdentityError(
            f"unknown identity {identity_id!r}; known: {', '.join(IDENTITY_IDS)}"
        )
    if n_max < 1:
        raise RangeError(f"n_max must be >= 1, got {n_max}")
    start = perf_counter()
    if ident.kind == "table":
        if table is None:
            table = build_recursive(n_max)
        elif table.n_max < n_max:
            raise RangeError(
                f"supplied table covers {table.n_max} entries, need {n_max}"
            )
        lo, hi, ces = ident.check(table, n_max)
    else:
        lo, hi, ces = ident.check(n_max)
    elapsed = perf_counter() - start
    return VerificationReport(identity_id, lo, hi, not ces, tuple(ces), elapsed)


def verify_all(
    n_max: int, game_cap: int, prime_n_max: int
) -> list[VerificationReport]:
    """Run the whole registry; engine errors become failed reports.

    Table identities share one table built at n_max, and a failed build
    fails each of them with that one error; "game" identities run at
    game_cap and "prime" identities at prime_n_max.  The result list
    always covers the registry in order, never aborting early.
    """
    if n_max < 1 or game_cap < 1 or prime_n_max < 1:
        raise RangeError("all range arguments must be >= 1")
    table: PairTable | None = None
    try:
        table = build_recursive(n_max)
    except WythoffError as exc:
        build_error = exc
    bounds = {"table": n_max, "game": game_cap, "prime": prime_n_max}
    reports = []
    for ident in REGISTRY.values():
        try:
            if ident.kind == "table" and table is None:
                raise build_error
            reports.append(verify_identity(ident.identity_id, bounds[ident.kind], table))
        except WythoffError as exc:
            failure = Counterexample(0, "no error", f"{type(exc).__name__}: {exc}")
            reports.append(
                VerificationReport(ident.identity_id, 1, 0, False, (failure,), 0.0)
            )
    return reports


def fault_injected_reports(
    n_max: int = 1000, index: int = 17, delta: int = 1
) -> list[VerificationReport]:
    """Re-run the table identities on a fresh table with p(index) shifted by delta.

    Self-test of the suite's sensitivity: a genuine table passes
    everything, so a single corrupted entry must flip at least one
    report to failed, otherwise the checkers have gone vacuous.
    """
    if delta == 0:
        raise RangeError("delta must be nonzero to inject a fault")
    if not 1 <= index <= n_max:
        raise RangeError(f"index {index} outside [1, {n_max}]")
    corrupt = build_recursive(n_max)
    corrupt.p[index] += delta
    return [
        verify_identity(ident.identity_id, n_max, corrupt)
        for ident in REGISTRY.values()
        if ident.kind == "table"
    ]


def report_text(report: VerificationReport) -> str:
    """One human-readable line: id, range, status, counterexample count."""
    if report.hi < report.lo:
        span = f"[{report.lo}, {report.hi}] (empty)"
    else:
        span = f"[{report.lo}, {report.hi}]"
    if report.passed:
        status = "passed"
    elif REGISTRY[report.identity_id].conjecture:
        status = "FAILED (conjecture counterexample)"
    else:
        status = "FAILED"
    line = (
        f"{report.identity_id:<12} {span:<20} {status:<8} "
        f"{len(report.counterexamples)} counterexample(s)  "
        f"{report.elapsed * 1000:.1f} ms"
    )
    if report.counterexamples:
        first = report.counterexamples[0]
        line += f"  first: n={first.n}, expected {first.expected}, got {first.actual}"
    return line
