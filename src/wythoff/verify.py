"""Exhaustive identity suite tying the independent engines together.

Every structural fact the package relies on is registered here as a
named identity that checks its maximal valid sub-range of [1, n_max] and
reports counterexamples.  Each table identity declares its per-n rule,
and its range rule and proof where they differ from the defaults; one
shared checker serves them all, and one shared scan walks each rule.
The partition identity L2, which walks values rather than indices,
declares its own scan in place of a rule.  Every check returns its
counterexamples uncapped; the report alone keeps the first
MAX_COUNTEREXAMPLES.

Fast proof, reference witness: every table identity first tries a
proof, one pass over the arrays (C-level ``map`` and ``islice`` where
it can be) that is true only when the identity holds on its whole
range.  A true proof is the report.  Otherwise the per-n
reference rule, or L2's scan, runs and names the counterexamples, so
every counterexample comes from the reference rule.  Two proofs are shared,
each run once per `verify_all` or `fault_injected_reports` call: the
step proof, the recursion's own facts p(1) = 1, q(n) = p(n) + n and the
step rule of p, settles every table identity but L-E and E-zero, and
the gap proof, p(n) = floor(n*phi), settles those two.  The gap proof
calls no closed form per n: with s = floor(phi * 2**k), s < phi * 2**k
< s + 1, so floor(n*phi) lies between floor(n*s / 2**k) and
floor(n*(s + 1) / 2**k), and a p(n) equal to both is floor(n*phi).  Two
C-level streams of running sums give the bounds.  Every table check
first requires p and q to cover n_max, as ``islice`` and ``map`` quietly
stop at a list's end, so no proof or range rule reads a short table.

The rules read only the public sequence arrays, so a corrupted table
entry is always visible to them, and a lookup it sends outside the
table, past the end or below 1 (``_at``), becomes a counterexample.
A corrupted table therefore yields failed reports, never an exception;
`fault_injected_reports` turns that into a self-test of the suite itself.

`verify_all` runs the game and prime identities in one forked child
while the parent builds the table and settles the table identities, so
on two cores the table chain alone is the critical path.
`verify_identity` and `fault_injected_reports` stay in one process.
The fork helper, `_in_child`, lives in its own small module, so the
CLI's row exports, which write their upper half through it, never load
this registry.

Registry identifiers are short stable codes (L1, C2, ..., game-equiv,
prime-claim) used verbatim by the command-line interface; descriptions
carry the human-readable statement.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import accumulate, chain, count, islice, repeat
from math import isqrt
from operator import eq, rshift, sub
from time import perf_counter
from typing import Callable, Iterable

from ._fork import _in_child
from .errors import RangeError, UnknownIdentityError, WythoffError
from .game import solve_retrograde
from .primes import build_prime_gap, check_prime_claim, sieve_limit_for
from .sequences import PairTable, beatty_p, build_recursive, lower_values

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
    (PairTable, n_max, shared), where ``shared`` holds the verdicts of
    the proofs one registry run has tried on the table so far, "game"
    checkers take a solver cap, and "prime" checkers take a prime-index
    bound.  Every checker returns (lo, hi, counterexamples), the last an
    iterable it has not capped; the report keeps its first
    MAX_COUNTEREXAMPLES.  A table checker tries a proof first and scans
    only when the proof fails; either way the report is the same.
    ``conjecture`` marks identities that are empirically supported but
    unproven, so their failures are reported as conjecture
    counterexamples rather than engine bugs.
    """

    identity_id: str
    description: str
    kind: str
    check: Callable
    conjecture: bool = False


def _index_bound(values: list[int], n_max: int) -> int:
    """Largest i <= n_max with values[i] <= n_max (values 1-indexed ascending)."""
    return bisect_right(values, n_max, 1, n_max + 1) - 1


# A per-n rule returns None where its identity holds and the pair
# (expected, actual) where it fails.  _scan reports an IndexError as _OUTSIDE:
# a list raises one past its end, and _at one below 1, where a list wraps.
_OUTSIDE = ("index inside the table", "index outside the table")


def _at(values: list[int], i: int) -> int:
    if i < 1:
        raise IndexError(i)
    return values[i]


def _scan(rule: Callable, hi: int, p: list[int], q: list[int], n_max: int):
    """Yield the counterexamples of rule(n, p, q, n_max) for n in [1, hi]."""
    for n in range(1, hi + 1):
        try:
            failure = rule(n, p, q, n_max)
        except IndexError:
            failure = _OUTSIDE
        if failure is not None:
            yield Counterexample(n, *failure)


def _proved(proof: Callable, p, q, n_max: int) -> bool:
    """Whether proof(p, q, n_max) shows that identities hold on their whole ranges.

    A proof that raises ValueError, as ``bytes`` does on a step outside
    0..255, gives no proof.
    """
    try:
        return proof(p, q, n_max)
    except ValueError:
        return False


# the step of p after n, indexed by whether n is a lower value
_STEP_AFTER = bytes.maketrans(b"\0\1", b"\1\2")


def _offsets(p: list[int], q: list[int]) -> bool:
    """q(m) - p(m) = m at every index both lists hold; the table check makes that [0, n_max]."""
    return all(map(eq, map(sub, q, p), count()))


def _step_proof(p: list[int], q: list[int], n_max: int) -> bool:
    """The recursion's own facts, which fix p on [1, n_max]: p(1) = 1,
    q(n) = p(n) + n (``_offsets``), and p(n + 1) - p(n) is 2 where n is a
    lower value and 1 elsewhere, for n in [1, top], top = n_max - 1.

    Each identity it settles follows by arithmetic, never through a
    theorem about Wythoff pairs, which would pass a wrongly stated
    identity.  Each m, p(n) and q(n) below is at most n_max, as the range
    rules keep them.  (R) p(m) = m + #{k : p(k) < m}: p starts at 1 and
    steps once more past each lower value.
    L1, L3: p steps by 1 or 2.  C2, C-dq: q steps by that plus 1.
    L5: p rises and p(top + 1) > top, so the bisect finds n exactly when
    n is in p[1..top].  C3: (R) at m = n + 1, and bisect_right over
    p[1..n] counts the lower values up to n, as p(i) >= i.
    L4: (R) at m = p(n) gives p(p(n)) = p(n) + n - 1 = q(n) - 1.
    C-qp: q(p(n)) = p(p(n)) + p(n) = q(n) + p(n) - 1.
    L-pq: p(n) < q(n) is a lower value up to top, so p(p(n) + 1) = q(n) + 1
    by L4: p(n) lower values lie below q(n), and (R) at m = q(n) gives
    p(q(n)) = q(n) + p(n).  C-pair: q(q(n)) = p(q(n)) + q(n) = p(n) + 2q(n).
    C-final: q(p(n)) + 1 = p(n) + q(n) = p(q(n)).
    L2: with k0 the first index where p(k0) >= n_max, (R) gives p(n_max) =
    n_max + k0 - 1.  Below it p skips exactly p(p(k)) + 1 = q(k), k < k0,
    by L4, and q(k0) >= n_max + k0 with q rising by 2 or more per step.
    C-no3p: steps of 1 at n and n + 1 <= top would make both integers
    upper values by L2, yet q steps by 2 or more.
    ``bytes`` raises ValueError on a step outside 0..255: no proof.
    The table check has found that p and q cover n_max, so each ``islice``
    below reads every entry it names.
    """
    top = n_max - 1
    marks = bytearray(top + 1)  # marks[n] is 1 where n is in p[1..top]
    for value in islice(p, 1, top + 1):
        if 0 < value <= top:
            marks[value] = 1
    steps = bytes(map(sub, islice(p, 2, top + 2), islice(p, 1, top + 1)))
    return p[1] == 1 and steps == marks[1:].translate(_STEP_AFTER) and _offsets(p, q)


def _error_rule(allowed: tuple[int, ...], expected: int | str) -> Callable:
    """Rule on the gap e = p(n) - floor(n*phi): it holds when e is allowed."""
    return lambda n, p, q, m: (
        None if (e := p[n] - beatty_p(n)) in allowed else (expected, e)
    )


def _gap_proof(p: list[int], q: list[int], n_max: int) -> bool:
    """E-zero on [1, n_max], p(n) = floor(n*phi); it implies L-E there.

    With k = n_max.bit_length() + 64, s = floor(phi * 2**k) is
    (2**k + isqrt(5 * 4**k)) // 2, since halving commutes with the floor
    of sqrt(5) * 2**k.  phi is irrational, so s < phi * 2**k < s + 1, and
    for n >= 1, n*s / 2**k < n*phi < n*(s + 1) / 2**k: floor(n*phi) lies
    between floor(n*s / 2**k) and floor(n*(s + 1) / 2**k).  A p(n) equal
    to both is floor(n*phi), with no theorem about phi's expansion.  Two
    C-level streams give the bounds, the running sums n*t shifted right by
    k for t = s and s + 1.  The bounds differ only where n*phi lies within
    n / 2**k of an integer; a p(n) can then match at most one of them, so
    the proof is refused and the reference rules, through beatty_p,
    decide.
    """
    k = n_max.bit_length() + 64
    s = ((1 << k) + isqrt(5 << 2 * k)) // 2
    return all(
        all(map(eq, islice(p, 1, n_max + 1), map(rshift, accumulate(repeat(t, n_max)), repeat(k))))
        for t in (s, s + 1)
    )


def _table_rule(rule=None, hi=lambda t, m: m - 1, proof=_step_proof, scan=None) -> Callable:
    """Checker for a table identity over [1, top], top = hi(table, n_max).

    It refuses a table whose lists, either perhaps shortened in place,
    end before n_max, so no proof or ``hi`` reads past them.  A true
    ``proof(p, q, n_max)``, kept in ``shared`` as a run has one table and
    one n_max, leaves no counterexamples.  Otherwise they are
    scan(top, p, q, n_max) where a scan is given, else the per-n rule's.
    """

    def check(table: PairTable, n_max: int, shared: dict):
        covers = min(table.n_max, len(table.p) - 1, len(table.q) - 1)
        if covers < n_max:
            raise RangeError(f"supplied table covers {covers} entries, need {n_max}")
        p, q = table.p, table.q
        if proof not in shared:
            shared[proof] = _proved(proof, p, q, n_max)
        top = hi(table, n_max)
        if shared[proof]:
            return 1, top, ()
        return 1, top, scan(top, p, q, n_max) if scan else _scan(rule, top, p, q, n_max)

    return check


@_table_rule
def _l5_check(n: int, p: list[int], q: list[int], m: int):
    """L5 by binary search for n among the lower values p[1..m]."""
    i = bisect_left(p, n, 1, m + 1)
    member = i <= m and p[i] == n
    if (p[n + 1] - p[n] == 2) == member:
        return None
    return "step 2 iff n in lower sequence", f"step={p[n + 1] - p[n]}, member={member}"


@_table_rule
def _c3_check(n: int, p: list[int], q: list[int], m: int):
    """C3 by binary search over p[1..n].

    The lower values up to n are the p(i) <= n, all with i <= n as p(i) >= i.
    """
    if (want := bisect_right(p, n, 1, n + 1) + n) == (got := p[n + 1]):
        return None
    return want, got


def _partition(top: int, p: list[int], q: list[int], n_max: int):
    """L2's scan: each of 1..top lies in exactly one of p[1..n_max], q[1..n_max].

    It yields each value met twice, in scan order, then each value never met.
    """
    # a genuine top is below 2 * n_max; past 3 * n_max + 2 it is corrupt
    # and may be huge, so a dict keeps the marks: it only ever holds the
    # 2 * n_max table values and the MAX_COUNTEREXAMPLES gaps read
    marks = bytearray(max(top, 0) + 1) if top <= 3 * n_max + 2 else defaultdict(int)
    for value in chain(islice(p, 1, n_max + 1), islice(q, 1, n_max + 1)):
        if 0 < value <= top:
            if marks[value]:
                yield Counterexample(value, "exactly one sequence", "both")
            marks[value] = 1
    for value in range(1, top + 1):
        if not marks[value]:
            yield Counterexample(value, "exactly one sequence", "neither")


def _game_equivalence(cap: int):
    pairs = ((p, p + n) for n, p in enumerate(lower_values(cap // 2 + 2), 1))
    expected = {(0, 0), *(pair for pair in pairs if pair[1] <= cap)}
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
    return 0, cap, ces


def _prime_gap_claim(prime_n_max: int):
    table = build_prime_gap(sieve_limit_for(prime_n_max))
    evidence = (check_prime_claim(table, n) for n in range(3, prime_n_max + 1))
    ces = (
        Counterexample(ev.n, ev.p_n - 1, ev.q_at_index)
        for ev in evidence
        if not ev.holds
    )
    return 3, prime_n_max, ces


# One row per identity.  A table row gives its per-n rule, or L2 its scan,
# then its range rule, the last n it may check without reading past n_max,
# and its proof where they differ from _table_rule's defaults.
_TABLE_IDENTITIES = (
    Identity("L1", "lower sequence strictly increasing", "table", _table_rule(
        lambda n, p, q, m: None if p[n] < p[n + 1] else (f"> {p[n]}", p[n + 1]),
    )),
    Identity("C2", "no two adjacent integers in the upper sequence", "table", _table_rule(
        lambda n, p, q, m: None if (gap := q[n + 1] - q[n]) >= 2 else ("gap >= 2", gap),
    )),
    Identity("L2", "the two sequences partition the positive integers", "table", _table_rule(
        hi=lambda t, m: t.p[m], scan=_partition,
    )),
    Identity("L3", "lower-sequence steps are 1 or 2", "table", _table_rule(
        lambda n, p, q, m: None if (s := p[n + 1] - p[n]) in (1, 2) else ("step in {1, 2}", s),
    )),
    Identity("C-dq", "upper-sequence steps are 2 or 3", "table", _table_rule(
        lambda n, p, q, m: None if (s := q[n + 1] - q[n]) in (2, 3) else ("step in {2, 3}", s),
    )),
    Identity("C-no3p", "no three consecutive integers in the lower sequence", "table", _table_rule(
        lambda n, p, q, m: (
            None if p[n + 1] != p[n] + 1 or p[n + 2] != p[n] + 2
            else ("no three consecutive", f"{p[n]}, {p[n] + 1}, {p[n] + 2}")
        ),
        lambda t, m: m - 2,
    )),
    Identity("L4", "q(n) = p(p(n)) + 1", "table", _table_rule(
        lambda n, p, q, m: None if (want := _at(p, p[n]) + 1) == (got := q[n]) else (want, got),
        lambda t, m: _index_bound(t.p, m),
    )),
    Identity("L5", "step after n is 2 exactly when n is a lower value", "table", _l5_check),
    Identity("C3", "p(n+1) = n + 1 + |{i <= n : i in lower sequence}|", "table", _c3_check),
    Identity("C-qp", "q(p(n)) = p(n) + q(n) - 1", "table", _table_rule(
        lambda n, p, q, m: (
            None if (want := p[n] + q[n] - 1) == (got := _at(q, p[n])) else (want, got)
        ),
        lambda t, m: _index_bound(t.p, m),
    )),
    Identity("L-pq", "p(q(n)) = p(n) + q(n)", "table", _table_rule(
        lambda n, p, q, m: None if (want := p[n] + q[n]) == (got := _at(p, q[n])) else (want, got),
        lambda t, m: _index_bound(t.q, m),
    )),
    Identity("C-pair", "p(q(n)) = p(n) + q(n) and q(q(n)) = p(n) + 2q(n)", "table", _table_rule(
        lambda n, p, q, m: (
            None
            if (want := (p[n] + q[n], p[n] + 2 * q[n])) == (got := (_at(p, q[n]), _at(q, q[n])))
            else (str(want), str(got))
        ),
        lambda t, m: _index_bound(t.q, m),
    )),
    Identity("C-final", "p(q(n)) = q(p(n)) + 1", "table", _table_rule(
        lambda n, p, q, m: (
            None if (want := _at(q, p[n]) + 1) == (got := _at(p, q[n])) else (want, got)
        ),
        lambda t, m: _index_bound(t.q, m),
    )),
    Identity("L-E", "recursive minus closed form lies in {-1, 0, 1}", "table", _table_rule(
        _error_rule((-1, 0, 1), "e in {-1, 0, 1}"), lambda t, m: m, _gap_proof,
    )),
    Identity("E-zero", "recursive equals closed form exactly", "table", _table_rule(
        _error_rule((0,), 0), lambda t, m: m, _gap_proof,
    ), conjecture=True),
)

_ENGINE_IDENTITIES = (
    Identity("game-equiv", "retrograde losing set equals the pair set", "game", _game_equivalence),
    Identity("prime-claim", "composite(prime(n) - n - 1) = prime(n) - 1", "prime", _prime_gap_claim),
)

REGISTRY: dict[str, Identity] = {i.identity_id: i for i in _TABLE_IDENTITIES + _ENGINE_IDENTITIES}

IDENTITY_IDS: tuple[str, ...] = tuple(REGISTRY)


def verify_identity(
    identity_id: str, n_max: int, table: PairTable | None = None
) -> VerificationReport:
    """Run one registered identity over its valid sub-range of [1, n_max].

    For "game" identities n_max is the solver's pile cap; for "prime"
    identities it bounds the prime index.  A prebuilt table may be
    passed to share construction work across table identities; its
    ``p`` and ``q`` lists must cover at least n_max entries.  Every
    counterexample comes from the identity's reference rule.
    """
    ident = REGISTRY.get(identity_id)
    if ident is None:
        raise UnknownIdentityError(
            f"unknown identity {identity_id!r}; known: {', '.join(IDENTITY_IDS)}"
        )
    if n_max < 1:
        raise RangeError(f"n_max must be >= 1, got {n_max}")
    return _report(ident, n_max, table, {})


def _report(
    ident: Identity, bound: int, table: PairTable | None, shared: dict
) -> VerificationReport:
    """ident's report at bound, with the proof verdicts found so far in this run.

    It keeps the first MAX_COUNTEREXAMPLES of the check's counterexamples,
    the one place they are capped, and stops the scan there.  A table
    identity given no table builds one, and ``elapsed`` counts the build
    and the scan.
    """
    start = perf_counter()
    if ident.kind == "table":
        if table is None:
            table = build_recursive(bound)
        lo, hi, ces = ident.check(table, bound, shared)
    else:
        lo, hi, ces = ident.check(bound)
    ces = tuple(islice(ces, MAX_COUNTEREXAMPLES))
    elapsed = perf_counter() - start
    return VerificationReport(ident.identity_id, lo, hi, not ces, ces, elapsed)


def _failed(ident: Identity, exc: WythoffError) -> VerificationReport:
    """ident's report when an engine raised exc: one counterexample naming it."""
    failure = Counterexample(0, "no error", f"{type(exc).__name__}: {exc}")
    return VerificationReport(ident.identity_id, 1, 0, False, (failure,), 0.0)


def _reports(
    idents: Iterable[Identity], bounds: dict, table: PairTable | None = None
) -> list[VerificationReport]:
    """One report per identity, sharing proofs; an engine error fails its report."""
    shared: dict = {}
    reports = []
    for ident in idents:
        try:
            reports.append(_report(ident, bounds[ident.kind], table, shared))
        except WythoffError as exc:
            reports.append(_failed(ident, exc))
    return reports


def verify_all(
    n_max: int, game_cap: int, prime_n_max: int
) -> list[VerificationReport]:
    """Run the whole registry; engine errors become failed reports.

    It forks once, before the build, so the table is never resident
    beside the solver or the sieve: the child runs the "game" identities
    at game_cap and the "prime" identities at prime_n_max, and only
    package code, ``pickle`` and ``os`` run there, while the parent builds
    one table at n_max and runs the table identities on it and the proofs
    over it.  A failed build fails each table identity with that one
    error.  Where ``os.fork`` is missing, it picks the inline path itself:
    the game and prime identities run after the table is released.  The
    registry lists every table identity first, so the table reports
    followed by the others cover it in order, never aborting early; an
    error that is not a ``WythoffError``, in either process, is raised here.
    """
    if n_max < 1 or game_cap < 1 or prime_n_max < 1:
        raise RangeError("all range arguments must be >= 1")
    bounds = {"table": n_max, "game": game_cap, "prime": prime_n_max}
    engines = _in_child if hasattr(os, "fork") else nullcontext  # nullcontext(work) yields work
    with engines(lambda: _reports(_ENGINE_IDENTITIES, bounds)) as engine_reports:
        try:
            table = build_recursive(n_max)
        except WythoffError as exc:
            reports = [_failed(ident, exc) for ident in _TABLE_IDENTITIES]
        else:
            reports = _reports(_TABLE_IDENTITIES, bounds, table)
        table = None  # the inline game and prime engines run without it resident
        return reports + engine_reports()


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
    return _reports(_TABLE_IDENTITIES, {"table": n_max}, corrupt)


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
