"""End-to-end acceptance gate.

Each test covers one shipped guarantee at full stated scale and prints
one pass/fail line; run `pytest tests/test_acceptance.py -v -s` to see
them.  Timing limits are asserted where a guarantee includes one.
"""

from decimal import ROUND_FLOOR, Decimal, getcontext
from time import perf_counter

import zeckendorf
from wythoff import (
    GameState,
    Outcome,
    apply_move,
    beatty_p,
    best_move,
    build_recursive,
    fault_injected_reports,
    report_text,
    solve_retrograde,
    verify_identity,
)

SEQUENCE_IDENTITIES = (
    "L1", "C2", "L2", "L3", "C-dq", "C-no3p", "L4",
    "L5", "C3", "C-qp", "L-pq", "C-pair", "C-final",
)


def _line(criterion: str, ok: bool, elapsed: float | None = None, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    timing = f"  [{elapsed:.3f}s]" if elapsed is not None else ""
    suffix = f"  {detail}" if detail else ""
    print(f"[acceptance] {criterion}: {status}{timing}{suffix}")


def test_1_first_losing_pairs():
    start = perf_counter()
    table = build_recursive(2)
    elapsed = perf_counter() - start
    pairs = [(table.p[n], table.q[n]) for n in (1, 2)]
    ok = pairs == [(1, 2), (3, 5)] and elapsed < 0.001
    _line("1 first-losing-pairs", ok, elapsed, f"pairs={pairs}")
    assert ok


def test_2_solver_losing_set_equals_pair_set():
    start = perf_counter()
    solved = solve_retrograde(300)
    table = build_recursive(200)
    expected = {(0, 0)}
    for n in range(1, table.n_max + 1):
        if table.q[n] <= 300:
            expected.add((table.p[n], table.q[n]))
    actual = {(s.a, s.b) for s in solved.losing_states}
    elapsed = perf_counter() - start
    ok = actual == expected and elapsed < 1.0
    _line(
        "2 retrograde-equals-pairs", ok, elapsed,
        f"{len(actual)} losing states up to 300",
    )
    assert ok


def test_3_error_term_bounded_and_zero_to_a_million():
    start = perf_counter()
    table = build_recursive(10**6)
    in_bound = True
    all_zero = True
    p = table.p
    for n in range(1, 10**6 + 1):
        e = p[n] - beatty_p(n)
        if e not in (-1, 0, 1):
            in_bound = False
        if e != 0:
            all_zero = False
    elapsed = perf_counter() - start
    ok_bound = in_bound and elapsed < 10.0
    _line("3a error-term-in-{-1,0,1}-to-1e6", ok_bound, elapsed)
    _line("3b error-term-zero-to-1e6 (conjecture)", all_zero)
    assert ok_bound
    assert all_zero


def test_4_identity_suite_at_hundred_thousand():
    start = perf_counter()
    table = build_recursive(10**5)
    reports = [verify_identity(i, 10**5, table) for i in SEQUENCE_IDENTITIES]
    elapsed = perf_counter() - start
    failed = [r.identity_id for r in reports if not r.passed]
    ok = not failed and elapsed < 5.0
    _line(
        "4 identity-suite-at-1e5", ok, elapsed,
        f"failed={failed}" if failed else f"{len(reports)} identities",
    )
    for r in reports:
        assert r.passed, report_text(r)
    assert ok


def test_5_prime_claim_to_ten_thousand():
    start = perf_counter()
    report = verify_identity("prime-claim", 10**4)
    elapsed = perf_counter() - start
    ok = report.passed and elapsed < 1.0
    _line("5 prime-claim-to-1e4", ok, elapsed, f"range [{report.lo}, {report.hi}]")
    assert ok


def test_6_witness_soundness_under_brute_force():
    start = perf_counter()
    solved = solve_retrograde(200)
    checked = 0
    sound = True
    for a in range(201):
        for b in range(a, 201):
            state = GameState(a, b)
            if solved.classify(state).outcome is Outcome.WINNING:
                target = apply_move(state, best_move(state))
                if solved.classify(target).outcome is not Outcome.LOSING:
                    sound = False
                checked += 1
    elapsed = perf_counter() - start
    ok = sound and elapsed < 1.0
    _line("6 witness-soundness-to-200", ok, elapsed, f"{checked} winning states")
    assert ok


def test_7_closed_form_kernel_against_independent_oracles():
    ns = list(range(1, 10**4 + 1)) + [10**9, 10**12, 2**40]
    getcontext().prec = 80
    phi = (1 + Decimal(5).sqrt()) / 2
    ok = True
    for n in ns:
        m = beatty_p(n)
        # integer oracle: m <= n*phi < m+1  <=>  these two squares bracket 5n^2
        lo, hi = 2 * m - n, 2 * (m + 1) - n
        if not (lo * lo < 5 * n * n < hi * hi):
            ok = False
        # high-precision decimal oracle
        if int((phi * n).to_integral_value(rounding=ROUND_FLOOR)) != m:
            ok = False
        # Zeckendorf oracle: (m, m + n) is the n-th losing pair
        if not zeckendorf.is_losing(m, m + n):
            ok = False
    _line("7 kernel-vs-independent-oracles", ok, detail=f"{len(ns)} inputs")
    assert ok


def test_8_fault_injection_flips_reports():
    pristine = build_recursive(1000)
    clean = all(
        verify_identity(i, 1000, pristine).passed for i in SEQUENCE_IDENTITIES
    )
    reports = {r.identity_id: r for r in fault_injected_reports(1000, index=17, delta=1)}
    partition_fails = not reports["L2"].passed
    drift_fails = (not reports["L-E"].passed) or (not reports["C3"].passed)
    ok = clean and partition_fails and drift_fails
    flipped = sorted(i for i, r in reports.items() if not r.passed)
    _line("8 fault-injection-self-test", ok, detail=f"flipped={flipped}")
    assert ok
