"""The identity registry, report plumbing, and fault-injection self-test."""

import gc
import json
import os
import signal
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wythoff.game
import wythoff.primes
import wythoff.sequences
import wythoff.verify
from test_snapshot import FLIP_SETS
from wythoff import (
    IDENTITY_IDS,
    Counterexample,
    PairTable,
    REGISTRY,
    RangeError,
    UnknownIdentityError,
    VerificationReport,
    build_recursive,
    fault_injected_reports,
    report_text,
    verify_all,
    verify_identity,
)

ALL_IDS = (
    "L1",
    "C2",
    "L2",
    "L3",
    "C-dq",
    "C-no3p",
    "L4",
    "L5",
    "C3",
    "C-qp",
    "L-pq",
    "C-pair",
    "C-final",
    "L-E",
    "E-zero",
    "game-equiv",
    "prime-claim",
)
TABLE_IDS = [i for i in ALL_IDS if REGISTRY[i].kind == "table"]
PRISTINE_1000 = build_recursive(1000)


class TestRegistry:
    def test_ids_and_order(self):
        assert IDENTITY_IDS == ALL_IDS
        assert tuple(REGISTRY) == ALL_IDS

    def test_kinds(self):
        assert REGISTRY["game-equiv"].kind == "game"
        assert REGISTRY["prime-claim"].kind == "prime"
        assert all(
            REGISTRY[i].kind == "table"
            for i in ALL_IDS
            if i not in ("game-equiv", "prime-claim")
        )

    def test_conjecture_flags(self):
        assert REGISTRY["E-zero"].conjecture
        assert not REGISTRY["L-E"].conjecture


class TestVerifyIdentity:
    def test_composed_identity_shrinks_range(self):
        rep = verify_identity("L4", 1000)
        assert rep.passed
        assert (rep.lo, rep.hi) == (1, 618)  # largest n with p(n) <= 1000

    def test_error_bound_small(self):
        rep = verify_identity("L-E", 6)
        assert rep.passed
        assert (rep.lo, rep.hi) == (1, 6)

    def test_game_equivalence(self):
        rep = verify_identity("game-equiv", 300)
        assert rep.passed
        assert (rep.lo, rep.hi) == (0, 300)

    def test_prime_claim(self):
        rep = verify_identity("prime-claim", 200)
        assert rep.passed
        assert (rep.lo, rep.hi) == (3, 200)

    def test_every_identity_passes(self):
        table = build_recursive(2_000)
        for identity_id in ALL_IDS:
            kind = REGISTRY[identity_id].kind
            bound = {"table": 2_000, "game": 80, "prime": 100}[kind]
            rep = verify_identity(identity_id, bound, table)
            assert rep.passed, report_text(rep)

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentityError):
            verify_identity("nosuch", 100)

    def test_nonpositive_range(self):
        with pytest.raises(RangeError):
            verify_identity("L1", 0)

    def test_supplied_table_too_small(self):
        table = build_recursive(50)
        with pytest.raises(RangeError):
            verify_identity("L1", 100, table)

    @pytest.mark.parametrize("shift", [0, 1], ids=["genuine", "p700-shifted"])
    @pytest.mark.parametrize("identity_id", TABLE_IDS)
    def test_shared_table_matches_fresh_build(self, identity_id, shift):
        # the proofs read n_max, not the table's length: p(700) lies past
        # n_max = 400, so shifting it leaves every report passing
        table = PRISTINE_1000.copy()
        table.p[700] += shift
        shared = verify_identity(identity_id, 400, table).to_dict()
        fresh = verify_identity(identity_id, 400).to_dict()
        assert shared == fresh
        assert shared["passed"]


class TestVerifyAll:
    def test_flagship_small(self):
        reports = verify_all(2_000, 60, 50)
        assert [r.identity_id for r in reports] == list(ALL_IDS)
        assert all(r.passed for r in reports)

    def test_degenerate_ranges_pass(self):
        reports = verify_all(1, 1, 3)
        assert all(r.passed for r in reports)
        by_id = {r.identity_id: r for r in reports}
        assert by_id["L1"].hi < by_id["L1"].lo  # empty range, vacuous
        assert (by_id["prime-claim"].lo, by_id["prime-claim"].hi) == (3, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(RangeError):
            verify_all(0, 10, 10)

    def test_deterministic(self):
        one = [r.to_dict() for r in verify_all(300, 40, 30)]
        two = [r.to_dict() for r in verify_all(300, 40, 30)]
        assert one == two

    def test_engine_error_becomes_failed_report(self):
        # a prime bound needing a sieve past the capacity limit must
        # surface as a failed report, not an exception
        reports = verify_all(10, 10, 10**7)
        by_id = {r.identity_id: r for r in reports}
        assert not by_id["prime-claim"].passed
        assert "CapacityError" in str(by_id["prime-claim"].counterexamples[0].actual)
        assert all(r.passed for r in reports if r.identity_id != "prime-claim")

    @pytest.mark.parametrize(
        "module,ceiling,args,failing_kind",
        [
            (wythoff.sequences, "_TABLE_CAP", (101, 30, 10), "table"),
            (wythoff.game, "_SOLVE_CAP", (50, 101, 10), "game"),
        ],
    )
    def test_ceiling_becomes_failed_reports(
        self, monkeypatch, module, ceiling, args, failing_kind
    ):
        # lowered to 100 so a missing check cannot allocate anything large
        monkeypatch.setattr(module, ceiling, 100)
        for rep in verify_all(*args):
            if REGISTRY[rep.identity_id].kind == failing_kind:
                assert not rep.passed
                assert "CapacityError" in rep.counterexamples[0].actual
            else:
                assert rep.passed

    def test_failed_table_build_is_not_repeated(self, monkeypatch, tmp_path):
        # one build for the table identities, one for game-equiv's own table;
        # the two run in different processes, so each appends to one file
        calls = tmp_path / "calls"

        def counting_build(n_max):
            with open(calls, "a") as log:
                log.write(f"{n_max}\n")
            return build_recursive(n_max)

        monkeypatch.setattr(wythoff.sequences, "_TABLE_CAP", 100)
        monkeypatch.setattr(wythoff.verify, "build_recursive", counting_build)
        reports = verify_all(101, 30, 10)
        assert sorted(map(int, calls.read_text().split())) == [17, 101]
        for rep in reports:
            if REGISTRY[rep.identity_id].kind == "table":
                assert [ce.to_dict() for ce in rep.counterexamples] == [{
                    "n": 0,
                    "expected": "no error",
                    "actual": "CapacityError: n_max 101 exceeds the table bound 100",
                }]

    def test_table_released_before_game_and_prime(self, monkeypatch, tmp_path):
        # the pair table must not be resident next to the solver's table: the
        # solver runs where the n_max table was released or never built, and
        # it may run in another process, so it reports through a file
        class Watched(PairTable):
            __slots__ = ("__weakref__",)

        refs = []
        released = tmp_path / "released"

        def watched_build(n_max):
            t = build_recursive(n_max)
            watched = Watched(t.n_max, t.p, t.q)
            if n_max == 500:
                refs.append(weakref.ref(watched))
            return watched

        def checking_solve(cap):
            gc.collect()
            with open(released, "a") as log:
                log.write(f"{all(ref() is None for ref in refs)}\n")
            return wythoff.game.solve_retrograde(cap)

        monkeypatch.setattr(wythoff.verify, "build_recursive", watched_build)
        monkeypatch.setattr(wythoff.verify, "solve_retrograde", checking_solve)
        assert all(r.passed for r in verify_all(500, 30, 20))
        assert len(refs) == 1  # the table identities had their table
        assert released.read_text().split() == ["True"]

    def test_passed_iff_no_counterexamples(self):
        for rep in verify_all(100, 30, 20) + fault_injected_reports(100):
            assert rep.passed == (len(rep.counterexamples) == 0)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="verify_all runs inline without os.fork")
class TestForkedEngines:
    """verify_all runs the game and prime identities in one forked child."""

    def test_child_error_is_raised_in_the_parent(self, monkeypatch):
        def failing_sieve(limit):
            raise RuntimeError(f"sieve to {limit} failed")

        monkeypatch.setattr(wythoff.verify, "build_prime_gap", failing_sieve)
        with pytest.raises(RuntimeError, match="sieve to .* failed"):
            verify_all(100, 30, 20)
        _no_child_left()

    def test_child_ending_without_a_result_is_an_error(self, monkeypatch):
        # as a child killed by a signal would: nothing reaches the pipe
        monkeypatch.setattr(wythoff.verify, "solve_retrograde", lambda cap: os._exit(1))
        with pytest.raises(RuntimeError, match="ended without a result"):
            verify_all(100, 30, 20)
        _no_child_left()

    def test_failing_parent_does_not_wait_on_a_full_pipe(self, monkeypatch):
        # the child's reports outgrow a 64 KiB pipe while the parent fails in
        # its build; the parent must close the pipe before it reaps the child
        parent = os.getpid()
        huge = Counterexample(0, "x" * (1 << 17), "y")

        def failing_build(n_max):
            if os.getpid() == parent:
                raise RuntimeError("build failed")
            return build_recursive(n_max)

        def huge_report(identity_id, *args):
            return VerificationReport(identity_id, 1, 0, False, (huge,), 0.0)

        def timed_out(signum, frame):
            raise AssertionError("verify_all did not return within 20 s")

        monkeypatch.setattr(wythoff.verify, "build_recursive", failing_build)
        monkeypatch.setattr(wythoff.verify, "_verify", huge_report)
        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(20)
        try:
            with pytest.raises(RuntimeError, match="build failed"):
                verify_all(100, 30, 20)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        _no_child_left()

    @pytest.mark.parametrize(
        "args", [(2_000, 60, 500), (10, 10, 10**7)], ids=["passing", "sieve-ceiling"]
    )
    def test_inline_run_gives_the_same_reports(self, monkeypatch, args):
        forked = [r.to_dict() for r in verify_all(*args)]
        _no_child_left()
        monkeypatch.delattr(os, "fork")
        assert [r.to_dict() for r in verify_all(*args)] == forked


class TestFaultInjection:
    def test_pristine_table_passes_everything(self):
        table = build_recursive(1000)
        for identity_id in ALL_IDS:
            if REGISTRY[identity_id].kind == "table":
                assert verify_identity(identity_id, 1000, table).passed

    def test_single_corruption_is_detected(self):
        reports = fault_injected_reports(1000, index=17, delta=1)
        by_id = {r.identity_id: r for r in reports}
        assert not by_id["L2"].passed
        assert (not by_id["L-E"].passed) or (not by_id["C3"].passed)
        assert any(not r.passed for r in reports)

    def test_negative_delta_detected_too(self):
        reports = fault_injected_reports(500, index=40, delta=-1)
        assert any(not r.passed for r in reports)

    def test_zero_delta_rejected(self):
        with pytest.raises(RangeError):
            fault_injected_reports(100, index=5, delta=0)

    def test_index_out_of_range(self):
        with pytest.raises(RangeError):
            fault_injected_reports(100, index=101)

    def test_corrupts_a_fresh_table_in_place(self, monkeypatch):
        # the table is built for this run alone; a copy would hold p and q twice
        def no_copy(self):
            raise AssertionError("fault injection copied its fresh table")

        monkeypatch.setattr(wythoff.sequences.PairTable, "copy", no_copy)
        assert any(not r.passed for r in fault_injected_reports(300))

    def test_counterexamples_capped(self):
        corrupt = build_recursive(300).copy()
        for i in range(100, 160):
            corrupt.p[i] += 1
        rep = verify_identity("E-zero", 300, corrupt)
        assert not rep.passed
        assert len(rep.counterexamples) == 10


class TestTruncatedTable:
    """A table whose p or q list was shortened in place is refused up front."""

    @pytest.mark.parametrize("array", ["p", "q"])
    @pytest.mark.parametrize("identity_id", TABLE_IDS)
    def test_short_list_raises_range_error(self, identity_id, array):
        short = PRISTINE_1000.copy()
        del getattr(short, array)[1000:]  # one entry short of n_max
        with pytest.raises(RangeError):
            verify_identity(identity_id, 1000, short)


class TestCorruptedTable:
    """A corrupted table yields failed reports, never an exception."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["p", "q"]),
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=-(10**6), max_value=10**6).filter(bool),
    )
    @example("p", 5, 10**6)  # composition lookup past the end of the table
    @example("p", 300, 5000)
    @example("p", 40, -(10**6))  # a value below -len(marks) in L2
    @example("p", 1000, -2000)  # negative p(n_max), the end of L2's range
    @example("p", 1000, 10**20)  # a huge p(n_max) must not size L2's marks
    @example("p", 1, -2)  # a small negative value must not wrap in L2
    @example("q", 1, -(10**6))
    @example("q", 600, 10**6)
    def test_single_entry_corruption_fails_without_raising(self, array, index, delta):
        corrupt = PRISTINE_1000.copy()
        getattr(corrupt, array)[index] += delta
        reports = [verify_identity(i, 1000, corrupt) for i in TABLE_IDS]
        assert any(not r.passed for r in reports)

    def test_lookup_outside_table_is_a_counterexample(self):
        corrupt = PRISTINE_1000.copy()
        corrupt.p[5] += 10**6
        rep = verify_identity("L4", 1000, corrupt)
        assert rep.counterexamples[0].to_dict() == {
            "n": 5,
            "expected": "index inside the table",
            "actual": "index outside the table",
        }

    @pytest.mark.parametrize("identity_id", ["L4", "C-qp", "C-final"])
    def test_negative_lookup_does_not_wrap_around(self, identity_id):
        corrupt = PRISTINE_1000.copy()
        corrupt.p[3] = -2
        by_n = {ce.n: ce for ce in verify_identity(identity_id, 1000, corrupt).counterexamples}
        assert by_n[3].actual == "index outside the table"

    def test_negative_value_is_no_false_duplicate(self):
        reports = fault_injected_reports(1000, index=1, delta=-2)
        l2 = {r.identity_id: r for r in reports}["L2"]
        assert not l2.passed
        assert all(ce.actual == "neither" for ce in l2.counterexamples)

    def test_huge_top_still_finds_a_duplicate(self):
        # past 3 * n_max + 2, L2 keeps its marks in a dict, not a bytearray
        corrupt = PRISTINE_1000.copy()
        corrupt.p[1000] = corrupt.q[1000] = 10**20
        rep = verify_identity("L2", 1000, corrupt)
        assert (rep.hi, rep.counterexamples[0].n, rep.counterexamples[0].actual) == (
            10**20, 10**20, "both"
        )

    def test_negative_top_is_an_empty_partition_range(self):
        corrupt = PRISTINE_1000.copy()
        corrupt.p[1000] = -5
        rep = verify_identity("L2", 1000, corrupt)
        assert (rep.lo, rep.hi, rep.passed) == (1, -5, True)


# the table ids the step proof settles: all but L-E and E-zero
STEP_IDS = (
    "L1", "C2", "L2", "L3", "C-dq", "C-no3p", "L4", "L5", "C3", "C-qp", "L-pq", "C-pair",
    "C-final",
)


class TestSharedPasses:
    """Shared proofs: the step proof settles the 13 STEP_IDS, the gap proof L-E + E-zero."""

    def test_one_closed_form_call_per_n(self, monkeypatch, tmp_path):
        # the gap proof brackets floor(n*phi) by two fixed-point streams, so
        # on a genuine table no process calls beatty_p at all; only the
        # reference rules of L-E and E-zero would
        calls = tmp_path / "calls"

        def counting_beatty_p(n):
            with open(calls, "a") as log:
                log.write(f"{n}\n")
            return wythoff.sequences.beatty_p(n)

        monkeypatch.setattr(wythoff.verify, "beatty_p", counting_beatty_p)
        assert all(r.passed for r in verify_all(3000, 30, 20))
        assert not calls.exists()

    def test_each_proof_runs_once_per_registry_run(self, monkeypatch, tmp_path):
        # the prime proof runs in the forked child, so each process appends
        # the names of its proofs to one file
        proved = wythoff.verify._proved
        proofs = tmp_path / "proofs"

        def recording(proof, *args):
            with open(proofs, "a") as log:
                log.write(f"{proof.__name__}\n")
            return proved(proof, *args)

        monkeypatch.setattr(wythoff.verify, "_proved", recording)
        assert all(r.passed for r in verify_all(2000, 60, 500))
        names = proofs.read_text().split()
        assert len(names) == len(set(names)) == 3
        assert set(names) == {
            wythoff.verify._step_proof.__name__,
            wythoff.verify._gap_proof.__name__,
            wythoff.verify._prime_proof.__name__,
        }

    @pytest.mark.parametrize("identity_id", ["C3", "L5"])
    def test_no_bisect_on_a_genuine_table(self, monkeypatch, identity_id):
        calls = []

        def counting(bisect):
            return lambda *args: calls.append(args) or bisect(*args)

        for name in ("bisect_left", "bisect_right"):
            monkeypatch.setattr(wythoff.verify, name, counting(getattr(wythoff.verify, name)))
        assert verify_identity(identity_id, 1000, PRISTINE_1000).passed
        assert calls == []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["left", "right", "shift", "first"]),
        st.integers(min_value=2, max_value=999),
        st.integers(min_value=0, max_value=10**6),
    )
    @example("first", 2, 0)  # p(1) = 0 is counted before n = 1
    @example("shift", 2, 10**6)  # every value past the last n checked
    @example("shift", 500, 0)  # the genuine table, which the step proof settles
    def test_sorted_corruption_matches_the_bisect_rules(self, kind, index, amount):
        # corruptions that keep p[1..1000] non-decreasing: the step proof
        # holds only on the genuine table, and there none of the reference
        # rules it settles, the bisect rules of C3 and L5 among them, may
        # find a counterexample
        corrupt = PRISTINE_1000.copy()
        p = corrupt.p
        if kind == "left":
            p[index] = p[index - 1]
        elif kind == "right":
            p[index] = p[index + 1]
        elif kind == "shift":
            p[index:] = [v + amount for v in p[index:]]
        else:
            p[1] = -amount
        assert all(a <= b for a, b in zip(p[1:], p[2:]))
        genuine = p == PRISTINE_1000.p
        assert wythoff.verify._proved(wythoff.verify._step_proof, p, corrupt.q, 1000) is genuine
        if genuine:
            settled = {i: REGISTRY[i].check(corrupt, 1000, {}) for i in STEP_IDS}
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(wythoff.verify, "_proved", lambda *args: False)
                for identity_id in STEP_IDS:
                    check = REGISTRY[identity_id].check
                    assert check(corrupt, 1000, {}) == settled[identity_id], identity_id


PROVED_IDS = (*STEP_IDS, "L-E", "E-zero", "prime-claim")
COMPOSITION_IDS = ("L4", "C-qp", "L-pq", "C-pair", "C-final")

# small, large and huge deltas; a delta of minus the list length makes a
# lookup through the shifted entry wrap around onto the genuine value
DELTA = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from([10**20, -(10**20), -1001]),
).filter(bool)
# one corrupted entry: (array, index, delta)
CORRUPTION = st.tuples(
    st.sampled_from(["p", "q"]), st.integers(min_value=0, max_value=1000), DELTA
)


class TestProofs:
    """A proof settles an identity only where its reference rule finds nothing."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(CORRUPTION, min_size=1, max_size=6),
        st.one_of(st.none(), st.tuples(st.sampled_from(["p", "q"]), st.integers(0, 1000))),
    )
    @example([("p", 2, 1)], None)  # p(1..3) = 1, 4, 4: steps 3 and 0
    @example([("p", 3, -1)], None)  # p(3) - p(1) = 2 with no three consecutive values
    @example([("p", 5, -1001)], None)  # p(p(5)) read through a wrapped index
    @example([("q", 5, -1001)], None)  # p(q(5)) and q(q(5)) likewise
    @example([("q", 9, -(10**20))], None)
    @example([("p", 617, 10**20)], None)  # a lookup past the end of the table
    @example([("p", 1, 1)], ("q", 999))  # q truncated inside C2's range
    @example([("q", 1, 1)], ("p", 1000))  # p(n_max) cut off
    def test_a_true_proof_leaves_the_reference_nothing(self, corruptions, truncate):
        corrupt = PRISTINE_1000.copy()
        for array, index, delta in corruptions:
            getattr(corrupt, array)[index] += delta
        if truncate is not None:
            array, length = truncate
            del getattr(corrupt, array)[length:]
        proved = wythoff.verify._proved
        for identity_id in PROVED_IDS[:-1]:
            check = REGISTRY[identity_id].check
            verdicts = []

            def recording(proof, p, q, top):
                verdicts.append(proved(proof, p, q, top))
                return verdicts[-1]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(wythoff.verify, "_proved", recording)
                try:
                    lo, hi, _ = check(corrupt, 1000, {})
                except IndexError:
                    # the range rule itself read past a truncated list
                    assert verdicts == [] and truncate is not None
                    continue
            assert len(verdicts) == 1
            if verdicts[0]:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(wythoff.verify, "_proved", lambda *args: False)
                    assert check(corrupt, 1000, {}) == (lo, hi, []), identity_id

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=1000), DELTA),
            min_size=1,
            max_size=4,
        ),
        st.one_of(st.none(), st.tuples(st.sampled_from(["p", "q"]), st.integers(0, 1000))),
    )
    @example([(618, 1)], None)  # the last n of the p-range, p(618) = 999
    @example([(618, -1)], None)
    @example([(382, 1)], None)  # the last n of the q-range, q(382) = 1000
    @example([(382, -1)], None)
    @example([(1000, 1)], None)  # only the last step, p(1000) - p(999), sees it
    @example([(1000, 1)], ("q", 999))  # C-qp reads q(p(618)) = q(999), cut off
    def test_paired_shifts_leave_the_compositions_nothing(self, shifts, truncate):
        # p(k) and q(k) shifted together keep q(k) - p(k) = k, which every
        # single-entry corruption breaks, so here only p(1) = 1, the step
        # rule and the length guard of the step proof can refuse the table
        corrupt = PRISTINE_1000.copy()
        for index, delta in shifts:
            corrupt.p[index] += delta
            corrupt.q[index] += delta
        if truncate is not None:
            array, length = truncate
            del getattr(corrupt, array)[length:]
        for identity_id in COMPOSITION_IDS:
            check = REGISTRY[identity_id].check
            shared: dict = {}
            try:
                lo, hi, _ = check(corrupt, 1000, shared)
            except IndexError:
                # the range rule itself read past a truncated list
                assert shared == {} and truncate is not None
                continue
            if all(shared.values()):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(wythoff.verify, "_proved", lambda *args: False)
                    assert check(corrupt, 1000, {}) == (lo, hi, []), identity_id

    def test_prime_proof_refuses_a_corrupted_table(self):
        proof = wythoff.verify._prime_proof
        genuine = wythoff.primes.build_prime_gap(wythoff.primes.sieve_limit_for(500))
        assert wythoff.verify._proved(proof, genuine.primes, genuine.composites, 500)
        for edits in (
            [("composites", 40, 0)],
            [("primes", 99, 0)],
            [("primes", 3, 10**9)],  # a composite index past the end
            # prime(3) = 4 reads composite(0), which would wrap onto a last entry of 3
            [("primes", 2, 4), ("composites", -1, 3)],
        ):
            corrupt = wythoff.primes.build_prime_gap(wythoff.primes.sieve_limit_for(500))
            for array, index, value in edits:
                getattr(corrupt, array)[index] = value
            assert not wythoff.verify._proved(proof, corrupt.primes, corrupt.composites, 500)
        short = genuine.primes[:499]
        assert not wythoff.verify._proved(proof, short, genuine.composites, 500)

    @pytest.mark.parametrize("identity_id", STEP_IDS)
    def test_count_proof_refuses_an_unsorted_table(self, identity_id):
        # p(1) past the range followed by p(n + 1) = n + 1, with q = p + n so
        # that the q fact holds and only p(1) != 1 and the negative first
        # step can refuse the table; each reference rule it settles fails
        unsorted = PRISTINE_1000.copy()
        unsorted.p[:] = [0, 1000, *range(2, 1001)]
        unsorted.q[:] = [0, *(unsorted.p[n] + n for n in range(1, 1001))]
        assert not wythoff.verify._proved(wythoff.verify._step_proof, unsorted.p, unsorted.q, 1000)
        assert not verify_identity(identity_id, 1000, unsorted).passed

    @pytest.mark.parametrize("identity_id", ["C2", "C-dq"])
    def test_step_proof_reads_q_at_n_max(self, identity_id):
        # the last upper step, q(n_max) - q(n_max - 1), is 0 or 1 here
        corrupt = PRISTINE_1000.copy()
        corrupt.q[1000] -= 2
        assert not verify_identity(identity_id, 1000, corrupt).passed

    def test_step_proof_needs_p1_equal_to_1(self):
        # the step rule started at p(1) = 2 gives 2, 3, 5, 7, 8, ...; C3's
        # running sum is off by one, and so are the identities built on it,
        # while _offsets and the step rule hold
        p, lower = [0, 2], {2}
        for n in range(1, 1000):
            p.append(p[n] + (2 if n in lower else 1))
            lower.add(p[-1])
        anchored = PairTable(1000, p, [0, *(p[n] + n for n in range(1, 1001))])
        assert p[1:6] == [2, 3, 5, 7, 8]
        assert not wythoff.verify._proved(wythoff.verify._step_proof, p, anchored.q, 1000)
        reports = {i: verify_identity(i, 1000, anchored) for i in TABLE_IDS}
        failing = [i for i in TABLE_IDS if not reports[i].passed]
        assert failing == ["L2", "L4", "C3", "C-qp", "C-final", "E-zero"]
        assert reports["C3"].counterexamples[0].to_dict() == {"n": 1, "expected": 2, "actual": 3}

    def test_forced_fallback_gives_the_same_reports(self, monkeypatch):
        def runs():
            reports = list(verify_all(2000, 60, 500))
            for case in FLIP_SETS:
                reports += fault_injected_reports(1000, *case)
            return [r.to_dict() for r in reports]

        proved = runs()
        monkeypatch.setattr(wythoff.verify, "_proved", lambda *args: False)
        assert runs() == proved

    @pytest.mark.parametrize("identity_id", PROVED_IDS)
    def test_no_reference_scan_on_a_genuine_table(self, monkeypatch, identity_id):
        # a proof stuck at False would scan every n again and pass unseen
        def refuse(*args):
            raise AssertionError(f"{identity_id} ran its reference rule")

        monkeypatch.setattr(wythoff.verify, "_scan", refuse)
        monkeypatch.setattr(wythoff.verify, "chain", refuse)  # L2's own loop
        monkeypatch.setattr(wythoff.verify, "check_prime_claim", refuse)
        n_max = 500 if identity_id == "prime-claim" else 1000
        table = None if identity_id == "prime-claim" else PRISTINE_1000
        assert verify_identity(identity_id, n_max, table).passed


class TestReportOutput:
    def test_text_line(self):
        rep = verify_identity("L1", 100)
        line = report_text(rep)
        assert line.startswith("L1")
        assert "[1, 99]" in line
        assert "passed" in line

    def test_text_marks_empty_range(self):
        rep = verify_identity("L1", 1)
        assert "(empty)" in report_text(rep)

    def test_conjecture_failure_wording(self):
        corrupt = build_recursive(100).copy()
        corrupt.p[50] += 1
        line = report_text(verify_identity("E-zero", 100, corrupt))
        assert "conjecture counterexample" in line

    def test_dict_shape_and_serializable(self):
        rep = verify_identity("L4", 200)
        d = rep.to_dict()
        assert list(d) == ["identity", "lo", "hi", "passed", "counterexamples"]
        json.dumps(d)

    def test_failure_dict_carries_counterexamples(self):
        corrupt = build_recursive(100).copy()
        corrupt.p[30] += 1
        d = verify_identity("C3", 100, corrupt).to_dict()
        assert d["passed"] is False
        assert d["counterexamples"]
        assert set(d["counterexamples"][0]) == {"n", "expected", "actual"}
