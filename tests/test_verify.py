"""The identity registry, report plumbing, and fault-injection self-test."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wythoff.game
import wythoff.sequences
import wythoff.verify
from wythoff import (
    IDENTITY_IDS,
    REGISTRY,
    RangeError,
    UnknownIdentityError,
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

    def test_shared_table_matches_fresh_build(self):
        table = build_recursive(400)
        shared = verify_identity("C3", 400, table).to_dict()
        fresh = verify_identity("C3", 400).to_dict()
        assert shared == fresh


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

    def test_failed_table_build_is_not_repeated(self, monkeypatch):
        # one build for the table identities, one for game-equiv's own table
        calls = []

        def counting_build(n_max):
            calls.append(n_max)
            return build_recursive(n_max)

        monkeypatch.setattr(wythoff.sequences, "_TABLE_CAP", 100)
        monkeypatch.setattr(wythoff.verify, "build_recursive", counting_build)
        reports = verify_all(101, 30, 10)
        assert calls == [101, 17]
        for rep in reports:
            if REGISTRY[rep.identity_id].kind == "table":
                assert [ce.to_dict() for ce in rep.counterexamples] == [{
                    "n": 0,
                    "expected": "no error",
                    "actual": "CapacityError: n_max 101 exceeds the table bound 100",
                }]

    def test_passed_iff_no_counterexamples(self):
        for rep in verify_all(100, 30, 20) + fault_injected_reports(100):
            assert rep.passed == (len(rep.counterexamples) == 0)


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


PRISTINE_1000 = build_recursive(1000)
TABLE_IDS = [i for i in ALL_IDS if REGISTRY[i].kind == "table"]


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

    def test_negative_top_is_an_empty_partition_range(self):
        corrupt = PRISTINE_1000.copy()
        corrupt.p[1000] = -5
        rep = verify_identity("L2", 1000, corrupt)
        assert (rep.lo, rep.hi, rep.passed) == (1, -5, True)


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
