"""Command-line behavior: formats, round-trips, and exit codes."""

import contextlib
import csv
import errno
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

import wythoff
import wythoff.cli
import wythoff.game
import wythoff.primes
import wythoff.sequences
import wythoff.verify
from wythoff import (
    Counterexample,
    VerificationReport,
    build_prime_gap,
    build_recursive,
    sieve_limit_for,
)
from wythoff.cli import _form, _stream, main

from child_env import child_env


@pytest.fixture
def runner():
    return CliRunner()


def rows_from_csv(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, [row for row in reader]


class TestGen:
    def test_csv_exact_bytes(self, runner):
        r = runner.invoke(main, ["gen", "--n-max", "2", "--method", "recursive", "--format", "csv"])
        assert r.exit_code == 0
        assert r.stdout == "n,p,q\n1,1,2\n2,3,5\n"

    def test_csv_round_trip(self, runner):
        r = runner.invoke(main, ["gen", "--n-max", "50", "--format", "csv"])
        header, rows = rows_from_csv(r.stdout)
        table = build_recursive(50)
        assert header == ["n", "p", "q"]
        for n, p, q in rows:
            assert (table.p[int(n)], table.q[int(n)]) == (int(p), int(q))
        assert len(rows) == 50

    def test_json_round_trip(self, runner):
        r = runner.invoke(main, ["gen", "--n-max", "10", "--format", "json"])
        payload = json.loads(r.stdout)
        assert payload["meta"]["command"] == "gen"
        assert payload["meta"]["arguments"]["n_max"] == 10
        table = build_recursive(10)
        for row in payload["rows"]:
            assert isinstance(row["p"], int)
            assert row["p"] == table.p[row["n"]]
            assert row["q"] == table.q[row["n"]]

    def test_methods_agree(self, runner):
        rec = runner.invoke(main, ["gen", "--n-max", "40", "--method", "recursive", "--format", "csv"])
        bea = runner.invoke(main, ["gen", "--n-max", "40", "--method", "beatty", "--format", "csv"])
        assert rec.stdout == bea.stdout

    def test_both_has_zero_error_column(self, runner):
        r = runner.invoke(main, ["gen", "--n-max", "5", "--method", "both", "--format", "csv"])
        header, rows = rows_from_csv(r.stdout)
        assert header == ["n", "p_rec", "q_rec", "p_beatty", "q_beatty", "e"]
        assert all(row[5] == "0" for row in rows)

    def test_table_format(self, runner):
        r = runner.invoke(main, ["gen", "--n-max", "3"])
        lines = r.stdout.splitlines()
        assert lines[0].split() == ["n", "p", "q"]
        assert lines[1].split() == ["1", "1", "2"]

    def test_out_file_matches_stdout(self, runner, tmp_path):
        target = tmp_path / "rows.csv"
        direct = runner.invoke(main, ["gen", "--n-max", "7", "--format", "csv"])
        filed = runner.invoke(main, ["gen", "--n-max", "7", "--format", "csv", "--out", str(target)])
        assert filed.exit_code == 0
        assert filed.stdout == ""
        assert target.read_text(encoding="utf-8") == direct.stdout

    def test_rejects_zero(self, runner):
        r = runner.invoke(main, ["gen", "--n-max", "0"])
        assert r.exit_code == 2


VERIFY_BOUNDS = (
    "--n-max", "2000", "--game-cap", "60", "--prime-n-max", "500", "--format", "json",
)


@pytest.fixture(scope="module")
def all_rows():
    """verify --all at VERIFY_BOUNDS, its json rows keyed by identity."""
    r = CliRunner().invoke(main, ["verify", "--all", *VERIFY_BOUNDS])
    assert r.exit_code == 0
    return {row["identity"]: row for row in json.loads(r.stdout)["rows"]}


class TestVerify:
    def test_single_identity(self, runner):
        r = runner.invoke(main, ["verify", "--identity", "L4", "--n-max", "1000"])
        assert r.exit_code == 0
        assert r.stdout.startswith("L4")
        assert "passed" in r.stdout

    def test_unknown_identity(self, runner):
        r = runner.invoke(main, ["verify", "--identity", "nosuch"])
        assert r.exit_code == 2

    def test_requires_identity_or_all(self, runner):
        assert runner.invoke(main, ["verify"]).exit_code == 2
        assert (
            runner.invoke(main, ["verify", "--all", "--identity", "L1"]).exit_code == 2
        )

    def test_all_csv(self, runner):
        r = runner.invoke(
            main,
            ["verify", "--all", "--n-max", "500", "--game-cap", "40",
             "--prime-n-max", "20", "--format", "csv"],
        )
        assert r.exit_code == 0
        header, rows = rows_from_csv(r.stdout)
        assert header == ["identity", "lo", "hi", "passed", "counterexamples"]
        assert len(rows) == 17
        assert all(row[3] == "true" and row[4] == "0" for row in rows)

    def test_all_json(self, runner):
        r = runner.invoke(
            main,
            ["verify", "--all", "--n-max", "200", "--game-cap", "30",
             "--prime-n-max", "10", "--format", "json"],
        )
        payload = json.loads(r.stdout)
        assert len(payload["rows"]) == 17
        first = payload["rows"][0]
        assert list(first) == ["identity", "lo", "hi", "passed", "counterexamples"]
        assert first["passed"] is True

    def test_failure_exits_one(self, runner, monkeypatch):
        failed = VerificationReport("L1", 1, 9, False, (), 0.0)
        monkeypatch.setattr("wythoff.verify.verify_identity", lambda *a, **k: failed)
        r = runner.invoke(main, ["verify", "--identity", "L1"])
        assert r.exit_code == 1
        assert "FAILED" in r.stdout

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_summary_after_the_rows_or_on_stderr(self, runner, monkeypatch, fmt):
        failed = VerificationReport("L1", 1, 9, False, (), 0.0)
        monkeypatch.setattr("wythoff.verify.verify_identity", lambda *a, **k: failed)
        r = runner.invoke(main, ["verify", "--identity", "L1", "--format", fmt])
        summary = "0 of 1 identities passed; FAILED: L1\n"
        if fmt == "table":
            assert (r.stdout.count("\n"), r.stderr) == (2, "")
            assert r.stdout.endswith(summary)
        else:
            assert (r.stderr, r.stdout.count(summary)) == (summary, 0)

    @pytest.mark.parametrize("identity_id", list(wythoff.REGISTRY))
    def test_identity_row_matches_the_all_row(self, runner, all_rows, identity_id):
        r = runner.invoke(main, ["verify", "--identity", identity_id, *VERIFY_BOUNDS])
        assert r.exit_code == 0
        (row,) = json.loads(r.stdout)["rows"]
        assert row == all_rows[identity_id]

    def test_game_identity_uses_game_cap(self, runner):
        r = runner.invoke(
            main, ["verify", "--identity", "game-equiv", "--game-cap", "50"]
        )
        assert r.exit_code == 0
        assert "[0, 50]" in r.stdout


class TestClassify:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("1", "2", "LOSING"), ("3", "5", "LOSING"), ("8", "13", "LOSING"),
         ("5", "5", "WINNING"), ("0", "4", "WINNING")],
    )
    def test_closed_oracle(self, runner, a, b, expected):
        r = runner.invoke(main, ["classify", a, b])
        assert r.exit_code == 0
        assert r.stdout.strip() == expected

    def test_brute_shows_witness(self, runner):
        r = runner.invoke(main, ["classify", "5", "5", "--oracle", "brute"])
        assert r.exit_code == 0
        assert r.stdout.strip() == "WINNING (take 5 from both)"

    def test_brute_losing(self, runner):
        r = runner.invoke(main, ["classify", "3", "5", "--oracle", "brute"])
        assert r.stdout.strip() == "LOSING"

    def test_brute_cap_exceeded(self, runner):
        r = runner.invoke(main, ["classify", "8", "500", "--oracle", "brute"])
        assert r.exit_code == 3

    def test_raised_cap_allows_it(self, runner):
        r = runner.invoke(
            main, ["classify", "8", "500", "--oracle", "brute", "--game-cap", "500"]
        )
        assert r.exit_code == 0

    def test_negative_rejected(self, runner):
        assert runner.invoke(main, ["classify", "-1", "4"]).exit_code == 2

    def test_argument_order_irrelevant(self, runner):
        assert (
            runner.invoke(main, ["classify", "13", "8"]).stdout
            == runner.invoke(main, ["classify", "8", "13"]).stdout
        )

    @pytest.mark.parametrize("command", ["classify", "best-move"])
    def test_over_long_pile_refused_in_one_short_line(self, runner, command):
        # 5,000 digits, past CPython's 4,300: the value itself is not echoed
        r = runner.invoke(main, [command, "1" * 5000, "3"])
        assert r.exit_code == 2
        assert "a 5,000-character value exceeds the 4,300-digit limit" in r.stderr
        assert len(r.stderr) < 300
        # a short non-integer keeps click's own message, and 4,300 digits are read
        r = runner.invoke(main, [command, "abc", "3"])
        assert r.exit_code == 2
        assert "'abc' is not a valid integer range" in r.stderr
        assert runner.invoke(main, [command, "1" * 4300, "3"]).exit_code == 0
        # 4,301 digits, the first length refused, are not echoed either
        r = runner.invoke(main, [command, "1" * 4301, "3"])
        assert r.exit_code == 2
        assert "a 4,301-character value exceeds the 4,300-digit limit" in r.stderr
        assert len(r.stderr) < 300


class TestBestMove:
    def test_take_both(self, runner):
        r = runner.invoke(main, ["best-move", "1", "1"])
        assert r.exit_code == 0
        assert r.stdout.strip() == "take 1 from both"

    def test_losing_position(self, runner):
        r = runner.invoke(main, ["best-move", "1", "2"])
        assert r.exit_code == 1
        assert "position is losing" in r.stdout

    def test_pile_labels_follow_argument_order(self, runner):
        # (2, 5): the only winning move leaves (1, 2) by taking 4 from
        # the larger pile, whichever position it was passed in
        r = runner.invoke(main, ["best-move", "2", "5"])
        assert r.stdout.strip() == "take 4 from the second pile"
        r = runner.invoke(main, ["best-move", "5", "2"])
        assert r.stdout.strip() == "take 4 from the first pile"

    def test_reaches_losing_state(self, runner):
        r = runner.invoke(main, ["best-move", "4", "5"])
        assert r.exit_code == 0
        assert r.stdout.strip() == "take 3 from both"

    def test_negative_rejected(self, runner):
        assert runner.invoke(main, ["best-move", "3", "-2"]).exit_code == 2


class TestErrorTerm:
    def test_small_scan(self, runner):
        r = runner.invoke(main, ["error-term", "--n-max", "6"])
        assert r.exit_code == 0
        lines = r.stdout.splitlines()
        assert lines[0].split() == ["n", "p", "p_beatty", "e"]
        assert len(lines) == 8  # header + 6 rows + histogram
        assert lines[-1] == "histogram {0: 6}"

    def test_csv_keeps_stream_clean(self, runner):
        r = runner.invoke(main, ["error-term", "--n-max", "4", "--format", "csv"])
        header, rows = rows_from_csv(r.stdout)
        assert header == ["n", "p", "p_beatty", "e"]
        assert len(rows) == 4
        assert "histogram" in r.stderr
        assert "histogram" not in r.stdout

    def test_matches_gen_both(self, runner):
        et = runner.invoke(main, ["error-term", "--n-max", "30", "--format", "csv"])
        gb = runner.invoke(main, ["gen", "--n-max", "30", "--method", "both", "--format", "csv"])
        _, et_rows = rows_from_csv(et.stdout)
        _, gb_rows = rows_from_csv(gb.stdout)
        assert [row[3] for row in et_rows] == [row[5] for row in gb_rows]

    def test_rejects_zero(self, runner):
        assert runner.invoke(main, ["error-term", "--n-max", "0"]).exit_code == 2


class TestPrimes:
    def test_explicit_sieve(self, runner):
        r = runner.invoke(main, ["primes", "--n-max", "4", "--sieve-limit", "100", "--format", "csv"])
        assert r.exit_code == 0
        header, rows = rows_from_csv(r.stdout)
        assert header == ["n", "p_n", "index", "q_at_index", "holds"]
        assert rows == [["3", "5", "1", "4", "true"], ["4", "7", "2", "6", "true"]]

    def test_auto_sieve(self, runner):
        r = runner.invoke(main, ["primes", "--n-max", "100"])
        assert r.exit_code == 0
        assert "claim holds for 98 of 98" in r.stdout

    def test_too_small_n(self, runner):
        assert runner.invoke(main, ["primes", "--n-max", "2"]).exit_code == 2

    def test_undersized_sieve_errors(self, runner):
        r = runner.invoke(main, ["primes", "--n-max", "100", "--sieve-limit", "50"])
        assert r.exit_code == 2
        assert "sieve limit 50 yields only 15 primes, index 16 unavailable" in r.output

    @pytest.mark.parametrize("n_max", ["100", "100000"])
    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_undersized_sieve_writes_nothing(self, runner, tmp_path, fmt, n_max):
        # the first n the sieve cannot serve is named, before any row is written
        args = ["primes", "--n-max", n_max, "--sieve-limit", "50", "--format", fmt]
        target = tmp_path / "rows.txt"
        for out in ([], ["--out", str(target)]):
            r = runner.invoke(main, [*args, *out])
            assert r.exit_code == 2
            assert r.stdout == ""
            assert r.stderr == "error: sieve limit 50 yields only 15 primes, index 16 unavailable\n"
        assert not target.exists()

    def test_json_types(self, runner):
        r = runner.invoke(main, ["primes", "--n-max", "5", "--format", "json"])
        payload = json.loads(r.stdout)
        row = payload["rows"][0]
        assert isinstance(row["p_n"], int)
        assert row["holds"] is True

    def test_failing_claim_exits_one(self, runner, monkeypatch):
        def sieve(limit):
            table = build_prime_gap(limit)
            table.composites[1] = 5  # the 2nd composite, 6, is read only at n = 4
            return table

        monkeypatch.setattr(wythoff.primes, "build_prime_gap", sieve)
        args = ["primes", "--n-max", "4", "--sieve-limit", "100", "--format"]
        r = runner.invoke(main, [*args, "csv"])
        assert r.exit_code == 1
        assert r.stdout == "n,p_n,index,q_at_index,holds\n3,5,1,4,true\n4,7,2,5,false\n"
        assert r.stderr == "claim holds for 1 of 2 indices\n"
        r = runner.invoke(main, [*args, "table"])
        assert r.exit_code == 1
        assert r.stdout.splitlines() == [
            "n  p_n  index  q_at_index  holds",
            "3    5      1           4   true",
            "4    7      2           5  false",
            "claim holds for 1 of 2 indices",
        ]


class TestCeilings:
    """Table and solver ceilings exit 3 and leave no --out file behind.

    Each ceiling is lowered so that a missing check cannot allocate
    anything large.
    """

    @pytest.mark.parametrize(
        "args",
        [
            ["gen", "--method", "recursive", "--format", "csv"],
            ["gen", "--method", "both", "--format", "csv"],
            ["error-term", "--format", "csv"],
            ["gen", "--method", "recursive", "--format", "table"],
            ["gen", "--method", "both", "--format", "table"],
            ["error-term", "--format", "table"],
        ],
    )
    def test_table_ceiling_exits_three(self, runner, tmp_path, monkeypatch, args):
        monkeypatch.setattr(wythoff.sequences, "_TABLE_CAP", 100)
        target = tmp_path / "rows.csv"
        r = runner.invoke(main, [*args, "--n-max", "101", "--out", str(target)])
        assert r.exit_code == 3
        assert "exceeds the table bound 100" in r.stderr
        assert not target.exists()

    def test_beatty_needs_no_table(self, runner, monkeypatch):
        monkeypatch.setattr(wythoff.sequences, "_TABLE_CAP", 100)
        r = runner.invoke(main, ["gen", "--n-max", "101", "--method", "beatty", "--format", "csv"])
        assert r.exit_code == 0
        assert r.stdout.splitlines()[-1] == "101,163,264"

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    @pytest.mark.parametrize("case", ["past-the-bound", "without-fork"])
    def test_unsplit_where_no_child_takes_a_half(self, runner, monkeypatch, case, fmt):
        # past the table bound nothing limits the upper half's bytes, and
        # without os.fork a split buys nothing: no child runs and no temporary
        # file takes a half, as this process writes the forked run's bytes whole
        if case == "past-the-bound":
            exports = [["gen", "--n-max", "101", "--method", "beatty"]]
        else:
            commands = [["gen", "--method", m] for m in ("recursive", "beatty", "both")]
            exports = [
                [*command, "--n-max", n]
                for command in [*commands, ["error-term"], ["primes"]]
                for n in ("4", "101")  # 2 rows of primes, which start at 3
            ]
        exports = [[*args, "--format", fmt] for args in exports]
        forked = [runner.invoke(main, args) for args in exports]

        def refused(*args, **kwargs):
            raise AssertionError(f"a fork or a temporary file {case}")

        monkeypatch.setattr(wythoff.cli, "TemporaryFile", refused)
        if case == "past-the-bound":
            monkeypatch.setattr(wythoff.sequences, "_TABLE_CAP", 100)
            monkeypatch.setattr(os, "fork", refused)
        else:
            monkeypatch.delattr(os, "fork")
        for args, split in zip(exports, forked):
            whole = runner.invoke(main, args)
            assert whole.exit_code == split.exit_code == 0, (args, whole.exception)
            assert (whole.stdout, whole.stderr) == (split.stdout, split.stderr), args

    def test_solver_ceiling_exits_three(self, runner, monkeypatch):
        monkeypatch.setattr(wythoff.game, "_SOLVE_CAP", 100)
        r = runner.invoke(main, ["classify", "5", "5", "--oracle", "brute", "--game-cap", "101"])
        assert r.exit_code == 3
        assert "exceeds the solver bound 100" in r.stderr


def _peak_bytes(fn) -> int:
    """Peak traced allocation while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreaming:
    """csv and table rows stream to the writer instead of being collected first.

    Here the upper half of the rows is written in a forked child, so each
    gate sees this process and the lower half; TestStreamingInline runs
    the same gates with every row written in this process.
    """

    @staticmethod
    def write_rows(runner, tmp_path, args, fmt="csv"):
        r = runner.invoke(main, [*args, "--format", fmt, "--out", str(tmp_path / "rows.csv")])
        assert r.exit_code == 0

    def test_beatty_runs_in_constant_memory(self, runner, tmp_path):
        args = ["gen", "--method", "beatty", "--n-max"]
        self.write_rows(runner, tmp_path, [*args, "10"])  # warm up lazy imports
        peak = _peak_bytes(lambda: self.write_rows(runner, tmp_path, [*args, "20000"]))
        assert peak < 2**20

    @pytest.mark.parametrize(
        "command", [["gen", "--method", "recursive"], ["gen", "--method", "both"], ["error-term"]]
    )
    def test_recursion_streams_without_a_table(self, runner, tmp_path, command):
        # only the recursion's occupancy marks stay resident, ~3 bytes per pair
        self.write_rows(runner, tmp_path, [*command, "--n-max", "10"])
        peak = _peak_bytes(lambda: self.write_rows(runner, tmp_path, [*command, "--n-max", "50000"]))
        assert peak < 2**20

    @pytest.mark.parametrize("command", [["gen", "--method", "both"], ["error-term"]])
    def test_table_holds_no_rows(self, runner, tmp_path, command):
        # the widths come from a first pass over the rows, the lines from a
        # second, and the first pass's marks are freed before the second's
        self.write_rows(runner, tmp_path, [*command, "--n-max", "10"], "table")
        args = [*command, "--n-max", "20000"]
        csv_peak = _peak_bytes(lambda: self.write_rows(runner, tmp_path, args))
        peak = _peak_bytes(lambda: self.write_rows(runner, tmp_path, args, "table"))
        assert peak < 2**20
        assert peak <= 1.25 * csv_peak

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_primes_holds_only_its_sieve(self, runner, tmp_path, fmt):
        n = 5000
        self.write_rows(runner, tmp_path, ["primes", "--n-max", "10"], fmt)
        sieve_peak = _peak_bytes(lambda: build_prime_gap(sieve_limit_for(n)))
        args = ["primes", "--n-max", str(n)]
        peak = _peak_bytes(lambda: self.write_rows(runner, tmp_path, args, fmt))
        assert peak <= 1.25 * sieve_peak


class TestStreamingInline(TestStreaming):
    """TestStreaming with os.fork deleted: this one process writes each export whole."""

    @pytest.fixture(autouse=True)
    def without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")


# Spawns python with its own arguments and prints the exit code and the peak
# RSS that os.wait4 reports, in KiB on Linux: the most any process of the run
# held, a reaped forked child's too.  It runs as its own small process, as on
# Linux a child's reported peak is at least the resident size of its spawner.
_PEAK = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def _run_peak_kib(code, args, tmp_path) -> int:
    """Peak RSS in KiB of a python -c code run with args and --out."""
    result = subprocess.run(
        [sys.executable, "-c", _PEAK, "-c", code, *args, "--out", str(tmp_path / "rows.csv")],
        capture_output=True,
        env=child_env(),
        timeout=60,
    )
    exit_code, peak = map(int, result.stdout.split())
    assert (exit_code, result.stderr) == (0, b"")
    return peak


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no forked child to measure")
def test_forked_child_holds_no_rows(tmp_path):
    # TestStreaming traces this process alone: here the child's peak counts.
    # Forked, each process holds what the one unforked writer does; a child
    # that collected its 100,000 lines would hold ~6.5 MiB more
    args = ["gen", "--n-max", "200000", "--method", "both", "--format", "csv"]
    run = "import wythoff.cli; wythoff.cli.main()"
    forked = _run_peak_kib(run, args, tmp_path)
    inline = _run_peak_kib("import os; del os.fork; " + run, args, tmp_path)
    assert forked < inline + 2 * 1024


class TestJsonLayout:
    """The streamed json has exactly json.dump's indent=2 layout."""

    @pytest.mark.parametrize(
        "args",
        [
            "gen --n-max 25 --method recursive",
            "gen --n-max 25 --method beatty",
            "gen --n-max 25 --method both",
            "error-term --n-max 25",
            "primes --n-max 25",
            "gen --n-max 1 --method both",
            "gen --n-max 2 --method both",
            "gen --n-max 3 --method both",
            "error-term --n-max 1",
            "error-term --n-max 2",
            "primes --n-max 3",
            "primes --n-max 4",
            "verify --all --n-max 300 --game-cap 40 --prime-n-max 30",
        ],
    )
    def test_matches_json_dump(self, runner, args):
        r = runner.invoke(main, [*args.split(), "--format", "json"])
        assert r.exit_code == 0
        assert r.stdout == json.dumps(json.loads(r.stdout), indent=2) + "\n"

    def test_nested_counterexamples(self, runner, monkeypatch):
        ces = (Counterexample(3, 4, "index outside the table"), Counterexample(9, 1, 2))
        failed = VerificationReport("L4", 1, 9, False, ces, 0.0)
        monkeypatch.setattr("wythoff.verify.verify_identity", lambda *a, **k: failed)
        r = runner.invoke(main, ["verify", "--identity", "L4", "--format", "json"])
        assert r.exit_code == 1
        assert r.stdout == json.dumps(json.loads(r.stdout), indent=2) + "\n"
        assert json.loads(r.stdout)["rows"][0]["counterexamples"][1] == ces[1].to_dict()

    def test_no_rows(self, capsys):
        head, _ = _form("json", "gen", {"n_max": 0}, ["n"])
        _stream(None, "json", head, iter(()))
        sys.stdout.flush()  # _stream takes stdout off write-through
        payload = {"meta": {"command": "gen", "arguments": {"n_max": 0}}, "rows": []}
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def test_runs_as_module():
    result = subprocess.run(
        [sys.executable, "-m", "wythoff.cli", "gen", "--n-max", "3", "--format", "csv"],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "n,p,q\n1,1,2\n2,3,5\n3,4,7\n"


GEN_HEAD = b"n,p_rec,q_rec,p_beatty,q_beatty,e\n"
SIGNALS = [
    pytest.param(signal.SIGINT, 130, id="sigint"),
    pytest.param(signal.SIGTERM, 143, id="sigterm"),
]


def _first_line(path: Path, timeout: float = 60) -> bytes:
    """The first line of the file at path, once a writer has ended it."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with contextlib.suppress(FileNotFoundError), open(path, "rb") as file:
            line = file.readline()
            if line.endswith(b"\n"):
                return line
        time.sleep(0.01)
    raise AssertionError(f"{path} held no line after {timeout} s")


class TestOutputFailures:
    """A missing --out directory, a full TMPDIR, a closed stdout, an
    interrupt or a SIGTERM keeps the exit-code contract."""

    @pytest.mark.parametrize(
        "args",
        [["gen"], ["verify", "--all"], ["error-term"], ["primes"]],
    )
    def test_missing_out_directory_exits_two_before_any_work(
        self, runner, tmp_path, monkeypatch, args
    ):
        def refuse(*_):
            raise AssertionError("verify_all ran before --out was checked")

        monkeypatch.setattr(wythoff.verify, "verify_all", refuse)
        target = tmp_path / "missing" / "rows.csv"
        r = runner.invoke(main, [*args, "--format", "csv", "--out", str(target)])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        assert "Traceback" not in r.output
        assert not target.parent.exists()

    @pytest.mark.parametrize(
        "args",
        [["gen"], ["verify", "--all"], ["error-term"], ["primes"]],
    )
    def test_empty_out_exits_two_before_any_work(self, runner, monkeypatch, args):
        def refuse(*_):
            raise AssertionError("verify_all ran before --out was checked")

        monkeypatch.setattr(wythoff.verify, "verify_all", refuse)
        r = runner.invoke(main, [*args, "--format", "csv", "--out", ""])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.stderr == "error: --out: the path is empty\n"
        assert r.stdout == ""

    @pytest.mark.skipif(
        not hasattr(os, "geteuid") or os.geteuid() == 0,
        reason="root may write to any directory",
    )
    def test_read_only_out_directory_exits_two_before_any_work(self, runner, tmp_path):
        folder = tmp_path / "read-only"
        folder.mkdir(mode=0o500)
        target = folder / "rows.csv"
        r = runner.invoke(main, ["gen", "--format", "csv", "--out", str(target)])
        assert r.exit_code == 2
        assert r.stderr == f"error: --out {target}: {folder} is not a writable directory\n"
        assert not target.exists()

    def test_full_tmpdir_exits_two(self, runner, monkeypatch):
        # the forked child cannot write the upper half's temporary file: the
        # lower half is out, and the child's error is raised in the parent
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(wythoff.cli, "TemporaryFile", lambda *args, **kwargs: Full())
        r = runner.invoke(main, ["gen", "--n-max", "4", "--format", "csv"])
        assert r.exit_code == 2
        assert r.stdout == "n,p,q\n1,1,2\n2,3,5\n"
        assert r.stderr == "error: [Errno 28] No space left on device\n"

    def test_failed_fork_exits_two_and_restores_the_signal_mask(self, runner, monkeypatch):
        # SIGINT and SIGTERM, blocked for the fork, are unblocked again here
        def refused():
            raise OSError(errno.EAGAIN, "fork refused")

        monkeypatch.setattr(os, "fork", refused)
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
        r = runner.invoke(main, ["gen", "--n-max", "4", "--format", "csv"])
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == f"error: [Errno {errno.EAGAIN}] fork refused\n"
        assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == mask

    def test_interrupt_exits_130_quietly(self, runner, monkeypatch):
        def interrupted(n):
            raise KeyboardInterrupt

        monkeypatch.setattr(wythoff.cli, "beatty_p", interrupted)
        r = runner.invoke(main, ["gen", "--n-max", "1", "--method", "beatty", "--format", "csv"])
        assert (r.exit_code, r.stdout, r.stderr) == (130, "", "")

    @staticmethod
    def stop_after_first_line(argv, timeout, signum=None, out=None, first=GEN_HEAD):
        """Run argv and, after its first line, close its stdout; its exit
        code, seconds from the stop to its end, and stderr.

        With signum, that signal goes to argv's process instead, and the rest
        of its stdout is read, so its last flush cannot block on a full pipe.
        With out, the first line is awaited in that file, not on stdout.
        The run has its own session, and nothing of it may outlive it: a
        forked child is reaped, not orphaned.
        """
        with subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
            start_new_session=True,
        ) as proc:
            try:
                assert (proc.stdout.readline() if out is None else _first_line(out)) == first
                start = time.monotonic()
                if signum is not None:
                    os.kill(proc.pid, signum)
                    proc.stdout.read()
                else:
                    proc.stdout.close()
                code = proc.wait(timeout=timeout)
                elapsed = time.monotonic() - start
                with pytest.raises(ProcessLookupError):
                    os.killpg(proc.pid, 0)
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
            return code, elapsed, proc.stderr.read()

    def test_closed_pipe_exits_141_quietly(self):
        # ~500 MB of csv: writes go on long after the close, and the forked
        # child writes its 5 x 10^6 rows to a file, where no closed pipe
        # stops it; the failing parent SIGKILLs it, where waiting took ~7 s
        args = ["gen", "--n-max", "10000000", "--method", "both", "--format", "csv"]
        argv = [sys.executable, "-m", "wythoff.cli", *args]
        code, elapsed, stderr = self.stop_after_first_line(argv, timeout=120)
        assert (code, stderr) == (141, b"")
        assert elapsed < 2

    def test_sigint_exits_130_and_stops_the_child(self):
        # Ctrl-C on the 10^7-row export its forked child is still writing
        args = ["gen", "--n-max", "10000000", "--method", "both", "--format", "csv"]
        argv = [sys.executable, "-m", "wythoff.cli", *args]
        code, elapsed, stderr = self.stop_after_first_line(argv, 120, signal.SIGINT)
        assert (code, stderr) == (130, b"")
        assert elapsed < 2

    def test_sigterm_exits_143_and_stops_the_child(self):
        # as timeout(1) or a cancelled CI job stops the same export: a parent
        # killed without unwinding would leave its child writing for ~50 s
        args = ["gen", "--n-max", "10000000", "--method", "both", "--format", "csv"]
        argv = [sys.executable, "-m", "wythoff.cli", *args]
        code, elapsed, stderr = self.stop_after_first_line(argv, 120, signal.SIGTERM)
        assert (code, stderr) == (143, b"")
        assert elapsed < 2

    @pytest.mark.parametrize("signum, exit_code", SIGNALS)
    def test_signal_on_an_out_export_leaves_a_prefix(self, runner, tmp_path, signum, exit_code):
        # the lower half written to the --out file stops where the signal
        # found it, and the forked child writing the upper half is stopped
        target = tmp_path / "rows.csv"
        form = ["--method", "both", "--format", "csv"]
        argv = [sys.executable, "-m", "wythoff.cli", "gen", "--n-max", "10000000", *form]
        code, elapsed, stderr = self.stop_after_first_line(
            [*argv, "--out", str(target)], 120, signum, target
        )
        assert (code, stderr) == (exit_code, b"")
        assert elapsed < 2
        written = target.read_bytes()
        # one row per line after the head: enough rows for a last line cut short
        rows = str(written.count(b"\n"))
        whole = runner.invoke(main, ["gen", "--n-max", rows, *form]).stdout.encode()
        assert whole.startswith(written)

    @pytest.mark.parametrize("signum, exit_code", SIGNALS)
    def test_signal_on_the_inline_path(self, signum, exit_code):
        # without os.fork this one process writes the whole export
        run = "import os; del os.fork; import wythoff.cli; wythoff.cli.main()"
        args = ["gen", "--n-max", "10000000", "--method", "both", "--format", "csv"]
        argv = [sys.executable, "-c", run, *args]
        code, elapsed, stderr = self.stop_after_first_line(argv, 120, signum)
        assert (code, stderr) == (exit_code, b"")
        assert elapsed < 2

    @pytest.mark.parametrize("signum, exit_code", SIGNALS)
    def test_signal_while_the_verify_child_solves(self, signum, exit_code):
        # the forked child solves game-equiv, ~3 s at cap 10^4, while the
        # parent builds its table: the build's line on stdout says the
        # parent is past the fork and inside _in_child's guard
        announced = (
            "import wythoff.cli, wythoff.verify\n"
            "build = wythoff.verify.build_recursive\n"
            "def announced(n_max):\n"
            "    table = build(n_max)\n"
            "    print('built', flush=True)\n"
            "    return table\n"
            "wythoff.verify.build_recursive = announced\n"
            "wythoff.cli.main()\n"
        )
        args = ["verify", "--all", "--game-cap", "10000"]
        argv = [sys.executable, "-c", announced, *args]
        code, elapsed, stderr = self.stop_after_first_line(argv, 120, signum, first=b"built\n")
        assert (code, stderr) == (exit_code, b"")
        assert elapsed < 2

    @pytest.mark.parametrize("signum, exit_code", SIGNALS)
    def test_signal_as_the_fork_returns(self, signum, exit_code):
        # the parent signals itself the moment os.fork returns there, before
        # _in_child's guard: the signal waits, blocked, until the guard can
        # stop and reap the child, which would otherwise write on unreaped
        signalled = (
            "import os, wythoff.cli\n"
            "fork = os.fork\n"
            "def signalled():\n"
            "    pid = fork()\n"
            "    if pid:\n"
            f"        os.kill(os.getpid(), {int(signum)})\n"
            "    return pid\n"
            "os.fork = signalled\n"
            "wythoff.cli.main()\n"
        )
        args = ["gen", "--n-max", "10000000", "--method", "both", "--format", "csv"]
        with subprocess.Popen(
            [sys.executable, "-c", signalled, *args],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=child_env(),
            start_new_session=True,
        ) as proc:
            try:
                code = proc.wait(timeout=60)
                with pytest.raises(ProcessLookupError):
                    os.killpg(proc.pid, 0)
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
            assert (code, proc.stderr.read()) == (exit_code, b"")

    def test_sigterm_handler_is_restored(self, runner):
        before = signal.getsignal(signal.SIGTERM)
        assert runner.invoke(main, ["gen", "--n-max", "1"]).exit_code == 0
        assert signal.getsignal(signal.SIGTERM) is before

    def test_runs_outside_the_main_thread(self, runner):
        # only the main thread may set a signal handler
        results = []
        worker = threading.Thread(
            target=lambda: results.append(runner.invoke(main, ["gen", "--n-max", "1"]))
        )
        worker.start()
        worker.join()
        assert (results[0].exit_code, results[0].stdout) == (0, "n  p  q\n1  1  2\n")

    def test_unbuffered_stdout_gets_few_writes(self, monkeypatch):
        # PYTHONUNBUFFERED=1 makes stdout a write-through text layer over a
        # raw file: without a buffer of the export's own, each row is a syscall
        class Raw(io.RawIOBase):
            writes = 0

            def writable(self):
                return True

            def write(self, data):
                Raw.writes += 1
                return len(data)

        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(Raw(), write_through=True))
        main(["gen", "--n-max", "10000", "--format", "csv"], standalone_mode=False)
        assert 0 < Raw.writes < 100

    def test_closed_pipe_stops_a_stalled_child(self):
        # the child never ends its half, so only the failing parent's SIGKILL
        # lets the command end at all; a parent that waits for it times out
        stalled = (
            "import sys, tempfile, time\n"
            "import wythoff.cli\n"
            "def stalled(*args, **kwargs):\n"
            "    spill = tempfile.TemporaryFile(*args, **kwargs)\n"
            "    spill.writelines = lambda lines: time.sleep(600)\n"
            "    return spill\n"
            "wythoff.cli.TemporaryFile = stalled\n"
            "wythoff.cli.main()\n"
        )
        args = ["gen", "--n-max", "1000000", "--method", "both", "--format", "csv"]
        code, _, stderr = self.stop_after_first_line([sys.executable, "-c", stalled, *args], 30)
        assert (code, stderr) == (141, b"")
