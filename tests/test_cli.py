"""Command-line behavior: formats, round-trips, and exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

import wythoff
import wythoff.cli
import wythoff.game
import wythoff.sequences
from wythoff import Counterexample, VerificationReport, build_recursive
from wythoff.cli import _write_json, main


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
        monkeypatch.setattr("wythoff.cli.verify_identity", lambda *a, **k: failed)
        r = runner.invoke(main, ["verify", "--identity", "L1"])
        assert r.exit_code == 1
        assert "FAILED" in r.stdout

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

    def test_json_types(self, runner):
        r = runner.invoke(main, ["primes", "--n-max", "5", "--format", "json"])
        payload = json.loads(r.stdout)
        row = payload["rows"][0]
        assert isinstance(row["p_n"], int)
        assert row["holds"] is True


class TestCeilings:
    """Table and solver ceilings exit 3 and leave no --out file behind.

    Each ceiling is lowered so that a missing check cannot allocate
    anything large.
    """

    @pytest.mark.parametrize(
        "args",
        [
            ["gen", "--method", "recursive"],
            ["gen", "--method", "both"],
            ["error-term"],
        ],
    )
    def test_table_ceiling_exits_three(self, runner, tmp_path, monkeypatch, args):
        monkeypatch.setattr(wythoff.sequences, "_TABLE_CAP", 100)
        target = tmp_path / "rows.csv"
        r = runner.invoke(
            main, [*args, "--n-max", "101", "--format", "csv", "--out", str(target)]
        )
        assert r.exit_code == 3
        assert "exceeds the table bound 100" in r.stderr
        assert not target.exists()

    def test_beatty_needs_no_table(self, runner, monkeypatch):
        monkeypatch.setattr(wythoff.sequences, "_TABLE_CAP", 100)
        r = runner.invoke(main, ["gen", "--n-max", "101", "--method", "beatty", "--format", "csv"])
        assert r.exit_code == 0
        assert r.stdout.splitlines()[-1] == "101,163,264"

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
    """csv rows stream to the writer instead of being collected first."""

    @staticmethod
    def write_csv(runner, tmp_path, args):
        r = runner.invoke(main, [*args, "--format", "csv", "--out", str(tmp_path / "rows.csv")])
        assert r.exit_code == 0

    def test_beatty_runs_in_constant_memory(self, runner, tmp_path):
        args = ["gen", "--method", "beatty", "--n-max"]
        self.write_csv(runner, tmp_path, [*args, "10"])  # warm up lazy imports
        peak = _peak_bytes(lambda: self.write_csv(runner, tmp_path, [*args, "20000"]))
        assert peak < 2**20

    @pytest.mark.parametrize("command", [["gen", "--method", "both"], ["error-term"]])
    def test_bounded_by_the_table(self, runner, tmp_path, command):
        n = 50_000
        self.write_csv(runner, tmp_path, [*command, "--n-max", "10"])
        table_peak = _peak_bytes(lambda: build_recursive(n))
        peak = _peak_bytes(lambda: self.write_csv(runner, tmp_path, [*command, "--n-max", str(n)]))
        assert peak <= 1.25 * table_peak

    @pytest.mark.parametrize(
        "command", [["gen", "--method", "recursive"], ["gen", "--method", "both"], ["error-term"]]
    )
    def test_recursion_streams_without_a_table(self, runner, tmp_path, command):
        # only the recursion's occupancy marks stay resident, ~3 bytes per pair
        self.write_csv(runner, tmp_path, [*command, "--n-max", "10"])
        peak = _peak_bytes(lambda: self.write_csv(runner, tmp_path, [*command, "--n-max", "50000"]))
        assert peak < 2**20


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
        monkeypatch.setattr("wythoff.cli.verify_identity", lambda *a, **k: failed)
        r = runner.invoke(main, ["verify", "--identity", "L4", "--format", "json"])
        assert r.exit_code == 1
        assert r.stdout == json.dumps(json.loads(r.stdout), indent=2) + "\n"
        assert json.loads(r.stdout)["rows"][0]["counterexamples"][1] == ces[1].to_dict()

    def test_no_rows(self):
        stream = io.StringIO()
        _write_json(stream, "gen", {"n_max": 0}, iter(()))
        payload = {"meta": {"command": "gen", "arguments": {"n_max": 0}}, "rows": []}
        assert stream.getvalue() == json.dumps(payload, indent=2) + "\n"


def test_runs_as_module():
    src = str(Path(wythoff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "wythoff.cli", "gen", "--n-max", "3", "--format", "csv"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "n,p,q\n1,1,2\n2,3,5\n3,4,7\n"


class TestOutputFailures:
    """A missing --out directory or a closed stdout keeps the exit-code contract."""

    @pytest.mark.parametrize(
        "args",
        [["gen"], ["verify", "--all"], ["error-term"], ["primes"]],
    )
    def test_missing_out_directory_exits_two_before_any_work(
        self, runner, tmp_path, monkeypatch, args
    ):
        def refuse(*_):
            raise AssertionError("verify_all ran before --out was checked")

        monkeypatch.setattr(wythoff.cli, "verify_all", refuse)
        target = tmp_path / "missing" / "rows.csv"
        r = runner.invoke(main, [*args, "--format", "csv", "--out", str(target)])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        assert "Traceback" not in r.output
        assert not target.parent.exists()

    def test_closed_pipe_exits_141_quietly(self):
        src = str(Path(wythoff.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        # ~3 MB of csv, far more than a pipe buffers, so writes go on after the close
        argv = [sys.executable, "-m", "wythoff.cli", "gen", "--n-max", "200000", "--format", "csv"]
        with subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        ) as proc:
            assert proc.stdout.readline() == b"n,p,q\n"
            proc.stdout.close()
            try:
                code = proc.wait(timeout=60)
            finally:
                proc.kill()
            assert proc.stderr.read() == b""
        assert code == 141
