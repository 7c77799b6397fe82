"""Mutation gate: each listed source mutant must be killed by its named tests.

Every entry is (file, exact old text, new text, killing node ids).  For
each entry the script copies ``src/`` to a temporary directory, requires
the old text to occur exactly once in the file, applies the mutant, and
runs each killing node on its own against the mutated copy; every one of
them must fail.  Before that it checks once that all the named nodes pass
on an unmutated copy.  A surviving mutant, an old text that no longer
matches exactly once, or a node that errors instead of failing exits 1.
It prints the seconds each mutant took and its number of pytest runs,
one per killing node, then the totals, so the share of the gate that
goes to pytest start-ups shows.

The entries cover the whole package: the registry's proofs and the
coverage check ahead of them (a proof that passes where its reference
rule would fail hides a counterexample), the engine identities, the
integer kernel and its memo, the recursion, the game engines, the sieve,
the command line and the package's imports on first use.  A later
change that weakens one of the killing tests shows here.  A change that
adds a proof, a guard or a branch adds its mutants.  A mutant that
survives is fixed in the tests, not deleted from the list; a mutant no
test can kill, because it is equivalent or only a non-root run reaches
it, is named in a comment with the reason.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

The file name keeps pytest from collecting it.  Only the standard library
is imported here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERIFY = "src/wythoff/verify.py"
SEQUENCES = "src/wythoff/sequences.py"
GAME = "src/wythoff/game.py"
PRIMES = "src/wythoff/primes.py"
CLI = "src/wythoff/cli.py"
FORK = "src/wythoff/_fork.py"
INIT = "src/wythoff/__init__.py"
TESTS = "tests/test_verify.py::"
PROOFS = TESTS + "TestProofs::"
ENGINES = TESTS + "TestEngineCounterexamples::"
SWEEP = TESTS + "TestCorruptedTable::test_every_single_entry_corruption_at_200"
SEQUENCE_TESTS = "tests/test_sequences.py::"
GAME_TESTS = "tests/test_game.py::"
PRIME_TESTS = "tests/test_primes.py::"
CLI_TESTS = "tests/test_cli.py::"
UNSPLIT = CLI_TESTS + "TestCeilings::test_unsplit_where_no_child_takes_a_half"
API_TESTS = "tests/test_api.py::"
SNAPSHOT = "tests/test_snapshot.py::test_cli_output_bytes"

MUTANTS = (
    # the step proof's anchor: without it the step rule started at p(1) = 2 passes
    (
        VERIFY,
        "return p[1] == 1 and steps ==",
        "return steps ==",
        (PROOFS + "test_step_proof_needs_p1_equal_to_1",),
    ),
    # the q fact: without it q is never read
    (
        VERIFY,
        "steps == marks[1:].translate(_STEP_AFTER) and _offsets(p, q)",
        "steps == marks[1:].translate(_STEP_AFTER)",
        (
            PROOFS + "test_step_proof_reads_q_at_n_max",
            PROOFS + "test_a_true_proof_leaves_the_reference_nothing",
        ),
    ),
    # the coverage check: islice and map quietly stop at a short list's end,
    # so a proof passes where the reference rule reads outside the table
    (
        VERIFY,
        "        if covers < n_max:\n",
        "        if False:\n",
        (
            TESTS + "TestTruncatedTable",
            PROOFS + "test_a_true_proof_leaves_the_reference_nothing",
        ),
    ),
    # the marks miss top itself, so a genuine table is refused.  Not listed:
    # marking from p[1..top - 1] only is an equivalent mutant, as p(k) >= k
    # lets p(top) mark a value up to top only when top = 1, and there the
    # refused proof leaves the reference rules to give the same reports.
    (
        VERIFY,
        "        if 0 < value <= top:\n            marks[value] = 1\n    steps",
        "        if 0 < value < top:\n            marks[value] = 1\n    steps",
        (TESTS + "TestSharedPasses::test_no_bisect_on_a_genuine_table",),
    ),
    # one step short: the proof never holds, so the reference rules run
    (
        VERIFY,
        "islice(p, 2, top + 2)",
        "islice(p, 2, top + 1)",
        (PROOFS + "test_no_reference_scan_on_a_genuine_table",),
    ),
    # the last step, p(n_max) - p(n_max - 1), unchecked: only a paired p/q
    # shift at n_max keeps every other fact true
    (
        VERIFY,
        "return p[1] == 1 and steps == marks[1:].translate(_STEP_AFTER)",
        "return p[1] == 1 and steps[:-1] == marks[1:-1].translate(_STEP_AFTER)",
        (
            PROOFS + "test_paired_shifts_leave_the_compositions_nothing",
            TESTS + "TestCorruptedTable::test_every_paired_shift_and_adjacent_swap_at_200",
        ),
    ),
    # L2 taken as proved wherever q(n) - p(n) = n: every single-entry
    # corruption breaks that and still meets the partition check, but a
    # paired shift or an adjacent swap keeps it and passes
    (
        VERIFY,
        "hi=lambda t, m: t.p[m], scan=_partition,",
        "hi=lambda t, m: t.p[m], scan=_partition,\n"
        "        proof=lambda p, q, m: _step_proof(p, q, m) or _offsets(p, q),",
        (TESTS + "TestCorruptedTable::test_every_paired_shift_and_adjacent_swap_at_200",),
    ),
    # a memo that settles every identity unseen
    (
        VERIFY,
        "        if shared[proof]:\n",
        "        if True:\n",
        (TESTS + "TestFaultInjection",),
    ),
    # the one cap moved: a report keeps eleven counterexamples
    (
        VERIFY,
        "islice(ces, MAX_COUNTEREXAMPLES)",
        "islice(ces, MAX_COUNTEREXAMPLES + 1)",
        (TESTS + "TestFaultInjection::test_counterexamples_capped",),
    ),
    # _at lets index 0 through: a composed lookup at p(n) = 0 or q(n) = 0
    # reads the unused slot 0 instead of naming an index outside the table
    (
        VERIFY,
        "    if i < 1:\n        raise IndexError(i)",
        "    if i < 0:\n        raise IndexError(i)",
        (SWEEP,),
    ),
    # the default range one longer: each rule that reads n + 1 also runs at
    # n_max, so every report's hi moves
    (
        VERIFY,
        "hi=lambda t, m: m - 1,",
        "hi=lambda t, m: m,",
        (
            SWEEP,
            SNAPSHOT + "[verify --all --n-max 2000 --game-cap 60 --prime-n-max 500 --format json]",
            SNAPSHOT + "[verify --all --n-max 300 --game-cap 40 --prime-n-max 30 --format json]",
        ),
    ),
    # the gap proof as the default: it reads only p, so a corrupted q passes
    # every identity that leaves its reference rule to the default proof
    (
        VERIFY,
        "proof=_step_proof,",
        "proof=_gap_proof,",
        (SWEEP,),
    ),
    # the shared checker off the proof path: every table identity, L2's
    # scan among them, scans a genuine table despite a true proof
    (
        VERIFY,
        "        if shared[proof]:\n            return 1, top, ()\n",
        "",
        (PROOFS + "test_no_reference_scan_on_a_genuine_table",),
    ),
    # the gap proof's streams one entry short: map stops at the shorter, so
    # p(n_max) goes unchecked
    (
        VERIFY,
        "accumulate(repeat(t, n_max))",
        "accumulate(repeat(t, n_max - 1))",
        (PROOFS + "test_forced_fallback_gives_the_same_reports",),
    ),
    # the gap proof's scale: s is then no floor(phi * 2**k), and a genuine
    # table is refused.  Not listed: dropping the s + 1 stream is an
    # equivalent mutant below 2**31, as frac(n*phi) stays far above
    # n / 2**k there, so floor(n*s / 2**k) is floor(n*phi) on every n.
    (
        VERIFY,
        "isqrt(5 << 2 * k)",
        "isqrt(5 << k)",
        (PROOFS + "test_no_reference_scan_on_a_genuine_table[L-E]",),
    ),
    # the engine identities gone vacuous: each must name a planted fault
    (
        VERIFY,
        "    return 0, cap, ces\n",
        "    return 0, cap, []\n",
        (ENGINES + "test_game_equiv_names_each_difference",),
    ),
    (
        VERIFY,
        "    return 3, prime_n_max, ces\n",
        "    return 3, prime_n_max, []\n",
        (ENGINES + "test_prime_claim_names_a_wrong_composite",),
    ),
    # the kernel's memo keeps the lower bracket, not the decided answer
    (
        SEQUENCES,
        "_last = n, floor\n",
        "_last = n, prod >> k\n",
        (SEQUENCE_TESTS + "TestLastAnswerMemo::test_repeated_consecutive_fibonacci_n",),
    ),
    # the bracket trusted where it cannot decide, as at Fibonacci n
    (
        SEQUENCES,
        "    if floor != (prod + n) >> k:\n",
        "    if False:\n",
        (SEQUENCE_TESTS + "TestClosedForm::test_fibonacci_n_match_the_bracket",),
    ),
    # the cached precision no longer doubles
    (
        SEQUENCES,
        "top = max(k, 2 * top)",
        "top = k",
        (SEQUENCE_TESTS + "TestClosedForm::test_precision_grows_by_doubling",),
    ),
    # the recursion marks the wrong cell.  Not listed: its while skip as an
    # if is an equivalent mutant, as lower_values' docstring shows the
    # cursor skips at most one mark per step; the while stays so the
    # recursion never leans on a theorem about its own output.
    (
        SEQUENCES,
        "used[cursor + n] = 1",
        "used[cursor + n + 1] = 1",
        (SEQUENCE_TESTS + "TestBuildRecursive::test_first_ten_pairs",),
    ),
    # the solver ignores the difference line
    (
        GAME,
        "if diag[d] > a and partner[b] > a and partner[a] > b:",
        "if partner[b] > a and partner[a] > b:",
        (GAME_TESTS + "TestRetrogradeSolver::test_matches_naive_solver",),
    ),
    # the solver's take-from-B witness aims one short.  Not listed: deleting
    # classify's take-from-A branch is an equivalent mutant, as best_move's
    # docstring shows take-from-both always wins before take-from-A.
    (
        GAME,
        "move = Move(MoveKind.TAKE_B, b - partner[a])",
        "move = Move(MoveKind.TAKE_B, b - partner[a] - 1)",
        (GAME_TESTS + "TestRetrogradeSolver::test_witnesses_reach_losing_states",),
    ),
    # the partner search counts the lower values up to v - 1, not v
    (
        GAME,
        "i = beatty_p(v + 1) - (v + 1)",
        "i = beatty_p(v) - v",
        (GAME_TESTS + "TestPairPartner::test_matches_recursion",),
    ),
    # canonicalization keeps the argument order, so (7, 3) is refused
    (
        GAME,
        "return cls(x, y) if x <= y else cls(y, x)",
        "return cls(x, y) if x <= y else cls(x, y)",
        (GAME_TESTS + "TestStateAndMoves::test_canonicalization",),
    ),
    # best_move returns the take-from-B move without re-checking its target
    (
        GAME,
        "    if other < b and (_losing(a, other) if a <= other else _losing(other, a)):",
        "    if other < b:",
        (
            GAME_TESTS + "TestBestMove::test_take_b_recheck_refuses_a_wrong_partner",
            GAME_TESTS + "TestBestMove::test_take_b_makes_four_kernel_calls",
        ),
    ),
    # the re-check reads a partner below the smaller pile in the wrong order
    (
        GAME,
        "else _losing(other, a)):",
        "else _losing(a, other)):",
        (GAME_TESTS + "TestBestMove::test_take_b_makes_four_kernel_calls[2-5]",),
    ),
    # 1 counted as a composite
    (
        PRIMES,
        "is_composite[0] = is_composite[1] = 0",
        "is_composite[0] = 0",
        (PRIME_TESTS + "TestBuildPrimeGap::test_limit_ten",),
    ),
    # the sieve stops below isqrt(limit), so 9 stays prime at limit 10.
    # Not listed, as equivalent: sieve_limit_for without its + 1, since the
    # bound is strict and its ceiling already lies above p_n; and a floor
    # of 11 for counts below 6, since 11 already holds the first five primes.
    (
        PRIMES,
        "for i in range(2, isqrt(limit) + 1):",
        "for i in range(2, isqrt(limit)):",
        (PRIME_TESTS + "TestBuildPrimeGap::test_limit_ten",),
    ),
    # the sieve's values back at 8 bytes each
    (
        PRIMES,
        'composites = array("i",',
        'composites = array("q",',
        (PRIME_TESTS + "TestBuildPrimeGap::test_values_take_four_bytes",),
    ),
    # a pile of 4,301 digits reaches click's int(), which echoes all of it
    (
        CLI,
        "len(value) > 4300",
        "len(value) > 4301",
        (CLI_TESTS + "TestClassify::test_over_long_pile_refused_in_one_short_line",),
    ),
    # a capacity limit exits 2, not 3
    (
        CLI,
        "sys.exit(3 if isinstance(exc, CapacityError) else 2)",
        "sys.exit(2)",
        (CLI_TESTS + "TestCeilings::test_table_ceiling_exits_three",),
    ),
    # a failing prime claim prints Python's False, or exits 0
    (
        CLI,
        'else "false"',
        'else "False"',
        (CLI_TESTS + "TestPrimes::test_failing_claim_exits_one",),
    ),
    (
        CLI,
        "    if counts[holds(False)]:\n        sys.exit(1)\n",
        "",
        (CLI_TESTS + "TestPrimes::test_failing_claim_exits_one",),
    ),
    # primes' rows materialised again, beside the sieve
    (
        CLI,
        "        return map(row, span)\n",
        "        return list(map(row, span))\n",
        (
            CLI_TESTS + "TestStreaming::test_primes_holds_only_its_sieve[csv]",
            CLI_TESTS + "TestStreaming::test_primes_holds_only_its_sieve[table]",
            CLI_TESTS + "TestStreamingInline::test_primes_holds_only_its_sieve[csv]",
            CLI_TESTS + "TestStreamingInline::test_primes_holds_only_its_sieve[table]",
        ),
    ),
    # the eager check at n_max alone: an undersized sieve names n_max, not
    # the first n it cannot serve
    (
        CLI,
        "check_prime_claim(table, min(n_max, len(table.primes) + 1))",
        "check_prime_claim(table, n_max)",
        (CLI_TESTS + "TestPrimes::test_undersized_sieve_errors",),
    ),
    # no eager check: the rows fail mid-stream, after the --out file exists
    (
        CLI,
        "    check_prime_claim(table, min(n_max, len(table.primes) + 1))\n",
        "",
        (CLI_TESTS + "TestPrimes::test_undersized_sieve_writes_nothing",),
    ),
    # table widths from the headers alone: wider cells break the columns.
    # The small tables of TestPrimes and TestErrorTerm fit their headers,
    # so only the pinned digests see it
    (
        CLI,
        "        widths = list(map(max, widths, map(len, map(str, row))))\n",
        "        pass\n",
        (
            SNAPSHOT + "[gen --n-max 2000 --method both --format table]",
            SNAPSHOT + "[error-term --n-max 2000 --format table]",
            SNAPSHOT + "[primes --n-max 500 --format table]",
        ),
    ),
    # the output opened before the first line is pulled: the recursion's
    # ceiling check, on its first next(), fails after an --out file exists
    (
        CLI,
        '    first = next(lines, "")\n',
        '    held = open(out, "w") if out else None\n    first = next(lines, "")\n',
        (CLI_TESTS + "TestCeilings::test_table_ceiling_exits_three",),
    ),
    # the unsplit path collects its lines before it writes them: only an
    # export written whole by one process takes that path at scale
    (
        CLI,
        "_stream(out, fmt, head, map(line, rows(lower)), report)",
        "_stream(out, fmt, head, iter(list(map(line, rows(lower)))), report)",
        (
            CLI_TESTS + "TestStreamingInline::test_recursion_streams_without_a_table",
            CLI_TESTS + "TestStreamingInline::test_beatty_runs_in_constant_memory",
        ),
    ),
    # the recursion read from a pair table: ~85 bytes a pair held, not ~3
    (
        CLI,
        "    return islice(lower_values(n_max), span.start - 1, span.stop - 1)",
        "    return iter(sequences.build_recursive(n_max).p[span.start : span.stop])",
        (
            CLI_TESTS + "TestStreaming::test_recursion_streams_without_a_table",
            CLI_TESTS + "TestStreaming::test_table_holds_no_rows",
            CLI_TESTS + "TestStreamingInline::test_recursion_streams_without_a_table",
            CLI_TESTS + "TestStreamingInline::test_table_holds_no_rows",
        ),
    ),
    # a table's width pass collects its rows before it measures them
    (
        CLI,
        "    for row in produced:\n        widths",
        "    for row in list(produced):\n        widths",
        (
            CLI_TESTS + "TestStreaming::test_table_holds_no_rows",
            CLI_TESTS + "TestStreamingInline::test_table_holds_no_rows",
        ),
    ),
    # a table's write pass collects each half's rows before it writes them
    (
        CLI,
        "            widths = list(map(max, _widths(headers, rows(lower)), upper_widths()))\n",
        "            widths = list(map(max, _widths(headers, rows(lower)), upper_widths()))\n"
        "        rows = (lambda produce: lambda span: list(produce(span)))(rows)\n",
        (
            CLI_TESTS + "TestStreaming::test_table_holds_no_rows",
            CLI_TESTS + "TestStreamingInline::test_table_holds_no_rows",
        ),
    ),
    # the width pass's recursion marks, ~3 bytes a row, kept through the
    # write pass: at 10,000 rows an unforked table's 1.25x bound misses them
    (
        CLI,
        "            widths = list(map(max, _widths(headers, rows(lower)), upper_widths()))\n",
        "            widths = list(map(max, _widths(headers, rows(lower)), upper_widths()))\n"
        "            held = bytearray(3 * len(span))\n",
        (
            CLI_TESTS + "TestStreaming::test_table_holds_no_rows",
            CLI_TESTS + "TestStreamingInline::test_table_holds_no_rows",
        ),
    ),
    # the forked child collects its half's lines before it writes them: only
    # a peak that counts the child's memory sees it
    (
        CLI,
        "        spill.writelines(map(line, rows(upper)))\n",
        "        spill.writelines(list(map(line, rows(upper))))\n",
        (CLI_TESTS + "test_forked_child_holds_no_rows",),
    ),
    # the forked child's half starts one row early, repeating a row, or one
    # row late, dropping one
    (
        CLI,
        "lower, upper = span[:cut], span[cut:]",
        "lower, upper = span[:cut], span[cut - 1 :]",
        (
            SNAPSHOT + "[gen --n-max 2 --method both --format csv]",
            SNAPSHOT + "[error-term --n-max 2000 --format table]",
        ),
    ),
    (
        CLI,
        "lower, upper = span[:cut], span[cut:]",
        "lower, upper = span[:cut], span[cut + 1 :]",
        (
            SNAPSHOT + "[gen --n-max 3 --method both --format csv]",
            SNAPSHOT + "[primes --n-max 500 --format table]",
            CLI_TESTS + "TestGen::test_csv_exact_bytes",
        ),
    ),
    # an export past the table bound split all the same, its upper half
    # spilled to a temporary file with no limit on its size
    (
        CLI,
        '    split = hasattr(os, "fork") and len(span) <= sequences._TABLE_CAP',
        '    split = hasattr(os, "fork")',
        (UNSPLIT + "[past-the-bound-csv]",),
    ),
    # an export split without os.fork: its upper half written inline to a
    # temporary file, then copied back, for no parallelism
    (
        CLI,
        '    split = hasattr(os, "fork") and len(span) <= sequences._TABLE_CAP',
        "    split = len(span) <= sequences._TABLE_CAP",
        (UNSPLIT + "[without-fork-csv]",),
    ),
    # an empty upper half forks all the same: for a table's widths, and for
    # its rows into a temporary file
    (
        CLI,
        "    halves = _in_child if upper else nullcontext",
        "    halves = _in_child",
        (UNSPLIT + "[past-the-bound-table]",),
    ),
    (
        CLI,
        "    if not upper:\n        _stream(",
        "    if False:\n        _stream(",
        (UNSPLIT + "[past-the-bound-csv]", UNSPLIT + "[without-fork-json]"),
    ),
    # the child's counts dropped: the histogram and the prime claim's
    # verdict see the lower half alone
    (
        CLI,
        "        counts.update(upper_counts())\n",
        "        upper_counts()\n",
        (
            CLI_TESTS + "TestErrorTerm::test_small_scan",
            CLI_TESTS + "TestPrimes::test_failing_claim_exits_one",
        ),
    ),
    # the rows no longer counted: the histogram is empty and a failing prime
    # claim exits 0
    (
        CLI,
        "            counts[row[-1]] += 1\n",
        "",
        (
            CLI_TESTS + "TestErrorTerm::test_small_scan",
            CLI_TESTS + "TestPrimes::test_failing_claim_exits_one",
        ),
    ),
    # verify's summary line dropped, after the table and from stderr
    (
        CLI,
        "    _stream(out, fmt, head, lines, lambda: summary)",
        "    _stream(out, fmt, head, lines)",
        (
            CLI_TESTS + "TestVerify::test_summary_after_the_rows_or_on_stderr[table]",
            CLI_TESTS + "TestVerify::test_summary_after_the_rows_or_on_stderr[csv]",
        ),
    ),
    # json's first row keeps its lead comma: "rows": [, is no json
    (
        CLI,
        '(first[1:] if fmt == "json" else first)',
        "first",
        (
            CLI_TESTS + "TestJsonLayout::test_matches_json_dump",
            SNAPSHOT + "[primes --n-max 4 --format json]",
        ),
    ),
    # stdout left write-through: under PYTHONUNBUFFERED=1 each row is a syscall
    (
        CLI,
        "        sys.stdout.reconfigure(write_through=False)\n",
        "        pass\n",
        (CLI_TESTS + "TestOutputFailures::test_unbuffered_stdout_gets_few_writes",),
    ),
    # the child's file not flushed: os._exit drops its last buffered lines
    (
        CLI,
        "        spill.flush()",
        "        pass",
        (
            SNAPSHOT + "[gen --n-max 2000 --method both --format csv]",
            SNAPSHOT + "[primes --n-max 4 --format json]",
        ),
    ),
    # an interrupt exits 1 with click's "Aborted!", as a failed verification does
    (
        CLI,
        '        except KeyboardInterrupt:  # click would print "Aborted!" and exit 1\n'
        "            sys.exit(130)\n",
        "",
        (
            CLI_TESTS + "TestOutputFailures::test_interrupt_exits_130_quietly",
            CLI_TESTS + "TestOutputFailures::test_sigint_exits_130_and_stops_the_child",
            CLI_TESTS + "TestOutputFailures::test_signal_on_an_out_export_leaves_a_prefix[sigint]",
            CLI_TESTS + "TestOutputFailures::test_signal_on_the_inline_path[sigint]",
            CLI_TESTS + "TestOutputFailures::test_signal_while_the_verify_child_solves[sigint]",
        ),
    ),
    # no SIGTERM handler: the parent dies without unwinding, and its forked
    # child, reparented, writes on into TMPDIR
    (
        CLI,
        "signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))",
        "signal.getsignal(signal.SIGTERM)",
        (
            CLI_TESTS + "TestOutputFailures::test_sigterm_exits_143_and_stops_the_child",
            CLI_TESTS + "TestOutputFailures::test_signal_on_an_out_export_leaves_a_prefix[sigterm]",
            CLI_TESTS + "TestOutputFailures::test_signal_on_the_inline_path[sigterm]",
            CLI_TESTS + "TestOutputFailures::test_signal_while_the_verify_child_solves[sigterm]",
        ),
    ),
    # a handler set from any thread: outside the main one, signal.signal
    # raises ValueError and the command fails
    (
        CLI,
        "        own = threading.current_thread() is threading.main_thread()\n",
        "        own = True\n",
        (CLI_TESTS + "TestOutputFailures::test_runs_outside_the_main_thread",),
    ),
    # the handler left in place after main returns, in a caller's process
    (
        CLI,
        "                signal.signal(signal.SIGTERM, previous)\n",
        "                pass\n",
        (CLI_TESTS + "TestOutputFailures::test_sigterm_handler_is_restored",),
    ),
    # a closed stdout exits 1, not 141
    (
        CLI,
        "sys.exit(141)",
        "sys.exit(1)",
        (CLI_TESTS + "TestOutputFailures::test_closed_pipe_exits_141_quietly",),
    ),
    # an empty --out passes as the folder "."
    (
        CLI,
        '    if out == "":\n',
        "    if False:\n",
        (CLI_TESTS + "TestOutputFailures::test_empty_out_exits_two_before_any_work",),
    ),
    # a failing parent waits for its forked child instead of stopping it: a
    # closed stdout leaves the child writing its 5 x 10^6 rows to a file
    (
        FORK,
        "        os.kill(pid, signal.SIGKILL)",
        "        pass",
        (
            CLI_TESTS + "TestOutputFailures::test_closed_pipe_exits_141_quietly",
            CLI_TESTS + "TestOutputFailures::test_closed_pipe_stops_a_stalled_child",
        ),
    ),
    # the signals not blocked across the fork: one that lands as os.fork
    # returns in the parent, before the guard, leaves the child unreaped
    (
        FORK,
        "signal.SIG_BLOCK",
        "signal.SIG_UNBLOCK",
        (
            CLI_TESTS + "TestOutputFailures::test_signal_as_the_fork_returns[sigint]",
            CLI_TESTS + "TestOutputFailures::test_signal_as_the_fork_returns[sigterm]",
        ),
    ),
    # a failed fork leaves SIGINT and SIGTERM blocked in its caller
    (
        FORK,
        "    except OSError:\n        signal.pthread_sigmask(signal.SIG_SETMASK, mask)\n",
        "    except OSError:\n",
        (
            CLI_TESTS
            + "TestOutputFailures::test_failed_fork_exits_two_and_restores_the_signal_mask",
        ),
    ),
    # a failed fork leaves both ends of its pipe open, two descriptors a call
    (
        FORK,
        "        os.close(read_fd)\n        os.close(write_fd)\n        raise\n",
        "        raise\n",
        (
            CLI_TESTS
            + "TestOutputFailures::test_failed_fork_exits_two_and_restores_the_signal_mask",
        ),
    ),
    # a child that ends without a result raises an error the CLI does not
    # map: a traceback and exit 1, the code of a failed verification
    (
        FORK,
        'raise ChildProcessError("the forked child ended without a result")',
        'raise RuntimeError("the forked child ended without a result")',
        (
            CLI_TESTS + "TestOutputFailures::test_killed_child_exits_two[gen]",
            CLI_TESTS + "TestOutputFailures::test_killed_child_exits_two[verify]",
        ),
    ),
    # verify_all forks where os.fork is missing, and fails there
    (
        VERIFY,
        '    engines = _in_child if hasattr(os, "fork") else nullcontext',
        "    engines = _in_child",
        (TESTS + "TestForkedEngines::test_inline_run_gives_the_same_reports",),
    ),
    # the summary printed before the rows are flushed: a write that then
    # fails follows a line that claims success
    (
        CLI,
        "            stream.flush()  # a write that fails leaves no summary claiming success\n",
        "",
        (CLI_TESTS + "TestOutputFailures::test_full_stdout_prints_no_summary",),
    ),
    # an eager registry import: the game API and the CLI compile verify.py
    # again, and the game API loads the sieve with it
    (
        INIT,
        "from importlib import import_module\n",
        "from importlib import import_module\n\nfrom .verify import REGISTRY\n",
        (API_TESTS + "test_import_loads_only_what_it_runs[game]",),
    ),
    (
        CLI,
        "from ._fork import _in_child\n",
        "from ._fork import _in_child\nfrom .verify import REGISTRY\n",
        (API_TESTS + "test_import_loads_only_what_it_runs[cli]",),
    ),
    # --out is no longer checked before the work.  Not listed: dropping
    # os.access(folder, os.W_OK) from _writable_dir, which only a non-root
    # run of TestOutputFailures::test_read_only_out_directory_exits_two_before_any_work
    # kills, since root may write to any directory and the test skips there.
    (
        CLI,
        "    if out is not None:\n        folder",
        "    if False:\n        folder",
        (CLI_TESTS + "TestOutputFailures::test_missing_out_directory_exits_two_before_any_work",),
    ),
)


def _pytest(tree: Path, nodes) -> int:
    """pytest's exit code for the nodes, with the package imported from tree."""
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *nodes],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    ).returncode


def _copy(tree: Path, mutant=None) -> None:
    """A fresh copy of src/ under tree, with the mutant applied if given."""
    shutil.rmtree(tree / "src", ignore_errors=True)
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        file, old, new = mutant
        text = (tree / file).read_text()
        if text.count(old) != 1:
            raise LookupError(f"{file}: old text occurs {text.count(old)} times: {old!r}")
        (tree / file).write_text(text.replace(old, new))


def main() -> int:
    start = time.perf_counter()
    failures, survivors = [], set()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy(tree)
        nodes = sorted({node for *_, killers in MUTANTS for node in killers})
        if _pytest(tree, nodes) != 0:
            print("the killing nodes fail on the unmutated tree")
            return 1
        runs = 1
        seconds = time.perf_counter() - start
        print(f"{len(nodes)} killing nodes pass unmutated in {seconds:.1f} s", flush=True)
        for number, (file, old, new, killers) in enumerate(MUTANTS, 1):
            begun = time.perf_counter()
            try:
                _copy(tree, (file, old, new))
            except LookupError as exc:
                failures.append(f"mutant {number}: {exc}")
                survivors.add(number)
                continue
            for node in killers:
                code = _pytest(tree, [node])
                runs += 1
                # 1 is a test failure; 0 a survivor; anything else an error
                if code != 1:
                    verdict = "survives" if code == 0 else f"errors (pytest exit {code})"
                    failures.append(f"mutant {number} {verdict} in {node}")
                    survivors.add(number)
            seconds = time.perf_counter() - begun
            print(f"mutant {number}: {len(killers)} run(s) in {seconds:.1f} s", flush=True)
    for line in failures:
        print(line)
    elapsed = time.perf_counter() - start
    killed = len(MUTANTS) - len(survivors)
    print(f"{killed} of {len(MUTANTS)} mutants killed in {elapsed:.0f} s, {runs} pytest runs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
