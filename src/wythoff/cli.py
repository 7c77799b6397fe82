"""Command-line front end.

Subcommands cover sequence generation, the identity suite, state
classification, winning-move queries, closed-form error scans, and the
prime analogue.  Machine formats (csv, json) are bit-stable: fixed
field order, integers only, no timings; summaries and diagnostics go to
stderr so the data stream stays parseable.

Each command imports the engines it runs when it runs: ``verify`` the
identity registry, ``classify`` and ``best-move`` the game, ``primes``
the sieve.  So ``gen``, ``error-term`` and ``--help`` load only the
sequences and the fork helper, and never compile the registry.

Every format streams: rows go from their producer to the writer one at
a time.  ``gen --method recursive``/``both`` and ``error-term`` stream
the mex recursion itself, never a pair table, so they hold only its
occupancy marks, ~3 bytes per pair (20.4 MiB peak RSS for a 10^6-row
csv, where a pair table would take 96.3 MiB), and ``gen --method
beatty`` runs in constant memory, and ``primes`` holds only its sieve.
``--format table`` runs its producer twice, once to measure the column
widths and once to write.

Where ``os.fork`` exists, an export of 2 rows up to the table bound is
written on two cores: a forked child writes the upper half of the index
range to an unnamed temporary file while the parent writes the lower
half, then copies the file in.  The file takes as much TMPDIR space as
that half's bytes, at most the upper half of a 10^7-row export, RAM
where TMPDIR is a tmpfs, which no process's RSS shows.  Each process
holds what one writer would, plus the ``pickle`` import that brings the
child's result back.  Every other export, without ``os.fork`` or past
the bound (only ``gen --method beatty`` runs one), one process writes
whole, with no temporary file.

The rows of ``gen``, ``error-term`` and ``primes`` and the reports of
``verify`` take one path: ``_form`` gives a format's head and row line,
and ``_stream`` writes them to ``--out`` or stdout, then the summary, and
takes stdout off write-through, as ``PYTHONUNBUFFERED=1`` sets it.

Every command checks what can fail before it opens stdout or ``--out``,
so a failing command writes nothing.  Only an I/O error while writing,
a full TMPDIR among them, or an interrupt can leave partial output.

Exit codes: 0 success, 1 a verification failed or the queried position
is losing, 2 argument and I/O errors (an empty ``--out``, or one whose
directory is missing or not writable, is refused before any work), 3
capacity limits (brute-force cap, sieve, table and solver ceilings), 130
interrupted by SIGINT (Ctrl-C), 141 stdout closed by its reader, 143
terminated by SIGTERM, each as a shell reports a command killed by that
signal.  An interrupted or terminated command stops its forked child
before it exits; a SIGKILLed one cannot.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
from collections import Counter
from contextlib import nullcontext
from itertools import chain, islice
from tempfile import TemporaryFile

import click

from . import sequences
from ._fork import _in_child
from .errors import CapacityError, WythoffError
from .sequences import beatty_p, lower_values

_FORMATS = click.Choice(["table", "csv", "json"])

# Encodes one json row; _form's json line indents it to its depth in the payload.
_JSON_ROW = json.JSONEncoder(indent=2)


class _EngineErrors(click.Group):
    """Maps exceptions to the exit-code contract (2 usage or I/O, 3 capacity, 130, 141, 143).

    While a command runs in the main thread, SIGTERM raises SystemExit(143),
    so it unwinds as a failure does and _in_child stops a forked child.
    """

    def invoke(self, ctx):
        # only the main thread may set a handler; elsewhere SIGTERM keeps its own
        own = threading.current_thread() is threading.main_thread()
        if own:
            previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
        try:
            try:
                return super().invoke(ctx)
            finally:
                sys.stdout.flush()  # a closed pipe raises here, not at exit
        except BrokenPipeError:
            # the interpreter flushes stdout once more on exit; send that nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(141)
        except KeyboardInterrupt:  # click would print "Aborted!" and exit 1
            sys.exit(130)
        except (WythoffError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3 if isinstance(exc, CapacityError) else 2)
        finally:
            if own:
                signal.signal(signal.SIGTERM, previous)


def _writable_dir(ctx, param, out):
    """Refuse an --out whose directory cannot take the file, before any work.

    click.Path checks only a file that already exists, and takes an empty
    path, whose folder would read as ".".  The file itself is still opened
    where the command writes (see _stream).
    """
    if out == "":
        raise OSError("--out: the path is empty")
    if out is not None:
        folder = os.path.dirname(out) or "."
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise OSError(f"--out {out}: {folder} is not a writable directory")
    return out


class _Pile(click.IntRange):
    """A pile size: an integer >= 0 of at most 4,300 digits, CPython's
    default limit on converting a string to an int.

    click's own refusal of a longer value would echo all of it, so that is
    refused by its length alone, in one short line.
    """

    def convert(self, value, param, ctx):
        if isinstance(value, str) and len(value) > 4300:
            message = f"a {len(value):,}-character value exceeds the 4,300-digit limit"
            self.fail(message, param, ctx)
        return super().convert(value, param, ctx)


_PILE = _Pile(min=0)

_OUT = click.option(
    "--out",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    callback=_writable_dir,
)


def _token(flag: bool) -> str:
    """A csv or table bool: true / false, where %s would print Python's True."""
    return "true" if flag else "false"


def _form(fmt, command, arguments, headers, widths=None):
    """A format's head and the function that turns one row tuple into its line.

    csv fields are ints, registry ids and the true / false tokens (a bool
    must already be a _token), none of which holds a comma, quote or
    newline, so no field ever needs csv quoting.  A table's line is set to
    the column widths.  json's head is its meta and the opening of "rows";
    each row is indented to its depth and led by the comma after the row
    before it, which _write drops from the first.
    """
    if fmt == "json":
        head = json.dumps({"meta": {"command": command, "arguments": arguments}}, indent=2)

        def line(row):
            return ",\n    " + _JSON_ROW.encode(dict(zip(headers, row))).replace("\n", "\n    ")

        return head[: -len("\n}")] + ',\n  "rows": [', line
    if fmt == "table":
        form = "  ".join(f"%{w}s" for w in widths) + "\n"
    else:
        form = ",".join(["%s"] * len(headers)) + "\n"
    return form % tuple(headers), form.__mod__


def _write(stream, fmt, head, lines) -> None:
    """Write head, then the text of lines; json drops its first lead comma and closes.

    The bytes are those of the whole file at once, as json.dump(payload,
    indent=2) would write a json one.
    """
    first = next(lines, "")
    stream.write(head + (first[1:] if fmt == "json" else first))
    stream.writelines(lines)
    if fmt == "json":
        stream.write("\n  ]\n}\n" if first else "]\n}\n")


def _stream(out, fmt, head, lines, summary=None) -> None:
    """Write head and lines through _write to the --out file if given, else
    stdout, then the summary() line: after the rows for a table, else on stderr."""
    if out is None and hasattr(sys.stdout, "reconfigure"):
        # PYTHONUNBUFFERED=1 sets write-through: one write syscall per row
        sys.stdout.reconfigure(write_through=False)
    output = open(out, "w", encoding="utf-8", newline="") if out else nullcontext(sys.stdout)
    with output as stream:
        _write(stream, fmt, head, lines)
        if summary is not None:
            print(summary(), file=stream if fmt == "table" else sys.stderr)


def _widths(headers, produced) -> list[int]:
    """The width of each table column: its widest str() over the headers and the rows."""
    widths = list(map(len, headers))
    for row in produced:
        widths = list(map(max, widths, map(len, map(str, row))))
    return widths


def _recursion(n_max: int, span: range):
    """p(n) for n in span, a part of 1..n_max: lower_values(n_max), whose
    ceiling check on the call every half shares, skipped to span."""
    return islice(lower_values(n_max), span.start - 1, span.stop - 1)


def _emit(out, fmt, command, arguments, headers, rows, span, summary=None) -> Counter:
    """Write the row tuples of rows(span) to --out or stdout, then summary(counts).

    Where os.fork exists and span has 2 rows up to the table bound, a
    child forked through _in_child writes the upper half of span to an
    unnamed temporary file, opened before the fork, while this process
    writes the lower half to the output, then copies the file in after it
    in 16 KiB chunks (a 64 KiB text chunk held four times that in
    passing).  The fork comes before either process calls rows(), so no
    producer's state is copied.  A child's error, such as a full TMPDIR,
    is raised here once the lower half is out.  Every other span, without
    os.fork, of one row, or past the bound (only gen --method beatty gets
    there), this process writes whole, with no fork and no file.  So the
    file holds at most the upper half of a 10^7-row export: 230 MB for a
    gen --method both csv, 760 MB for its json.

    rows(lower) is called before the output opens, so a producer that
    checks its ceiling on the call fails before any --out file exists.  A
    table measures its column widths first, each half in its own process,
    with producers that end before the writing ones start.  With a
    summary, the line function counts each row by its last field.  The
    child forks before this process counts a row, so the counts it returns
    hold its half alone; spliced() adds them in, and the sum goes to
    summary() and is returned.
    """
    # a split pays only where a child forks; past the table bound, where only
    # gen --method beatty runs, its file would spill without limit into TMPDIR
    split = hasattr(os, "fork") and len(span) <= sequences._TABLE_CAP
    cut = (len(span) + 1) // 2 if split else len(span)
    lower, upper = span[:cut], span[cut:]
    halves = _in_child if upper else nullcontext  # nullcontext(work) yields work itself
    widths = None
    if fmt == "table":
        with halves(lambda: _widths(headers, rows(upper))) as upper_widths:
            widths = list(map(max, _widths(headers, rows(lower)), upper_widths()))
    head, line = _form(fmt, command, arguments, headers, widths)
    counts: Counter = Counter()
    if summary is not None:
        form = line

        def line(row):
            counts[row[-1]] += 1
            return form(row)

    def write(lines):
        _stream(out, fmt, head, lines, summary and (lambda: summary(counts)))

    if not upper:
        write(map(line, rows(lower)))
        return counts

    def write_upper():
        spill.writelines(map(line, rows(upper)))
        spill.flush()  # a forked child leaves by os._exit, which flushes nothing
        return counts  # the child's own copy, forked empty: its half alone

    def spliced(upper_counts):
        counts.update(upper_counts())
        spill.seek(0)
        yield from iter(lambda: spill.read(1 << 14), "")

    with TemporaryFile("w+", encoding="utf-8", newline="") as spill:
        with _in_child(write_upper) as upper_counts:
            # the chain lets go of the lower half's producer once it ends
            write(chain(map(line, rows(lower)), spliced(upper_counts)))
    return counts


def _describe_move(move, x: int, y: int) -> str:
    """Render a move against the user's original pile order."""
    from .game import MoveKind

    if move.kind is MoveKind.TAKE_BOTH:
        return f"take {move.amount} from both"
    smaller_is_first = x <= y
    from_first = (move.kind is MoveKind.TAKE_A) == smaller_is_first
    pile = "first" if from_first else "second"
    return f"take {move.amount} from the {pile} pile"


@click.group(cls=_EngineErrors)
def main():
    """Complementary golden-ratio sequences, the take-away game they
    solve, and a prime analogue, with a machine-checked identity suite."""


@main.command()
@click.option("--n-max", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option(
    "--method",
    type=click.Choice(["recursive", "beatty", "both"]),
    default="recursive",
    show_default=True,
)
@click.option("--format", "fmt", type=_FORMATS, default="table", show_default=True)
@_OUT
def gen(n_max, method, fmt, out):
    """Emit the first N sequence pairs (recursion, closed form, or both)."""
    arguments = {"n_max": n_max, "method": method, "format": fmt}
    # the recursion defines q(n) = p(n) + n, and floor(n*phi^2) = floor(n*phi) + n
    # a producer calls lower_values as it is called, so the ceiling fails before any output
    if method == "both":
        headers = ["n", "p_rec", "q_rec", "p_beatty", "q_beatty", "e"]

        def rows(span):
            pairs = zip(span, _recursion(n_max, span), map(beatty_p, span))
            return ((n, p, p + n, pb, pb + n, p - pb) for n, p, pb in pairs)
    else:
        headers = ["n", "p", "q"]

        def rows(span):
            ps = _recursion(n_max, span) if method == "recursive" else map(beatty_p, span)
            return ((n, p, p + n) for n, p in zip(span, ps))

    _emit(out, fmt, "gen", arguments, headers, rows, range(1, n_max + 1))


@main.command()
@click.option("--identity", "identity_id", default=None, metavar="ID")
@click.option("--all", "run_all", is_flag=True, help="Run the whole registry.")
@click.option("--n-max", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--game-cap", type=click.IntRange(min=1), default=300, show_default=True)
@click.option(
    "--prime-n-max", type=click.IntRange(min=1), default=100, show_default=True
)
@click.option("--format", "fmt", type=_FORMATS, default="table", show_default=True)
@_OUT
def verify(identity_id, run_all, n_max, game_cap, prime_n_max, fmt, out):
    """Check registered identities; exit 1 if any report fails."""
    from .verify import REGISTRY, report_text, verify_all, verify_identity

    if run_all == (identity_id is not None):
        raise click.UsageError("pass exactly one of --identity ID or --all")
    if run_all:
        reports = verify_all(n_max, game_cap, prime_n_max)
    else:
        ident = REGISTRY.get(identity_id)
        if ident is None:
            raise click.UsageError(
                f"unknown identity {identity_id!r}; known: {', '.join(REGISTRY)}"
            )
        bound = {"table": n_max, "game": game_cap, "prime": prime_n_max}[ident.kind]
        reports = [verify_identity(identity_id, bound)]

    arguments = {
        "identity": identity_id if identity_id else "all",
        "n_max": n_max,
        "game_cap": game_cap,
        "prime_n_max": prime_n_max,
        "format": fmt,
    }
    failed = [r.identity_id for r in reports if not r.passed]
    passed = f"{len(reports) - len(failed)} of {len(reports)} identities passed"
    summary = passed + (f"; FAILED: {', '.join(failed)}" if failed else "")
    if fmt == "table":
        head, lines = "", (report_text(r) + "\n" for r in reports)
    else:
        headers = ["identity", "lo", "hi", "passed", "counterexamples"]
        head, line = _form(fmt, "verify", arguments, headers)
        if fmt == "csv":
            rows = (
                (r.identity_id, r.lo, r.hi, _token(r.passed), len(r.counterexamples))
                for r in reports
            )
        else:
            rows = (r.to_dict().values() for r in reports)
        lines = map(line, rows)
    _stream(out, fmt, head, lines, lambda: summary)
    if failed:
        sys.exit(1)


@main.command()
@click.argument("a", type=_PILE)
@click.argument("b", type=_PILE)
@click.option(
    "--oracle",
    type=click.Choice(["closed", "brute"]),
    default="closed",
    show_default=True,
)
@click.option("--game-cap", type=click.IntRange(min=1), default=300, show_default=True)
def classify(a, b, oracle, game_cap):
    """Report whether the position A B is winning or losing for the mover.

    A and B may have at most 4,300 digits, CPython's default limit on
    converting a string to an int.
    """
    from .game import GameState, is_losing, solve_retrograde

    state = GameState.of(a, b)
    if oracle == "closed":
        click.echo("LOSING" if is_losing(state) else "WINNING")
        return
    if state.b > game_cap:
        raise CapacityError(
            f"larger pile {state.b} exceeds the brute-force cap {game_cap};"
            " raise --game-cap"
        )
    result = solve_retrograde(game_cap).classify(state)
    if result.witness is None:
        click.echo("LOSING")
    else:
        click.echo(f"WINNING ({_describe_move(result.witness, a, b)})")


@main.command(name="best-move")
@click.argument("a", type=_PILE)
@click.argument("b", type=_PILE)
def best_move_cmd(a, b):
    """Print one winning move from A B, or exit 1 if the position is losing.

    A and B may have at most 4,300 digits, CPython's default limit on
    converting a string to an int.
    """
    from .game import GameState, best_move, is_losing

    state = GameState.of(a, b)
    if is_losing(state):
        click.echo("position is losing")
        sys.exit(1)
    click.echo(_describe_move(best_move(state), a, b))


@main.command(name="error-term")
@click.option("--n-max", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--format", "fmt", type=_FORMATS, default="table", show_default=True)
@_OUT
def error_term_cmd(n_max, fmt, out):
    """Scan the gap between the recursion and the closed form."""
    headers = ["n", "p", "p_beatty", "e"]

    def rows(span):
        pairs = zip(span, _recursion(n_max, span), map(beatty_p, span))
        return ((n, p, pb, p - pb) for n, p, pb in pairs)

    def histogram(counts):
        return "histogram {" + ", ".join(f"{e}: {counts[e]}" for e in sorted(counts)) + "}"

    arguments = {"n_max": n_max, "format": fmt}
    _emit(out, fmt, "error-term", arguments, headers, rows, range(1, n_max + 1), histogram)


@main.command()
@click.option("--n-max", type=click.IntRange(min=3), default=100, show_default=True)
@click.option("--sieve-limit", type=click.IntRange(min=4), default=None)
@click.option("--format", "fmt", type=_FORMATS, default="table", show_default=True)
@_OUT
def primes(n_max, sieve_limit, fmt, out):
    """Check the composite-index identity for prime indices 3..N."""
    from .primes import build_prime_gap, check_prime_claim, sieve_limit_for

    limit = sieve_limit if sieve_limit is not None else sieve_limit_for(n_max)
    table = build_prime_gap(limit)
    # an undersized sieve fails here, before any output (see check_prime_claim)
    check_prime_claim(table, min(n_max, len(table.primes) + 1))
    headers = ["n", "p_n", "index", "q_at_index", "holds"]
    # json renders bools; csv and table need a _token
    holds = bool if fmt == "json" else _token

    def row(n):
        ev = check_prime_claim(table, n)
        return ev.n, ev.p_n, ev.index, ev.q_at_index, holds(ev.holds)

    def rows(span):
        return map(row, span)

    def summary(counts):
        return f"claim holds for {counts[holds(True)]} of {n_max - 2} indices"

    arguments = {"n_max": n_max, "sieve_limit": limit, "format": fmt}
    counts = _emit(out, fmt, "primes", arguments, headers, rows, range(3, n_max + 1), summary)
    if counts[holds(False)]:
        sys.exit(1)


if __name__ == "__main__":
    main()
