"""Command-line front end.

Subcommands cover sequence generation, the identity suite, state
classification, winning-move queries, closed-form error scans, and the
prime analogue.  Machine formats (csv, json) are bit-stable: fixed
field order, integers only, no timings; summaries and diagnostics go to
stderr so the data stream stays parseable.

Every format streams: rows go from their producer to the writer one at
a time.  ``gen --method recursive``/``both`` and ``error-term`` stream
the mex recursion itself, never a pair table, so they hold only its
occupancy marks, ~3 bytes per pair (19.9 MiB peak RSS for a 10^6-row
csv, where a pair table would take 96.3 MiB), and ``gen --method
beatty`` runs in constant memory, and ``primes`` holds only its sieve.
``--format table`` runs its producer twice, once to measure the column
widths and once to write.  Every command checks what can fail before it
opens stdout or ``--out``, so a failing command writes nothing.  Only an
I/O error while writing can leave partial output.

Exit codes: 0 success, 1 a verification failed or the queried position
is losing, 2 argument and I/O errors (an empty ``--out``, or one whose
directory is missing or not writable, is refused before any work), 3
capacity limits (brute-force cap, sieve, table and solver ceilings), 141
stdout closed by its reader, as a shell reports a writer killed by SIGPIPE.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from contextlib import nullcontext
from typing import Iterable

import click

from .errors import CapacityError, WythoffError
from .game import GameState, Move, MoveKind, best_move, is_losing, solve_retrograde
from .primes import build_prime_gap, check_prime_claim, sieve_limit_for
from .sequences import beatty_p, lower_values
from .verify import REGISTRY, report_text, verify_all, verify_identity

_FORMATS = click.Choice(["table", "csv", "json"])

# Encodes one json row; _write_json indents it to its depth in the payload.
_JSON_ROW = json.JSONEncoder(indent=2)


class _EngineErrors(click.Group):
    """Maps exceptions to the exit-code contract (2 usage or I/O, 3 capacity, 141 pipe)."""

    def invoke(self, ctx):
        try:
            try:
                return super().invoke(ctx)
            finally:
                sys.stdout.flush()  # a closed pipe raises here, not at exit
        except BrokenPipeError:
            # the interpreter flushes stdout once more on exit; send that nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(141)
        except (WythoffError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3 if isinstance(exc, CapacityError) else 2)


def _writable_dir(ctx, param, out):
    """Refuse an --out whose directory cannot take the file, before any work.

    click.Path checks only a file that already exists, and takes an empty
    path, whose folder would read as ".".  The file itself is still opened
    where the command writes (see _output).
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


def _write_csv(stream, headers, rows) -> None:
    """One line per row tuple, fields joined by commas.

    Fields are ints, registry ids and the true / false tokens (a bool
    must already be a _token), none of which holds a comma, quote or
    newline, so no field ever needs csv quoting.
    """
    line = ",".join(["%s"] * len(headers)) + "\n"
    stream.write(line % tuple(headers))
    stream.writelines(map(line.__mod__, rows))


def _write_json(stream, command, arguments, row_dicts: Iterable[dict]) -> None:
    """The bytes of json.dump(payload, indent=2), written one row at a time."""
    head = json.dumps({"meta": {"command": command, "arguments": arguments}}, indent=2)
    stream.write(head[: -len("\n}")] + ',\n  "rows": [')
    sep = "\n"
    for row in row_dicts:
        stream.write(sep + "    " + _JSON_ROW.encode(row).replace("\n", "\n    "))
        sep = ",\n"
    stream.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")


def _output(out):
    """The data stream of a command: the --out file if given, else stdout."""
    if out is None:
        return nullcontext(sys.stdout)
    return open(out, "w", encoding="utf-8", newline="")


def _emit(out, fmt, command, arguments, headers, rows, summary=None) -> None:
    """Write the row tuples of the producer rows() to --out or stdout, then summary().

    rows() is called before the output opens, so a producer that checks
    its ceiling on the call fails before any --out file exists.  A table
    measures its column widths on that pass, drops it (a map that ends at
    its range keeps the recursion's marks) and writes a second rows().
    """
    produced = rows()
    if fmt == "table":
        widths = list(map(len, headers))
        for row in produced:
            widths = list(map(max, widths, map(len, map(str, row))))
        line = "  ".join(f"%{w}s" for w in widths) + "\n"
        produced = rows()
    with _output(out) as stream:
        if fmt == "table":
            stream.write(line % tuple(headers))
            stream.writelines(map(line.__mod__, produced))
        elif fmt == "csv":
            _write_csv(stream, headers, produced)
        else:
            _write_json(stream, command, arguments, (dict(zip(headers, row)) for row in produced))
        if summary is not None:
            _summary(stream, fmt, summary())


def _summary(stream, fmt, line: str) -> None:
    """Human summary: after the rows for tables, stderr for machine formats."""
    if fmt == "table":
        stream.write(line + "\n")
    else:
        click.echo(line, err=True)


def _describe_move(move: Move, x: int, y: int) -> str:
    """Render a move against the user's original pile order."""
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
    ns = range(1, n_max + 1)
    # the recursion defines q(n) = p(n) + n, and floor(n*phi^2) = floor(n*phi) + n
    # a producer calls lower_values as it is called, so the ceiling fails before any output
    if method == "both":
        headers = ["n", "p_rec", "q_rec", "p_beatty", "q_beatty", "e"]

        def rows():
            pairs = zip(ns, lower_values(n_max), map(beatty_p, ns))
            return ((n, p, p + n, pb, pb + n, p - pb) for n, p, pb in pairs)
    else:
        headers = ["n", "p", "q"]

        def rows():
            ps = lower_values(n_max) if method == "recursive" else map(beatty_p, ns)
            return ((n, p, p + n) for n, p in zip(ns, ps))

    _emit(out, fmt, "gen", arguments, headers, rows)


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
    with _output(out) as stream:
        if fmt == "table":
            stream.writelines(report_text(r) + "\n" for r in reports)
        elif fmt == "csv":
            headers = ["identity", "lo", "hi", "passed", "counterexamples"]
            rows = (
                (r.identity_id, r.lo, r.hi, _token(r.passed), len(r.counterexamples))
                for r in reports
            )
            _write_csv(stream, headers, rows)
        else:
            _write_json(stream, "verify", arguments, (r.to_dict() for r in reports))
        _summary(
            stream,
            fmt,
            f"{len(reports) - len(failed)} of {len(reports)} identities passed"
            + (f"; FAILED: {', '.join(failed)}" if failed else ""),
        )
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
    ns = range(1, n_max + 1)
    counts: Counter[int] = Counter()

    def tally(n, p, pb):
        counts[p - pb] += 1
        return n, p, pb, p - pb

    def rows():
        counts.clear()  # a table reads the rows twice
        return map(tally, ns, lower_values(n_max), map(beatty_p, ns))

    def histogram():
        return "histogram {" + ", ".join(f"{e}: {counts[e]}" for e in sorted(counts)) + "}"

    _emit(out, fmt, "error-term", {"n_max": n_max, "format": fmt}, headers, rows, histogram)


@main.command()
@click.option("--n-max", type=click.IntRange(min=3), default=100, show_default=True)
@click.option("--sieve-limit", type=click.IntRange(min=4), default=None)
@click.option("--format", "fmt", type=_FORMATS, default="table", show_default=True)
@_OUT
def primes(n_max, sieve_limit, fmt, out):
    """Check the composite-index identity for prime indices 3..N."""
    limit = sieve_limit if sieve_limit is not None else sieve_limit_for(n_max)
    table = build_prime_gap(limit)
    # an undersized sieve fails here, before any output (see check_prime_claim)
    check_prime_claim(table, min(n_max, len(table.primes) + 1))
    headers = ["n", "p_n", "index", "q_at_index", "holds"]
    # json renders bools; csv and table need a _token
    holds = bool if fmt == "json" else _token
    counts: Counter[bool] = Counter()

    def row(n):
        ev = check_prime_claim(table, n)
        counts[ev.holds] += 1
        return ev.n, ev.p_n, ev.index, ev.q_at_index, holds(ev.holds)

    def rows():
        counts.clear()  # a table reads the rows twice
        return map(row, range(3, n_max + 1))

    def summary():
        return f"claim holds for {counts[True]} of {n_max - 2} indices"

    arguments = {"n_max": n_max, "sieve_limit": limit, "format": fmt}
    _emit(out, fmt, "primes", arguments, headers, rows, summary)
    if counts[False]:
        sys.exit(1)


if __name__ == "__main__":
    main()
