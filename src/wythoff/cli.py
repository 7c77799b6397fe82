"""Command-line front end.

Subcommands cover sequence generation, the identity suite, state
classification, winning-move queries, closed-form error scans, and the
prime analogue.  Machine formats (csv, json) are bit-stable: fixed
field order, integers only, no timings; summaries and diagnostics go to
stderr so the data stream stays parseable.

The machine formats stream: rows go from their producer to the writer
one at a time.  ``gen --method recursive``/``both`` and ``error-term``
stream the mex recursion itself, never a pair table, so they hold only
its occupancy marks, ~3 bytes per pair (19.9 MiB peak RSS for a 10^6-row
csv, where a pair table would take 96.3 MiB), and ``gen --method beatty``
runs in constant memory.  ``--format table`` buffers its rows to
measure column widths, and ``primes`` builds its rows first so an
undersized sieve fails before any output.  Every command checks what
can fail before it opens stdout or ``--out``, so a failing command
writes nothing.  The one exception is the recursion's in-loop
consistency checks (index bound, occupancy collision), which a correct
recursion never trips; if one did, it would raise after rows were
written, and the command would still exit 3.

Exit codes: 0 success, 1 a verification failed or the queried position
is losing, 2 argument and I/O errors (an ``--out`` directory that is
missing or not writable is refused before any work), 3 capacity limits
(brute-force cap, sieve, table and solver ceilings), 141 stdout closed
by its reader, as a shell reports a writer killed by SIGPIPE.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from contextlib import nullcontext
from typing import Iterable, Iterator

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

    click.Path checks only a file that already exists.  The file itself is
    still opened where the command writes (see _output).
    """
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


def _token(value) -> str:
    """A table cell, or a csv bool: true / false rather than Python's True."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _write_table(stream, headers, rows) -> None:
    cells = [[_token(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    stream.write("  ".join(h.rjust(w) for h, w in zip(headers, widths)) + "\n")
    for row in cells:
        stream.write("  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n")


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


def _emit(stream, fmt, command, arguments, headers, rows) -> None:
    """Write rows, consumed once and in order, to the stream in the chosen format."""
    if fmt == "table":
        _write_table(stream, headers, rows)
    elif fmt == "csv":
        _write_csv(stream, headers, rows)
    else:
        _write_json(stream, command, arguments, (dict(zip(headers, row)) for row in rows))


def _summary(stream, fmt, line: str) -> None:
    """Human summary: after the rows for tables, stderr for machine formats."""
    if fmt == "table":
        stream.write(line + "\n")
    else:
        click.echo(line, err=True)


def _rec_and_closed(n_max: int) -> Iterator[tuple[int, int, int]]:
    """(n, p_rec, p_beatty) for n in [1, n_max].

    The recursion's ceiling is checked now, so a capacity error comes
    before any output; both values are computed as rows are read.
    """
    ns = range(1, n_max + 1)
    return zip(ns, lower_values(n_max), map(beatty_p, ns))


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
    if method == "both":
        headers = ["n", "p_rec", "q_rec", "p_beatty", "q_beatty", "e"]
        rows = ((n, p, p + n, pb, pb + n, p - pb) for n, p, pb in _rec_and_closed(n_max))
    else:
        headers = ["n", "p", "q"]
        ps = lower_values(n_max) if method == "recursive" else map(beatty_p, ns)
        rows = ((n, p, p + n) for n, p in zip(ns, ps))
    with _output(out) as stream:
        _emit(stream, fmt, "gen", arguments, headers, rows)


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
    pairs = _rec_and_closed(n_max)
    counts: Counter[int] = Counter()

    def rows():
        for n, p, pb in pairs:
            e = p - pb
            counts[e] += 1
            yield n, p, pb, e

    with _output(out) as stream:
        _emit(stream, fmt, "error-term", {"n_max": n_max, "format": fmt}, headers, rows())
        rendered = ", ".join(f"{e}: {counts[e]}" for e in sorted(counts))
        _summary(stream, fmt, f"histogram {{{rendered}}}")


@main.command()
@click.option("--n-max", type=click.IntRange(min=3), default=100, show_default=True)
@click.option("--sieve-limit", type=click.IntRange(min=4), default=None)
@click.option("--format", "fmt", type=_FORMATS, default="table", show_default=True)
@_OUT
def primes(n_max, sieve_limit, fmt, out):
    """Check the composite-index identity for prime indices 3..N."""
    limit = sieve_limit if sieve_limit is not None else sieve_limit_for(n_max)
    table = build_prime_gap(limit)
    headers = ["n", "p_n", "index", "q_at_index", "holds"]
    # built before any output: an undersized sieve raises on some n
    evidence = [check_prime_claim(table, n) for n in range(3, n_max + 1)]
    # csv's %s would print Python's True / False; table and json render bools
    holds = _token if fmt == "csv" else bool
    rows = [(ev.n, ev.p_n, ev.index, ev.q_at_index, holds(ev.holds)) for ev in evidence]
    arguments = {"n_max": n_max, "sieve_limit": limit, "format": fmt}
    holding = sum(ev.holds for ev in evidence)
    with _output(out) as stream:
        _emit(stream, fmt, "primes", arguments, headers, rows)
        _summary(stream, fmt, f"claim holds for {holding} of {len(rows)} indices")
    if holding != len(rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
