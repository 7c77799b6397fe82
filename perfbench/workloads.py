"""Workload definitions, seeded inputs and output checks.

Nothing here imports the ``wythoff`` package at module level: the
end-to-end run drives the package through child processes, and the
checks below use oracles that do not share code with it (the integer
bracket for floor(n*phi), pinned output digests).  Only the move check
imports ``apply_move``, after timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass
from math import isqrt
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("verify-suite", "gen-table", "game-queries")

IDENTITY_IDS = (
    "L1", "C2", "L2", "L3", "C-dq", "C-no3p", "L4", "L5", "C3", "C-qp",
    "L-pq", "C-pair", "C-final", "L-E", "E-zero", "game-equiv", "prime-claim",
)

# Size classes of game positions: (name, decimal digits, share of queries in %).
# The d1000 share is large enough that the 99th percentile lands inside the
# slowest class (winning d1000 positions, about 4% of queries) instead of on
# its boundary with d100, and the median lands inside the winning d6 queries.
CLASSES = (("d6", 6, 70), ("d100", 100, 25), ("d1000", 1000, 5))
LOSING_PERCENT = 20
CLASS_NAMES = tuple(name for name, _, _ in CLASSES)

# Metric names and units, as BENCHMARK.json lists them (selftest.py checks).
# Every workload reports every end-to-end metric; a "query" is one CLI
# invocation on the CLI workloads and one position on game-queries.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "queries_per_s": "1/s",
    "query_us_p50": "us",
    "query_us_p99": "us",
}

PER_LAYER = {
    "sequences.build_recursive_s": "s",
    "sequences.build_recursive_peak_mb": "MiB",
    "sequences.beatty_scan_s": "s",
    **{f"sequences.beatty_p_us.{c}": "us" for c in CLASS_NAMES},
    "game.state_of_us": "us",
    **{f"game.is_losing_us.{c}": "us" for c in CLASS_NAMES},
    **{f"game.best_move_us.{c}": "us" for c in CLASS_NAMES},
    "game.solve_retrograde_s": "s",
    "game.solve_retrograde_peak_mb": "MiB",
    "game.losing_states": "count",
    "primes.build_prime_gap_s": "s",
    "primes.check_prime_claim_s": "s",
    **{f"verify.{i}_s": "s" for i in IDENTITY_IDS},
    **{f"verify.{i}.checked": "count" for i in IDENTITY_IDS},
    "verify.verify_all_s": "s",
    "verify.unattributed_s": "s",
    "cli.import_s": "s",
    "cli.invoke_s": "s",
    "cli.render_s": "s",
    "cli.process_overhead_s": "s",
    "cli.output_bytes": "bytes",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}

CLI_CODE = "from wythoff.cli import main; main()"


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale and the digests its outputs must have."""

    n_max: int
    game_cap: int
    prime_n_max: int
    queries: int
    verify_sha256: str
    gen_sha256: str
    setups: int

    def verify_args(self, out: Path) -> list[str]:
        return [
            "verify", "--all", "--n-max", str(self.n_max),
            "--game-cap", str(self.game_cap), "--prime-n-max", str(self.prime_n_max),
            "--format", "json", "--out", str(out),
        ]

    def gen_args(self, out: Path) -> list[str]:
        return [
            "gen", "--n-max", str(self.n_max), "--method", "both",
            "--format", "csv", "--out", str(out),
        ]


FULL = Scale(
    n_max=1_000_000,
    game_cap=2000,
    prime_n_max=100_000,
    queries=10_000,
    verify_sha256="78c01ce22000caeea04140e6cad6831bf9d7086e5cbee9b865cc84e858ef43ed",
    gen_sha256="76c34356e0491cc2fb0ecf61675d45ab5c6243f831b56b653bd5829c1b227eb2",
    setups=5,
)

SMALL = Scale(
    n_max=2000,
    game_cap=60,
    prime_n_max=500,
    queries=400,
    verify_sha256="8ca1facc9dc7a9009400714d4019d5bba7ea1e9bb3c474f2e3107304f8927d9e",
    gen_sha256="7f2b54d4bef689733a2a0cafef1539d367171bd0bc7b906deab8757445c92188",
    setups=2,
)


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


class Launcher:
    """Starts the benchmark's children through ``launcher.py``, one at a time.

    Each child runs to completion; its wall time runs from spawn to exit
    and its peak RSS comes from the kernel's rusage for it (``os.wait4``),
    so both are measured from outside the program.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT, start_new_session=True,
        )

    def spawn(self, argv: list[str], stderr_path: Path) -> tuple[float, int, float]:
        """Run one child: (wall seconds, exit code, peak RSS MiB)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "stderr": str(stderr_path)}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended")
        done = json.loads(reply)
        return done["wall"], done["code"], done["peak_mib"]

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc_info):
        if exc_type is not None:
            # Also ends a child still running: it is in the launcher's group.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        return False


def cli_argv(args: list[str]) -> list[str]:
    """Launch ``wythoff.cli.main`` against the checkout's ``src``.

    ``python -m wythoff.cli`` would exit 0 without doing anything (the
    module has no ``__main__`` block), and no console script is assumed
    to be installed.
    """
    return [sys.executable, "-c", CLI_CODE, *args]


def sha256_file(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def is_floor_phi(m: int, n: int) -> bool:
    """Whether m == floor(n*phi), for n >= 1, without isqrt or floats.

    m = floor(n*phi) iff 2m - n <= n*sqrt5 < 2m + 2 - n, and n*sqrt5 is
    irrational, so with 2m - n >= 0 this is (2m-n)^2 < 5n^2 < (2m+2-n)^2.
    """
    lo = 2 * m - n
    return lo >= 0 and lo * lo < 5 * n * n < (lo + 2) * (lo + 2)


def oracle_losing(x: int, y: int) -> bool:
    """Whether the position (x, y) is lost for the player to move."""
    a, b = min(x, y), max(x, y)
    d = b - a
    if d == 0:
        return a == 0
    return is_floor_phi(a, d)


def check_verify_json(path: Path, scale: Scale) -> list[str]:
    """Problems with a ``verify --all --format json`` output file."""
    digest = sha256_file(path)
    if digest is None:
        return ["no output file"]
    problems = []
    if digest != scale.verify_sha256:
        problems.append(f"sha256 {digest} != pinned {scale.verify_sha256}")
    try:
        rows = json.loads(path.read_bytes())["rows"]
        ids = tuple(row["identity"] for row in rows)
        failed = [row["identity"] for row in rows if row["passed"] is not True]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable report: {exc!r}"]
    if ids != IDENTITY_IDS:
        problems.append(f"identities {ids} != registry {IDENTITY_IDS}")
    if failed:
        problems.append(f"reports failed: {failed}")
    return problems


def check_gen_csv(path: Path, scale: Scale, seed: int, samples: int = 1000) -> list[str]:
    """Problems with a ``gen --method both --format csv`` output file.

    Besides the pinned digest, a seeded sample of rows must satisfy the
    bracket oracle, which does not depend on the package's ``beatty_p``.
    """
    digest = sha256_file(path)
    if digest is None:
        return ["no output file"]
    problems = []
    if digest != scale.gen_sha256:
        problems.append(f"sha256 {digest} != pinned {scale.gen_sha256}")
    lines = path.read_bytes().split(b"\n")
    if lines[0] != b"n,p_rec,q_rec,p_beatty,q_beatty,e" or len(lines) != scale.n_max + 2:
        return problems + [f"header or row count wrong ({len(lines)} lines)"]
    rng = random.Random(seed)
    for n in rng.sample(range(1, scale.n_max + 1), min(samples, scale.n_max)):
        try:
            row = tuple(int(v) for v in lines[n].split(b","))
        except ValueError:
            row = ()
        m = row[1] if len(row) == 6 else -1
        if row != (n, m, m + n, m, m + n, 0) or not is_floor_phi(m, n):
            problems.append(f"row {n} fails the bracket oracle: {lines[n]!r}")
            break
    return problems


def make_positions(seed: int, count: int) -> list[tuple[str, int, int]]:
    """``count`` seeded positions (class, x, y), shuffled.

    Class counts are fixed shares of ``count``; within each class about
    LOSING_PERCENT of positions are losing pairs (floor(d*phi), floor(d*phi)+d)
    and the rest are two independent pile sizes of the class's width.
    """
    rng = random.Random(seed)
    positions = []
    for name, digits, percent in CLASSES:
        lo, hi = 10 ** (digits - 1), 10 ** digits
        size = count * percent // 100
        for i in range(size):
            if i < size * LOSING_PERCENT // 100:
                d = rng.randrange(lo, hi)
                a = (d + isqrt(5 * d * d)) // 2
                x, y = (a, a + d) if rng.random() < 0.5 else (a + d, a)
            else:
                x, y = rng.randrange(lo, hi), rng.randrange(lo, hi)
            positions.append((name, x, y))
    rng.shuffle(positions)
    return positions


def write_positions(positions, path: Path) -> None:
    path.write_text("".join(f"{x} {y}\n" for _, x, y in positions))


def check_answers(positions, answers: list[str]) -> int:
    """Count wrong answers; each answer is ``L``, ``W <kind> <amount>`` or ``E ...``.

    A losing verdict must match the bracket oracle; a move is applied with
    the package's ``apply_move`` and must leave a losing position.
    """
    from wythoff.errors import WythoffError
    from wythoff.game import GameState, Move, MoveKind, apply_move

    failed = max(0, len(positions) - len(answers))
    for (_, x, y), answer in zip(positions, answers):
        parts = answer.split()
        losing = oracle_losing(x, y)
        if parts == ["L"] and losing:
            continue
        if len(parts) != 3 or parts[0] != "W" or losing:
            failed += 1
            continue
        try:
            move = Move(MoveKind(parts[1]), int(parts[2]))
            after = apply_move(GameState.of(x, y), move)
        except (ValueError, WythoffError):
            failed += 1
            continue
        if not oracle_losing(after.a, after.b):
            failed += 1
    return failed

