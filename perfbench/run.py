"""Benchmark of the wythoff package: three workloads, end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop with one caller, one child process at a time):

* ``verify-suite``: ``wythoff verify --all`` at n_max 10^6, game cap 2000
  and prime index 10^5, as a CLI child.  The identity registry at scale.
* ``gen-table``: ``wythoff gen --method both --format csv`` at n_max 10^6,
  as a CLI child.  One table build, then a sequential row export.
* ``game-queries``: seeded game positions of three size classes, answered
  through the public API (``GameState.of``, ``is_losing``, ``best_move``)
  by a worker child.  Kernel and engines only: no table, registry or CLI.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run (see ``layers.py``).  Every output is checked, and a
wrong one counts in ``failed`` (error_rate = failed / attempted).
The seed, the commit and the machine are printed on a ``meta`` line and
stored with the result and the samples in
``perfbench/out/result-<workload>-trace<0|1>-seed<n>.json``.
``selftest.py`` checks the benchmark itself at a small scale.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from hashlib import sha256
from math import ceil
from pathlib import Path
from statistics import median

import workloads as wl


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str], operations: int = 1, failed: int | None = None):
        self.attempted += operations
        self.failed += (1 if problems else 0) if failed is None else failed
        self.problems.extend(problems[: max(0, 5 - len(self.problems))])


def nearest_rank(values, q: float):
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def cli_e2e(workload, scale, seed, seconds, tmp, tally, launcher):
    """Time CLI invocations, one at a time, for ``seconds``."""
    out = tmp / ("report.json" if workload == "verify-suite" else "table.csv")

    def check():
        if workload == "verify-suite":
            return wl.check_verify_json(out, scale)
        return wl.check_gen_csv(out, scale, seed)

    args = scale.verify_args(out) if workload == "verify-suite" else scale.gen_args(out)
    argv = wl.cli_argv(args)
    setups = []
    for _ in range(scale.setups):
        # The warm-up imports the CLI in a child, as every timed run does.
        start = perf_counter()
        _, code, _ = launcher.spawn(wl.cli_argv(["--help"]), tmp / "stderr")
        if code:
            raise RuntimeError(f"the CLI does not start (exit {code})")
        setups.append(perf_counter() - start)

    walls, peaks = [], []
    deadline = perf_counter() + seconds
    while not walls or perf_counter() < deadline:
        out.unlink(missing_ok=True)
        wall, code, peak = launcher.spawn(argv, tmp / "stderr")
        walls.append(wall)
        peaks.append(peak)
        tally.record(check() + ([f"exit code {code}"] if code else []))
    print(f"# {len(walls)} invocations: {' '.join(f'{w:.3f}' for w in walls)} s")
    return {"setup_s": setups, "wall_s": walls, "peak_rss_mb": peaks, "query_s": walls}


def queries_e2e(scale, seed, seconds, tmp, tally, launcher):
    """Time worker children that each answer the seeded positions once."""
    positions_path, answers_path = tmp / "positions.txt", tmp / "answers.txt"
    argv = [sys.executable, str(Path(__file__).with_name("query_worker.py")),
            str(positions_path), str(answers_path)]

    setups = []
    for _ in range(scale.setups):
        start = perf_counter()
        positions = wl.make_positions(seed, scale.queries)
        wl.write_positions(positions, positions_path)
        _, code, _ = launcher.spawn(argv, tmp / "stderr")
        if code:
            raise RuntimeError(f"the query worker does not start (exit {code})")
        setups.append(perf_counter() - start)

    walls, peaks, times = [], [], []
    checked: dict[str, int] = {}
    deadline = perf_counter() + seconds
    while not walls or perf_counter() < deadline:
        answers_path.unlink(missing_ok=True)
        wall, code, peak = launcher.spawn(argv, tmp / "stderr")
        walls.append(wall)
        peaks.append(peak)
        lines = answers_path.read_text().splitlines() if answers_path.exists() else []
        times.extend(int(line.split(" ", 1)[0]) for line in lines)
        answers = [line.split(" ", 1)[1] for line in lines]
        # Every batch answers the same positions; identical answers need one check.
        key = sha256("\n".join(answers).encode()).hexdigest()
        if key not in checked:
            checked[key] = wl.check_answers(positions, answers)
        failed = len(positions) if code else checked[key]
        problems = [f"worker exit code {code}, {failed} wrong answers"] if failed else []
        tally.record(problems, operations=len(positions), failed=failed)
    print(f"# {len(walls)} worker children, {len(times)} timed queries")
    return {"setup_s": setups, "wall_s": walls, "peak_rss_mb": peaks,
            "query_s": [ns / 1e9 for ns in times]}


def summarize(samples: dict, imports_s: float) -> dict:
    """End-to-end metrics from a run's samples.

    A query is one CLI invocation on the CLI workloads and one position on
    game-queries.  Set-up happens several times; its median counts once,
    plus the benchmark's own imports.
    """
    queries = samples["query_s"]
    return {
        "setup_s": imports_s + median(samples["setup_s"]),
        "wall_s": median(samples["wall_s"]),
        "peak_rss_mb": median(samples["peak_rss_mb"]),
        "queries_per_s": len(queries) / sum(queries),
        "query_us_p50": median(queries) * 1e6,
        "query_us_p99": nearest_rank(queries, 0.99) * 1e6,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a git tree."""
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_meta(args) -> dict:
    sources = sorted((wl.SRC / "wythoff").glob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": sha256(b"".join(p.read_bytes() for p in sources)).hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, meta, scale, tmp, launcher):
    """Run one workload; returns (metrics with units, tally, samples)."""
    tally = Tally()
    samples = {}
    if args.trace:
        import layers

        values = layers.traced_run(args.workload, scale, args.seed, args.seconds,
                                   tmp, tally, launcher, meta)
        units = wl.PER_LAYER
    else:
        imports_s = perf_counter() - _STARTED
        if args.workload == "game-queries":
            samples = queries_e2e(scale, args.seed, args.seconds, tmp, tally, launcher)
        else:
            samples = cli_e2e(args.workload, scale, args.seed, args.seconds, tmp, tally,
                              launcher)
        values = summarize(samples, imports_s)
        units = wl.END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, tally, samples


def main(argv=None, scale=wl.FULL) -> int:
    args = parse_args(argv)
    if not (wl.SRC / "wythoff" / "__init__.py").is_file():
        print(f"error: no wythoff package under {wl.SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    # On SIGTERM, unwind like on Ctrl-C, so the children are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    meta = run_meta(args)
    print("meta " + json.dumps(meta))
    wl.OUT.mkdir(parents=True, exist_ok=True)
    tmp = wl.OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        with wl.Launcher() as launcher:
            metrics, tally, samples = measure(args, meta, scale, tmp, launcher)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted})")
    for problem in tally.problems:
        print(f"# problem: {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    # The run's record: meta, result and the samples.  Per-query times are
    # left out (a million of them on game-queries; the CLI's equal wall_s).
    samples.pop("query_s", None)
    record = wl.OUT / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    record.write_text(json.dumps({"meta": meta, "result": result, "samples": samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
