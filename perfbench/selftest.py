"""Small-scale self-test of the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py

Runs every workload end to end and traced at the SMALL scale and checks
that each named metric is printed with its unit and that a correct
package yields no failures.  Then it breaks things on purpose: a wrong
pinned digest, a CLI launch that does nothing, and wrong moves must all
raise error_rate without crashing.  Finally the benchmark must refuse to
run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark.  Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import run
import workloads as wl

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def bench(workload: str, trace: int, scale=wl.SMALL):
    """Run the benchmark in-process; returns (printed lines, result)."""
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv, scale)
    lines = out.getvalue().splitlines()
    expect(code == 0, f"{workload} trace={trace}: exit code {code}")
    return lines, json.loads(lines[-1])


def check_metric_tables() -> None:
    with open(wl.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == wl.END_TO_END, "BENCHMARK.json end_to_end matches END_TO_END")
    expect(layer == wl.PER_LAYER, "BENCHMARK.json per_layer matches PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS),
           "BENCHMARK.json workloads match WORKLOADS")


def check_clean_runs() -> None:
    for workload in wl.WORKLOADS:
        for trace, units in ((0, wl.END_TO_END), (1, wl.PER_LAYER)):
            lines, result = bench(workload, trace)
            printed = {line.split(" = ")[0]: line for line in lines if " = " in line}
            missing = [n for n, u in units.items()
                       if n not in printed or not printed[n].endswith(" " + u)]
            expect(not missing, f"{workload} trace={trace}: every metric printed "
                                f"with its unit (missing {missing})")
            expect(set(result["metrics"]) == set(units),
                   f"{workload} trace={trace}: result holds exactly the metrics")
            problems = [line for line in lines if line.startswith("# problem")]
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload} trace={trace}: no failures "
                   f"({result['failed']} of {result['attempted']}) {problems}")
            expect("error_rate" in printed, f"{workload} trace={trace}: error_rate printed")


def all_failed(result) -> bool:
    return not result["correct"] and result["failed"] == result["attempted"] > 0


def check_faults() -> None:
    wrong = dataclasses.replace(wl.SMALL, verify_sha256="0" * 64, gen_sha256="0" * 64)
    for workload in ("verify-suite", "gen-table"):
        _, result = bench(workload, 0, wrong)
        expect(all_failed(result), f"{workload}: a wrong pinned digest fails every run")

    saved = wl.CLI_CODE
    wl.CLI_CODE = "import wythoff.cli"  # exits 0 and writes nothing
    try:
        for workload in ("verify-suite", "gen-table"):
            _, result = bench(workload, 0)
            expect(all_failed(result), f"{workload}: a CLI launch that does nothing fails")
    finally:
        wl.CLI_CODE = saved

    positions = wl.make_positions(7, 100)
    answers = []
    from wythoff import GameState, best_move, is_losing

    for _, x, y in positions:
        state = GameState.of(x, y)
        if is_losing(state):
            answers.append("L")
        else:
            move = best_move(state)
            answers.append(f"W {move.kind.value} {move.amount}")
    expect(wl.check_answers(positions, answers) == 0, "correct answers pass the checks")
    w = next(i for i, a in enumerate(answers) if a.startswith("W"))
    losing = next(i for i, a in enumerate(answers) if a == "L")
    kind, amount = answers[w].split()[1:]
    for label, index, bad in (
        ("a move one chip off", w, f"W {kind} {int(amount) + 1}"),
        ("an illegal move", w, f"W {kind} {10**1200}"),
        ("a winning position called losing", w, "L"),
        ("a move from a losing position", losing, "W take_a 1"),
        ("a failed query", w, "E RuntimeError"),
    ):
        broken = list(answers)
        broken[index] = bad
        expect(wl.check_answers(positions, broken) == 1, f"game-queries: {label} is counted")
    expect(wl.check_answers(positions, answers[:-3]) == 3, "game-queries: missing answers count")

    import layers
    from wythoff import Move

    saved = layers.best_move
    layers.best_move = lambda state: Move(saved(state).kind, saved(state).amount + 1)
    try:
        _, result = bench("game-queries", 1)
    finally:
        layers.best_move = saved
    expect(not result["correct"] and 0 < result["failed"] < result["attempted"],
           f"game-queries trace=1: wrong moves raise error_rate "
           f"({result['failed']} of {result['attempted']})")


def check_refuses_without_package() -> None:
    bare = wl.OUT / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(wl.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(wl.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "gen-table", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"refuses to run without the package (exit {proc.returncode})")


def main() -> int:
    wl.OUT.mkdir(parents=True, exist_ok=True)
    check_metric_tables()
    check_clean_runs()
    check_faults()
    check_refuses_without_package()
    print(f"{len(FAILURES)} failed checks" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
