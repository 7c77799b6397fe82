"""Traced run: per-layer numbers from spans around calls into each module.

The five modules that do work are ``sequences``, ``game``, ``primes``,
``verify`` and ``cli``.  Each workload's work is repeated in passes, for
``--seconds`` and at most MAX_PASSES times: once with a NullTracer
(untraced) and once with spans.  ``trace.overhead_s`` is the difference
of the two medians.  Layer probes (the solver, the sieve, the closed-form
scan, beatty_p on the positions' differences) run once more, each in a
span, outside the passes.  Peak memory comes from a separate tracemalloc
pass, because tracemalloc slows allocation-heavy code.

Metrics of layers that a workload never calls read 0.  ``cli.render_s``
and ``cli.process_overhead_s`` are differences of separate measurements;
where rendering is tiny (verify-suite) they are within the run-to-run
noise and can come out negative.  The spans are written to
``perfbench/out/trace-<workload>.jsonl`` when the run ends.
"""

from __future__ import annotations

import random
import sys
import tracemalloc
from math import isqrt
from statistics import median
from time import perf_counter

import workloads as wl
from tracing import NullTracer, Tracer

from wythoff import (
    REGISTRY,
    GameState,
    beatty_p,
    best_move,
    build_prime_gap,
    build_recursive,
    check_prime_claim,
    is_losing,
    sieve_limit_for,
    solve_retrograde,
    verify_identity,
)

MAX_PASSES = 5
NULL = NullTracer()


class TracedRun:
    def __init__(self, scale, seed, seconds, tmp, tally, launcher):
        self.scale = scale
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.tally = tally
        self.launcher = launcher
        self.tracer = Tracer()
        self.metrics = {name: 0 for name in wl.PER_LAYER}
        self.pass_s: dict[str, float] = {}  # traced wall time of each pass

    def passes(self, compute, check) -> list[str]:
        """Alternate untraced and traced passes of ``compute``; returns run ids.

        ``check`` gets each pass's result after its timed region.
        """
        untraced, traced, run_ids = [], [], []
        deadline = perf_counter() + self.seconds
        while not run_ids or (perf_counter() < deadline and len(run_ids) < MAX_PASSES):
            self.tracer.run_id = f"pass{len(run_ids)}"
            for tracer, times in ((NULL, untraced), (self.tracer, traced)):
                start = perf_counter()
                try:
                    result = compute(tracer)
                except Exception as exc:  # counted as a failed operation, never fatal
                    self.tally.record([f"{compute.__name__}: {type(exc).__name__}: {exc}"])
                    result = None
                times.append(perf_counter() - start)
                if result is not None:
                    check(result)
            self.pass_s[self.tracer.run_id] = traced[-1]
            run_ids.append(self.tracer.run_id)
        self.metrics["trace.traced_s"] = median(traced)
        self.metrics["trace.untraced_s"] = median(untraced)
        self.metrics["trace.overhead_s"] = median(traced) - median(untraced)
        self.tracer.run_id = "probe"
        return run_ids

    def peak_mib(self, fn, *args) -> float:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    # -- cli -------------------------------------------------------------

    def cli(self, args, out, check, compute_s: float):
        """Import, process and in-process numbers for one CLI invocation."""
        imports = []
        for _ in range(3):
            wall, code, _ = self.launcher.spawn(
                [sys.executable, "-c", "import wythoff.cli"], self.tmp / "stderr")
            imports.append(wall)
            self.tally.record([f"import exit code {code}"] if code else [])
        out.unlink(missing_ok=True)
        wall, code, _ = self.launcher.spawn(wl.cli_argv(args), self.tmp / "stderr")
        self.tally.record(check() + ([f"exit code {code}"] if code else []))

        from wythoff.cli import main

        out.unlink(missing_ok=True)
        start = perf_counter()
        try:
            main.main(args=args, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # counted as a failed invocation, never fatal
            code = f"{type(exc).__name__}: {exc}"
        invoke = perf_counter() - start
        self.tally.record(check() + ([f"in-process exit code {code}"] if code else []))
        self.metrics.update({
            "cli.import_s": median(imports),
            "cli.invoke_s": invoke,
            "cli.render_s": invoke - compute_s,
            "cli.process_overhead_s": wall - invoke,
            "cli.output_bytes": out.stat().st_size if out.exists() else 0,
        })

    # -- sequences -------------------------------------------------------

    def beatty_scan(self, tr, n_max: int) -> list[int]:
        with tr.span("sequences.beatty_scan"):
            return [beatty_p(n) for n in range(1, n_max + 1)]

    def check_closed_form(self, values: list[int]) -> None:
        """A seeded sample of floor(n*phi) values against the bracket oracle."""
        rng = random.Random(self.seed)
        bad = [n for n in rng.sample(range(1, len(values) + 1), min(1000, len(values)))
               if not wl.is_floor_phi(values[n - 1], n)]
        self.tally.record([f"beatty_p wrong at n={bad[0]}"] if bad else [])

    # -- workloads -------------------------------------------------------

    def verify_suite(self):
        scale = self.scale
        bounds = {"table": scale.n_max, "game": scale.game_cap, "prime": scale.prime_n_max}
        checked = {}

        def verify_all(tr):
            # verify_all's own steps, one span each: one shared table, then
            # every registry entry in order.
            with tr.span("verify.verify_all"):
                with tr.span("sequences.build_recursive"):
                    table = build_recursive(scale.n_max)
                reports = []
                for ident in REGISTRY.values():
                    with tr.span(f"verify.{ident.identity_id}"):
                        reports.append(verify_identity(
                            ident.identity_id, bounds[ident.kind], table))
                del table  # freed inside verify_all too, when it returns
            return reports

        def check(reports):
            failed = [r.identity_id for r in reports if not r.passed]
            ids = tuple(r.identity_id for r in reports)
            self.tally.record(([f"reports failed: {failed}"] if failed else [])
                              + ([f"registry {ids}"] if ids != wl.IDENTITY_IDS else []))
            checked.update({r.identity_id: r.hi - r.lo + 1 for r in reports})

        run_ids = self.passes(verify_all, check)
        tr, m = self.tracer, self.metrics
        for ident in wl.IDENTITY_IDS:
            m[f"verify.{ident}_s"] = tr.total_s(f"verify.{ident}", run_ids)
            m[f"verify.{ident}.checked"] = checked.get(ident, 0)
        m["sequences.build_recursive_s"] = tr.total_s("sequences.build_recursive", run_ids)
        m["verify.verify_all_s"] = tr.total_s("verify.verify_all", run_ids)
        m["verify.unattributed_s"] = tr.self_total_s("verify.verify_all", run_ids)
        self.reconcile(run_ids)

        with tr.span("game.solve_retrograde"):
            solved = solve_retrograde(scale.game_cap)
        losing = [(s.a, s.b) for s in solved.losing_states]
        expected = sum(1 for d in range(scale.game_cap + 1)
                       if (d + isqrt(5 * d * d)) // 2 + d <= scale.game_cap)
        wrong = [s for s in losing if not wl.oracle_losing(*s)]
        self.tally.record(([f"solver: {wrong[0]} is not losing"] if wrong else [])
                          + ([f"solver: {len(losing)} losing states, want {expected}"]
                             if len(losing) != expected else []))
        m["game.losing_states"] = len(losing)
        m["game.solve_retrograde_s"] = tr.total_s("game.solve_retrograde", ["probe"])

        with tr.span("primes.build_prime_gap"):
            primes = build_prime_gap(sieve_limit_for(scale.prime_n_max))
        with tr.span("primes.check_prime_claim"):
            evidence = [check_prime_claim(primes, n) for n in range(3, scale.prime_n_max + 1)]
        failing = [ev.n for ev in evidence if not ev.holds]
        self.tally.record([f"prime claim fails at {failing[:3]}"] if failing else [])
        m["primes.build_prime_gap_s"] = tr.total_s("primes.build_prime_gap", ["probe"])
        m["primes.check_prime_claim_s"] = tr.total_s("primes.check_prime_claim", ["probe"])

        self.check_closed_form(self.beatty_scan(tr, scale.n_max))
        m["sequences.beatty_scan_s"] = tr.total_s("sequences.beatty_scan", ["probe"])
        m["sequences.build_recursive_peak_mb"] = self.peak_mib(build_recursive, scale.n_max)
        m["game.solve_retrograde_peak_mb"] = self.peak_mib(solve_retrograde, scale.game_cap)

        out = self.tmp / "report.json"
        self.cli(scale.verify_args(out), out,
                 lambda: wl.check_verify_json(out, scale), m["verify.verify_all_s"])

    def reconcile(self, run_ids):
        """The self times of a pass's spans must add up to its traced wall time.

        The spans tile the pass, so only the pass's own call overhead may be
        left over: under 1% of the pass, or 5 ms for a short pass that the
        scheduler happens to interrupt outside the root span.
        """
        own = self.tracer.self_ns()
        for rid in run_ids:
            total = sum(own[i] for i, s in enumerate(self.tracer.spans) if s.run_id == rid)
            wall = self.pass_s[rid]
            print(f"# reconcile {rid}: self times {total / 1e9:.6f} s,"
                  f" traced wall {wall:.6f} s")
            if not 0 <= wall - total / 1e9 < max(0.01 * wall, 0.005):
                self.tally.record([f"{rid}: self times {total / 1e9} s != wall {wall} s"])

    def gen_table(self):
        scale = self.scale

        def gen(tr):
            with tr.span("sequences.build_recursive"):
                table = build_recursive(scale.n_max)
            return table.p[1:], self.beatty_scan(tr, scale.n_max)

        def check(result):
            recursive, closed = result
            self.check_closed_form(closed)
            same = recursive == closed
            self.tally.record([] if same else ["recursion and closed form differ"])

        run_ids = self.passes(gen, check)
        tr, m = self.tracer, self.metrics
        m["sequences.build_recursive_s"] = tr.total_s("sequences.build_recursive", run_ids)
        m["sequences.beatty_scan_s"] = tr.total_s("sequences.beatty_scan", run_ids)
        m["sequences.build_recursive_peak_mb"] = self.peak_mib(build_recursive, scale.n_max)

        out = self.tmp / "table.csv"
        compute_s = m["sequences.build_recursive_s"] + m["sequences.beatty_scan_s"]
        self.cli(scale.gen_args(out), out,
                 lambda: wl.check_gen_csv(out, scale, self.seed), compute_s)

    def game_queries(self):
        positions = wl.make_positions(self.seed, self.scale.queries)
        names = {c: (f"game.is_losing.{c}", f"game.best_move.{c}") for c in wl.CLASS_NAMES}

        def queries(tr):
            answers = []
            for cls, x, y in positions:
                losing_name, move_name = names[cls]
                try:
                    with tr.span("game.query"):
                        with tr.span("game.state_of"):
                            state = GameState.of(x, y)
                        with tr.span(losing_name):
                            losing = is_losing(state)
                        if losing:
                            answers.append("L")
                            continue
                        with tr.span(move_name):
                            move = best_move(state)
                except Exception as exc:  # a failed query is counted, not fatal
                    answers.append(f"E {type(exc).__name__}")
                    continue
                answers.append(f"W {move.kind.value} {move.amount}")
            return answers

        def check(answers):
            failed = wl.check_answers(positions, answers)
            self.tally.record([f"{failed} wrong answers"] if failed else [],
                              operations=len(positions), failed=failed)

        self.passes(queries, check)
        tr, m = self.tracer, self.metrics
        for cls, x, y in positions:
            if x != y:
                with tr.span(f"sequences.beatty_p.{cls}"):
                    beatty_p(abs(x - y))
        m["game.state_of_us"] = tr.call_us("game.state_of")
        for cls in wl.CLASS_NAMES:
            m[f"sequences.beatty_p_us.{cls}"] = tr.call_us(f"sequences.beatty_p.{cls}")
            m[f"game.is_losing_us.{cls}"] = tr.call_us(f"game.is_losing.{cls}")
            m[f"game.best_move_us.{cls}"] = tr.call_us(f"game.best_move.{cls}")


def traced_run(workload, scale, seed, seconds, tmp, tally, launcher, meta) -> dict:
    run = TracedRun(scale, seed, seconds, tmp, tally, launcher)
    {"verify-suite": run.verify_suite, "gen-table": run.gen_table,
     "game-queries": run.game_queries}[workload]()
    run.tracer.write(wl.OUT / f"trace-{workload}.jsonl", meta)
    return run.metrics
