"""Mutation gate: each listed source mutant must be killed by its named tests.

Every entry is (file, exact old text, new text, killing node ids).  For
each entry the script copies ``src/`` to a temporary directory, requires
the old text to occur exactly once in the file, applies the mutant, and
runs each killing node on its own against the mutated copy; every one of
them must fail.  Before that it checks once that all the named nodes pass
on an unmutated copy.  A surviving mutant, an old text that no longer
matches exactly once, or a node that errors instead of failing exits 1.

The entries guard the registry's proofs and their guards: a proof that
passes where its reference rule would fail hides a counterexample, and a
later change that weakens one of the killing tests shows here.  A change
that adds a proof or a guard adds its mutants.  A mutant that survives is
fixed in the tests, not deleted from the list.

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
TESTS = "tests/test_verify.py::"
PROOFS = TESTS + "TestProofs::"

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
    # _offsets' length guard: map stops at the shorter of p and q
    (
        VERIFY,
        "return len(p) == len(q) and all(",
        "return len(p) == len(q) or all(",
        (PROOFS + "test_a_true_proof_leaves_the_reference_nothing",),
    ),
    (
        VERIFY,
        "return len(p) == len(q) and all(",
        "return all(",
        (PROOFS + "test_a_true_proof_leaves_the_reference_nothing",),
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
        "steps = bytes(_steps(p, top))",
        "steps = bytes(_steps(p, top - 1))",
        (PROOFS + "test_no_reference_scan_on_a_genuine_table",),
    ),
    # the last step, p(n_max) - p(n_max - 1), unchecked: only a paired p/q
    # shift at n_max keeps every other fact true
    (
        VERIFY,
        "return p[1] == 1 and steps == marks[1:].translate(_STEP_AFTER)",
        "return p[1] == 1 and steps[:-1] == marks[1:-1].translate(_STEP_AFTER)",
        (PROOFS + "test_paired_shifts_leave_the_compositions_nothing",),
    ),
    # _entries' guard: islice quietly stops at the end of a truncated list
    (
        VERIFY,
        '    if len(values) <= top + offset:\n        raise IndexError(f"no entry {top + offset}")\n',
        "",
        (PROOFS + "test_a_true_proof_leaves_the_reference_nothing",),
    ),
    # a memo that settles every identity unseen
    (
        VERIFY,
        "    return shared[proof]\n",
        "    return True\n",
        (TESTS + "TestFaultInjection",),
    ),
    # L2 off the proof path: its own loop runs on a genuine table
    (
        VERIFY,
        "    if _settled(_step_proof, table, n_max, shared):\n        return 1, top, []\n",
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
    # the prime proof's guards: a short prime list, and a composite index
    # below 0 that would wrap onto the last entry
    (
        VERIFY,
        '    if len(primes) < top:\n        raise IndexError(f"no prime {top}")\n',
        "",
        (PROOFS + "test_prime_proof_refuses_a_corrupted_table",),
    ),
    (
        VERIFY,
        '    if min(map(sub, islice(primes, 2, top), count(5)), default=0) < 0:\n'
        '        raise ValueError("a composite index below 1")\n',
        "",
        (PROOFS + "test_prime_proof_refuses_a_corrupted_table",),
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
        for number, (file, old, new, killers) in enumerate(MUTANTS, 1):
            try:
                _copy(tree, (file, old, new))
            except LookupError as exc:
                failures.append(f"mutant {number}: {exc}")
                survivors.add(number)
                continue
            for node in killers:
                code = _pytest(tree, [node])
                # 1 is a test failure; 0 a survivor; anything else an error
                if code != 1:
                    verdict = "survives" if code == 0 else f"errors (pytest exit {code})"
                    failures.append(f"mutant {number} {verdict} in {node}")
                    survivors.add(number)
    for line in failures:
        print(line)
    elapsed = time.perf_counter() - start
    killed = len(MUTANTS) - len(survivors)
    print(f"{killed} of {len(MUTANTS)} mutants killed in {elapsed:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
