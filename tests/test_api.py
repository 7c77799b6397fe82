"""The public surface: the names ``wythoff`` exports, what importing it loads, and the
documented example."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wythoff

from child_env import child_env

ROOT = Path(__file__).resolve().parents[1]

# Removing a name here is an API break: bump ``wythoff.__version__``.
PUBLIC_NAMES = [
    "CapacityError",
    "Classification",
    "Counterexample",
    "GameState",
    "IDENTITY_IDS",
    "Identity",
    "IllegalMoveError",
    "Membership",
    "Move",
    "MoveKind",
    "NoWinningMoveError",
    "Outcome",
    "PairTable",
    "PrimeClaimEvidence",
    "PrimeGapTable",
    "REGISTRY",
    "RangeError",
    "RetrogradeTable",
    "SeqKind",
    "UnknownIdentityError",
    "VerificationReport",
    "WythoffError",
    "__version__",
    "apply_move",
    "beatty_p",
    "beatty_q",
    "best_move",
    "build_prime_gap",
    "build_recursive",
    "check_prime_claim",
    "classify_closed_form",
    "fault_injected_reports",
    "is_losing",
    "legal_moves",
    "report_text",
    "sieve_limit_for",
    "solve_retrograde",
    "verify_all",
    "verify_identity",
]


def test_public_names_are_pinned():
    assert sorted(wythoff.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in wythoff.__all__:
        assert getattr(wythoff, name) is not None, name


def _fresh(code: str) -> str:
    """What code prints in a fresh interpreter that imports this package."""
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
        check=True,
    ).stdout


@pytest.mark.parametrize(
    "module, unloaded",
    [
        ("wythoff.game", {"wythoff.verify", "wythoff.primes", "wythoff.cli", "click"}),
        ("wythoff.cli", {"wythoff.verify", "wythoff.game", "wythoff.primes"}),
    ],
    ids=["game", "cli"],
)
def test_import_loads_only_what_it_runs(module, unloaded):
    # the game API and the CLI's startup never compile the identity registry
    loaded = _fresh(f"import sys, {module}; print(*sys.modules)").split()
    assert not unloaded & set(loaded)


def test_dir_lists_names_not_loaded_yet():
    code = "import wythoff\nfrom wythoff import verify_all\n"
    code += "print(*set(wythoff.__all__) - set(dir(wythoff)))"
    assert _fresh(code) == "\n"


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_documented_example_runs(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    imported = {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "wythoff"
        for alias in node.names
    }
    assert imported <= set(wythoff.__all__)
    exec(compile(block, doc, "exec"), {})
