"""Complementary golden-ratio sequences, the take-away game they solve,
a prime analogue, and a machine-checked identity suite.

Each public name loads its module on first use (PEP 562), so
``import wythoff.game`` loads only ``errors``, ``sequences`` and ``game``.
"""

from importlib import import_module

__version__ = "0.2.0"

# each public name, under the module that defines it
_EXPORTS = {
    "errors": (
        "CapacityError",
        "IllegalMoveError",
        "NoWinningMoveError",
        "RangeError",
        "UnknownIdentityError",
        "WythoffError",
    ),
    "game": (
        "Classification",
        "GameState",
        "Move",
        "MoveKind",
        "Outcome",
        "RetrogradeTable",
        "apply_move",
        "best_move",
        "classify_closed_form",
        "is_losing",
        "legal_moves",
        "solve_retrograde",
    ),
    "primes": (
        "PrimeClaimEvidence",
        "PrimeGapTable",
        "build_prime_gap",
        "check_prime_claim",
        "sieve_limit_for",
    ),
    "sequences": ("Membership", "PairTable", "SeqKind", "beatty_p", "beatty_q", "build_recursive"),
    "verify": (
        "IDENTITY_IDS",
        "REGISTRY",
        "Counterexample",
        "Identity",
        "VerificationReport",
        "fault_injected_reports",
        "report_text",
        "verify_all",
        "verify_identity",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    """Import the module defining a public name, then keep the name here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
