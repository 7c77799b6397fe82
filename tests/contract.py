"""Byte contract: each pinned output must keep its sha256.

Every case is (name, python arguments, sha256 of its stdout).  Each runs
in its own subprocess with the package imported from this checkout's
``src/``, and the script prints one line per case.  A digest that does
not match, or a nonzero exit, fails the case, and any failed case exits
1.  A case that exits nonzero shows the last line of its stderr.

The registry json at 2x10^5 is checked three ways, all against one
digest: forked as ``verify_all`` runs by default; inline, with
``os.fork`` deleted; and with every proof refused, so each report comes
from the per-n reference rules and an identity stated wrongly yet
settled by a shared proof shows.  The full-scale json, the
fault-injection counterexamples, the 10^6-row ``gen --method both``
csv, both as the CLI writes it by default, its upper half in a forked
child, and with ``os.fork`` deleted, so one process writes both halves,
the 10^6-row ``gen`` table and the 600,000-row ``primes`` csv, near the
sieve's bound, follow.

Run from anywhere:

    python tests/contract.py

The file name keeps pytest from collecting it.  Only the standard library
is imported here.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REGISTRY_200K = [
    "verify", "--all", "--n-max", "200000", "--game-cap", "300",
    "--prime-n-max", "10000", "--format", "json",
]
REGISTRY_200K_SHA256 = "d44e64de70adc1aeacea3c3807fc65c20367d8864bb8b4d8eb2854752f796c83"

GEN_1M = ["gen", "--n-max", "1000000", "--method", "both", "--format", "csv"]
GEN_1M_SHA256 = "76c34356e0491cc2fb0ecf61675d45ab5c6243f831b56b653bd5829c1b227eb2"

# Runs the CLI on args after the given setup lines.
_CLI_AFTER = """\
{setup}
import wythoff.cli
wythoff.cli.main({args!r})
"""

_FAULTS = """\
import json, sys
from wythoff import fault_injected_reports
cases = [(1, 1), (17, -1), (100000, 1), (123456, -2), (199999, 7)]
reports = [[r.to_dict() for r in fault_injected_reports(200000, i, d)] for i, d in cases]
sys.stdout.write(json.dumps(reports))
"""

CASES = (
    (
        "registry json at 2x10^5, forked",
        ["-m", "wythoff.cli", *REGISTRY_200K],
        REGISTRY_200K_SHA256,
    ),
    (
        "registry json at 2x10^5, without os.fork",
        ["-c", _CLI_AFTER.format(setup="import os\ndel os.fork", args=REGISTRY_200K)],
        REGISTRY_200K_SHA256,
    ),
    (
        "registry json at 2x10^5, every proof refused",
        [
            "-c",
            _CLI_AFTER.format(
                setup="import wythoff.verify\nwythoff.verify._proved = lambda *args: False",
                args=REGISTRY_200K,
            ),
        ],
        REGISTRY_200K_SHA256,
    ),
    (
        "registry json at full scale",
        [
            "-m", "wythoff.cli", "verify", "--all", "--n-max", "1000000",
            "--game-cap", "2000", "--prime-n-max", "100000", "--format", "json",
        ],
        "78c01ce22000caeea04140e6cad6831bf9d7086e5cbee9b865cc84e858ef43ed",
    ),
    (
        "fault-injection counterexamples at 2x10^5",
        ["-c", _FAULTS],
        "f03e8662856f12ab493b14a095bdc6b4bd13b31a2dc264dfcb84c5a626930c4b",
    ),
    (
        "gen --method both csv at 10^6",
        ["-m", "wythoff.cli", *GEN_1M],
        GEN_1M_SHA256,
    ),
    (
        "gen --method both csv at 10^6, without os.fork",
        ["-c", _CLI_AFTER.format(setup="import os\ndel os.fork", args=GEN_1M)],
        GEN_1M_SHA256,
    ),
    (
        "gen table at 10^6",
        ["-m", "wythoff.cli", "gen", "--n-max", "1000000", "--format", "table"],
        "123e80f43a642733d583ca5ce725d6aba07759ffdfac15d52c4a6584938243be",
    ),
    (
        "primes csv at 600,000",
        ["-m", "wythoff.cli", "primes", "--n-max", "600000", "--format", "csv"],
        "fc3fd66a3b44f4a0da5ea33a85c4ec8eda10350c6cfdd0625279369f054bab5d",
    ),
)


def _run(args: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout sha256 and last stderr line of python with args, importing this src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
    )
    last = done.stderr.decode(errors="replace").strip().rpartition("\n")[2]
    return done.returncode, hashlib.sha256(done.stdout).hexdigest(), last


def main() -> int:
    failed = 0
    for name, args, want in CASES:
        start = time.perf_counter()
        code, got, last = _run(args)
        elapsed = time.perf_counter() - start
        if code != 0:
            verdict = f"FAILED, exit {code}: {last}"
        elif got != want:
            verdict = f"FAILED, sha256 {got} != pinned {want}"
        else:
            verdict = "ok"
        failed += verdict != "ok"
        print(f"{name}: {verdict} ({elapsed:.1f} s)", flush=True)
    print(f"{len(CASES) - failed} of {len(CASES)} cases hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
