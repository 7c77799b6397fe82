"""Golden snapshot of the bit-stable outputs and the fault-injection verdicts.

Pins the sha256 of CLI outputs (each written with ``--out``): the
machine formats, and the table format of ``gen``, ``error-term`` and
``primes``; the set of failed reports for a grid of single-entry
corruptions; and the full counterexample lists for the positive-delta
corruptions.  Any refactor of the registry or the CLI must leave all of
them unchanged.  Table-format ``verify`` output carries timings, so it
is not pinned.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from wythoff import fault_injected_reports
from wythoff.cli import main

CLI_DIGESTS = [
    (
        "verify --all --n-max 2000 --game-cap 60 --prime-n-max 500 --format json",
        "8ca1facc9dc7a9009400714d4019d5bba7ea1e9bb3c474f2e3107304f8927d9e",
    ),
    (
        "verify --all --n-max 300 --game-cap 40 --prime-n-max 30 --format json",
        "d8f6f6222a44060d36a6c73689a077cf1e40204f63edc208d79a3c8c19e79197",
    ),
    (
        "verify --all --n-max 2000 --game-cap 60 --prime-n-max 500 --format csv",
        "12a8efeec50aac86f3f3ef560b4a23f9e64038d9814539aa12058713cd5ef787",
    ),
    (
        "gen --n-max 2000 --method both --format csv",
        "7f2b54d4bef689733a2a0cafef1539d367171bd0bc7b906deab8757445c92188",
    ),
    (
        "error-term --n-max 2000 --format csv",
        "216b3edd5a6c99c674233acae8f13e21490dcdbfb8991a09bab40abc1487690a",
    ),
    (
        "gen --n-max 2000 --method both --format table",
        "fe02652b5a957d95dbe9a1dc5b00bc28cae33d4f93cea717abd7fed52a39e431",
    ),
    (
        "error-term --n-max 2000 --format table",
        "cec06591aa64d2c8672a0d4acf59801c419bf477b6a356b1cacc5f8ca62dc282",
    ),
    (
        "primes --n-max 500 --format table",
        "ed946612a4e3d9b2d65907b8673afeb9d4dbdc92d8e0b89d94b1dc3bef836fdc",
    ),
]

# failed table identities of fault_injected_reports(1000, index, delta)
FLIP_SETS = {
    (1, -2): "L2 L3 L4 C-qp L-pq C-pair C-final L-E E-zero",
    (1, -1): "L2 L3 L4 C-qp L-pq C-pair C-final E-zero",
    (1, 1): "L2 C-no3p L4 L5 C3 C-qp L-pq C-pair C-final E-zero",
    (1, 2): "L1 L2 L3 L4 C3 C-qp L-pq C-pair C-final L-E E-zero",
    (1, 7): "L1 L2 L3 L4 L5 C3 C-qp L-pq C-pair C-final L-E E-zero",
    (17, -2): "L1 L2 L3 L4 L5 C3 C-qp L-pq C-pair C-final L-E E-zero",
    (17, -1): "L2 L3 C-no3p L4 L5 C3 C-qp L-pq C-pair C-final E-zero",
    (17, 1): "L2 L3 C-no3p L4 L5 C3 C-qp L-pq C-pair C-final E-zero",
    (17, 2): "L1 L2 L3 L4 L5 C3 C-qp L-pq C-pair C-final L-E E-zero",
    (17, 7): "L1 L2 L3 L4 L5 C3 C-qp L-pq C-pair C-final L-E E-zero",
    (40, -2): "L1 L2 L3 L4 L5 C3 C-qp L-pq C-pair C-final L-E E-zero",
    (40, -1): "L1 L2 L3 L4 L5 C3 C-qp L-pq C-pair C-final E-zero",
    (40, 1): "L2 C-no3p L4 L5 C3 C-qp L-pq C-pair C-final E-zero",
    (40, 2): "L1 L2 L3 L4 L5 C3 C-qp L-pq C-pair C-final L-E E-zero",
    (40, 7): "L1 L2 L3 L4 L5 C3 C-qp L-pq C-pair C-final L-E E-zero",
    (300, -2): "L1 L2 L3 L4 L5 C3 C-qp L-pq C-pair C-final L-E E-zero",
    (300, -1): "L2 L3 C-no3p L4 L5 C3 C-qp L-pq C-pair C-final E-zero",
    (300, 1): "L2 L3 C-no3p L4 L5 C3 C-qp L-pq C-pair C-final E-zero",
    (300, 2): "L1 L2 L3 L4 L5 C3 C-qp L-pq C-pair C-final L-E E-zero",
    (300, 7): "L1 L2 L3 L4 L5 C3 C-qp L-pq C-pair C-final L-E E-zero",
    (618, -2): "L1 L2 L3 L4 L5 C3 C-qp L-E E-zero",
    (618, -1): "L1 L2 L3 L4 L5 C3 C-qp E-zero",
    (618, 1): "L2 L4 L5 C3 C-qp E-zero",
    (618, 2): "L1 L2 L3 L4 L5 C3 L-E E-zero",
    (618, 7): "L1 L2 L3 L4 L5 C3 L-E E-zero",
    (1000, -2): "L1 L2 L3 L5 C3 L-pq C-pair C-final L-E E-zero",
    (1000, -1): "L2 L5 C3 L-pq C-pair C-final E-zero",
    (1000, 1): "L2 L3 L5 C3 L-pq C-pair C-final E-zero",
    (1000, 2): "L2 L3 L5 C3 L-pq C-pair C-final L-E E-zero",
    (1000, 7): "L2 L3 L5 C3 L-pq C-pair C-final L-E E-zero",
    (617, 5000): "L1 L2 L3 L5 C3 L-pq C-pair C-final L-E E-zero",
    (999, 5000): "L1 L2 L3 L4 L5 C3 L-E E-zero",
}

# sha256 of the sorted-key JSON of {"index,delta": [counterexample dicts
# per table identity]} over the positive-delta cases of FLIP_SETS
COUNTEREXAMPLES_DIGEST = "1e2b73b7bd1693065e53d4192a65e1735f83ff96a788e84c82c6650c4d876800"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command,digest", CLI_DIGESTS, ids=[c for c, _ in CLI_DIGESTS])
def test_cli_output_bytes(command, digest, tmp_path):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, command.split() + ["--out", str(out)])
    assert result.exit_code == 0, result.output
    assert sha256(out.read_bytes()) == digest


def test_fault_injection_flip_sets():
    actual = {
        case: " ".join(
            r.identity_id for r in fault_injected_reports(1000, *case) if not r.passed
        )
        for case in FLIP_SETS
    }
    assert actual == FLIP_SETS


def test_fault_injection_counterexamples():
    lists = {
        f"{index},{delta}": [
            r.to_dict()["counterexamples"]
            for r in fault_injected_reports(1000, index, delta)
        ]
        for index, delta in FLIP_SETS
        if delta > 0
    }
    blob = json.dumps(lists, sort_keys=True).encode()
    assert sha256(blob) == COUNTEREXAMPLES_DIGEST
