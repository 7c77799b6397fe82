"""Golden snapshot of the bit-stable outputs and the fault-injection verdicts.

Pins the sha256 of CLI outputs (each written with ``--out``): the
machine formats, and the table format of ``gen``, ``error-term`` and
``primes``, also at one to three rows; the set of failed reports for a grid of single-entry
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
    # 1-, 2- and 3-row outputs: a split of the rows into two halves leaves
    # the upper one empty or one row long
    (
        "gen --n-max 1 --method both --format csv",
        "c7587616939536d18a0a84d14ecdddd92852c1870cd40e2ff3709eb31848c116",
    ),
    (
        "gen --n-max 2 --method both --format csv",
        "1e6cdc16d18254346fbcec0a1d84b11f52f513566df18fa9b056394f329d9fb6",
    ),
    (
        "gen --n-max 3 --method both --format csv",
        "7fb0d869bafd77a72788f3e59775e99ec5ec95ce26df5d55d588d052ea913dbb",
    ),
    (
        "error-term --n-max 1 --format csv",
        "2bbd06e3d62c1e2279a5565eb0a695e746da2580764dcd29ec149ce2b8298803",
    ),
    (
        "error-term --n-max 2 --format csv",
        "e7050f17a7e071c6bc699c2ba17f6d9bd9b7fabbc2feb39cc9a950b3bbfe7e27",
    ),
    (
        "primes --n-max 3 --format csv",
        "97ae22bfd3c2cfa29566e6e01fc821009e17a5de69d5ecd68b83f2504982dc82",
    ),
    (
        "primes --n-max 4 --format csv",
        "28bde7dfd05137b3879ec0be5434e86e23ca529943538f6317f6f895c4db75e0",
    ),
    (
        "gen --n-max 1 --method both --format json",
        "2e5fd9d87de7b87346cd2723110d724b0dc2b9c00413a3747524dc15bf33d2dc",
    ),
    (
        "gen --n-max 2 --method both --format json",
        "aa705805f9b0c086671fdb51845557bcaff3efcf95746473a21fd93959d92c35",
    ),
    (
        "gen --n-max 3 --method both --format json",
        "9e6a6dfb922e071c74c31e3f5dcd3ece1e84a188b29273c6839c898e40d07fd7",
    ),
    (
        "error-term --n-max 1 --format json",
        "f2b6a53a9c58720a19a9dd37af11cc545c408572db72acac76412ebe0f30237f",
    ),
    (
        "error-term --n-max 2 --format json",
        "0f1c3e2ff4dd1d2d3349e3c03606fabf75404a8a185cee04927c06860ebc8b20",
    ),
    (
        "primes --n-max 3 --format json",
        "795fc71b9fa13d0fcf17ed2449152cb76a62b4a54204b3857d66be6d7b65e796",
    ),
    (
        "primes --n-max 4 --format json",
        "2c0da3326e84f3a9f77303d6bfcb80aa9ee3f7fa2c5816c70254bc75a823ba16",
    ),
    (
        "gen --n-max 1 --method both --format table",
        "59d976f538cbe1d7746a4cf18ab6260aac4e32c8a616ec93a5e18654f0a4b4ca",
    ),
    (
        "gen --n-max 2 --method both --format table",
        "91ca5596ee8d326cb75d40da8a454ddcf5b224b8480802b213e928101215d346",
    ),
    (
        "gen --n-max 3 --method both --format table",
        "95fbf31cbb32e98a3b4d96489f7de6df468243d9db04773af5c176dbc8473c91",
    ),
    (
        "error-term --n-max 1 --format table",
        "7195f58e3baa7b063ec2bfb8a7a1ecf675cfd696f227169358dd7a5a3bc65498",
    ),
    (
        "error-term --n-max 2 --format table",
        "973e46fa2fbb4a692ea6483e7f67a72958140d817ebb441b169f3ced3ebdafa9",
    ),
    (
        "primes --n-max 3 --format table",
        "41290eaec9acf4d0973757aa7dbe6dae88f4f997eee994b4ffa263bbc353cde9",
    ),
    (
        "primes --n-max 4 --format table",
        "28c22019b0649b072f5d613227f8c893d123e0749e4bf32f450c03e6934f682b",
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
