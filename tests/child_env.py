"""The environment for a test's python subprocess.

The source tree the tests import ``wythoff`` from goes first on
``PYTHONPATH``, so the subprocess runs the same package, a mutated copy
under ``tests/mutants.py`` among them.
"""

import os
from pathlib import Path

import wythoff


def child_env() -> dict[str, str]:
    """os.environ with this package's source tree first on PYTHONPATH."""
    src = str(Path(wythoff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
