import os
import subprocess
import sys
from pathlib import Path

import identity

SCRIPT = Path(identity.__file__)


def test_digest_is_the_same_in_process_and_under_another_hash_seed():
    # The child runs beside the two in-process digests; it prints the
    # digest of the checkout that holds the script.
    child = subprocess.Popen(
        [sys.executable, "-W", "error", str(SCRIPT)],
        env={**os.environ, "PYTHONHASHSEED": "12345"},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        first, second = identity.digest(), identity.digest()
    finally:
        out, err = child.communicate(timeout=300)
    assert child.returncode == 0, err
    assert first == second == out.strip()
