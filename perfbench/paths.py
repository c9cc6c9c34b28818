"""Where the benchmark finds the program and its own committed inputs."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
AUDIT_DIR = HERE / "audit_plans"


def use_checkout_sources() -> None:
    """Import tetherplan from this checkout's src/, never from elsewhere.

    Exits with code 2 when the checkout holds no tetherplan sources, so
    the benchmark cannot silently measure an installed copy.
    """
    if not (SRC / "tetherplan" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tetherplan sources under {SRC}")
    sys.path.insert(0, str(SRC))
