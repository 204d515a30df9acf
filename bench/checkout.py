"""Locate the checkout the benchmark runs in and import sfsplace from it.

The benchmark always measures the source tree next to it, never an
installed copy, so it refuses to run when `src/sfsplace` is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


class CheckoutError(Exception):
    """The directory holds no sfsplace source tree to measure."""


def use_checkout_source():
    """Put the checkout's `src` first on sys.path and import sfsplace from it."""
    if not (SRC / "sfsplace" / "__init__.py").is_file():
        raise CheckoutError("no sfsplace source tree at %s" % (SRC / "sfsplace"))
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import sfsplace

    if Path(sfsplace.__file__).resolve().parent != SRC / "sfsplace":
        raise CheckoutError("imported sfsplace from %s, not the checkout" % sfsplace.__file__)
    return sfsplace
