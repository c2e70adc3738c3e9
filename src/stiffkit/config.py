"""Process-wide limits for constructors, enumeration loops and block sizes."""

from __future__ import annotations

import os

DEFAULT_SIZE_CAP = 2**22

# bytes of one block of a table computed block by block: 1 MiB, 60 rows of
# the 2160-point code, fits in a 2 MiB L2 cache.  Each stream of blocks
# holds one live block of as many float64 rows as fit, at least one; every
# block size in the package comes from block_rows, which reads this value
# when called, so a test that patches it here sizes every block
BLOCK_BYTES = 1 << 20

ENV_SIZE_CAP = "STIFFKIT_SIZE_CAP"


def block_rows(width: int, blocks: int = 1) -> int:
    """How many rows of `width` float64 entries fit in blocks * BLOCK_BYTES,
    at least 1."""
    return max(1, blocks * BLOCK_BYTES // (8 * width))


class SizeCapExceeded(ValueError):
    """Raised when a construction or enumeration would exceed the cap."""


class BadSizeCap(ValueError):
    """Raised when the cap variable is set to anything but a positive integer."""


def size_cap() -> int:
    """Current cap on generated point counts and enumeration sizes."""
    raw = os.environ.get(ENV_SIZE_CAP)
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise BadSizeCap(f"{ENV_SIZE_CAP} must be a positive integer, got {raw!r}")
    return cap


def check_size(n: int, what: str) -> None:
    cap = size_cap()
    if n > cap:
        raise SizeCapExceeded(
            f"{what} needs {n} items, above the cap {cap}"
            f" (raise {ENV_SIZE_CAP} to override)"
        )
