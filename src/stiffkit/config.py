"""Process-wide limits for constructors, enumeration loops and block sizes."""

from __future__ import annotations

import os

DEFAULT_SIZE_CAP = 2**22

# bytes of one block of a table computed block by block: 1 MiB, 60 rows of
# the 2160-point code, fits in a 2 MiB L2 cache.  Each stream of blocks
# holds one live block.  Its users: the Gram row blocks of the pair sums
# (design._gram_parts, whose parts are counted in place); the descent's
# rows x code tables (potential._evaluate, a dot table and one scratch
# table) and its Newton stack (potential._newton_steps: rows x d^2 floats
# for a block of starts of minimize_potential, which holds as many as fit
# in 4 BLOCK_BYTES, 1083 at d = 22); and the stream codes.dot_blocks,
# whose block is its product buffer, which raw_dots collects and which the
# survivor certification, the frequency rows, the double-dual check,
# verify_universal_minimum's m-check and the scans' widths read block by
# block; the float dual's residuals take blocks of candidates of the same
# size (stiffness.dual_search)
BLOCK_BYTES = 1 << 20

ENV_SIZE_CAP = "STIFFKIT_SIZE_CAP"


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
