"""``python -m hdcca`` and the ``hdcca`` console script: the CLI in a process of its own."""

import os

# numpy's OpenBLAS worker busy-waits for about 0.1 s (2^28 cycles) after it loads and after each
# threaded call before it sleeps, so a short CLI process burns a second core on the spin.  The
# shortest timeout (2^4 cycles) keeps the thread count, so every result bit; a value already set is
# kept.  OpenBLAS reads it once, when numpy loads, hence before `cli`.  The library leaves it alone:
# back-to-back calls in one process (a Monte Carlo loop) run faster with the spinning worker.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
