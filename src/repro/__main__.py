"""``python -m repro`` entry point."""

import os
import sys

from .cli import main


def _run() -> int:
    """:func:`main`, ending with exit 1 and no traceback when the reader
    closes stdout early (``python -m repro datasets | head -1``)."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, inside the try
    except BrokenPipeError:
        # Python flushes stdout again at exit; send that flush to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(_run())
