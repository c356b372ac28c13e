"""One traced ``hdcca`` CLI call in a fresh interpreter.

Usage: python3 traced_cli.py SPANS_JSON HDCCA_ARGS...

Times ``import hdcca.cli``, wraps every layer's public functions, calls
``hdcca.cli.main`` in-process, writes the spans to SPANS_JSON and exits
with main's exit code.
"""

import json
import sys
import time

t0 = time.perf_counter()
import hdcca.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracing import Tracer  # noqa: E402

if __name__ == "__main__":
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        rc = hdcca.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    sys.exit(rc)
