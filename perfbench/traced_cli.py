"""Run one `sessionterms` command with layer tracing on.

    python3 perfbench/traced_cli.py RUN_ID SPANS_JSON <sessionterms arguments>

The command runs exactly as `python3 -m sessionterms.cli <arguments>`
does; its spans are written to SPANS_JSON when it ends.
"""

import sys
import time

import_start = time.perf_counter_ns()
from sessionterms import cli  # noqa: E402

import_end = time.perf_counter_ns()

from tracer import Tracer  # noqa: E402


def main():
    run_id, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(run_id)
    tracer.spans.append([tracer.name_id("cli.import"), import_start, import_end, -1])
    tracer.install()
    rc = cli.main(argv)
    tracer.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
