"""``python -m sectorsum.cli`` with span tracing, for the traced run of
cli-configs.

    cli_child.py TRACE_DIR CLI_ARGS...

Runs ``sectorsum.cli.main(CLI_ARGS)`` with every layer wrapped and
writes the span summary (``<pid>.json``) and the spans (``<pid>.npz``)
to TRACE_DIR at exit; the exit code and any traceback are the CLI's own.
"""

import json
import os
import sys


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    import sectorsum.cli

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        return sectorsum.cli.main(argv)
    finally:
        tracer.enabled = False
        os.makedirs(trace_dir, exist_ok=True)
        base = os.path.join(trace_dir, str(os.getpid()))
        with open(base + ".json", "w") as fh:
            json.dump(tracer.summary(), fh)
        tracer.save(base + ".npz")


if __name__ == "__main__":
    sys.exit(main())
