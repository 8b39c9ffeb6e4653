"""Run one ``gradimpact`` CLI command in a fresh interpreter, as the console script would.

    python3 perfbench/cli_entry.py degrees graph.tgf --semantics hbs

With ``--import-only`` it imports the CLI and exits, which times a trivial
cold invocation.  When ``PERFBENCH_SPANS`` names a file, the layers are
traced and the spans are written there at exit.
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    start = time.perf_counter()
    from gradimpact import cli

    imported = time.perf_counter()
    if sys.argv[1:] == ["--import-only"]:
        return 0
    spans = os.environ.get("PERFBENCH_SPANS")
    if not spans:
        return cli.main(sys.argv[1:])
    import tracer

    trace = tracer.Tracer()
    trace.spans.append(("cli.import", start, imported, -1, 0))
    tracer.install(trace)
    try:
        return cli.main(sys.argv[1:])
    finally:
        trace.write(Path(spans))


if __name__ == "__main__":
    raise SystemExit(main())
