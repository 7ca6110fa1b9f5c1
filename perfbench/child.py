"""One fresh benchmark process: import the package, run ``cli.main``, report.

Usage: python3 child.py SRC RESULT_JSON {plain|traced|import} [CLI ARGS...]

Set-up time runs from process start to a finished ``import
smaa_promethee.cli``: the parent reads the monotonic clock just before it
spawns this process and subtracts that from the reading taken here once
the import is done (on Linux both read the system-wide CLOCK_MONOTONIC).
``import`` mode stops there. The result file gets the import-done clock,
the wall time of ``cli.main``, its exit code, the peak resident memory
and, when traced, every span.
"""

import sys
import time


def main() -> None:
    src, result_path, mode, *cli_args = sys.argv[1:]
    sys.path.insert(0, src)
    import smaa_promethee.cli

    imported = time.monotonic()

    import json
    import os
    import resource

    record = {"imported": imported,
              "module": os.path.realpath(smaa_promethee.__file__)}
    if mode != "import":
        tracer = None
        if mode == "traced":
            from spans import Tracer, install

            tracer = Tracer()
            install(tracer)
        start = time.perf_counter()
        if tracer is None:
            code = smaa_promethee.cli.main(cli_args)
        else:
            code = tracer.run("main", smaa_promethee.cli.main, cli_args)
        record["run_s"] = time.perf_counter() - start
        record["exit"] = code
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            record["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
