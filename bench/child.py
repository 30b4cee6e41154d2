"""One measured uqseg command in a fresh interpreter.

Usage: python child.py TIMING_JSON [--spans SPANS_JSON] -- UQSEG_ARGS...

Imports ``uqseg.cli`` and calls ``main(UQSEG_ARGS)``, the code path of the
``uqseg`` console script. TIMING_JSON receives ``time.perf_counter`` stamps
(CLOCK_MONOTONIC, so the parent can compare them with its own) for "ready"
(the CLI module imported), "main_start" and "main_end", the return code
and the process's peak RSS. With ``--spans`` the tracer is installed after "ready" and the spans
are written to SPANS_JSON; the stamps then include the tracing cost.
"""

import sys
import time


def peak_rss_kib():
    """High-water RSS of this process since exec (VmHWM).

    The rusage ``ru_maxrss`` a parent collects with ``wait4`` starts from
    the parent's own high-water mark at spawn on Linux, so it cannot tell
    a 100 MiB child of a 500 MiB parent from a 500 MiB child.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv):
    sep = argv.index("--")
    options, cli_args = argv[:sep], argv[sep + 1 :]
    timing_path = options[0]
    spans_path = options[2] if options[1:2] == ["--spans"] else None

    import uqseg.cli

    ready = time.perf_counter()
    entry = uqseg.cli.main
    recorder = None
    if spans_path:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
        entry = recorder.wrap("cli.main", entry)
    start = time.perf_counter()
    rc = entry(cli_args)
    end = time.perf_counter()

    import json

    stamps = {"ready": ready, "main_start": start, "main_end": end, "rc": rc}
    stamps["peak_rss_kib"] = peak_rss_kib()
    with open(timing_path, "w") as f:
        json.dump(stamps, f)
    if recorder is not None:
        recorder.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
