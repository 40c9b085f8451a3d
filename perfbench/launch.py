"""One untraced repeat: import the CLI and run it, as the console script would.

Usage: python3 launch.py TIMINGS.json ARG...

Writes ``{"setup_s": ..., "call_s": ..., "peak_rss_kib": ...}`` to
TIMINGS.json: the time to import ``fuzzysoft.cli``, the time spent in
``run_cli(ARG...)``, and the peak resident memory of this process.  The
exit code is the CLI's.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    from fuzzysoft.cli import run_cli
    imported = perf_counter()
    code = run_cli(argv)
    done = perf_counter()
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"setup_s": imported - start, "call_s": done - imported,
                   "peak_rss_kib": peak_rss_kib()}, handle)
    return code


def peak_rss_kib() -> int:
    """High-water RSS of this address space (VmHWM).

    Not ``ru_maxrss``: after fork and exec that also counts the parent's
    high-water mark, so a large benchmark process would hide the CLI's.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main())
