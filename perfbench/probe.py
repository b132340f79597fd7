"""Fresh-interpreter probe: import gp2, run the CLI once, report peak RSS.

    python3 probe.py <src dir> [flags] <program file> <host file>

Prints one JSON line: import and run time, exit code, the captured
output, and the peak resident set size after the run.  It imports
nothing but gp2, so the memory figure is the CLI's own.

The peak is ``VmHWM`` from ``/proc/self/status``, the high-water mark
of this process's own address space.  ``ru_maxrss`` would not do: Linux
keeps it across ``execve`` from the process that started the probe, so
it reports the benchmark process's peak whenever that is the larger (a
child of a 150 MiB process read 164 MiB there and 13 MiB here).
"""

import contextlib
import io
import json
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(src: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import gp2.cli
    t1 = time.perf_counter()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gp2.cli.main(argv)
    t2 = time.perf_counter()
    print(json.dumps({
        "import_s": t1 - t0, "run_s": t2 - t1, "exit_code": code,
        "rss_kb": peak_rss_kb(), "output": out.getvalue(), "diagnostic": err.getvalue(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
