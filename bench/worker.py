"""One benchmark process: set up a workload, then run its script in a closed loop.

Started by run.py, one fresh process per run.  It imports gibbsfactor from
the checkout's src/, generates the workload's inputs from the seed, prints
"ready" (run.py times set-up up to that line) and, unless --setup-only is
given, calls gibbsfactor.cli.main on each command of the script in turn, one
command at a time, repeating the whole script until --seconds have passed.
Each command runs under a time budget; a command that exceeds it or raises
is recorded as such and the loop goes on.  Every command is bracketed by
blocks of calibration units (calibrate.py) that measure the host's speed
around it.  With --trace 1 untraced and traced script runs alternate.  Everything the checks need (exit codes,
distinct stdout texts, timings, counters) goes to results.json in --dir.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


# seconds one CLI command may take before it counts as failed; well above
# the slowest command of any workload (about 1.5 s)
COMMAND_BUDGET_S = 20.0


class CommandTimeout(BaseException):
    """Raised inside a command that ran past its time budget."""


def _on_alarm(signum, frame):
    raise CommandTimeout()


def blas_info() -> dict:
    """OpenBLAS configuration and thread count of the numpy in use."""
    import numpy as np

    info = {"numpy": np.__version__, "blas": "unknown", "blas_threads": -1}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", "_64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                info["blas_threads"] = int(threads())
                info["blas"] = config().decode()
                return info
    return info


def peak_rss_kb() -> int:
    """Peak resident set of this process image, in KiB.

    VmHWM starts afresh at exec; ru_maxrss would also carry the parent's peak
    from before the exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_command(main, argv: list[str], budget: float) -> tuple[int, str, float, str]:
    """(exit code, stdout, seconds, error text) of one in-process CLI call."""
    out = io.StringIO()
    err = io.StringIO()
    error = ""
    signal.setitimer(signal.ITIMER_REAL, budget)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except CommandTimeout:
        code, error = -1, f"exceeded the {budget:g} s budget"
    except SystemExit as exc:
        # the interpreter's own mapping of SystemExit codes to exit statuses
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        code, error = -2, traceback.format_exc()
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), elapsed, error


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, help="work directory for inputs and results")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the first traced run's spans to this file")
    args = ap.parse_args()

    from gibbsfactor import cli

    import calibrate
    import workloads

    manifest = workloads.generate(args.workload, args.seed, args.dir, smoke=args.smoke)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    outputs: dict[str, int] = {}
    iterations = []
    # each command's latest time, which sizes the calibration blocks around it
    last = [0.0] * len(manifest["script"])
    # a traced run needs one untraced and one traced script run at least
    min_iterations = 2 if tracer is not None else 1
    origin = time.perf_counter()
    deadline = origin + args.seconds
    # stop before a script run that would end past the deadline
    while len(iterations) < min_iterations or (
        time.perf_counter() + statistics.median(it["loop_s"] for it in iterations) <= deadline
    ):
        traced = tracer is not None and len(iterations) % 2 == 1
        if traced:
            first = not any(it["traced"] for it in iterations)
            tracer.reset(record_spans=first and args.spans is not None, run_id=len(iterations))
            tracer.install()
        cpu = 0.0
        loop0 = time.perf_counter()
        commands = []
        blocks = []
        for j, argv in enumerate(manifest["script"]):
            blocks.append(calibrate.summary(calibrate.block(max(last[j - 1] if j else 0.0, last[j]))))
            cpu0 = time.process_time()
            code, text, elapsed, error = run_command(cli.main, argv, COMMAND_BUDGET_S)
            cpu += time.process_time() - cpu0
            commands.append([code, outputs.setdefault(text, len(outputs)), elapsed, error])
            last[j] = elapsed
        blocks.append(calibrate.summary(calibrate.block(last[-1])))
        record = {"traced": traced, "wall": sum(c[2] for c in commands), "cpu": cpu,
                  "loop_s": time.perf_counter() - loop0, "commands": commands, "blocks": blocks}
        if traced:
            tracer.uninstall()
            record["counters"] = dict(tracer.count)
            record["edges"] = {f"{p}>{c}": n for (p, c), n in tracer.edges.items()}
            if tracer.spans is not None:
                tracer.write_spans(args.spans, origin)
        iterations.append(record)

    env = blas_info()
    env.update(
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
        peak_rss_kb=peak_rss_kb(),
    )
    results = {
        "manifest": manifest,
        "env": env,
        "outputs": [text for text, _ in sorted(outputs.items(), key=lambda kv: kv[1])],
        "iterations": iterations,
    }
    with open(os.path.join(args.dir, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
