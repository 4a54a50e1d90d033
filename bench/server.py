"""Operation server: imports ``qvlcode.cli`` once, then runs each requested
command in a fresh forked child, so every operation starts with the
program's caches empty, as a command-line user's process does.

Protocol (JSON lines): on start the server prints ``{"ready": ...}``.  Each
request line ``{"argv": [...], "trace": bool, "timeout": int}`` is answered
with one line ``{"rc", "stdout", "stderr", "elapsed", "maxrss_kb", "trace"}``.
A child still running after ``timeout`` seconds is killed and answered with
rc 124.  The server exits when its standard input closes.  Run by ``bench/run.py``;
the orchestrator sets ``PYTHONPATH`` to the checkout's ``src``.
"""

from __future__ import annotations

import io
import json
import os
import signal
import sys
import time
import traceback


def _run_child(argv: list[str], trace: bool, main) -> dict:
    out, err = io.StringIO(), io.StringIO()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    clock = tracer.now if tracer else time.perf_counter
    sys.stdout, sys.stderr = out, err
    try:
        t0 = clock()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error is the user's traceback, exit 1
            traceback.print_exc(file=err)
            rc = 1
        elapsed = clock() - t0
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    return {
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "elapsed": elapsed,
        "trace": tracer.export() if tracer else None,
    }


def run_forked(argv: list[str], trace: bool, timeout: int, main) -> dict:
    """Run ``main(argv)`` in a forked child; return its result and peak RSS."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 0
        try:
            signal.alarm(timeout)
            payload = json.dumps(_run_child(argv, trace, main)).encode()
            with os.fdopen(wfd, "wb") as fh:
                fh.write(payload)
        except BaseException:
            code = 70
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if not data or os.waitstatus_to_exitcode(status) != 0:
        timed_out = os.waitstatus_to_exitcode(status) == -signal.SIGALRM
        return {"rc": 124 if timed_out else 70, "elapsed": 0.0, "maxrss_kb": usage.ru_maxrss, "trace": None,
                "stdout": "", "stderr": f"timed out after {timeout} s" if timed_out else "operation child died"}
    result = json.loads(data)
    result["maxrss_kb"] = usage.ru_maxrss
    return result


def main() -> int:
    src = os.path.realpath(os.environ.get("BENCH_SRC", ""))
    try:
        from qvlcode import cli
    except ImportError as exc:
        print(f"server: cannot import qvlcode: {exc}", file=sys.stderr)
        return 1
    origin = os.path.realpath(cli.__file__)
    if not src or not origin.startswith(src + os.sep):
        print(f"server: qvlcode imported from {origin}, not from {src}", file=sys.stderr)
        return 1
    print(json.dumps({"ready": origin}), flush=True)
    for line in sys.stdin:
        if not line.strip():
            continue
        req = json.loads(line)
        print(json.dumps(run_forked(req["argv"], req["trace"], req["timeout"], cli.main)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
