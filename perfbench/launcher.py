"""Starts the benchmark's child processes from a small helper process.

Linux keeps a process's peak RSS across exec, and a child started with
fork or vfork begins with its parent's: a child of the benchmark
process, which holds references and maps large inputs, would report at
least that peak as its own `ru_maxrss`. The helper is forked before
numpy loads and never grows, so the rusage `wait4` returns for each
child is the child's own. Only the standard library is used here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import traceback
from time import perf_counter


def spawn(cmd: list[str], env: dict, log: str, timeout: float) -> dict:
    """Run one child to completion: its wall time, CPU time, peak RSS and exit code."""
    with open(log, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "returncode": proc.returncode}


class Launcher:
    """A forked helper that runs `spawn` requests one at a time.

    Create it before the process grows; `close` ends it and waits for it.
    """

    def __init__(self):
        request_r, request_w = os.pipe()
        result_r, result_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:  # the helper: serve until the request pipe closes
            os.close(request_w)
            os.close(result_r)
            code = 0
            try:
                with os.fdopen(request_r) as requests, os.fdopen(result_w, "w") as results:
                    for line in requests:
                        results.write(json.dumps(spawn(**json.loads(line))) + "\n")
                        results.flush()
            except BaseException:  # report, then leave without running the parent's cleanup
                traceback.print_exc()
                code = 1
            finally:
                os._exit(code)
        os.close(request_r)
        os.close(result_w)
        self.pid = pid
        self._requests = os.fdopen(request_w, "w")
        self._results = os.fdopen(result_r)

    def run(self, cmd: list[str], env: dict, log: str, timeout: float) -> dict:
        self._requests.write(json.dumps({"cmd": cmd, "env": env, "log": log,
                                         "timeout": timeout}) + "\n")
        self._requests.flush()
        line = self._results.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        return json.loads(line)

    def close(self) -> None:
        self._requests.close()
        self._results.close()
        os.waitpid(self.pid, 0)
