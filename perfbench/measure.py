"""Measurement loops of the benchmark; `run.py` is the entry point.

With `--trace 0` each operation is a `python -m vecmerge.cli` child,
timed spawn to exit by `launcher.py`, with CPU time and peak RSS from
that child's own `wait4` rusage. With `--trace 1` the same operation
runs in-process through `vecmerge.cli.main`, alternating untraced and
traced runs, and the tracer in `spans.py` reports per-layer self times
and counts. Every operation's output is checked against an independent
reference outside the timed region, and its bytes must equal the
first operation's.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
from launcher import Launcher
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CACHE = Path(".perfbench_cache")  # relative to ROOT, the working directory
GENERATOR_VERSION = 1
SETUP_REPEATS = 9  # minimum no-work invocations per run
OP_TIMEOUT_S = 60  # an operation takes ~13 s at most; a hung one must not outlast the run

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
              "setup_s": "s", "mparams_per_s": "Mparam/s"}


class Op:
    """One operation's measurement and verdict."""

    def __init__(self, wall: float, cpu: float = 0.0, rss_mb: float = 0.0):
        self.wall, self.cpu, self.rss_mb = wall, cpu, rss_mb
        self.failure: str | None = None
        self.params = 0
        self.digest = ""


def environment() -> dict:
    cpu = ram = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                ram = f"{int(line.split()[1]) / 2**20:.1f} GiB"
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "ram": ram,
            "python": platform.python_version(), "numpy": np.__version__}


def prepare_inputs(workload, seed: int, out_dir: Path) -> tuple[Path, dict]:
    """Inputs for (workload, seed, generator version), made once and cached.

    Only the newest entry per workload is kept, which bounds the disk the
    large workload uses.
    """
    key = f"{workload.name}-seed{seed}-gen{GENERATOR_VERSION}"
    inputs = CACHE / "inputs"
    root = inputs / key
    manifest = root / "manifest.json"
    if manifest.is_file():
        return root, json.loads(manifest.read_text())
    inputs.mkdir(parents=True, exist_ok=True)
    for old in inputs.glob(f"{workload.name}-*"):
        shutil.rmtree(old)
    root.mkdir()
    record = workload.generate(seed, root, out_dir)
    manifest.write_text(json.dumps(record, indent=2, sort_keys=True))
    return root, record


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def spawn(launcher: Launcher, cmd: list[str], log: Path) -> tuple[Op, int]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = launcher.run(cmd, env, str(log), OP_TIMEOUT_S)
    return Op(r["wall"], r["cpu"], r["rss_mb"]), r["returncode"]


class Session:
    """One workload at one seed: inputs, reference and the checked op loop."""

    def __init__(self, name: str, seed: int, launcher: Launcher):
        self.launcher = launcher
        self.workload = WORKLOADS[name]
        self.out_dir = CACHE / "work" / name
        self.inputs, self.record = prepare_inputs(self.workload, seed, self.out_dir)
        self.expected = self.workload.reference(self.inputs)
        self.argv = self.workload.argv(self.inputs, self.out_dir)
        self.ops: list[Op] = []
        self.first_digest: str | None = None

    def fresh_out_dir(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)

    def verify(self, op: Op, returncode: int) -> Op:
        if returncode != 0:
            op.failure = f"exit code {returncode}"
        else:
            op.failure, op.params = self.workload.check(self.expected, self.out_dir)
        if op.failure is None:
            op.digest = digest(self.out_dir)
            self.first_digest = self.first_digest or op.digest
            if op.digest != self.first_digest:
                op.failure = "output bytes differ from the first operation's"
        if op.failure:
            print(f"{self.workload.name}: operation failed: {op.failure}", file=sys.stderr)
        self.ops.append(op)
        return op

    def child_op(self) -> Op:
        self.fresh_out_dir()
        log = CACHE / "work" / f"{self.workload.name}.stderr"
        op, rc = spawn(self.launcher, [sys.executable, "-m", "vecmerge.cli", *self.argv], log)
        if rc != 0:
            sys.stderr.write(log.read_text(errors="replace")[-2000:])
        return self.verify(op, rc)

    def inprocess_op(self, cli) -> Op:
        self.fresh_out_dir()
        rc = 1
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = perf_counter()
            try:
                rc = cli.main(list(self.argv))
            except Exception:  # an op that raises is a failed op; keep measuring
                traceback.print_exc()
            wall = perf_counter() - start
        return self.verify(Op(wall), rc)

    def counts(self) -> tuple[int, int]:
        return len(self.ops), sum(op.failure is not None for op in self.ops)


def summary(values: list[float]) -> dict:
    """Median and sample count, plus each tail percentile that has at
    least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values), "values": values}
    ordered = sorted(values)
    for pct in (90, 99):
        beyond = len(values) - int(len(values) * pct / 100)
        if beyond >= 10 and len(values) >= 2:
            out[f"p{pct}"] = statistics.quantiles(ordered, n=100)[pct - 1]
    return out


def enough(walls: list[float], seconds: float) -> bool:
    """True once the measured time is as near to `seconds` as whole
    operations allow: one more would overshoot by more than half its length."""
    return sum(walls) + statistics.mean(walls) / 2 >= seconds


def measure_end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    session.child_op()  # warm-up: page cache, bytecode cache
    setup_cmd = [sys.executable, "-c",
                 "import " + ", ".join(session.workload.setup_imports)]
    setup: list[float] = []

    def time_setup() -> None:
        op, rc = spawn(session.launcher, setup_cmd, CACHE / "work" / "setup.stderr")
        if rc != 0:
            raise SystemExit(f"no-work invocation failed with exit code {rc}")
        setup.append(op.wall)

    # One no-work invocation after each operation, so that setup time is
    # sampled across the same stretch of time as the operations.
    timed: list[Op] = []
    while not timed or not enough([op.wall for op in timed], seconds):
        timed.append(session.child_op())
        time_setup()
    while len(setup) < SETUP_REPEATS:
        time_setup()
    passed = [op for op in timed if op.failure is None] or timed
    samples = {
        "wall_s": [op.wall for op in timed],
        "cpu_s": [op.cpu for op in timed],
        "peak_rss_mb": [op.rss_mb for op in timed],
        "setup_s": setup,
        "mparams_per_s": [op.params / op.wall / 1e6 for op in passed],
    }
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END.items()}
    return metrics, {name: summary(values) for name, values in samples.items()}


def import_program():
    """Import every vecmerge module from this checkout's src/."""
    import importlib
    import pkgutil

    sys.path.insert(0, str(SRC))
    import vecmerge
    if Path(vecmerge.__file__).resolve().parent != SRC / "vecmerge":
        raise SystemExit(f"imported vecmerge from {vecmerge.__file__}, not from {SRC}")
    for info in pkgutil.walk_packages(vecmerge.__path__, "vecmerge."):
        importlib.import_module(info.name)
    return importlib.import_module("vecmerge.cli")


def measure_layers(session: Session, seconds: float) -> tuple[dict, dict]:
    from spans import Tracer

    cli = import_program()
    session.inprocess_op(cli)  # warm-up
    plain, traced, per_op, absent = [], [], [], []
    while not traced or not enough([p + t for p, t in zip(plain, traced)], seconds):
        plain.append(session.inprocess_op(cli).wall)
        tracer = Tracer()
        tracer.bind(layers.TARGETS)
        try:
            wall = session.inprocess_op(cli).wall
        finally:
            tracer.unbind()
        traced.append(wall)
        per_op.append(layers.layer_values(tracer, wall))
        absent = tracer.absent
    metrics = {}
    for name, (unit, *_rest) in layers.METRICS.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        else:
            observed = [v[name] for v in per_op]
            value = None if None in observed else statistics.median(observed)
        metrics[name] = {"value": value, "unit": unit}
    details = {"untraced_wall_s": summary(plain), "traced_wall_s": summary(traced),
               "absent_functions": absent, "rationale": layers.rationale()}
    return metrics, details


def run_workload(name: str, seed: int, seconds: float, trace: bool, launcher: Launcher) -> dict:
    session = Session(name, seed, launcher)
    if trace:
        metrics, samples = measure_layers(session, seconds)
    else:
        metrics, samples = measure_end_to_end(session, seconds)
    attempted, failed = session.counts()
    details = {"workload": name, "seed": seed, "trace": int(trace),
               "inputs": session.record, "samples": samples,
               "error_rate": {"value": failed / attempted, "unit": "ratio"},
               "output_sha256": session.first_digest, "environment": environment()}
    print(json.dumps({"details": details}, sort_keys=True))
    for metric, m in metrics.items():
        shown = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name}  {metric}  {shown} {m['unit']}")
    print(f"{name}  error_rate  {failed / attempted:.6g} ratio ({failed} of {attempted} ops failed)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(workload: str, seed: int, seconds: float, trace: bool, launcher: Launcher) -> int:
    """Run one workload, or all of them, and print the result as the last line."""
    if workload != "all" and workload not in WORKLOADS:
        print(f"error: unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}, all",
              file=sys.stderr)
        return 2
    if not (SRC / "vecmerge" / "cli.py").is_file():
        print(f"error: no vecmerge sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if workload == "all" else [workload]
    results = {name: run_workload(name, seed, seconds, trace, launcher) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": m for name, r in results.items()
                             for metric, m in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0
