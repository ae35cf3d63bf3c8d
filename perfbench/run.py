"""Benchmark of em2gm, run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The workloads are in ``workloads.py``. A run imports the package from
``src/`` of the checkout, measures set-up, runs the workload once untimed to
fill caches, then repeats it until ``--seconds`` have passed, each time into
a fresh output directory. Every operation is checked after it ran: exit code
0, only finite values, the workload's own checks, and output bytes whose
SHA-256 equals that of the same operation in the first repetition.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``wall_s``: median time of one repetition of the workload's command
  sequence, output files included;
* ``setup_s``: median, over 7 fresh interpreters, of the time to import
  ``em2gm.cli`` with numpy and scipy;
* ``peak_rss_mb``: peak resident memory of this process.

``failed_frac`` (failed / attempted operations) is printed with them and is
carried by the ``failed`` and ``attempted`` fields of the result.

With ``--trace 1`` the repetitions alternate between untraced and traced
(see ``tracing.py``), and the run reports the per-layer metrics, each the
median over the traced repetitions, plus ``trace.overhead_s``, the traced
minus the untraced median wall time.

Human-readable lines (environment, digests, metrics) come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit code 2 means the program
could not be found or run at all, and then no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
WORKLOADS = ("sweep-1d-null", "risk-10d", "diag-2d")
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import em2gm.cli; "
                 "print(repr(time.perf_counter() - t))")


def measure_setup() -> float:
    """Median time to import em2gm.cli in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout))
    return statistics.median(times)


def environment(workload) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "sweep_threads": workload.sweep_threads,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """Commit of the checkout, read from its .git directory if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "em2gm" / "__init__.py").is_file():
        print(f"error: no em2gm package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        setup_s = measure_setup()
        import em2gm
        from perfbench import tracing, workloads
    except (subprocess.SubprocessError, ImportError, ValueError) as e:
        print(f"error: cannot import em2gm from {SRC}: {e}", file=sys.stderr)
        return 2
    if Path(em2gm.__file__).resolve().parent != SRC / "em2gm":
        print(f"error: imported em2gm from {em2gm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed)
    modules = {name: sys.modules[f"em2gm.{name}"] for name in tracing.LAYERS}
    out = OUT / f"{args.workload}-{os.getpid()}"
    tally = workloads.Tally()
    walls, traced_walls, layer_samples = [], [], []
    try:
        workloads.run_once(workload, out / "warmup", tally)
        deadline = time.perf_counter() + args.seconds
        while not walls or time.perf_counter() < deadline:
            walls.append(workloads.run_once(workload, out / f"run{len(walls)}", tally))
            if args.trace:
                with tracing.tracing(modules) as tracer:
                    traced_walls.append(
                        workloads.run_once(workload, out / f"traced{len(walls)}", tally))
                layer_samples.append(tracing.layer_metrics(tracer.spans))
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print("env " + json.dumps(environment(workload), sort_keys=True))
    for name, d in sorted(tally.digests.items()):
        print(f"digest {name} {d}")
    wall_s = statistics.median(walls)
    print(f"wall_s {wall_s:.6f} s (median of {len(walls)}, min {min(walls):.6f}, "
          f"max {max(walls):.6f})")
    print(f"setup_s {setup_s:.6f} s (median of {SETUP_REPEATS} imports)")
    print(f"peak_rss_mb {peak_rss_mb:.3f} MiB")
    print(f"failed_frac {tally.failed / tally.attempted:.6f} frac "
          f"({tally.failed} of {tally.attempted} operations)")
    if args.trace:
        per_layer = {key: statistics.median(s[key] for s in layer_samples)
                     for key in layer_samples[0]}
        per_layer["trace.overhead_s"] = statistics.median(traced_walls) - wall_s
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, _ in tracing.METRICS}
        for name, m in metrics.items():
            print(f"{name} {m['value']!r} {m['unit']}")
    else:
        metrics = {"wall_s": {"value": wall_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"}}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
