"""Benchmark of the em2gm command line: workloads, checks and a per-module trace.

Run it from the root of a checkout as ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see ``run.py``.
"""
