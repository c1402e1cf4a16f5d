"""melodygen's benchmark: workloads, output checks, tracing and statistics.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see README.md.
"""
