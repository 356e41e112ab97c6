"""Benchmark of the exactly-once replicate pipeline (see METRICS.md).

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the repository root and prints one
JSON result line; ``python3 perfbench/selftest.py`` checks the benchmark
itself at a tiny input size.
"""
