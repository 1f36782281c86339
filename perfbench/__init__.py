"""Benchmark of irs_ssm campaign workloads; run it with ``python3 perfbench/run.py``."""
