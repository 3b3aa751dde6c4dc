"""Benchmark of the bnvc codec: three workloads, end-to-end metrics, and a
traced per-layer split. See run.py for the command line."""
