"""Benchmark harness: see run.py and README.md."""
