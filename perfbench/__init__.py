"""Benchmark of the tfkeyrate command line; entry point perfbench/run.py."""
