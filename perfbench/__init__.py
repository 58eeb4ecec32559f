"""Benchmark of the crawl engine; entry point ``perfbench/run.py``."""
