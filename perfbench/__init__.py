"""Benchmark harness for wpdlab; entry point ``perfbench/run.py``."""
