"""Benchmark for darkgallery: seeded CLI workloads, output checks and a per-layer trace."""
