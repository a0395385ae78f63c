"""Imported only by the benchmark's tracer, ``perfbench/tracer.py``; ROADMAP item 21b deletes both.

The package's conventions are in :mod:`blgi.measurement`'s module docstring.
"""
