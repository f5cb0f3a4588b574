"""Outside-in performance benchmark for the Gigabit Testbed West reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload in a closed loop and prints its metrics; see
``perfbench/README.md``.  Nothing in this package is imported by the
program itself: every measurement is taken from outside, around the
program's public entry points.
"""
