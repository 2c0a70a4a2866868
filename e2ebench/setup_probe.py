"""Set-up probe: a fresh interpreter that stops at the first job.

Run by the benchmark as ``python setup_probe.py WORKLOAD SEED`` with
``PYTHONPATH`` pointing at the checkout's ``src``.  It imports the
program, generates the workload's inputs and constructs its runner — all
that happens before the first job is handed to the program — then prints
``time.monotonic()`` and exits without running anything.
"""

import sys
import time

from workloads import prepare

if __name__ == "__main__":
    prepare(sys.argv[1], int(sys.argv[2]))
    print(time.monotonic())
