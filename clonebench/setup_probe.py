"""Time one fresh interpreter from ``import clonekit.cli`` to the end of a task.

Usage: python3 clonebench/setup_probe.py <repo root> <task file> <command>

Prints one JSON line: the seconds elapsed, the task's exit code and the
file clonekit was imported from.
"""

import contextlib
import io
import json
import os
import sys
import time

root, task_path, command = sys.argv[1:4]
sys.path.insert(0, os.path.join(root, "src"))

t0 = time.perf_counter()
import clonekit.cli  # noqa: E402  (the import is what is timed)

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = clonekit.cli.main([command, "--task", task_path])
elapsed = time.perf_counter() - t0
print(json.dumps({"seconds": elapsed, "exit": code, "module": clonekit.cli.__file__}))
