#!/usr/bin/env python3
"""Self-test of the benchmark, run from the repository root:

    python3 bench/selftest.py

1. A display with one corrupted summand coefficient makes the command
   report a non-zero failure ratio and exit non-zero, on certify and on
   derive, while the same items uncorrupted pass.
2. Traced and untraced runs give identical item outputs, equal to the
   golden copy, so the layer wrappers do not change results; and
   uninstalling the wrappers restores every original function.
"""

import json
import os
import subprocess
import sys

import run
from tracer import Tracer

SUBSETS = {
    "certify": ["Q1", "S1627-1", "F427-8"],
    "derive": ["Q1", "S64-1", "N27-7"],
    "symbolic": ["quarter", "neg-quarter"],
}


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    return ok


def bench(*argv):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--seed", "7",
         "--seconds", "0", "--trace", "0", *argv],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def corruption_is_caught():
    good = True
    for workload in ("certify", "derive"):
        ids = ",".join(SUBSETS[workload])
        code, res = bench("--workload", workload, "--ids", ids)
        good &= check(code == 0 and res["failed"] == 0,
                      f"{workload} {ids}: clean run passes")
        code, res = bench("--workload", workload, "--ids", ids,
                          "--corrupt", "Q1")
        good &= check(code != 0 and res["failed"] > 0 and not res["correct"],
                      f"{workload} {ids} with Q1 corrupted: exit {code},"
                      f" fail_ratio {res['failed']}/{res['attempted']}")
    return good


def tracing_keeps_outputs():
    catalog, telescoper = run.load_package()
    run.warm_caches(telescoper)
    good = True
    for workload, ids in SUBSETS.items():
        _, item = run.workload_items(workload, catalog, telescoper)
        golden = run.read_golden(workload)
        plain = [item(i) for i in ids]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [item(i) for i in ids]
        finally:
            tracer.uninstall()
        spans = sum(s["calls"] for s in tracer.stats.values())
        good &= check(plain == traced == [golden[i] for i in ids] and spans > 0,
                      f"{workload}: traced outputs equal untraced and golden"
                      f" ({spans:.0f} spans)")
    restored = (catalog.chu_normalize.__module__ == "hyperaccel.accelerator"
                and not hasattr(catalog.chu_normalize, "__wrapped__")
                and not hasattr(type(catalog.entry("Q1").chu).term,
                                "__wrapped__"))
    return check(restored, "uninstall restores the original functions") and good


if __name__ == "__main__":
    ok = corruption_is_caught()
    ok = tracing_keeps_outputs() and ok
    sys.exit(0 if ok else 1)
