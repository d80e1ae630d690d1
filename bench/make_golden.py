#!/usr/bin/env python3
"""Rewrite bench/golden/<workload>.txt from the current source.

    python3 bench/make_golden.py [certify|derive|symbolic ...]

Certify lines are taken from the CLI itself, one
``hyperaccel check --id <id> --digits 300`` per display entry, so the
benchmark's own formatting is checked against them.  Derive and symbolic
lines come from the benchmark's item functions.  Run it only at a commit
whose outputs are known to be right: every later run is compared with
these files.
"""

import contextlib
import io
import os
import sys

import run


def main(argv):
    catalog, telescoper = run.load_package()
    from hyperaccel import cli
    for name in argv or run.WORKLOADS:
        ids, item = run.workload_items(name, catalog, telescoper)
        lines = []
        for rid in ids:
            if name == "certify":
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    status = cli.main(["check", "--id", rid,
                                       "--digits", str(run.DIGITS)])
                if status != 0:
                    raise SystemExit(f"check --id {rid} exited {status}")
                lines.append(buf.getvalue().rstrip("\n"))
            else:
                lines.append(item(rid))
        with open(os.path.join(run.GOLDEN, f"{name}.txt"), "w") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"{name}: {len(lines)} lines")


if __name__ == "__main__":
    main(sys.argv[1:])
