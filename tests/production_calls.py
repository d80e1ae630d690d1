"""Print where each package function that production work calls starts:
one line `<file name> <first line>` per code object of the package that
ran, its first line being that of its first decorator, if any.  Run it
in a fresh interpreter with the package on the path:

    PYTHONPATH=src python tests/production_calls.py

The work imports the package, derives every catalog recipe and
certifies every display at 50 digits, as the benchmark does, and runs
each CLI command once.  `sys.setprofile` watches from before the import,
so what the import and the caches build counts too.
"""

import contextlib
import io
import os
import sys
import tempfile

Q1 = ["--family", "quarter", "--params=1/3,1/3,1,1/3,1/3,2/3"]


def main():
    seen = set()

    def watch(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(watch)
    from hyperaccel import catalog, cli

    for e in catalog.catalog_entries():
        if e.derivation is not None:
            catalog.derive_entry(e.id)
        if e.chu is not None:
            catalog.verify_entry(e.id, 50)
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for argv in (["verify-symbolic", "--family", "quarter"],
                     ["derive", *Q1, "--n=1"], ["rate", *Q1],
                     ["accelerate", *Q1, "--n=1", "--terms", "3"],
                     ["accelerate", *Q1, "--n=1", "--chu"],
                     ["eval", "--id", "Q1", "--digits", "20"],
                     ["check", "--id", "Q1", "--digits", "20"],
                     ["catalog", "list"],
                     ["catalog", "export", "--out", os.path.join(tmp, "catalog.tsv")]):
            if cli.main(argv) != 0:
                raise SystemExit(f"production work failed: {argv}")
    sys.setprofile(None)
    package = os.path.dirname(catalog.__file__)
    for code in seen:
        if os.path.dirname(code.co_filename) == package:
            print(os.path.basename(code.co_filename), code.co_firstlineno)


if __name__ == "__main__":
    main()
