"""One set-up sample, run in a fresh interpreter by bench/run.py.

Imports hyperaccel (which builds the catalog at import), lists the
catalog, and builds the three stored recurrences, then prints the
elapsed seconds of each step as one JSON line.
"""

import json
import time

t0 = time.perf_counter()
import hyperaccel  # noqa: E402
from hyperaccel import catalog, telescoper  # noqa: E402

t1 = time.perf_counter()
entries = catalog.catalog_entries()
t2 = time.perf_counter()
for family in telescoper.theorem_families():
    telescoper.builtin_recurrence(family)
t3 = time.perf_counter()
print(json.dumps({"package": hyperaccel.__file__, "entries": len(entries),
                  "import_s": t1 - t0, "catalog_s": t2 - t1,
                  "stored_recurrences_s": t3 - t2}))
