#!/usr/bin/env python3
"""hyperaccel benchmark: certify, derive and symbolic workloads.

Run from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists):

* ``certify``  -- ``catalog.verify_entry`` on the 95 display entries at
  300 digits;
* ``derive``   -- ``catalog.derive_entry`` on the 95 derivation recipes;
* ``symbolic`` -- ``telescoper.builtin_residual`` for the three families
  with a stored general recurrence.

The seed shuffles item order; hyperaccel sees only catalog ids, digits
and family ids.  A run times whole passes over the items until
``--seconds`` have elapsed, at least one pass, after a collection of
garbage before each pass.  Every item's output is compared with the
golden copy in ``bench/golden``; an exception or any difference counts
as a failed item, and the command exits 1 when any item failed.

With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of ``bench/tracer.py``: the run
spends half of ``--seconds`` on untraced passes, then wraps the layer
functions and spends the other half on traced passes.  The last line of
standard output is the result as one JSON object; lines before it give
the metrics with units, the failure ratio and the run metadata.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden")
PROBE = os.path.join(HERE, "setup_probe.py")

DIGITS = 300
SETUP_SAMPLES = 11
WORKLOADS = ("certify", "derive", "symbolic")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Workload items
# ---------------------------------------------------------------------------


def load_package():
    if not os.path.isfile(os.path.join(SRC, "hyperaccel", "__init__.py")):
        raise BenchError(f"no hyperaccel source under {SRC}")
    sys.path.insert(0, SRC)
    import hyperaccel
    if os.path.dirname(os.path.dirname(hyperaccel.__file__)) != SRC:
        raise BenchError(f"hyperaccel imported from {hyperaccel.__file__}")
    from hyperaccel import catalog, telescoper
    return catalog, telescoper


def workload_items(name, catalog, telescoper):
    """(item ids, function from id to its output line) for a workload."""
    if name == "certify":
        def run(rid):
            rep = catalog.verify_entry(rid, DIGITS)
            # the line `hyperaccel check --id <rid> --digits 300` prints
            return " ".join((rid, "PASS" if rep.passed else "FAIL",
                             f"lhs={rep.lhs.decimal(DIGITS + 2)}",
                             f"rhs={rep.rhs.decimal(DIGITS + 2)}",
                             f"terms={rep.terms_used}"))
        ids = [e.id for e in catalog.catalog_entries() if e.chu is not None]
    elif name == "derive":
        def run(rid):
            rep = catalog.derive_entry(rid)
            return (f"{rid} found={rep.recurrence_found} rate={rep.rate}"
                    f" proportional={rep.proportional}")
        ids = [e.id for e in catalog.catalog_entries()
               if e.derivation is not None]
    else:
        families = {f.value: f for f in telescoper.theorem_families()}

        def run(fid):
            zero = telescoper.builtin_residual(families[fid]).is_zero
            return f"{fid} residual {'=' if zero else '!='} 0"
        ids = list(families)
    return ids, run


def warm_caches(telescoper):
    """Fill the one cache hyperaccel keeps, the stored recurrences."""
    for family in telescoper.theorem_families():
        telescoper.builtin_recurrence(family)


def corrupt_display(catalog, rid):
    """Make catalog lookups of rid return its display with the constant
    coefficient of the summand numerator raised by one."""
    e = catalog.entry(rid)
    if e.chu is None:
        raise BenchError(f"entry {rid} has no display to corrupt")
    coeffs = list(e.chu.num.coeffs)
    coeffs[0] += 1
    num = type(e.chu.num).from_coeffs(coeffs)
    bad = dataclasses.replace(e, chu=dataclasses.replace(e.chu, num=num))
    lookup = catalog.entry
    catalog.entry = lambda key: bad if key == rid else lookup(key)


def read_golden(name):
    path = os.path.join(GOLDEN, f"{name}.txt")
    with open(path) as handle:
        return {line.split(" ", 1)[0]: line.rstrip("\n") for line in handle}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Passes:
    times: list = dataclasses.field(default_factory=list)
    latencies: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_passes(ids, run, golden, seconds, rng) -> Passes:
    """Whole shuffled passes over ids until seconds have elapsed."""
    out = Passes()
    start = perf_counter()
    while not out.times or perf_counter() - start < seconds:
        order = list(ids)
        rng.shuffle(order)
        gc.collect()
        t_pass = perf_counter()
        for rid in order:
            t0 = perf_counter()
            try:
                line = run(rid)
            except Exception:
                traceback.print_exc()
                line = None
            out.latencies.append(perf_counter() - t0)
            out.attempted += 1
            if line != golden.get(rid):
                out.failed += 1
                print(f"bench: {rid} differs from golden: {line!r}",
                      file=sys.stderr)
        out.times.append(perf_counter() - t_pass)
    return out


def setup_samples(count, importtime=False):
    """Set-up seconds by part, each sample in a fresh interpreter.

    The parts are timed inside the child, so interpreter start-up, which
    hyperaccel does not control, is left out.  With importtime the child
    runs under -X importtime, and the self time of importing
    hyperaccel.catalog, which builds the catalog rows, moves from the
    import part to the catalog part.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd.append(PROBE)
    parts = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        part = json.loads(proc.stdout.splitlines()[-1])
        if os.path.dirname(os.path.dirname(part.pop("package"))) != SRC:
            raise BenchError("set-up probe imported another hyperaccel")
        if importtime:
            for line in proc.stderr.splitlines():
                fields = line.split("|")
                if len(fields) == 3 and fields[2].strip() == "hyperaccel.catalog":
                    built = int(fields[0].split(":")[1]) / 1e6
                    part["import_s"] -= built
                    part["catalog_s"] += built
        parts.append(part)
    return parts


def percentile(values, pct):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metadata(args):
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or "none"
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hyperaccel")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "digits": DIGITS if args.workload == "certify" else None,
            "git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "python": sys.version.split()[0], "nproc": os.cpu_count()}


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def end_to_end(untraced: Passes, setup_parts):
    return {
        "setup_s": (statistics.median(p["import_s"] + p["catalog_s"]
                                      + p["stored_recurrences_s"]
                                      for p in setup_parts), "s"),
        "pass_s": (statistics.median(untraced.times), "s"),
        "item_p50_ms": (percentile(untraced.latencies, 50) * 1e3, "ms"),
        "item_p90_ms": (percentile(untraced.latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


def per_layer(tracer, traced: Passes, untraced: Passes, setup_parts):
    n = len(traced.times)
    out = {}
    for key, value in tracer.snapshot().items():
        unit = "s" if key.endswith((".s", "_s")) else "count"
        value /= n
        out[key] = (int(value) if unit == "count" and value == int(value)
                    else value, unit)
    for part in ("import_s", "catalog_s", "stored_recurrences_s"):
        out[f"setup.{part}"] = (
            statistics.median(p[part] for p in setup_parts), "s")
    out["trace.overhead_ratio"] = (
        statistics.median(traced.times) / statistics.median(untraced.times),
        "ratio")
    return out


def layer_shares(workload, layers, traced_pass_s):
    """Share of the traced pass spent in the layers that should dominate."""
    if workload == "certify":
        keys = ("numerics.chu_eval_terms.s",)
    elif workload == "derive":
        keys = ("accelerator.chu_normalize.s", "accelerator.ChuSeries.term.s",
                "catalog.derivation_recurrence.s")
    else:
        keys = ("exact_arith.MultiPoly.mul.s",)
    return " + ".join(keys), sum(layers[k][0] for k in keys) / traced_pass_s


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ids", help="comma-separated subset of item ids")
    p.add_argument("--corrupt", metavar="ID",
                   help="raise one summand coefficient of this display")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    catalog, telescoper = load_package()
    golden = read_golden(args.workload)
    ids, run = workload_items(args.workload, catalog, telescoper)
    if args.ids:
        wanted = args.ids.split(",")
        unknown = sorted(set(wanted) - set(ids))
        if unknown:
            raise BenchError(f"not {args.workload} items: {unknown}")
        ids = [i for i in ids if i in wanted]
    if set(ids) - set(golden):
        raise BenchError(f"no golden output for {sorted(set(ids) - set(golden))}")
    if args.corrupt:
        corrupt_display(catalog, args.corrupt)

    setup_samples(1)  # writes bytecode caches
    if not args.trace:
        setup_parts = setup_samples(SETUP_SAMPLES)
    warm_caches(telescoper)
    rng = random.Random(args.seed)
    # a traced run splits its time between untraced and traced passes
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = run_passes(ids, run, golden, seconds, rng)
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(ids, run, golden, seconds, rng)
        finally:
            tracer.uninstall()
        setup_parts = setup_samples(SETUP_SAMPLES, importtime=True)
        metrics = per_layer(tracer, traced, untraced, setup_parts)
        label, share = layer_shares(args.workload, metrics,
                                    statistics.median(traced.times))
        print(f"share of traced pass in {label}: {share:.3f}")
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        sites = {name: where for name, where in sorted(tracer.sites.items())}
        print("wrapped at: " + json.dumps(sites))
    else:
        metrics = end_to_end(untraced, setup_parts)
        attempted, failed = untraced.attempted, untraced.failed
        passes = " ".join(f"{t:.3f}" for t in untraced.times)
        print(f"samples: {len(untraced.latencies)} items, {SETUP_SAMPLES}"
              f" set-ups, passes of {passes} s")

    for key, (value, unit) in metrics.items():
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{key:44s} {shown} {unit}")
    print(f"{'fail_ratio':44s} {failed / attempted:>16.6g}"
          f" ({failed}/{attempted})")
    print("meta: " + json.dumps(metadata(args)))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as ex:
        print(f"bench: {ex}", file=sys.stderr)
        sys.exit(2)
