#!/usr/bin/env python3
"""Turn CI's bench-smoke logs into bench_ci.json and gate them against
bench_baseline.json.

Usage: check_bench.py   (from the repo root, after the bench-smoke steps)

Reads the `go test -bench` logs bench_smoke.txt, bench_fig9.txt,
bench_hotpath.txt and bench_real.txt, plus ci_out/contention_summary.csv
and ci_out/contention_bookshards.csv, and writes every number to
bench_ci.json. Enforced, as current / baseline ns/op <= BOUND:
  - BenchmarkMallocFreeParallel;
  - every BenchmarkMallocFreeClass size, and the run and the baseline
    must cover the same sizes.
Everything else is report-only. There is no update mode: a baseline
number changes only by a hand edit, with the reason in CHANGES.md.
"""
import csv
import json
import re
import sys

BOUND = 1.25
PARALLEL = "BenchmarkMallocFreeParallel"


def bench(path, mem=True):
    """The result lines of a `go test -bench` log. A row carries its
    -benchmem columns (mem) or the raw text after ns/op (not mem)."""
    rows = []
    for line in open(path):
        m = re.match(r"^(Benchmark\S+)\s+(\d+)\s+(\d+(?:\.\d+)?) ns/op(.*)", line)
        if not m:
            continue
        r = {"name": m[1], "iters": int(m[2]), "ns_per_op": float(m[3])}
        if not mem:
            r["extra"] = m[4].strip()
        elif c := re.match(r"\s+(\d+) B/op\s+(\d+) allocs/op", m[4]):
            r["bytes_per_op"], r["allocs_per_op"] = int(c[1]), int(c[2])
        rows.append(r)
    return rows


def table(path):
    return [{k: float(v) if re.match(r"^-?\d", v) else v for k, v in r.items()}
            for r in csv.DictReader(open(path))]


def by_procs(rows, name):
    """ns/op of the rows of benchmark name, keyed by GOMAXPROCS (the -N
    suffix go test adds when it is not 1)."""
    out = {}
    for r in rows:
        if m := re.fullmatch(re.escape(name) + r"(?:-(\d+))?", r["name"]):
            out[m[1] or "1"] = r["ns_per_op"]
    return out


def last(rows, prefix):
    """ns/op of the last row whose name starts with prefix (None if none)."""
    return next((r["ns_per_op"] for r in reversed(rows) if r["name"].startswith(prefix)), None)


base = json.load(open("bench_baseline.json"))
smoke = bench("bench_smoke.txt", mem=False) + bench("bench_fig9.txt", mem=False)
hot = bench("bench_hotpath.txt")
real = bench("bench_real.txt")
contention = table("ci_out/contention_summary.csv")
out = {
    "smoke": smoke,
    "benchmarks": hot,
    "classes": {m[1]: r["ns_per_op"] for r in hot
                if (m := re.match(r"^BenchmarkMallocFreeClass/(\d+)(?:-\d+)?$", r["name"]))},
    "contention": contention,
    "book_shards": table("ci_out/contention_bookshards.csv"),
    "real": real,
    "simulated": [r for r in hot if re.match(r"^BenchmarkMallocFree(Parallel|Class/)", r["name"])],
}
ser, par = last(smoke, "BenchmarkFig9EngineSerial"), last(smoke, "BenchmarkFig9EngineParallel")
if ser is not None and par:
    out["fig9_engine_speedup"] = ser / par
# Cached vs uncached large-lock wait per bench; aggregate bookkeeping-log
# wait against the baseline's single-bookkeeper run.
configs = {}
for r in contention:
    configs.setdefault(r["bench"], {})[r["config"]] = r
for name, cfg in configs.items():
    cached, nocache = cfg.get("NVAlloc-LOG"), cfg.get("NVAlloc-LOG nocache")
    if cached and nocache and cached["large_wait_ns"] > 0:
        out[f"{name}_large_wait_reduction"] = nocache["large_wait_ns"] / cached["large_wait_ns"]
    prev = base["book_wait_ns"].get(name)
    if cached and prev is not None and cached["book_wait_ns"] > 0:
        out[f"{name}_book_wait_reduction"] = prev / cached["book_wait_ns"]
# Simulator cost per op, simulated vs direct device at equal GOMAXPROCS.
sim, direct = by_procs(hot, PARALLEL), by_procs(real, "BenchmarkRealMallocFreeParallel")
out["simulator_overhead_x"] = {p: sim[p] / direct[p] for p in sim
                               if direct.get(p, 0) > 0}
json.dump(out, open("bench_ci.json", "w"), indent=2)
print("wrote bench_ci.json; simulator_overhead_x by GOMAXPROCS:",
      out["simulator_overhead_x"], "fig9_engine_speedup:", out.get("fig9_engine_speedup"))

fail = []


def gate(what, cur, ref):
    ratio = cur / ref
    print(f"{what}: {cur:.1f} ns/op vs baseline {ref:.1f} ns/op (x{ratio:.3f})")
    if ratio > BOUND:
        fail.append(f"{what}: {cur:.1f} ns/op is x{ratio:.3f} its baseline {ref:.1f} ns/op")


if not sim:
    fail.append(f"{PARALLEL} missing from bench_hotpath.txt")
for procs, ns in sim.items():
    gate(f"{PARALLEL} (GOMAXPROCS {procs})", ns, base["ns_per_op"][PARALLEL])
cur, ref = out["classes"], base["classes"]
if set(cur) != set(ref):
    fail.append(f"class sets differ: missing from run {sorted(set(ref) - set(cur), key=int)}, "
                f"not in baseline {sorted(set(cur) - set(ref), key=int)}")
for size in sorted(set(cur) & set(ref), key=int):
    gate(f"class {size:>6}", cur[size], ref[size])
if fail:
    sys.exit("bench gate failed (bound x{}, vs bench_baseline.json):\n  ".format(BOUND) + "\n  ".join(fail))
