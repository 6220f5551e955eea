"""One pass over a benchmark manifest, in a fresh interpreter.

    python3 perfbench/worker.py SRC_DIR SPAWN_TIME SEED TRACE SPANS_PATH

reads the manifest as JSON on standard input and prints one JSON line with
the pass's measurements.  Times are CPU time of this process
(``time.process_time``); the wall-clock figures ride along for display.
Before every job, and once after the last, the pass times a fixed
reference kernel (``reference_kernel``), so that run.py can express each
job's time in units of the machine's speed at that moment.
SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide).  Set-up covers interpreter start,
reading the manifest, importing cocontra and ``serialize.parse_bundle``.
Jobs run one at a time in manifest order
through ``cli.run_job`` with the oracle on and timing off, and the report is
built with ``serialize.canonical_bytes`` exactly as ``cli.run_manifest``
builds it.  With TRACE 1 every layer is traced (see tracing.py) and the
spans are written to SPANS_PATH when the pass ends.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

_REF_ROWS = [[Fraction(3 * i + j + 1, j + 2) for j in range(5)]
             for i in range(5)]


def reference_kernel() -> float:
    """CPU time of a fixed piece of interpreter work of the kind cocontra
    does (a 5x5 Fraction matrix product, small-int arithmetic, tuple-keyed
    dict updates), about a millisecond.  Garbage collection is off while it
    runs, so the program's heap cannot change its cost."""
    gc.disable()
    t0 = time.process_time()
    a = _REF_ROWS
    prod = [[sum((a[i][k] * a[k][j] for k in range(5)), Fraction(0))
             for j in range(5)] for i in range(5)]
    table = {}
    for i in range(1500):
        key = (i % 31, (i * i) % 7)
        table[key] = (table.get(key, 0) + i * prod[i % 5][i % 3].numerator) % 2
    elapsed = time.process_time() - t0
    gc.enable()
    return elapsed


def main(argv) -> int:
    src, spawned, seed, trace, spans_path = argv
    spawned, seed, trace = float(spawned), int(seed), trace == "1"
    # the machine's speed around set-up: timed before and after it, and
    # left out of it
    setup_ref_s = [reference_kernel() for _ in range(5)]
    doc = json.load(sys.stdin)
    sys.path.insert(0, src)
    import cocontra
    from cocontra import cli, serialize

    # refuse to measure some other copy of the package
    if Path(src).resolve() not in Path(cocontra.__file__).resolve().parents:
        raise SystemExit(f"cocontra imported from {cocontra.__file__}, "
                         f"not from {src}")
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    env = serialize.parse_bundle(doc)
    # CPU time since this process started
    setup_s = time.process_time() - sum(setup_ref_s)
    setup_wall_s = time.monotonic() - spawned - sum(setup_ref_s)
    setup_ref_s += [reference_kernel() for _ in range(5)]

    ctx = {"budget": 1_000_000, "oracle": True, "seed": seed,
           "timing": False, "parallel": False, "field": "Q"}
    entries, job_s, ref_s = [], [], []
    start_wall = time.perf_counter()
    for i, job in enumerate(doc["jobs"]):
        ref_s.append(reference_kernel())
        if tracer is not None:
            tracer.job = i
        t0 = time.process_time()
        entries.append(cli.run_job(env, job, ctx))
        job_s.append(time.process_time() - t0)
        if tracer is not None:
            tracer.job = -1
    ref_s.append(reference_kernel())
    t0 = time.process_time()
    entries.sort(key=lambda entry: entry["id"])
    report = {"version": cli.REPORT_VERSION, "seed": ctx["seed"],
              "jobs": entries}
    data = serialize.canonical_bytes(report)
    report_s = time.process_time() - t0
    ref_s.append(reference_kernel())
    wall_s = time.perf_counter() - start_wall - sum(ref_s)

    statuses = [entry["status"] for entry in entries]
    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "setup_ref_s": setup_ref_s,
        "report_s": report_s,
        "wall_s": wall_s,
        "job_s": job_s,
        "ref_s": ref_s,
        "passed": statuses.count("pass"),
        "failed_ids": [e["id"] for e in entries if e["status"] != "pass"],
        "report_sha256": hashlib.sha256(data).hexdigest(),
        "report_bytes": len(data),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.totals()
        result["patched_sites"] = len(tracer.sites)
        tracer.write(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
