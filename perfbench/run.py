"""Batch-certification benchmark for cocontra.

    python3 perfbench/run.py --workload lin-f2 --seed 1 --seconds 30 --trace 0

A single-process, closed-loop load generator with one client.  It
generates the workload's manifest from the seed, then runs whole passes
over it until the time is up (at least two), each pass in a fresh
interpreter (perfbench/worker.py), one pass after the other.  A pass runs
the jobs one at a time, in manifest order, through ``cocontra.cli.run_job``
and builds the report as ``cocontra run`` does.  Times are CPU time at
reference speed (each rescaled by a fixed reference kernel timed around
it, see ``at_reference_speed``), and a job's time is its median over the
passes.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
spends the first half of the time on untraced passes and the rest on
traced ones, and prints the per-layer metrics.  Metric names and units are
those of BENCHMARK.json.  The last line of standard output is one JSON
object; the exit code is 0 only when every job passed and every report
check held.  See perfbench/README.md for the metrics, the workloads and
what each layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# the stored report digests (digests.json) are those of this seed
DEFAULT_SEED = 1
PASS_TIMEOUT_S = 150


def report_mismatches(digests: list[str], stored: str | None) -> int:
    """Failed report checks: each pass whose report differs from the first
    pass's, plus the stored digest when there is one for this seed."""
    failed = sum(1 for d in digests[1:] if d != digests[0])
    if stored is not None and digests[0] != stored:
        failed += 1
    return failed


def percentile(values, q: int) -> float:
    """The q-th percentile, by linear interpolation between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_pass(payload: bytes, seed: int, trace: bool, spans: Path,
             index: int) -> dict:
    """One pass in a fresh interpreter.  The pass index is its string hash
    seed: every run then tries the same hash seeds in the same order, while
    the passes of a run still differ, so the report check sees whether the
    output depends on hashing."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(SRC), repr(spawned),
         str(seed), "1" if trace else "0", str(spans)],
        input=payload, capture_output=True, timeout=PASS_TIMEOUT_S,
        cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": str(index + 1)},
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode())
        raise SystemExit(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    result["pass_s"] = time.monotonic() - spawned
    return result


def run_passes(payload, seed, trace, spans, deadline, at_least) -> list:
    """Whole passes until the next one would overrun the deadline."""
    passes = []
    while True:
        passes.append(run_pass(payload, seed, trace, spans, len(passes)))
        if (len(passes) >= at_least
                and time.monotonic() + passes[-1]["pass_s"] > deadline):
            return passes


# CPU time of worker.reference_kernel on an undisturbed core of the
# development machine (x86-64, Python 3.11); the times the benchmark
# reports are in units of this, converted to seconds
REFERENCE_S = 0.001


def at_reference_speed(seconds: float, refs: list[float]) -> float:
    """A CPU time rescaled to the speed the reference kernel had around it:
    the median of the nearby reference timings stands for the machine's
    speed at that moment."""
    return seconds * REFERENCE_S / statistics.median(refs)


def normalized_jobs(p: dict) -> list[float]:
    """One pass's job times at reference speed, each against the reference
    timings just before (ref_s[j]) and just after (ref_s[j + 1]) it."""
    ref = p["ref_s"]
    return [at_reference_speed(t, ref[j:j + 2])
            for j, t in enumerate(p["job_s"])]


def job_times(passes: list) -> list[float]:
    """Each job's time: the median over passes of its time at reference
    speed."""
    return [statistics.median(times)
            for times in zip(*(normalized_jobs(p) for p in passes))]


def end_to_end(passes: list) -> dict:
    job_s = job_times(passes)
    report_s = statistics.median(
        at_reference_speed(p["report_s"], p["ref_s"][-3:]) for p in passes)
    attempted = sum(len(p["job_s"]) for p in passes)
    failed = sum(len(p["failed_ids"]) for p in passes)
    return {
        "jobs_per_s": min(p["passed"] for p in passes)
        / (sum(job_s) + report_s),
        "job_p50_ms": 1000 * percentile(job_s, 50),
        "job_p90_ms": 1000 * percentile(job_s, 90),
        "job_fail_ratio": failed / attempted,
        "setup_s": statistics.median(
            at_reference_speed(p["setup_s"], p["setup_ref_s"])
            for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(traced: list, untraced: list) -> dict:
    """Per-pass means of the traced passes' numbers, and the shares."""
    keys = {k for p in traced for k in p["layers"]}
    mean = {k: statistics.fmean(p["layers"].get(k, 0) for p in traced)
            for k in keys}

    def share(num, den):
        return mean.get(num, 0) / mean[den] if mean.get(den) else 0.0

    out = dict(mean)
    out["exactlin.matrix.matmul.nonzero_share"] = share(
        "exactlin.matrix.matmul.nonzero_ops",
        "exactlin.matrix.matmul.scalar_ops")
    out["exactlin.graded.space_repeat_share"] = share(
        "exactlin.graded.space_repeats", "exactlin.graded.space_builds")
    out["set_contramodule.enumerate_all.valid_share"] = share(
        "set_contramodule.enumerate_all.valid",
        "set_contramodule.enumerate_all.candidates")
    out["oracle_share"] = share("oracle.busy_s", "cli.run_job.busy_s")
    out["serialize.report_bytes"] = statistics.fmean(
        p["report_bytes"] for p in traced)
    out["trace.overhead_ratio"] = (
        end_to_end(traced)["jobs_per_s"] / end_to_end(untraced)["jobs_per_s"])
    return out


def cpu_steal_ticks():
    """(steal, total) jiffies of the machine so far, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return None
    return fields[7], sum(fields)


def ambient_histogram(sizes: list[int]) -> str:
    """Job counts per power-of-four bucket of ambient size."""
    buckets = {}
    for s in sizes:
        low = 1
        while low * 4 <= s:
            low *= 4
        buckets[low] = buckets.get(low, 0) + 1
    return "  ".join(f"[{low},{low * 4}):{n}"
                     for low, n in sorted(buckets.items()))


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one job per kind, for the self-test")
    ns = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stored = None
    if ns.seed == DEFAULT_SEED and not ns.tiny:
        stored = json.loads(
            (HERE / "digests.json").read_text())[ns.workload]
    manifest, ambient = workloads.generate(ns.workload, ns.seed, ns.tiny)
    payload = json.dumps(manifest).encode()
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{ns.workload}.json"

    steal_before = cpu_steal_ticks()
    start = time.monotonic()
    if ns.trace:
        untraced = run_passes(payload, ns.seed, False, spans,
                              start + ns.seconds / 2, 1)
        traced = run_passes(payload, ns.seed, True, spans,
                            start + ns.seconds, 1)
    else:
        untraced = run_passes(payload, ns.seed, False, spans,
                              start + ns.seconds, 2)
        traced = []
    passes = untraced + traced
    (OUT / f"passes-{ns.workload}.json").write_text(json.dumps(passes))
    e2e = end_to_end(untraced)
    mismatches = report_mismatches(
        [p["report_sha256"] for p in passes], stored)
    failed = sum(len(p["failed_ids"]) for p in passes)
    attempted = sum(len(p["job_s"]) for p in passes)
    samples = (f"{len(manifest['jobs'])} jobs, each the median of "
               f"{len(untraced)} passes")
    beyond_p90 = sum(1 for t in job_times(untraced)
                     if 1000 * t > e2e["job_p90_ms"])

    print(f"workload {ns.workload}  seed {ns.seed}  "
          f"{len(manifest['jobs'])} jobs per pass  "
          f"{len(untraced)} untraced + {len(traced)} traced passes")
    notes = {
        "job_p50_ms": samples,
        "job_p90_ms": f"{samples}; {beyond_p90} beyond",
        "setup_s": f"median of {len(untraced)} fresh interpreters",
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(job_fail_ratio="ratio", report_mismatches="count")
    e2e["report_mismatches"] = mismatches
    print("end-to-end (untraced passes):")
    for name, value in e2e.items():
        print(f"  {name:<20} {value:>12.6g} {units[name]:<6} "
              f"{notes.get(name, '')}")
    if failed:
        ids = sorted({i for p in passes for i in p["failed_ids"]})
        print(f"  failing jobs: {', '.join(ids[:10])}")
    checks = len(passes) - 1 + (stored is not None)
    print(f"  report checks: {checks} ({len(passes) - 1} repeated passes"
          f"{', stored digest' if stored else ', no stored digest'}); "
          f"first report sha256 {passes[0]['report_sha256']}")
    wall_rate = statistics.median(p["passed"] / p["wall_s"] for p in untraced)
    setup_wall = statistics.median(p["setup_wall_s"] for p in untraced)
    steal, steal_after = "n/a", cpu_steal_ticks()
    if steal_before and steal_after:
        stolen = steal_after[0] - steal_before[0]
        steal = f"{stolen / max(1, steal_after[1] - steal_before[1]):.1%}"
    ref_ms = 1000 * statistics.median(r for p in untraced for r in p["ref_s"])
    print(f"  wall clock, for reference: {wall_rate:.4g} jobs/s, "
          f"set-up {setup_wall:.4g} s; machine cpu steal during the run "
          f"{steal}; reference kernel median {ref_ms:.4g} ms "
          f"(reference speed: {1000 * REFERENCE_S:.4g} ms)")
    print("input properties:")
    print(f"  ambient size histogram: {ambient_histogram(ambient)}")

    if ns.trace:
        layers = per_layer(traced, untraced)
        print(f"  exactlin.graded.space_repeat_share: "
              f"{layers['exactlin.graded.space_repeat_share']:.4f}")
        print(f"per-layer (traced passes, per pass; "
              f"{traced[-1]['patched_sites']} call sites patched; "
              f"spans in {spans.relative_to(ROOT)}):")
        metrics = {}
        for m in spec["per_layer"]:
            value = layers.get(m["name"], 0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<48} {value:>12.6g} {m['unit']}")
    else:
        print("  exactlin.graded.space_repeat_share: measured with --trace 1")
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    correct = failed == 0 and mismatches == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    if not (SRC / "cocontra" / "__init__.py").is_file():
        sys.stderr.write(f"no cocontra sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
