"""Self-test of the benchmark at tiny sizes (one job per kind).

    python3 perfbench/selftest.py

Checks that every metric is printed with its unit, that the traced run
reports every per-layer metric and separates the layers, that the tracer
patches by-name imports, and that the output checks can fail: a report
with one flipped byte raises ``report_mismatches``.  The functions are also
collected by pytest when it is pointed at this file.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return lines[:-1], result


def _printed(lines, name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and unit in line.split()
               for line in lines)


def test_every_end_to_end_metric_is_printed_with_its_unit():
    gates = {"job_fail_ratio": "ratio", "report_mismatches": "count"}
    for workload in WORKLOADS:
        lines, result = _bench(workload, 0)
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, unit in {**expected, **gates}.items():
            assert _printed(lines, name, unit), (workload, name)
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    for workload in WORKLOADS:
        lines, result = _bench(workload, 1)
        metrics = result["metrics"]
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert {k: v["unit"] for k, v in metrics.items()} == expected
        for name, unit in expected.items():
            assert _printed(lines, name, unit), (workload, name)
        matmuls = metrics["exactlin.matrix.matmul.calls"]["value"]
        pairs = metrics["set_contramodule.induction_adjunction.pairs"]["value"]
        if workload == "set-cert":
            assert matmuls == 0 and pairs > 0
        else:
            assert matmuls > 0 and pairs == 0
        assert metrics["trace.overhead_ratio"]["value"] > 0


def test_tracer_patches_names_imported_elsewhere():
    # in a child process, so the patches do not outlive the check
    code = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from cocontra import cli, coalg, exactlin
from cocontra.coalg import functors
import tracing
before = exactlin.compose, cli.serialize_result
tracing.Tracer().install()
assert functors.compose is exactlin.compose is not before[0]
assert cli.serialize_result is not before[1]
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_times_are_rescaled_to_reference_speed():
    # a machine running at half speed doubles both the job and the
    # reference kernel timed around it
    fast = {"job_s": [0.1, 0.2], "ref_s": [0.001] * 4, "passed": 2,
            "failed_ids": [], "report_s": 0.01, "setup_s": 0.1,
            "setup_ref_s": [0.001] * 10, "peak_rss_mb": 10.0}
    slow = {**fast, "job_s": [0.2, 0.4], "ref_s": [0.002] * 4,
            "report_s": 0.02, "setup_s": 0.2, "setup_ref_s": [0.002] * 10}
    scale = run.REFERENCE_S / 0.001
    for passes in ([fast, fast], [slow, slow], [fast, slow]):
        e2e = run.end_to_end(passes)
        assert abs(e2e["job_p50_ms"] - 150 * scale) < 1e-9
        assert abs(e2e["setup_s"] - 0.1 * scale) < 1e-12
    # against a slower reference a job of the same CPU time counts less
    got = run.normalized_jobs({**fast, "ref_s": [0.001, 0.003, 0.003]})
    want = [0.1 * 0.001 * scale / 0.002, 0.2 * 0.001 * scale / 0.003]
    assert all(abs(g - w) < 1e-12 for g, w in zip(got, want))


def test_flipped_byte_raises_report_mismatches():
    from cocontra import cli, serialize

    manifest, _ = workloads.generate("set-cert", 3, tiny=True)
    ctx = {"budget": 1_000_000, "oracle": True, "seed": 3, "timing": False,
           "parallel": False, "field": "Q"}
    data = serialize.canonical_bytes(cli.run_manifest(manifest, ctx))
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 1
    good = hashlib.sha256(data).hexdigest()
    bad = hashlib.sha256(bytes(flipped)).hexdigest()
    assert run.report_mismatches([good, good], good) == 0
    assert run.report_mismatches([good, bad], None) == 1
    assert run.report_mismatches([bad, bad], good) == 1
    assert run.report_mismatches([good, bad, bad], good) == 2


def test_a_failing_job_counts_against_the_fail_ratio():
    ok = {"job_s": [0.1, 0.2], "ref_s": [0.001] * 4, "passed": 2,
          "failed_ids": [], "report_s": 0.01, "setup_s": 0.1,
          "setup_ref_s": [0.001] * 10, "peak_rss_mb": 10.0}
    bad = {**ok, "passed": 1, "failed_ids": ["j0001"]}
    assert run.end_to_end([ok, ok])["job_fail_ratio"] == 0
    assert run.end_to_end([ok, bad])["job_fail_ratio"] == 0.25


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok  {name}")
