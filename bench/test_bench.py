"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench -q
"""
import json
import math
import shutil
import subprocess
import sys
import time

import pytest

import hostspeed
import run
import tracing

KNOWN = next(iter(run.KNOWN_FAILURES))


def _job(jid):
    for w in run.WORKLOADS:
        for job in run.job_list(w, 1):
            if job["id"] == jid:
                return job
    raise KeyError(jid)


def test_same_seed_gives_same_job_list():
    for w in run.WORKLOADS:
        assert run.job_list(w, 7) == run.job_list(w, 7)


def test_seed_changes_order_and_c():
    for w in run.WORKLOADS:
        assert len({json.dumps(run.job_list(w, s)) for s in range(8)}) > 1


def test_job_list_shapes():
    jobs = run.job_list("partition", 3)
    assert sorted(job["group"] for job in jobs) == \
        sorted(run.PARTITION_GROUPS)
    assert all(job["c"] == run.PARTITION_FIXED_C.get(job["group"], job["c"])
               for job in jobs)
    assert len(run.job_list("kernel", 3)) == 1
    assert len(run.job_list("cli", 3)) == 26


def test_every_reachable_job_has_a_reference():
    refs = run.load_references()
    for seed in range(64):
        for w in run.WORKLOADS:
            for job in run.job_list(w, seed):
                assert job["id"] in refs or job["id"] in run.KNOWN_FAILURES


def test_altered_library_output_counts_as_failure():
    refs = run.load_references()
    job = run.job_list("kernel", 1)[0]
    good = {"digest": refs[job["id"]]["sha256"], "error": None}
    assert run.check(job, good, refs) == ("ok", "")
    assert run.check(job, dict(good, digest="0" * 64), refs)[0] == "failed"
    crashed = {"digest": None, "error": "ValueError: no decomposition"}
    assert run.check(job, crashed, refs)[0] == "failed"


def test_altered_cli_output_counts_as_failure():
    refs = run.load_references()
    jid = "cli partition --group B2 --c 1"
    job = _job(jid)
    golden = (run.ROOT / run.GOLDEN[jid]).read_bytes()
    good = {"code": 0, "stdout": golden, "stderr": b""}
    assert run.check(job, good, refs) == ("ok", "")
    altered = golden.replace(b"2x0", b"0x2", 1)
    assert run.check(job, dict(good, stdout=altered), refs)[0] == "failed"
    assert run.check(job, dict(good, code=1), refs)[0] == "failed"


def test_recorded_failure_is_expected_until_fixed():
    job = _job(KNOWN)
    crash = ("Traceback (most recent call last):\n  ...\n"
             + run.KNOWN_FAILURES[KNOWN] + "\n").encode()
    observed = {"code": 1, "stdout": b"", "stderr": crash}
    assert run.check(job, observed, {})[0] == "expected-failure"
    other = dict(observed, stderr=b"Traceback\nKeyError: 'x'\n")
    assert run.check(job, other, {})[0] == "failed"
    # a fix must come with a recorded reference
    fixed = {"code": 0, "stdout": b'{"consistent": true}\n', "stderr": b""}
    assert run.check(job, fixed, {}) == (
        "failed", "recorded failure no longer occurs; record its reference")


def _a2_pass(trace):
    jobs = [{"kind": "partition", "group": "A2", "c": "1",
             "id": "partition A2 c=1"}]
    return jobs, run.library_pass("partition", jobs, trace,
                                  time.monotonic() + 120)


def test_worker_output_matches_reference():
    jobs, result = _a2_pass(trace=False)
    assert run.check(jobs[0], result["observed"][0],
                     run.load_references()) == ("ok", "")


def test_traced_counters_repeat_exactly():
    runs = []
    for _ in range(2):
        _, result = _a2_pass(trace=True)
        runs.append(run.counters(run.per_layer_metrics(result)))
    assert runs[0] == runs[1]
    assert runs[0]["linalg.rref.calls"] > 0
    assert runs[0]["modules.dirac_cohomology.calls"] > 0


def test_self_time_excludes_traced_children():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        inner()

    inner = tracer.wrap(inner, "inner", hot=False)
    outer = tracer.wrap(outer, "outer", hot=False)
    outer()
    calls, self_s, total_s = tracer.stats["outer"]
    assert calls == 1 and self_s < 0.01 < 0.02 <= total_s
    (_, parent, *_), (oid, *_) = tracer.spans[1], tracer.spans[0]
    assert parent == oid


def test_scaled_time_is_at_the_reference_speed_without_the_spins():
    spin = 2 * hostspeed.REFERENCE_SPIN_S     # a host at half the speed
    samples = [(i / 10, spin) for i in range(11)]
    # nine spins start inside the interval; the rest runs at half speed
    expected = (0.9 - 9 * spin) / 2
    assert math.isclose(hostspeed.scaled(0.05, 0.95, samples), expected)
    with pytest.raises(ValueError):
        hostspeed.scaled(0.0, 1.0, [])


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
