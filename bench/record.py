"""Record the reference outputs that the benchmark checks jobs against.

    python3 bench/record.py

Runs every job that any seed can put in a job list (each partition group
and each kernel run at every c value, and every CLI command) and writes
their output digests to bench/references.json.  Run it only on a commit
whose outputs are known to be right; it refuses to record a crash other
than the defects listed in run.KNOWN_FAILURES, or a golden command whose
output differs from its file under tests/golden.  Takes about three
minutes.
"""
import json
import sys
import time

import run


def reachable_jobs():
    jobs = [{"kind": "partition", "group": g, "c": c}
            for g in run.PARTITION_GROUPS for c in run.C_VALUES]
    jobs += [{"kind": "kernel", "group": "A2", "c": c,
              "degree": run.KERNEL_DEGREE} for c in run.C_VALUES]
    jobs += [{"kind": "cli", "argv": list(a)} for a in run.CLI_COMMANDS]
    for job in jobs:
        job["id"] = run.job_id(job)
    return jobs


def record():
    deadline = time.monotonic() + 3600
    jobs = reachable_jobs()
    refs = {}
    for workload in ("partition", "kernel"):
        batch = [j for j in jobs if j["kind"] == workload]
        result = run.library_pass(workload, batch, False, deadline)
        for job, observed in zip(batch, result["observed"]):
            if observed["error"]:
                raise run.BenchError(f"{job['id']}: {observed['error']}")
            refs[job["id"]] = {"sha256": observed["digest"]}
    batch = [j for j in jobs if j["kind"] == "cli"]
    result = run.cli_pass(batch, False, deadline)
    for job, observed in zip(batch, result["observed"]):
        jid = job["id"]
        if jid in run.KNOWN_FAILURES:
            status, reason = run.check(job, observed, {})
            if status != "expected-failure":
                raise run.BenchError(f"{jid}: recorded failure changed: "
                                     f"{reason}; once it is fixed, remove "
                                     f"it from run.KNOWN_FAILURES")
            continue
        if b"Traceback" in observed["stderr"]:
            raise run.BenchError(f"{jid} crashed: "
                                 + observed["stderr"].decode()[-500:])
        refs[jid] = {"exit": observed["code"],
                     "sha256": run.sha256(observed["stdout"])}
        status, reason = run.check(job, observed, refs)
        if status != "ok":
            raise run.BenchError(f"{jid}: {reason}")
    env = run.environment()
    payload = {"recorded_at": {"commit": env["commit"],
                               "python": env["python"]},
               "jobs": refs}
    run.REFERENCES.write_text(json.dumps(payload, indent=1, sort_keys=True)
                              + "\n")
    print(f"recorded {len(refs)} references to {run.REFERENCES}")


if __name__ == "__main__":
    try:
        record()
    except run.BenchError as err:
        sys.exit(f"record: {err}")
