"""End-to-end benchmark of the cherednik package.

    python3 bench/run.py --workload {partition,kernel,cli} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is loaded from the
checkout's ``src`` directory.  Every workload is closed-loop with a single
client: one job at a time, each started when the previous one returned.
The seed only builds the job list; the package sees nothing but the jobs.

With ``--trace 0`` the run repeats whole passes over the job list while
another pass still fits in ``--seconds`` (at least one), times set-up in
fresh interpreters before and after them, and prints every end-to-end
metric.  With ``--trace 1`` it runs exactly one pass with the per-layer
wrappers of ``tracing.py`` installed and prints the per-layer metrics.
Every job's output is checked against ``references.json`` either way.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat the figures for a reader.  Untraced times are in seconds at a
fixed reference speed of the host (see hostspeed.py); traced ones are raw.
Each run also appends a record to ``bench/out/results.jsonl``; traced runs
write their spans next to it.

See README.md in this directory for the metrics and workloads.
"""
import argparse
import hashlib
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"

WORKLOADS = ("partition", "kernel", "cli")
C_VALUES = ("1", "1/2", "1/3", "2")
PARTITION_GROUPS = ("A2", "I2_3", "B2", "G2_1_2", "I2_4", "I2_5", "G3_1_2")
# One job of I2_5 or G3_1_2 is a third to a half of a partition pass and its
# time moves by about a third with c, so a seeded c there would make the pass
# time a function of the seed; they run at the default c = 1.
PARTITION_FIXED_C = {"I2_5": "1", "G3_1_2": "1"}
KERNEL_DEGREE = 3
CATALOGUE = ("A1", "A2", "B2", "B3", "G2_1_2", "G3_1_2", "G4_1_2", "I2_3",
             "I2_4", "I2_5", "I2_6", "Z2", "Z3", "Z4", "Z5", "Z6")

CLI_COMMANDS = (
    [["verify", "--group", g] for g in CATALOGUE]
    + [["verify", "--group", "B2", "--preset", "gaha"],
       # README examples
       ["pbw-check", "--group", "A1", "--preset", "corrupted"],
       ["dirac-cohomology", "--group", "A1", "--t", "1", "--c", "1/3",
        "--sigma", "triv"],
       ["unitarity", "--group", "A1", "--sigma", "triv", "--c", "1/4",
        "--K", "6"],
       # golden commands of tests/test_cli.py
       ["partition", "--group", "B2", "--c", "1"],
       ["export-group", "--group", "Z3"],
       ["dirac-cohomology", "--group", "B2", "--t", "0", "--c", "1",
        "--sigma", "11x0", "--simple"],
       # unitarity on A2 (the recorded defect below) and B3, a large export
       ["unitarity", "--group", "A2", "--sigma", "triv", "--c", "1/4",
        "--K", "4"],
       ["unitarity", "--group", "B3", "--sigma", "3x0", "--c", "1/4",
        "--K", "4"],
       ["export-group", "--group", "G4_1_2"]])

GOLDEN = {
    "cli partition --group B2 --c 1": "tests/golden/partition_b2_c1.json",
    "cli export-group --group Z3": "tests/golden/group_z3.json",
    "cli dirac-cohomology --group B2 --t 0 --c 1 --sigma 11x0 --simple":
        "tests/golden/simple_11x0_b2.json",
}

# Recorded defects: the job is kept and counted in fail_frac.  It is not
# counted in `failed` while it fails exactly as recorded.  Once it fails
# otherwise, or succeeds, it counts as failed: a fix has to remove it from
# here and record its output with record.py.
KNOWN_FAILURES = {
    "cli unitarity --group A2 --sigma triv --c 1/4 --K 4":
        "AssertionError: contravariant Gram is not symmetric",
}

# set-up is the median over fresh interpreters probed before and after the
# passes, each time at least SETUP_MIN_PROBES of them and more until
# SETUP_SECONDS have passed: the host's speed moves in phases of a few
# seconds, and a set-up of 0.2 s must be sampled across many of them
SETUP_MIN_PROBES = 4
SETUP_SECONDS = 3.0
RUN_LIMIT_S = 170        # hard stop for one invocation, children included

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("slowest_call_s", "s"), ("peak_rss_mib", "MiB"))

PER_LAYER = (
    ["trace.wall_s",
     "groups.build_group.calls", "groups.build_group.self_s",
     "scalars.inverse.calls", "scalars.inverse.self_s",
     "scalars.mul.calls", "scalars.mul.self_s",
     "linalg.rref.calls", "linalg.rref.self_s", "linalg.rref.entries",
     "linalg.rref.nonzeros", "linalg.rref.rank", "linalg.rref.max_rows",
     "linalg.rref.max_cols",
     "linalg.nullspace.self_s", "linalg.column_space_basis.self_s",
     "linalg.subspace_intersection.self_s", "linalg.psd_report.self_s",
     "poly.wedge_matrix.calls", "poly.wedge_matrix.self_s",
     "clifford.mul.calls", "clifford.mul.self_s", "clifford.pin_tau.calls",
     "clifford.spin_action.calls", "clifford.spin_action.self_s",
     "pbw.mul.calls", "pbw.mul.self_s", "pbw.pbw_check.self_s",
     "pbw.cherednik_family.calls", "pbw.cherednik_family.self_s",
     "dirac.tensor_mul.calls", "dirac.tensor_mul.self_s",
     "dirac.derivation_d.calls", "dirac.derivation_d.self_s",
     "dirac.delta_element.calls",
     "dirac.decompose_kernel_element.calls",
     "dirac.decompose_kernel_element.self_s",
     "dirac.verify_dirac_square.self_s",
     "modules.dirac_cohomology.calls", "modules.dirac_cohomology.self_s",
     "modules.dirac_cohomology.kernel_dim",
     "modules.dirac_cohomology.image_dim",
     "modules.dirac_cohomology.window_cells",
     "modules.w_cell.calls", "modules.w_cell.self_s",
     "modules.action_blocks.calls", "modules.action_blocks.self_s",
     "modules.baby_verma.self_s", "modules.one_dimensional_quotient.self_s",
     "modules.unitarity_report.self_s"]
    + [f"calogero_moser.dirac_partition.{g}.s" for g in PARTITION_GROUPS]
    + ["calogero_moser.verify_cm_factorization.s"]
    + [f"cli.{cmd}.s" for cmd in tracing.CLI_COMMANDS]
    + ["cli.interpreter_s"])


class BenchError(Exception):
    """The run cannot produce a result."""


# --------------------------------------------------------------------------
# job lists


def job_list(workload, seed):
    """The seeded job list: the same (workload, seed) always gives the same
    jobs in the same order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "partition":
        jobs = [{"kind": "partition", "group": g,
                 "c": PARTITION_FIXED_C.get(g) or rng.choice(C_VALUES)}
                for g in PARTITION_GROUPS]
    elif workload == "kernel":
        jobs = [{"kind": "kernel", "group": "A2", "c": rng.choice(C_VALUES),
                 "degree": KERNEL_DEGREE}]
    elif workload == "cli":
        jobs = [{"kind": "cli", "argv": list(argv)} for argv in CLI_COMMANDS]
    else:
        raise BenchError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    for job in jobs:
        job["id"] = job_id(job)
    return jobs


def job_id(job):
    if job["kind"] == "cli":
        return "cli " + " ".join(job["argv"])
    if job["kind"] == "kernel":
        return f"kernel {job['group']} c={job['c']} degree={job['degree']}"
    return f"partition {job['group']} c={job['c']}"


def workload_groups(workload):
    return {"partition": PARTITION_GROUPS, "kernel": ("A2",),
            "cli": CATALOGUE}[workload]


# --------------------------------------------------------------------------
# child processes


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv, deadline, stdin_bytes=b""):
    """Run one child to completion.  Returns its start and end in
    ``time.perf_counter`` time, its wall seconds, exit code, user plus
    system CPU seconds, peak RSS in MiB, stdout and stderr."""
    OUT.mkdir(exist_ok=True)
    paths = [OUT / f".child-{os.getpid()}.{name}"
             for name in ("in", "out", "err")]
    paths[0].write_bytes(stdin_bytes)
    try:
        with open(paths[0], "rb") as fin, open(paths[1], "wb") as fout, \
                open(paths[2], "wb") as ferr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr,
                                    env=child_env(), cwd=ROOT)
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select(
                    [pidfd], [], [], max(0.0, deadline - time.monotonic()))
            finally:
                os.close(pidfd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            if not ready:
                raise BenchError(f"time limit reached during {argv[1:4]}")
        return {"start": start, "end": end, "seconds": end - start,
                "code": proc.returncode,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mib": usage.ru_maxrss / 1024,
                "stdout": paths[1].read_bytes(),
                "stderr": paths[2].read_bytes()}
    finally:
        for p in paths:
            p.unlink(missing_ok=True)


def read_dump(path):
    """The JSON object a child wrote to ``path``, which is removed."""
    try:
        return json.loads(path.read_text())
    finally:
        path.unlink(missing_ok=True)


def setup_probes(workload, deadline):
    """Seconds at the reference speed, spawn to exit, of fresh
    interpreters that import the package and build the workload's
    groups."""
    out_file = OUT / f".setup-{os.getpid()}.json"
    argv = [sys.executable, str(BENCH / "worker.py"), "setup", str(out_file),
            *workload_groups(workload)]
    samples = []
    start = time.perf_counter()
    while (len(samples) < SETUP_MIN_PROBES
           or time.perf_counter() - start < SETUP_SECONDS):
        r = run_child(argv, deadline)
        if r["code"] != 0:
            raise BenchError("set-up probe failed: "
                             + r["stderr"].decode(errors="replace")[-500:])
        speed = read_dump(out_file)["samples"]
        samples.append(hostspeed.scaled(r["start"], r["end"], speed))
    return samples


def library_pass(workload, jobs, trace, deadline):
    spec = {"groups": list(workload_groups(workload)), "trace": trace,
            "jobs": [{k: v for k, v in job.items() if k != "id"}
                     for job in jobs]}
    r = run_child([sys.executable, str(BENCH / "worker.py"), "jobs"],
                  deadline, json.dumps(spec).encode())
    if r["code"] != 0:
        raise BenchError("worker failed: "
                         + r["stderr"].decode(errors="replace")[-2000:])
    report = json.loads(r["stdout"])
    raw_wall = report["end"] - report["start"]
    if trace:
        wall = raw_wall
        calls = [res["end"] - res["start"] for res in report["results"]]
    else:
        speed = report["samples"]
        wall = hostspeed.scaled(report["start"], report["end"], speed)
        calls = [hostspeed.scaled(res["start"], res["end"], speed)
                 for res in report["results"]]
    return {"wall_s": wall, "raw_wall_s": raw_wall,
            "cpu_s": report["cpu_s"] * wall / raw_wall,
            "peak_rss_mib": report["peak_rss_mib"], "calls": calls,
            "observed": report["results"],
            "traces": [report["trace"]] if trace else []}


def cli_pass(jobs, trace, deadline):
    calls, observed, traces = [], [], []
    cpu = rss = 0.0
    out_file = OUT / f".cli-{os.getpid()}.json"
    start = time.perf_counter()
    for job in jobs:
        argv = [sys.executable, str(BENCH / "worker.py"), "cli",
                repr(time.perf_counter()), str(out_file), str(int(trace)),
                *job["argv"], "--format", "json"]
        r = run_child(argv, deadline)
        dump = read_dump(out_file) if out_file.is_file() else {}
        if trace:
            seconds = r["seconds"]
            if "trace" in dump:
                traces.append(dump["trace"])
        elif "samples" in dump:
            seconds = hostspeed.scaled(r["start"], r["end"], dump["samples"])
        else:
            raise BenchError(f"no speed samples from {job['argv'][:3]}")
        calls.append(seconds)
        cpu += r["cpu_s"] * seconds / r["seconds"]
        rss = max(rss, r["peak_rss_mib"])
        observed.append(r)
    return {"wall_s": sum(calls), "raw_wall_s": time.perf_counter() - start,
            "cpu_s": cpu, "peak_rss_mib": rss, "calls": calls,
            "observed": observed, "traces": traces}


def run_pass(workload, jobs, trace, deadline):
    if workload == "cli":
        return cli_pass(jobs, trace, deadline)
    return library_pass(workload, jobs, trace, deadline)


# --------------------------------------------------------------------------
# output checks


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def load_references():
    return json.loads(REFERENCES.read_text())["jobs"]


def check(job, observed, references):
    """Classify one job's outcome as "ok", "expected-failure" or
    "failed", with a reason."""
    jid = job["id"]
    if job["kind"] != "cli":
        if observed["error"]:
            return "failed", observed["error"]
        if jid not in references:
            return "failed", "no reference recorded"
        if observed["digest"] != references[jid]["sha256"]:
            return "failed", "output differs from the reference"
        return "ok", ""

    code, out = observed["code"], observed["stdout"]
    err_lines = observed["stderr"].decode(errors="replace").strip()
    last_err = err_lines.splitlines()[-1] if err_lines else ""
    if jid in KNOWN_FAILURES:
        if code == 1 and last_err == KNOWN_FAILURES[jid]:
            return "expected-failure", last_err
        if code == 0:
            return "failed", ("recorded failure no longer occurs; "
                              "record its reference")
        return "failed", f"exit {code}: {last_err}"
    ref = references.get(jid)
    if ref is None:
        return "failed", "no reference recorded"
    if code != ref["exit"]:
        return "failed", f"exit {code}, expected {ref['exit']}: {last_err}"
    if sha256(out) != ref["sha256"]:
        return "failed", "output differs from the reference"
    golden = GOLDEN.get(jid)
    if golden is not None:
        path = ROOT / golden
        if not path.is_file() or path.read_bytes() != out:
            return "failed", f"output differs from {golden}"
    return "ok", ""


# --------------------------------------------------------------------------
# metrics


def end_to_end_metrics(setup_s, passes):
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "slowest_call_s": statistics.median(max(p["calls"]) for p in passes),
        "peak_rss_mib": max(p["peak_rss_mib"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer_metrics(traced_pass):
    stats, sizes = tracing.merge(traced_pass["traces"])
    metrics = {}
    for name in PER_LAYER:
        base, field = name.rsplit(".", 1)
        if name == "trace.wall_s":
            value, unit = traced_pass["wall_s"], "s"
        elif name in sizes:
            value, unit = sizes[name], "count"
        elif name in stats:   # cli.interpreter_s: timed outside any span
            value, unit = stats[name][2], "s"
        elif field == "calls":
            value, unit = stats.get(base, [0, 0.0, 0.0])[0], "count"
        elif field == "self_s":
            value, unit = stats.get(base, [0, 0.0, 0.0])[1], "s"
        elif field == "s":
            value, unit = stats.get(base, [0, 0.0, 0.0])[2], "s"
        else:
            value, unit = 0, "s"   # e.g. cli.interpreter_s off the cli workload
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def counters(metrics):
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


# --------------------------------------------------------------------------
# run records


def environment():
    return {"python": platform.python_version(), "commit": _commit(),
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg())}


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def previous_records(workload, seed):
    path = OUT / "results.jsonl"
    if not path.is_file():
        return []
    records = [json.loads(line) for line in path.read_text().splitlines()
               if line.strip()]
    return [r for r in records
            if r["workload"] == workload and r["seed"] == seed]


def append_record(record):
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")


# --------------------------------------------------------------------------
# main


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def run(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "cherednik" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'cherednik'}")
    references = load_references()
    env_before = environment()
    jobs = job_list(args.workload, args.seed)
    trace = bool(args.trace)

    setup_samples = [] if trace else setup_probes(args.workload, deadline)
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(args.workload, jobs, trace, deadline))
        now = time.perf_counter()
        # start another pass only if it is expected to end in time
        if trace or (now - start) + (now - pass_start) > args.seconds:
            break
    if not trace:
        setup_samples += setup_probes(args.workload, deadline)

    outcomes = []
    for p in passes:
        for job, observed in zip(jobs, p["observed"]):
            status, reason = check(job, observed, references)
            outcomes.append({"job": job["id"], "status": status,
                             "reason": reason})
    attempted = len(outcomes)
    failed = sum(o["status"] == "failed" for o in outcomes)
    expected = sum(o["status"] == "expected-failure" for o in outcomes)

    if trace:
        metrics = per_layer_metrics(passes[0])
    else:
        metrics = end_to_end_metrics(statistics.median(setup_samples),
                                     passes)

    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"trace {args.trace}  passes {len(passes)}  "
             f"jobs per pass {len(jobs)}"]
    env = environment()
    lines.append(f"python {env['python']}  commit {env['commit']}  "
                 f"nproc {env['nproc']}  loadavg {env_before['loadavg']} -> "
                 f"{env['loadavg']}")
    for o in outcomes:
        if o["status"] != "ok" or o["reason"]:
            lines.append(f"  {o['status']}: {o['job']}: {o['reason']}")
    lines.append(f"fail_frac {(failed + expected) / attempted:.6g}  "
                 f"({failed + expected}/{attempted}: {failed} unexpected, "
                 f"{expected} recorded)")
    cmd_p50_s = statistics.median(s for p in passes for s in p["calls"])
    if args.workload == "cli" and not trace:
        # on cli alone: the library workloads' jobs differ too much in
        # size for a median job to be a steady figure
        lines.append(f"cmd_p50_s {cmd_p50_s:.6g} s (median command latency, "
                     f"interpreter start included)")
    for name, m in metrics.items():
        lines.append(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "environment_start": env_before, "environment": env,
              "passes": len(passes), "setup_samples": setup_samples,
              "call_seconds": [p["calls"] for p in passes],
              "raw_wall_s": statistics.median(p["raw_wall_s"]
                                              for p in passes),
              "attempted": attempted, "failed": failed,
              "expected_failures": expected,
              "fail_frac": (failed + expected) / attempted,
              "cmd_p50_s": cmd_p50_s,
              "outcomes": [o for o in outcomes if o["status"] != "ok"],
              "metrics": {k: v["value"] for k, v in metrics.items()}}
    if trace:
        span_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(span_file, passes[0]["traces"])
        earlier = previous_records(args.workload, args.seed)
        untraced = [r for r in earlier if r["trace"] == 0]
        if untraced:
            overhead = metrics["trace.wall_s"]["value"] \
                - untraced[-1]["raw_wall_s"]
            record["trace_overhead_s"] = overhead
            lines.append(f"tracing overhead {overhead:.3f} s (traced wall "
                         f"time minus the last untraced one of this seed, "
                         f"both unscaled)")
        traced = [r for r in earlier if r["trace"] == 1]
        if traced:
            now = counters(metrics)
            before = {k: traced[-1]["metrics"].get(k) for k in now}
            differ = sorted(k for k in now if now[k] != before[k])
            record["counters_repeat"] = not differ
            lines.append("counters repeat the previous traced run: "
                         + ("yes" if not differ else
                            "NO, differing: " + ", ".join(differ)))
        lines.append(f"spans written to {span_file.relative_to(ROOT)}")
    append_record(record)

    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    try:
        run(args)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
