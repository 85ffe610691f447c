"""Child process of the benchmark runner.

Three modes, all run with the package's ``src`` directory on PYTHONPATH.
Untraced, each one samples the host's speed with a ``hostspeed.Sampler``
from its first line to its last and reports the samples, so that the
runner can rescale its times; traced, it does not, so that no spin lands
in a span.

``worker.py jobs``
    Reads ``{"groups": [...], "jobs": [...], "trace": bool}`` as JSON on
    stdin, builds the groups, runs the jobs one after another and prints
    one JSON object: per-job seconds and output digests, the pass's wall
    and CPU seconds, the peak RSS, and the speed samples or the tracer
    dump.

``worker.py cli SPAWN_TIME OUT_FILE TRACE ARG...``
    ``python -m cherednik.cli ARG...`` with the same stdout and exit code,
    plus a JSON object written to OUT_FILE: the speed samples (TRACE 0) or
    the tracer dump (TRACE 1).  SPAWN_TIME is the parent's
    ``time.perf_counter()`` just before the spawn, so that start-up plus
    import is measured as ``cli.interpreter_s``.

``worker.py setup OUT_FILE GROUP...``
    Imports the package and builds the groups: the set-up every CLI call
    and script pays.  Writes the speed samples to OUT_FILE.
"""
import hashlib
import json
import sys
import time
from fractions import Fraction

import hostspeed


def canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_job(job, groups):
    from cherednik import dirac_partition, verify_cm_factorization

    group = groups[job["group"]]
    c = Fraction(job["c"])
    if job["kind"] == "partition":
        return dirac_partition(group, c).to_data()
    if job["kind"] == "kernel":
        return verify_cm_factorization(group, c, job["degree"])
    raise ValueError(f"unknown job kind {job['kind']!r}")


def run_jobs():
    import resource

    spec = json.load(sys.stdin)
    sampler = None if spec["trace"] else hostspeed.Sampler()
    if sampler:
        sampler.start()
    import cherednik

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.install()
    groups = {g: cherednik.build_group(g) for g in spec["groups"]}

    results = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for job in spec["jobs"]:
        start = time.perf_counter()
        cpu = time.process_time()
        try:
            out = run_job(job, groups)
        except Exception as err:  # a failed job is reported, not fatal
            out, error = None, f"{type(err).__name__}: {err}"
        else:
            error = None
        results.append({"start": start, "end": time.perf_counter(),
                        "cpu_s": time.process_time() - cpu,
                        "digest": None if error else digest(canonical(out)),
                        "error": error})
    t1 = time.perf_counter()
    cpu = time.process_time() - cpu0

    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {"results": results, "start": t0, "end": t1, "cpu_s": cpu,
              "peak_rss_mib": maxrss_kib / 1024,
              "samples": sampler.stop() if sampler else None,
              "trace": tracer.dump() if tracer else None}
    sys.stdout.write(json.dumps(report) + "\n")


def run_cli(spawned, out_file, trace, argv):
    sampler = None if trace else hostspeed.Sampler()
    tracer = None
    if sampler:
        sampler.start()
    try:
        import cherednik.cli as cli

        if trace:
            import tracing
            interpreter_s = time.perf_counter() - spawned
            tracer = tracing.install()
            tracer.stats["cli.interpreter_s"] = [1, interpreter_s,
                                                 interpreter_s]
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        if sampler:
            write_json(out_file, {"samples": sampler.stop()})
        elif tracer:
            write_json(out_file, {"trace": tracer.dump()})


def run_setup(out_file, groups):
    sampler = hostspeed.Sampler()
    sampler.start()
    import cherednik

    for g in groups:
        cherednik.build_group(g)
    write_json(out_file, {"samples": sampler.stop()})


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


if __name__ == "__main__":
    if sys.argv[1] == "jobs":
        run_jobs()
    elif sys.argv[1] == "cli":
        sys.exit(run_cli(float(sys.argv[2]), sys.argv[3],
                         sys.argv[4] == "1", sys.argv[5:]))
    elif sys.argv[1] == "setup":
        run_setup(sys.argv[2], sys.argv[3:])
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
