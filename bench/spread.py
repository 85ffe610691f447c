"""Steadiness check: run the benchmark on seeds 1 to 10 and report, per
workload and end-to-end metric, the median and the spread (distance
between the first and third quartile as a share of the median).

    python3 bench/spread.py

Runs are interleaved across the workloads of BENCHMARK.json (seed 1 of
every workload, then seed 2, ...), with the workload order rotated each
round, so that a slow phase of the host hits every workload instead of
one.  Each run uses the ``command`` and ``run_seconds`` of BENCHMARK.json.
A spread above the metric's bound fails, setup_s included; the target is
a third of it.  The table and the raw values are also written to
bench/out/spread-<time>.json.
"""
import json
import statistics
import subprocess
import sys
import time

import run

SEEDS = range(1, 11)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {name: [] for name in bounds} for w in workloads}
    failures = []
    for i, seed in enumerate(SEEDS):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True,
                                  text=True)
            took = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                failures.append((w, seed, proc.returncode,
                                 proc.stderr[-500:]))
                print(f"{w} seed {seed}: FAILED", flush=True)
                continue
            for name in bounds:
                values[w][name].append(result["metrics"][name]["value"])
            print(f"{w:<10} seed {seed:<3} {took:6.1f} s  "
                  + "  ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items()),
                  flush=True)

    table = []
    ok = not failures
    for w in workloads:
        for name, bound in bounds.items():
            vals = values[w][name]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            verdict = ("ok" if spread <= bound / 3 else
                       "above target" if spread <= bound else "FAIL")
            ok = ok and spread <= bound
            table.append({"workload": w, "metric": name, "median": med,
                          "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "verdict": verdict,
                          "values": vals})
            print(f"{w:<10} {name:<16} median {med:10.4f}  spread "
                  f"{spread:6.3f}  bound {bound:5.2f}  {verdict}")
    run.OUT.mkdir(exist_ok=True)
    out = run.OUT / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps({"environment": run.environment(),
                               "table": table, "failures": failures},
                              indent=1))
    print(f"written to {out.relative_to(run.ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
