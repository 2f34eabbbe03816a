"""ellcover benchmark: time to an exact, verified answer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload series-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --out runs.jsonl

Each workload runs in a fresh interpreter (``worker.py``) started from this
process with a scrubbed environment: ``PYTHONPATH`` is the checkout's
``src`` and ``HURWITZ_WORK_BUDGET`` is unset.  Workloads, and why each was
chosen, are listed in ``BENCHMARK.json``; ``predictions.json`` says which
layer metric should move which end-to-end metric on which workload.

End-to-end metrics (``--trace 0``):

* ``wall_s``  median wall seconds of one iteration, from the first library or
  CLI call to the last verified result;
* ``cpu_s``   median user+sys seconds of one iteration, the worker and every
  child it waited for (CLI processes and their pool workers);
* ``setup_s`` median, over fresh interpreters, of the time from launching the
  interpreter until ``import ellcover`` returns (after one warm-up run that
  fills the bytecode cache);
* ``peak_rss_mib`` peak resident set of the worker, or of the largest CLI
  process on ``cli-oracles``;
* ``pass_ratio`` operations whose output matched exactly, over operations
  attempted: one minus the fail ratio, which is printed beside it.

With ``--trace 1`` the worker runs iteration 0 twice untraced and then once
traced, all in one process, and the metrics are the per-layer counters and
timers of ``tracer.py`` plus the tracing overhead (traced minus untraced
wall seconds).  Counts repeat exactly for a given seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` appends a
record of each run (with its seed and failures) to a JSON-lines file, which
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def scrubbed_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "HURWITZ_WORK_BUDGET"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _run(cmd, env, timeout):
    """Run a child in its own process group; on timeout kill the whole group
    (CLI pool workers included) and wait for it."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1]} did not finish within {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited with {proc.returncode}:\n{err.strip()[-2000:]}")
    return out


def setup_seconds(env) -> list:
    """Launch-to-import times of fresh interpreters, after one warm-up."""
    probe = [sys.executable, "-c", "import ellcover, time; print(time.monotonic())"]
    _run(probe, env, 60)
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        samples.append(float(_run(probe, env, 60).split()[-1]) - start)
    return samples


def run_workload(workload, seed, seconds, trace, golden, env) -> dict:
    scratch = ROOT / ".perfbench_tmp" / f"{os.getpid()}-{workload}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--golden", str(golden), "--scratch", str(scratch)]
    try:
        out = _run(cmd, env, WORKER_TIMEOUT_S)
    finally:
        for path in (scratch, scratch.parent):
            with contextlib.suppress(OSError):  # gone already, or another run still uses it
                path.rmdir()
    return json.loads(out.strip().splitlines()[-1])


def summarize(workload, seed, seconds, trace, spec, worker, setup) -> dict:
    attempted = worker["attempted"]
    failed = len(worker["failures"])
    if trace:
        wanted, values = spec["per_layer"], worker["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(worker["wall_s"]),
            "cpu_s": statistics.median(worker["cpu_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": worker["peak_rss_mib"],
            "pass_ratio": (attempted - failed) / attempted,
        }
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": {k: worker[k] for k in ("wall_s", "cpu_s") if k in worker} | ({"setup_s": setup} if setup else {}),
        "absent": worker.get("absent", []),
        "failures": worker["failures"][:20],
    }


def report(rec):
    print(f"workload={rec['workload']} seed={rec['seed']} seconds={rec['seconds']} trace={rec['trace']} "
          f"cores={len(os.sched_getaffinity(0))} python={sys.version.split()[0]}")
    for name, m in rec["metrics"].items():
        samples = rec["samples"].get(name)
        extra = ""
        if samples:
            extra = f"  (median of {len(samples)}; min {min(samples):.4g}, max {max(samples):.4g})"
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}{extra}")
    if not rec["trace"]:
        print(f"  {'fail_ratio':32s} {rec['failed'] / rec['attempted']:.6g} ratio"
              f"  ({rec['failed']} failed of {rec['attempted']} attempted)")
    for name in rec["absent"]:
        print(f"  {name:32s} absent (target not found in ellcover)")
    for line in rec["failures"]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ellcover benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append one JSON record per workload run to this file")
    parser.add_argument("--golden", default=str(HERE / "golden.json"), help="expected outputs")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if not (ROOT / "src" / "ellcover" / "__init__.py").is_file():
        print(f"error: no ellcover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = scrubbed_env()
    records = []
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            setup = [] if args.trace else setup_seconds(env)
            worker = run_workload(workload, args.seed, seconds, args.trace, args.golden, env)
            rec = summarize(workload, args.seed, seconds, args.trace, spec, worker, setup)
            report(rec)
            records.append(rec)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(rec) + "\n")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
