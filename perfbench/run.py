#!/usr/bin/env python3
"""Crawl benchmark: one command per workload.

    python3 perfbench/run.py --workload crawl_fetch_bound --seed 1 \\
        --seconds 20 --trace 0

Runs the workload's Ray sessions (see ``workloads.py``) one after another in
child processes, each repeating the crawl for its share of ``--seconds``
and checking every repetition against the plain-Python crawl oracle for the
seed. The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` list of
BENCHMARK.json, measured with tracing off; with ``--trace 1`` they are the
``per_layer`` list. At its highest logical-CPU level a traced run
alternates untraced and traced repetitions and reports the difference of
their median wall times as ``trace.overhead_s``. The line before it carries the environment stamp and
the per-session figures; the full record, spans included, is written to
``.bench_out/`` in the repository root.

``attempted`` counts dispatched URLs plus correctness checks; ``failed``
counts fetch errors plus failed checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DEADLINE_S = 170.0
# the first run in a checkout also compiles the sources and reads every
# library from a cold disk cache
FIRST_RUN_DEADLINE_S = 850.0
# Set in every session's environment, whatever the caller's environment
# holds: one Arrow CPU thread per process (Arrow sizes its pool from
# OMP_NUM_THREADS), no Ray memory monitor (on a shared host it kills tasks
# for other processes' memory), no telemetry or progress bars.
SESSION_ENV = {
    "OMP_NUM_THREADS": "1",
    "RAY_memory_monitor_refresh_ms": "0",
    "RAY_USAGE_STATS_ENABLED": "0",
    "RAY_DATA_DISABLE_PROGRESS_BARS": "1",
}


def _env_stamp() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True,
            # look for a repository at the root only, not in its parents
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""  # not a git checkout
    import pyarrow
    import ray

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "commit": commit}


def _steal_s() -> float:
    """CPU time the hypervisor gave to other guests so far, summed over
    CPUs (the ``steal`` column of /proc/stat); -1 where unavailable."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return -1.0


def _run_session(spec: dict, work: str, idx: int, deadline: float) -> tuple[dict, float]:
    spec_path = os.path.join(work, f"session{idx}.spec.json")
    out_path = os.path.join(work, f"session{idx}.out.json")
    log_path = os.path.join(work, f"session{idx}.log")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    env = {k: v for k, v in os.environ.items() if k not in ("RAY_ADDRESS", "RAY_TMPDIR")}
    env.update(SESSION_ENV)
    env["PYTHONPATH"] = ROOT + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # temporary files stay inside the checkout
    env["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    spawn = time.time()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.session", spec_path, out_path],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # the session stops Ray itself; this catches anything left over
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if code != 0:
        with open(log_path) as f:
            tail = f.read()[-4000:]
        raise RuntimeError(f"session {idx} ({spec['workload']}, {spec['cpus']} cpus) "
                           f"{'timed out' if code is None else f'exited {code}'}:\n{tail}")
    with open(out_path) as f:
        return json.load(f), spawn


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", default="full", choices=("full", "smoke"),
                    help="workload size; 'smoke' is the tiny smoke-test size")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "ptt_spider_go_ray")):
        print(f"perfbench: no ptt_spider_go_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench import check, inputs
    from perfbench.workloads import COMMON, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    trace = bool(args.trace)
    out_dir = os.path.join(ROOT, ".bench_out")
    first_run = not os.path.isdir(out_dir)
    deadline = time.time() + (FIRST_RUN_DEADLINE_S if first_run else RUN_DEADLINE_S)
    load_start, steal_start = os.getloadavg()[0], _steal_s()

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # relative to the root; short, because Ray's unix sockets live under it
    ray_tmp = os.path.join(".bench_work", f"r{os.getpid()}")
    sessions = []
    try:
        size = WORKLOADS[args.workload]["size"][args.size]
        w, pages = inputs.plan(WORKLOADS[args.workload], size, args.seed,
                               COMMON["push_threshold"])
        oracle_path = os.path.join(work, "oracle.json")
        check.oracle(w, size, args.seed, pages, COMMON["push_threshold"], oracle_path)
        levels = w["sessions"]["traced" if trace else "timed"]
        for i, cpus in enumerate(levels):
            spec = {
                "workload": args.workload, "size": args.size, "seed": args.seed,
                # below the highest level only untraced figures are used
                "cpus": cpus, "trace": trace and cpus == max(levels),
                "budget_s": args.seconds / len(levels),
                "work_dir": os.path.join(work, f"s{i}"),
                "pages": pages,
                "politeness_rate": w["politeness_rate"],
                "oracle_path": oracle_path,
                "ray_temp_dir": ray_tmp,
                # every session ends within the run's deadline, shutdown included
                "deadline": deadline - 15.0,
            }
            out, spawn = _run_session(spec, work, i, deadline)
            out["setup_s"] = out["phases"]["ready"] - spawn + out["crawl_setup_s"]
            sessions.append(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(os.path.join(ROOT, ray_tmp), ignore_errors=True)

    result, detail = _aggregate(w, sessions, bench, trace)
    detail["env"] = {**_env_stamp(), "logical_cpus": levels,
                     "load_1m_start": load_start, "load_1m_end": os.getloadavg()[0],
                     "steal_s": _steal_s() - steal_start}
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=args.size, pages=pages,
                  politeness_rate=w["politeness_rate"])
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump({**detail, "sessions": sessions}, f, indent=1, default=str)
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _aggregate(w: dict, sessions: list[dict], bench: dict, trace: bool) -> tuple[dict, dict]:
    """Medians over repetitions; timed figures from untraced repetitions at
    the highest logical-CPU level, per-layer figures from traced ones."""
    cpus = {s["cpus"] for s in sessions}
    hi, lo = max(cpus), min(cpus)
    reps = [(s["cpus"], r) for s in sessions for r in s["reps"]]

    def pick(cpus: int, traced: bool) -> list[dict]:
        return [r for c, r in reps if c == cpus and r["traced"] == traced]

    def pps(rs: list[dict]) -> float:
        return median([r["dispatched"] / r["wall_s"] for r in rs])

    attempted = failed = 0
    failures = []
    for _, r in reps:
        bad = [k for k, ok in r["checks"].items() if not ok]
        bad += [] if r["finished"] else ["unfinished"]
        attempted += r["dispatched"] + len(r["checks"]) + 1
        failed += r["fetch_errors"] + len(bad)
        failures += bad + (["fetch_errors"] if r["fetch_errors"] else [])

    plain_hi, plain_lo = pick(hi, False), pick(lo, False)
    values = {
        "setup_s": median([s["setup_s"] for s in sessions]),
        "wall_s": median([r["wall_s"] for r in plain_hi]),
        "driver_peak_rss_mb": median([r["driver_peak_rss_mb"] for r in plain_hi]),
        "pages_per_s": pps(plain_hi),
        "scaling_eff": (pps(plain_hi) / ((hi / lo) * pps(plain_lo))
                        if hi != lo and plain_lo else 0.0),
        "polite_efficiency": (median([r["polite_efficiency"] for r in plain_hi])
                              if w["politeness_rate"] > 0 else 0.0),
    }
    if trace:
        traced_hi = pick(hi, True)
        for k in traced_hi[0]["layers"]:
            if k != "op.stats":
                values[k] = median([r["layers"][k] for r in traced_hi])
        ops: dict[str, list[float]] = {
            m["name"]: [] for m in bench["per_layer"] if m["name"].startswith("op.")}
        for r in traced_hi:
            for name, o in r["layers"]["op.stats"].items():
                ops.setdefault(_op_metric(name), []).append(o["wall_s"])
        for k, v in ops.items():
            values[k] = median(v) if v else 0.0
        values["trace.overhead_s"] = (median([r["wall_s"] for r in traced_hi])
                                      - values["wall_s"])

    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    detail = {"values": values, "reps": len(reps), "failures": sorted(set(failures))}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, detail


def _op_metric(operator_name: str) -> str:
    """Ray Data operator name → metric name. A crawl round runs two
    operators: ``FromArrow`` and the fused
    ``MapBatches(fetch_batch_task)->MapBatches(ParseStage)`` (the traced
    run's wrappers carry other function names, so match by substring)."""
    if operator_name == "FromArrow":
        return "op.FromArrow_s"
    if "fetch_batch_task" in operator_name and "ParseStage" in operator_name:
        return "op.MapBatches_fetch_parse_s"
    return "op.other_s"


if __name__ == "__main__":
    sys.exit(main())
