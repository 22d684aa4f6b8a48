"""Benchmark of the torusgibbs package: three workloads, each run in fresh
child processes, reporting end-to-end metrics or, with --trace 1, per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload pcn-sampling --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the root of a checkout; the program is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are for people.  It exits
with 2, printing no result, when the checkout holds no torusgibbs sources.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from harness import CAL_REF_S, END_TO_END, PER_LAYER

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = os.path.join(ROOT, "perfbench", "harness.py")
WORKLOADS = ("pcn-sampling", "flow-pushforward", "estimators")
SETUP_PROBES = 2          # set-up is measured in these and in the measuring process
RUN_LIMIT_S = 170.0       # a whole run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: int, trace: int, role: str,
          deadline: float):
    """Run one harness process; returns (result, rusage) once it has ended."""
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"result-{os.getpid()}-{role}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--role", role, "--out", out]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                            stdout=sys.stderr, stdin=subprocess.DEVNULL)
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            break
        if time.monotonic() > deadline:
            proc.send_signal(signal.SIGKILL)
            _, status, rusage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise ChildFailed(f"{role} process for {workload} passed the time limit")
        time.sleep(0.02)
    if proc.returncode != 0 or not os.path.exists(out):
        raise ChildFailed(f"{role} process for {workload} exited with {proc.returncode}")
    with open(out) as fh:
        result = json.load(fh)
    os.remove(out)
    return result, rusage


def environment() -> dict:
    """The machine and software the numbers were measured on."""
    import importlib.metadata as md
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "cpu": platform.machine(), "caches": {}}
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            env[pkg] = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            parts = [open(os.path.join(idx, f)).read().strip() for f in ("level", "type", "size")]
        except OSError:
            continue
        env["caches"][f"L{parts[0]} {parts[1]}"] = parts[2]
    env["threads"] = {v: os.environ.get(v) for v in THREAD_VARS}
    return env


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(workload, seed, seconds, 0, "setup", deadline)[0])
    measured, rusage = spawn(workload, seed, seconds, trace, "measure", deadline)
    checks = [tuple(c) for c in measured["checks"]]
    for name, dig in measured["digests"].items():
        others = [s["digests"].get(name) for s in setups]
        if others:
            checks.append((name, "separate processes give the same digest",
                           all(d == dig for d in others), dig))
    failed = [c for c in checks if not c[2]]
    if trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]}
                   for k, v in measured["per_layer"].items()}
    else:
        values = {"setup_s": statistics.median([s["setup_s"] for s in setups]
                                               + [measured["setup_s"]]),
                  "wall_s": measured["wall_s"],
                  "peak_rss_mb": rusage.ru_maxrss / 1024.0,
                  "work_per_s": measured["work_per_s"]}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return {"measured": measured, "checks": checks, "failed": failed,
            "line": {"correct": not failed, "attempted": len(checks),
                     "failed": len(failed), "metrics": metrics}}


def report(workload: str, seed: int, trace: int, res: dict):
    """Human-readable lines, each starting with '#'."""
    m = res["measured"]
    print(f"# {workload} seed {seed} trace {trace}: {m['cycles']} cycles in "
          f"{m['measured_s']:.1f} s; per-stage statistic: trimmed mean of unit times "
          f"at the reference speed (calibration {CAL_REF_S * 1e3:g} ms; its median in "
          f"this run {m['cal_median_s'] * 1e3:.2f} ms)")
    for name, row in m["stages"].items():
        print(f"#   {name:<22} {row['stat_s']:.4f} s  (as measured: trimmed mean "
              f"{row['raw_stat_s']:.4f}, median {statistics.median(row['times']):.4f}, "
              f"min {min(row['times']):.4f}, {len(row['times'])} units, work {row['work']})")
    print(f"#   wall time as measured, not speed-normalised = {m['raw_wall_s']:.6g} s")
    for name, metric in res["line"]["metrics"].items():
        print(f"#   {name} = {metric['value']:.6g} {metric['unit']}")
    if not trace:
        work_time = m["work"] / m["work_per_s"] if m["work_per_s"] else 0.0
        print(f"#   {m['work_name']} = work_per_s = {m['work_per_s']:.6g} 1/s "
              f"({m['work']} items in {work_time:.4f} s)")
        if m["ess"]:
            print(f"#   ess_per_s = {m['ess_per_s']:.6g} 1/s (ESS {m['ess']:.1f}: Sokal IAT on "
                  "mass and |c_1|^2, minimum per chain, summed over chains)")
    else:
        print(f"#   spans: {m['spans']} recorded, written to {m['spans_file']}")
    attempted, failed = res["line"]["attempted"], res["line"]["failed"]
    print(f"#   fail_frac = {failed}/{attempted} = {failed / attempted:.4f}")
    for stage, name, _, detail in res["failed"]:
        print(f"#   FAILED {stage}: {name} ({detail})")
    for stage, err in m["errors"].items():
        print(f"#   ERROR {stage}: {err.strip().splitlines()[-1]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "torusgibbs", "__init__.py")):
        print(f"no torusgibbs sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace)
        except ChildFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        report(name, args.seed, args.trace, res)
        lines[name] = res["line"]
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0

if __name__ == "__main__":
    sys.exit(main())
