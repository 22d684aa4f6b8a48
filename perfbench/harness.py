"""One benchmark process: build a workload from its seed, run one warm-up unit
of every stage, then time units round-robin until the time is up.

Run by run.py, one fresh process per set-up or measurement:

    python3 perfbench/harness.py --workload NAME --seed N --seconds S
        --trace 0|1 --role setup|measure --spawned T --out RESULT.json

``--spawned`` is the parent's CLOCK_MONOTONIC reading just before the spawn,
so set-up time covers interpreter start and imports.  The result is written
as JSON to ``--out``; run.py turns it into the benchmark's output line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_CYCLES = 3

# Reference time of calibrate(): wall_s and work_per_s are given at the speed
# at which calibrate() takes this long (about its median on the machine in
# README.md).
CAL_REF_S = 0.015

# End-to-end metrics, reported by untraced runs of every workload.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}

# Per-layer metrics, reported by traced runs of every workload (0 where the
# workload does not reach the layer).
PER_LAYER = {
    "sampling.run_pcn_chain.self_s": "s",
    "sampling.pcn.proposals": "count",
    "sampling.pcn.us_per_proposal": "us",
    "sampling.pcn.domain_exit_frac": "ratio",
    "sampling.pcn.metropolis_accept_frac": "ratio",
    "sampling.pcn.ess": "count",
    "hamiltonians.interaction_log_density.calls": "count",
    "hamiltonians.interaction_log_density.self_s": "s",
    "sampling.GaussianReference.sample_batch.calls": "count",
    "sampling.GaussianReference.sample_batch.self_s": "s",
    "sampling.PhaseDomain.contains_batch.calls": "count",
    "sampling.PhaseDomain.contains_batch.self_s": "s",
    "flows.evolve_ensemble.self_s": "s",
    "flows.state_steps": "count",
    "flows.us_per_state_step": "us",
    "flows.fft.calls": "count",
    "flows.fft.points": "count",
    "flows.fft.bytes_computed": "B",
    "fft.calls": "count",
    "fft.points": "count",
    "fft.bytes_computed": "B",
    "flows.evolve.self_s": "s",
    "flows.flow_step.calls": "count",
    "flows.flow_step.self_s": "s",
    "flows.invariance_test.self_s": "s",
    "hamiltonians.energy.calls": "count",
    "hamiltonians.energy.self_s": "s",
    "spectral.synthesize_batch.calls": "count",
    "spectral.synthesize_batch.self_s": "s",
    "spectral.synthesize_batch.points": "count",
    "spectral.analyze_batch.calls": "count",
    "spectral.analyze_batch.self_s": "s",
    "sampling.normalizability_probe.self_s": "s",
    "sampling.normalizability_probe.peak_alloc_mb": "MB",
    "sampling.estimate_critical_mass.self_s": "s",
    "sampling.estimate_critical_mass.peak_alloc_mb": "MB",
    "sampling.decay_domain_mass.self_s": "s",
    "sampling.decay_domain_mass.peak_alloc_mb": "MB",
    "transport.relative_entropy_truncation.self_s": "s",
    "transport.relative_entropy_truncation.peak_alloc_mb": "MB",
    "hamiltonians.gp_wick_interaction_batch.self_s": "s",
    "transport.sinkhorn.calls": "count",
    "transport.sinkhorn.self_s": "s",
    "transport.sinkhorn.iterations": "count",
    "transport.sinkhorn_divergence.self_s": "s",
    "transport.wasserstein_exact.self_s": "s",
    "concentration.lsi_gap_report.self_s": "s",
    "archive.write_ensemble.self_s": "s",
    "archive.write_ensemble.bytes": "B",
    "experiments.run_experiment.self_s": "s",
    "trace.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def unit_stat(times: list) -> float:
    """Per-stage statistic: the mean unit time, without the fastest and the
    slowest unit once there are five.  Units are identical work; on a shared
    machine their speed shifts in bursts of seconds, and the mean over a run
    repeated more closely between runs than the minimum, the lower quartile
    or the median did."""
    kept = sorted(times)
    if len(kept) >= 5:
        kept = kept[1:-1]
    return statistics.fmean(kept)


def calibrate() -> float:
    """Time a fixed piece of work that does not touch the program: a
    pure-Python loop and small numpy transforms, the two kinds of work that
    set the workloads' time.  On a shared machine the speed of the same code
    moves by up to 1.7x within minutes; the calibration run next to a unit
    moves with it."""
    import numpy as np
    a = np.cos(np.arange(256.0)) + 0j
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i
    for _ in range(300):
        np.fft.ifft(np.exp(1j * np.abs(np.fft.fft(a)) ** 2))
    return time.perf_counter() - t0


def speed_normalised(dt: float, cal_before: float, cal_after: float) -> float:
    """A unit's time at the reference speed: its wall time scaled by
    CAL_REF_S over the mean of the calibrations run just before and after it."""
    return dt * CAL_REF_S / (0.5 * (cal_before + cal_after))


def load_program():
    """Import numpy and the torusgibbs sources of this checkout."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "torusgibbs", "__init__.py")):
        raise SystemExit(f"no torusgibbs sources under {src}")
    sys.path.insert(0, src)
    import torusgibbs
    if not os.path.abspath(torusgibbs.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported torusgibbs from {torusgibbs.__file__}, not {src}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, role: str,
                 spawned: float, scratch: str) -> dict:
    import stages
    from tracer import Tracer

    build, work_name = stages.WORKLOADS[name]
    stage_list = build(seed, scratch)
    errors = {}
    warm, digests = {}, {}
    for st in stage_list:
        try:
            warm[st.name] = st.run()
            digests[st.name] = stages.digest(warm[st.name])
        except Exception:
            errors[st.name] = traceback.format_exc(limit=4)
    setup_s = time.monotonic() - spawned
    result = {"role": role, "setup_s": setup_s, "digests": digests, "errors": errors}
    if role == "setup":
        return result

    live = [st for st in stage_list if st.name not in errors]
    times = {st.name: [] for st in live}
    normed = {st.name: [] for st in live}
    traced_times = {st.name: [] for st in live}
    snapshots = {st.name: [] for st in live}
    same_digest = {st.name: True for st in live}
    tracer = Tracer() if trace else None
    calibrate()
    cal = calibrate()
    cals = [cal]
    start = time.perf_counter()
    cycles = 0
    while live:
        for st in list(live):
            passes = [False, True] if trace else [False]
            for traced in passes:
                try:
                    if traced:
                        tracer.reset()
                        tracer.stage = st.name
                        tracer.recording = not snapshots[st.name]
                        tracer.install()
                        t0 = time.perf_counter()
                        try:
                            with tracer.span(f"stage.{st.name}"):
                                out = st.run()
                        finally:
                            dt = time.perf_counter() - t0
                            tracer.uninstall()
                        traced_times[st.name].append(dt)
                        snapshots[st.name].append(tracer.snapshot())
                    else:
                        t0 = time.perf_counter()
                        out = st.run()
                        dt = time.perf_counter() - t0
                        cal_after = calibrate()
                        times[st.name].append(dt)
                        normed[st.name].append(speed_normalised(dt, cal, cal_after))
                        cal = cal_after
                        cals.append(cal)
                except Exception:
                    errors[st.name] = traceback.format_exc(limit=4)
                    live.remove(st)
                    break
                if stages.digest(out) != digests[st.name]:
                    same_digest[st.name] = False
        cycles += 1
        elapsed = time.perf_counter() - start
        if cycles >= MIN_CYCLES and elapsed * (cycles + 1) / cycles > seconds:
            break
    result["measured_s"] = time.perf_counter() - start

    stage_rows = {}
    checks = []
    for st in stage_list:
        if st.name in errors:
            checks.append((st.name, "raised no exception", False,
                           errors[st.name].strip().splitlines()[-1]))
            continue
        for cname, ok, detail in st.checks(warm[st.name]):
            checks.append((st.name, cname, ok, detail))
        checks.append((st.name, "every unit repeats the warm-up digest",
                       same_digest[st.name], digests[st.name]))
        stage_rows[st.name] = {"stat_s": unit_stat(normed[st.name]),
                               "raw_stat_s": unit_stat(times[st.name]),
                               "times": times[st.name], "work": st.work}

    wall = sum(r["stat_s"] for r in stage_rows.values())
    work = sum(r["work"] for r in stage_rows.values())
    work_time = sum(r["stat_s"] for r in stage_rows.values() if r["work"])
    chains = [st for st in stage_list if st.ess and st.name in stage_rows]
    ess = sum(st.ess(warm[st.name]) for st in chains)
    chain_time = sum(stage_rows[st.name]["stat_s"] for st in chains)
    result.update({
        "stages": stage_rows, "checks": checks, "cycles": cycles,
        "wall_s": wall, "raw_wall_s": sum(r["raw_stat_s"] for r in stage_rows.values()),
        "cal_median_s": statistics.median(cals),
        "work": work, "work_name": work_name,
        "work_per_s": work / work_time if work_time else 0.0,
        "ess": ess, "ess_per_s": ess / chain_time if chain_time else 0.0,
    })
    if trace:
        layers, count_checks = per_layer(stage_list, stage_rows, traced_times, snapshots,
                                         ess)
        result["per_layer"] = layers
        for sname, ok in count_checks.items():
            checks.append((sname, "traced counts repeat in every unit", ok, ""))
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        spans_path = os.path.join(ROOT, ".bench_out", f"spans-{name}-seed{seed}.tsv")
        tracer.write_spans(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
        result["spans"] = len(tracer.spans)
    return result


def per_layer(stage_list, stage_rows, traced_times, snapshots, ess):
    """Per-layer metrics: per stage, counts from the first traced unit (they
    must repeat exactly in every traced unit) and the unit statistic of each
    time, then summed over the workload's stages."""
    counts, times, peaks = {}, {}, {}
    repeat = {}
    traced_wall = 0.0
    for st in stage_list:
        snaps = snapshots.get(st.name)
        if st.name not in stage_rows or not snaps:
            continue
        repeat[st.name] = all(s["counts"] == snaps[0]["counts"] for s in snaps)
        for key, val in snaps[0]["counts"].items():
            counts[key] = counts.get(key, 0) + val
        for key in {k for s in snaps for k in s["times"]}:
            times[key] = times.get(key, 0.0) + unit_stat([s["times"].get(key, 0.0)
                                                          for s in snaps])
        for key in {k for s in snaps for k in s["peaks"]}:
            peaks[key] = max(peaks.get(key, 0.0),
                             statistics.median(s["peaks"].get(key, 0.0) for s in snaps))
        traced_wall += unit_stat(traced_times[st.name])

    def c(key):
        return counts.get(key, 0)

    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = times.get(name, 0.0)
        elif name.endswith(".peak_alloc_mb"):
            out[name] = peaks.get(name[:-len(".peak_alloc_mb")], 0.0)
        else:
            out[name] = c(name)
    tests = c("sampling.pcn.domain_tests")
    inside = c("sampling.pcn.in_domain")
    proposals = c("sampling.pcn.proposals")
    state_steps = c("flows.state_steps")
    untraced_wall = sum(r["raw_stat_s"] for r in stage_rows.values())
    out.update({
        "sampling.pcn.us_per_proposal":
            1e6 * times.get("sampling.run_pcn_chain.total_s", 0.0) / proposals if proposals else 0.0,
        "sampling.pcn.domain_exit_frac": 1.0 - inside / tests if tests else 0.0,
        "sampling.pcn.metropolis_accept_frac":
            c("sampling.pcn.accepted") / inside if inside else 0.0,
        "sampling.pcn.ess": ess,
        "flows.us_per_state_step":
            1e6 * times.get("flows.evolve_ensemble.total_s", 0.0) / state_steps
            if state_steps else 0.0,
        "transport.sinkhorn.iterations": c("transport.sinkhorn.logsumexp") // 2,
        "trace.unattributed_s": sum(v for k, v in times.items()
                                    if k.startswith("stage.") and k.endswith(".self_s")),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return out, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), default="measure")
    ap.add_argument("--spawned", type=float, default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    spawned = time.monotonic() if args.spawned is None else args.spawned
    load_program()
    scratch = os.path.join(ROOT, ".bench_out", f"work-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.role, spawned, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, default=_jsonable)
    return 0


def _jsonable(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"cannot serialise {type(obj).__name__}")


if __name__ == "__main__":
    sys.exit(main())
