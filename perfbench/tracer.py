"""Span tracer for the traced benchmark run.

The tracer wraps the program's public functions from outside, in every
``torusgibbs`` namespace that binds them (``sampling.synthesize_batch`` as well
as ``spectral.synthesize_batch``), plus two class methods.  A span records its
name, start, end, parent span and stage; spans are kept in memory and written
when the run ends.  Per span name the tracer keeps calls, self time (span time
minus the time its child spans cover) and inclusive time.

Two more wrappers only count work: the ``numpy.fft`` entry points (calls,
points computed and bytes read plus written, from array shapes) and
``torusgibbs.transport.logsumexp``, which Sinkhorn calls twice per iteration.

The top-level estimators also record their ``tracemalloc`` peak; numpy reports
its allocations to tracemalloc, so the peak includes array buffers.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

SPAN_TARGETS = {
    "spectral": ["synthesize_batch", "analyze_batch", "lp_integral", "intensity_mode"],
    "hamiltonians": ["energy", "interaction_log_density", "gp_quartic_batch",
                     "gp_wick_interaction_batch", "intensity_coefficients"],
    "sampling": ["run_pcn_chain", "normalizability_probe", "estimate_critical_mass",
                 "decay_domain_mass", "GaussianReference.sample_batch",
                 "PhaseDomain.contains_batch"],
    "flows": ["evolve", "evolve_ensemble", "flow_step", "invariance_test"],
    "concentration": ["lsi_gap_report"],
    "transport": ["sinkhorn", "sinkhorn_divergence", "wasserstein_exact",
                  "relative_entropy_truncation"],
    "experiments": ["run_experiment"],
    "archive": ["write_ensemble"],
}

MEMORY_SPANS = {"sampling.normalizability_probe", "sampling.estimate_critical_mass",
                "sampling.decay_domain_mass", "transport.relative_entropy_truncation"}

FFT_ENTRY_POINTS = ["fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft"]

MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.spans = []              # (id, parent, name, start, end, stage)
        self.recording = False
        self.stage = ""
        self._next_id = 0
        self._stack = []             # frames: [child time, span id]
        self._agg = defaultdict(lambda: [0, 0.0, 0.0])   # calls, self, inclusive
        self._counts = defaultdict(int)
        self._peaks = defaultdict(float)
        self._active = defaultdict(int)
        self._patches = []           # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self):
        """Patch every binding of the targets; undone by uninstall()."""
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "torusgibbs" or n.startswith("torusgibbs."))]
        for short, names in SPAN_TARGETS.items():
            home = sys.modules[f"torusgibbs.{short}"]
            for qual in names:
                span = f"{short}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, self._span_wrapper(span, short,
                                                              cls.__dict__[meth]))
                    continue
                original = getattr(home, qual)
                wrapper = self._span_wrapper(span, short, original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._patch(mod, attr, wrapper)
        for name in FFT_ENTRY_POINTS:
            self._patch(np.fft, name, self._fft_counter(getattr(np.fft, name)))
        transport = sys.modules["torusgibbs.transport"]
        self._patch(transport, "logsumexp", self._lse_counter(transport.logsumexp))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- spans ----------------------------------------------------------------

    def reset(self):
        """Clear the per-unit aggregates (spans already recorded are kept)."""
        self._agg.clear()
        self._counts.clear()
        self._peaks.clear()

    @contextmanager
    def span(self, name: str):
        """A top-level span opened by the benchmark itself (one stage unit)."""
        frame = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, start, time.perf_counter())

    def _enter(self):
        frame = [0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame, start, end):
        self._stack.pop()
        dur = end - start
        agg = self._agg[name]
        agg[0] += 1
        agg[1] += dur - frame[0]
        agg[2] += dur
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[0] += dur
        if self.recording and len(self.spans) < MAX_SPANS:
            self.spans.append((frame[1], parent[1] if parent else None, name,
                               start, end, self.stage))

    def _span_wrapper(self, name, module, fn):
        pre, post = _HOOKS.get(name, (None, None))
        active = self._active
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args, kwargs)
            mem = name in MEMORY_SPANS and not tracemalloc.is_tracing()
            if mem:
                tracemalloc.start()
            active[module] += 1
            active[name] += 1
            frame = tracer._enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._exit(name, frame, start, end)
                active[module] -= 1
                active[name] -= 1
                if mem:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    tracer._peaks[name] = max(tracer._peaks[name], peak)
            if post is not None:
                post(tracer, args, kwargs, result)
            return result
        return wrapper

    # -- counters -------------------------------------------------------------

    def _fft_counter(self, fn):
        counts, active = self._counts, self._active

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            nbytes = np.asarray(a).nbytes + out.nbytes
            keys = ("fft", "flows.fft") if active["flows"] else ("fft",)
            for key in keys:
                counts[key + ".calls"] += 1
                counts[key + ".points"] += out.size
                counts[key + ".bytes_computed"] += nbytes
            return out
        return wrapper

    def _lse_counter(self, fn):
        counts, active = self._counts, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active["transport.sinkhorn"]:
                counts["transport.sinkhorn.logsumexp"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-unit aggregates: exact counts, and times in seconds."""
        counts = dict(self._counts)
        times = {}
        for name, (calls, self_s, incl_s) in self._agg.items():
            counts[f"{name}.calls"] = calls
            times[f"{name}.self_s"] = self_s
            times[f"{name}.total_s"] = incl_s
        return {"counts": counts, "times": times, "peaks": dict(self._peaks)}

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\tstage\n")
            for sid, parent, name, start, end, stage in self.spans:
                fh.write(f"{sid}\t{'' if parent is None else parent}\t{name}\t"
                         f"{start:.9f}\t{end:.9f}\t{stage}\n")


# -- hooks: counts that need a call's arguments or result ----------------------

def _pcn_pre(tracer, args, kwargs):
    config = kwargs.get("config", args[3] if len(args) > 3 else None)
    tracer._counts["sampling.pcn.proposals"] += config.burn_in + config.steps


def _pcn_post(tracer, args, kwargs, result):
    config = kwargs.get("config", args[3] if len(args) > 3 else None)
    stats = result[1]
    c = tracer._counts
    c["sampling.pcn.accepted"] += round(stats.acceptance_rate * (config.burn_in + config.steps))
    # the chain's first membership test is its zero-field start point
    c["sampling.pcn.domain_tests"] -= 1
    c["sampling.pcn.in_domain"] -= 1


def _contains_post(tracer, args, kwargs, result):
    if tracer._active["sampling.run_pcn_chain"] and result.shape[0] == 1:
        tracer._counts["sampling.pcn.domain_tests"] += 1
        tracer._counts["sampling.pcn.in_domain"] += int(result[0])


def _ensemble_pre(tracer, args, kwargs):
    coefs = kwargs.get("coefs", args[1] if len(args) > 1 else None)
    config = kwargs.get("config", args[3] if len(args) > 3 else None)
    tracer._counts["flows.state_steps"] += coefs.shape[0] * config.steps


def _synth_post(tracer, args, kwargs, result):
    tracer._counts["spectral.synthesize_batch.points"] += result.size


def _archive_post(tracer, args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    tracer._counts["archive.write_ensemble.bytes"] += os.path.getsize(path)


_HOOKS = {
    "sampling.run_pcn_chain": (_pcn_pre, _pcn_post),
    "sampling.PhaseDomain.contains_batch": (None, _contains_post),
    "flows.evolve_ensemble": (_ensemble_pre, None),
    "spectral.synthesize_batch": (None, _synth_post),
    "archive.write_ensemble": (None, _archive_post),
}
