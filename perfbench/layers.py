"""The traced run: per-layer metrics from spans, an op-count ledger and a
crossover sweep.

Spans are recorded from this file, around calls into each layer of octofast:
the fast product is replayed stage by stage through ``apply_stage`` (and the
replay is checked against ``mul_fast``), and during certification the calls
``verify.certify`` makes into ``verify.compose_symbolic`` and
``SymMatrix.__matmul__`` are wrapped for the duration of the traced run.
End-to-end numbers never come from this run.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from statistics import median

from octofast import verify
from octofast.algebra import Octo, mul_naive
from octofast.kernel import PrecomputeSet, mul_fast
from octofast.linform import SymMatrix
from octofast.opcount import Tally, count_algorithm
from octofast.program import eval_program, flatten
from octofast.stages import apply_stage

import harness as h
from reference import REF_NS, reference_ns

PRODUCT_SHARE = 0.35      # of --seconds, for the traced product replay
MAX_TRACED_PAIRS = 3000   # bounds the span file
AUX_INT_PAIRS = 64        # int pairs for the Fraction ratio on float workloads
TRACED_SOLVES = 5
FLATTEN_CALLS = 30
SWEEP_BITS = (64, 1024, 2048, 4096, 8192, 16384)
SWEEP_SECONDS = 0.3       # per width
SWEEP_MIN_PAIRS = 11


class Tracer:
    """Spans kept in memory: name, start and end (ns) and parent index."""

    def __init__(self):
        self.name, self.start, self.end, self.parent = [], [], [], []
        self._open = []

    def open(self, name: str) -> None:
        self.parent.append(self._open[-1] if self._open else -1)
        self._open.append(len(self.name))
        self.name.append(name)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())

    def close(self) -> None:
        t = time.perf_counter_ns()
        self.end[self._open.pop()] = t

    def durations(self) -> list:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        dur = self.durations()
        own = list(dur)
        for i, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= dur[i]
        return own

    def roots(self) -> list:
        """Index of each span's outermost ancestor (parents precede children)."""
        root = []
        for i, par in enumerate(self.parent):
            root.append(i if par < 0 else root[par])
        return root

    def by_name(self, values) -> dict:
        out = {}
        for n, v in zip(self.name, values):
            out.setdefault(n, []).append(v)
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("index,name,start_ns,end_ns,parent\n")
            for i, (n, s, e, par) in enumerate(zip(self.name, self.start,
                                                  self.end, self.parent)):
                f.write(f"{i},{n},{s},{e},{par}\n")


class CountProbe:
    """Same interface as Tracer; records the Tally delta of each span."""

    def __init__(self, tally: Tally):
        self.tally = tally
        self.counts = {}
        self._open = []

    def open(self, name: str) -> None:
        self._open.append((name, self.tally.mults, self.tally.adds))

    def close(self) -> None:
        name, m, a = self._open.pop()
        self.counts[name] = (self.tally.mults - m, self.tally.adds - a)


def replay_fast(p, x: Octo, b: Octo, probe) -> Octo:
    """``mul_fast(x, b, p)`` as Pipeline.precompute then Pipeline.apply, one
    ``apply_stage`` call per stage, each inside a probe span."""
    probe.open("kernel.precompute")
    coeffs = b.c
    vec = list(coeffs)
    tap = vec
    for idx, st in enumerate(p.pre_stages):
        probe.open("stages." + st.label)
        vec = apply_stage(st, vec, None)
        probe.close()
        if idx == p.tap_index:
            tap = vec
    m = {}
    for name, (src, lane, factor) in p.recipes.items():
        base = coeffs[lane] if src == "input" else tap[lane]
        m[name] = base if factor == 1 else -base if factor == -1 else base * factor
    pre = PrecomputeSet(s=tuple(vec), m=m)
    probe.close()
    probe.open("kernel.apply")
    vec = list(x.c)
    for st in p.stages:
        probe.open("stages." + st.label)
        vec = apply_stage(st, vec, pre)
        probe.close()
    probe.close()
    probe.open("algebra.octo")
    y = Octo(vec)
    probe.close()
    return y


def stage_labels(p) -> list:
    return [st.label for st in p.pre_stages + p.stages]


def ledger(p, out: h.Outcome) -> dict:
    """Per-stage mults and adds from a replay on Tally-wrapped scalars,
    checked against count_algorithm("fast") and flatten(p).opcount()."""
    tally = Tally()
    probe = CountProbe(tally)
    x = Octo((3, 5, 7, 9, 11, 13, 17, 19))
    b = Octo((23, 29, 31, 37, 41, 43, 47, 53))
    y = replay_fast(p, tally.wrap_octo(x), tally.wrap_octo(b), probe)
    if Octo(tuple(v.value for v in y.c)) != mul_naive(x, b):
        out.problem("counted replay gives a wrong product")
    c = probe.counts
    stages = [c["stages." + lab] for lab in stage_labels(p)]
    total = (tally.mults, tally.adds)
    phases = tuple(map(sum, zip(c["kernel.precompute"], c["kernel.apply"])))
    by_stage = tuple(map(sum, zip(*stages)))
    oc, prog = count_algorithm("fast", p), flatten(p).opcount()
    h.check_counts(oc.mults, oc.adds, out)
    if not (total == phases == by_stage == (oc.mults, oc.adds)
            == (prog.mults, prog.adds)):
        out.problem(f"op-count ledger does not add up: total {total}, phases "
                    f"{phases}, stages {by_stage}, count_algorithm {oc}, "
                    f"program {prog}")
    metrics = {}
    for lab in stage_labels(p):
        mults, adds = c["stages." + lab]
        metrics[f"stages.{lab}.mults"] = (mults, "count")
        metrics[f"stages.{lab}.adds"] = (adds, "count")
    metrics["kernel.precompute.adds"] = (c["kernel.precompute"][1], "count")
    metrics["kernel.main.adds"] = (c["kernel.apply"][1], "count")
    metrics["kernel.core.mults"] = (c["stages.product-core"][0], "count")
    return metrics


@contextmanager
def traced_verify(tr: Tracer):
    """Wrap the calls certify makes into compose_symbolic and SymMatrix @."""
    matmul, compose = SymMatrix.__matmul__, verify.compose_symbolic

    def traced_matmul(self, other):
        tr.open("linform.matmul")
        try:
            return matmul(self, other)
        finally:
            tr.close()

    def traced_compose(p):
        tr.open("verify.compose_symbolic")
        try:
            return compose(p)
        finally:
            tr.close()

    SymMatrix.__matmul__ = traced_matmul
    verify.compose_symbolic = traced_compose
    try:
        yield
    finally:
        SymMatrix.__matmul__ = matmul
        verify.compose_symbolic = compose


def _span(tr: Tracer, name: str, fn, *args):
    tr.open(name)
    try:
        return fn(*args)
    finally:
        tr.close()


def traced_products(p, prog, kind, rng, seconds, tr, out, ref_ns) -> tuple:
    """Per pair: untraced mul_fast (timed), traced replay, traced mul_naive
    and traced eval_program; all checked.  Returns (untraced fast us,
    Fraction outputs, int-input outputs)."""
    untraced = []
    frac = total = checked = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and checked < MAX_TRACED_PAIRS:
        batch = h.pairs(rng, kind, h.BATCH[kind] // 4)
        results = []
        ref_ns.append(reference_ns())
        for x, b in batch:
            t0 = time.perf_counter_ns()
            y = mul_fast(x, b, p)
            untraced.append((time.perf_counter_ns() - t0) / 1e3)
            tr.open("kernel.fast")
            z = replay_fast(p, x, b, tr)
            tr.close()
            n = _span(tr, "algebra.mul_naive", mul_naive, x, b)
            e = _span(tr, "program.eval_program", eval_program, prog, x, b)
            if z != y or not h.product_ok(e, n):
                out.problem("replay or program output differs from mul_fast")
            if kind != "float":
                frac += sum(isinstance(v, Fraction) for v in y.c)
                total += 8
            results.append((y, n))
        h.check_products(batch, results, out, checked)
        checked += len(batch)
    if kind == "float":
        for x, b in h.pairs(rng, "int", AUX_INT_PAIRS):
            frac += sum(isinstance(v, Fraction) for v in mul_fast(x, b, p).c)
            total += 8
    return untraced, frac, total


def traced_certify(p, rng, tr, out, ref_ns) -> None:
    ms = h.mutants(p)
    truth = h.ground_truth(ms, rng)
    with traced_verify(tr):
        for m, t in zip(ms, truth):
            ref_ns.append(reference_ns())
            rep = _span(tr, "verify.certify", verify.certify, m.pipeline)
            h.judge_verdict(m, rep.ok, t, out)
        for _ in range(TRACED_SOLVES):
            sol = _span(tr, "verify.solve_corrections",
                        verify.solve_corrections, p)
            h.check_solve(sol, out)


def sweep(p, rng, out) -> dict:
    """fast/naive ratio of median times on fresh signed ints per width."""
    ratios = {}
    for bits in SWEEP_BITS:
        tm = h.Timings()
        deadline = time.perf_counter() + SWEEP_SECONDS
        checked = 0
        while time.perf_counter() < deadline or checked < SWEEP_MIN_PAIRS:
            batch = h.pairs(rng, "wide", 1, bits)
            results = h.time_products(batch, p, tm, out, 1)
            h.check_products(batch, results, out, checked)
            checked += 1
        ratios[f"sweep.b{bits}.fast_over_naive"] = (
            median(tm.scaled["fast_us"]) / median(tm.scaled["naive_us"]), "ratio")
    return ratios


def run_traced(workload: str, seed: int, seconds: float, p) -> tuple:
    """Every per-layer metric of one traced run: (metrics, record, outcome,
    tracer)."""
    rng = random.Random(seed)
    out, tr, ref_ns = h.Outcome(), Tracer(), []
    metrics = {}
    setup = h.measure_setup()
    for key in ("import_s", "default_pipeline_s"):
        metrics["setup." + key] = (median(
            [r[key] * REF_NS / r["reference_ns"] for r in setup]), "s")
    prog = flatten(p)
    flat_ns = []
    for _ in range(FLATTEN_CALLS):
        t0 = time.perf_counter_ns()
        flatten(p)
        flat_ns.append(time.perf_counter_ns() - t0)
    metrics["program.instrs"] = (len(prog.instrs), "count")
    metrics.update(ledger(p, out))
    h.settle()

    untraced, frac, total = traced_products(
        p, prog, h.WORKLOADS[workload], rng, PRODUCT_SHARE * seconds, tr, out,
        ref_ns)
    traced_certify(p, rng, tr, out, ref_ns)
    metrics.update(sweep(p, rng, out))

    # one reference-speed factor for the whole traced run (us per raw ns)
    scale = REF_NS / median(ref_ns) / 1e3
    metrics["program.flatten.ms"] = (median(flat_ns) * scale / 1e3, "ms")
    dur = tr.by_name(tr.durations())
    own = tr.by_name(tr.self_times())
    us = {n: median(v) * scale for n, v in dur.items()}
    metrics["kernel.precompute.us"] = (us["kernel.precompute"], "us")
    metrics["kernel.precompute.self_us"] = (median(own["kernel.precompute"]) * scale, "us")
    metrics["kernel.apply.us"] = (us["kernel.apply"], "us")
    metrics["kernel.apply.self_us"] = (median(own["kernel.apply"]) * scale, "us")
    stage_ns = sum(sum(dur["stages." + lab]) for lab in stage_labels(p))
    kernel_ns = sum(dur["kernel.precompute"]) + sum(dur["kernel.apply"])
    metrics["trace.stage_coverage"] = (stage_ns / kernel_ns, "ratio")
    for lab in stage_labels(p):
        metrics[f"stages.{lab}.us"] = (us["stages." + lab], "us")
    metrics["kernel.fraction_outputs_ratio"] = (frac / total, "ratio")
    metrics["algebra.mul_naive.us"] = (us["algebra.mul_naive"], "us")
    metrics["algebra.octo.us"] = (us["algebra.octo"], "us")
    metrics["program.eval_program.us"] = (us["program.eval_program"], "us")
    metrics["verify.certify.ms"] = (us["verify.certify"] / 1e3, "ms")
    metrics["verify.compose_symbolic.ms"] = (us["verify.compose_symbolic"] / 1e3, "ms")
    metrics["verify.solve_corrections.ms"] = (us["verify.solve_corrections"] / 1e3, "ms")
    calls, mm_ns = {}, {}
    roots = tr.roots()
    for i, n in enumerate(tr.name):
        if n == "linform.matmul" and tr.name[roots[i]] == "verify.certify":
            calls[roots[i]] = calls.get(roots[i], 0) + 1
            mm_ns[roots[i]] = mm_ns.get(roots[i], 0) + tr.end[i] - tr.start[i]
    metrics["linform.matmul.calls"] = (median(list(calls.values())), "count")
    metrics["linform.matmul.ms"] = (median(list(mm_ns.values())) * scale / 1e3, "ms")
    metrics["verify.unsound_verdicts"] = (out.unsound, "count")
    metrics["verify.incomplete_verdicts"] = (out.incomplete, "count")
    metrics["trace.overhead_ratio"] = (
        median(dur["kernel.fast"]) / 1e3 / median(untraced), "ratio")

    record = {"samples": {n: {"samples": len(v)} for n, v in dur.items()},
              "reference_ns": {"target": REF_NS,
                               "p50": median(ref_ns)},
              "wrong_ratio": out.wrong_ratio,
              "unsound_sites": sorted(out.unsound_sites),
              "incomplete_sites": sorted(out.incomplete_sites)}
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            record, out, tr)
