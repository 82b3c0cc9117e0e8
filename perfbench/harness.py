"""Shared parts of the octofast benchmark and its end-to-end (untraced) loops.

The benchmark is a closed loop: one process, one caller, single-threaded.
Every operand comes from ``random.Random(seed)`` and is generated before the
call that uses it; each pair is timed once.  Every timed call is checked
outside its timed region by the oracle in this module.
"""

from __future__ import annotations

import gc
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

from octofast.algebra import Octo, basis_mul, mul_naive
from octofast.kernel import CORRECTION_FORMS, Pipeline, mul_fast
from octofast.linform import SymMatrix
from octofast.opcount import count_algorithm
from octofast.stages import QuasiDiagonal, SignScale, Sum
from octofast.verify import certify, solve_corrections
from reference import CALLS, REF_NS, reference_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

INT_RANGE = 1000          # the distribution of ``octofast verify``
WIDE_BITS = 8192          # a width of ROADMAP's baseline table
FLOAT_TOL = 1e-12         # acceptance criterion 6: |fast-naive| <= tol*(1+|naive|)
MULT_GATE, ADD_GATE = 26, 100

# workload -> scalar kind of its operands
WORKLOADS = {
    "float-pairs": "float",
    "int-pairs": "int",
    "wide-int-pairs": "wide",
    "certify-mutants": "int",
}

BATCH = {"float": 500, "int": 200, "wide": 8}   # pairs per oracle check
SEGMENT = {"float": 20, "int": 10, "wide": 4}   # pairs per timed segment
NAIVE_CHECK_EVERY = 16    # mul_naive is checked against the unit table this often
SECONDARY_PER_S = 1.6     # certify + solve calls per budgeted second (product workloads)
SIDE_EVERY = 5            # certify-mutants: one solve and one product batch per this many certify calls
SIDE_PAIRS = 150          # pairs in that product batch
TRUTH_PAIRS = 3           # exact pairs that decide a mutant's ground truth
SETUP_CHILDREN = 7

TAIL = {"fast_us": 950, "naive_us": 950, "certify_ms": 900}   # per mille
MIN_BEYOND = 10


# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------

def operand(rng: random.Random, kind: str, bits: int = WIDE_BITS) -> Octo:
    if kind == "float":
        return Octo(tuple(rng.uniform(-1.0, 1.0) for _ in range(8)))
    if kind == "int":
        return Octo(tuple(rng.randint(-INT_RANGE, INT_RANGE) for _ in range(8)))
    if kind == "wide":
        return Octo(tuple(rng.getrandbits(bits) * (1 - 2 * rng.getrandbits(1))
                          for _ in range(8)))
    raise ValueError(f"unknown operand kind {kind!r}")


def pairs(rng: random.Random, kind: str, n: int, bits: int = WIDE_BITS) -> list:
    return [(operand(rng, kind, bits), operand(rng, kind, bits)) for _ in range(n)]


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

_UNIT_TABLE = tuple((i, j) + tuple(basis_mul(i, j))
                    for i in range(8) for j in range(8))


def unit_table_product(x: Octo, b: Octo) -> Octo:
    """``x * b`` from the unit table, independent of mul_naive's formulas."""
    y = [0] * 8
    for i, j, sign, k in _UNIT_TABLE:
        y[k] += sign * x.c[i] * b.c[j]
    return Octo(y)


def product_ok(got: Octo, ref: Octo) -> bool:
    if any(isinstance(v, float) for v in ref.c):
        return all(abs(g - r) <= FLOAT_TOL * (1 + abs(r))
                   for g, r in zip(got.c, ref.c))
    return got == ref


@dataclass
class Outcome:
    """What the oracle saw.  Any entry in ``problems`` makes the run
    incorrect; see :func:`judge_verdict` for wrong verdicts that are not."""
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    verdicts: int = 0
    unsound: int = 0
    incomplete: int = 0
    unsound_sites: set = field(default_factory=set)
    incomplete_sites: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    @property
    def wrong_ratio(self) -> float:
        return self.wrong / self.attempted if self.attempted else 1.0


def check_products(batch, results, out: Outcome, start: int = 0) -> None:
    """Fast against naive for every pair; naive against the unit table on
    every NAIVE_CHECK_EVERY-th pair."""
    for k, ((x, b), res) in enumerate(zip(batch, results), start):
        if res is None:
            continue
        y, n = res
        out.attempted += 2
        if not product_ok(y, n):
            out.wrong += 1
            out.problem(f"mul_fast wrong: x={x.to_text()[:60]} "
                        f"b={b.to_text()[:60]}")
        if k % NAIVE_CHECK_EVERY == 0 and not product_ok(n, unit_table_product(x, b)):
            out.wrong += 1
            out.problem(f"mul_naive disagrees with the unit table at pair {k}")


def check_solve(sol, out: Outcome) -> None:
    out.attempted += 1
    if sol.free or sol.assignment != CORRECTION_FORMS:
        out.wrong += 1
        out.problem("solve_corrections does not reproduce the frozen forms")


def check_counts(mults: int, adds: int, out: Outcome) -> None:
    if mults > MULT_GATE or adds > ADD_GATE:
        out.problem(f"count gate broken: mults={mults} adds={adds}")


# ---------------------------------------------------------------------------
# Mutants: the shipped pipeline and every single-sign change of it
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mutant:
    site: str
    family: str          # shipped | main | form | pre | recipe
    pipeline: Pipeline


def clone(p: Pipeline, stages=None, pre_stages=None, recipes=None,
          forms=None) -> Pipeline:
    return Pipeline(stages if stages is not None else p.stages,
                    pre_stages if pre_stages is not None else p.pre_stages,
                    recipes if recipes is not None else p.recipes,
                    forms if forms is not None else p.entry_forms,
                    p.tap_index)


def _live_lanes(stages, forms):
    """live[si] = lanes of stage si's input that depend on the chain input."""
    acc = SymMatrix.identity(stages[0].in_dim)
    live = []
    for st in stages:
        live.append({i for i in range(acc.rows)
                     if any(not acc.entry(i, j).is_zero for j in range(acc.cols))})
        acc = st.matrix(forms) @ acc
    return live


def _sign_flips(stages, forms):
    """(site, stage index, flipped stage) for each live SignScale/Sum sign."""
    live = _live_lanes(stages, forms)
    for si, st in enumerate(stages):
        if isinstance(st, SignScale):
            for lane, f in enumerate(st.factors):
                if lane in live[si]:
                    facs = list(st.factors)
                    facs[lane] = -f
                    yield f"{st.label}[{lane}]", si, replace(st, factors=tuple(facs))
        elif isinstance(st, Sum):
            for ri, row in enumerate(st.rows):
                for ti, (lane, sign) in enumerate(row):
                    if lane in live[si]:
                        rows = [list(r) for r in st.rows]
                        rows[ri][ti] = (lane, -sign)
                        yield (f"{st.label}[{ri}.{ti}]", si,
                               replace(st, rows=tuple(tuple(r) for r in rows)))


def _swap(chain, si, st):
    out = list(chain)
    out[si] = st
    return tuple(out)


def mutants(p: Pipeline) -> list:
    """The shipped pipeline, then its single-sign mutants: main-chain stage
    signs and quasi-diagonal entry forms (58 + 26 on the seed pipeline),
    precompute stage signs (48) and recipe factors (18)."""
    out = [Mutant("shipped", "shipped", p)]
    for site, si, st in _sign_flips(p.stages, p.entry_forms):
        out.append(Mutant(f"main:{site}", "main",
                          clone(p, stages=_swap(p.stages, si, st))))
    live = _live_lanes(p.stages, p.entry_forms)
    for si, st in enumerate(p.stages):
        if isinstance(st, QuasiDiagonal):
            for _, c, name in st.cells:
                if c in live[si]:
                    forms = dict(p.entry_forms)
                    forms[name] = -forms[name]
                    out.append(Mutant(f"form:{name}", "form",
                                      clone(p, forms=forms)))
    for site, si, st in _sign_flips(p.pre_stages, None):
        out.append(Mutant(f"pre:{site}", "pre",
                          clone(p, pre_stages=_swap(p.pre_stages, si, st))))
    for name, (src, lane, factor) in p.recipes.items():
        recipes = dict(p.recipes)
        recipes[name] = (src, lane, -factor)
        out.append(Mutant(f"recipe:{name}", "recipe", clone(p, recipes=recipes)))
    return out


def ground_truth(ms: list, rng: random.Random) -> list:
    """For each mutant: does its mul_fast equal mul_naive on seeded exact pairs?"""
    truth_pairs = pairs(rng, "int", TRUTH_PAIRS)
    return [all(mul_fast(x, b, m.pipeline) == mul_naive(x, b)
                for x, b in truth_pairs) for m in ms]


def judge_verdict(m: Mutant, ok: bool, truth: bool, out: Outcome) -> None:
    """Score certify's verdict ``ok`` against the product ground truth.

    Every wrong verdict counts in ``wrong``.  It is a problem (the run is
    incorrect) only for the shipped pipeline and main-chain stage flips,
    where the code certify reads is the code that runs.  Entry-form flips
    change only what certify reads, precompute and recipe flips only what
    runs; their wrong verdicts measure that gap (ROADMAP defect 1)."""
    out.attempted += 1
    out.verdicts += 1
    if ok == truth:
        return
    out.wrong += 1
    if ok:
        out.unsound += 1
        out.unsound_sites.add(m.site)
    else:
        out.incomplete += 1
        out.incomplete_sites.add(m.site)
    if m.family in ("shipped", "main"):
        verdict = "accepted a wrong" if ok else "rejected a correct"
        out.problem(f"certify {verdict} pipeline: {m.site}")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(xs, per_mille: int) -> tuple:
    """(percentile, value) by nearest rank: ``per_mille``/10 if at least
    MIN_BEYOND samples lie beyond it, else the highest of p90 and p50 that
    has them; p50 if neither has."""
    s = sorted(xs)
    n = len(s)
    for pm in (per_mille, 900, 500):
        rank = -(-pm * n // 1000)
        if pm <= per_mille and n - rank >= MIN_BEYOND:
            return pm / 10, s[rank - 1]
    return 50.0, s[-(-n // 2) - 1]


# ---------------------------------------------------------------------------
# Timings scaled to the reference speed
# ---------------------------------------------------------------------------

KEYS = ("fast_us", "naive_us", "certify_ms", "solve_ms")


class Timings:
    """Timed samples of one run, scaled to the reference speed.

    Raw ns go into ``raw`` while a segment is open.  :meth:`close_segment`
    measures the reference again and moves the segment's samples into
    ``scaled``, in us or ms, multiplied by REF_NS over the mean of the
    reference times measured just before and just after the segment (see
    reference.py).
    """

    def __init__(self):
        self.ref_ns = [reference_ns()]
        self.raw = {k: [] for k in KEYS}
        self.scaled = {k: [] for k in KEYS}

    def close_segment(self, calls: int = CALLS) -> None:
        self.ref_ns.append(reference_ns(calls))
        k = 2 * REF_NS / (self.ref_ns[-2] + self.ref_ns[-1])
        for key, xs in self.raw.items():
            unit = 1e3 if key.endswith("_us") else 1e6
            self.scaled[key].extend(x * k / unit for x in xs)
            xs.clear()


# ---------------------------------------------------------------------------
# Set-up time, measured in fresh interpreters
# ---------------------------------------------------------------------------

def measure_setup() -> list:
    """Run the set-up probe in SETUP_CHILDREN fresh interpreters after one
    discarded warm-up (which compiles the bytecode); return their reports,
    each with the reference time the child measured right after set-up."""
    probe = HERE / "setup_child.py"
    reports = []
    for k in range(SETUP_CHILDREN + 1):
        done = subprocess.run([sys.executable, "-I", str(probe), str(SRC)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        if k:
            reports.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return reports


# ---------------------------------------------------------------------------
# End-to-end loops (tracing off)
# ---------------------------------------------------------------------------

def time_products(batch, p, tm: Timings, out: Outcome, segment: int) -> list:
    """Time mul_fast then mul_naive on each pair in segments of
    ``segment`` pairs, each closed by one reference call; return the
    outputs.  Each segment starts with one untimed product, which refills
    the caches that the reference call or a certify call emptied."""
    clock = time.perf_counter_ns
    fast_ns, naive_ns = tm.raw["fast_us"], tm.raw["naive_us"]
    results = []
    for k, (x, b) in enumerate(batch):
        if k % segment == 0:
            if k:
                tm.close_segment(1)
            try:
                mul_fast(x, b, p)
                mul_naive(x, b)
            except Exception:  # the timed call below records the failure
                pass
        try:
            t0 = clock()
            y = mul_fast(x, b, p)
            t1 = clock()
            n = mul_naive(x, b)
            t2 = clock()
        except Exception as e:  # counted: a failed product is a result too
            out.attempted += 2
            out.failed += 1
            out.problem(f"product raised {type(e).__name__}: {e}")
            results.append(None)
            continue
        fast_ns.append(t1 - t0)
        naive_ns.append(t2 - t1)
        results.append((y, n))
    tm.close_segment(1)
    return results


def settle() -> None:
    """Collect, then move everything built so far out of the collector's
    view, so that cyclic collections during timing scan only new objects."""
    gc.collect()
    gc.freeze()


def _timed(samples: list, fn, *args):
    t0 = time.perf_counter_ns()
    r = fn(*args)
    samples.append(time.perf_counter_ns() - t0)
    return r


def run_products(kind: str, seed: int, seconds: float, p: Pipeline) -> tuple:
    """Products on fresh pairs for ``seconds``, interleaved with a fixed
    number of certify and solve_corrections calls on ``p``.  Returns
    (outcome, timings)."""
    rng = random.Random(seed)
    settle()
    out, tm = Outcome(), Timings()
    secondary = max(1, round(SECONDARY_PER_S * seconds))
    done = checked = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and done >= secondary:
            break
        if done < secondary and (done + 1 <= secondary * elapsed / seconds
                                 or elapsed >= seconds):
            rep = _timed(tm.raw["certify_ms"], certify, p)
            tm.close_segment()
            judge_verdict(Mutant("shipped", "shipped", p), rep.ok, True, out)
            check_solve(_timed(tm.raw["solve_ms"], solve_corrections, p), out)
            tm.close_segment()
            done += 1
            continue
        batch = pairs(rng, kind, BATCH[kind])
        results = time_products(batch, p, tm, out, SEGMENT[kind])
        check_products(batch, results, out, checked)
        checked += len(batch)
    return out, tm


def run_certify_mutants(seed: int, seconds: float, p: Pipeline) -> tuple:
    """Whole passes of certify over the shipped pipeline and all its
    single-sign mutants.  After every SIDE_EVERY-th certify call come one
    solve_corrections and a batch of SIDE_PAIRS fresh exact product pairs.
    A pass starts only while it is expected to end within ``seconds`` (at
    least one pass).  Returns (outcome, timings)."""
    rng = random.Random(seed)
    ms_ = mutants(p)
    truth = ground_truth(ms_, rng)
    settle()
    out, tm = Outcome(), Timings()
    passes = checked = 0
    start = time.perf_counter()
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for i, (m, t) in enumerate(zip(ms_, truth)):
            rep = _timed(tm.raw["certify_ms"], certify, m.pipeline)
            tm.close_segment()
            judge_verdict(m, rep.ok, t, out)
            if i % SIDE_EVERY == 0:
                check_solve(_timed(tm.raw["solve_ms"], solve_corrections, p), out)
                tm.close_segment()
                batch = pairs(rng, "int", SIDE_PAIRS)
                results = time_products(batch, p, tm, out, SEGMENT["int"])
                check_products(batch, results, out, checked)
                checked += len(batch)
        passes += 1
    return out, tm


def run_end_to_end(workload: str, seed: int, seconds: float,
                   p: Pipeline) -> tuple:
    """Every end-to-end metric of one untraced run: (metrics, record, outcome)."""
    setup = measure_setup()
    setup_s = [(r["import_s"] + r["default_pipeline_s"] + r["flatten_s"])
               * REF_NS / r["reference_ns"] for r in setup]
    oc = count_algorithm("fast", p)
    if workload == "certify-mutants":
        out, tm = run_certify_mutants(seed, seconds, p)
    else:
        out, tm = run_products(WORKLOADS[workload], seed, seconds, p)
    check_counts(oc.mults, oc.adds, out)

    metrics, samples = {}, {}

    def put(name, value, unit, n=None, pct=None):
        metrics[name] = {"value": value, "unit": unit}
        if n is not None:
            samples[name] = {"samples": n} | ({"percentile": pct} if pct else {})

    put("setup_s", median(setup_s), "s", len(setup_s), 50.0)
    for key in KEYS:
        xs, unit = tm.scaled[key], key.split("_")[1]
        put(f"{key}_p50", median(xs), unit, len(xs), 50.0)
        if key in TAIL:
            pct, v = tail(xs, TAIL[key])
            put(f"{key}_tail", v, unit, len(xs), pct)
    put("fast_mults", oc.mults, "count")
    put("fast_adds", oc.adds, "count")
    put("correct_ratio", 1.0 - out.wrong_ratio, "ratio", out.attempted)
    record = {"samples": samples, "reference_ns": {
                  "target": REF_NS, "p50": median(tm.ref_ns),
                  "min": min(tm.ref_ns), "max": max(tm.ref_ns),
                  "setup_p50": median([r["reference_ns"] for r in setup])},
              "wrong_ratio": out.wrong_ratio,
              "verdicts": out.verdicts,
              "unsound_verdicts": out.unsound,
              "incomplete_verdicts": out.incomplete,
              "unsound_sites": sorted(out.unsound_sites),
              "incomplete_sites": sorted(out.incomplete_sites)}
    return metrics, record, out
