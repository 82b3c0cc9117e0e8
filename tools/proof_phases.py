"""Print the in-process median time of each phase of the proof and of the
correction solver, on the shipped pipeline, and of ``certify`` on one sign
mutant that it refuses.

The phases, each timed alone in one process after one warm-up call:

- point proof: ``verify._proves``, the one exact run of the lowered
  program at the point and the comparison with the packed product;
- certify: ``verify.certify``, which proves the shipped pipeline at the
  point;
- certify (refused): ``verify.certify`` on the shipped pipeline with the
  sign of its last stage's lane 5 flipped: the point proof, then
  ``compose_symbolic`` and the residuals that explain the refusal;
- compose walk: ``verify._walk``, the one pass over the lowered program on
  packed ints that ``compose_symbolic`` reads;
- compose row reads: the output rows ``V`` and the x-rows ``X`` read back
  as int rows, and the b-rows ``B`` as fields, from that walk;
- compose product: the ``SymMatrix @`` that ends ``compose_symbolic``, on
  the operands it builds;
- solver rows: ``solve_corrections`` with its elimination left out: its
  checks and the one run of the lowered program that gives its rows;
- solver elimination: ``verify._solve_linear`` on a fresh copy of the rows
  the solver builds;
- solve_corrections: the whole call.

Each time is the median of a fixed number of calls, in microseconds.
Times move with the machine's state, so compare rows of one run, not runs.
Run from anywhere:

    python tools/proof_phases.py
"""

import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from octofast import verify  # noqa: E402
from octofast.kernel import Pipeline, default_pipeline  # noqa: E402
from octofast.linform import SymMatrix  # noqa: E402
from octofast.stages import SignScale  # noqa: E402

REPEAT = 300


def median_us(fn, repeat: int) -> float:
    """The median time of ``repeat`` calls of ``fn()``, after one more."""
    fn()
    times = []
    for _ in range(repeat):
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / 1e3


def patched(owner, name: str, value, call):
    """What ``call()`` returns while the attribute ``name`` of ``owner`` is
    ``value``; the attribute is restored afterwards."""
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        return call()
    finally:
        setattr(owner, name, original)


def first_call(owner, name: str, call) -> tuple:
    """The arguments of the first call that ``call()`` makes to the
    attribute ``name`` of ``owner``, each list copied as it came in (the
    solver's elimination reorders and replaces its rows)."""
    seen = []
    original = getattr(owner, name)

    def spy(*args):
        seen.append(tuple(list(a) if type(a) is list else a for a in args))
        return original(*args)

    patched(owner, name, spy, call)
    return seen[0]


def refused(p):
    """``p`` with the sign of lane 5 of its last stage, a ``SignScale``,
    flipped: a pipeline that ``certify`` refuses."""
    last = p.stages[-1]
    factors = list(last.factors)
    factors[5] = -factors[5]
    return Pipeline(p.stages[:-1] + (SignScale(tuple(factors),
                                               label=last.label),),
                    p.pre_stages, p.recipes, p.entry_forms, p.tap_index)


def phases(repeat: int = REPEAT) -> dict:
    """Each phase's name and its median time in microseconds."""
    p = default_pipeline()
    bad = refused(p)
    V, X, B, w = verify._walk(p._program)

    def reads():
        verify._int_matrix(V, 8 + len(X), w)
        verify._int_matrix(X, 8, w)
        verify._read([n for n, _, _ in B], 8, w)

    v, W = first_call(SymMatrix, "__matmul__",
                      lambda: verify.compose_symbolic(p))
    names, rows, D, S = first_call(verify, "_solve_linear",
                                   lambda: verify.solve_corrections(p))
    copies = iter([list(rows) for _ in range(repeat + 1)])
    out = {"point proof": median_us(lambda: verify._proves(p._program),
                                    repeat),
           "certify": median_us(lambda: verify.certify(p), repeat),
           "certify (refused)": median_us(lambda: verify.certify(bad),
                                          repeat),
           "compose walk": median_us(lambda: verify._walk(p._program),
                                     repeat),
           "compose row reads": median_us(reads, repeat),
           "compose product": median_us(lambda: v @ W, repeat)}
    out["solver rows"] = patched(
        verify, "_solve_linear", lambda *args: ({}, ()),
        lambda: median_us(lambda: verify.solve_corrections(p), repeat))
    out["solver elimination"] = median_us(
        lambda: verify._solve_linear(names, next(copies), D, S), repeat)
    out["solve_corrections"] = median_us(
        lambda: verify.solve_corrections(p), repeat)
    return out


def table(times: dict) -> str:
    """``times`` as a two-column table under a header."""
    lines = [f"{'phase':<20}{'us':>10}"]
    lines += [f"{name:<20}{us:>10.1f}" for name, us in times.items()]
    return "\n".join(lines) + "\n"


def main() -> int:
    print(f"# {platform.python_implementation()} "
          f"{platform.python_version()}, median of {REPEAT} calls")
    print(table(phases()), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
