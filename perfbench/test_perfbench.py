"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``."""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness as h  # noqa: E402
import layers  # noqa: E402
from octofast.kernel import default_pipeline  # noqa: E402


def test_oracle_catches_a_wrong_kernel():
    p = default_pipeline()
    mutant = next(m for m in h.mutants(p) if m.family == "pre")
    out, _ = h.run_products("int", seed=1, seconds=0.2, p=mutant.pipeline)
    assert out.wrong_ratio > 0
    assert not out.correct


def test_oracle_passes_the_shipped_kernel():
    out, _ = h.run_products("float", seed=1, seconds=0.2, p=default_pipeline())
    assert out.correct and out.wrong == 0 and out.attempted > 0


def test_mutant_families():
    families = [m.family for m in h.mutants(default_pipeline())]
    counts = {f: families.count(f) for f in set(families)}
    assert counts == {"shipped": 1, "main": 58, "form": 26, "pre": 48, "recipe": 18}


def test_wrong_verdict_is_a_problem_only_where_proof_and_code_coincide():
    p = default_pipeline()
    out = h.Outcome()
    h.judge_verdict(h.Mutant("pre:x", "pre", p), True, False, out)
    h.judge_verdict(h.Mutant("form:y", "form", p), False, True, out)
    assert (out.wrong, out.unsound, out.incomplete, out.correct) == (2, 1, 1, True)
    h.judge_verdict(h.Mutant("main:z", "main", p), True, False, out)
    assert out.unsound == 2 and not out.correct


def test_ledger_adds_up():
    out = h.Outcome()
    m = layers.ledger(default_pipeline(), out)
    assert out.correct
    assert m["kernel.core.mults"][0] == 26
    assert (m["kernel.precompute.adds"][0], m["kernel.main.adds"][0]) == (24, 68)


def test_self_times_subtract_child_spans():
    tr = layers.Tracer()
    tr.open("a")
    tr.open("b")
    tr.close()
    tr.close()
    tr.start[:], tr.end[:] = [0, 2], [10, 5]
    assert tr.self_times() == [7, 3]
    assert tr.roots() == [0, 0]


def test_tail_keeps_ten_samples_beyond():
    assert h.tail(range(1, 1001), 990) == (99.0, 990)
    assert h.tail(range(1, 1000), 990) == (90.0, 900)
    assert h.tail(range(1, 100), 900) == (50.0, 50)
    assert h.tail(range(1, 16), 900) == (50.0, 8)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "int-pairs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
