"""The scripts under ``tools/``: each runs on its own, takes no flags and
prints what its docstring says."""

import json
import subprocess
import sys
from pathlib import Path

from conftest import load_tool

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str) -> str:
    return subprocess.run([sys.executable, str(ROOT / "tools" / script)],
                          capture_output=True, text=True, check=True).stdout


def test_code_lines_prints_each_module_and_three_totals():
    *rows, total, tests, tools = [ln.split() for ln in
                                  _run("code_lines.py").splitlines()]
    assert total[1:] == ["total"] and sum(int(n) for n, _ in rows) \
        == int(total[0])
    assert sorted(name for _, name in rows) \
        == sorted(p.name for p in (ROOT / "src" / "octofast").glob("*.py"))
    assert tests[1:] == ["tests/", "total"] and int(tests[0]) > 0
    assert tools[1:] == ["tools/", "total"] and int(tools[0]) > 0


def test_code_lines_counts_no_docstring_comment_or_blank_line():
    code_lines = load_tool("code_lines").code_lines
    assert code_lines('"""A module docstring,\n\non three lines."""\n'
                      "\n# a comment\n\n    # an indented one\n") == 0
    assert code_lines('def f(x):\n    """Its docstring,\n    on two lines."""'
                      "\n\n    # a comment\n    return x + 1\n") == 2


def test_kernel_ops_counts_every_body_of_the_shipped_kernel():
    lines = _run("kernel_ops.py").splitlines()
    assert lines[0].split() == ["body", "products", "scalings", "additions",
                                "negations", "decode", "stores"]
    rows = {ln.split()[0]: [int(v) for v in ln.split()[2:]]
            for ln in lines[1:]}
    assert list(rows) == ["float", "int", "generic"]
    for products, scalings, additions, negations, decode, stores \
            in rows.values():
        assert (products, additions) == (26, 92) and stores > 0
    # the folded float body keeps 7 of the walk's 14 negations; the twin's
    # tracked sign of a sum of two negated operands keeps it at 4, where
    # the float body's fold, (-a) - b, would give it 7
    assert rows["float"][3] <= 7 and rows["generic"][3] == 14
    assert rows["int"][3] <= 4
    assert rows["float"][1] == rows["generic"][1] == 12
    # the twin tests its 8 outputs' low bits with 8 & joined by 7 |, then
    # decodes them with 8 >> on that test's path, and each with one >> and
    # one & on the other
    assert (rows["float"][4], rows["int"][4], rows["generic"][4]) \
        == (0, 39, 0)


def test_proof_phases_times_every_phase_and_restores_what_it_wraps():
    from octofast import verify
    from octofast.kernel import default_pipeline
    from octofast.linform import SymMatrix
    wrapped = verify._solve_linear, SymMatrix.__matmul__
    tool = load_tool("proof_phases")
    times = tool.phases(repeat=2)
    assert list(times) == ["point proof", "certify", "certify (refused)",
                           "certify (refused, all outputs)", "compose walk",
                           "compose row reads", "compose product",
                           "solver rows", "solver elimination",
                           "solve_corrections"]
    assert all(us > 0 for us in times.values())
    assert (verify._solve_linear, SymMatrix.__matmul__) == wrapped
    assert not verify.certify(tool.refused(default_pipeline())).ok
    assert tool.refusals() == {"certify (refused)": 1,
                               "certify (refused, all outputs)": 8}
    header, *rows = tool.table(times).splitlines()
    assert header.split() == ["phase", "us"]
    assert [row.rsplit(None, 1)[0] for row in rows] == list(times)


def test_bench_trend_prints_every_record_in_pr_order():
    text = _run("bench_trend.py")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    numbers = sorted(int(p.stem.split("_")[1])
                     for p in ROOT.glob("BENCH_*.json"))
    sections = text.split("\n\n")
    assert [s.splitlines()[0] for s in sections] \
        == [w["name"] for w in spec["workloads"]] + ["machine"]
    for section in sections[:-1]:
        header, *rows = section.splitlines()[1:]
        assert header.split() \
            == ["PR"] + [m["name"] for m in spec["end_to_end"]]
        assert [int(r.split()[0]) for r in rows] == numbers
    last = json.loads((ROOT / f"BENCH_{numbers[-1]}.json").read_text())
    want = last["end_to_end"]["float-pairs"]["metrics"]["fast_us_p50"]
    row = sections[0].splitlines()[-1].split()
    assert row[2] == f"{want['change_median']:.4g}"
    assert all("3.11" in r for r in sections[-1].splitlines()[1:])


def test_bench_trend_prints_a_dash_for_what_a_record_lacks(tmp_path):
    spec = {"workloads": [{"name": "float-pairs"}, {"name": "int-pairs"}],
            "end_to_end": [{"name": "fast_us_p50"}, {"name": "setup_s"}]}
    one = {"end_to_end": {"float-pairs": {"metrics": {
        "fast_us_p50": {"change_median": 1.82}}}},
        "machine": {"implementation": "CPython", "python": "3.11.7"}}
    two = {"end_to_end": {"float-pairs": {"metrics": {
        "fast_us_p50": {"change_median": 1.5},
        "setup_s": {"change_median": 0.005}}}}}
    (tmp_path / "BENCH_10.json").write_text(json.dumps(one))
    (tmp_path / "BENCH_9.json").write_text(json.dumps(two))
    (tmp_path / "BENCH_notes.json").write_text("{}")
    text = load_tool("bench_trend").trend(tmp_path, spec)
    assert text == (
        "float-pairs\n"
        "PR   fast_us_p50   setup_s\n"
        "9            1.5     0.005\n"
        "10          1.82         -\n"
        "\n"
        "int-pairs\n"
        "PR   fast_us_p50   setup_s\n"
        "9              -         -\n"
        "10             -         -\n"
        "\n"
        "machine\n"
        "9    -\n"
        "10   CPython 3.11.7\n")
