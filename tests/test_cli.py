import contextlib
import io
import os
import sys
from fractions import Fraction
from unittest import mock

import pytest
from conftest import clone_pipeline
from hypothesis import given, settings
from hypothesis import strategies as st

from octofast import cli, kernel, verify
from octofast.algebra import Octo
from octofast.cli import main
from octofast.kernel import default_pipeline, mul_fast
from octofast.linform import LinForm
from octofast.program import emit_csv, emit_text, flatten
from octofast.verify import certify


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_mul_basis(capsys):
    rc, out, _ = run(capsys, "mul", "--x", "0,1,0,0,0,0,0,0",
                     "--b", "0,0,0,0,1,0,0,0")
    assert rc == 0
    assert out == "0,0,0,0,0,1,0,0\n"


def test_mul_naive_agrees(capsys):
    args = ("mul", "--x", "1,2,3,4,5,6,7,8", "--b", "8,7,6,5,4,3,2,1")
    rc1, out1, _ = run(capsys, *args, "--algo", "fast")
    rc2, out2, _ = run(capsys, *args, "--algo", "naive")
    assert rc1 == rc2 == 0
    assert out1 == out2 == "16,-4,48,-8,-64,42,4,74\n"


def test_mul_exact_rationals(capsys):
    rc, out, _ = run(capsys, "mul", "--x", "1/2,0,0,0,0,0,0,0",
                     "--b", "1/3,0,0,0,0,0,0,0")
    assert rc == 0
    assert out == "1/6,0,0,0,0,0,0,0\n"


def test_mul_exact_integral_tokens_are_ints(capsys):
    x = Octo.from_text("5,3/1,-0,7/2,0,0,0,0")
    assert [type(v) for v in x.c[:4]] == [int, int, int, Fraction]
    assert x.c[:4] == (5, 3, 0, Fraction(7, 2))
    y = mul_fast(Octo.from_text("5,3/1,-0,0,0,0,0,0"),
                 Octo.from_text("2,0,0,0,0,0,0,0"))
    assert [type(v) for v in y.c] == [int] * 8
    for algo in ("fast", "naive"):
        rc, out, _ = run(capsys, "mul", "--algo", algo,
                         "--x", "5,3/1,-0,7/2,0,0,0,0",
                         "--b", "1,0,0,0,0,0,0,0")
        assert rc == 0
        assert out == "5,3,0,7/2,0,0,0,0\n"


def test_mul_float_mode(capsys):
    rc, out, _ = run(capsys, "mul", "--mode", "float",
                     "--x", "0.5,0,0,0,0,0,0,0", "--b", "2.0,0,0,0,0,0,0,0")
    assert rc == 0
    assert out.split(",")[0] == "1.0"


def test_mul_parse_error_is_exit_2(capsys):
    rc, _, err = run(capsys, "mul", "--x", "1,2,3", "--b", "0,0,0,0,0,0,0,0")
    assert rc == 2
    assert "--x" in err


def test_usage_errors_are_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "mul", "--x", "1,0,0,0,0,0,0,0")[0] == 2


HUGE = "1e308,1e308,0,0,0,0,0,0"


@pytest.mark.parametrize("argv, fragment", [
    (("verify", "--trials", "-5"), "--trials must be at least 1, got -5"),
    (("verify", "--range", "-1"), "--range must be at least 0, got -1"),
    (("bench", "--trials", "0"), "--trials must be at least 1, got 0"),
    (("mul", "--mode", "float", "--x", HUGE, "--b", HUGE),
     "float product overflows"),
    (("mul", "--mode", "float", "--algo", "naive", "--x", HUGE, "--b", HUGE),
     "float product overflows"),
], ids=["verify-trials", "verify-range", "bench-trials", "mul-fast-overflow",
        "mul-naive-overflow"])
def test_bad_values_are_exit_2_with_one_line(capsys, argv, fragment):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("octofast: ") and err.count("\n") == 1
    assert fragment in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-text digit limit in this Python")
@pytest.mark.parametrize("algo", ["fast", "naive"])
def test_mul_product_too_long_to_print_is_exit_2(capsys, algo):
    rc, out, err = run(capsys, "mul", "--algo", algo,
                       "--x", "1e4299,0,0,0,0,0,0,0",
                       "--b", "10,0,0,0,0,0,0,0")
    assert rc == 2
    assert out == ""
    assert err.startswith("octofast: product too long to print")
    assert err.count("\n") == 1


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-text digit limit in this Python")
def test_huge_exponent_is_refused_when_parsed(capsys):
    # 10**5000 would be built before anything printed it
    assert Octo.from_text("1e4299,0,0,0,0,0,0,0").c[0] == 10 ** 4299
    for token in ("1e5000", "1e-5000", "2E+4301", "1e999999999"):
        with pytest.raises(ValueError, match="digit limit"):
            Octo.from_text(f"{token},0,0,0,0,0,0,0")
    rc, out, err = run(capsys, "mul", "--x", "1e999999999,0,0,0,0,0,0,0",
                       "--b", "1,0,0,0,0,0,0,0")
    assert (rc, out) == (2, "")
    assert err.startswith("octofast: cannot parse --x operand: ")
    assert err.count("\n") == 1


# argv built from the CLI grammar, with values that are out of range,
# malformed or costly; every run must end in a documented exit code
_NUMBERS = st.one_of(
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.builds("{}e{}".format, st.integers(-9, 9),
              st.integers(-10 ** 5, 10 ** 5)))
_TOKENS = st.one_of(_NUMBERS, st.sampled_from((
    "p/0", "1/0", "nan", "inf", "-inf", "1_000", "", " ", "0.5", "1/3", "1e",
    "1e308", "-0")))
_OPERANDS = st.one_of(st.lists(_NUMBERS, min_size=8, max_size=8),
                      st.lists(_TOKENS, min_size=8, max_size=8),
                      st.lists(_TOKENS, max_size=10)).map(",".join)
_SEEDS = st.sampled_from(("0", "1", str(2 ** 63 - 1), str(2 ** 63),
                          str(2 ** 64 - 1), str(2 ** 64), "-1", "x", ""))
_TRIALS = st.sampled_from(("-1", "0", "1", "3", "x", ""))


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _argv(command, *parts):
    return st.tuples(*parts).map(lambda ps: [command] + sum(ps, []))


_ALGOS = st.sampled_from(("naive", "fast", "schoolbook"))
_MODES = st.sampled_from(("exact", "float", "real"))
_ARGV = st.one_of(
    _argv("mul", _OPERANDS.map(lambda v: ["--x", v]),
          _OPERANDS.map(lambda v: ["--b", v]),
          _flag("--algo", _ALGOS), _flag("--mode", _MODES)),
    _argv("verify", _TRIALS.map(lambda t: ["--trials", t]),
          _flag("--seed", _SEEDS), _flag("--mode", _MODES),
          _flag("--range", st.sampled_from(("-1", "0", "1000", "100000")))),
    _argv("count", _flag("--algo", _ALGOS)),
    _argv("bench", _TRIALS.map(lambda t: ["--trials", t]),
          _flag("--seed", _SEEDS)),
    _argv("emit", _flag("--format", st.sampled_from(("text", "csv", "xml")))),
    st.lists(st.sampled_from(("mul", "--x", "--trials", "-h", "", "frob")),
             max_size=3))


@settings(derandomize=True, database=None, deadline=None)
@given(_ARGV, st.one_of(st.none(), _SEEDS))
def test_fuzzed_argv_ends_in_a_documented_exit_code(argv, env_seed):
    env = {} if env_seed is None else {"OCTOFAST_SEED": env_seed}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if env_seed is None:
            os.environ.pop("OCTOFAST_SEED", None)
        rc = main(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_count(capsys):
    assert run(capsys, "count", "--algo", "naive")[1] == "mults=64 adds=56\n"
    assert run(capsys, "count", "--algo", "fast")[1] == "mults=26 adds=92\n"


def test_verify_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--trials", "200", "--seed", "5")
    assert rc == 0
    assert "basis-products: PASS" in out
    assert "random-products: PASS (200 trials, seed 5, exact)" in out
    assert "symbolic-certification: PASS" in out


def test_verify_float_mode(capsys):
    rc, out, _ = run(capsys, "verify", "--trials", "100", "--mode", "float")
    assert rc == 0
    assert "float" in out


def test_verify_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("OCTOFAST_SEED", "7")
    rc, out, _ = run(capsys, "verify", "--trials", "50")
    assert rc == 0 and "seed 7" in out
    rc, out, _ = run(capsys, "verify", "--trials", "50", "--seed", "9")
    assert rc == 0 and "seed 9" in out


def test_invalid_environment_seed(capsys, monkeypatch):
    monkeypatch.setenv("OCTOFAST_SEED", "not-a-seed")
    rc, _, err = run(capsys, "verify", "--trials", "10")
    assert rc == 2
    assert "OCTOFAST_SEED" in err
    monkeypatch.setenv("OCTOFAST_SEED", str(2 ** 64))
    rc, _, err = run(capsys, "verify", "--trials", "10")
    assert rc == 2


def test_verify_detects_a_corrupted_kernel(capsys, monkeypatch):
    good = kernel.build_pipeline()
    recipes = dict(good.recipes)
    src, lane, factor = recipes["diffcorr_23"]
    recipes["diffcorr_23"] = (src, lane, -factor)
    bad = clone_pipeline(good, recipes=recipes)
    monkeypatch.setattr(kernel, "build_pipeline", lambda: bad)
    rc, out, _ = run(capsys, "verify", "--trials", "50", "--seed", "1")
    assert rc == 1
    assert "symbolic-certification: FAIL" in out
    assert "first counterexample:" in out


def test_bench_csv_shape(capsys):
    rc, out, _ = run(capsys, "bench", "--trials", "100", "--seed", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "algo,trials,total_ns,ns_per_mul"
    assert len(lines) == 3
    for line, name in zip(lines[1:], ("naive", "fast")):
        algo, trials, total_ns, ns_per = line.split(",")
        assert algo == name and trials == "100"
        assert int(total_ns) > 0 and float(ns_per) > 0


def test_bench_does_not_time_the_kernel_compilation(capsys, monkeypatch):
    # a certified pipeline compiles its kernel on its first product, which
    # takes milliseconds; one product takes microseconds
    p = kernel.build_pipeline()
    prog = p._program
    assert certify(p).ok and prog._kernel == prog._first_product
    monkeypatch.setattr(kernel, "default_pipeline", lambda: p)
    rc, out, _ = run(capsys, "bench", "--trials", "1", "--seed", "2")
    assert rc == 0 and prog._kernel != prog._first_product
    fast = out.splitlines()[2].split(",")
    assert fast[0] == "fast" and int(fast[2]) < 1_000_000


def test_emit_text(capsys):
    rc, out, _ = run(capsys, "emit")
    assert rc == 0
    assert out == emit_text(flatten(default_pipeline()))
    rc2, out2, _ = run(capsys, "emit", "--format", "text")
    assert out2 == out


def test_emit_csv(capsys):
    rc, out, _ = run(capsys, "emit", "--format", "csv")
    assert rc == 0
    assert out == emit_csv(flatten(default_pipeline()))
    assert len(out.splitlines()) == len(flatten(default_pipeline()).instrs)


# The full output of `verify`, pinned: one line per suite, then the first
# counterexample of the first failing suite, in suite order.

def test_verify_output_is_pinned(capsys):
    rc, out, _ = run(capsys, "verify", "--trials", "200", "--seed", "5")
    assert (rc, out) == (0, "basis-products: PASS (64 pairs)\n"
                            "random-products: PASS (200 trials, seed 5, exact)\n"
                            "symbolic-certification: PASS (64 entries)\n")
    rc, out, _ = run(capsys, "verify", "--mode", "float", "--trials", "100",
                     "--seed", "3")
    assert (rc, out) == (0, "basis-products: PASS (64 pairs)\n"
                            "random-products: PASS (100 trials, seed 3, float)\n"
                            "symbolic-certification: PASS (64 entries)\n")


def test_verify_output_of_a_corrupted_kernel_is_pinned(capsys, monkeypatch):
    good = kernel.build_pipeline()
    recipes = dict(good.recipes)
    src, lane, factor = recipes["diffcorr_23"]
    recipes["diffcorr_23"] = (src, lane, -factor)
    bad = clone_pipeline(good, recipes=recipes)
    monkeypatch.setattr(kernel, "build_pipeline", lambda: bad)
    rc, out, _ = run(capsys, "verify", "--trials", "50", "--seed", "1")
    assert (rc, out) == (1, "basis-products: FAIL (64 pairs)\n"
                            "random-products: FAIL (50 trials, seed 1, exact)\n"
                            "symbolic-certification: FAIL (64 entries)\n"
                            "first counterexample: basis unit(3)*unit(1) "
                            "[fast]: got 0,0,-1,0,0,0,-2,0, "
                            "want 0,0,1,0,0,0,0,0\n")


def test_verify_reports_a_random_counterexample_after_passing_basis(
        capsys, monkeypatch):
    # a fast product that is wrong off the basis units only: the first
    # counterexample comes from the second suite
    def off_basis(x, b, p):
        y = mul_fast(x, b, p)
        return y if sum(map(abs, x.c + b.c)) <= 2 else y + Octo.unit(0)
    monkeypatch.setattr(cli, "mul_fast", off_basis)
    rc, out, _ = run(capsys, "verify", "--trials", "3", "--seed", "2",
                     "--range", "1")
    assert (rc, out) == (1, "basis-products: PASS (64 pairs)\n"
                            "random-products: FAIL (3 trials, seed 2, exact)\n"
                            "symbolic-certification: PASS (64 entries)\n"
                            "first counterexample: x=-1,-1,-1,0,-1,1,1,0 "
                            "b=0,1,-1,1,-1,1,1,-1: fast 4,-3,3,2,-1,-1,1,4 "
                            "!= naive 3,-3,3,2,-1,-1,1,4\n")


def test_verify_reports_a_residual_when_only_certification_fails(
        capsys, monkeypatch):
    report = verify.ResidualReport(
        (verify.Residual(2, 5, LinForm.var(1), LinForm.var(1, -1)),))
    monkeypatch.setattr(verify, "certify", lambda p: report)
    rc, out, _ = run(capsys, "verify", "--trials", "5", "--seed", "1")
    assert (rc, out) == (1, "basis-products: PASS (64 pairs)\n"
                            "random-products: PASS (5 trials, seed 1, exact)\n"
                            "symbolic-certification: FAIL (64 entries)\n"
                            "first counterexample: matrix entry (2,5): "
                            "composed -b1, want b1\n")
