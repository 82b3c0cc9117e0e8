import pytest
from conftest import clone_pipeline

from octofast import kernel
from octofast.cli import main
from octofast.kernel import default_pipeline
from octofast.linform import LinForm
from octofast.program import emit_csv, emit_text, flatten


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
    forms = dict(good.entry_forms)
    forms["diffcorr_23"] = LinForm.zero()
    bad = clone_pipeline(good, forms=forms)
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
