"""The twelve record classes on ``stages._Record``: construction, equality,
hashing, immutability and ``repr``, each pinned to what a frozen
``@dataclass`` gives (a mutable one for ``PrecomputeSet``)."""

import dataclasses
import importlib
import pkgutil
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import octofast
from octofast.kernel import PrecomputeSet, default_pipeline
from octofast.linform import LinForm
from octofast.program import Instr, OpCount, Program
from octofast.stages import Butterfly, FanOut, QuasiDiagonal, SignScale, Sum
from octofast.verify import CorrectionSolve, Residual, ResidualReport

_T1 = Instr("t1", "add", "x0", "x1")

# class, positional arguments, the fields with defaults as the
# constructor leaves them, another value of the first field, the repr, and
# the message for a call with no arguments and for one with a positional
# argument too many
RECORDS = [
    (OpCount, (26, 92), {}, 25, "OpCount(mults=26, adds=92)",
     "OpCount.__init__() missing 2 required positional arguments: "
     "'mults' and 'adds'",
     "OpCount.__init__() takes 3 positional arguments but 4 were given"),
    (Instr, ("t1", "add", "x0", "x1"), {"k": None}, "t2",
     "Instr(dest='t1', op='add', a='x0', b='x1', k=None)",
     "Instr.__init__() missing 3 required positional arguments: "
     "'dest', 'op', and 'a'",
     "Instr.__init__() takes from 4 to 6 positional arguments but 7 were "
     "given"),
    (Program, ((_T1,), ("t1",)), {}, (Instr("t1", "sub", "x0", "x1"),),
     "Program(instrs=(Instr(dest='t1', op='add', a='x0', b='x1', k=None),), "
     "outputs=('t1',))",
     "Program.__init__() missing 2 required positional arguments: "
     "'instrs' and 'outputs'",
     "Program.__init__() takes 3 positional arguments but 4 were given"),
    (Residual, (0, 1, LinForm.var(2), LinForm.var(3, -1)), {}, 1,
     "Residual(row=0, col=1, expected=LinForm(b2), got=LinForm(-b3))",
     "Residual.__init__() missing 4 required positional arguments: "
     "'row', 'col', 'expected', and 'got'",
     "Residual.__init__() takes 5 positional arguments but 6 were given"),
    (ResidualReport, ((),), {}, (None,), "ResidualReport(residuals=())",
     "ResidualReport.__init__() missing 1 required positional argument: "
     "'residuals'",
     "ResidualReport.__init__() takes 2 positional arguments but 3 were "
     "given"),
    (CorrectionSolve, ({"a": LinForm.var(0)}, ("a",)), {}, {},
     "CorrectionSolve(assignment={'a': LinForm(b0)}, free=('a',))",
     "CorrectionSolve.__init__() missing 2 required positional arguments: "
     "'assignment' and 'free'",
     "CorrectionSolve.__init__() takes 3 positional arguments but 4 were "
     "given"),
    (PrecomputeSet, ((1, 2), {"a": 3}), {}, (2, 1),
     "PrecomputeSet(s=(1, 2), m={'a': 3})",
     "PrecomputeSet.__init__() missing 2 required positional arguments: "
     "'s' and 'm'",
     "PrecomputeSet.__init__() takes 3 positional arguments but 4 were "
     "given"),
    (Butterfly, (2, (0, 4), 8), {"label": ""}, 1,
     "Butterfly(half=2, starts=(0, 4), dim=8, label='')",
     "Butterfly.__init__() missing 3 required positional arguments: "
     "'half', 'starts', and 'dim'",
     "Butterfly.__init__() takes from 4 to 5 positional arguments but 6 "
     "were given"),
    (FanOut, ((1, 0), 2), {"label": ""}, (0, 1),
     "FanOut(src=(1, 0), in_dim=2, label='')",
     "FanOut.__init__() missing 2 required positional arguments: "
     "'src' and 'in_dim'",
     "FanOut.__init__() takes from 3 to 4 positional arguments but 5 were "
     "given"),
    (QuasiDiagonal, (2, ((0, 0, "a"), (1, 1, "b"))), {"label": ""}, 3,
     "QuasiDiagonal(dim=2, cells=((0, 0, 'a'), (1, 1, 'b')), label='')",
     "QuasiDiagonal.__init__() missing 2 required positional arguments: "
     "'dim' and 'cells'",
     "QuasiDiagonal.__init__() takes from 3 to 4 positional arguments but 5 "
     "were given"),
    (SignScale, ((1, -1),), {"label": ""}, (2, 1),
     "SignScale(factors=(1, -1), label='')",
     "SignScale.__init__() missing 1 required positional argument: "
     "'factors'",
     "SignScale.__init__() takes from 2 to 3 positional arguments but 4 were "
     "given"),
    (Sum, ((((0, 1), (1, -1)),), 2), {"label": ""}, (((1, 1),),),
     "Sum(rows=(((0, 1), (1, -1)),), in_dim=2, label='')",
     "Sum.__init__() missing 2 required positional arguments: "
     "'rows' and 'in_dim'",
     "Sum.__init__() takes from 3 to 4 positional arguments but 5 were "
     "given"),
]
_IDS = [r[0].__name__ for r in RECORDS]
# the two that hold a dict: unhashable, and PrecomputeSet also mutable
_UNHASHABLE = {CorrectionSolve: "dict", PrecomputeSet: "PrecomputeSet"}


def _names(cls, args):
    """The field names, in order, as the instance holds them."""
    return list(vars(cls(*args)))


@pytest.mark.parametrize("cls,args,defaults,first,text,none,extra", RECORDS,
                         ids=_IDS)
def test_construction_by_position_or_keyword(cls, args, defaults, first,
                                             text, none, extra):
    rec = cls(*args)
    names = _names(cls, args)
    assert repr(rec) == text
    assert cls(**dict(zip(names, args))) == rec
    assert cls(*args, **defaults) == rec
    for name, value in defaults.items():
        assert getattr(rec, name) == value
    with pytest.raises(TypeError) as e:
        cls()
    assert str(e.value) == none
    with pytest.raises(TypeError) as e:
        cls(*args, *defaults.values(), None)
    assert str(e.value) == extra
    with pytest.raises(TypeError) as e:
        cls(*args, zz=1)
    assert str(e.value) == f"{cls.__name__}.__init__() got an unexpected " \
                           f"keyword argument 'zz'"
    with pytest.raises(TypeError) as e:
        cls(*args, **{names[0]: args[0]})
    assert str(e.value) == f"{cls.__name__}.__init__() got multiple values " \
                           f"for argument '{names[0]}'"


def test_missing_arguments_are_named_as_python_names_them():
    for call, missing in [(lambda: Instr("t1", "add"), "1 required positional "
                           "argument: 'a'"),
                          (lambda: Instr(a="x0"), "2 required positional "
                           "arguments: 'dest' and 'op'"),
                          (lambda: Residual(0, got=1), "2 required positional "
                           "arguments: 'col' and 'expected'")]:
        with pytest.raises(TypeError) as e:
            call()
        owner = str(e.value).split(".")[0]
        assert str(e.value) == f"{owner}.__init__() missing {missing}"
    # a keyword is refused before a count of positional arguments
    with pytest.raises(TypeError, match="unexpected keyword argument 'zz'"):
        OpCount(1, 2, 3, zz=4)
    with pytest.raises(TypeError, match="multiple values for argument 'a'"):
        Instr("t1", "neg", "x0", None, None, 5, a="x1")


@pytest.mark.parametrize("cls,args,defaults,first,text,none,extra", RECORDS,
                         ids=_IDS)
def test_equality_is_by_class_and_fields(cls, args, defaults, first, text,
                                         none, extra):
    rec, same = cls(*args), cls(*args)
    assert rec == same and not rec != same
    # a subclass with equal fields, and a tuple of them, are not equal
    sub = type("Sub", (cls,), {})(*args)
    assert rec != sub and sub != rec and not rec == sub
    assert rec != tuple(vars(rec).values()) and rec != args
    differs = cls(first, *args[1:])
    assert rec != differs and not rec == differs
    assert getattr(differs, _names(cls, args)[0]) == first


@pytest.mark.parametrize("cls,args,defaults,first,text,none,extra", RECORDS,
                         ids=_IDS)
def test_hash_or_its_refusal(cls, args, defaults, first, text, none, extra):
    rec = cls(*args)
    if cls in _UNHASHABLE:
        with pytest.raises(TypeError,
                           match=f"unhashable type: '{_UNHASHABLE[cls]}'"):
            hash(rec)
        return
    assert hash(rec) == hash(cls(*args))
    assert len({rec, cls(*args)}) == 1 and {rec: 1}[cls(*args)] == 1


@pytest.mark.parametrize("cls,args,defaults,first,text,none,extra", RECORDS,
                         ids=_IDS)
def test_assignment_and_deletion(cls, args, defaults, first, text, none,
                                 extra):
    rec = cls(*args)
    name = _names(cls, args)[0]
    if cls is PrecomputeSet:
        rec.s = (3, 4)
        assert rec.s == (3, 4) and rec != cls(*args)
        del rec.m
        assert not hasattr(rec, "m")
        return
    for attr in (name, "zz"):
        with pytest.raises(AttributeError,
                           match=f"^cannot assign to field '{attr}'$"):
            setattr(rec, attr, 1)
    with pytest.raises(AttributeError,
                       match=f"^cannot delete field '{name}'$"):
        delattr(rec, name)
    assert rec == cls(*args) and not hasattr(rec, "zz")


def test_post_init_checks_refuse_as_before():
    with pytest.raises(ValueError, match="^block at 6 exceeds dimension 8$"):
        Butterfly(2, (6,), 8)
    with pytest.raises(ValueError, match="^block at -1 exceeds dimension 8$"):
        Butterfly(half=1, starts=(-1,), dim=8)
    with pytest.raises(ValueError, match="^source lane 2 out of range$"):
        FanOut((0, 2), 2, label="x")
    with pytest.raises(ValueError, match=r"^cell \(2,0\) out of range$"):
        QuasiDiagonal(2, ((2, 0, "a"),))
    with pytest.raises(ValueError, match=r"^duplicate cell \(1,1\)$"):
        QuasiDiagonal(dim=2, cells=((1, 1, "a"), (1, 1, "b")))
    # the core keeps its cells row-major whatever order they come in
    core = QuasiDiagonal(2, ((1, 1, "b"), (0, 0, "a")))
    assert core.cells == ((0, 0, "a"), (1, 1, "b"))
    assert core == QuasiDiagonal(2, ((0, 0, "a"), (1, 1, "b")), "")
    with pytest.raises(ValueError,
                       match="^constant factor 3 is not a signed power of two$"):
        SignScale((1, 3))
    with pytest.raises(ValueError,
                       match="^constant factor 0 is not a signed power of two$"):
        SignScale(factors=(0,), label="x")
    with pytest.raises(ValueError, match="^empty sum row$"):
        Sum((((0, 1),), ()), 2)
    for lane in (2, -1):
        with pytest.raises(ValueError, match=f"^lane {lane} out of range$"):
            Sum(rows=(((lane, 1),),), in_dim=2)
    with pytest.raises(ValueError, match="^sign must be \\+-1, got 2$"):
        Sum((((0, 2),),), 2)
    # a diagonal stores its factors canonical: int lanes stay int
    scale = SignScale((1.0, -0.5, Fraction(4)))
    assert scale.factors == (1, Fraction(-1, 2), 4)
    assert [type(f) for f in scale.factors] == [int, Fraction, int]
    assert scale == SignScale((1, Fraction(-1, 2), 4), "")


def test_a_program_keeps_its_compiled_kernel_outside_its_fields():
    prog = default_pipeline()._program
    again = Program(prog.instrs, prog.outputs)
    assert prog._compiled is prog._compiled
    assert "_compiled" in vars(prog) and "_compiled" not in vars(again)
    assert prog == again and hash(prog) == hash(again)
    assert repr(prog) == repr(again)
    assert again._compiled is not prog._compiled


def test_the_other_methods_of_the_records_still_answer():
    assert str(OpCount(26, 92)) == "mults=26 adds=92"
    assert Instr("t3", "shift", "x0", k=-3).to_text() == "t3 = shift x0 -3"
    assert ResidualReport(()).ok and ResidualReport(()).rows() == set()
    report = ResidualReport((Residual(2, 1, LinForm.var(0), LinForm.zero()),))
    assert not report.ok and report.rows() == {2}
    assert str(report) == report.to_text()
    pre = PrecomputeSet(tuple(range(8)), {"a": 9})
    assert pre["s3"] == 3 and pre["a"] == 9
    assert Butterfly(1, (0,), 2).out_dim == 2
    assert FanOut((0, 0, 1), 2).out_dim == 3
    assert QuasiDiagonal(1, ((0, 0, "a"),)).apply([2], {"a": 5}) == [10]


def test_the_only_dataclasses_are_the_two_the_benchmark_replaces():
    # perfbench/harness.py::_sign_flips makes its sign mutants with
    # dataclasses.replace on SignScale and Sum, and three test files do the
    # same; those two pass for dataclasses, with fields made on first read,
    # until the benchmark stops doing that (ROADMAP item 1), and no other
    # record does
    found = set()
    for mod in pkgutil.iter_modules(octofast.__path__, "octofast."):
        for obj in vars(importlib.import_module(mod.name)).values():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj):
                found.add(obj)
    assert found == {SignScale, Sum}
    flipped = dataclasses.replace(SignScale((1, -1), label="flip"),
                                  factors=(-1, 0.5))
    assert flipped.factors == (-1, Fraction(1, 2)) and flipped.label == "flip"
    total = Sum(rows=(((0, 1), (1, -1)),), in_dim=2)
    assert dataclasses.replace(total, rows=(((1, 1),),)).apply([3, 4]) == [4]
    with pytest.raises(ValueError, match="sign must be"):
        dataclasses.replace(total, rows=(((0, 2),),))


def _fresh(code):
    """Run ``code`` in a fresh isolated interpreter (``python -I``) that
    imports the octofast under test, and return what it prints."""
    src = str(Path(octofast.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-c",
         f"import sys; sys.path.insert(0, {src!r})\n" + textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_octofast_runs_without_importing_dataclasses():
    # the CLI module, the first pipeline and a product of each kind load
    # neither dataclasses nor the modules it imports; this counts modules,
    # it does not time the import
    out = _fresh("""
        import octofast.cli
        from octofast import Octo, default_pipeline, flatten, mul_fast, mul_naive
        flatten(default_pipeline())
        for coeffs in (range(1, 9), [0.5 * i - 1.25 for i in range(8)]):
            x, b = Octo(coeffs), Octo(reversed(list(coeffs)))
            assert mul_fast(x, b) == mul_naive(x, b)
        print(sorted({"dataclasses", "inspect", "ast", "dis", "tokenize"}
                     & set(sys.modules)))
    """)
    assert out == "[]\n"


def test_dataclass_fields_are_made_on_first_read_whenever_dataclasses_comes():
    # octofast first, dataclasses after it: replace, fields, asdict and
    # is_dataclass answer on both classes, each class's fields are made once
    # and kept on it, replace still runs the constructor's checks, and a
    # subclass gets fields of its own
    out = _fresh("""
        import octofast
        import dataclasses
        from dataclasses import asdict, fields, is_dataclass, replace
        from octofast.stages import SignScale, Sum

        made = []
        make = dataclasses.make_dataclass
        dataclasses.make_dataclass = lambda name, *a, **k: (
            made.append(name) or make(name, *a, **k))

        scale = SignScale((1, -1), label="s")
        total = Sum(rows=(((0, 1), (1, -1)),), in_dim=2)
        assert is_dataclass(SignScale) and is_dataclass(total)
        flipped = replace(scale, factors=(-1, 0.5))
        assert flipped == SignScale((-1, 0.5), "s")
        assert replace(total, rows=(((1, 1),),)).apply([3, 4]) == [4]
        assert [f.name for f in fields(SignScale)] == ["factors", "label"]
        assert [f.name for f in fields(total)] == ["rows", "in_dim", "label"]
        assert asdict(scale) == {"factors": (1, -1), "label": "s"}
        assert asdict(total) == {"rows": (((0, 1), (1, -1)),), "in_dim": 2,
                                 "label": ""}
        for cls in (SignScale, Sum):
            kept = vars(cls)["__dataclass_fields__"]
            assert type(kept) is dict and cls.__dataclass_fields__ is kept
        assert made == ["SignScale", "Sum"], made
        try:
            replace(total, rows=(((0, 2),),))
        except ValueError as e:
            assert str(e) == "sign must be +-1, got 2", e
        else:
            raise AssertionError("replace skipped the sign check")

        class Tagged(SignScale):
            def __init__(self, factors, label="", note=""):
                super().__init__(factors, label)
                object.__setattr__(self, "note", note)

        tagged = replace(Tagged((2,), note="a"), note="b")
        assert type(tagged) is Tagged and tagged.note == "b"
        assert [f.name for f in fields(Tagged)] == ["factors", "label", "note"]
        assert [f.name for f in fields(SignScale)] == ["factors", "label"]
        assert made == ["SignScale", "Sum", "Tagged"], made
        print("ok")
    """)
    assert out == "ok\n"
