"""The factorized fast kernel: 26 multiplications, 92 additions.

The product ``y = x * b`` is computed as a bilinear pipeline: a short
precompute pass over the right operand ``b`` yields 26 named scalars (eight
scaled sums ``s0..s7`` plus eighteen correction entries); the main chain then
applies constant mixing stages to ``x`` with a single quasi-diagonal stage in
the middle carrying all 26 data-dependent multiplications.

The quasi-diagonal splits into four blocks: the scaled sums handle two 4-lane
Toeplitz-like halves of the multiplication matrix, and three sparse correction
blocks repair what the Toeplitz approximation and the scalar/counter-scalar
lane swap get wrong.  Every correction value is a ±1 or ±2 multiple of either
a ``b`` coefficient or an intermediate the precompute pass already built, so
the corrections cost no extra additions.

:func:`mul_fast` does not interpret the stages.  A pipeline lowers its own
``precompute``/``apply`` walk into a straight-line program once, on first
use, and keeps it: ``octofast.verify.certify`` proves that program,
precompute and recipes included, ``flatten`` hands it out and
:func:`mul_fast` runs it, compiled once into one Python function.  The
entry forms only document, in closed form, what the precompute yields, and
are the targets of ``verify.solve_corrections``, which reads the same
program with the known ones in place of the products' b-side values.

When all sixteen coefficients are of type ``int``, that function hands
them to a generated twin that runs in exact dyadic ints: each value is held
as an int numerator over a power of two fixed at codegen time, so the 1/8
above costs no ``Fraction`` arithmetic, only a ``<< 3`` where a scaled sum
meets a correction and a ``>> 3`` per output.  A certified pipeline then
returns ``int`` coefficients; a value that is not integral (an uncertified
pipeline's) comes back as a ``Fraction``.  Every other kind of operand
(float, ``Fraction``, mixed, ``bool``, instrumented scalars, linear forms)
runs the generic code, which computes exactly what the interpreter walk
computes; see :func:`octofast.program.program_source`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .algebra import Octo
from .linform import LinForm
from .program import Program, _lower
from .stages import (Butterfly, FanOut, QuasiDiagonal, SignScale, Sum,
                     canonical_pow2, run)
from .verify import certify

EIGHTH = Fraction(1, 8)

# ---------------------------------------------------------------------------
# Frozen entry forms for the quasi-diagonal stage.
# ---------------------------------------------------------------------------

# Scaled sums s_k = (1/8) * <sign pattern, b>.  Sign patterns are the rows of
# the +-1 matrix the precompute butterfly network realizes.
_S_SIGNS = (
    (-1, 1, 1, 1, -1, 1, 1, 1),
    (-1, -1, 1, -1, -1, -1, 1, -1),
    (-1, 1, -1, -1, -1, 1, -1, -1),
    (-1, -1, -1, 1, -1, -1, -1, 1),
    (-1, -1, -1, -1, 1, 1, 1, 1),
    (-1, 1, -1, 1, 1, -1, 1, -1),
    (-1, -1, 1, 1, 1, 1, -1, -1),
    (-1, 1, 1, -1, 1, -1, -1, 1),
)

S_FORMS = tuple(
    LinForm.combo([(i, Fraction(sign, 8)) for i, sign in enumerate(signs)])
    for signs in _S_SIGNS)

# Correction entries, named <block>_<row><col> by their position inside the
# owning 4x4 / 8x8 block.  sumcorr/diffcorr repair the two Toeplitz halves,
# swapcorr repairs the scalar lane swap (its natural entries carry a factor 2,
# folded in here so the precompute only shifts).
CORRECTION_FORMS = {
    "sumcorr_01": LinForm.var(5, -1),
    "sumcorr_02": LinForm.var(6, -1),
    "sumcorr_03": LinForm.var(7, -1),
    "sumcorr_13": LinForm.combo([(2, -1), (6, -1)]),
    "sumcorr_21": LinForm.combo([(3, -1), (7, -1)]),
    "sumcorr_32": LinForm.combo([(1, -1), (5, -1)]),
    "diffcorr_01": LinForm.var(5, -1),
    "diffcorr_02": LinForm.var(6, -1),
    "diffcorr_03": LinForm.var(7, -1),
    "diffcorr_12": LinForm.combo([(3, 1), (7, -1)]),
    "diffcorr_23": LinForm.combo([(1, 1), (5, -1)]),
    "diffcorr_31": LinForm.combo([(2, 1), (6, -1)]),
    "swapcorr_11": LinForm.var(0, 2),
    "swapcorr_22": LinForm.var(0, 2),
    "swapcorr_33": LinForm.var(0, 2),
    "swapcorr_54": LinForm.var(5, -2),
    "swapcorr_64": LinForm.var(6, -2),
    "swapcorr_74": LinForm.var(7, -2),
}

ENTRY_FORMS = {f"s{k}": S_FORMS[k] for k in range(8)} | CORRECTION_FORMS

# How each correction value is actually computed: ("input", lane) reads b,
# ("tap", lane) reads the shared butterfly intermediate; the factor is +-1 or
# +-2, so no additions are spent.
CORRECTION_RECIPES = {
    "sumcorr_01": ("input", 5, -1),
    "sumcorr_02": ("input", 6, -1),
    "sumcorr_03": ("input", 7, -1),
    "sumcorr_13": ("tap", 2, -1),
    "sumcorr_21": ("tap", 3, -1),
    "sumcorr_32": ("tap", 1, -1),
    "diffcorr_01": ("input", 5, -1),
    "diffcorr_02": ("input", 6, -1),
    "diffcorr_03": ("input", 7, -1),
    "diffcorr_12": ("tap", 7, 1),
    "diffcorr_23": ("tap", 5, 1),
    "diffcorr_31": ("tap", 6, 1),
    "swapcorr_11": ("input", 0, 2),
    "swapcorr_22": ("input", 0, 2),
    "swapcorr_33": ("input", 0, 2),
    "swapcorr_54": ("input", 5, -2),
    "swapcorr_64": ("input", 6, -2),
    "swapcorr_74": ("input", 7, -2),
}


def _precompute_stages() -> tuple:
    """The b-side chain: 24 additions from b to the eight scaled sums."""
    return (
        SignScale((-1, 1, 1, 1, 1, 1, 1, 1), label="flip-scalar"),
        Butterfly(half=4, starts=(0,), dim=8, label="mix"),
        Sum(rows=(((2, 1), (4, 1)), ((1, 1), (3, 1)),
                  ((4, 1), (2, -1)), ((1, 1), (3, -1)),
                  ((0, 1), (6, -1)), ((5, 1), (7, 1)),
                  ((0, 1), (6, 1)), ((5, 1), (7, -1))),
            in_dim=8, label="pair-sums"),
        Sum(rows=(((0, 1), (1, 1)), ((0, 1), (1, -1)),
                  ((2, 1), (3, 1)), ((2, 1), (3, -1)),
                  ((4, 1), (5, -1)), ((4, 1), (5, 1)),
                  ((6, 1), (7, -1)), ((6, 1), (7, 1))),
            in_dim=8, label="pair-combines"),
        SignScale((EIGHTH,) * 8, label="scale-eighth"),
    )


# Index of the precompute stage whose output the correction recipes tap.
_TAP_INDEX = 1


def _main_stages() -> tuple:
    """The x-side chain, 8 -> 24 -> 8 lanes, one quasi-diagonal core."""
    core_cells = (
        # scaled sums against the swapped/mixed head lanes
        (0, 0, "s0"), (1, 1, "s1"), (2, 2, "s2"), (3, 3, "s3"),
        (8, 8, "s4"), (9, 9, "s5"), (10, 10, "s6"), (11, 11, "s7"),
        # sum-half Toeplitz correction (4x4 block at lanes 4..7)
        (4, 5, "sumcorr_01"), (4, 6, "sumcorr_02"), (4, 7, "sumcorr_03"),
        (5, 7, "sumcorr_13"), (6, 5, "sumcorr_21"), (7, 6, "sumcorr_32"),
        # difference-half Toeplitz correction (4x4 block at lanes 12..15)
        (12, 13, "diffcorr_01"), (12, 14, "diffcorr_02"),
        (12, 15, "diffcorr_03"), (13, 14, "diffcorr_12"),
        (14, 15, "diffcorr_23"), (15, 13, "diffcorr_31"),
        # scalar-swap correction (8x8 block at lanes 16..23; rows 16 and 20
        # are structurally zero)
        (17, 17, "swapcorr_11"), (18, 18, "swapcorr_22"),
        (19, 19, "swapcorr_33"), (21, 20, "swapcorr_54"),
        (22, 20, "swapcorr_64"), (23, 20, "swapcorr_74"),
    )
    return (
        FanOut(src=(4, 1, 2, 3, 0, 5, 6, 7), in_dim=8, label="swap04"),
        FanOut(src=tuple(range(8)) + tuple(range(8)), in_dim=8, label="dup"),
        Butterfly(half=4, starts=(0,), dim=16, label="mix-head"),
        FanOut(src=(0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 4, 5, 6, 7,
                    8, 9, 10, 11, 12, 13, 14, 15),
               in_dim=16, label="spread"),
        Butterfly(half=2, starts=(0, 8), dim=24, label="outer-pairs"),
        Butterfly(half=1, starts=(0, 2, 8, 10), dim=24, label="inner-pairs"),
        QuasiDiagonal(dim=24, cells=core_cells, label="product-core"),
        Butterfly(half=1, starts=(0, 2, 8, 10), dim=24,
                  label="inner-pairs-undo"),
        Butterfly(half=2, starts=(0, 8), dim=24, label="outer-pairs-undo"),
        Sum(rows=tuple(((k, 1), (k + 4, 1)) for k in range(4))
            + tuple(((8 + k, 1), (12 + k, 1)) for k in range(4))
            + tuple(((16 + k, 1),) for k in range(8)),
            in_dim=24, label="collapse"),
        SignScale((-1,) + (1,) * 15, label="flip-head"),
        Butterfly(half=4, starts=(0,), dim=16, label="mix-head-undo"),
        Sum(rows=tuple(((j, 1), (j + 8, 1)) for j in range(8)),
            in_dim=16, label="fold"),
        SignScale((1, 1, 1, 1, 1, -1, -1, -1), label="flip-tail"),
    )


# ---------------------------------------------------------------------------
# Precomputed-value container and pipeline.
# ---------------------------------------------------------------------------

# The names of the eight precompute lanes, which a core cell reads by name.
LANES = tuple(f"s{k}" for k in range(8))


@dataclass
class PrecomputeSet:
    """The 26 named right-operand values the quasi-diagonal stage consumes."""
    s: tuple
    m: dict

    def __getitem__(self, name: str):
        if name in LANES:
            return self.s[int(name[1])]
        return self.m[name]


class Pipeline:
    """A complete bilinear-product pipeline.

    ``pre_stages`` transform the right operand; each recipe
    ``(src, lane, factor)`` reads ``lane`` of the input (``"input"``) or of
    pre-stage ``tap_index``'s output (``"tap"``) times a ``+-2^k`` factor;
    ``stages`` transform the left operand, consuming the precomputed values
    in quasi-diagonal stages.  ``certified`` is flipped by
    ``octofast.verify.certify`` once the matrix of the lowered program, the
    walk of ``precompute`` then ``apply``, equals the schoolbook product
    matrix: it vouches for that claim alone.  ``entry_forms`` name the
    values ``precompute`` yields; only ``solve_corrections`` reads them.

    ``precompute`` and ``apply`` check their operand's 8 lanes once and run
    their chains through the one chain walk, :func:`octofast.stages.run`;
    the widths inside a chain were checked when the pipeline was built.
    The walk of ``pre_stages``, ``recipes``, ``tap_index`` and ``stages``
    is lowered once, on first use, into the one program that ``certify``
    proves, ``flatten`` emits and :func:`mul_fast` runs, and ``certified``
    vouches for it, so the structure stays as built: the chains are tuples,
    ``recipes`` is read-only with canonical factors (``canonical_pow2``
    refuses one that is not ``+-2^k``), and assigning any of the five
    structural fields, or the program, raises ``AttributeError``.
    """

    _FROZEN = frozenset({"stages", "pre_stages", "recipes", "entry_forms",
                         "tap_index", "_program"})

    def __init__(self, stages: Sequence, pre_stages: Sequence = (),
                 recipes: Optional[Mapping] = None,
                 entry_forms: Optional[Mapping] = None,
                 tap_index: int = 0):
        fix = object.__setattr__
        fix(self, "stages", tuple(stages))
        fix(self, "pre_stages", tuple(pre_stages))
        fix(self, "recipes", MappingProxyType(
            {name: (src, lane, canonical_pow2(factor))
             for name, (src, lane, factor) in (recipes or {}).items()}))
        fix(self, "entry_forms", dict(entry_forms or {}))
        fix(self, "tap_index", tap_index)
        self.certified = False
        _check_chain(self.stages, 8, 8, "main")
        _check_chain(self.pre_stages, 8, 8, "precompute")
        # the width of each source a recipe may read; "tap" only when
        # tap_index names a precompute stage
        widths = {"input": 8}
        if 0 <= tap_index < len(self.pre_stages):
            widths["tap"] = self.pre_stages[tap_index].out_dim
        for name, (src, lane, _) in self.recipes.items():
            if name in LANES:
                raise ValueError(f"recipe {name}: the name of a precompute "
                                 f"lane, which the core reads instead")
            if not 0 <= lane < widths.get(src, 0):
                raise ValueError(f"recipe {name}: {src!r} has no lane {lane} "
                                 f"(widths {widths}, tap_index {tap_index})")
        for st in self.stages:
            cells = st.cells if isinstance(st, QuasiDiagonal) else ()
            for r, c, name in cells:
                if name not in LANES and name not in self.recipes:
                    raise ValueError(
                        f"{st.label or type(st).__name__} cell ({r},{c}): "
                        f"{name!r} is neither a precompute lane s0..s7 nor "
                        f"a recipe")

    def __setattr__(self, name, value):
        if name in self._FROZEN:
            raise AttributeError(f"Pipeline.{name} is fixed when built")
        object.__setattr__(self, name, value)

    @cached_property
    def _program(self) -> Program:
        """:func:`octofast.program._lower` of this pipeline, on first use."""
        return _lower(self)

    # -- right-operand pass --

    def precompute(self, b) -> PrecomputeSet:
        coeffs = b.c if isinstance(b, Octo) else tuple(b)
        if len(coeffs) != 8:
            raise ValueError(f"b: expected 8 lanes, got {len(coeffs)}")
        # the tap is the output of pre-stage tap_index; with no such stage
        # no recipe reads it (the constructor refuses a "tap" recipe)
        cut = max(self.tap_index + 1, 0)
        tap = run(self.pre_stages[:cut], coeffs)
        vec = run(self.pre_stages[cut:], tap)
        m = {name: (coeffs[lane] if src == "input" else tap[lane]) * factor
             for name, (src, lane, factor) in self.recipes.items()}
        return PrecomputeSet(s=tuple(vec), m=m)

    # -- left-operand pass --

    def apply(self, xvec: Sequence, pre: PrecomputeSet) -> list:
        if len(xvec) != 8:
            raise ValueError(f"x: expected 8 lanes, got {len(xvec)}")
        return run(self.stages, xvec, pre)


def _check_chain(stages, in_dim, out_dim, what):
    d = in_dim
    for st in stages:
        if st.in_dim != d:
            raise ValueError(
                f"{what} chain breaks at {st.label or type(st).__name__}: "
                f"expects {st.in_dim} lanes, gets {d}")
        d = st.out_dim
    if d != out_dim:
        raise ValueError(f"{what} chain ends at {d} lanes, wanted {out_dim}")


def build_pipeline() -> Pipeline:
    """Construct the fast-kernel pipeline (uncertified)."""
    return Pipeline(stages=_main_stages(),
                    pre_stages=_precompute_stages(),
                    recipes=CORRECTION_RECIPES,
                    entry_forms=ENTRY_FORMS,
                    tap_index=_TAP_INDEX)


@lru_cache(maxsize=1)
def default_pipeline() -> Pipeline:
    """The shared certified pipeline used by :func:`mul_fast`."""
    p = build_pipeline()
    report = certify(p)
    if not report.ok:
        raise AssertionError(
            "fast kernel failed self-certification:\n" + report.to_text())
    return p


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def mul_fast(x: Octo, b: Octo, pipeline: Optional[Pipeline] = None) -> Octo:
    """Product ``x * b`` through the factorized kernel.

    Numerically identical to :func:`octofast.algebra.mul_naive` in exact
    arithmetic; uses 26 multiplications instead of 64.  Runs the function
    compiled from the one lowered program of ``pipeline`` (default: the
    certified :func:`default_pipeline`), which ``flatten`` hands out.  Its
    results equal ``p.apply(x.c, p.precompute(b))`` in value; in type too,
    except that when every coefficient of ``x`` and ``b`` is an ``int``
    each integral result is an ``int`` and any other a ``Fraction``.
    """
    p = pipeline if pipeline is not None else default_pipeline()
    return Octo(p._program._compiled(x.c, b.c))
