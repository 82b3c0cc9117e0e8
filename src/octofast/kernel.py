"""The factorized fast kernel: 26 multiplications, 92 additions.

The product ``y = x * b`` is computed as a bilinear pipeline: a short
precompute pass over the right operand ``b`` yields 26 named scalars (eight
scaled sums ``s0..s7`` plus eighteen correction entries), as a plain ``dict``
with the keys of :data:`ENTRY_FORMS` in its order; the main chain then
applies constant mixing stages to ``x`` with a single quasi-diagonal stage in
the middle carrying all 26 data-dependent multiplications.

The quasi-diagonal splits into four blocks: the scaled sums handle two 4-lane
Toeplitz-like halves of the multiplication matrix, and three sparse correction
blocks repair what the Toeplitz approximation and the scalar/counter-scalar
lane swap get wrong.  Every correction value is a ±1 or ±2 multiple of either
a ``b`` coefficient or an intermediate the precompute pass already built, so
the corrections cost no extra additions.

Each correction entry is stated once, as one row of one table that gives
its recipe (how the precompute computes it) and its closed form;
``CORRECTION_RECIPES`` and ``CORRECTION_FORMS`` are read off that table.
Its core cell is read off its name: ``<block>_<r><c>`` sits at
``(start + r, start + c)``, where ``start`` is the block's first lane.

:func:`mul_fast` does not interpret the stages.  A pipeline lowers its own
``precompute``/``apply`` walk into a straight-line program when it is
built, and keeps it: ``octofast.verify.certify`` proves that program,
precompute and recipes included, ``flatten`` hands it out and
:func:`mul_fast` runs it, compiled once, on its first product, into one
Python function that the program keeps.  The entry forms only document, in
closed form, what the precompute yields, and are the targets of
``verify.solve_corrections``, which reads the same program with the known
ones in place of the products' b-side values.

That function takes the two ``Octo`` operands and builds the product's
``Octo`` itself, in one of three bodies, picked by the operands' ``kind``
(:class:`~octofast.algebra.Octo` finds it when it checks its
coefficients), two slot reads.  When both operands' kind is ``float``, it
runs a body whose negations are folded into the additions that read
them, and whose results are the interpreter walk's bit for bit; one
finiteness test of the outputs' sum stands in for ``Octo``'s checks, and
a sum that overflows falls through to them.  When both are of kind
``int``, it hands their coefficients to a generated twin in exact dyadic
ints, which tests the low bits of all outputs at once and returns them
``>> 3`` with kind ``int`` when they are zero, else decodes each output
by itself into an ``int`` or a ``Fraction``
(:func:`octofast.program._int_kernel_source` states it), so the 1/8 above
costs no ``Fraction`` arithmetic, a certified pipeline returns ``int``
coefficients, and a product of that product runs the twin again.  Every
other kind of operand (``Fraction``, mixed, ``bool``, subclasses,
instrumented scalars, linear forms) runs the generic body, which computes
exactly what the interpreter walk computes, operation for operation, and
ends in the checking ``Octo``.  See
:func:`octofast.program.program_source`.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .algebra import Octo
from .linform import LinForm
from .program import _lower
from .stages import (Butterfly, FanOut, QuasiDiagonal, SignScale, Sum,
                     _store, canonical_pow2, run)
from .verify import certify

EIGHTH = Fraction(1, 8)

# The names of the eight precompute lanes, which a core cell reads by name.
LANES = tuple(f"s{k}" for k in range(8))

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

# The correction entries, one row each, name -> (recipe, closed form), in
# the order the precompute computes them and the core multiplies by them;
# a name <block>_<r><c> gives the entry's core cell (_cell).  A recipe reads
# b ("input", lane, factor) or the shared butterfly intermediate ("tap",
# lane, factor); the factor is +-1 or +-2, so no additions are spent.  The
# closed form is stated apart from the recipe: it is the reference the
# precompute is checked against.  sumcorr/diffcorr repair the two Toeplitz
# halves, swapcorr repairs the scalar lane swap (its natural entries carry
# a factor 2, folded in here so the precompute only shifts).
_CORRECTIONS = {
    "sumcorr_01": (("input", 5, -1), LinForm.var(5, -1)),
    "sumcorr_02": (("input", 6, -1), LinForm.var(6, -1)),
    "sumcorr_03": (("input", 7, -1), LinForm.var(7, -1)),
    "sumcorr_13": (("tap", 2, -1), LinForm.combo([(2, -1), (6, -1)])),
    "sumcorr_21": (("tap", 3, -1), LinForm.combo([(3, -1), (7, -1)])),
    "sumcorr_32": (("tap", 1, -1), LinForm.combo([(1, -1), (5, -1)])),
    "diffcorr_01": (("input", 5, -1), LinForm.var(5, -1)),
    "diffcorr_02": (("input", 6, -1), LinForm.var(6, -1)),
    "diffcorr_03": (("input", 7, -1), LinForm.var(7, -1)),
    "diffcorr_12": (("tap", 7, 1), LinForm.combo([(3, 1), (7, -1)])),
    "diffcorr_23": (("tap", 5, 1), LinForm.combo([(1, 1), (5, -1)])),
    "diffcorr_31": (("tap", 6, 1), LinForm.combo([(2, 1), (6, -1)])),
    "swapcorr_11": (("input", 0, 2), LinForm.var(0, 2)),
    "swapcorr_22": (("input", 0, 2), LinForm.var(0, 2)),
    "swapcorr_33": (("input", 0, 2), LinForm.var(0, 2)),
    "swapcorr_54": (("input", 5, -2), LinForm.var(5, -2)),
    "swapcorr_64": (("input", 6, -2), LinForm.var(6, -2)),
    "swapcorr_74": (("input", 7, -2), LinForm.var(7, -2)),
}

# The first core lane of each correction block: the two 4x4 Toeplitz
# repairs at lanes 4..7 and 12..15, the 8x8 swap repair at lanes 16..23
# (its rows 0 and 4 are structurally zero).
_BLOCK_START = {"sumcorr": 4, "diffcorr": 12, "swapcorr": 16}

CORRECTION_RECIPES = {name: rec for name, (rec, _) in _CORRECTIONS.items()}
CORRECTION_FORMS = {name: form for name, (_, form) in _CORRECTIONS.items()}
ENTRY_FORMS = dict(zip(LANES, S_FORMS)) | CORRECTION_FORMS


def _cell(name: str) -> tuple:
    """The core cell of correction ``<block>_<r><c>``: ``(start + r,
    start + c, name)``, ``start`` the block's first lane."""
    block, (r, c) = name.split("_")
    start = _BLOCK_START[block]
    return start + int(r), start + int(c), name


# The chains and the core's cells are constant data, built once at import
# and shared by every pipeline build_pipeline() makes: the stages are
# frozen records, so no pipeline can change what another reads.

# The b-side chain: 24 additions from b to the eight scaled sums.
_PRE_STAGES = (
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

# The core's cells: the scaled sums against the swapped/mixed head lanes,
# then each correction entry at the cell its name gives.
_CORE_CELLS = (
    (0, 0, "s0"), (1, 1, "s1"), (2, 2, "s2"), (3, 3, "s3"),
    (8, 8, "s4"), (9, 9, "s5"), (10, 10, "s6"), (11, 11, "s7"),
) + tuple(map(_cell, _CORRECTIONS))

# The x-side chain, 8 -> 24 -> 8 lanes, one quasi-diagonal core.
_MAIN_STAGES = (
    FanOut(src=(4, 1, 2, 3, 0, 5, 6, 7), in_dim=8, label="swap04"),
    FanOut(src=tuple(range(8)) + tuple(range(8)), in_dim=8, label="dup"),
    Butterfly(half=4, starts=(0,), dim=16, label="mix-head"),
    FanOut(src=(0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 4, 5, 6, 7,
                8, 9, 10, 11, 12, 13, 14, 15),
           in_dim=16, label="spread"),
    Butterfly(half=2, starts=(0, 8), dim=24, label="outer-pairs"),
    Butterfly(half=1, starts=(0, 2, 8, 10), dim=24, label="inner-pairs"),
    QuasiDiagonal(dim=24, cells=_CORE_CELLS, label="product-core"),
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
# The pipeline.
# ---------------------------------------------------------------------------

def PrecomputeSet(s: Sequence, m: Mapping) -> dict:
    """The mapping ``precompute`` returns, of the lanes ``s`` and the recipe
    values ``m``.  Kept because the frozen benchmark (``perfbench/layers.py``)
    builds its replay's values with it."""
    return dict(zip(LANES, s)) | m


class Pipeline:
    """A complete bilinear-product pipeline.

    ``pre_stages`` transform the right operand; each recipe
    ``(src, lane, factor)`` reads ``lane`` of the input (``"input"``) or of
    pre-stage ``tap_index``'s output (``"tap"``) times a ``+-2^k`` factor;
    ``stages`` transform the left operand, consuming the precomputed values
    in quasi-diagonal stages.  ``precompute`` returns those values as a
    ``dict``: the lanes ``s0..s7``, then each recipe's value in ``recipes``
    order.  ``certified`` is flipped by
    ``octofast.verify.certify`` once the matrix of the lowered program, the
    walk of ``precompute`` then ``apply``, equals the schoolbook product
    matrix: it vouches for that claim alone.  ``entry_forms`` name the
    values ``precompute`` yields; only ``solve_corrections`` reads them.

    ``precompute`` and ``apply`` check their operand's 8 lanes once and run
    their chains through the one chain walk, :func:`octofast.stages.run`;
    the widths inside a chain were checked when the pipeline was built.
    The walk of ``pre_stages``, ``recipes``, ``tap_index`` and ``stages``
    is lowered when the pipeline is built, as the constructor's last step,
    into ``_program``, the one program that ``certify`` proves, ``flatten``
    emits and :func:`mul_fast` runs; a walk that
    :meth:`~octofast.program.Program.validate` refuses
    (:class:`~octofast.linform.DegreeError`), or a constant not ``+-2^k``
    (``ValueError``), makes the constructor raise.  ``certified`` vouches
    for that program, so the structure stays as built: the chains are tuples,
    ``recipes`` is read-only with canonical factors (``canonical_pow2``
    refuses one that is not ``+-2^k``), ``entry_forms`` is read-only, and
    ``certified`` is the one attribute that may be assigned: assigning any
    other, a field, a method or a new name, or deleting any attribute,
    raises ``AttributeError``.
    """

    def __init__(self, stages: Sequence, pre_stages: Sequence = (),
                 recipes: Optional[Mapping] = None,
                 entry_forms: Optional[Mapping] = None,
                 tap_index: int = 0):
        _store(self, stages=tuple(stages), pre_stages=tuple(pre_stages),
               recipes=MappingProxyType(
                   {name: (src, lane, canonical_pow2(factor))
                    for name, (src, lane, factor) in (recipes or {}).items()}),
               entry_forms=MappingProxyType(dict(entry_forms or {})),
               tap_index=tap_index, certified=False)
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
        _store(self, _program=_lower(self))

    def __setattr__(self, name, value):
        if name != "certified":
            raise AttributeError(f"Pipeline.{name} cannot be assigned; only "
                                 f"Pipeline.certified can")
        _store(self, certified=value)

    def __delattr__(self, name):
        raise AttributeError(f"Pipeline.{name} cannot be deleted")

    # -- right-operand pass --

    def precompute(self, b) -> dict:
        coeffs = b.c if isinstance(b, Octo) else tuple(b)
        if len(coeffs) != 8:
            raise ValueError(f"b: expected 8 lanes, got {len(coeffs)}")
        # the tap is the output of pre-stage tap_index; with no such stage
        # no recipe reads it (the constructor refuses a "tap" recipe)
        cut = max(self.tap_index + 1, 0)
        tap = run(self.pre_stages[:cut], coeffs)
        vec = run(self.pre_stages[cut:], tap)
        return dict(zip(LANES, vec)) | {
            name: (coeffs[lane] if src == "input" else tap[lane]) * factor
            for name, (src, lane, factor) in self.recipes.items()}

    # -- left-operand pass --

    def apply(self, xvec: Sequence, pre: Mapping) -> list:
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
    """A new, uncertified fast-kernel pipeline over the chains and recipes
    built at import; each pipeline is lowered and certified on its own."""
    return Pipeline(stages=_MAIN_STAGES,
                    pre_stages=_PRE_STAGES,
                    recipes=CORRECTION_RECIPES,
                    entry_forms=ENTRY_FORMS,
                    tap_index=_TAP_INDEX)


# default_pipeline()'s pipeline, kept once it is built and certified: a
# global that mul_fast reads, so that a product made with no pipeline calls
# nothing before the kernel
_default = None


def default_pipeline() -> Pipeline:
    """The shared certified pipeline used by :func:`mul_fast`, built and
    certified on the first call and the same object on every later one."""
    global _default
    if _default is None:
        p = build_pipeline()
        report = certify(p)
        if not report.ok:
            raise AssertionError(
                "fast kernel failed self-certification:\n" + report.to_text())
        _default = p
    return _default


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def mul_fast(x: Octo, b: Octo, pipeline: Optional[Pipeline] = None) -> Octo:
    """Product ``x * b`` through the factorized kernel.

    Numerically identical to :func:`octofast.algebra.mul_naive` in exact
    arithmetic; uses 26 multiplications instead of 64.  Hands ``x`` and
    ``b`` to the function compiled from the one lowered program of
    ``pipeline`` (default: the certified :func:`default_pipeline`, read
    from the module's ``_default`` once it is built, so that a product
    with no pipeline makes no call for it), which ``flatten`` hands out,
    and returns the ``Octo`` that function builds; the program keeps it
    in the plain attribute ``_kernel``, compiled on its first product.
    That function picks its body by ``x.kind`` and ``b.kind``.  Its
    coefficients equal ``p.apply(x.c, p.precompute(b))`` in value, bit for
    bit on floats, signed zeros included; in type too, except that when
    both operands are of kind ``int`` each integral result is an ``int``
    and any other a ``Fraction``.  The result's ``kind`` is the one its
    coefficients give.  A float product that overflows raises ``Octo``'s
    ``ValueError``.  A non-bilinear pipeline cannot be built, so it never
    gets here.
    """
    p = pipeline if pipeline is not None else _default or default_pipeline()
    # read, then called: CPython 3.11 specialises the read of an instance
    # attribute, and not a method call through one
    kernel = p._program._kernel
    return kernel(x, b)
