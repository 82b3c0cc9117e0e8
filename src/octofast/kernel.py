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

Every entry form below is certified against the schoolbook matrix by
``octofast.verify`` (and re-derived from scratch by its residual solver in the
test suite); edit nothing here by hand without re-running certification.

:func:`mul_fast` does not interpret the stages.  On its first call with a
pipeline it lowers that pipeline's own ``precompute``/``apply`` walk into a
straight-line program, compiles the program into one Python function
(:func:`octofast.program.compile_pipeline`) and caches it on the pipeline
object; every later call runs that function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .algebra import Octo
from .linform import LinForm
from .stages import (Butterfly, FanOut, Permute, QuasiDiagonal, SignScale,
                     Sum, apply_stage, scale)

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
        Permute((4, 1, 2, 3, 0, 5, 6, 7), label="swap04"),
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

@dataclass
class PrecomputeSet:
    """The 26 named right-operand values the quasi-diagonal stage consumes."""
    s: tuple
    m: dict

    def __getitem__(self, name: str):
        if len(name) == 2 and name[0] == "s" and name[1].isdigit():
            return self.s[int(name[1])]
        return self.m[name]


class Pipeline:
    """A complete bilinear-product pipeline.

    ``pre_stages`` transform the right operand; ``recipes`` derive the
    correction values from the input or from the tap intermediate;
    ``stages`` transform the left operand, consuming the precomputed values
    in quasi-diagonal stages.  ``certified`` is flipped by
    ``octofast.verify.certify`` once the symbolic composition of ``stages``
    matches the schoolbook matrix and ``precompute`` yields every entry form
    that composition assumed.

    :func:`mul_fast` compiles the walk of ``pre_stages``, ``recipes``,
    ``tap_index`` and ``stages`` once and keeps it on the pipeline, so these
    stay as built: the chains are tuples and ``recipes`` is read-only.
    """

    def __init__(self, stages: Sequence, pre_stages: Sequence = (),
                 recipes: Optional[Mapping] = None,
                 entry_forms: Optional[Mapping] = None,
                 tap_index: int = 0):
        self.stages = tuple(stages)
        self.pre_stages = tuple(pre_stages)
        self.recipes = MappingProxyType(dict(recipes or {}))
        self.entry_forms = dict(entry_forms or {})
        self.tap_index = tap_index
        self.certified = False
        self._compiled = None  # mul_fast's kernel, built on its first call
        _check_chain(self.stages, 8, 8, "main")
        if self.pre_stages:
            _check_chain(self.pre_stages, 8, 8, "precompute")

    # -- right-operand pass --

    def precompute(self, b) -> PrecomputeSet:
        coeffs = b.c if isinstance(b, Octo) else tuple(b)
        if not self.pre_stages:
            return PrecomputeSet(s=(), m={})
        vec = list(coeffs)
        tap = vec
        for idx, st in enumerate(self.pre_stages):
            vec = apply_stage(st, vec, None)
            if idx == self.tap_index:
                tap = vec
        m = {name: scale(coeffs[lane] if src == "input" else tap[lane], factor)
             for name, (src, lane, factor) in self.recipes.items()}
        return PrecomputeSet(s=tuple(vec), m=m)

    # -- left-operand pass --

    def apply(self, xvec: Sequence, pre: PrecomputeSet) -> list:
        vec = list(xvec)
        for st in self.stages:
            vec = apply_stage(st, vec, pre)
        return vec


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
    from .verify import certify  # deferred: verify depends on this module's data
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
    arithmetic; uses 26 multiplications instead of 64.  Runs the Python
    function generated from the lowered walk of ``pipeline`` (default: the
    certified :func:`default_pipeline`); the function is compiled on the
    first call with each pipeline object and cached on it.  Its results
    equal ``p.apply(x.c, p.precompute(b))`` in value and type.
    """
    p = pipeline if pipeline is not None else default_pipeline()
    kernel = p._compiled
    if kernel is None:
        # deferred: program imports opcount, which imports this module
        from .program import compile_pipeline
        kernel = p._compiled = compile_pipeline(p)
    return Octo(kernel(x.c, b.c))
