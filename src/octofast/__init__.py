"""octofast: hyperbolic-octonion products, two ways.

:func:`mul_naive` is the schoolbook product (64 multiplications);
:func:`mul_fast` runs a factorized pipeline with 26 multiplications whose
correctness is certified symbolically, not just sampled.  The pipeline can be
instrumented for exact operation counts or flattened into a deterministic
straight-line program.
"""

from .algebra import (BasisProduct, Octo, basis_mul, mul_naive,
                      quadratic_form, schoolbook_matrix)
from .kernel import (PrecomputeSet, Pipeline, build_pipeline,
                     default_pipeline, mul_fast)
from .linform import DegreeError, LinForm, SymMatrix
from .opcount import Counted, OpCount, Tally, count_algorithm
from .program import (Instr, Program, emit_csv, emit_text, eval_program,
                      flatten)
from .stages import (Butterfly, FanOut, Permute, QuasiDiagonal, SignScale,
                     Sum, apply_stage)
from .verify import (CorrectionSolve, InconsistentSystemError, ResidualReport,
                     certify, compose_symbolic, solve_corrections)

__version__ = "1.0.0"

__all__ = [
    "BasisProduct", "Butterfly", "Counted", "CorrectionSolve", "DegreeError",
    "FanOut", "InconsistentSystemError", "Instr", "LinForm", "Octo",
    "OpCount", "Permute", "Pipeline", "PrecomputeSet", "Program",
    "QuasiDiagonal", "ResidualReport", "SignScale", "Sum", "SymMatrix",
    "Tally", "apply_stage", "basis_mul", "build_pipeline", "certify",
    "compose_symbolic", "count_algorithm", "default_pipeline", "emit_csv",
    "emit_text", "eval_program", "flatten", "mul_fast", "mul_naive",
    "quadratic_form", "schoolbook_matrix", "solve_corrections",
]
