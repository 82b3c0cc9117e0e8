"""Print the operations of each generated body of the shipped kernel.

For each function that ``octofast.program.program_source`` generates for
the shipped program (the float body in ``kernel``, ``_int_kernel`` and
``_generic_kernel``) it prints, counted with ``ast`` on the source:

- products: ``*`` of two values that are not constants;
- scalings: ``*`` by a constant, a literal or a global ``_QK``;
- additions: ``+`` and ``-``, less the outputs' sum that the float body's
  finiteness test reads;
- negations: unary ``-`` of a value that is not a literal;
- decode: ``>>``, ``&`` and ``|``, with which the int twin tests the low
  bits of its numerators once, for all of them, and turns them into
  outputs (the other bodies have none);
- stores: assignments to one name, the unpacking of the operands excluded.

The tests read the generated bodies with :func:`constant` and
:func:`finiteness` too.  Run from anywhere:

    python tools/kernel_ops.py
"""

import ast
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from octofast.kernel import default_pipeline  # noqa: E402
from octofast.program import flatten, program_source  # noqa: E402

BODIES = (("kernel", "float"), ("_int_kernel", "int"),
          ("_generic_kernel", "generic"))
COLUMNS = ("products", "scalings", "additions", "negations", "decode",
           "stores")


def constant(node) -> bool:
    """Whether ``node`` is a constant factor: a literal, negated or not, or
    one of the kernel's globals ``_QK``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (isinstance(node, ast.Constant)
            or isinstance(node, ast.Name) and node.id.startswith("_Q"))


def finiteness(fn: ast.FunctionDef) -> set:
    """The ``id`` of every node of the outputs' sum that the float body's
    finiteness test ``_isfinite(...)`` reads; empty in the other bodies."""
    return {id(n) for call in ast.walk(fn) if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "_isfinite"
            for n in ast.walk(call)}


def count(fn: ast.FunctionDef) -> dict:
    """The :data:`COLUMNS` of one generated function."""
    test = finiteness(fn)
    ops = dict.fromkeys(COLUMNS, 0)
    for n in ast.walk(fn):
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult):
            scaled = constant(n.left) or constant(n.right)
            ops["scalings" if scaled else "products"] += 1
        elif isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Add, ast.Sub)):
            ops["additions"] += id(n) not in test
        elif isinstance(n, ast.BinOp) and isinstance(
                n.op, (ast.RShift, ast.BitAnd, ast.BitOr)):
            ops["decode"] += 1
        elif isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub):
            ops["negations"] += not isinstance(n.operand, ast.Constant)
        elif isinstance(n, ast.Assign):
            ops["stores"] += isinstance(n.targets[0], ast.Name)
    return ops


def kernel_ops() -> dict:
    """Each body's label and its :func:`count`, for the shipped program."""
    tree = ast.parse(program_source(flatten(default_pipeline())))
    fns = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    return {f"{label} ({name})": count(fns[name]) for name, label in BODIES}


def main() -> int:
    print(f"{'body':<26}" + "".join(f"{c:>10}" for c in COLUMNS))
    for body, ops in kernel_ops().items():
        print(f"{body:<26}" + "".join(f"{ops[c]:>10}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
