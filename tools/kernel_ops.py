"""Print the operations of each generated body of the shipped kernel.

For each function that ``octofast.program.program_source`` generates for
the shipped program (the float body in ``kernel``, ``_int_kernel`` and
``_generic_kernel``) it prints, counted with ``ast`` on the source:

- products: ``*`` of two values that are not constants;
- scalings: ``*`` by a constant, a literal or a global ``_QK``;
- additions: ``+`` and ``-``, less the outputs' sum that the float body's
  finiteness test reads;
- negations: unary ``-`` of a value that is not a literal;
- stores: assignments to one name, the unpacking of the operands excluded.

The int twin's decode of its outputs (``>>``, ``&``, ``|``) is in none of
these columns.  Run from anywhere:

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
COLUMNS = ("products", "scalings", "additions", "negations", "stores")


def _constant(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (isinstance(node, ast.Constant)
            or isinstance(node, ast.Name) and node.id.startswith("_Q"))


def count(fn: ast.FunctionDef) -> dict:
    """The :data:`COLUMNS` of one generated function."""
    finiteness = {id(n) for call in ast.walk(fn) if isinstance(call, ast.Call)
                  and getattr(call.func, "id", None) == "_isfinite"
                  for n in ast.walk(call)}
    ops = dict.fromkeys(COLUMNS, 0)
    for n in ast.walk(fn):
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult):
            scaled = _constant(n.left) or _constant(n.right)
            ops["scalings" if scaled else "products"] += 1
        elif isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Add, ast.Sub)):
            ops["additions"] += id(n) not in finiteness
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
