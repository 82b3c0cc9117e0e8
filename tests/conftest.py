from dataclasses import replace

from octofast.kernel import Pipeline
from octofast.linform import LinForm, SymMatrix
from octofast.program import INPUTS, Instr, Program, emit_text
from octofast.stages import FanOut, SignScale, Sum


def clone_pipeline(p, stages=None, forms=None, pre_stages=None, recipes=None):
    return Pipeline(stages if stages is not None else p.stages,
                    pre_stages if pre_stages is not None else p.pre_stages,
                    recipes if recipes is not None else p.recipes,
                    forms if forms is not None else p.entry_forms,
                    p.tap_index)


def identity(n=8):
    """The reindexing stage that leaves ``n`` lanes where they are."""
    return FanOut(src=tuple(range(n)), in_dim=n)


def _swap(stages, i, st):
    out = list(stages)
    out[i] = st
    return tuple(out)


def _live_lanes(stages, forms):
    """live[si] = lanes of stage si's input that depend on the chain input."""
    acc = SymMatrix.identity(stages[0].in_dim)
    live = []
    for st in stages:
        live.append({i for i in range(acc.rows)
                     if any(not acc.entry(i, j).is_zero for j in range(acc.cols))})
        acc = st.matrix(forms) @ acc
    return live


def _sign_flips(stages, forms):
    """(site, stage index, flipped stage) for each live SignScale/Sum sign."""
    live = _live_lanes(stages, forms)
    for si, st in enumerate(stages):
        if isinstance(st, SignScale):
            for lane, f in enumerate(st.factors):
                if lane in live[si]:
                    facs = list(st.factors)
                    facs[lane] = -f
                    yield (f"{st.label}[{lane}]", si,
                           replace(st, factors=tuple(facs)))
        elif isinstance(st, Sum):
            for ri, row in enumerate(st.rows):
                for ti, (lane, sign) in enumerate(row):
                    if lane in live[si]:
                        rows = [list(r) for r in st.rows]
                        rows[ri][ti] = (lane, -sign)
                        yield (f"{st.label}[{ri}.{ti}]", si,
                               replace(st, rows=tuple(tuple(r) for r in rows)))


def sign_mutation_sites(p):
    """All (description, pipeline) pairs with one sign of running code flipped.

    The sites are every live sign of a main-chain or precompute stage (a
    ``SignScale`` factor or a ``Sum`` term) and every recipe factor.  Signs
    on lanes that are structurally zero are excluded up front: flipping them
    cannot change what the pipeline computes, so they are not part of the
    bilinear algorithm in any meaningful sense.
    """
    pre = p.precompute([LinForm.var(i) for i in range(8)])
    sites = [(f"main:{site}",
              clone_pipeline(p, stages=_swap(p.stages, si, st)))
             for site, si, st in _sign_flips(p.stages, pre)]
    sites += [(f"pre:{site}",
               clone_pipeline(p, pre_stages=_swap(p.pre_stages, si, st)))
              for site, si, st in _sign_flips(p.pre_stages, None)]
    for name, (src, lane, factor) in p.recipes.items():
        recipes = dict(p.recipes)
        recipes[name] = (src, lane, -factor)
        sites.append((f"recipe:{name}", clone_pipeline(p, recipes=recipes)))
    return sites


_ARITY = {"add": 2, "sub": 2, "mul": 2, "neg": 1, "zero": 1, "shift": 2}


def read_program(text):
    """The :class:`Program` that ``emit_text`` wrote as ``text``.

    Strict, so that what the tests compile is the emitted artifact and
    nothing else: the inputs must be the sixteen operand slots, every op
    known with its operand count, every slot a Python identifier assigned
    once and used after it, and ``text`` byte-identical to ``emit_text`` of
    the result (so the header and the ``# mults=.. adds=..`` line agree with
    the instructions).  Anything else raises ``ValueError``.
    """
    _, inputs, *body, outputs, _ = text.splitlines()
    if inputs.split()[2:] != list(INPUTS):
        raise ValueError(f"inputs are not {' '.join(INPUTS)}: {inputs!r}")
    instrs = []
    for line in body:
        dest, eq, op, *args = line.split()
        if eq != "=" or _ARITY.get(op) != len(args) or not dest.isidentifier():
            raise ValueError(f"not an instruction: {line!r}")
        instrs.append(Instr(dest, op, args[0], k=int(args[1])) if op == "shift"
                      else Instr(dest, op, *args))
    prog = Program(INPUTS, tuple(instrs), tuple(outputs.split()[2:]))
    prog.validate()
    if emit_text(prog) != text:
        raise ValueError("text differs from the emission of what it encodes")
    return prog
