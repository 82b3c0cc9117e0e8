from dataclasses import replace

from octofast.kernel import Pipeline
from octofast.linform import SymMatrix
from octofast.stages import QuasiDiagonal, SignScale, Sum


def clone_pipeline(p, stages=None, forms=None, pre_stages=None, recipes=None):
    return Pipeline(stages if stages is not None else p.stages,
                    pre_stages if pre_stages is not None else p.pre_stages,
                    recipes if recipes is not None else p.recipes,
                    forms if forms is not None else p.entry_forms,
                    p.tap_index)


def _swap(stages, i, st):
    out = list(stages)
    out[i] = st
    return tuple(out)


def sign_mutation_sites(p):
    """All (description, pipeline) pairs with one main-chain sign flipped.

    Entries that multiply a structurally zero lane are excluded up front:
    flipping them cannot change the composed matrix, so they are not part of
    the bilinear algorithm in any meaningful sense.
    """
    prefixes = []
    acc = SymMatrix.identity(8)
    for st in p.stages:
        prefixes.append(acc)
        acc = st.matrix(p.entry_forms) @ acc

    def live(si, lane):
        m = prefixes[si]
        return any(not m.entry(lane, j).is_zero for j in range(m.cols))

    sites = []
    for si, st in enumerate(p.stages):
        if isinstance(st, SignScale):
            for lane in range(len(st.factors)):
                if not live(si, lane):
                    continue
                facs = list(st.factors)
                facs[lane] = -facs[lane]
                sites.append((f"{st.label}[{lane}]",
                              clone_pipeline(p, stages=_swap(
                                  p.stages, si,
                                  replace(st, factors=tuple(facs))))))
        elif isinstance(st, Sum):
            for ri, row in enumerate(st.rows):
                for ti, (lane, sign) in enumerate(row):
                    if not live(si, lane):
                        continue
                    rows = [list(r) for r in st.rows]
                    rows[ri][ti] = (lane, -sign)
                    newst = replace(st, rows=tuple(tuple(r) for r in rows))
                    sites.append((f"{st.label}[{ri}.{ti}]",
                                  clone_pipeline(p, stages=_swap(p.stages, si,
                                                                 newst))))
        elif isinstance(st, QuasiDiagonal):
            for _, c, name in st.cells:
                if not live(si, c):
                    continue
                forms = dict(p.entry_forms)
                forms[name] = -forms[name]
                sites.append((f"core[{name}]", clone_pipeline(p, forms=forms)))
    return sites
