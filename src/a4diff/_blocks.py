"""The connected coordinate blocks of a representation, for the oracle.

Take the graph on the basis indices with an edge wherever a generator
has a nonzero.  The coordinates of a connected component span a subspace
every generator maps into itself, so M is the direct sum of its
restrictions to the components: the relations hold on M exactly when
they hold on each, and the summands and the Hom counts of M add over
them.  Blocks whose restricted generators are equal as bytes are equal
modules, so one copy of each is taken apart, and distinct blocks of
equal copy count go together in packs no larger than the largest block,
so tiny blocks do not each pay a decomposition's set-up.

The blocks are read off the matrices alone, never from the builder that
wrote them.  This code lives apart from ``oracle``: with no cached
bytecode, compiling one larger oracle module raised the peak memory of
a verify on a tiny model by about 0.4 MB.
"""

import numpy as np

from ._linalg import Matrix
from .modulezoo import GroupRep


def components(M):
    """The connected components of the nonzeros of M's generators, as
    ascending index lists ordered by their smallest index.

    Union-find in plain Python: each set is a tree whose root is its
    smallest index.  numpy's ufunc.at and stable sort would do the same,
    but the first call of each pages in code that adds to the peak
    memory of a run on a tiny model.
    """
    parent = list(range(M.dim))

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for g in M.generators().values():
        rows, cols = np.nonzero(g.a)
        for i, j in zip(rows.tolist(), cols.tolist()):
            i, j = root(i), root(j)
            if i != j:
                parent[max(i, j)] = min(i, j)
    blocks = {}
    for v in range(M.dim):
        blocks.setdefault(root(v), []).append(v)
    return list(blocks.values())


def packs(M):
    """(pack, copies) pairs: M is the direct sum of each pack taken copies
    times.  A model of one component is its own pack.  Raises unless the
    components hold every nonzero of every generator."""
    blocks = components(M)
    if len(blocks) <= 1:
        return [(M, 1)]
    gens = M.generators()
    kinds = {}          # the bytes of a block -> [its indices, copies]
    held = dict.fromkeys(gens, 0)
    for b in blocks:
        ix = np.ix_(b, b)
        key = [len(b)]
        for name, g in gens.items():
            sub = g.a[ix]
            held[name] += np.count_nonzero(sub)
            key.append(sub.tobytes())
        kinds.setdefault(tuple(key), [b, 0])[1] += 1
    for name, g in gens.items():
        if held[name] != np.count_nonzero(g.a):
            raise RuntimeError("internal extraction inconsistency: a "
                               f"nonzero of {name} joins two blocks")
    cap = max(len(b) for b in blocks)
    runs = {}           # copies -> packs of blocks, each at most cap
    for b, copies in kinds.values():
        run = runs.setdefault(copies, [[]])
        if len(run[-1]) + len(b) > cap:
            run.append([])
        run[-1] += b
    out = []
    for copies, run in runs.items():
        for pack in run:
            ix = np.ix_(pack, pack)
            out.append((GroupRep(M.group, M.spec,
                                 *(Matrix(M.spec, g.a[ix])
                                   for g in gens.values())), copies))
    return out
