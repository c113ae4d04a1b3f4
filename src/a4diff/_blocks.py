"""A representation as the nonzeros of its generators, and its connected
coordinate blocks, for the oracle.

``TripletRep`` holds each generator as coordinate triplets (row, column,
mask), one per nonzero (Davis, *Direct Methods for Sparse Linear
Systems*, 2006).  The builder writes its model this way, so no d x d
array is made on the way to the oracle; ``TripletRep.from_dense`` reads a
dense ``GroupRep`` the same way.

Take the graph on the basis indices with an edge wherever a generator
has a nonzero.  The coordinates of a connected component span a subspace
every generator maps into itself, so M is the direct sum of its
restrictions to the components: the relations hold on M exactly when
they hold on each, and the summands and the Hom counts of M add over
them.  Blocks whose sorted local triplets are equal are equal modules,
so one copy of each is made dense and taken apart, and distinct
blocks of equal copy count go together in packs no larger than the
largest block, so tiny blocks do not each pay a decomposition's set-up.
A block larger than BLOCK_DIM_CAP is refused before any dense array is
made.

The blocks are read off the triplets alone, never from the builder that
wrote them.  This code lives apart from ``oracle``: with no cached
bytecode, compiling one larger oracle module raised the peak memory of
a verify on a tiny model by about 0.4 MB.
"""

import numpy as np

from ._linalg import Matrix
from .modulezoo import GroupRep

# The largest coordinate block made dense.  Taking a block of dimension b
# apart holds about 16 b x b int64 arrays at once (generators, pencil,
# products and eliminations), so a budget of 1 GiB allows
# b <= sqrt(2^30 / (16 * 8)) = 2896.
BLOCK_DIM_CAP = 2896


class TripletRep:
    """Group generators as coordinate triplets.

    gens maps "sigma", "tau" and, over G, "rho" to three equal-length
    int64 arrays (rows, cols, masks): one entry per nonzero, no (row,
    col) twice.
    """

    __slots__ = ("group", "spec", "dim", "gens")

    def __init__(self, group, spec, dim, gens):
        self.group = group
        self.spec = spec
        self.dim = dim
        self.gens = gens

    @classmethod
    def from_dense(cls, M):
        gens = {}
        for name, g in M.generators().items():
            rows, cols = np.nonzero(g.a)
            gens[name] = (rows, cols, g.a[rows, cols])
        return cls(M.group, M.spec, M.dim, gens)

    def restrict_to_h(self):
        """Forget rho: the H-representation on the same sigma and tau."""
        return TripletRep("H", self.spec, self.dim,
                          {k: self.gens[k] for k in ("sigma", "tau")})

    def dense(self):
        """The GroupRep of these generators."""
        mats = []
        for rows, cols, vals in self.gens.values():
            a = np.zeros((self.dim, self.dim), dtype=np.int64)
            a[rows, cols] = vals
            mats.append(Matrix(self.spec, a))
        return GroupRep(self.group, self.spec, *mats)


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

    for rows, cols, _ in M.gens.values():
        for i, j in zip(rows.tolist(), cols.tolist()):
            i, j = root(i), root(j)
            if i != j:
                parent[max(i, j)] = min(i, j)
    blocks = {}
    for v in range(M.dim):
        blocks.setdefault(root(v), []).append(v)
    return list(blocks.values())


def _local_triplets(M, blocks):
    """Per block, per generator, its sorted (local row, local column,
    mask) triplets.  Raises unless the components hold every nonzero of
    every generator.  Plain Python for the reason components gives: a
    first np.argsort alone pages in some 0.4 MB of sorting code."""
    where = [0] * M.dim
    local = [0] * M.dim
    for n, b in enumerate(blocks):
        for t, v in enumerate(b):
            where[v], local[v] = n, t
    out = [[] for _ in blocks]
    for name, (rows, cols, vals) in M.gens.items():
        per = [[] for _ in blocks]
        for i, j, x in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            if where[i] != where[j]:
                raise RuntimeError("internal extraction inconsistency: a "
                                   f"nonzero of {name} joins two blocks")
            per[where[i]].append((local[i], local[j], x))
        for trips, held in zip(out, per):
            held.sort()
            trips.append(tuple(held))
    return out


def packs(M):
    """(pack, copies) pairs: M, a GroupRep or a TripletRep, is the direct
    sum of each dense pack taken copies times.  A model of one component
    is its own pack.  Raises "unsupported configuration" before any dense
    array is made when a block is larger than BLOCK_DIM_CAP."""
    if not isinstance(M, TripletRep):
        M = TripletRep.from_dense(M)
    blocks = components(M)
    cap = max(map(len, blocks), default=0)
    if cap > BLOCK_DIM_CAP:
        raise ValueError(f"unsupported configuration: a coordinate block "
                         f"of dimension {cap}, more than {BLOCK_DIM_CAP}")
    if len(blocks) <= 1:
        return [(M.dense(), 1)]
    kinds = {}          # a block's dim and triplets -> its copies
    for b, trips in zip(blocks, _local_triplets(M, blocks)):
        key = (len(b), *trips)
        kinds[key] = kinds.get(key, 0) + 1
    runs = {}           # copies -> packs [dim, blocks], each at most cap
    for (size, *trips), copies in kinds.items():
        run = runs.setdefault(copies, [[0, []]])
        if run[-1][0] + size > cap:
            run.append([0, []])
        run[-1][0] += size
        run[-1][1].append((size, trips))
    out = []
    for copies, run in runs.items():
        for d, pack in run:
            mats = [np.zeros((d, d), dtype=np.int64) for _ in M.gens]
            o = 0
            for size, trips in pack:
                for a, held in zip(mats, trips):
                    for i, j, x in held:
                        a[o + i, o + j] = x
                o += size
            out.append((GroupRep(M.group, M.spec,
                                 *(Matrix(M.spec, a) for a in mats)),
                        copies))
    return out
