"""Explicit matrix models for every module label in the two inventories.

Both group algebras in play are special biserial in characteristic 2:
after factoring out the socle they become path algebras with every
length-two path equal to zero, and the nonprojective indecomposables
are exactly the string and band modules of those quivers.  This module
realizes them as honest matrices.

The Klein four algebra lives on a one-vertex quiver with two loops A
and B, related to the group by sigma = 1 + A and tau = 1 + B.

The A4 algebra lives on a three-vertex quiver, one vertex per
eigenvalue of rho.  The gamma arrows raise the vertex index by one and
the delta arrows lower it; C is the sum of the gammas and D the sum of
the deltas, and inverting

    A = zeta C + zeta D + zeta^2 CD
    B = zeta^2 C + D + zeta^2 CD

recovers the group generators from any quiver representation, where
CD = 0 (a sum of length-two paths), so that A = zeta C + zeta D and
B = zeta^2 C + D.  rho itself acts as zeta^i on the vertex-i summand.
The models go one way only, from words to group matrices: the oracle
reads the graded pencil back off the group matrices directly, with no
quiver representation in between.  A word's constructor refuses every
path in the ideal, so the models built from words check no relation.

String modules follow the usual recipe: basis b_1 .. b_{l+1} along the
word, a direct letter w_j acting by alpha . b_{j+1} = b_j and an
inverse letter by alpha . b_j = b_{j+1}.  Band modules replace basis
vectors by blocks of size n and put a Jordan block J_n(mu) on the
first letter.  The label-level dictionary from the A4 zoo to the Klein
four one is `decomp.restrict_decomposition`; it matches the A4 band
parameters with the Klein four ones by the Moebius correspondence.
"""

import re

import numpy as np

from ._linalg import Matrix, jordan_block
from .gf import FieldElement, all_elements
from .ramification import INF
from .decomp import KHLabel, KGLabel


# ---------------------------------------------------------------------------
# quivers and words

def fwd(name):
    """A direct letter."""
    return (name, True)


def rev(name):
    """A formal inverse letter."""
    return (name, False)


def parse_letters(text):
    """Letters from a space-separated word, "~" marking inverses."""
    out = []
    for tok in text.split():
        if tok.startswith("~"):
            out.append(rev(tok[1:]))
        else:
            out.append(fwd(tok))
    return tuple(out)


class Quiver:
    """A finite quiver whose ideal is generated by all length-two paths.

    That convention covers every algebra handled here, so relations are
    implicit: a word is ideal-free iff no two adjacent letters point the
    same way.
    """

    __slots__ = ("name", "vertices", "arrows")

    def __init__(self, name, vertices, arrows):
        self.name = name
        self.vertices = tuple(vertices)
        self.arrows = dict(arrows)

    def src(self, name):
        return self.arrows[name][0]

    def dst(self, name):
        return self.arrows[name][1]

    def letter_source(self, letter):
        name, direct = letter
        return self.src(name) if direct else self.dst(name)

    def letter_end(self, letter):
        name, direct = letter
        return self.dst(name) if direct else self.src(name)

    def __repr__(self):
        return f"Quiver({self.name})"


KLEIN_AB = Quiver("klein_ab", (0,), {"A": (0, 0), "B": (0, 0)})

# gamma arrows raise the vertex index mod 3, delta arrows lower it.
A4_QUIVER = Quiver("a4", (0, 1, 2), {
    "g10": (0, 1), "g21": (1, 2), "g02": (2, 0),
    "d01": (1, 0), "d12": (2, 1), "d20": (0, 2),
})


def _letter_str(letter):
    name, direct = letter
    return name if direct else "~" + name


def _check_pair(quiver, left, right, what, pos):
    """Shared adjacency rules for string and band words."""
    if quiver.letter_source(left) != quiver.letter_end(right):
        raise ValueError(
            f"{what}: letters {pos} and {pos + 1} do not compose")
    if left[0] == right[0] and left[1] != right[1]:
        raise ValueError(f"{what}: immediate inverse at position {pos}")
    if left[1] == right[1]:
        # two direct letters form a path of w, two inverse letters one
        # of w^-1; either way it is a relation.
        raise ValueError(
            f"{what}: path {_letter_str(left)}.{_letter_str(right)} "
            "lies in the ideal")


class StringWord:
    """A reduced ideal-free walk, possibly empty (a vertex)."""

    __slots__ = ("quiver", "letters", "base_vertex")

    def __init__(self, quiver, letters, base_vertex=None):
        if isinstance(letters, str):
            letters = parse_letters(letters)
        letters = tuple(letters)
        for name, _ in letters:
            if name not in quiver.arrows:
                raise ValueError(f"invalid string: unknown arrow {name!r}")
        if not letters:
            if base_vertex not in quiver.vertices:
                raise ValueError("invalid string: empty word needs a vertex")
        else:
            base_vertex = None
        for i in range(len(letters) - 1):
            _check_pair(quiver, letters[i], letters[i + 1],
                        "invalid string", i + 1)
        self.quiver = quiver
        self.letters = letters
        self.base_vertex = base_vertex

    def __len__(self):
        return len(self.letters)

    def basis_vertex(self, j):
        """Vertex of basis vector b_{j+1}, 0-indexed j in 0..len."""
        if not self.letters:
            return self.base_vertex
        if j < len(self.letters):
            return self.quiver.letter_end(self.letters[j])
        return self.quiver.letter_source(self.letters[-1])

    def __repr__(self):
        if not self.letters:
            return f"StringWord(e_{self.base_vertex})"
        return "StringWord(%s)" % " ".join(map(_letter_str, self.letters))


class BandWord:
    """A cyclic word, every rotation a string, not a proper power.

    The first letter is required to be an arrow; every band is a
    rotation or inverse of one of this shape.
    """

    __slots__ = ("quiver", "letters")

    def __init__(self, quiver, letters):
        if isinstance(letters, str):
            letters = parse_letters(letters)
        letters = tuple(letters)
        if not letters:
            raise ValueError("invalid band: empty word")
        for name, _ in letters:
            if name not in quiver.arrows:
                raise ValueError(f"invalid band: unknown arrow {name!r}")
        if not letters[0][1]:
            raise ValueError("invalid band: first letter must be an arrow")
        l = len(letters)
        for i in range(l):
            _check_pair(quiver, letters[i], letters[(i + 1) % l],
                        "invalid band", i + 1)
        for d in range(1, l):
            if l % d == 0 and letters[d:] + letters[:d] == letters:
                raise ValueError("invalid band: proper power")
        self.quiver = quiver
        self.letters = letters

    def __len__(self):
        return len(self.letters)

    def block_vertex(self, t):
        return self.quiver.letter_end(self.letters[t])

    def __repr__(self):
        return "BandWord(%s)" % " ".join(map(_letter_str, self.letters))


# ---------------------------------------------------------------------------
# quiver representations

class QuiverRep:
    """Finite-dimensional representation: one matrix per arrow.

    The matrix of an arrow maps the source vertex space to the target
    vertex space, acting on column vectors.
    """

    __slots__ = ("quiver", "spec", "vertex_dims", "arrow_mats")

    def __init__(self, quiver, spec, vertex_dims, arrow_mats):
        self.quiver = quiver
        self.spec = spec
        self.vertex_dims = dict(vertex_dims)
        self.arrow_mats = dict(arrow_mats)

    @property
    def total_dim(self):
        return sum(self.vertex_dims.values())

    def validate(self):
        for name, mat in self.arrow_mats.items():
            s, d = self.quiver.arrows[name]
            want = (self.vertex_dims[d], self.vertex_dims[s])
            if mat.shape != want:
                raise ValueError(
                    f"relation violation: {name} has shape {mat.shape}, "
                    f"expected {want}")
        for f, (fs, _) in self.quiver.arrows.items():
            for g, (_, gd) in self.quiver.arrows.items():
                if fs != gd:
                    continue
                if not (self.arrow_mats[f] @ self.arrow_mats[g]).is_zero():
                    raise ValueError(
                        f"relation violation: {f}.{g} acts nonzero")

    def to_json(self):
        return {
            "quiver": self.quiver.name,
            "vertex_dims": {str(v): self.vertex_dims[v]
                            for v in self.quiver.vertices},
            "arrows": {name: mat.to_mask_rows()
                       for name, mat in sorted(self.arrow_mats.items())},
        }


def string_module_matrices(spec, w):
    """The string module of w as a quiver representation."""
    l = len(w)
    verts = [w.basis_vertex(j) for j in range(l + 1)]
    vdims = {v: 0 for v in w.quiver.vertices}
    vidx = []
    for v in verts:
        vidx.append(vdims[v])
        vdims[v] += 1
    arrs = {name: np.zeros((vdims[d], vdims[s]), dtype=np.int64)
            for name, (s, d) in w.quiver.arrows.items()}
    for t, (name, direct) in enumerate(w.letters):
        if direct:
            arrs[name][vidx[t], vidx[t + 1]] = 1
        else:
            arrs[name][vidx[t + 1], vidx[t]] = 1
    mats = {name: Matrix(spec, a) for name, a in arrs.items()}
    return QuiverRep(w.quiver, spec, vdims, mats)


def band_module_matrices(spec, w, n, mu):
    """The band module of w with n x n blocks and Jordan parameter mu."""
    if not isinstance(mu, FieldElement) or not mu:
        raise ValueError("invalid band: parameter must be a nonzero "
                         "field element")
    if n < 1:
        raise ValueError("invalid band: block size must be positive")
    l = len(w)
    vblocks = {v: [] for v in w.quiver.vertices}
    border = []
    for t in range(l):
        v = w.block_vertex(t)
        border.append(len(vblocks[v]))
        vblocks[v].append(t)
    vdims = {v: n * len(blocks) for v, blocks in vblocks.items()}
    arrs = {name: np.zeros((vdims[d], vdims[s]), dtype=np.int64)
            for name, (s, d) in w.quiver.arrows.items()}
    J = jordan_block(spec, n, mu).a
    I = np.eye(n, dtype=np.int64)
    for t, (name, direct) in enumerate(w.letters):
        if t == 0:
            p, q, blk = 0, 1 % l, J
        elif direct:
            p, q, blk = (t, t + 1, I) if t < l - 1 else (l - 1, 0, I)
        else:
            p, q, blk = (t + 1, t, I) if t < l - 1 else (0, l - 1, I)
        arr = arrs[name]
        r0 = n * border[p]
        c0 = n * border[q]
        arr[r0:r0 + n, c0:c0 + n] = blk
    mats = {name: Matrix(spec, a) for name, a in arrs.items()}
    return QuiverRep(w.quiver, spec, vdims, mats)


# ---------------------------------------------------------------------------
# group representations

class GroupRep:
    """Matrices of the group generators, acting on column vectors.

    group is "H" (generators sigma, tau) or "G" (sigma, tau, rho).  It
    holds the matrices only: validate_group_rep checks them on each call.
    """

    __slots__ = ("group", "spec", "sigma", "tau", "rho")

    def __init__(self, group, spec, sigma, tau, rho=None):
        assert group in ("H", "G")
        assert (rho is None) == (group == "H")
        self.group = group
        self.spec = spec
        self.sigma = sigma
        self.tau = tau
        self.rho = rho

    @property
    def dim(self):
        return self.sigma.rows

    def generators(self):
        out = {"sigma": self.sigma, "tau": self.tau}
        if self.rho is not None:
            out["rho"] = self.rho
        return out

    def to_json(self):
        out = {"group": self.group, "dim": self.dim,
               "sigma": self.sigma.to_mask_rows(),
               "tau": self.tau.to_mask_rows()}
        if self.rho is not None:
            out["rho"] = self.rho.to_mask_rows()
        return out

    def __repr__(self):
        return f"GroupRep({self.group}, dim={self.dim})"


def validate_group_rep(rep):
    """Check the defining relations, naming the first one that fails.  Over G
    they are the presentation <s, r | s^2 = r^3 = (sr)^3 = 1> of A4
    (Coxeter and Moser) and rho sigma rho^-1 = tau, which imply tau^2 = 1
    and sigma tau = tau sigma: 8 products, and 4 over H."""
    def check(holds, name):
        if not holds:
            raise ValueError(f"relation violation: {name}")

    I = Matrix.identity(rep.spec, rep.dim)
    s, t = rep.sigma, rep.tau
    check(s @ s == I, "sigma^2 != 1")
    if rep.group == "H":
        check(t @ t == I, "tau^2 != 1")
        check(s @ t == t @ s, "sigma tau != tau sigma")
    else:
        r = rep.rho
        rr = r @ r
        check(rr @ r == I, "rho^3 != 1")
        check(r @ s @ rr == t, "rho sigma rho^-1 != tau")
        sr = s @ r
        check(sr @ sr @ sr == I, "(sigma rho)^3 != 1")


def _ab_from_cd(spec, C, D):
    """A and B from the letters C and D of a representation whose quiver
    relations hold, where the terms zeta^2 CD vanish."""
    z = spec.zeta()
    return (C + D).scale(z), C.scale(z * z) + D


def _klein_group(rep):
    spec = rep.spec
    I = Matrix.identity(spec, rep.total_dim)
    return GroupRep("H", spec, I + rep.arrow_mats["A"],
                    I + rep.arrow_mats["B"])


def _kg_group(rep):
    spec = rep.spec
    z = spec.zeta()
    dims = [rep.vertex_dims[v] for v in (0, 1, 2)]
    gblocks = {}
    dblocks = {}
    for name, (s, d) in A4_QUIVER.arrows.items():
        (gblocks if name.startswith("g") else dblocks)[(d, s)] = \
            rep.arrow_mats[name]
    C = Matrix.assemble(spec, dims, dims, gblocks)
    D = Matrix.assemble(spec, dims, dims, dblocks)
    rho = Matrix.assemble(spec, dims, dims, {
        (i, i): Matrix.scalar(spec, dims[i], z ** i) for i in range(3)})
    A, B = _ab_from_cd(spec, C, D)
    I = Matrix.identity(spec, rep.total_dim)
    return GroupRep("G", spec, I + A, I + B, rho)


def klein_group_matrices(rep):
    """GroupRep of H from a Klein four quiver representation; the group
    relations follow from the quiver relations rep.validate checks."""
    rep.validate()
    return _klein_group(rep)


def kG_group_matrices(rep):
    """GroupRep of G from an A4 quiver representation.

    Basis order: vertex 0 block, then vertex 1, then vertex 2; rho acts
    as zeta^i on the vertex-i block.  The group relations follow from the
    quiver relations rep.validate checks.
    """
    if rep.quiver is not A4_QUIVER:
        raise ValueError("expected an A4 quiver representation")
    rep.validate()
    return _kg_group(rep)


def restrict_to_h(grep):
    """Forget rho: the H-representation on the same sigma and tau."""
    assert grep.group == "G"
    return GroupRep("H", grep.spec, grep.sigma, grep.tau)


# ---------------------------------------------------------------------------
# canonical words for the labels
#
# The words are the one record of which vertices hold a label's top and
# radical: the models are built from them, and the oracle's vertex
# profile reads them back.

_DELTA = ("d01", "d12", "d20")   # _DELTA[p] lowers p+1 -> p
_GAMMA = ("g02", "g10", "g21")   # _GAMMA[p] raises p-1 -> p


def _a4_zigzag(i, count, step, even, odd):
    """count letters even(v), odd(v), even(v + step), odd(v + step), ...
    from v = i, vertex indices mod 3."""
    return tuple((odd if t % 2 else even)((i + step * (t // 2)) % 3)
                 for t in range(count))


A4_BAND = BandWord(A4_QUIVER, "d01 ~g21 d20 ~g10 d12 ~g02")
KLEIN_BAND_AB = BandWord(KLEIN_AB, "B ~A")


def kh_label_word(label):
    """The walk of a Klein four label; None when it is a band."""
    if label.kind == "Triv":
        return StringWord(KLEIN_AB, (), base_vertex=0)
    if label.kind == "String":
        n = (label.dim - 1) // 2
        letters = ((rev("B"), fwd("A")) * n if label.x == 1
                   else (fwd("A"), rev("B")) * n)
        return StringWord(KLEIN_AB, letters)
    n = label.dim // 2
    if label.param is INF:
        letters = (rev("B"), fwd("A")) * (n - 1) + (rev("B"),)
    elif not label.param:
        letters = (rev("A"), fwd("B")) * (n - 1) + (rev("A"),)
    else:
        return None
    return StringWord(KLEIN_AB, letters)


def kg_label_word(label):
    """The walk of an A4 label; None when it is a band."""
    if label.kind == "Simple":
        return StringWord(A4_QUIVER, (), base_vertex=label.i)
    if label.kind == "Band":
        return None
    count = label.dim - 1
    if label.kind == "OddString" and label.x == 2:
        # gamma delta^-1 gamma delta^-1 ... starting at vertex i
        letters = _a4_zigzag(label.i, count, 1, lambda v: fwd(_GAMMA[v]),
                             lambda v: rev(_DELTA[(v + 1) % 3]))
    elif label.kind == "EvenString" and label.param is not INF:
        # gamma^-1 delta gamma^-1 delta ... descending from vertex i
        letters = _a4_zigzag(label.i, count, -1, lambda v: rev(_GAMMA[v]),
                             lambda v: fwd(_DELTA[v]))
    else:
        # delta^-1 gamma delta^-1 gamma ... starting at vertex i
        letters = _a4_zigzag(label.i, count, 1, lambda v: rev(_DELTA[v]),
                             lambda v: fwd(_GAMMA[v]))
    return StringWord(A4_QUIVER, letters)


def kh_quiver_rep(spec, label):
    """Matrices of a Klein four label over the two-loop quiver."""
    w = kh_label_word(label)
    if w is not None:
        return string_module_matrices(spec, w)
    return band_module_matrices(spec, KLEIN_BAND_AB, label.dim // 2,
                                label.param)


def kg_quiver_rep(spec, label):
    """Matrices of an A4 label over the three-vertex quiver."""
    w = kg_label_word(label)
    if w is not None:
        return string_module_matrices(spec, w)
    return band_module_matrices(spec, A4_BAND, label.dim // 6, label.param)


def kh_group_rep(spec, label):
    """The H model of a label; its word fixes the quiver relations, and
    validate_group_rep checks the group ones."""
    return _klein_group(kh_quiver_rep(spec, label))


def kg_group_rep(spec, label):
    """The G model of a label, built as kh_group_rep's."""
    return _kg_group(kg_quiver_rep(spec, label))


# ---------------------------------------------------------------------------
# enumeration, parsing, dumps

# a listing has 2^m + 1 tube labels per even dimension over H and
# 2^m - 1 band labels per multiple of 6 over G, and zoo builds and checks
# a model for each: a side with more labels than this is refused
ZOO_LABEL_CAP = 1 << 14

# building and checking a model costs about dim^3: a side whose labels'
# dim^3 sum past this is refused too, and so is a dump of one label past
# it.  On a 2-core x86 machine the kG listing at m = 2, dim <= 390 (sum
# 3.79e10) took 11.5-12.6 s and the kH one at dim <= 400 (2.26e10) 4.0 s,
# so the budget holds a side to about 13 s
ZOO_DIM3_BUDGET = 4 * 10 ** 10


def zoo_label_count(spec, max_dim, side):
    """The number of labels zoo_labels lists, without listing them."""
    one = 1 if max_dim >= 1 else 0        # dim 1
    odd = max(0, (max_dim - 1) // 2)      # dims 3, 5, .., max_dim
    even = max(0, max_dim // 2)           # dims 2, 4, .., max_dim
    if side == "kH":
        return one + 2 * odd + even * (spec.order + 1)
    if side == "kG":
        return (3 * one + 6 * odd + 6 * even
                + max(0, max_dim // 6) * (spec.order - 1))
    raise ValueError("side must be 'kH' or 'kG'")


def zoo_dim3_sum(spec, max_dim, side):
    """The sum of dim^3 over the labels zoo_labels lists."""
    one, odd, even, bands = ((1, 2, spec.order + 1, 0) if side == "kH"
                             else (3, 6, 6, spec.order - 1))
    total = one if max_dim >= 1 else 0
    for dim in range(2, max_dim + 1):
        total += dim ** 3 * ((odd if dim % 2 else even)
                             + (0 if dim % 6 else bands))
    return total


def zoo_labels(spec, max_dim, side):
    """Every label of the given side with dim <= max_dim.

    Parameter families run over the whole working field, so the count
    grows with the field order; a listing of more than ZOO_LABEL_CAP
    labels, or whose dimensions' cubes sum past ZOO_DIM3_BUDGET, is
    refused before the first label.
    """
    count = zoo_label_count(spec, max_dim, side)
    if count > ZOO_LABEL_CAP:
        raise ValueError(
            f"unsupported configuration: {count} {side} labels with "
            f"dim <= {max_dim} over GF(2^{spec.m}), more than "
            f"{ZOO_LABEL_CAP}")
    cubes = zoo_dim3_sum(spec, max_dim, side)
    if cubes > ZOO_DIM3_BUDGET:
        raise ValueError(
            f"unsupported configuration: {count} {side} labels with "
            f"dim <= {max_dim} over GF(2^{spec.m}) sum to {cubes} in "
            f"dim^3, more than {ZOO_DIM3_BUDGET}")
    if side == "kH":
        if max_dim >= 1:
            yield KHLabel.triv()
        for dim in range(3, max_dim + 1, 2):
            yield KHLabel.string(dim, 1)
            yield KHLabel.string(dim, 2)
        for dim in range(2, max_dim + 1, 2):
            yield KHLabel.even(dim, INF)
            for lam in all_elements(spec):
                yield KHLabel.even(dim, lam)
    else:
        if max_dim >= 1:
            for i in range(3):
                yield KGLabel.simple(i)
        for dim in range(3, max_dim + 1, 2):
            for x in (1, 2):
                for i in range(3):
                    yield KGLabel.odd(dim, x, i)
        for dim in range(2, max_dim + 1, 2):
            for star in (0, INF):
                for i in range(3):
                    yield KGLabel.even(dim, star, i)
        for dim in range(6, max_dim + 1, 6):
            for mu in all_elements(spec):
                if mu:
                    yield KGLabel.band(dim, mu)


def _label_dim(text, least, step):
    """A label's dimension, one of least, least + step, ..."""
    dim = int(text)
    if dim < least or (dim - least) % step:
        raise ValueError(f"dimension {dim} is not one of {least}, "
                         f"{least + step}, {least + 2 * step}, ...")
    return dim


def _band_param(spec, text):
    mu = spec.element(int(text))
    if not mu:
        raise ValueError("band parameter must be nonzero")
    return mu


_LABEL_RES = (
    (re.compile(r"^Triv$"),
     lambda spec, m: KHLabel.triv()),
    (re.compile(r"^M\[2n\+1=(\d+),x=([12])\]$"),
     lambda spec, m: KHLabel.string(_label_dim(m[1], 3, 2), int(m[2]))),
    (re.compile(r"^N\[2n=(\d+),lambda=(inf|\d+)\]$"),
     lambda spec, m: KHLabel.even(
         _label_dim(m[1], 2, 2),
         INF if m[2] == "inf" else spec.element(int(m[2])))),
    (re.compile(r"^S\[i=([012])\]$"),
     lambda spec, m: KGLabel.simple(int(m[1]))),
    (re.compile(r"^M\[2n\+1=(\d+),x=([12]),i=([012])\]$"),
     lambda spec, m: KGLabel.odd(_label_dim(m[1], 3, 2), int(m[2]),
                                 int(m[3]))),
    (re.compile(r"^N\[2n=(\d+),\*=(inf|0),i=([012])\]$"),
     lambda spec, m: KGLabel.even(
         _label_dim(m[1], 2, 2), INF if m[2] == "inf" else 0, int(m[3]))),
    (re.compile(r"^B\[6n=(\d+),mu=(\d+)\]$"),
     lambda spec, m: KGLabel.band(_label_dim(m[1], 6, 6),
                                  _band_param(spec, m[2]))),
)


def parse_label(spec, text):
    """Inverse of label_str, for the command line; raises ValueError on
    text that names no label."""
    text = text.strip()
    for pat, make in _LABEL_RES:
        m = pat.match(text)
        if m:
            try:
                return make(spec, m)
            except ValueError as err:
                raise ValueError(f"invalid label {text!r}: {err}") from None
    raise ValueError(f"unrecognized label {text!r}")


def zoo_dump(spec, label):
    """JSON description of one label: dims plus all the matrices.  A
    label whose dim^3 exceeds ZOO_DIM3_BUDGET is refused before its model
    is built, as a listing of that label alone would be."""
    cubes = label.dim ** 3
    if cubes > ZOO_DIM3_BUDGET:
        raise ValueError(
            f"unsupported configuration: {label.label_str()} has dim "
            f"{label.dim}, {cubes} in dim^3, more than {ZOO_DIM3_BUDGET}")
    if isinstance(label, KHLabel):
        qrep = kh_quiver_rep(spec, label)
        grep = _klein_group(qrep)
        side = "kH"
    else:
        qrep = kg_quiver_rep(spec, label)
        grep = _kg_group(qrep)
        side = "kG"
    out = {"label": label.label_str(), "side": side, "dim": grep.dim,
           "field": spec.to_json(), "quiver": qrep.to_json(),
           "generators": grep.to_json()}
    return out
