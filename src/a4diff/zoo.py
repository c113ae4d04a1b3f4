"""Explicit matrix models for every module label, and the catalogue that
`a4diff zoo` lists and dumps.

The quivers, the words and the group representations are in
``modulezoo``; this module turns a label's word into matrices.  String
modules follow the usual recipe: basis b_1 .. b_{l+1} along the word, a
direct letter w_j acting by alpha . b_{j+1} = b_j and an inverse letter
by alpha . b_j = b_{j+1}.  Band modules replace basis vectors by blocks
of size n and put a Jordan block J_n(mu) on the first letter.

The Klein four models are sigma = 1 + A and tau = 1 + B.  Over A4, C is
the sum of the gamma arrows and D the sum of the delta arrows, and
inverting

    A = zeta C + zeta D + zeta^2 CD
    B = zeta^2 C + D + zeta^2 CD

recovers the group generators from any quiver representation, where
CD = 0 (a sum of length-two paths), so that A = zeta C + zeta D and
B = zeta^2 C + D.  rho itself acts as zeta^i on the vertex-i summand.
The models go one way only, from words to group matrices: a word's
constructor refuses every path in the ideal, so the models built from
words check no relation.  The label-level dictionary from the A4 zoo to
the Klein four one is `decomp.restrict_decomposition`; it matches the A4
band parameters with the Klein four ones by the Moebius correspondence.

No verify reads any of this, so it lives apart from ``modulezoo``,
which the verify path imports: with no cached bytecode, compiling these
lines in a verify, after numpy is loaded, raised the peak memory of the
genus-234 verify by about 0.48 MB (``modulezoo`` gives the figures).
"""

import re

import numpy as np

from ._linalg import Matrix, jordan_block
from .gf import FieldElement, all_elements
from .ramification import INF
from .decomp import KHLabel, KGLabel
from .modulezoo import (A4_QUIVER, KLEIN_AB, GroupRep, _check_pair,
                        _letter_str, kg_label_word, kh_label_word,
                        parse_letters)


# ---------------------------------------------------------------------------
# band words

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


A4_BAND = BandWord(A4_QUIVER, "d01 ~g21 d20 ~g10 d12 ~g02")
KLEIN_BAND_AB = BandWord(KLEIN_AB, "B ~A")


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
# group representations of the labels

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
