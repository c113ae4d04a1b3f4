"""Independent verification engine for module decompositions.

Hom counting on labels, and one way to take a representation apart
(the dense hom dimension that tests check both against solves the
intertwiner equations, and lives with the tests):

* ``hom_labels`` evaluates hom dimensions on labels.  Klein four pairs
  reduce to a Kronecker pencil table, string pairs over either algebra
  to counting admissible word pairs, and bands to the induction
  adjunction with the Klein four subgroup (induction and coinduction
  agree here, so the reduction works on either argument).
* ``decompose_rep`` splits a representation into the connected
  coordinate blocks of its generators' nonzeros, found from them alone,
  and reads the summand multiset of one copy of each distinct
  block off the Wong sequences of its radical pencil.  What it checks
  against the matrices: that the blocks hold every nonzero, and per pack
  of distinct blocks the group relations, rad^2 = 0 (one product AB),
  the extraction's own bookkeeping (the Wong counts are nonnegative),
  one vertex profile on both sides (the tops and radicals of the named
  summands, read off their zoo words, fill the pencil's top and radical
  at every vertex) and two hom counts Hom(X, M) from the fixed space
  ker [sigma + 1; tau + 1] (or, for N_{2,0}, from ker(tau + 1)),
  against the counts ``hom_labels`` predicts from the pack's multiset;
  then the total dimension of the sum over packs and copies.

The radical is a col_basis, the identity at its pivot rows: the unit
vectors at the other rows span a top, and the coordinates of a vector in
the radical are its entries at the pivot rows, checked by one product.

The summands of a module with rad^2 = 0 are the Kronecker blocks of the
pencil its radical maps form from the top to the radical, graded over A4
by the rho eigenvalue.  One front end, ``_radical_pencil``, builds that
pencil from the group matrices on both sides, and one routine,
``_kronecker``, takes it apart.
It reads the strings and the tubes at infinity off the dimensions of the
pencil's Wong sequences, vertex by vertex.  The finite regular part is
one small matrix N: its kernel chain gives the tubes at 0, and its
nonzero eigenvalues in the field, the roots of a characteristic
polynomial taken by Hessenberg reduction, give the other tube and band
parameters.  The pencil is never evaluated at a field element, so the
size of the field does not matter.  A parameter outside the field shows
as part of N that no eigenvalue in the field explains, or as a band
parameter with no cube root in the field.

All arithmetic is exact; nothing is randomized.
"""

import numpy as np

from ._linalg import (Matrix, _inv_mask, _mul_arrays, col_basis,
                      coords_at_pivots, coords_in_basis, hstack,
                      preimage_space, vstack)
from .ramification import INF
from .ratlaurent import Poly, field_roots
from .decomp import Decomposition, KHLabel, KGLabel, restrict_decomposition
from .modulezoo import (StringWord, kg_label_word, kh_label_word,
                        validate_group_rep)
from ._blocks import packs

__all__ = [
    "Matrix",
    "MultiplicitySolution",
    "decompose_rep",
    "hom_labels",
    "string_pair_homs",
]


# ---------------------------------------------------------------------------
# hom dimensions between string modules, by admissible pairs
#
# A basis of Hom(M(w), M(v)) is indexed by pairs (factor substring of
# w, isomorphic substring of v appearing as a submodule), the
# isomorphism taken letter by letter either directly or against the
# reversed-inverted word.  Position p of a word can open or close a
# segment depending on which way its neighbouring letters point:
# a direct letter t acts b_{t+1} -> b_t, so the letter left of a
# factor must be direct (it exits the segment) and the letter right
# of it inverse; submodule segments want the opposite.

def _boundary_flags(w):
    ws = w.letters
    l = len(ws)
    fac_l = [i == 0 or ws[i - 1][1] for i in range(l + 1)]
    fac_r = [j == l or not ws[j][1] for j in range(l + 1)]
    sub_l = [i == 0 or not ws[i - 1][1] for i in range(l + 1)]
    sub_r = [j == l or ws[j][1] for j in range(l + 1)]
    return fac_l, fac_r, sub_l, sub_r


def _reversed_word(w):
    if not w.letters:
        return w
    flipped = tuple((name, not direct) for name, direct in reversed(w.letters))
    return StringWord(w.quiver, flipped)


def _segment_pairs(w, v):
    """Matching factor/sub segment pairs of length >= 1."""
    ws, vs = w.letters, v.letters
    lw, lv = len(ws), len(vs)
    if not lw or not lv:
        return 0
    fac_l, fac_r, _, _ = _boundary_flags(w)
    _, _, sub_l, sub_r = _boundary_flags(v)
    total = 0
    for o in range(1 - lw, lv):
        lo = max(0, -o)
        hi = min(lw, lv - o)
        t = lo
        while t < hi:
            if ws[t] != vs[t + o]:
                t += 1
                continue
            s = t
            while t < hi and ws[t] == vs[t + o]:
                t += 1
            # segments i..j live inside the matching run [s, t)
            width = t - s
            suffix = [0] * (width + 2)
            for idx in range(width, -1, -1):
                j = s + idx
                ok = fac_r[j] and sub_r[j + o]
                suffix[idx] = suffix[idx + 1] + (1 if ok else 0)
            for idx in range(width):
                i = s + idx
                if fac_l[i] and sub_l[i + o]:
                    total += suffix[idx + 1]
    return total


def _point_slots(w, as_sub):
    """Positions that carry a length-zero segment, counted per vertex."""
    fac_l, fac_r, sub_l, sub_r = _boundary_flags(w)
    left, right = (sub_l, sub_r) if as_sub else (fac_l, fac_r)
    out = {}
    for p in range(len(w.letters) + 1):
        if left[p] and right[p]:
            v = w.basis_vertex(p)
            out[v] = out.get(v, 0) + 1
    return out


def string_pair_homs(w, v):
    """dim Hom(M(w), M(v)) by counting admissible segment pairs."""
    if w.quiver is not v.quiver:
        raise ValueError("string words live on different quivers")
    points_w = _point_slots(w, as_sub=False)
    points_v = _point_slots(v, as_sub=True)
    total = sum(c * points_v.get(vx, 0) for vx, c in points_w.items())
    total += _segment_pairs(w, v)
    total += _segment_pairs(w, _reversed_word(v))
    return total


# ---------------------------------------------------------------------------
# hom dimensions between labels
#
# Over the Klein four algebra every module is determined by the pencil
# (A, B): top -> rad, and Hom(X, Y) = top(X) rad(Y) + Hom of the
# pencils (the first term counts maps landing in the radical with no
# compatibility constraint).  The pencil homs follow the Kronecker
# classification: preinjectives Q_n (odd strings with x = 1, plus the
# trivial module as Q_0), preprojectives P_n (x = 2) and tubes R_n at
# a point of the projective line (the even-dimensional family).

def _tube_key(param):
    if param is INF:
        return "inf"
    if not param:
        return 0
    return param.mask


def _kh_shape(label):
    if label.kind == "Triv":
        return 1, 0, ("Q", 0)
    n = label.dim // 2
    if label.kind == "String":
        if label.x == 1:
            return n + 1, n, ("Q", n)
        return n, n + 1, ("P", n)
    return n, n, ("R", n, _tube_key(label.param))


def _kron_hom(cx, cy):
    kx, ky = cx[0], cy[0]
    if kx == "Q":
        return max(0, cx[1] - cy[1] + 1) if ky == "Q" else 0
    if kx == "P":
        if ky == "P":
            return max(0, cy[1] - cx[1] + 1)
        if ky == "Q":
            return cx[1] + cy[1]
        return cy[1]
    if ky == "Q":
        return cx[1]
    if ky == "P":
        return 0
    return min(cx[1], cy[1]) if cx[2] == cy[2] else 0


def _hom_kh_shapes(sx, sy):
    return sx[0] * sy[1] + _kron_hom(sx[2], sy[2])


def _band_shadow(n):
    # a tube whose parameter matches nothing rational: the Klein four
    # restriction partner of a band, used through the adjunction only.
    return n, n, ("R", n, ("band",))


def hom_labels(spec, a, b):
    """dim Hom between the modules named by two labels of one side."""
    a_h = isinstance(a, KHLabel)
    if a_h != isinstance(b, KHLabel):
        raise ValueError("hom_labels needs two labels of one inventory")
    if a_h:
        return _hom_kh_shapes(_kh_shape(a), _kh_shape(b))
    a_band = a.kind == "Band"
    b_band = b.kind == "Band"
    if a_band and b_band:
        n, n2 = a.dim // 6, b.dim // 6
        extra = min(n, n2) if a.param == b.param else 0
        return 3 * n * n2 + extra
    if a_band:
        shadow = _band_shadow(a.dim // 6)
        parts = restrict_decomposition(
            Decomposition("kG", [(b, 1)], spec=spec))
        return sum(m * _hom_kh_shapes(shadow, _kh_shape(lab))
                   for lab, m in parts.entries.items())
    if b_band:
        shadow = _band_shadow(b.dim // 6)
        parts = restrict_decomposition(
            Decomposition("kG", [(a, 1)], spec=spec))
        return sum(m * _hom_kh_shapes(_kh_shape(lab), shadow)
                   for lab, m in parts.entries.items())
    return string_pair_homs(kg_label_word(a), kg_label_word(b))


# ---------------------------------------------------------------------------
# structural extraction
#
# A representation with vanishing rad^2 is the Kronecker pencil of its
# two radical maps from the top (a complement of the radical) to the
# radical, built for both groups by _radical_pencil.  Over H that is
# P = B, Q = A on one vertex.  Over G the rho eigenvalue grades it by
# Z/3: P = D = A + zeta^2 B maps T_v to R_{v-1} and Q = C = zeta A +
# zeta^2 B maps T_v to R_{v+1}.  Either way P[v] and Q[v + 1] share a
# codomain, vertices taken mod g, and _kronecker reads the summands off
# the Wong sequences of the pencil (Wong 1974; Berger, Ilchmann and
# Trenn 2012), vertex by vertex:
#
#   V_0 = T, V_{j+1}[v] = P[v]^-1(Q[v+1] V_j[v+1]), falling to V*;
#   W_0 = 0, W_{j+1}[v] = Q[v]^-1(P[v-1] W_j[v-1]), rising to W*.
#
# Both respect direct sums, so each summand contributes its own:
#
#   right strings (Triv, S_v, M_{2n+1,1,i}) lie in V* and in W*, and
#     W_j holds the first j vectors of each;
#   tubes at infinity (Q singular, N_{2n,inf,i}) lie in W* but meet V*
#     in 0, and W_j holds the first j vectors of each;
#   left strings (M_{2n+1,2,i}) and the tubes at infinity leave V_j
#     one vector a step, the last vector of each chain first;
#   the finite regular part (the other tubes, the bands) lies in V*.
#
# The j-th vector of a chain sits one vertex further along than the
# (j-1)-th, up for W_j and down for V_j, so the second differences of
# these dimensions, taken along that shift, count the chains of each
# length and vertex.  On a complement Y of V* cap W* in V*, P Y = Q Y N
# modulo Q W* for one N, which maps Y[v] to Y[v + 1] and has the Jordan
# form of the finite regular part: the kernel chain of N gives the tubes
# at 0, the nonzero eigenvalues of N^g on vertex 0 the other parameters.

_OUTSIDE = ("unsupported configuration: band parameter outside "
            "the working field scan")


class _StructureError(Exception):
    def __init__(self, msg, proven=False):
        super().__init__(msg)
        self.proven = proven


def _complement(rows, d):
    """The coordinate vectors at the rows of a d-space other than the
    pivot rows of a col_basis: they extend it to the whole space, since
    the basis is the identity at its pivot rows.  Returned as indices,
    so a map on them is a column selection."""
    free = np.ones(d, dtype=bool)
    free[rows] = False
    return np.flatnonzero(free)


def _charpoly(N):
    """det(x I + N) of a square matrix, as a monic Poly.

    Hessenberg reduction by elementary similarities (Cohen, Alg. 2.2.9),
    each step clearing one column below the subdiagonal in all rows at
    once, then the usual recurrence for the leading principal minors
    p_k of x I + H, one step per k; in characteristic 2 it has no signs.
    """
    spec = N.spec
    n = N.rows
    H = N.a.copy()
    for j in range(n - 2):
        hit = np.flatnonzero(H[j + 1:, j])
        if hit.size == 0:
            continue
        i = j + 1 + int(hit[0])
        if i != j + 1:
            H[[i, j + 1]] = H[[j + 1, i]]
            H[:, [i, j + 1]] = H[:, [j + 1, i]]
        rows = j + 2 + np.flatnonzero(H[j + 2:, j])
        if rows.size == 0:
            continue
        # E H E^-1 with E = I + sum_r u_r e_r e_{j+1}^T, its own inverse
        u = _mul_arrays(spec, H[rows, j],
                        np.int64(_inv_mask(spec, int(H[j + 1, j]))))
        H[rows, j:] ^= _mul_arrays(spec, u[:, None], H[j + 1, j:])
        H[:, j + 1] ^= np.bitwise_xor.reduce(
            _mul_arrays(spec, H[:, rows], u), axis=1)
    # P[k] holds p_k, lowest coefficient first; p_k = (x + h_kk) p_{k-1}
    # + sum_{i<k} h_ik (h_{i+1,i} ... h_{k,k-1}) p_{i-1}, 1-indexed.
    P = np.zeros((n + 1, n + 1), dtype=np.int64)
    P[0, 0] = 1
    sub = np.zeros(0, dtype=np.int64)   # the subdiagonal products
    for k in range(1, n + 1):
        prev = P[k - 1, :k]
        P[k, 1:k + 1] = prev
        P[k, :k] ^= _mul_arrays(spec, H[k - 1, k - 1], prev)
        if k > 1:
            sub = _mul_arrays(spec, np.append(sub, 1), H[k - 1, k - 2])
            c = _mul_arrays(spec, H[:k - 1, k - 1], sub)
            P[k, :k - 1] ^= np.bitwise_xor.reduce(
                _mul_arrays(spec, c[:, None], P[:k - 1, :k - 1]), axis=0)
    return Poly(spec, P[n].tolist())


def _wong(F, G, shift, S):
    """Yields S, then S_{j+1}[v] = F[v]^-1(G[v + shift] S_j[v + shift])
    at every vertex v, until the sequence stops changing; the last value
    yielded is its limit.  The sequence is monotone, so equal dimensions
    mean equal subspaces."""
    g = len(F)
    while True:
        yield S
        nxt = [preimage_space(F[v], G[(v + shift) % g] @ S[(v + shift) % g])
               for v in range(g)]
        if sum(x.cols for x in nxt) == sum(x.cols for x in S):
            return
        S = nxt


def _chains(flag, shift):
    """{(n, a): count} of the chains of vectors behind a rising flag.

    flag[j][u] is a dimension at vertex u after j steps.  A chain of
    length n from vertex a adds its (j+1)-th vector at vertex
    a + shift j on step j + 1, for j < n.  So the first differences,
    read along the shift, count the chains longer than j, and the
    second differences the chains of each length.
    """
    g = len(flag[0])
    inc = [[b - a for a, b in zip(lo, hi)] for lo, hi in zip(flag, flag[1:])]
    inc.append([0] * g)
    out = {}
    for n in range(1, len(inc)):
        for a in range(g):
            c = (inc[n - 1][(a + shift * (n - 1)) % g]
                 - inc[n][(a + shift * n) % g])
            if c < 0:
                raise _StructureError("Wong dimension differences increase")
            if c:
                out[(n, a)] = c
    return out


def _kernel_chains(N):
    """_chains of the kernels of the powers of a graded map, by the vertex
    where each Jordan chain ends; N[v] maps vertex v to vertex v + 1."""
    g = len(N)
    power = [Matrix.identity(n.spec, n.cols) for n in N]
    flag = [[0] * g]
    while True:
        k = len(flag) - 1
        power = [N[(u + k) % g] @ power[u] for u in range(g)]
        dims = [p.cols - p.rank() for p in power]
        if sum(dims) == sum(flag[-1]):
            return _chains(flag, -1)
        flag.append(dims)


def _kronecker(P, Q):
    """Summand data of a Z/g-graded pencil, g = len(P).

    P[v] and Q[v] act on the top space at vertex v; P[v] and Q[v + 1]
    share a codomain.  Returns (right, left, inf, zero, finite).  The
    first four map (length, vertex) to a count: the right strings and
    the tubes at infinity by the vertex of their vector in W_1, the left
    strings by the vertex of their vector that leaves V_1, the tubes at
    0 by the vertex where their chain under N ends.  finite
    maps each nonzero eigenvalue mu of N^g on vertex 0 to the {size:
    count} of its Jordan blocks.  Raises ValueError when the eigenvalues
    in the field leave part of N^g unexplained.
    """
    spec = P[0].spec
    g = len(P)
    tops = [p.cols for p in P]
    codims = []
    for V in _wong(P, Q, 1, [Matrix.identity(spec, t) for t in tops]):
        codims.append([t - x.cols for t, x in zip(tops, V)])
    inW, both = [], []
    for W in _wong(Q, P, -1, [Matrix.zeros(spec, t, 0) for t in tops]):
        # the pivots among V's columns extend W to W + V*
        ext = [[p - w.cols for p in hstack([w, x]).rref()[1] if p >= w.cols]
               for w, x in zip(W, V)]
        inW.append([w.cols for w in W])
        both.append([x.cols - len(e) for x, e in zip(V, ext)])
    right = _chains(both, 1)
    inf = _chains([[w - b for w, b in zip(wr, br)]
                   for wr, br in zip(inW, both)], 1)
    left = _chains(codims, -1)
    # a tube at infinity of length n from vertex a falls out of V_j too,
    # as a chain from vertex a + n - 1
    for (n, a), c in inf.items():
        key = (n, (a + n - 1) % g)
        left[key] = left.get(key, 0) - c
        if left[key] < 0:
            raise _StructureError("left strings and tubes at infinity "
                                  "disagree")
        if not left[key]:
            del left[key]

    Y = [Matrix(spec, x.a[:, e]) for x, e in zip(V, ext)]
    N = []
    for v in range(g):
        u = (v + 1) % g
        X = coords_in_basis(hstack([Q[u] @ Y[u], Q[u] @ W[u]]), P[v] @ Y[v])
        N.append(Matrix(spec, X.a[:Y[u].cols]))
    zero = _kernel_chains(N)
    cycle = Matrix.identity(spec, Y[0].cols)
    for v in range(g):
        cycle = N[v] @ cycle
    # a chain of N ending at vertex e has one vector at each of
    # e, e - 1, ..., e - n + 1
    filled = sum(c for (n, e), c in zero.items()
                 for t in range(n) if (e - t) % g == 0)
    finite = {}
    for mu in sorted(field_roots(_charpoly(cycle))):
        if mu:
            shifted = cycle + Matrix.scalar(spec, cycle.rows,
                                            spec.element(mu))
            sizes = {n: c for (n, _), c in _kernel_chains([shifted]).items()}
            finite[spec.element(mu)] = sizes
            filled += sum(n * c for n, c in sizes.items())
    if filled != cycle.rows:
        # an eigenvalue of N^g in a proper extension of the field
        raise ValueError(_OUTSIDE)
    return right, left, inf, zero, finite


def _radical_pencil(M):
    """The graded radical pencil (P, Q) of a representation, from the
    vertex spaces: the whole space over H, the rho eigenspaces over G,
    vertex i the image of 1 + zeta^-i rho + zeta^-2i rho^2.

    The group relations give A^2 = B^2 = 0 and AB = BA, hence
    C^2 = D^2 = 0 and CD = DC = zeta AB: rad^2 = 0 exactly when AB = 0,
    which is checked here and nowhere else.
    """
    spec = M.spec
    I = Matrix.identity(spec, M.dim)
    A = M.sigma + I
    B = M.tau + I
    if not (A @ B).is_zero():
        raise _StructureError("radical square acts nonzero", proven=True)
    if M.group == "H":
        P, Q = [B], [A]
    else:
        z = spec.zeta()
        rr = M.rho @ M.rho
        E = [col_basis(I + M.rho.scale(z ** (-i)) + rr.scale(z ** (-2 * i)))
             for i in range(3)]
        D = A + B.scale(z * z)
        C = A.scale(z) + B.scale(z * z)
        P = [coords_at_pivots(*E[(v - 1) % 3], D @ E[v][0]) for v in range(3)]
        Q = [coords_at_pivots(*E[(v + 1) % 3], C @ E[v][0]) for v in range(3)]
    g = len(P)
    rad = [col_basis(hstack([Q[(v - 1) % g], P[(v + 1) % g]]))
           for v in range(g)]
    top = [_complement(rows, basis.rows) for basis, rows in rad]
    return ([coords_at_pivots(*rad[(v - 1) % g],
                              Matrix(spec, P[v].a[:, top[v]]))
             for v in range(g)],
            [coords_at_pivots(*rad[(v + 1) % g],
                              Matrix(spec, Q[v].a[:, top[v]]))
             for v in range(g)])


def _summands(M, name, word):
    """Summand multiset of a representation with vanishing rad^2.

    name(kind, n, at) labels a block of _kronecker: kind is right, left,
    inf or zero, with at the vertex _kronecker reports, or finite, with
    at the eigenvalue.  word(label) is the label's zoo word, None for a
    band or a tube at a parameter other than 0 and infinity.  The words
    give each label's top and radical at every vertex: the top vectors
    are the factor points of the word and, for a nonempty word, the
    radical vectors its submodule points; a label with no word has n of
    each at every vertex, n = dim / 2g.  Their sums must be the pencil's
    top and radical dimensions, vertex by vertex.
    """
    P, Q = _radical_pencil(M)
    g = len(P)
    right, left, inf, zero, finite = _kronecker(P, Q)
    counts = {}
    for kind, found in (("right", right), ("left", left), ("inf", inf),
                        ("zero", zero)):
        for (n, at), c in found.items():
            counts[name(kind, n, at)] = c
    for mu, sizes in finite.items():
        for n, c in sizes.items():
            counts[name("finite", n, mu)] = c
    top, rad = [0] * g, [0] * g
    for lab, c in counts.items():
        w = word(lab)
        if w is None:
            t = r = dict.fromkeys(range(g), lab.dim // (2 * g))
        else:
            t = _point_slots(w, as_sub=False)
            r = _point_slots(w, as_sub=True) if w.letters else {}
        for v in range(g):
            top[v] += c * t.get(v, 0)
            rad[v] += c * r.get(v, 0)
    if (top != [p.cols for p in P]
            or rad != [P[(v + 1) % g].rows for v in range(g)]):
        raise _StructureError("vertex profile does not match the counts")
    return counts


def _klein_counts(M):
    """Summand multiset of an H-representation with vanishing rad^2."""
    zero = M.spec.zero()

    def name(kind, n, at):
        if kind == "right":
            return KHLabel.string(2 * n - 1, 1) if n > 1 else KHLabel.triv()
        if kind == "left":
            return KHLabel.string(2 * n + 1, 2)
        return KHLabel.even(2 * n, {"inf": INF, "zero": zero,
                                    "finite": at}[kind])
    return _summands(M, name, kh_label_word)


def _a4_counts(M):
    """Summand multiset of a G-representation via its graded pencil.

    A label's index i is a fixed offset from the vertex _kronecker
    reports for it, read off the vertices of the label's top; a band
    B_{6n,mu} is named by the smallest cube root of mu."""
    spec = M.spec

    def name(kind, n, at):
        if kind == "right":
            return (KGLabel.odd(2 * n - 1, 1, (at - 1) % 3) if n > 1
                    else KGLabel.simple(at))
        if kind == "left":
            return KGLabel.odd(2 * n + 1, 2, (at - n - 1) % 3)
        if kind == "inf":
            return KGLabel.even(2 * n, INF, (at - 1) % 3)
        if kind == "zero":
            return KGLabel.even(2 * n, 0, (at + 1) % 3)
        roots = field_roots(Poly(spec, (at.mask, 0, 0, 1)))
        if not roots:
            raise ValueError(_OUTSIDE)
        return KGLabel.band(6 * n, at, phi=spec.element(min(roots)))
    return _summands(M, name, kg_label_word)


# ---------------------------------------------------------------------------
# the checked result

class MultiplicitySolution:
    """Multiplicities of the summands of a representation.

    multiplicities maps labels to positive integers.  spot_hom maps the
    label string of each dense spot-check probe X to dim Hom(X, M) as
    computed from the matrices; the tube N_{2,0} is left out of a model
    below dimension 2.
    """

    __slots__ = ("multiplicities", "spot_hom")

    def __init__(self, multiplicities, spot_hom):
        self.multiplicities = dict(multiplicities)
        self.spot_hom = dict(spot_hom)

    def total_dim(self):
        return sum(lab.dim * m for lab, m in self.multiplicities.items())

    def to_json(self):
        return {
            "multiplicities": {str(lab): m for lab, m
                               in sorted(self.multiplicities.items(),
                                         key=lambda kv: kv[0].key())},
            "spot_hom": self.spot_hom,
        }

    def __repr__(self):
        inner = ", ".join(f"{lab}: {m}" for lab, m
                          in sorted(self.multiplicities.items(),
                                    key=lambda kv: kv[0].key()))
        return f"MultiplicitySolution({{{inner}}})"


def _spot_check(M, counts, probes):
    """Compare dim Hom(X, M) from the matrices against the extracted
    multiset, for each probe X; returns the counts by label string.

    Hom(k, M) is the fixed space K = ker [A; B], A = sigma + 1 and
    B = tau + 1, eliminated once.  Hom(S_i, M) is ker((rho + zeta^i) K)
    and Hom(N_{2,0}, M) is ker B.
    """
    spec = M.spec
    I = Matrix.identity(spec, M.dim)
    K = vstack([M.sigma + I, M.tau + I]).right_nullspace()
    out = {}
    for X in probes:
        if X.kind == "Triv":
            n = K.cols
        elif X.kind == "Simple":
            n = K.cols - ((M.rho + I.scale(spec.zeta() ** X.i)) @ K).rank()
        else:
            n = M.dim - (M.tau + I).rank()
        want = sum(c * hom_labels(spec, X, Y) for Y, c in counts.items())
        if n != want:
            raise RuntimeError(
                "internal extraction inconsistency: dense hom count "
                f"disagrees at {X}")
        out[str(X)] = n
    return out


def decompose_rep(M):
    """Indecomposable multiplicities of an explicit representation.

    M, a GroupRep or a _blocks.TripletRep, is split into its connected
    coordinate blocks (see _blocks.components), and each pack of distinct
    blocks (see _blocks.packs) is made dense, checked and taken apart on its
    own: its group relations, its summands read off the Wong sequences of
    its radical pencil (see _kronecker), rejected unless the Wong
    bookkeeping closes (no negative chain count, the tubes at infinity among
    the chains leaving V_j) and the vertex profile of the named summands
    fills the top and the radical at every vertex (see _summands; a label's
    vertices are written only in its zoo word), and two dense hom counts of
    the pack against its multiset (see _spot_check).  The packs' multisets
    and hom counts, times their copies, add up to M's; the dimensions must
    add up to dim M.  The probes are the two smallest labels of the side (the
    trivial module and the tube at 0 over H, the simples S_0 and S_1 over
    G); the tube is left out only when M, not a pack, is smaller.  The
    closed form is not consulted.

    Raises ValueError("unsupported configuration: ...") for a block past
    _blocks.BLOCK_DIM_CAP, ValueError("relation violation: ...") naming
    the first relation that fails on the first pack where one fails,
    ValueError("no nonnegative integer solution") with a .certificate
    attribute {reason, dim, side}, dim that of M, when the input provably
    is not a direct sum of the known families (a projective summand,
    say), and RuntimeError("internal extraction inconsistency ...")
    when a check fails.
    """
    spec = M.spec
    if M.group == "H":
        side, extract = "kH", _klein_counts
        probes = [KHLabel.triv()]
        if M.dim >= 2:
            probes.append(KHLabel.even(2, spec.zero()))
    else:
        side, extract = "kG", _a4_counts
        probes = [KGLabel.simple(0), KGLabel.simple(1)]
    counts, spot = {}, {}
    for pack, copies in packs(M):
        validate_group_rep(pack)
        try:
            found = extract(pack)
        except _StructureError as err:
            if err.proven:
                exc = ValueError("no nonnegative integer solution")
                exc.certificate = {"reason": str(err), "dim": M.dim,
                                   "side": side}
                raise exc from err
            raise RuntimeError(f"internal extraction inconsistency: {err}") \
                from err
        for X, n in _spot_check(pack, found, probes).items():
            spot[X] = spot.get(X, 0) + copies * n
        for lab, c in found.items():
            counts[lab] = counts.get(lab, 0) + copies * c
    out = MultiplicitySolution(counts, spot)
    if out.total_dim() != M.dim:
        raise RuntimeError("internal extraction inconsistency: dimensions "
                           "do not add up")
    return out
