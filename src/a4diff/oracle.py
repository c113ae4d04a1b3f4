"""Independent verification engine for module decompositions.

Three ways to count homomorphisms, one way to take a representation
apart:

* ``hom_dim`` solves the intertwiner equations of two explicit
  representations by dense elimination.  Nothing about the answer is
  assumed, which makes it the anchor everything else is tested against;
  the price is a system with dim(X)*dim(Y) unknowns.
* ``hom_labels`` evaluates hom dimensions on labels.  Klein four pairs
  reduce to a Kronecker pencil table, string pairs over either algebra
  to counting admissible word pairs, and bands to the induction
  adjunction with the Klein four subgroup (induction and coinduction
  agree here, so the reduction works on either argument).
* ``decompose_rep`` reads the summand multiset of a representation off
  invariant subspace chains.  What it checks against the matrices: the
  group relations, the extraction's own bookkeeping (chain and budget
  identities), the A4 vertex profile, the total dimension, and two
  hom counts Hom(X, M), each the kernel of the cyclic probe X's
  relations on M, against the counts ``hom_labels`` predicts from the
  extracted multiset.

The parameters of the tubes over H and of the bands over A4 are where a
linear pencil P + lam Q loses rank.  They are not looked for by ranking the
pencil at every field element.  An invertible minor S0 of the pencil at one
generic reference value lam0 must turn singular at each of them, so each
is lam0 + 1/nu for an eigenvalue nu of S0^-1 Qs, with Qs the same minor of
Q.  The eigenvalues are the roots in the field of a characteristic
polynomial taken by Hessenberg reduction, and the pencil is ranked only at
those few candidates.  Both sides go through one routine, ``_Pencil``:
the reference scan, the candidates, a memoised rank at each and the
Jordan block sizes read off the kernel chain where the rank drops.

All arithmetic is exact; nothing is randomized.
"""

import itertools

import numpy as np

from ._linalg import (Matrix, _inv_mask, _mul_arrays, col_basis,
                      coords_in_basis, hstack, image_space, intersect_spaces,
                      kron, preimage_space, vstack, zero_space)
from .ramification import INF
from .ratlaurent import Poly, field_roots
from .decomp import KHLabel, KGLabel
from .modulezoo import (StringWord, a4_quiver_rep_from_group,
                        induce_restrict_label, kg_label_word, probe_hom,
                        validate_group_rep)

__all__ = [
    "Matrix",
    "MultiplicitySolution",
    "decompose_rep",
    "hom_dim",
    "hom_labels",
    "string_pair_homs",
]


def _same_field(s1, s2):
    return s1 is s2 or (s1.m == s2.m and s1.modulus == s2.modulus)


# ---------------------------------------------------------------------------
# hom dimensions between explicit representations

def hom_dim(X, Y):
    """dim Hom(X, Y) for two representations of one group.

    Sets up T g_X = g_Y T as a linear system in the entries of T and
    returns its nullity.  Exact and assumption-free, but dense: the
    system has dim(X) dim(Y) unknowns, so keep the inputs modest.
    """
    if X.group != Y.group or not _same_field(X.spec, Y.spec):
        raise ValueError("hom_dim needs representations of one group "
                         "over one field")
    gx = X.generators()
    gy = Y.generators()
    IX = Matrix.identity(X.spec, X.dim)
    IY = Matrix.identity(Y.spec, Y.dim)
    rows = [kron(IY, gx[name].transpose()) + kron(gy[name], IX)
            for name in sorted(gx)]
    return X.dim * Y.dim - vstack(rows).rank()


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
        parts = induce_restrict_label(spec, b, "restrict")
        return sum(m * _hom_kh_shapes(shadow, _kh_shape(lab))
                   for lab, m in parts.entries.items())
    if b_band:
        shadow = _band_shadow(b.dim // 6)
        parts = induce_restrict_label(spec, a, "restrict")
        return sum(m * _hom_kh_shapes(_kh_shape(lab), shadow)
                   for lab, m in parts.entries.items())
    return string_pair_homs(kg_label_word(a), kg_label_word(b))


# ---------------------------------------------------------------------------
# structural extraction
#
# Everything below reads off the summand multiset of an explicit
# representation from basis-free invariants: radical and top, kernel
# chains of the pencil at each parameter, and graded walk chains on
# the three-vertex quiver.  Each step checks the identities its counts
# must satisfy, and decompose_rep checks the total against M.

class _StructureError(Exception):
    def __init__(self, msg, proven=False):
        super().__init__(msg)
        self.proven = proven


def _ser(series, j):
    if j < 0:
        return 0
    return series[j] if j < len(series) else series[-1]


def _at(dims, j):
    # dims[i] is the dimension after i+1 steps
    if j <= 0:
        return 0
    return dims[j - 1] if j <= len(dims) else dims[-1]


def _complement(S, d):
    """Coordinate vectors extending colspace(S) to the whole space."""
    spec = S.spec
    aug = hstack([S, Matrix.identity(spec, d)])
    _, piv = aug.rref()
    extra = [p - S.cols for p in piv if p >= S.cols]
    out = np.zeros((d, len(extra)), dtype=np.int64)
    for t, c in enumerate(extra):
        out[c, t] = 1
    return Matrix(spec, out)


class _Reduced(Matrix):
    """A pencil value that row-reduces at most once, so the rank taken at
    a rank-drop parameter and the kernel chain there share one rref."""

    __slots__ = ("_rref",)

    def __init__(self, M):
        super().__init__(M.spec, M.a)
        self._rref = None

    def rref(self):
        if self._rref is None:
            self._rref = super().rref()
        return self._rref


def _chain_dims(P, Q, cap):
    """Dimensions of ker P <= P^-1(Q ker P) <= ... until stable."""
    K = P.right_nullspace()
    dims = [K.cols]
    while dims[-1] < cap:
        K = preimage_space(P, image_space(Q, K))
        if K.cols == dims[-1]:
            break
        dims.append(K.cols)
    return dims


def _scan_head(spec):
    z = spec.zeta()
    return [0, 1, z.mask, (z * z).mask]


def _scan_order(spec, skip_zero=False):
    """Field elements in scan order, lazily: 0, 1, zeta, zeta^2, then the
    other masks ascending; 0 is left out when skip_zero."""
    head = _scan_head(spec)
    rest = (x for x in range(spec.order) if x not in head)
    for mask in itertools.chain(head, rest):
        if mask or not skip_zero:
            yield spec.element(mask)


def _in_scan_order(spec, params):
    head = _scan_head(spec)
    pos = {mask: i - len(head) for i, mask in enumerate(head)}
    return sorted(params, key=lambda x: pos.get(x.mask, x.mask))


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


def _drop_candidates(P0, cols, Q, lam0):
    """Parameters lam != lam0 at which the pencil P0 + (lam + lam0) Q may
    have lower rank than P0, whose pivot columns are cols.

    S0 is an invertible minor of P0 of size rank P0 (its pivot columns,
    then the pivot rows of those columns) and Qs the same minor of Q.  At
    a rank drop every minor of that size vanishes, so S0 + mu Qs is
    singular for mu = lam + lam0, which is nonzero: 1/mu is an eigenvalue
    of N = S0^-1 Qs.  The eigenvalues in the field are all candidates; a
    candidate where the rank does not drop is spurious and costs its
    caller one rank check.
    """
    spec = P0.spec
    Pc = Matrix(spec, P0.a[:, cols])
    _, rows = Pc.transpose().rref()
    N = coords_in_basis(Matrix(spec, Pc.a[rows]),
                        Matrix(spec, Q.a[np.ix_(rows, cols)]))
    return [lam0 + spec.element(nu).inverse()
            for nu in field_roots(_charpoly(N)) if nu]


def _string_counts_from(dims):
    """Odd-string length counts from reference kernel chain diffs.

    A string whose pencil class is Q_m contributes min(j, m+1) to the
    j-th kernel chain at every parameter, so the second difference of
    the chain dimensions isolates the count of each length.
    """
    top = len(dims) + 3
    d = [0] + [_at(dims, j) - _at(dims, j - 1) for j in range(1, top)]
    out = {}
    for m in range(1, top - 2):
        cnt = d[m + 1] - d[m + 2]
        if cnt < 0:
            raise _StructureError("kernel chain diffs increase")
        if cnt:
            out[m] = cnt
    return out


def _cleaned_sizes(ch, ref):
    """Jordan block sizes at one parameter, reference chains removed."""
    top = max(len(ch), len(ref)) + 2
    clean = [0] + [_at(ch, j) - _at(ref, j) for j in range(1, top + 1)]
    if any(c < 0 for c in clean):
        raise _StructureError("cleaned chain went negative")
    deltas = [clean[j] - clean[j - 1] for j in range(1, len(clean))]
    out = {}
    for n in range(1, len(deltas) + 1):
        nxt = deltas[n] if n < len(deltas) else 0
        cnt = deltas[n - 1] - nxt
        if cnt < 0:
            raise _StructureError("cleaned chain diffs increase")
        if cnt:
            out[n] = cnt
    return out


class _Pencil:
    """The pencil P + lam Q, which is Q alone at lam = INF, and its Jordan
    blocks at the parameters where it loses rank.

    The reference scan row-reduces the pencil at the first cap + 1
    elements of scan order (0 left out when skip_zero) and keeps the
    first of maximal rank as lam0.  The pencil loses rank at no more than
    cap parameters, so one of these is generic, and lam0 has the generic
    rank rgen.  P0, the pencil at lam0, keeps its reduction, which gives
    ker P0, the minor of the eigenvalue candidates and the reference
    kernel chain ref of P0 against Q, up to chain_cap.
    """

    def __init__(self, P, Q, cap, chain_cap, skip_zero, what):
        self.spec = P.spec
        self.P, self.Q = P, Q
        self.chain_cap = chain_cap
        self.skip_zero = skip_zero
        first = list(itertools.islice(_scan_order(self.spec, skip_zero),
                                      cap + 1))
        if len(first) < cap + 1:
            raise _StructureError(f"field too small for the {what} scan")
        self._ranks = {}
        self._drops = {}    # values that rank found below rgen
        self._sizes = {}
        self.P0 = None
        for lam in first:
            V = self.value(lam)
            rank = len(V.rref()[1])
            self._ranks[_tube_key(lam)] = rank
            if self.P0 is None or rank > self.rgen:
                self.lam0, self.P0, self.rgen = lam, V, rank
            if rank == cap:
                break
        self.ref = _chain_dims(self.P0, Q, chain_cap)

    def ref_transposed(self, cap):
        """The reference kernel chain of the transposed pencil."""
        return _chain_dims(self.P0.transpose(), self.Q.transpose(), cap)

    def value(self, lam):
        if lam is INF:
            return _Reduced(self.Q)
        if not lam:
            return _Reduced(self.P)
        return _Reduced(self.P + self.Q.scale(lam))

    def candidates(self):
        """The eigenvalue candidates of _drop_candidates in scan order, 0
        left out when skip_zero; every finite rank drop is among them."""
        cands = _drop_candidates(self.P0, self.P0.rref()[1], self.Q,
                                 self.lam0)
        return _in_scan_order(self.spec, [
            lam for lam in cands if lam or not self.skip_zero])

    def rank(self, lam):
        key = _tube_key(lam)
        if key not in self._ranks:
            V = self.value(lam)
            self._ranks[key] = V.rank()
            if self._ranks[key] < self.rgen:
                self._drops[key] = V
        return self._ranks[key]

    def sizes(self, lam):
        """{n: number of Jordan blocks of size n} at lam, from the kernel
        chain there with the reference chain removed; {} where the rank
        does not drop."""
        key = _tube_key(lam)
        if key not in self._sizes:
            drop = self.rgen - self.rank(lam)
            if drop < 0:
                raise _StructureError("rank above the generic value")
            out = {}
            if drop:
                V = self._drops.pop(key, None) or self.value(lam)
                Q = self.P if lam is INF else self.Q
                out = _cleaned_sizes(_chain_dims(V, Q, self.chain_cap),
                                     self.ref)
                if sum(out.values()) != drop:
                    raise _StructureError(
                        "rank drop does not match block count")
            self._sizes[key] = out
        return self._sizes[key]


def _klein_counts(M):
    """Summand multiset of an H-representation with vanishing rad^2."""
    spec = M.spec
    d = M.dim
    I = Matrix.identity(spec, d)
    A = M.sigma + I
    B = M.tau + I
    if not (A @ B).is_zero():
        raise _StructureError("radical square acts nonzero", proven=True)
    rad = col_basis(hstack([A, B]))
    r = rad.cols
    t = d - r
    triv = vstack([A, B]).right_nullspace().cols - r
    counts = {}
    if triv:
        counts[KHLabel.triv()] = triv
    if r == 0:
        return counts
    top = _complement(rad, d)
    Abar = coords_in_basis(rad, A @ top)
    Bbar = coords_in_basis(rad, B @ top)

    # there are at most min(t, r) tube parameters
    pencil = _Pencil(Bbar, Abar, min(t, r), t, False, "tube")
    ref = pencil.ref
    refT = pencil.ref_transposed(r)
    a = _string_counts_from(ref)
    b = _string_counts_from(refT)
    if _at(ref, 1) != triv + sum(a.values()):
        raise _StructureError("string count does not match kernel")
    if _at(refT, 1) != sum(b.values()):
        raise _StructureError("cokernel side has unexplained vectors")
    tube_top = (t - triv - sum((m + 1) * c for m, c in a.items())
                - sum(m * c for m, c in b.items()))
    tube_rad = (r - sum(m * c for m, c in a.items())
                - sum((m + 1) * c for m, c in b.items()))
    if tube_top < 0 or tube_top != tube_rad:
        raise _StructureError("top/radical bookkeeping does not close")

    # tube parameters: INF, then the eigenvalue candidates in scan order.
    # Every finite rank drop is among the candidates; a spurious one is
    # rejected by its rank.
    found = 0
    params = [INF] + pencil.candidates() if tube_top else []
    for lam in params:
        if found == tube_top:
            break
        for n, c in pencil.sizes(lam).items():
            counts[KHLabel.even(2 * n, lam)] = c
            found += n * c
    if found != tube_top:
        # every rational candidate was checked, yet tube dimension is
        # left over: an even summand whose parameter lies in a proper
        # extension of the working field
        raise ValueError(
            "unsupported configuration: band parameter outside "
            "the working field scan")

    for m, c in a.items():
        counts[KHLabel.string(2 * m + 1, 1)] = c
    for m, c in b.items():
        counts[KHLabel.string(2 * m + 1, 2)] = c
    return counts


# --- the three-vertex side ------------------------------------------------
#
# The walk chains below track string modules letter by letter.  With
# the conventions of the zoo, the basis of an i-indexed string visits
# vertices in a fixed pattern, so each family is recognized by where
# its kernel end sits and at which push depth its walk dies:
#
#   M_{2n+1,1,i}: ker C end at vertex i+1, walk never dies;
#                 radical vectors enter the reach chain at vertex
#                 i+j-1 on push j.
#   N_{2n,inf,i}: ker C end at vertex i+1, dies on push n.
#   N_{2n,0,i}:   ker D end at vertex i-1, dies on push n.
#   M_{2n+1,2,i}: no kernel ends; its transpose walks like an x = 1
#                 string, reaching vertex i+j+1 on push j.

def _graded_run(spec, src_dims, dst_dims, pull, push, pullshift, pushshift):
    """Alive and reach dimensions of the push/pull walk.

    pull[v] and push[v] map source space v into destination spaces
    v + pullshift and v + pushshift.  Starts are ker pull; a start
    survives push depth j if its j-th push lands in the image of the
    pull arrows of a continuing walk.  reach[v][j] is the dimension of
    destination vectors hit by depth <= j.  Both tables stabilize.
    """
    kerp = {v: pull[v].right_nullspace() for v in range(3)}
    T = {v: Matrix.identity(spec, src_dims[v]) for v in range(3)}
    W = {v: zero_space(spec, dst_dims[v]) for v in range(3)}
    alive = {v: [kerp[v].cols] for v in range(3)}
    reach = {v: [0] for v in range(3)}
    while True:
        newT = {}
        newW = {}
        for v in range(3):
            p = (v + pushshift - pullshift) % 3
            newT[v] = preimage_space(push[v], image_space(pull[p], T[p]))
            u = (v - pushshift) % 3
            newW[v] = image_space(
                push[u], preimage_space(pull[u], W[(u + pullshift) % 3]))
        done = all(newT[v].cols == T[v].cols and newW[v].cols == W[v].cols
                   for v in range(3))
        for v in range(3):
            alive[v].append(intersect_spaces(kerp[v], newT[v]).cols)
            reach[v].append(newW[v].cols)
        T, W = newT, newW
        if done:
            return alive, reach


def _deaths(alive, i_of):
    """Family counts from walk deaths: one death at depth n per module."""
    out = {}
    for u in range(3):
        s = alive[u]
        for n in range(1, len(s) + 1):
            cnt = _ser(s, n - 1) - _ser(s, n)
            if cnt < 0:
                raise _StructureError("alive chain grew")
            if cnt:
                out[(n, i_of(u, n))] = cnt
    return out


def _reach_deltas(reach):
    delta = {}
    for v in range(3):
        s = reach[v]
        for j in range(1, len(s) + 2):
            delta[(v, j)] = _ser(s, j) - _ser(s, j - 1)
    return delta


def _family_from_reach(delta, entry_vertex, pollution, jmax):
    """Length-and-index counts from reach deltas by double difference.

    delta[(r, j)] sums, over n >= j, the modules whose depth-j entry
    vertex is r; entry_vertex(i, j) names that vertex.  pollution is
    subtracted before differencing.
    """
    out = {}
    for i in range(3):
        for n in range(1, jmax + 1):
            hi = (delta.get((entry_vertex(i, n), n), 0)
                  - pollution(entry_vertex(i, n), n))
            lo = (delta.get((entry_vertex(i, n + 1), n + 1), 0)
                  - pollution(entry_vertex(i, n + 1), n + 1))
            cnt = hi - lo
            if cnt < 0:
                raise _StructureError("reach deltas inconsistent")
            if cnt:
                out[(n, i)] = cnt
    return out


def _a4_counts(M):
    """Summand multiset of a G-representation via its graded quiver."""
    spec = M.spec
    try:
        qrep = a4_quiver_rep_from_group(M)
    except ValueError as err:
        raise _StructureError(str(err), proven=True)
    z = spec.zeta()
    gout = {}
    dout = {}
    for name, (s, t) in qrep.quiver.arrows.items():
        (gout if name.startswith("g") else dout)[s] = qrep.arrow_mats[name]
    radb = {}
    topb = {}
    for v in range(3):
        dv = qrep.vertex_dims[v]
        radb[v] = col_basis(hstack([gout[(v + 2) % 3], dout[(v + 1) % 3]]))
        topb[v] = _complement(radb[v], dv)
    tdims = {v: topb[v].cols for v in range(3)}
    rdims = {v: radb[v].cols for v in range(3)}
    Cb = {v: coords_in_basis(radb[(v + 1) % 3], gout[v] @ topb[v])
          for v in range(3)}
    Db = {v: coords_in_basis(radb[(v + 2) % 3], dout[v] @ topb[v])
          for v in range(3)}

    counts = {}
    c = {}
    for v in range(3):
        c[v] = vstack([Cb[v], Db[v]]).right_nullspace().cols
        if c[v]:
            counts[KGLabel.simple(v)] = c[v]

    alive1, reach1 = _graded_run(
        spec, tdims, rdims, pull=Cb, push=Db, pullshift=1, pushshift=-1)
    alive2, _ = _graded_run(
        spec, tdims, rdims, pull=Db, push=Cb, pullshift=-1, pushshift=1)
    Ct = {v: Cb[(v + 2) % 3].transpose() for v in range(3)}
    Dt = {v: Db[(v + 1) % 3].transpose() for v in range(3)}
    alive4, reach4 = _graded_run(
        spec, rdims, tdims, pull=Dt, push=Ct, pullshift=1, pushshift=-1)

    w = _deaths(alive1, lambda u, n: (u + 2) % 3)
    zc = _deaths(alive2, lambda u, n: (u + 1) % 3)
    dual = _deaths(alive4, lambda u, n: (u + n - 1) % 3)
    if dual != zc:
        raise _StructureError("transposed walk disagrees on * = 0 strings")

    jmax = max(len(s) for tab in (reach1, reach4) for s in tab.values()) + 1
    nmax = jmax + 1
    delta1 = _reach_deltas(reach1)

    def winf_pollution(rv, j):
        return sum(cnt for (n, i), cnt in w.items()
                   if n >= j and (i + j - 1) % 3 == rv)

    a = _family_from_reach(delta1, lambda i, j: (i + j - 1) % 3,
                           winf_pollution, jmax)

    delta4 = _reach_deltas(reach4)

    def zdual_pollution(rv, j):
        return sum(cnt for (n, i), cnt in zc.items()
                   if n >= j and (i - 1 - n + j) % 3 == rv)

    b = _family_from_reach(delta4, lambda i, j: (i + j + 1) % 3,
                           zdual_pollution, jmax)

    for (n, i), cnt in a.items():
        counts[KGLabel.odd(2 * n + 1, 1, i)] = cnt
    for (n, i), cnt in b.items():
        counts[KGLabel.odd(2 * n + 1, 2, i)] = cnt
    for (n, i), cnt in w.items():
        counts[KGLabel.even(2 * n, INF, i)] = cnt
    for (n, i), cnt in zc.items():
        counts[KGLabel.even(2 * n, 0, i)] = cnt

    # bands: rank drops of the ungraded pencil D + phi C on top -> rad,
    # for phi != 0 among the eigenvalue candidates, in scan order.
    # Strings contribute parameter-independent background there, so the
    # cleaned kernel chains at each rank drop are pure Jordan data.
    tlist = [tdims[v] for v in range(3)]
    rlist = [rdims[v] for v in range(3)]
    Cbig = Matrix.assemble(spec, rlist, tlist,
                           {((v + 1) % 3, v): Cb[v] for v in range(3)})
    Dbig = Matrix.assemble(spec, rlist, tlist,
                           {((v + 2) % 3, v): Db[v] for v in range(3)})
    T = sum(tlist)
    band_top = T - sum(c.values())
    for (n, i), cnt in a.items():
        band_top -= (n + 1) * cnt
    for fam in (b, w, zc):
        for (n, i), cnt in fam.items():
            band_top -= n * cnt
    if band_top < 0 or band_top % 3:
        raise _StructureError("band budget does not close")

    if band_top:
        pencil = _Pencil(Dbig, Cbig, min(T, sum(rlist)), T, True, "band")
        found = set()
        located = 0
        for phi in pencil.candidates():
            if located == band_top:
                break
            if phi.mask in found or not pencil.sizes(phi):
                continue
            orbit = [phi, phi * z, phi * z * z]
            datas = [pencil.sizes(ph) for ph in orbit]
            found.update(ph.mask for ph in orbit)
            if datas[0] != datas[1] or datas[0] != datas[2]:
                raise _StructureError("band parameters not zeta-symmetric")
            mu = phi ** 3
            for n, cnt in datas[0].items():
                counts[KGLabel.band(6 * n, mu, phi=phi)] = cnt
                located += 3 * n * cnt
        if located != band_top:
            # every rank drop was explained, yet top dimension is left
            # over: a band whose parameter has no cube root in the
            # working field.  Its pencil never drops rationally, so no
            # candidate in this field can see it.
            raise ValueError(
                "unsupported configuration: band parameter outside "
                "the working field scan")

    _a4_profile_check(counts, tdims, rdims)
    return counts


def _a4_profile_check(counts, tdims, rdims):
    """Recompute per-vertex top/radical dimensions from the counts."""
    pt = [0, 0, 0]
    pr = [0, 0, 0]
    for lab, cnt in counts.items():
        if lab.kind == "Simple":
            pt[lab.i] += cnt
            continue
        if lab.kind == "Band":
            n = lab.dim // 6
            for v in range(3):
                pt[v] += n * cnt
                pr[v] += n * cnt
            continue
        n = lab.dim // 2
        i = lab.i
        if lab.kind == "OddString" and lab.x == 1:
            tops = [(i + 1 + t) % 3 for t in range(n + 1)]
            rads = [(i + t) % 3 for t in range(n)]
        elif lab.kind == "OddString":
            tops = [(i + 2 + t) % 3 for t in range(n)]
            rads = [(i + t) % 3 for t in range(n + 1)]
        elif lab.param is INF:
            tops = [(i + 1 + t) % 3 for t in range(n)]
            rads = [(i + t) % 3 for t in range(n)]
        else:
            tops = [(i - 1 - t) % 3 for t in range(n)]
            rads = [(i - t) % 3 for t in range(n)]
        for v in tops:
            pt[v] += cnt
        for v in rads:
            pr[v] += cnt
    if pt != [tdims[v] for v in range(3)] or pr != [rdims[v] for v in range(3)]:
        raise _StructureError("vertex profile does not match the counts")


# ---------------------------------------------------------------------------
# the checked result

class MultiplicitySolution:
    """Multiplicities of the summands of a representation.

    multiplicities maps labels to positive integers.  spot_hom maps the
    label string of each dense spot-check probe X to dim Hom(X, M) as
    computed from the matrices; probes larger than the representation are
    left out.
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


def _spot_check(M, counts):
    """Compare two hom counts from the matrices against the extracted
    multiset.

    The probes are the two smallest labels of the side (the trivial
    module and the tube at 0 over H, the simples S_0 and S_1 over G),
    those larger than M left out, counted by probe_hom.  Returns the
    counts by label string.
    """
    spec = M.spec
    if M.group == "H":
        probes = [KHLabel.triv(), KHLabel.even(2, spec.zero())]
    else:
        probes = [KGLabel.simple(0), KGLabel.simple(1)]
    out = {}
    for X in probes:
        if X.dim > M.dim:
            continue
        got = probe_hom(X, M)
        want = sum(c * hom_labels(spec, X, Y) for Y, c in counts.items())
        if got != want:
            raise RuntimeError(
                "internal extraction inconsistency: dense hom count "
                f"disagrees at {X}")
        out[str(X)] = got
    return out


def decompose_rep(M):
    """Indecomposable multiplicities of an explicit representation.

    Checks the group relations, reads the summands off invariant
    subspace chains and rejects the result unless the extraction's own
    bookkeeping closes, the A4 vertex profile matches (over G), the
    dimensions add up to dim M and two dense hom counts agree with the
    multiset (see _spot_check).  The closed form is not consulted.

    Raises ValueError("no nonnegative integer solution") with a
    .certificate attribute {reason, dim, side} when the input provably
    is not a direct sum of the known families (a projective summand,
    say), and RuntimeError("internal extraction inconsistency ...")
    when a check fails.
    """
    validate_group_rep(M)
    side = "kH" if M.group == "H" else "kG"
    try:
        if side == "kH":
            counts = _klein_counts(M)
        else:
            counts = _a4_counts(M)
    except _StructureError as err:
        if err.proven:
            exc = ValueError("no nonnegative integer solution")
            exc.certificate = {"reason": str(err), "dim": M.dim,
                               "side": side}
            raise exc from err
        raise RuntimeError(f"internal extraction inconsistency: {err}") \
            from err
    out = MultiplicitySolution(counts, _spot_check(M, counts))
    if out.total_dim() != M.dim:
        raise RuntimeError("internal extraction inconsistency: dimensions "
                           "do not add up")
    return out
