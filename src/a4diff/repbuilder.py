"""Explicit matrix model of the holomorphic differentials of an A4 cover.

Builds, from analyzed branch data, the sigma/tau/rho matrices acting on the
labelled differential basis.  The model is block diagonal: one block per
rho-fixed branch point (0 or infinity) and one per finite orbit
{psi, zeta psi, zeta^2 psi}, each written in its own coordinates into a
view of the one d x d allocation.  sigma and tau act through the local
two-generator tables at each branch point; rho acts by zeta-power
diagonals at the fixed points, by a banded theta block across each middle
range, and by scalar permutation around each finite orbit.  On a datum
without fixed branch points, rho on the index-one sextet of the leading
orbit comes from one linear solve of the conjugation relations.  Every
block is written down directly, with no search and no repair.  The
matrices are emitted in the basis as labelled, before any change of
basis; identifying the isomorphism classes of the summands is the
hom-space oracle's job.
"""

from __future__ import annotations

import numpy as np

from ._linalg import Matrix, _mul_arrays, coords_in_basis
from .modulezoo import GroupRep
from .ramification import INF, RamData

__all__ = ["BasisLabel", "GlobalRep", "build_global_rep"]


class BasisLabel:
    """One basis differential: owning place, family (1, 2 or 3), index.

    Family 1 is the plain power of the uniformizer, family 2 carries the
    u-root, family 3 the v-root (or its corrected tail on high indices).
    """

    __slots__ = ("place", "family", "index")

    def __init__(self, place, family, index):
        assert family in (1, 2, 3)
        self.place = place
        self.family = family
        self.index = int(index)

    def __eq__(self, other):
        if not isinstance(other, BasisLabel):
            return NotImplemented
        return (self.place, self.family, self.index) == \
            (other.place, other.family, other.index)

    def __hash__(self):
        return hash((self.place, self.family, self.index))

    def __repr__(self):
        return f"f[{self.place.key()},{self.family},{self.index}]"


class GlobalRep:
    """A GroupRep over G together with its basis labels."""

    __slots__ = ("rep", "labels")

    def __init__(self, rep, labels):
        self.rep = rep
        self.labels = list(labels)

    @property
    def dim(self):
        return self.rep.dim


def _mus(m):
    return (m + 3) // 4, (2 * m + 3) // 4, (3 * m + 3) // 4


def _family_ranges(m, M, k, lo):
    """Inclusive (lo, hi) per family; hi < lo marks an empty family."""
    mu1, mu2, mu3 = _mus(m)
    nu = (M - m) // 2
    return {1: (lo, mu3 + nu + k), 2: (lo, mu1 + nu + k), 3: (lo, mu2 + k)}


def _point_labels(place, m, M, k, lo):
    ranges = _family_ranges(m, M, k, lo)
    out = []
    for fam in (1, 2, 3):
        a, b = ranges[fam]
        out.extend(BasisLabel(place, fam, i) for i in range(a, b + 1))
    return out


def _band_matrix(spec, theta, n):
    """Upper triangular n x n band: coefficient theta[q - p] at (p, q)."""
    T = np.zeros((n, n), dtype=np.int64)
    for p in range(n):
        for q in range(p, n):
            T[p, q] = theta[q - p].mask
    return Matrix(spec, T)


def _fill_special(spec, pt, S, T, R):
    """Block at a rho-fixed branch point (infinity or zero), written into
    S, T and R from their top left corner; returns the point's labels."""
    place = pt.place
    eps = pt.epsilon
    k = -2 if place.is_infinity() else 0
    a = 0 if place.is_infinity() else 1
    m = pt.m
    mu1, mu2, _ = _mus(m)
    z = spec.zeta()
    zp = [spec.one().mask, z.mask, (z * z).mask]
    ranges = _family_ranges(m, m, k, a)
    labels = _point_labels(place, m, m, k, a)
    slot = [(lab.family, lab.index) for lab in labels]
    pos = {fi: t for t, fi in enumerate(slot)}
    du = len(slot)

    def jexp(idx):
        return (1 - eps * idx) % 3

    # sigma and tau: the local table, theta tail included
    Sp, Tp = _table_patterns(spec, slot, ranges, mu1, mu2, k, 0, pt.theta)
    S[:du, :du] = Sp.a
    T[:du, :du] = Tp.a
    # rho: zeta-power diagonal on family 1
    for i in range(ranges[1][0], ranges[1][1] + 1):
        R[pos[(1, i)], pos[(1, i)]] = zp[jexp(i)]
    # rho on the low triples: f2 -> f3, f3 -> f2 + f3, all scaled
    for i in range(ranges[2][0], ranges[2][1] + 1):
        R[pos[(3, i)], pos[(2, i)]] = zp[jexp(i)]
    for i in range(ranges[3][0], min(ranges[3][1], mu1 + k) + 1):
        R[pos[(2, i)], pos[(3, i)]] = zp[jexp(i)]
        R[pos[(3, i)], pos[(3, i)]] = zp[jexp(i)]
    # rho on the corrected tail: the banded block T^{-1} P
    n = mu2 - mu1
    if n >= 1:
        w_lo = mu1 + k + 1
        band = _band_matrix(spec, pt.theta, n)
        P = np.zeros((n, n), dtype=np.int64)
        for p in range(n):
            P[p, p] = zp[jexp(w_lo + p)]
        tail = [pos[(3, w_lo + p)] for p in range(n)]
        R[np.ix_(tail, tail)] = coords_in_basis(band, Matrix(spec, P)).a
    return labels


def _table_patterns(spec, pos_list, ranges, mu1, mu2, k, nu, theta):
    """(sigma_y, tau_y) table matrices on one point's slot.

    pos_list maps (family, index) to a slot-local position; returns the
    two generator matrices in that ordering.  nu is zero at a fixed
    point and (M - m) / 2 on an orbit member.
    """
    du = len(pos_list)
    order = {fi: t for t, fi in enumerate(pos_list)}
    one = spec.one().mask
    Sp = np.zeros((du, du), dtype=np.int64)
    Tp = np.zeros((du, du), dtype=np.int64)
    np.fill_diagonal(Sp, one)
    np.fill_diagonal(Tp, one)
    for i in range(ranges[3][0], ranges[3][1] + 1):
        Sp[order[(1, i)], order[(3, i)]] ^= one
    for i in range(ranges[2][0], ranges[2][1] + 1):
        Tp[order[(1, i)], order[(2, i)]] ^= one
    # the corrected tail spreads theta from family 3 into family 1.  Its
    # targets run over [mu1 + k + 1 + nu, i3 + nu], inside family 1's
    # range [lo, mu3 + nu + k] since mu1 >= 1 and i3 <= mu2 + k <= mu3 + k
    w_lo, w_hi = mu1 + k + 1, mu2 + k
    for i3 in range(max(w_lo, ranges[3][0]), w_hi + 1):
        for t in range(i3 - mu1 - k):
            Tp[order[(1, i3 + nu - t)], order[(3, i3)]] ^= theta[t].mask
    return Matrix(spec, Sp), Matrix(spec, Tp)


def _resolve_case(spec, pt):
    """Which actual generators play (sigma_y, tau_y) at this point."""
    if pt.m == pt.M or pt.lam is INF:
        return "id"
    if pt.lam == spec.zero():
        return "swap"
    if pt.lam == spec.one():
        return "mix"
    return "id"


def _actual_generators(case, Sp, Tp):
    """(sigma, tau) from the table pair, per the local case."""
    if case == "id":
        return Sp, Tp
    if case == "swap":
        return Tp, Sp
    return Sp @ Tp, Tp


def _conj_diag(spec, M, exps, t):
    """diag(zeta^(t e)) M diag(zeta^(-t e)), exponents taken mod 3."""
    z = spec.zeta()
    zp = np.array([spec.one().mask, z.mask, (z * z).mask], dtype=np.int64)
    e = np.asarray(exps, dtype=np.int64)
    fac = zp[(t * (e[:, None] - e[None, :])) % 3]
    return Matrix(spec, _mul_arrays(spec, M.a, fac))


def _solve_udagger_rho(spec, sig6, tau6):
    """rho on the six-dimensional index-one block of the leading orbit.

    The two family-1 vectors span the socle; rho is pinned there (columns
    0 and 3) and columns 1, 2, 4, 5 are solved from R sigma = tau R and
    R tau = (sigma tau) R.  On column-stacked R each relation R A = B R
    is the system kron(A^T, I) + kron(I, B); the entries of A and B are 0
    and 1, so numpy's integer Kronecker product is the field's.  The
    pinned columns move to the right-hand side, and coords_in_basis
    returns the solution whose free unknowns are zero.  Over every local
    case pair and field that solution cubes to the identity; the block is
    diagonal in rho, so validate_group_rep's rho^3 = 1 on the whole model
    checks it.
    """
    z = spec.zeta()
    I6 = np.eye(6, dtype=np.int64)
    K = np.vstack([np.kron(A.a.T, I6) ^ np.kron(I6, B.a)
                   for A, B in ((sig6, tau6), (tau6, sig6 @ tau6))])
    R = np.zeros((6, 6), dtype=np.int64)
    R[0, 0], R[3, 0], R[0, 3] = spec.one().mask, z.mask, (z * z).mask
    pinned, free = [0, 3], [1, 2, 4, 5]
    pin_vars = [6 * j + i for j in pinned for i in range(6)]
    free_vars = [6 * j + i for j in free for i in range(6)]
    rhs = Matrix(spec, K[:, pin_vars]) @ \
        Matrix(spec, R[:, pinned].reshape(-1, 1, order="F"))
    x = coords_in_basis(Matrix(spec, K[:, free_vars]), rhs)
    R[:, free] = x.a.reshape(6, 4, order="F")
    return Matrix(spec, R)


def _index_one_block(spec, cases):
    """(sigma, tau, rho) on the index-one sextet f'1..f'3, f''1..f''3.

    cases are the local cases of the two primed members; each contributes
    the three-dimensional table at index one, resolved to actual generators.
    """
    one = spec.one().mask
    S3 = np.eye(3, dtype=np.int64) * one
    T3 = S3.copy()
    S3[0, 2] = T3[0, 1] = one
    sig6 = np.zeros((6, 6), dtype=np.int64)
    tau6 = np.zeros((6, 6), dtype=np.int64)
    for b, case in zip((slice(0, 3), slice(3, 6)), cases):
        Av, Bv = _actual_generators(case, Matrix(spec, S3), Matrix(spec, T3))
        sig6[b, b] = Av.a
        tau6[b, b] = Bv.a
    sig6, tau6 = Matrix(spec, sig6), Matrix(spec, tau6)
    return sig6, tau6, _solve_udagger_rho(spec, sig6, tau6)


def _fill_orbit(spec, orbit, r, first, S, T, R):
    """Blocks of one finite orbit, written into S, T and R from their top
    left corner: three member slots plus, on the leading orbit of a
    fixed-point-free datum, the special index-one sextet.  Returns the
    orbit's labels."""
    rep_pt = orbit.points[0]
    m, M = rep_pt.m, rep_pt.M
    mu1, mu2, mu3 = _mus(m)
    nu = (M - m) // 2
    k = 0
    z = spec.zeta()
    zp = [spec.one().mask, z.mask, (z * z).mask]
    r0 = (r == 0)
    lead = r0 and first
    # slot ranges shared by the members; the index-one sextet is separate
    lo_dd = 2 if lead else 1
    ranges = _family_ranges(m, M, k, lo_dd)
    slot = []
    for fam in (1, 2, 3):
        a, b = ranges[fam]
        slot.extend((fam, i) for i in range(a, b + 1))

    # labels in place order, families ascending, with index one present
    # on primed members of the leading orbit and everywhere when r = 0
    member_lo = [lo_dd, 1 if lead else lo_dd, 1 if lead else lo_dd]
    if r0 and not first:
        member_lo = [1, 1, 1]
    labels = []
    gpos = []
    for mem, pt in enumerate(orbit.points):
        pl = _point_labels(pt.place, m, M, k, member_lo[mem])
        gpos.append({(lab.family, lab.index): len(labels) + t
                     for t, lab in enumerate(pl)})
        labels.extend(pl)

    # local H table at the representative, resolved to actual generators
    Sp, Tp = _table_patterns(spec, slot, ranges, mu1, mu2, k, nu,
                             rep_pt.theta)
    case = _resolve_case(spec, rep_pt)
    A0, B0 = _actual_generators(case, Sp, Tp)
    ST0 = A0 @ B0

    # hop scalars: zeta^(2(i-1)) per index, zeta^2 on shared index one
    exps = []
    for fam, i in slot:
        e = (2 * (i - 1)) % 3
        if i == 1 and r0 and not first:
            e = 2
        exps.append(e)

    A2 = _conj_diag(spec, ST0, exps, 1)
    B2 = _conj_diag(spec, A0, exps, 1)
    A1 = _conj_diag(spec, B0, exps, 2)
    B1 = _conj_diag(spec, ST0, exps, 2)

    for pos, Amat, Bmat in zip(gpos, (A0, A1, A2), (B0, B1, B2)):
        idx = [pos[fi] for fi in slot]
        S[np.ix_(idx, idx)] = Amat.a
        T[np.ix_(idx, idx)] = Bmat.a
    # rho: slot 0 -> slot 2 -> slot 1 -> slot 0, each hop diagonal
    for fi, e in zip(slot, exps):
        d = zp[e]
        R[gpos[2][fi], gpos[0][fi]] = d
        R[gpos[1][fi], gpos[2][fi]] = d
        R[gpos[0][fi], gpos[1][fi]] = d

    if lead:
        # index-one sextet on the primed members, socle action pinned
        sex = [(1, 1, 1), (1, 2, 1), (1, 3, 1),
               (2, 1, 1), (2, 2, 1), (2, 3, 1)]
        idx = [gpos[mem][(fam, i)] for mem, fam, i in sex]
        gidx = np.ix_(idx, idx)
        cases = [_resolve_case(spec, pt) for pt in orbit.points[1:]]
        sig6, tau6, rho6 = _index_one_block(spec, cases)
        S[gidx] = sig6.a
        T[gidx] = tau6.a
        R[gidx] = rho6.a
    return labels


def build_global_rep(data: RamData) -> GlobalRep:
    """Assemble the global differential representation of the datum.

    Returns a GlobalRep whose dimension equals the genus.  The group
    relations are not checked here; decompose_rep checks them.  A fixed
    branch point's lambda is a primitive cube root of unity, since
    BranchPoint refuses any other.  Raises "inconsistent invariants" if
    the assembled dimension disagrees with the genus.
    """
    spec = data.spec
    r = len(data.special)
    dim = data.genus
    Sg = np.zeros((dim, dim), dtype=np.int64)
    Tg = np.zeros((dim, dim), dtype=np.int64)
    Rg = np.zeros((dim, dim), dtype=np.int64)
    # block diagonal: each fixed point or orbit writes its whole block,
    # diagonal included, into the views that start at its first label
    labels = []
    for pt in data.special:
        o = len(labels)
        labels += _fill_special(spec, pt, Sg[o:, o:], Tg[o:, o:], Rg[o:, o:])
    for j, orbit in enumerate(data.orbits):
        o = len(labels)
        labels += _fill_orbit(spec, orbit, r, j == 0,
                              Sg[o:, o:], Tg[o:, o:], Rg[o:, o:])
    if len(labels) != dim:
        raise ValueError("inconsistent invariants: basis count "
                         f"{len(labels)} at genus {dim}")

    rep = GroupRep("G", spec, Matrix(spec, Sg), Matrix(spec, Tg),
                   Matrix(spec, Rg))
    return GlobalRep(rep, labels)
