"""Explicit matrix model of the holomorphic differentials of an A4 cover.

Builds, from analyzed branch data, the sigma/tau/rho matrices acting on
the differential basis, as the coordinate triplets (row, column, mask) of
their nonzeros: a ``_blocks.TripletRep``, with no d x d array.  The model
is block diagonal: one block per rho-fixed branch point (0 or infinity)
and one per finite orbit {psi, zeta psi, zeta^2 psi}, each written in its
own coordinate range.  sigma and tau act through the local two-generator
tables at each branch point, an identity plus a few bands; rho acts by
zeta-power diagonals at the fixed points, across each middle range by the
Toeplitz matrix of the power series 1/theta times a zeta-power diagonal,
and by scalar permutation around each finite orbit.  On a datum without
fixed branch points, rho on the index-one sextet of the leading orbit
comes from one 6 x 6 linear solve of the conjugation relations.  Every
block is written down directly, with no search and no repair.  The
matrices are emitted in the basis as labelled, before any change of
basis; identifying the isomorphism classes of the summands is the
hom-space oracle's job.  ``GlobalRep.rep`` makes the dense ``GroupRep``
on demand, for library users and tests; the verify path never asks.
"""

from __future__ import annotations

import numpy as np

from ._blocks import TripletRep
from ._linalg import Matrix, _mul_arrays, coords_in_basis
from .ramification import INF, RamData
from .ratlaurent import _series_inv

__all__ = ["GlobalRep", "build_global_rep"]

_GENERATORS = ("sigma", "tau", "rho")


class GlobalRep:
    """The model over G as a TripletRep, and each place's coordinates.

    places lists (place, start, stop): the half-open coordinate range of
    each fixed branch point and each orbit member, in coordinate order.
    """

    __slots__ = ("model", "places", "_rep")

    def __init__(self, model, places):
        self.model = model
        self.places = list(places)
        self._rep = None

    @property
    def dim(self):
        return self.model.dim

    @property
    def rep(self):
        """The dense GroupRep, made on first use."""
        if self._rep is None:
            self._rep = self.model.dense()
        return self._rep


def _mus(m):
    return (m + 3) // 4, (2 * m + 3) // 4, (3 * m + 3) // 4


def _family_ranges(m, M, k, lo):
    """Inclusive (lo, hi) per family; hi < lo marks an empty family."""
    mu1, mu2, mu3 = _mus(m)
    nu = (M - m) // 2
    return {1: (lo, mu3 + nu + k), 2: (lo, mu1 + nu + k), 3: (lo, mu2 + k)}


def _layout(ranges):
    """({family: base}, size) of a place's basis, families ascending, each
    index ascending: basis function (f, i) sits at base[f] + i."""
    base, start = {}, 0
    for fam in (1, 2, 3):
        lo, hi = ranges[fam]
        base[fam] = start - lo
        start += max(0, hi - lo + 1)
    return base, start


def _span(ranges, fam, hi=None):
    lo, top = ranges[fam]
    return np.arange(lo, (top if hi is None else min(top, hi)) + 1)


def _trip(rows, cols, vals):
    """Triplets from equal-length pieces; a scalar val fills its piece."""
    vals = [np.full(len(r), v) if np.isscalar(v) else v
            for r, v in zip(rows, vals)]
    return tuple(np.concatenate(x).astype(np.int64, copy=False)
                 for x in (rows, cols, vals))


def _zeta_powers(spec):
    z = spec.zeta()
    return np.array([spec.one().mask, z.mask, (z * z).mask], dtype=np.int64)


def _table_patterns(spec, ranges, mu1, mu2, k, nu, theta):
    """(sigma_y, tau_y) table triplets on one point's slot, basis laid out
    by _layout(ranges): the identity, a band from family 3 (sigma) or 2
    (tau) into family 1, and the tail bands of theta.  nu is zero at a
    fixed point and (M - m) / 2 on an orbit member."""
    base, du = _layout(ranges)
    one = spec.one().mask
    diag = np.arange(du)
    i2, i3 = _span(ranges, 2), _span(ranges, 3)
    S = _trip([diag, base[1] + i3], [diag, base[3] + i3], [one, one])
    rows, cols, vals = [diag, base[1] + i2], [diag, base[2] + i2], [one, one]
    # the corrected tail spreads theta_t from (3, i3) to (1, i3 + nu - t)
    # for t < i3 - mu1 - k.  Its targets run over [mu1 + k + 1 + nu,
    # i3 + nu], inside family 1's range [lo, mu3 + nu + k] since mu1 >= 1
    # and i3 <= mu2 + k <= mu3 + k
    w_lo, w_hi = mu1 + k + 1, mu2 + k
    for t in range(w_hi - w_lo + 1):
        if theta[t]:
            j = np.arange(max(w_lo + t, ranges[3][0]), w_hi + 1)
            rows.append(base[1] + j + nu - t)
            cols.append(base[3] + j)
            vals.append(theta[t].mask)
    return S, _trip(rows, cols, vals)


def _times(spec, A, B):
    """A @ B on triplets, formed on the pairs of nonzeros A[i, l] B[l, c]."""
    by_row = {}
    for t, l in enumerate(B[0].tolist()):
        by_row.setdefault(l, []).append(t)
    pa, pb = [], []
    for s, l in enumerate(A[1].tolist()):
        for t in by_row.get(l, ()):
            pa.append(s)
            pb.append(t)
    terms = _mul_arrays(spec, A[2][pa], B[2][pb]).tolist()
    acc = {}
    for key, x in zip(zip(A[0][pa].tolist(), B[1][pb].tolist()), terms):
        acc[key] = acc.get(key, 0) ^ x
    keys = [key for key, x in acc.items() if x]
    return _trip([[i for i, _ in keys]], [[c for _, c in keys]],
                 [[acc[key] for key in keys]])


def _resolve_case(spec, pt):
    """Which actual generators play (sigma_y, tau_y) at this point."""
    if pt.m == pt.M or pt.lam is INF:
        return "id"
    if pt.lam == spec.zero():
        return "swap"
    if pt.lam == spec.one():
        return "mix"
    return "id"


def _actual_generators(case, Sp, Tp, times):
    """(sigma, tau) from the table pair, per the local case."""
    if case == "id":
        return Sp, Tp
    if case == "swap":
        return Tp, Sp
    return times(Sp, Tp), Tp


def _conj_diag(spec, M, exps, t):
    """diag(zeta^(t e)) M diag(zeta^(-t e)) on triplets, exponents mod 3."""
    rows, cols, vals = M
    fac = _zeta_powers(spec)[(t * (exps[rows] - exps[cols])) % 3]
    return rows, cols, _mul_arrays(spec, vals, fac)


def _special_block(spec, pt):
    """(size, (sigma, tau, rho), its range) of the block at a rho-fixed
    branch point (infinity or zero), as triplets in the point's own
    coordinates."""
    k = -2 if pt.place.is_infinity() else 0
    m = pt.m
    mu1, mu2, _ = _mus(m)
    zp = _zeta_powers(spec)
    ranges = _family_ranges(m, m, k, 0 if pt.place.is_infinity() else 1)
    base, du = _layout(ranges)

    def scale(idx):
        return zp[(1 - pt.epsilon * idx) % 3]

    # sigma and tau: the local table, theta tail included
    S, T = _table_patterns(spec, ranges, mu1, mu2, k, 0, pt.theta)
    # rho: zeta-power diagonal on family 1; on the low triples f2 -> f3,
    # f3 -> f2 + f3, all scaled
    i1, i2 = _span(ranges, 1), _span(ranges, 2)
    i3 = _span(ranges, 3, mu1 + k)
    rows = [base[1] + i1, base[3] + i2, base[2] + i3, base[3] + i3]
    cols = [base[1] + i1, base[2] + i2, base[3] + i3, base[3] + i3]
    vals = [scale(i1), scale(i2), scale(i3), scale(i3)]
    # rho on the corrected tail: T^-1 P, with T the upper triangular
    # Toeplitz matrix of theta and P the zeta-power diagonal.  T^-1 is the
    # Toeplitz matrix of the power series u = 1/theta, so entry (p, q) is
    # u_{q - p} P[q, q]
    n = mu2 - mu1
    if n >= 1:
        w = base[3] + mu1 + k + 1
        P = scale(mu1 + k + 1 + np.arange(n))
        u = _series_inv(spec, [t.mask for t in pt.theta], n)
        for d, ud in enumerate(u):
            if ud:
                rows.append(w + np.arange(n - d))
                cols.append(w + d + np.arange(n - d))
                vals.append(_mul_arrays(spec, ud, P[d:]))
    return du, (S, T, _trip(rows, cols, vals)), [(pt.place, 0, du)]


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
        Av, Bv = _actual_generators(case, Matrix(spec, S3), Matrix(spec, T3),
                                    Matrix.__matmul__)
        sig6[b, b] = Av.a
        tau6[b, b] = Bv.a
    sig6, tau6 = Matrix(spec, sig6), Matrix(spec, tau6)
    return sig6, tau6, _solve_udagger_rho(spec, sig6, tau6)


def _orbit_block(spec, orbit, r, first):
    """(size, (sigma, tau, rho), member ranges) of one finite orbit, as
    triplets in the orbit's own coordinates: three member slots plus, on
    the leading orbit of a fixed-point-free datum, the special index-one
    sextet."""
    rep_pt = orbit.points[0]
    m, M = rep_pt.m, rep_pt.M
    mu1, mu2, _ = _mus(m)
    nu = (M - m) // 2
    zp = _zeta_powers(spec)
    r0 = (r == 0)
    lead = r0 and first
    # slot ranges shared by the members; the index-one sextet is separate
    lo_dd = 2 if lead else 1
    ranges = _family_ranges(m, M, 0, lo_dd)
    slot_i = np.concatenate([_span(ranges, fam) for fam in (1, 2, 3)])

    # members in place order, families ascending, with index one present
    # on primed members of the leading orbit and everywhere when r = 0
    member_lo = [lo_dd, 1 if lead else lo_dd, 1 if lead else lo_dd]
    if r0 and not first:
        member_lo = [1, 1, 1]
    where, bases, members, start = [], [], [], 0
    for pt, lo in zip(orbit.points, member_lo):
        base, size = _layout(_family_ranges(m, M, 0, lo))
        where.append(np.concatenate([start + base[fam] + _span(ranges, fam)
                                     for fam in (1, 2, 3)]))
        bases.append((start, base))
        members.append((pt.place, start, start + size))
        start += size

    # local H table at the representative, resolved to actual generators
    Sp, Tp = _table_patterns(spec, ranges, mu1, mu2, 0, nu, rep_pt.theta)
    A0, B0 = _actual_generators(_resolve_case(spec, rep_pt), Sp, Tp,
                                lambda A, B: _times(spec, A, B))
    ST0 = _times(spec, A0, B0)

    # hop scalars: zeta^(2(i-1)) per index, zeta^2 on shared index one
    exps = (2 * (slot_i - 1)) % 3
    if r0 and not first:
        exps[slot_i == 1] = 2

    gens = ([], [], [])
    pairs = ((A0, B0), (_conj_diag(spec, B0, exps, 2),
                        _conj_diag(spec, ST0, exps, 2)),
             (_conj_diag(spec, ST0, exps, 1), _conj_diag(spec, A0, exps, 1)))
    for idx, pair in zip(where, pairs):
        for out, (rows, cols, vals) in zip(gens, pair):
            out.append((idx[rows], idx[cols], vals))
    # rho: slot 0 -> slot 2 -> slot 1 -> slot 0, each hop diagonal
    hop = zp[exps]
    gens[2].append(_trip([where[2], where[1], where[0]],
                         [where[0], where[2], where[1]], [hop, hop, hop]))

    if lead:
        # index-one sextet on the primed members, socle action pinned
        idx = np.array([s + base[fam] + 1 for s, base in bases[1:]
                        for fam in (1, 2, 3)])
        cases = [_resolve_case(spec, pt) for pt in orbit.points[1:]]
        for out, mat in zip(gens, _index_one_block(spec, cases)):
            rows, cols = np.nonzero(mat.a)
            out.append((idx[rows], idx[cols], mat.a[rows, cols]))
    return start, tuple(_trip(*zip(*parts)) for parts in gens), members


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
    empty = np.zeros(0, dtype=np.int64)
    parts = [[(empty, empty, empty)] for _ in _GENERATORS]
    places = []
    o = 0
    # block diagonal: each fixed point or orbit writes its whole block,
    # diagonal included, shifted to start at its first coordinate
    blocks = [_special_block(spec, pt) for pt in data.special]
    blocks += [_orbit_block(spec, orbit, r, j == 0)
               for j, orbit in enumerate(data.orbits)]
    for size, gens, members in blocks:
        places.extend((place, o + a, o + b) for place, a, b in members)
        for out, (rows, cols, vals) in zip(parts, gens):
            out.append((rows + o, cols + o, vals))
        o += size
    if o != data.genus:
        raise ValueError("inconsistent invariants: basis count "
                         f"{o} at genus {data.genus}")
    gens = {name: _trip(*zip(*p)) for name, p in zip(_GENERATORS, parts)}
    return GlobalRep(TripletRep("G", spec, o, gens), places)
