"""Shared test utilities: random trace-zero data, closed-form
expectations for the parametric families, and slow reference versions of
the field's exp/log tables, its bit-loop scalar arithmetic and its zeta
solver, of the coefficient loops of polynomial products and division, of
the matrix kernel's products, row reduction, kernel bases and rank, of
root multiplicities and adic expansions, of rational-function sums and
rho pullbacks, of trace splitting, of the oracle's field-wide parameter
scan and of the A4 conditions with three reductions.  Also the explicit
constructions that only tests use: matrices from rows, Kronecker
products, the dense hom dimension, the stacked-rank probe counts,
induction to A4 of a model and of a label (the reference for Frobenius
reciprocity), direct sums of label models, the group models of quiver
representations and the Klein four models in the (C, D) letters; the A4
quiver representation read back off group matrices, the reference for
the oracle's radical pencil; and the
accessors only tests read: division by one linear factor, evaluation
and root multiplicities of polynomials, places from keys, orders at
places, constancy and evaluation of rational functions, the orbit
count, the branch point at a place and the recomputed numerology of
branch data; and the six group relations of A4, the reference for the
four-relation presentation that the validator checks."""

import math
from collections import namedtuple

import numpy as np

from a4diff._linalg import (Matrix, _inv_mask, _mul_arrays, col_basis,
                            coords_in_basis, hstack, vstack)
from a4diff.artin_schreier import as_reduce, symmetrize_h
from a4diff.decomp import (Decomposition, KGLabel, KHLabel,
                           restrict_decomposition)
from a4diff.gf import (FieldElement, _mask_inv, _mask_mul, _pmulmod,
                       _ppowmod, all_elements)
from a4diff.modulezoo import (A4_QUIVER, GroupRep, Quiver, StringWord, fwd,
                              rev)
from a4diff.zoo import (BandWord, QuiverRep, _ab_from_cd, _kg_group,
                        _klein_group, band_module_matrices, kg_group_rep,
                        kh_group_rep, string_module_matrices)
from a4diff.oracle import _complement
from a4diff.ramification import (INF, _numerology, analyze_branch_data,
                                  phi_of_lambda)
from a4diff.repbuilder import _family_ranges, _layout
from a4diff.ratlaurent import (Place, Poly, RatFunc, _divmod_binomial,
                               _multiplier, trace_K_over_J)


def cube_roots_of_unity(spec):
    """(1, zeta, zeta^2) with zeta the canonical primitive cube root."""
    z = spec.zeta()
    return spec.one(), z, z * z


def linear_power(spec, mask, e):
    out = Poly(spec, (1,))
    for _ in range(e):
        out = out * Poly(spec, (mask, 1))
    return out


def div_linear(p, c):
    """Quotient and remainder of p by (s + c); O(deg)."""
    q, r = _divmod_binomial(p.coeffs, 1, _multiplier(p.spec, c))
    return Poly(p.spec, q), (r[0] if r else 0)


def place_from_key(spec, key):
    """The place of a serialization key: 'inf' or a decimal mask."""
    if key == "inf":
        return Place.infinity()
    return Place.finite(spec.element(int(key)))


def is_constant(f):
    return f.num.degree <= 0 and f.den.degree == 0


def poly_eval(p, mask):
    """Horner evaluation of a polynomial at a mask; returns a mask."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = _mask_mul(p.spec, acc, mask) ^ c
    return acc


def valuation(p, c):
    """Multiplicity of the root c of p (0 if not a root); inf for 0."""
    if p.is_zero():
        return math.inf
    return p.root_split(c)[0]


def ord_at(f, place):
    """Valuation of a rational function at a place; inf for 0."""
    if f.is_zero():
        return math.inf
    if place.is_infinity():
        return f.den.degree - f.num.degree
    c = place.value.mask
    return valuation(f.num, c) - valuation(f.den, c)


def eval_at(f, value):
    """f at a field element; raises ZeroDivisionError at a pole."""
    d = poly_eval(f.den, value.mask)
    if d == 0:
        raise ZeroDivisionError("evaluation at a pole")
    n = poly_eval(f.num, value.mask)
    return f.spec.element(_mask_mul(f.spec, n, _mask_inv(f.spec, d)))


def ell(data):
    """The number of finite branch orbits of branch data."""
    return len(data.orbits)


def point_at(data, place):
    """The branch point of branch data at a place."""
    for bp in data.branch_points():
        if bp.place == place:
            return bp
    raise KeyError(place.key())


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


def basis_labels(data, gr):
    """One BasisLabel per coordinate of a built model, from its places.

    A place's range holds families 1, 2 and 3 in turn, each from one
    lowest index (0, 1 or 2) to its own highest, the layout
    repbuilder._family_ranges gives; the range's length fixes the lowest
    index.  A fixed point's tables sit at k = -2 (infinity) or 0 with
    M = m, an orbit member's at k = 0 with its own M.
    """
    fixed = {pt.place for pt in data.special}
    out = []
    for place, start, stop in gr.places:
        pt = point_at(data, place)
        k = -2 if place.is_infinity() else 0
        M = pt.m if place in fixed else pt.M
        ranges = next(r for r in (_family_ranges(pt.m, M, k, lo)
                                  for lo in (0, 1, 2))
                      if _layout(r)[1] == stop - start)
        for fam in (1, 2, 3):
            lo, hi = ranges[fam]
            out.extend(BasisLabel(place, fam, i) for i in range(lo, hi + 1))
    return out


def genus_and_differents(data):
    """Recompute (genus, differents, jumps) from the per-point records."""
    return _numerology(list(data.branch_points()))


def random_trace_zero_alpha(rnd, spec, max_orbits=2, allow_inf=True,
                            allow_zero=True, degenerate_bias=0.0):
    """A random trace-zero rational function, built part by part.

    The principal parts at an orbit {psi, zeta psi, zeta^2 psi} are
    trace free exactly when the order-e coefficients b_k at zeta^k psi
    satisfy b_0 + b_1 zeta^-e + b_2 zeta^-2e = 0, so two are drawn at
    random and the third is solved for.  The polynomial part and the
    principal part at 0 must avoid degrees divisible by 3.  Orders are
    allowed to be even; reduction cancels them downstream.
    """
    z = spec.zeta()
    total = RatFunc.zero(spec)

    used = set()
    # GF(2^m)* is the union of (2^m - 1) / 3 zeta-orbits, one at m = 2
    for _ in range(rnd.randint(0, min(max_orbits, (spec.order - 1) // 3))):
        while True:
            v = spec.element(rnd.randrange(1, spec.order))
            chain = (v.mask, (z * v).mask, (z * z * v).mask)
            if not used.intersection(chain):
                break
        used.update(chain)
        for e in rnd.sample(range(1, 8), rnd.randint(1, 2)):
            if rnd.random() < degenerate_bias:
                b0 = spec.zero()
                b1 = spec.element(rnd.randrange(1, spec.order))
            else:
                b0 = spec.element(rnd.randrange(spec.order))
                b1 = spec.element(rnd.randrange(spec.order))
            zinv_e = z.inverse() ** e
            b2 = (b0 + b1 * zinv_e) * z ** (2 * e)
            for k, b in enumerate((b0, b1, b2)):
                if b:
                    pole = (z ** k * v).mask
                    total = total + RatFunc(Poly(spec, (b.mask,)),
                                            linear_power(spec, pole, e))
    if allow_inf and rnd.random() < 0.8:
        deg = rnd.randint(1, 7)
        coeffs = [0] * (deg + 1)
        for e in range(1, deg + 1):
            if e % 3:
                coeffs[e] = rnd.randrange(spec.order)
        total = total + RatFunc.from_poly(Poly(spec, coeffs))
    if allow_zero and rnd.random() < 0.5:
        e = rnd.choice((1, 2, 4, 5, 7))
        total = total + RatFunc(Poly(spec, (rnd.randrange(1, spec.order),)),
                                Poly(spec, [0] * e + [1]))
    assert trace_K_over_J(total).is_zero()
    return total


def analyzed_random_datum(rnd, spec, attempts=80, **kw):
    """(form, ramification data) for a random admissible datum.

    Retries on rejects: trivial data, branch points whose orbit is not
    pole-closed, or degenerate leading coefficients.
    """
    for _ in range(attempts):
        alpha = random_trace_zero_alpha(rnd, spec, **kw)
        try:
            return symmetrize_h(alpha), analyze_branch_data(alpha)
        except ValueError:
            continue
    raise RuntimeError("random datum generation stalled")


def _ceil_div(a, b):
    return -(-a // b)


def hkg_expected(n, x):
    """Closed-form invariants of hkg_alpha(spec, n, x)."""
    r = n % 3
    p = (32 * n - 2 * r + 20) * x - 3
    a1 = (5 - r) * x - 1 + _ceil_div(r * x, 2)
    return {
        "p": p,
        "delta": 8 * x,
        "lam_power": x,
        "genus": -3 + 3 * (p + 1) // 2,
        "mu": ((8 * n + 5) * x - _ceil_div(r * x, 2),
               (16 * n + 10 - r) * x - 1,
               (24 * n + 15 - r) * x - 1 - _ceil_div(r * x + 1, 2)),
        "l": n + 1,
        "a1": a1,
        "a2": 8 * x - a1,
    }


def degenerate_orbit_expected(n):
    """Closed-form invariants of degenerate_orbit_alpha(spec, n)."""
    return {
        "p_inf": 7,
        "m": 4 * n - 3,
        "M": 4 * n - 1,
        "genus": 18 * n + 6,
        "band_dim": 6 * n,
        "l": n,
        "a1": 1,
        "a2": 0,
    }


def generic_orbit_expected(n):
    """Closed-form invariants of generic_orbit_alpha(spec, n, psi)."""
    return {
        "p_inf": 1,
        "p": 4 * n + 1,
        "delta": 1,
        "genus": 18 * n + 9,
        "band_dim": 6 * n,
        "l": n,
        "a1": 1,
        "a2": 0,
    }


def reference_field_tables(spec):
    """(exp, log) as Matrix kernels expect them, by the plain method.

    The generator is the smallest mask whose powers reach every nonzero
    element, and the tables are filled one bit-loop multiply at a time.
    """
    q, f = spec.order, spec.modulus
    gen = None
    for cand in range(2, q):
        acc = cand
        steps = 1
        while acc != 1:
            acc = _pmulmod(acc, cand, f)
            steps += 1
        if steps == q - 1:
            gen = cand
            break
    assert gen is not None
    exp = np.zeros(2 * (q - 1), dtype=np.int64)
    log = np.full(q, -1, dtype=np.int64)
    acc = 1
    for i in range(q - 1):
        exp[i] = acc
        exp[i + q - 1] = acc
        log[acc] = i
        acc = _pmulmod(acc, gen, f)
    return exp, log


def reference_zeta(spec):
    """The mask of zeta, by the plain method: zeta^2 + zeta = 1 is
    GF(2)-linear in the mask bits because squaring is linear; solve
    (F + I) z = 1, F the Frobenius matrix, by Gaussian elimination on the
    m x m system, then take the smaller of the two solutions z, z + 1."""
    m = spec.m
    cols = []
    for i in range(m):
        basis = 1 << i
        cols.append(_pmulmod(basis, basis, spec.modulus) ^ basis)
    rows = [[(cols[j] >> i) & 1 for j in range(m)] + [1 if i == 0 else 0]
            for i in range(m)]
    piv = []
    r = 0
    for c in range(m):
        sel = next((rr for rr in range(r, m) if rows[rr][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for rr in range(m):
            if rr != r and rows[rr][c]:
                rows[rr] = [x ^ y for x, y in zip(rows[rr], rows[r])]
        piv.append(c)
        r += 1
    z = 0
    for idx, c in enumerate(piv):
        if rows[idx][m]:
            z |= 1 << c
    assert _pmulmod(z, z, spec.modulus) ^ z == 1
    return min(z, z ^ 1)


def reference_inverse(a):
    """1 / a as a^(q-2) by bit-loop square and multiply."""
    return FieldElement(a.spec, _ppowmod(a.mask, a.spec.order - 2,
                                         a.spec.modulus))


def reference_sqrt(a):
    """sqrt(a) = a^(2^(m-1)) by m - 1 bit-loop squarings."""
    mask = a.mask
    for _ in range(a.spec.m - 1):
        mask = _pmulmod(mask, mask, a.spec.modulus)
    return FieldElement(a.spec, mask)


def reference_poly_mul(p, q):
    """p * q by the schoolbook loop, one bit-loop multiply per term."""
    if p.is_zero() or q.is_zero():
        return Poly(p.spec, ())
    f = p.spec.modulus
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] ^= _pmulmod(a, b, f)
    return Poly(p.spec, out)


def reference_poly_divmod(p, d):
    """(quotient, remainder) of p by d by long division with bit-loop
    multiplies, the leading coefficient of d inverted as a^(q-2)."""
    spec, f = p.spec, p.spec.modulus
    rem = list(p.coeffs)
    dd = d.degree
    lead_inv = _ppowmod(d.leading(), spec.order - 2, f)
    quo = [0] * max(0, len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = _pmulmod(rem[i], lead_inv, f)
        quo[i - dd] = c
        for j, b in enumerate(d.coeffs):
            rem[i - dd + j] ^= _pmulmod(c, b, f)
    return Poly(spec, quo), Poly(spec, rem)


A4Verdict = namedtuple("A4Verdict", ("trace_zero", "nontrivial_alpha",
                                     "nontrivial_rho_alpha", "nontrivial_sum",
                                     "verdict"))


def reference_check_a4_conditions(alpha):
    """The A4 conditions with alpha, rho alpha and alpha + rho alpha each
    reduced on its own."""
    def nontrivial(f):
        return not as_reduce(f).alpha_reduced.is_zero()
    ra = alpha.rho_pullback()
    flags = (trace_K_over_J(alpha).is_zero(), nontrivial(alpha),
             nontrivial(ra), nontrivial(alpha + ra))
    return A4Verdict(*flags, all(flags))


def reference_rref(A):
    """(reduced matrix, pivot column list) of A, normalising each pivot
    row to a leading 1 before it clears its column."""
    M = A.a.copy()
    spec = A.spec
    piv = []
    r = 0
    for j in range(A.cols):
        if r == A.rows:
            break
        hit = np.nonzero(M[r:, j])[0]
        if hit.size == 0:
            continue
        i = r + int(hit[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        inv = _inv_mask(spec, int(M[r, j]))
        M[r, j:] = _mul_arrays(spec, np.int64(inv), M[r, j:])
        others = np.flatnonzero(M[:, j])
        others = others[others != r]
        M[others, j:] ^= _mul_arrays(spec, M[others, j, None], M[r, j:])
        piv.append(j)
        r += 1
    return Matrix(spec, M), piv


def reference_right_nullspace(A):
    """Kernel basis of A, one free column and one pivot row at a time."""
    R, piv = reference_rref(A)
    free = [j for j in range(A.cols) if j not in piv]
    out = np.zeros((A.cols, len(free)), dtype=np.int64)
    for t, j in enumerate(free):
        out[j, t] = 1
        for r, p in enumerate(piv):
            out[p, t] = R.a[r, j]
    return Matrix(A.spec, out)


def gf2_blowup_rank(M):
    """Rank of M over GF(2^m) from the GF(2) rank of its bit blow-up.

    Each entry a becomes the m x m GF(2) block of multiplication by a
    (column b holds the bits of x^b a), each bit row is packed into a
    Python integer, and XOR eliminates; the GF(2) rank is m times the
    field rank.
    """
    spec, m = M.spec, M.spec.m
    powers = [spec.element(1 << b) for b in range(m)]
    pivots = {}
    for row in M.to_mask_rows():
        blocks = [[(x * spec.element(a)).mask for x in powers] for a in row]
        for k in range(m):
            bits = 0
            for j, block in enumerate(blocks):
                for b, v in enumerate(block):
                    bits |= (v >> k & 1) << (j * m + b)
            while bits:
                lead = bits.bit_length() - 1
                other = pivots.get(lead)
                if other is None:
                    pivots[lead] = bits
                    break
                bits ^= other
    assert len(pivots) % m == 0
    return len(pivots) // m


def reference_root_split(p, c):
    """(v, q) with p = (s + c)^v q, dividing out one (s + c) per pass.

    v + 1 synthetic divisions of O(deg) each; inf and None for p = 0.
    """
    if p.is_zero():
        return math.inf, None
    v = 0
    while True:
        q, r = div_linear(p, c)
        if r != 0:
            return v, p
        v += 1
        p = q


def reference_adic_coeffs(p, c, count):
    """First count (s + c)-adic coefficients of p, one division of the
    whole quotient by s + c per coefficient: O(count deg)."""
    out = []
    for _ in range(count):
        p, r = div_linear(p, c)
        out.append(r)
    return out


def reference_sum(f, g):
    """f + g over the product of the denominators."""
    return RatFunc(f.num * g.den + g.num * f.den, f.den * g.den)


def reference_rho_pullback(f):
    """f(zeta s) through the canonicalising constructor: coefficient i of
    numerator and denominator times zeta^i, then the gcd and the monic
    scaling of RatFunc()."""
    spec = f.spec
    z = spec.zeta().mask

    def compose(p):
        out, power = [], 1
        for c in p.coeffs:
            out.append(_mask_mul(spec, c, power))
            power = _mask_mul(spec, power, z)
        return Poly(spec, out)
    return RatFunc(compose(f.num), compose(f.den))


def reference_trace_split(p, out):
    """Trace splitting of a split squarefree monic p into the set out.

    Each trial beta recomputes T(beta s) = sum_{i<m} (beta s)^(2^i) mod p
    from scratch, m squarings mod p.
    """
    spec = p.spec
    if p.degree <= 0:
        return
    if p.degree == 1:
        out.add(p.coeffs[0])
        return
    for bit in range(spec.m):
        beta = 1 << bit
        term = Poly(spec, (0, beta)) % p
        acc = Poly(spec, ())
        for _ in range(spec.m):
            acc = acc + term
            term = (term * term) % p
        g = p.gcd(acc)
        if 0 < g.degree < p.degree:
            reference_trace_split(g, out)
            reference_trace_split(p.divmod(g)[0].monic(), out)
            return
    raise AssertionError("trace splitting failed on a squarefree input")


def reference_scan_order(spec, skip_zero=False):
    """The whole field as a list: 0, 1, zeta, zeta^2, then the other
    elements by mask; 0 left out when skip_zero."""
    seen = set()
    out = []
    z = spec.zeta()
    for e in [spec.zero(), spec.one(), z, z * z] + list(all_elements(spec)):
        if (e or not skip_zero) and e.mask not in seen:
            seen.add(e.mask)
            out.append(e)
    return out


def reference_rank_drops(P, Q, skip_zero=False):
    """Elements lam, in reference_scan_order, where rank(P + lam Q) is
    below its largest value over the field; the pencil is ranked at every
    element."""
    order = reference_scan_order(P.spec, skip_zero)
    ranks = [(P + Q.scale(lam)).rank() for lam in order]
    return [lam for lam, rk in zip(order, ranks) if rk < max(ranks)]


def reference_product(A, B):
    """The masks of A @ B, one bit-loop multiply per term."""
    f = A.spec.modulus
    out = [[0] * B.cols for _ in range(A.rows)]
    for i in range(A.rows):
        for j in range(B.cols):
            for k in range(A.cols):
                out[i][j] ^= _pmulmod(int(A.a[i, k]), int(B.a[k, j]), f)
    return out


# ---------------------------------------------------------------------------
# explicit constructions that only tests use

def matrix_from_rows(spec, rows):
    """A Matrix from nested lists of masks."""
    arr = np.array(rows, dtype=np.int64)
    if arr.ndim != 2:
        arr = arr.reshape(len(rows), -1)
    return Matrix(spec, arr)


def kron(A, B):
    """Kronecker product, row-major block layout."""
    prod = _mul_arrays(A.spec, A.a[:, None, :, None], B.a[None, :, None, :])
    return Matrix(A.spec, prod.reshape(A.rows * B.rows, A.cols * B.cols))


def hom_dim(X, Y):
    """dim Hom(X, Y) for two representations of one group.

    Sets up T g_X = g_Y T as a linear system in the entries of T and
    returns its nullity.  Exact and assumption-free, but dense: the
    system has dim(X) dim(Y) unknowns, so keep the inputs modest.
    """
    if X.group != Y.group or not (
            X.spec is Y.spec or (X.spec.m == Y.spec.m
                                 and X.spec.modulus == Y.spec.modulus)):
        raise ValueError("hom_dim needs representations of one group "
                         "over one field")
    gx = X.generators()
    gy = Y.generators()
    IX = Matrix.identity(X.spec, X.dim)
    IY = Matrix.identity(Y.spec, Y.dim)
    rows = [kron(IY, gx[name].transpose()) + kron(gy[name], IX)
            for name in sorted(gx)]
    return X.dim * Y.dim - vstack(rows).rank()


def probe_hom(X, M):
    """dim Hom(X, M) for a cyclic zoo module X (Triv, N_{2,lam}, S_i):
    the kernel on M of the relations of X's generator, one rank of the
    stacked relations.  With A = sigma + 1 and B = tau + 1,
    Hom(k, M) = ker [A; B], Hom(N_{2,lam}, M) = ker(B + lam A) (ker A at
    lam = inf) and Hom(S_i, M) = ker [A; B; rho + zeta^i].
    """
    spec = M.spec
    I = Matrix.identity(spec, M.dim)
    A, B = M.sigma + I, M.tau + I
    if X.kind == "EvenDim":
        assert X.dim == 2
        rel = A if X.param is INF else B + A.scale(X.param)
    elif X.kind == "Triv":
        rel = vstack([A, B])
    else:
        assert X.kind == "Simple"
        rel = vstack([A, B, M.rho + I.scale(spec.zeta() ** X.i)])
    return M.dim - rel.rank()


def induce_to_g(hrep):
    """Induce an H-representation to G along the coset basis 1, rho, rho^2.

    sigma permutes the cosets trivially but twists by the conjugate
    generator on each block; rho cycles the blocks.  The result satisfies
    the relations of G whenever hrep satisfies those of H.
    """
    assert hrep.group == "H"
    spec = hrep.spec
    d = hrep.dim
    dims = [d, d, d]
    s, t = hrep.sigma, hrep.tau
    st = s @ t
    sigma = Matrix.assemble(spec, dims, dims,
                            {(0, 0): s, (1, 1): st, (2, 2): t})
    tau = Matrix.assemble(spec, dims, dims,
                          {(0, 0): t, (1, 1): s, (2, 2): st})
    I = Matrix.identity(spec, d)
    rho = Matrix.assemble(spec, dims, dims,
                          {(1, 0): I, (2, 1): I, (0, 2): I})
    return GroupRep("G", spec, sigma, tau, rho)


def induce_label(spec, label):
    """The A4 multiset induced from a Klein four label; dimensions triple.

    Triv and the odd strings induce to one copy per character, N_{2n,zeta}
    and N_{2n,zeta^2} to the even strings with * = 0 resp. oo, and every
    other N_{2n,lambda} to the band B_{6n,phi^3}, phi = phi_of_lambda.
    """
    assert isinstance(label, KHLabel)
    out = Decomposition("kG", spec=spec)
    if label.kind == "Triv":
        for i in range(3):
            out.add(KGLabel.simple(i), 1)
        return out
    if label.kind == "String":
        for i in range(3):
            out.add(KGLabel.odd(label.dim, label.x, i), 1)
        return out
    z = spec.zeta()
    if label.param is not INF and label.param == z:
        for i in range(3):
            out.add(KGLabel.even(label.dim, 0, i), 1)
    elif label.param is not INF and label.param == z * z:
        for i in range(3):
            out.add(KGLabel.even(label.dim, INF, i), 1)
    else:
        phi = phi_of_lambda(spec, label.param)
        out.add(KGLabel.band(3 * label.dim, phi ** 3, phi=phi), 1)
    return out


def restrict_label(spec, label):
    """The Klein four multiset restricted from one A4 label."""
    return restrict_decomposition(Decomposition("kG", [(label, 1)],
                                                spec=spec))


def direct_sum(reps):
    """Block diagonal sum of representations of one group."""
    assert reps
    spec, group = reps[0].spec, reps[0].group
    assert all(r.group == group for r in reps)
    dims = [r.dim for r in reps]

    def diag(pick):
        return Matrix.assemble(spec, dims, dims,
                               {(i, i): pick(r) for i, r in enumerate(reps)})

    rho = diag(lambda r: r.rho) if group == "G" else None
    return GroupRep(group, spec, diag(lambda r: r.sigma),
                    diag(lambda r: r.tau), rho)


def labels_group_rep(spec, labels):
    """Block diagonal model of a label multiset (all kH or all kG)."""
    return direct_sum([kh_group_rep(spec, lab) if isinstance(lab, KHLabel)
                       else kg_group_rep(spec, lab) for lab in labels])


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


def reference_group_relations(rep):
    """Whether a G-representation satisfies all six relations sigma^2 =
    tau^2 = rho^3 = 1, sigma tau = tau sigma, rho sigma rho^-1 = tau and
    (sigma rho)^3 = 1; the reference for validate_group_rep's
    presentation."""
    I = Matrix.identity(rep.spec, rep.dim)
    s, t, r = rep.sigma, rep.tau, rep.rho
    rr = r @ r
    sr = s @ r
    return (s @ s == I and t @ t == I and s @ t == t @ s and rr @ r == I
            and r @ s @ rr == t and sr @ sr @ sr == I)


# the eigenvector letters of the Klein four algebra: C and D are scaled
# by zeta and zeta^2 under conjugation with rho
KLEIN_CD = Quiver("klein_cd", (0,), {"C": (0, 0), "D": (0, 0)})


def kh_cd_group_rep(spec, label):
    """The model of an even-dimensional Klein four label built in the
    (C, D) letters, A = zeta C + zeta D and B = zeta^2 C + D (CD = 0).
    Its (C, D) parameter is phi_of_lambda of the (A, B) parameter, so the
    string cases sit at phi in {0, inf}, that is at lambda in {zeta,
    zeta^2}."""
    phi = phi_of_lambda(spec, label.param)
    n = label.dim // 2
    if phi is INF:
        word = StringWord(KLEIN_CD, (rev("D"), fwd("C")) * (n - 1)
                          + (rev("D"),))
        rep = string_module_matrices(spec, word)
    elif not phi:
        word = StringWord(KLEIN_CD, (rev("C"), fwd("D")) * (n - 1)
                          + (rev("C"),))
        rep = string_module_matrices(spec, word)
    else:
        rep = band_module_matrices(spec, BandWord(KLEIN_CD, "D ~C"), n, phi)
    rep.validate()
    A, B = _ab_from_cd(spec, rep.arrow_mats["C"], rep.arrow_mats["D"])
    I = Matrix.identity(spec, rep.total_dim)
    return GroupRep("H", spec, I + A, I + B)


def a4_quiver_rep_from_group(grep):
    """The graded quiver picture of a G-representation, the reference
    for the oracle's radical pencil.

    Splits the space by rho eigenvalue, rewrites sigma and tau through
    the C, D letters and reads off the arrow blocks by the row-reduced
    solve, which raises when a vector leaves the space it should lie in
    (the oracle reads the same coordinates unchecked); raises when the
    length-two products do not vanish.
    """
    assert grep.group == "G"
    spec = grep.spec
    z = spec.zeta()
    I = Matrix.identity(spec, grep.dim)
    r = grep.rho
    rr = r @ r
    bases = [col_basis(I + r.scale(z ** (-i)) + rr.scale(z ** (-2 * i)))
             for i in range(3)]
    assert sum(b.cols for b, _ in bases) == grep.dim
    A = grep.sigma + I
    B = grep.tau + I
    AB = A @ B
    C = A.scale(z) + B.scale(z * z) + AB
    D = A + B.scale(z * z) + AB.scale(z)
    arrow_mats = {}
    for name, (s, t) in A4_QUIVER.arrows.items():
        mat = C if name.startswith("g") else D
        arrow_mats[name] = coords_in_basis(bases[t][0], mat @ bases[s][0])
    rep = QuiverRep(A4_QUIVER, spec, {i: bases[i][0].cols for i in range(3)},
                    arrow_mats)
    rep.validate()
    return rep


def reference_a4_pencil(M):
    """The graded pencil (D, C) of a G-representation through its quiver
    representation: D[v] maps the top at vertex v to the radical at
    v - 1, C[v] to the radical at v + 1."""
    qrep = a4_quiver_rep_from_group(M)
    spec = M.spec
    gout = {}
    dout = {}
    for name, (s, t) in qrep.quiver.arrows.items():
        (gout if name.startswith("g") else dout)[s] = qrep.arrow_mats[name]
    rad = [col_basis(hstack([gout[(v + 2) % 3], dout[(v + 1) % 3]]))
           for v in range(3)]
    C, D = [], []
    for v in range(3):
        top = _complement(rad[v][1], qrep.vertex_dims[v])
        C.append(coords_in_basis(rad[(v + 1) % 3][0],
                                 Matrix(spec, gout[v].a[:, top])))
        D.append(coords_in_basis(rad[(v + 2) % 3][0],
                                 Matrix(spec, dout[v].a[:, top])))
    return D, C
