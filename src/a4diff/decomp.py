"""Closed-form decomposition of the space of holomorphic differentials.

Two module inventories are in play.  Over the Klein four group H the
indecomposables that occur are the trivial module, the 3-dimensional
string M_{3,1}, and the even-dimensional modules N_{2n,lambda} indexed
by a projective parameter.  Over G (isomorphic to A4) they are the
simples S_i, the strings M_{3,1,i}, the even strings N_{2n,*,i} with
* in {0, oo}, and the bands B_{6n,mu} with mu in the multiplicative
group.

The per-point recipe: from (m, M, delta) and the floor data mu_1, mu_2,
mu_3, nu, solve mu_2 - mu_1 = (l - 1) step + a_1 for the string length
l and the two multiplicities a_1, a_2 = step - a_1, where the step is
delta (or nu when delta = -1; the case delta = 0 collapses to l = 1).
Globally String(3,1) appears b = -1 + sum mu_1 times and the trivial
module c = sum (mu_3 - mu_2) times.

Over G the same totals are distributed over the three characters i of
the cyclic quotient by Euclidean division value = 3q + r: every i gets
q, and one or two distinguished residues determined by eps y and the
basis offsets get q + 1.  Those congruence tables are implemented
verbatim, case by case, with no algebraic consolidation, so each line
can be audited against the recipe it encodes.  Everything is checked
against the genus and, in tests, against restriction and against
explicit matrix models.
"""

from .ramification import INF, param_to_json, lambda_of_phi
from .ratlaurent import Poly, poly_roots

KH_KINDS = ("Triv", "String", "EvenDim")
KG_KINDS = ("Simple", "OddString", "EvenString", "Band")


def _param_key(param):
    # sortable, hashable image of k union {oo}; the symbolic star 0 of
    # an even string and the zero field element collapse to the same key
    if param is INF:
        return (1, 0)
    if isinstance(param, int):
        return (0, param)
    return (0, param.mask)


class KHLabel:
    """An indecomposable label over the Klein four group."""

    __slots__ = ("kind", "dim", "x", "param")

    def __init__(self, kind, dim, x=None, param=None):
        assert kind in KH_KINDS
        self.kind = kind
        self.dim = dim
        self.x = x
        self.param = param
        if kind == "Triv":
            assert dim == 1 and x is None and param is None
        elif kind == "String":
            assert dim >= 3 and dim % 2 == 1 and x in (1, 2)
        else:
            assert dim >= 2 and dim % 2 == 0
            assert param is INF or param.mask >= 0

    @classmethod
    def triv(cls):
        return cls("Triv", 1)

    @classmethod
    def string(cls, dim, x):
        return cls("String", dim, x=x)

    @classmethod
    def even(cls, dim, param):
        return cls("EvenDim", dim, param=param)

    def key(self):
        if self.kind == "Triv":
            return (0, 1, 0, (0, 0))
        if self.kind == "String":
            return (1, self.dim, self.x, (0, 0))
        return (2, self.dim, 0, _param_key(self.param))

    def __eq__(self, other):
        return isinstance(other, KHLabel) and self.key() == other.key()

    def __hash__(self):
        return hash(("KH",) + self.key())

    def label_str(self):
        if self.kind == "Triv":
            return "Triv"
        if self.kind == "String":
            return f"M[2n+1={self.dim},x={self.x}]"
        return f"N[2n={self.dim},lambda={param_to_json(self.param)}]"

    def params_json(self):
        if self.kind == "Triv":
            return {}
        if self.kind == "String":
            return {"dim": self.dim, "x": self.x}
        return {"dim": self.dim, "lambda": param_to_json(self.param)}

    def __repr__(self):
        return self.label_str()


class KGLabel:
    """An indecomposable label over G."""

    __slots__ = ("kind", "dim", "x", "i", "param", "phi")

    def __init__(self, kind, dim, x=None, i=None, param=None, phi=None):
        assert kind in KG_KINDS
        self.kind = kind
        self.dim = dim
        self.x = x
        self.i = i
        self.param = param
        self.phi = phi
        if kind == "Simple":
            assert dim == 1 and i in (0, 1, 2)
        elif kind == "OddString":
            assert dim >= 3 and dim % 2 == 1 and x in (1, 2) and i in (0, 1, 2)
        elif kind == "EvenString":
            assert dim >= 2 and dim % 2 == 0 and i in (0, 1, 2)
            assert param is INF or param == 0
        else:
            assert dim >= 6 and dim % 6 == 0
            assert param is not INF and param
            assert phi is None or phi ** 3 == param

    @classmethod
    def simple(cls, i):
        return cls("Simple", 1, i=i)

    @classmethod
    def odd(cls, dim, x, i):
        return cls("OddString", dim, x=x, i=i)

    @classmethod
    def even(cls, dim, star, i):
        return cls("EvenString", dim, i=i, param=star)

    @classmethod
    def band(cls, dim, mu, phi=None):
        return cls("Band", dim, param=mu, phi=phi)

    def key(self):
        if self.kind == "Simple":
            return (0, 1, 0, self.i, (0, 0))
        if self.kind == "OddString":
            return (1, self.dim, self.x, self.i, (0, 0))
        if self.kind == "EvenString":
            return (2, self.dim, 0, self.i, _param_key(self.param))
        return (3, self.dim, 0, 0, (0, self.param.mask))

    def __eq__(self, other):
        return isinstance(other, KGLabel) and self.key() == other.key()

    def __hash__(self):
        return hash(("KG",) + self.key())

    def label_str(self):
        if self.kind == "Simple":
            return f"S[i={self.i}]"
        if self.kind == "OddString":
            return f"M[2n+1={self.dim},x={self.x},i={self.i}]"
        if self.kind == "EvenString":
            star = "inf" if self.param is INF else 0
            return f"N[2n={self.dim},*={star},i={self.i}]"
        return f"B[6n={self.dim},mu={self.param.mask}]"

    def params_json(self):
        if self.kind == "Simple":
            return {"i": self.i}
        if self.kind == "OddString":
            return {"dim": self.dim, "x": self.x, "i": self.i}
        if self.kind == "EvenString":
            star = "inf" if self.param is INF else 0
            return {"dim": self.dim, "*": star, "i": self.i}
        out = {"dim": self.dim, "mu": self.param.mask}
        if self.phi is not None:
            out["phi"] = self.phi.mask
        return out

    def __repr__(self):
        return self.label_str()


class Decomposition:
    """A finite multiset of labels with positive multiplicities.

    The field spec rides along so that restriction can name zeta; it
    does not take part in equality, nor does the note.
    """

    __slots__ = ("side", "entries", "note", "spec")

    def __init__(self, side, entries=None, note=None, *, spec):
        assert side in ("kH", "kG")
        self.side = side
        self.entries = {}
        self.note = note
        self.spec = spec
        if entries:
            for label, mult in entries:
                self.add(label, mult)

    def add(self, label, mult=1):
        want = KHLabel if self.side == "kH" else KGLabel
        assert isinstance(label, want)
        if mult < 0:
            raise ValueError("inconsistent invariants")
        if mult == 0:
            return
        self.entries[label] = self.entries.get(label, 0) + mult

    def mult(self, label):
        return self.entries.get(label, 0)

    @property
    def total_dim(self):
        return sum(label.dim * m for label, m in self.entries.items())

    def __eq__(self, other):
        return (isinstance(other, Decomposition) and self.side == other.side
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.side, frozenset(self.entries.items())))

    def sorted_entries(self):
        return sorted(self.entries.items(), key=lambda kv: kv[0].key())

    def to_json(self):
        out = {
            "side": self.side,
            "total_dim": self.total_dim,
            "entries": [
                {"label": label.label_str(), "params": label.params_json(),
                 "mult": mult}
                for label, mult in self.sorted_entries()
            ],
        }
        if self.note:
            out["note"] = self.note
        return out

    def __repr__(self):
        body = " + ".join(
            f"{label!r}^{mult}" if mult > 1 else repr(label)
            for label, mult in self.sorted_entries())
        return f"<{self.side}: {body or '0'}>"


class MuNu:
    """Floor bookkeeping attached to one branch point."""

    __slots__ = ("mu1", "mu2", "mu3", "nu", "a_y", "k_y")

    def __init__(self, mu1, mu2, mu3, nu, a_y, k_y):
        self.mu1 = mu1
        self.mu2 = mu2
        self.mu3 = mu3
        self.nu = nu
        self.a_y = a_y
        self.k_y = k_y


def mu_nu(bp, data):
    """The (mu_1, mu_2, mu_3, nu) floors and the basis flags a, k."""
    m = bp.m
    mu1 = (m + 3) // 4
    mu2 = (2 * m + 3) // 4
    mu3 = (3 * m + 3) // 4
    nu = (bp.M - m) // 2
    at_inf = bp.place.is_infinity()
    k_y = -2 if at_inf else 0
    r = data.r
    is_first = bool(data.orbits) and bp.place == data.orbits[0].points[0].place
    if r >= 1 and at_inf:
        a_y = 0
    elif r == 0 and is_first:
        a_y = 2
    else:
        a_y = 1
    return MuNu(mu1, mu2, mu3, nu, a_y, k_y)


def _string_block(bp, mn):
    """The string length l and multiplicities (a_1, a_2) at one point.

    Solves mu_2 - mu_1 = (l - 1) step + a_1 with 1 <= a_1 <= step,
    where step = delta for delta >= 1 and step = nu for delta = -1
    (the target then gains nu); delta = 0 collapses to l = 1.
    """
    gap = mn.mu2 - mn.mu1
    if bp.delta == 0:
        return 1, gap, 0
    if bp.delta >= 1:
        step, target = bp.delta, gap
    else:
        step, target = mn.nu, gap + mn.nu
    if step < 1 or target < 1:
        raise ValueError("inconsistent invariants")
    a1 = (target - 1) % step + 1
    l = (target - a1) // step + 1
    return l, a1, step - a1


def _add_even_pair(dec, make_label, l, a1, a2):
    if a1:
        dec.add(make_label(l), a1)
    if a2 and l >= 2:
        dec.add(make_label(l - 1), a2)


def kH_decomposition(data):
    """Decomposition over the Klein four group; dimension = genus."""
    dec = Decomposition("kH", spec=data.spec)
    b = -1
    c = 0
    for bp in data.branch_points():
        mn = mu_nu(bp, data)
        b += mn.mu1
        c += mn.mu3 - mn.mu2
        l, a1, a2 = _string_block(bp, mn)
        lam = bp.lam
        _add_even_pair(dec, lambda n: KHLabel.even(2 * n, lam), l, a1, a2)
    if b < 0:
        raise ValueError("inconsistent invariants")
    dec.add(KHLabel.string(3, 1), b)
    dec.add(KHLabel.triv(), c)
    _check_genus(dec, data)
    return dec


def _check_genus(dec, data):
    if dec.total_dim != data.genus:
        raise AssertionError(
            f"{dec.side} closed form has dimension {dec.total_dim}, "
            f"not the genus {data.genus}")


def _split3(value, eps, offset):
    """Euclidean split value = 3q + r over the three characters.

    Every index gets q; for r >= 1 the index congruent to
    1 - eps * offset gets one more, and for r = 2 the index congruent
    to 1 - eps * (offset + 1) gets one more as well.
    """
    if value < 0:
        raise ValueError("inconsistent invariants")
    q, rem = divmod(value, 3)
    out = [q, q, q]
    if rem >= 1:
        out[(1 - eps * offset) % 3] += 1
    if rem == 2:
        out[(1 - eps * (offset + 1)) % 3] += 1
    return out


def _star_of(spec, lam):
    return 0 if lam == spec.zeta() else INF


def kG_decomposition(data):
    """Decomposition over G; refines the Klein four answer by character.

    Special points split their multiplicities by the congruence tables;
    zeta-class and zeta-squared-class orbits replicate the Klein four
    multiplicities across all three characters with * = 0 resp. oo;
    generic and degenerate orbits contribute bands with parameter phi^3
    resp. 1.
    """
    spec = data.spec
    dec = Decomposition("kG", spec=spec)
    b_i = [0, 0, 0]
    c_i = [0, 0, 0]
    for bp in data.special:
        mn = mu_nu(bp, data)
        eps = bp.epsilon
        l, a1, a2 = _string_block(bp, mn)
        star = _star_of(spec, bp.lam)
        for i, mult in enumerate(_split3(a1, eps, mn.mu1 + mn.k_y + 1)):
            if mult:
                dec.add(KGLabel.even(2 * l, star, i), mult)
        if l >= 2:
            off2 = mn.mu1 + mn.k_y + a1 + 1
            for i, mult in enumerate(_split3(a2, eps, off2)):
                if mult:
                    dec.add(KGLabel.even(2 * (l - 1), star, i), mult)
        for i, mult in enumerate(_split3(mn.mu1 + mn.k_y - mn.a_y + 1,
                                         eps, mn.a_y)):
            b_i[i] += mult
        for i, mult in enumerate(_split3(mn.mu3 - mn.mu2,
                                         eps, mn.mu2 + mn.k_y + 1)):
            c_i[i] += mult
    if data.r == 0:
        # the delta(r, i) correction: one String(3,1,0) less
        b_i[0] -= 1
    for orb in data.orbits:
        bp = orb.points[0]
        mn = mu_nu(bp, data)
        l, a1, a2 = _string_block(bp, mn)
        for i in range(3):
            b_i[i] += mn.mu1
            c_i[i] += mn.mu3 - mn.mu2
        if orb.klass == "Zeta":
            for i in range(3):
                _add_even_pair(dec, lambda n, i=i: KGLabel.even(2 * n, 0, i),
                               l, a1, a2)
        elif orb.klass == "ZetaSq":
            for i in range(3):
                _add_even_pair(dec, lambda n, i=i: KGLabel.even(2 * n, INF, i),
                               l, a1, a2)
        elif orb.klass == "Generic":
            mu = orb.phi ** 3
            _add_even_pair(
                dec, lambda n: KGLabel.band(6 * n, mu, phi=orb.phi), l, a1, a2)
        else:
            _add_even_pair(
                dec, lambda n: KGLabel.band(6 * n, spec.one()), l, a1, a2)
    for i in range(3):
        if b_i[i] < 0:
            raise ValueError("inconsistent invariants")
        dec.add(KGLabel.odd(3, 1, i), b_i[i])
        dec.add(KGLabel.simple(i), c_i[i])
    if data.r == 0:
        dec.note = ("r = 0 datum: multiplicity congruences use the a(y) "
                    "offsets; the b(y) basis flags do not enter them")
    _check_genus(dec, data)
    return dec


def _cube_root(spec, mu):
    # x^3 + mu splits into the three cube roots when mu is a cube;
    # pick the smallest mask so repeated calls agree
    roots = poly_roots(Poly(spec, (mu.mask, 0, 0, 1)),
                       context="band parameter")
    return spec.element(min(roots))


def restrict_decomposition(d):
    """Label-wise restriction of a decomposition over G to one over H.

    Simples restrict to the trivial module, odd strings to odd strings,
    even strings with * = 0 resp. oo to N_{2n,zeta} resp.
    N_{2n,zeta squared}, and a band B_{6n,mu} to the three modules
    N_{2n,lambda(zeta^j phi)} where phi is a cube root of mu, taken
    from the band's provenance when it has one.
    """
    assert d.side == "kG"
    spec = d.spec
    out = Decomposition("kH", spec=spec)
    for label, mult in d.sorted_entries():
        if label.kind == "Simple":
            out.add(KHLabel.triv(), mult)
        elif label.kind == "OddString":
            out.add(KHLabel.string(label.dim, label.x), mult)
        elif label.kind == "EvenString":
            z = spec.zeta()
            lam = z if label.param == 0 else z * z
            out.add(KHLabel.even(label.dim, lam), mult)
        else:
            mu = label.param
            fs = mu.spec
            phi = label.phi if label.phi is not None else _cube_root(fs, mu)
            z = fs.zeta()
            for j in range(3):
                lam_j = lambda_of_phi(fs, z ** j * phi)
                out.add(KHLabel.even(label.dim // 3, lam_j), mult)
    return out
