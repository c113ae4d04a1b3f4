"""Branch-point invariants of the Klein-four subcover.

The input is a trace-zero function alpha on the line with coordinate
s, reduced to standard form first.  The quotient curve is cut out by
the two equations u^2 - u = alpha and v^2 - v = rho(alpha), and its
branch points are the poles of alpha together with their images under
s -> zeta s.  At each branch point y three pole orders matter: those of
alpha, rho(alpha) and rho^2(alpha).  Since the three conjugates sum to
zero, the two largest orders agree, so the triple is {m, M, M} with
m <= M, both odd.

When m = M, expanding the two functions that realize the small order in
a local uniformizer and solving a square-root recursion produces the
theta coefficients; theta_0 is the local parameter lambda and the first
index where theta deviates from constant is the defect delta.  When
m < M the parameter degenerates to one of {0, 1, oo} according to which
conjugate carries the small order, and delta = -1.

Finite branch points away from 0 come in orbits {psi, zeta psi,
zeta^2 psi}.  Along an orbit lambda moves by the Moebius step
lambda -> (1 + lambda)/lambda, and the orbit is classified by the value
at its representative.  The points 0 and oo are fixed by the twist,
always have m = M, and carry lambda = zeta^(eps p) with eps = +1 at 0
and -1 at oo.

All arithmetic is exact.  Derived relations that admit an independent
check (the Moebius chain, the special-point lambda formula, constancy
of delta along an orbit) are raised explicitly rather than trusted;
what a record's own construction fixes is not checked again.
"""

from .artin_schreier import as_reduce, symmetrize_h
from .gf import _mask_inv, _mask_mul
from .ratlaurent import LaurentChunk, Place


class ProjectiveInfinity:
    """The extra point of the projective parameter line.

    Singleton: lambda and phi values are either field elements or this
    object.  Serializes as the string "inf".
    """

    __slots__ = ()
    _the = None

    def __new__(cls):
        if cls._the is None:
            cls._the = super().__new__(cls)
        return cls._the

    def __repr__(self):
        return "INF"


INF = ProjectiveInfinity()

# Orbit classes in report order.
KLASSES = ("Zeta", "ZetaSq", "Generic", "Degenerate")


def param_to_json(value):
    """A lambda or phi value as a JSON scalar (mask, or "inf")."""
    return "inf" if value is INF else value.mask


def mobius_step(spec, lam):
    """lambda -> (1 + lambda)/lambda on the projective parameter line."""
    if lam is INF:
        return spec.one()
    if not lam:
        return INF
    return (spec.one() + lam) / lam


def phi_of_lambda(spec, lam):
    """phi = (zeta + lambda)/(zeta^2 + lambda).

    Sends zeta -> 0, zeta^2 -> oo, oo -> 1, 0 -> zeta^2, 1 -> zeta; the
    Moebius step on lambda becomes multiplication by a cube root of
    unity on phi, so phi^3 is an orbit invariant.
    """
    z = spec.zeta()
    if lam is INF:
        return spec.one()
    if lam == z * z:
        return INF
    return (z + lam) / (z * z + lam)


def lambda_of_phi(spec, phi):
    """Inverse of phi_of_lambda: lambda = zeta(1 + zeta phi)/(1 + phi)."""
    z = spec.zeta()
    if phi is INF:
        return z * z
    if phi == spec.one():
        return INF
    return z * (spec.one() + z * phi) / (spec.one() + phi)


def theta_coefficients(alpha_chunk, beta_chunk, m):
    """Solve beta_{2i} = sum_{i1+i2=i} alpha_{2 i1} theta_{i2}^2 for theta.

    alpha_chunk and beta_chunk are leading Laurent data of the two local
    expansions in the same uniformizer; alpha_chunk must start exactly
    at order -m with a unit coefficient.  Returns the list theta_0 ..
    theta_{floor(m/4)}.  Chunk entries beyond the stored range count as
    zero, so callers must supply at least 2*floor(m/4) + 1 coefficients.

    The same recursion serves the points with m < M, where beta_chunk
    starts lower (at order -M); there theta_0 is only required to be
    nonzero, while at an m = M point theta_0 in {0, 1} is rejected.
    """
    lead = alpha_chunk.coeffs[0]
    spec = lead.spec
    if alpha_chunk.order != -m or not lead:
        raise ValueError("degenerate leading coefficient")
    if beta_chunk.order > alpha_chunk.order:
        raise ValueError("degenerate leading coefficient")
    if (beta_chunk.order - alpha_chunk.order) % 2:
        raise ValueError("degenerate leading coefficient")
    # on masks: theta_i^2 = acc / lead is kept for the later steps, and
    # only theta_i itself takes a square root
    a = [c.mask for c in alpha_chunk.coeffs[:2 * (m // 4) + 1:2]]
    b = [c.mask for c in beta_chunk.coeffs[:2 * (m // 4) + 1:2]]
    a += [0] * (m // 4 + 1 - len(a))
    b += [0] * (m // 4 + 1 - len(b))
    lead_inv = _mask_inv(spec, lead.mask)
    squares = []
    for i in range(m // 4 + 1):
        acc = b[i]
        for i2, t2 in enumerate(squares):
            acc ^= _mask_mul(spec, a[i - i2], t2)
        squares.append(_mask_mul(spec, acc, lead_inv))
    theta = [spec.element(t2).sqrt() for t2 in squares]
    if not theta[0]:
        raise ValueError("degenerate leading coefficient")
    if beta_chunk.order == alpha_chunk.order and theta[0].mask == 1:
        raise ValueError("degenerate leading coefficient")
    return theta


def lambda_delta(spec, p_values, theta):
    """The (lambda, delta) pair for one branch point.

    p_values is the triple of pole orders of (alpha, rho alpha,
    rho^2 alpha) at the point.  With all three equal, lambda = theta_0
    and delta is the least index in 1..floor(m/4) where theta is
    nonzero, or 0 if there is none.  With m < M, delta = -1 and lambda
    records which conjugate realizes m: oo, 0, 1 respectively.
    """
    pa, pb, pc = p_values
    if pa == pb == pc:
        lam = theta[0]
        if lam.mask in (0, 1):
            raise ValueError("degenerate leading coefficient")
        delta = 0
        for i in range(1, len(theta)):
            if theta[i]:
                delta = i
                break
        return lam, delta
    m = min(p_values)
    if pa == m:
        return INF, -1
    if pb == m:
        return spec.zero(), -1
    return spec.one(), -1


class BranchPoint:
    """Complete local record at one branch point of the subcover."""

    __slots__ = ("place", "p_alpha", "p_rho_alpha", "p_rho2_alpha",
                 "m", "M", "lam", "delta", "epsilon", "theta")

    def __init__(self, place, p_values, lam, delta, epsilon, theta):
        pa, pb, pc = p_values
        if not all(p > 0 and p % 2 == 1 for p in p_values):
            raise AssertionError(f"pole orders {p_values} not odd poles")
        srt = sorted(p_values)
        # the three conjugates sum to zero, so the two largest agree
        if srt[1] != srt[2]:
            raise AssertionError(f"pole orders {p_values} not M, M, m")
        self.place = place
        self.p_alpha = pa
        self.p_rho_alpha = pb
        self.p_rho2_alpha = pc
        self.m = srt[0]
        self.M = srt[2]
        self.lam = lam
        self.delta = delta
        self.epsilon = epsilon
        self.theta = list(theta)
        # with lambda outside {0, 1} (lambda_delta), this also rules out
        # m = 0 (mod 3) at a fixed point
        if epsilon is not None and \
                lam != lam.spec.zeta() ** ((epsilon * self.m) % 3):
            raise AssertionError(
                f"lambda {lam.mask} at {place.key()} is not "
                f"zeta^(epsilon m) with epsilon = {epsilon}, m = {self.m}")

    @property
    def p_values(self):
        return (self.p_alpha, self.p_rho_alpha, self.p_rho2_alpha)

    def different(self):
        """Exponent of the different of the subcover above this point."""
        return 3 * (self.m + 1) + 2 * (self.M - self.m)

    def jumps(self):
        """Ramification jumps of the local Klein-four extension."""
        if self.m == self.M:
            return (self.m,)
        return (self.m, self.m + 2 * (self.M - self.m))

    def to_json(self):
        return {
            "place": self.place.key(),
            "p_alpha": self.p_alpha,
            "p_rho_alpha": self.p_rho_alpha,
            "p_rho2_alpha": self.p_rho2_alpha,
            "m": self.m,
            "M": self.M,
            "lambda": param_to_json(self.lam),
            "delta": self.delta,
            "epsilon": self.epsilon,
            "theta": [t.mask for t in self.theta],
            "different": self.different(),
            "jumps": list(self.jumps()),
        }


def _orbit_klass(spec, lam):
    if lam is INF or lam.mask in (0, 1):
        return "Degenerate"
    z = spec.zeta()
    if lam == z:
        return "Zeta"
    if lam == z * z:
        return "ZetaSq"
    return "Generic"


class Orbit:
    """An orbit {psi, zeta psi, zeta^2 psi} of finite branch points.

    points are the branch points at psi, zeta psi and zeta^2 psi; their
    pole orders are rotations of one triple, so they share (m, M).  phi
    and the class are read off the representative's lambda.
    """

    __slots__ = ("psi", "points", "phi", "klass")

    def __init__(self, psi, points):
        spec = psi.spec
        p0, p1, p2 = points
        # the step has order 3, so the third link follows from these two
        if not (_same_param(p1.lam, mobius_step(spec, p0.lam))
                and _same_param(p2.lam, mobius_step(spec, p1.lam))):
            raise AssertionError(
                f"orbit psi = {psi.mask}: lambdas "
                f"{[param_to_json(bp.lam) for bp in points]} break the "
                "Moebius chain")
        if not p0.delta == p1.delta == p2.delta:
            raise AssertionError(
                f"orbit psi = {psi.mask}: delta "
                f"{[bp.delta for bp in points]} varies along the orbit")
        self.psi = psi
        self.points = tuple(points)
        self.phi = phi_of_lambda(spec, p0.lam)
        self.klass = _orbit_klass(spec, p0.lam)

    @property
    def lam(self):
        return self.points[0].lam

    @property
    def m(self):
        return self.points[0].m

    @property
    def M(self):
        return self.points[0].M

    @property
    def delta(self):
        return self.points[0].delta

    def to_json(self):
        return {
            "psi": self.psi.mask,
            "phi": param_to_json(self.phi),
            "klass": self.klass,
            "points": [bp.to_json() for bp in self.points],
        }


def _same_param(a, b):
    if a is INF or b is INF:
        return a is b
    return a == b


class RamData:
    """Organized branch data of one datum.

    special lists the branch points among {oo, 0}, infinity first;
    orbits lists the finite orbits sorted by class then representative.
    genus, differents and jumps are the global numerology of the
    subcover.  alpha is the reduced function actually analyzed; if the
    original had its branch locus meeting {0, oo} only in 0, the
    substitution s -> 1/s was applied first and inverted is set.
    """

    __slots__ = ("spec", "alpha", "special", "orbits", "inverted",
                 "genus", "differents", "jumps")

    def __init__(self, spec, alpha, special, orbits, inverted):
        self.spec = spec
        self.alpha = alpha
        self.special = list(special)
        self.orbits = list(orbits)
        self.inverted = bool(inverted)
        self.genus, self.differents, self.jumps = _numerology(
            list(self.branch_points()))

    @property
    def r(self):
        return len(self.special)

    def branch_points(self):
        """All branch points: special first, then orbits in order."""
        for bp in self.special:
            yield bp
        for orb in self.orbits:
            yield from orb.points

    def to_json(self):
        return {
            "field": self.spec.to_json(),
            "inverted": self.inverted,
            "r": self.r,
            "genus": self.genus,
            "special": [bp.to_json() for bp in self.special],
            "orbits": [orb.to_json() for orb in self.orbits],
            "differents": dict(sorted(self.differents.items())),
            "jumps": {k: list(v) for k, v in sorted(self.jumps.items())},
        }


def _numerology(points):
    if not points:
        raise ValueError("empty branch locus")
    differents = {}
    jumps = {}
    total = 0
    for bp in points:
        d = bp.different()
        differents[bp.place.key()] = d
        jumps[bp.place.key()] = bp.jumps()
        total += d
    # every different is even, since the pole orders are odd
    genus = -3 + total // 2
    if genus < 0:
        raise ValueError("negative genus")
    return genus, differents, jumps


def _analyze_point(spec, place, p_values, chunks, epsilon):
    # p_values, chunks: alpha's pole orders and 2 (m // 4) + 1 Laurent
    # coefficients at zeta^k place, k = 0, 1, 2: those of rho^k alpha at
    # place, whose coefficient of pi^j is alpha's times zeta^(kj), or
    # zeta^(-kj) in the uniformizer 1/s at oo
    m = min(p_values)
    z = spec.zeta()
    zeta_powers = (spec.one(), z, z * z)
    sign = -1 if place.is_infinity() else 1

    def conjugate(k):
        return LaurentChunk(place, chunks[k].order, [
            c * zeta_powers[sign * k * (chunks[k].order + i) % 3]
            for i, c in enumerate(chunks[k].coeffs)])
    # the conjugate realizing the small order leads the pair; the
    # second expansion is fixed per case, not by cyclic order
    a, b = (0, 1) if p_values[0] == m else (1, 0) if p_values[1] == m \
        else (2, 1)
    theta = theta_coefficients(conjugate(a), conjugate(b), m)
    lam, delta = lambda_delta(spec, p_values, theta)
    return BranchPoint(place, p_values, lam, delta, epsilon, theta)


def analyze_branch_data(alpha):
    """Full branch-point analysis of a datum alpha.

    alpha is admitted and reduced by symmetrize_h, which raises
    ValueError on a nonzero trace or a trivial datum.  The reduction's
    pole table is read as the poles of its alpha_reduced, which are not
    factored again: ord_y(rho^k alpha) = ord_(zeta^k y)(alpha), and 0 and
    oo are fixed.  The conjugates' Laurent data are read off alpha's, one
    expansion per point.  Raises ValueError on a finite pole whose orbit
    is not contained in the branch locus (the subcover is then not
    totally ramified above it), or degenerate leading data.
    """
    form = symmetrize_h(alpha)
    alpha, pole_table = form.alpha_reduced, form.pole_table
    spec = alpha.spec

    inf_pl = Place.infinity()
    zero_pl = Place.zero(spec)
    inverted = False
    if zero_pl in pole_table and inf_pl not in pole_table:
        # normalize so that any special branch point includes infinity
        form = as_reduce(alpha.substitute_inverse())
        alpha, pole_table = form.alpha_reduced, form.pole_table
        inverted = True
        # s -> 1/s swaps the poles at 0 and oo; the reduction keeps the
        # odd leading order at oo and puts no leg at the regular 0

    z = spec.zeta()
    finite = {}
    for pl, p in pole_table.items():
        if pl == inf_pl or pl == zero_pl:
            continue
        finite[pl.value.mask] = p
    for mask in finite:
        v = spec.element(mask)
        if (z * v).mask not in finite or (z * z * v).mask not in finite:
            raise ValueError("branch point not totally ramified")

    special = []
    for pl, eps in ((inf_pl, -1), (zero_pl, 1)):
        if pl in pole_table:
            p = pole_table[pl]
            chunk = alpha.laurent_at(pl, 2 * (p // 4) + 1)
            special.append(
                _analyze_point(spec, pl, (p,) * 3, [chunk] * 3, eps))

    orbits = []
    seen = set()
    for mask in sorted(finite):
        if mask in seen:
            continue
        v = spec.element(mask)
        chain = [v, z * v, z * z * v]
        seen.update(c.mask for c in chain)
        psi = min(chain, key=lambda c: c.mask)
        places = [Place.finite(z ** k * psi) for k in range(3)]
        orders = [finite[pl.value.mask] for pl in places]
        chunks = [alpha.laurent_at(pl, 2 * (min(orders) // 4) + 1)
                  for pl in places]
        points = tuple(
            _analyze_point(spec, places[k], tuple(orders[k:] + orders[:k]),
                           chunks[k:] + chunks[:k], None)
            for k in range(3))
        orbits.append(Orbit(psi, points))
    orbits.sort(key=lambda o: (KLASSES.index(o.klass), o.psi.mask))

    return RamData(spec, alpha, special, orbits, inverted)
