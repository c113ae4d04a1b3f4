"""Rational functions over GF(2^m) with exact local expansions.

A RatFunc is a reduced fraction num/den with monic denominator; all
consumers rely on that canonical form (pole orders are read off the
denominator, gcd-freeness makes them honest).  Sums are formed over the
lcm of the denominators, so the canonicalising gcd runs at the degree of
the lcm, not of the product.  Where the field has scalar tables
(gf.TABLE_M), polynomial products and long division run in the
log domain: the logs of the fixed operand are taken once, and each term
is one exp lookup.

Local data at a place c is computed adically.  In characteristic 2,
(s + c)^(2^j) = s^(2^j) + c^(2^j), so the multiplicity v of the root c and
the cofactor q with p = (s + c)^v q take O(log v) synthetic divisions by
such binomials, O(deg) each.  The first `count` Laurent coefficients then
take one division of each cofactor by (s + c)^(2^j) with 2^j >= count,
and halvings of the remainder by smaller such binomials: O(deg + count
log count) scalar multiplies by fixed scalars, each a byte-table lookup.
At infinity the substitution s -> 1/s reverses the coefficient lists,
which are already the expansions: no multiplies at all.

The roots of p in the field are those of its split part gcd(p, s^(2^m) + s),
which is squarefree and which trace splitting takes apart.  The Frobenius
powers s^(2^i) mod p are computed once per polynomial and reduced into each
factor.  root_split then takes each root's multiplicity off p, also at
roots a caller already knows, with no search.

The degree-3 twist rho acts on functions by (rho f)(s) = f(zeta s); the
trace to the fixed field k(s^3) is f + rho f + rho^2 f.  A pullback is
built with no gcd: rho is an automorphism of k[s].
"""

from __future__ import annotations

from .gf import (FieldSpec, FieldElement, _mask_inv, _mask_mul,
                 _scalar_tables, fixed_multiplier)


def _multiplier(spec: FieldSpec, d: int):
    """Multiplication by d as byte-table lookups; None for d = 0."""
    return fixed_multiplier(d, spec.modulus) if d else None


def _divmod_binomial(coeffs, k: int, mul):
    """(quotient, remainder) coefficient lists of p / (s^k + d).

    mul multiplies by d; None means d = 0, where the division is a shift.
    Top-down synthetic division: the quotient's coefficients are left in
    place above position k.
    """
    if mul is None:
        return coeffs[k:], coeffs[:k]
    rem = list(coeffs)
    for i in range(len(rem) - 1, k - 1, -1):
        t = rem[i]
        if t:
            rem[i - k] ^= mul(t)
    return rem[k:], rem[:k]


class Poly:
    """Polynomial over GF(2^m); coeffs are masks, lowest degree first.

    Invariant: no trailing zero coefficients (zero polynomial = empty tuple).
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        self.spec = spec
        self.coeffs = tuple(coeffs[:n])

    @classmethod
    def x(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (0, 1))

    @property
    def degree(self) -> int:
        """Degree, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, m in enumerate(b):
            out[i] ^= m
        return Poly(self.spec, out)

    __sub__ = __add__

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(self.spec, ())
        spec = self.spec
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        t = _scalar_tables(spec)
        if t is None:
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] ^= _mask_mul(spec, a, b)
            return Poly(spec, out)
        # in the log domain: the logs of other once, then one exp lookup
        # per pair of nonzero coefficients
        exp, log = t
        logs = [(j, log[b]) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                la = log[a]
                for j, lb in logs:
                    out[i + j] ^= exp[la + lb]
        return Poly(spec, out)

    def scale(self, mask: int) -> "Poly":
        """Multiply by a nonzero constant."""
        spec = self.spec
        return Poly(spec, [_mask_mul(spec, c, mask) for c in self.coeffs])

    def monic(self) -> "Poly":
        if self.leading() in (0, 1):
            return self
        return self.scale(_mask_inv(self.spec, self.leading()))

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        spec = self.spec
        rem = list(self.coeffs)
        dd = other.degree
        lead = other.leading()
        q = [0] * max(0, len(rem) - dd)
        t = _scalar_tables(spec)
        if t is None:
            lead_inv = 1 if lead == 1 else _mask_inv(spec, lead)
            for i in range(len(rem) - 1, dd - 1, -1):
                if rem[i] == 0:
                    continue
                f = (rem[i] if lead_inv == 1
                     else _mask_mul(spec, rem[i], lead_inv))
                q[i - dd] = f
                for j, b in enumerate(other.coeffs):
                    if b:
                        rem[i - dd + j] ^= _mask_mul(spec, f, b)
            return Poly(spec, q), Poly(spec, rem)
        # in the log domain: the logs of the divisor below its leading
        # term once; each quotient coefficient is one log difference, and
        # its step clears rem[i] and updates the rest by exp lookups
        exp, log = t
        llead = log[lead]
        logs = [(j, log[b]) for j, b in enumerate(other.coeffs[:-1]) if b]
        for i in range(len(rem) - 1, dd - 1, -1):
            r = rem[i]
            if r == 0:
                continue
            lf = log[r] - llead
            q[i - dd] = exp[lf]
            rem[i] = 0
            base = i - dd
            for j, lb in logs:
                rem[base + j] ^= exp[lf + lb]
        return Poly(spec, q), Poly(spec, rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def adic_coeffs(self, c: int, count: int) -> list[int]:
        """First `count` coefficients of the (s + c)-adic expansion.

        They are those of p mod (s + c)^k = s^k + c^k, k = 2^j >= count:
        one O(deg) division.  Dividing by (s + c)^(k/2) then splits that
        into its low and high halves, and so on: O(count log count).
        """
        spec = self.spec
        k, d, muls = 1, c, []       # muls[j] multiplies by c^(2^j)
        while k < count:
            muls.append(_multiplier(spec, d))
            k, d = 2 * k, _mask_mul(spec, d, d)
        _, coeffs = _divmod_binomial(self.coeffs, k, _multiplier(spec, d))

        def halves(coeffs, j):      # coeffs of degree < 2^(j + 1)
            if j < 0:
                return [coeffs[0] if coeffs else 0]
            q, r = _divmod_binomial(coeffs, 1 << j, muls[j])
            return halves(r, j - 1) + halves(q, j - 1)
        return halves(coeffs, len(muls) - 1)[:count]

    def root_split(self, c: int):
        """(v, q) with p = (s + c)^v q and q(c) != 0, for nonzero p.

        In characteristic 2, (s + c)^(2^j) = s^(2^j) + c^(2^j).  So the
        binomials for j = 0, 1, 2, ... are divided out while they divide,
        and then again from the largest j down: O(log v) synthetic
        divisions of O(deg) each, with v read off in binary.
        """
        if self.is_zero():
            raise ValueError("root multiplicity in the zero polynomial")
        spec = self.spec
        coeffs = self.coeffs
        v, k, d = 0, 1, c
        muls = []     # muls[j] multiplies by c^(2^j)
        while len(coeffs) > k:
            mul = _multiplier(spec, d)
            q, r = _divmod_binomial(coeffs, k, mul)
            if any(r):
                break
            coeffs, v = q, v + k
            muls.append(mul)
            k, d = 2 * k, _mask_mul(spec, d, d)
        for j in reversed(range(len(muls))):
            k = 1 << j
            if len(coeffs) > k:
                q, r = _divmod_binomial(coeffs, k, muls[j])
                if not any(r):
                    coeffs, v = q, v + k
        return v, Poly(spec, coeffs)

    def reversed_coeffs(self) -> "Poly":
        return Poly(self.spec, tuple(reversed(self.coeffs)))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c:#x}*s^{i}" if c != 1 else f"s^{i}")
        return "Poly(" + " + ".join(terms) + ")"


# ---------------------------------------------------------------------------

class Place:
    """A closed point of the projective s-line: infinity or a field value."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: FieldElement | None = None):
        if kind not in ("inf", "finite"):
            raise ValueError(f"unknown place kind {kind!r}")
        if (kind == "finite") != (value is not None):
            raise ValueError("finite places carry a value, infinity does not")
        self.kind = kind
        self.value = value

    @classmethod
    def infinity(cls) -> "Place":
        return cls("inf")

    @classmethod
    def finite(cls, value: FieldElement) -> "Place":
        return cls("finite", value)

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Place":
        return cls("finite", spec.zero())

    def is_infinity(self) -> bool:
        return self.kind == "inf"

    def is_zero(self) -> bool:
        return self.kind == "finite" and self.value.mask == 0

    def key(self) -> str:
        """Serialization key: 'inf' or the decimal mask."""
        return "inf" if self.kind == "inf" else str(self.value.mask)

    def __eq__(self, other):
        if not isinstance(other, Place):
            return NotImplemented
        return self.kind == other.kind and self.value == other.value

    def __hash__(self):
        return hash((self.kind, None if self.value is None else self.value.mask))

    def __repr__(self):
        return "Place(inf)" if self.kind == "inf" else f"Place({self.value!r})"


class LaurentChunk:
    """Leading Laurent data at a place.

    order is the valuation; coeffs[i] is the coefficient of pi^(order+i)
    in the local uniformizer pi (s + c at a finite point c, 1/s at
    infinity).  coeffs[0] is nonzero unless the function was zero.
    """

    __slots__ = ("place", "order", "coeffs")

    def __init__(self, place: Place, order: int, coeffs):
        self.place = place
        self.order = order
        self.coeffs = tuple(coeffs)

    def __repr__(self):
        return (f"LaurentChunk({self.place!r}, order={self.order}, "
                f"coeffs={[c.mask for c in self.coeffs]})")


# ---------------------------------------------------------------------------

def _series_inv(spec: FieldSpec, v: list[int], count: int) -> list[int]:
    # Power series inverse of v (v[0] != 0), count terms.
    v0inv = _mask_inv(spec, v[0])
    out = [v0inv]
    for k in range(1, count):
        acc = 0
        for j in range(1, min(k, len(v) - 1) + 1):
            if v[j] and out[k - j]:
                acc ^= _mask_mul(spec, v[j], out[k - j])
        out.append(_mask_mul(spec, acc, v0inv))
    return out


def _series_mul(spec: FieldSpec, a: list[int], b: list[int], count: int):
    out = [0] * count
    for i, x in enumerate(a):
        if x == 0 or i >= count:
            continue
        for j, y in enumerate(b):
            if i + j >= count:
                break
            if y:
                out[i + j] ^= _mask_mul(spec, x, y)
    return out


class RatFunc:
    """Canonical rational function: gcd-reduced, monic denominator."""

    __slots__ = ("spec", "num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        spec = num.spec
        if num.is_zero():
            num, den = Poly(spec, ()), Poly(spec, (1,))
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            if den.leading() != 1:
                lead_inv = _mask_inv(spec, den.leading())
                num = num.scale(lead_inv)
                den = den.scale(lead_inv)
        self.spec = spec
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec) -> "RatFunc":
        return cls(Poly(spec, ()), Poly(spec, (1,)))

    @classmethod
    def constant(cls, value: FieldElement) -> "RatFunc":
        return cls(Poly(value.spec, (value.mask,)),
                   Poly(value.spec, (1,)))

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p, Poly(p.spec, (1,)))

    @classmethod
    def monomial(cls, spec: FieldSpec, e: int) -> "RatFunc":
        """s^e for any integer e."""
        if e >= 0:
            return cls(Poly(spec, (0,) * e + (1,)), Poly(spec, (1,)))
        return cls(Poly(spec, (1,)), Poly(spec, (0,) * (-e) + (1,)))

    @classmethod
    def from_coeff_masks(cls, spec: FieldSpec, num, den) -> "RatFunc":
        return cls(Poly(spec, num), Poly(spec, den))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        """The sum over lcm(den1, den2), so the canonicalising gcd runs at
        the degree of the lcm rather than of the product."""
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        d1, d2 = self.den, other.den
        g = d1.gcd(d2)
        if g.degree > 0:
            d1 = d1.divmod(g)[0]
            d2 = d2.divmod(g)[0]
        return RatFunc(self.num * d2 + other.num * d1, self.den * d2)

    __sub__ = __add__

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by zero function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def scale(self, value: FieldElement) -> "RatFunc":
        return RatFunc(self.num.scale(value.mask), self.den)

    def square(self) -> "RatFunc":
        return self * self

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        # canonical form makes structural equality semantic equality
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- local data --------------------------------------------------------

    def laurent_at(self, place: Place, count: int) -> LaurentChunk:
        """Leading `count` Laurent coefficients at the place."""
        if count <= 0:
            raise ValueError("count must be positive")
        if self.is_zero():
            raise ValueError("no Laurent expansion of the zero function")
        spec = self.spec
        if place.is_infinity():
            # in the uniformizer 1/s the reversed coefficient lists are the
            # expansions; their leading entries are nonzero
            base = self.den.degree - self.num.degree
            n_coeffs = self.num.reversed_coeffs().adic_coeffs(0, count)
            d_coeffs = self.den.reversed_coeffs().adic_coeffs(0, count)
        else:
            # expand the cofactors prime to (s + c)
            c = place.value.mask
            vd, qd = self.den.root_split(c)
            # coprime: at a pole only the denominator vanishes
            vn, qn = (0, self.num) if vd else self.num.root_split(c)
            base = vn - vd
            n_coeffs = qn.adic_coeffs(c, count)
            d_coeffs = qd.adic_coeffs(c, count)
        inv = _series_inv(spec, d_coeffs, count)
        series = _series_mul(spec, n_coeffs, inv, count)
        return LaurentChunk(place, base,
                            [spec.element(mask) for mask in series])

    # -- the rho twist -----------------------------------------------------

    def rho_pullback(self) -> "RatFunc":
        """(rho f)(s) = f(zeta s), with no gcd: s -> zeta s is an
        automorphism, so N(zeta s) and D(zeta s) stay coprime.  Scaled by
        zeta^(-deg D) to keep D monic, coefficient i gets zeta^(i - deg D)."""
        spec = self.spec
        z = spec.zeta().mask
        powers = (1, z, _mask_mul(spec, z, z))
        muls = [_multiplier(spec, powers[(k - self.den.degree) % 3])
                for k in range(3)]
        out = RatFunc.__new__(RatFunc)
        out.spec = spec
        out.num, out.den = (Poly(spec, [muls[i % 3](c) if c else 0
                                        for i, c in enumerate(p.coeffs)])
                            for p in (self.num, self.den))
        return out

    def substitute_inverse(self) -> "RatFunc":
        """f(1/s), as a rational function of s."""
        dn, dd = self.num.degree, self.den.degree
        num_r = self.num.reversed_coeffs()
        den_r = self.den.reversed_coeffs()
        shift = dd - dn
        if shift >= 0:
            return RatFunc(num_r * Poly(self.spec, (0,) * shift + (1,)), den_r)
        return RatFunc(num_r, den_r * Poly(self.spec, (0,) * (-shift) + (1,)))

    # -- pole structure ----------------------------------------------------

    def poles(self, roots=None) -> dict[Place, int]:
        """Pole orders; requires every finite pole to split over the field.
        roots, if given, holds every finite pole (see poly_roots)."""
        out: dict[Place, int] = {}
        if self.is_zero():
            return out
        deficit = self.num.degree - self.den.degree
        if deficit > 0:
            out[Place.infinity()] = deficit
        for mask, mult in poly_roots(self.den, roots=roots).items():
            out[Place.finite(self.spec.element(mask))] = mult
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"num": list(self.num.coeffs), "den": list(self.den.coeffs)}

    @classmethod
    def from_json(cls, spec: FieldSpec, obj: dict) -> "RatFunc":
        return cls(Poly(spec, obj["num"]), Poly(spec, obj["den"]))

    def __repr__(self):
        return f"RatFunc({self.num!r} / {self.den!r})"


# ---------------------------------------------------------------------------

def poly_roots(p: Poly, context: str = "pole", roots=None) -> dict[int, int]:
    """All roots of p in its field, with multiplicities.

    root_split takes the power of each root, from field_roots(p) or from
    roots, off p.  Raises ValueError ("<context> not split over working
    field") when a cofactor of positive degree is left.
    """
    if p.is_zero():
        raise ValueError("root-finding on the zero polynomial")
    rest = p.monic()
    out = {}
    for mask in field_roots(rest) if roots is None else roots:
        v, rest = rest.root_split(mask)
        if v:
            out[mask] = v
    if rest.degree > 0:
        # a factor with no root is irreducible only up to degree 3
        d = rest.degree
        what = (f"irreducible factor of degree {d} with" if d <= 3
                else f"factor of degree {d} with no root in the field,")
        raise ValueError(f"{context} not split over working field: {what} "
                         f"coeff masks {list(rest.coeffs)}")
    return out


def field_roots(p: Poly) -> set[int]:
    """The distinct roots of a nonzero p in its field.

    The split part of p is gcd(p, s^(2^m) + s); trace splitting takes it
    apart.  Factors of p that do not split over the field are ignored.
    """
    spec = p.spec
    if p.degree <= 0:
        return set()
    p = p.monic()
    if p.degree == 1:
        return {p.coeffs[0]}            # the root of s + c is c
    frob = [Poly(spec, (0, 1)) % p]     # frob[i] = s^(2^i) mod p
    for _ in range(spec.m):
        frob.append((frob[-1] * frob[-1]) % p)
    linear_part = p.gcd(frob.pop() + Poly.x(spec))
    out: set[int] = set()
    _trace_split(linear_part, out, [f % linear_part for f in frob])
    return out


def _trace_split(p: Poly, out: set[int], frob):
    """Deterministic trace-based splitting of a split squarefree monic p.

    frob[i] is s^(2^i) mod p for i < m.
    """
    spec = p.spec
    if p.degree <= 0:
        return
    if p.degree == 1:
        out.add(p.coeffs[0])  # the root of s + c is c
        return
    for bit in range(spec.m):
        # T(beta s) = sum_{i<m} beta^(2^i) s^(2^i) mod p takes values in
        # GF(2) on the roots; some basis element beta separates any two.
        acc = [0] * p.degree
        power = 1 << bit
        for f in frob:
            for j, c in enumerate(f.coeffs):
                if c:
                    acc[j] ^= _mask_mul(spec, c, power)
            power = _mask_mul(spec, power, power)
        g = p.gcd(Poly(spec, acc))
        if 0 < g.degree < p.degree:
            _trace_split(g, out, [f % g for f in frob])
            h = p.divmod(g)[0].monic()
            _trace_split(h, out, [f % h for f in frob])
            return
    raise AssertionError("trace splitting failed on a squarefree input")


# ---------------------------------------------------------------------------

def trace_K_over_J(f: RatFunc) -> RatFunc:
    """Trace of f to the degree-3 fixed field: f + rho f + rho^2 f.

    rho^3 = id, so the result is rho-invariant, a function of s^3.
    """
    rf = f.rho_pullback()
    return f + rf + rf.rho_pullback()
