"""Binary field arithmetic GF(2^m) in polynomial basis.

Elements are bit masks: bit i holds the coefficient of x^i, so the mask's
integer value doubles as the canonical ordering of field elements.

This is the scalar layer, in plain Python and without numpy, so runs
that do no matrix work never load numpy.  Up to m = TABLE_M = 16 scalars
read exp/log tuples that _exp_log builds once per (m, modulus): a product
is exp[log a + log b], an inverse exp[-log a], a square root halves the
log.  Above it they use the bit loop _pmulmod, so an analyze-only run
builds no tables.  fixed_multiplier's ceil(m/8) byte tables multiply
many values by one fixed scalar.  The matrix layer's arrays are built
from these tuples in _linalg.

The degree m must be even so that GF(4), and with it a primitive cube root
of unity zeta, embeds in the field.  zeta is chosen deterministically as
the smaller of the two roots of x^2 + x + 1 in the mask ordering.
"""

from __future__ import annotations

import functools


# ---------------------------------------------------------------------------
# GF(2)[x] on plain ints: bit i of p is the coefficient of x^i.

def _pdeg(p: int) -> int:
    """Degree of p, with deg 0 = -1."""
    return p.bit_length() - 1


def _pmul(a: int, b: int) -> int:
    """Carry-less product in GF(2)[x]."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _pmod(a: int, f: int) -> int:
    """Remainder of a modulo f in GF(2)[x]."""
    df = _pdeg(f)
    da = _pdeg(a)
    while da >= df:
        a ^= f << (da - df)
        da = _pdeg(a)
    return a


def _pmulmod(a: int, b: int, f: int) -> int:
    return _pmod(_pmul(a, b), f)


def _byte_tables(images):
    """Byte tables of the GF(2)-linear map with images[j] the image of bit j.

    Table k at byte value v is the XOR of the images of the bits 8k + i
    set in v; it is filled from its 8 images by XOR doubling.
    """
    tables = []
    for lo in range(0, len(images), 8):
        t = [0]
        for b in images[lo:lo + 8]:
            t += [x ^ b for x in t]
        tables.append(t)
    return tables


def _gf2_pivots(images):
    """Echelon form of the GF(2)-linear map with images[j] the image of
    bit j: {leading bit: (image, the bits that combine to it)}."""
    pivots = {}
    for j, v in enumerate(images):
        combo = 1 << j
        while v:
            lead = v.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (v, combo)
                break
            pv, pc = pivots[lead]
            v ^= pv
            combo ^= pc
    return pivots


def _gf2_solve(pivots, t):
    """Bits whose images add up to t under _gf2_pivots' map, or None when
    t is not in the image."""
    combo = 0
    while t:
        lead = t.bit_length() - 1
        if lead not in pivots:
            return None
        pv, pc = pivots[lead]
        t ^= pv
        combo ^= pc
    return combo


def fixed_multiplier(c: int, f: int):
    """The map x -> c x modulo f, as byte-table lookups.

    Multiplication by a fixed c is GF(2)-linear, so c x is the XOR over
    the bytes of x of the products c * (byte k of x) * x^(8k).  Table k
    lists them for every byte value; it is filled from the images c x^j
    of its 8 basis bits by XOR doubling.  On a 2-core x86 machine, for
    8 <= m <= 32, the ceil(m/8) tables cost 6 to 14 scalar multiplies and
    one lookup is 14 to 35 times cheaper than _pmulmod.  c and the
    arguments must be reduced (below 2^m).
    """
    m = _pdeg(f)
    images = []
    b = c
    for _ in range(m):
        images.append(b)
        b <<= 1
        if b >> m:
            b ^= f
    tables = _byte_tables(images)
    if len(tables) == 1:
        return tables[0].__getitem__
    if len(tables) == 2:
        t0, t1 = tables
        return lambda x: t0[x & 255] ^ t1[x >> 8]
    if len(tables) == 3:
        t0, t1, t2 = tables
        return lambda x: t0[x & 255] ^ t1[x >> 8 & 255] ^ t2[x >> 16]
    t0, t1, t2, t3 = tables
    return lambda x: (t0[x & 255] ^ t1[x >> 8 & 255] ^ t2[x >> 16 & 255]
                      ^ t3[x >> 24])


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pmod(a, b)
    return a


def _ppowmod(base: int, e: int, f: int) -> int:
    acc = 1
    while e:
        if e & 1:
            acc = _pmulmod(acc, base, f)
        base = _pmulmod(base, base, f)
        e >>= 1
    return acc


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible_gf2(f: int) -> bool:
    """Rabin irreducibility test for f in GF(2)[x]."""
    n = _pdeg(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    if not f & 1:
        return False  # divisible by x
    # x^(2^n) == x mod f, and x^(2^(n/p)) - x coprime to f for prime p | n.
    x = 2
    h = x
    for _ in range(n):
        h = _pmulmod(h, h, f)
    if h != x:
        return False
    for p in _prime_factors(n):
        h = x
        for _ in range(n // p):
            h = _pmulmod(h, h, f)
        if _pgcd(h ^ x, f) != 1:
            return False
    return True


def default_modulus(m: int) -> int:
    """Smallest irreducible degree-m modulus in the mask ordering."""
    for tail in range(1, 1 << m, 2):
        f = (1 << m) | tail
        if is_irreducible_gf2(f):
            return f
    raise AssertionError(f"no irreducible polynomial of degree {m}")


# ---------------------------------------------------------------------------
# exp/log tables

# Direct tables stop here, for scalars and arrays alike.  On a 2-core x86
# machine a table lookup product costs 0.1 us against 2 to 4 us for
# _pmulmod; at m = 16 _exp_log takes 12 to 13 ms and raises peak RSS by
# 6 MB (_linalg's int64 arrays of its tuples add 7 ms and 1 MB), at
# m = 20 it would take 0.35 s and 103 MB.
TABLE_M = 16


def _primitive(m: int, f: int) -> int:
    """The smallest primitive element of GF(2)[x]/(f), f irreducible of
    degree m: g^((q-1)/p) != 1 for the primes p dividing q - 1."""
    n = (1 << m) - 1
    primes = _prime_factors(n)
    return next(g for g in range(2, n + 1)
                if all(_ppowmod(g, n // p, f) != 1 for p in primes))


@functools.cache
def _exp_log(m: int, f: int):
    """(exp, log) tuples of GF(2)[x]/(f), f irreducible of degree m.

    exp[k] = g^k for _primitive's g, filled by its fixed_multiplier; it
    has length 2(q-1), so exp[log a + log b] never needs a modulo, and
    its two halves share their int objects.  log is filled in one pass
    and log[0] is -1.  Built once per (m, f) and shared by every caller,
    hence tuples.  m may be odd: the tower's subfield takes its tables
    from here too.
    """
    n = (1 << m) - 1
    step = fixed_multiplier(_primitive(m, f), f)
    exp = [1] * n
    x = 1
    for i in range(1, n):
        x = step(x)
        exp[i] = x
    log = [-1] * (n + 1)
    for i, x in enumerate(exp):
        log[x] = i
    exp = tuple(exp)
    return exp + exp, tuple(log)


def _scalar_tables(spec):
    """_exp_log's (exp, log) of spec, or None above TABLE_M.

    Kept on the spec, so a scalar product is exp[log[a] + log[b]] for
    nonzero a, b.  exp has period q - 1 and length 2(q - 1), so with
    Python's negative indices exp[k] = g^k for every
    -2(q - 1) <= k < 2(q - 1).
    """
    t = spec._lut
    if t is None:
        t = _exp_log(spec.m, spec.modulus) if spec.m <= TABLE_M else ()
        spec._lut = t
    return t or None


def _mask_mul(spec, a: int, b: int) -> int:
    """a * b for masks of spec: a table lookup, or the bit loop."""
    t = _scalar_tables(spec)
    if t is None:
        return _pmulmod(a, b, spec.modulus)
    if a and b:
        exp, log = t
        return exp[log[a] + log[b]]
    return 0


def _mask_inv(spec, a: int) -> int:
    """1 / a for a nonzero mask of spec."""
    if a == 0:
        raise ZeroDivisionError("inverse of zero")
    t = _scalar_tables(spec)
    if t is None:
        return _ppowmod(a, spec.order - 2, spec.modulus)   # a^(q-2) = 1/a
    exp, log = t
    return exp[-log[a]]


# ---------------------------------------------------------------------------

class FieldSpec:
    """An even-degree binary field GF(2^m) with a pinned modulus.

    Two specs compare equal iff (m, modulus) agree; elements of different
    specs never mix.  Invariant: modulus is irreducible of degree m, m even.
    """

    __slots__ = ("m", "modulus", "_zeta_mask", "_lut")

    def __init__(self, m: int = 8, modulus: int | None = None):
        if m <= 0 or m % 2 != 0:
            raise ValueError(
                f"field degree must be even and positive to contain a cube "
                f"root of unity, got m={m}")
        if m > 32:
            raise ValueError(f"field degree {m} exceeds the supported bound 32")
        if modulus is None:
            modulus = default_modulus(m)
        if _pdeg(modulus) != m:
            raise ValueError(
                f"modulus degree {_pdeg(modulus)} does not match m={m}")
        if not is_irreducible_gf2(modulus):
            raise ValueError(f"modulus {modulus:#x} is reducible")
        self.m = m
        self.modulus = modulus
        self._zeta_mask = None
        self._lut = None          # _scalar_tables' cache

    def __reduce__(self):
        # the cached zeta and tables are rebuilt on demand, not pickled
        return FieldSpec, (self.m, self.modulus)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return self.m == other.m and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.m, self.modulus))

    def __repr__(self):
        return f"FieldSpec(m={self.m}, modulus={self.modulus:#x})"

    @property
    def order(self) -> int:
        return 1 << self.m

    # -- element construction ---------------------------------------------

    def element(self, mask: int) -> "FieldElement":
        """Element from a coefficient bit mask."""
        if not 0 <= mask < (1 << self.m):
            raise ValueError(f"mask {mask} out of range for GF(2^{self.m})")
        return FieldElement(self, mask)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def zeta(self) -> "FieldElement":
        """The canonical primitive cube root of unity: the smaller of the
        two roots of z^2 + z = 1."""
        if self._zeta_mask is None:
            z = self.artin_schreier_root(self.one()).mask
            self._zeta_mask = min(z, z ^ 1)
        return FieldElement(self, self._zeta_mask)

    def artin_schreier_root(self, c: "FieldElement") -> "FieldElement | None":
        """A root of x^2 + x = c, or None when c is not in the image.

        The map x -> x^2 + x is F2-linear with kernel {0, 1}, so its image
        is an index-two subgroup; solvability is decided by elimination.
        """
        if c.spec != self:
            raise ValueError("element from a different field")
        images = [_pmulmod(1 << j, 1 << j, self.modulus) ^ (1 << j)
                  for j in range(self.m)]
        combo = _gf2_solve(_gf2_pivots(images), c.mask)
        if combo is None:
            return None
        root = self.element(combo)
        assert root * root + root == c
        return root

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """JSON form: modulus as a bit list, lowest degree first."""
        bits = [(self.modulus >> i) & 1 for i in range(self.m + 1)]
        return {"m": self.m, "modulus": bits}

    @classmethod
    def from_json(cls, obj: dict) -> "FieldSpec":
        bits = obj["modulus"]
        modulus = 0
        for i, b in enumerate(bits):
            if b:
                modulus |= 1 << i
        return cls(m=obj["m"], modulus=modulus)


class FieldElement:
    """An element of a FieldSpec field.

    Invariant: 0 <= mask < 2^m.  Immutable and hashable; ordering by mask
    is the canonical element ordering used everywhere representatives are
    chosen.
    """

    __slots__ = ("spec", "mask")

    def __init__(self, spec: FieldSpec, mask: int):
        self.spec = spec
        self.mask = mask

    def _check(self, other: "FieldElement"):
        if self.spec != other.spec:
            raise ValueError("elements from different fields")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        """Addition (= subtraction in characteristic 2)."""
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return FieldElement(self.spec, self.mask ^ other.mask)

    __sub__ = __add__

    def __mul__(self, other):
        """Multiplication."""
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return FieldElement(
            self.spec, _mask_mul(self.spec, self.mask, other.mask))

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FieldElement(
            self.spec, _ppowmod(self.mask, e, self.spec.modulus))

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; raises on zero."""
        if self.mask == 0:
            raise ZeroDivisionError("inverse of zero in GF(2^m)")
        return FieldElement(self.spec, _mask_inv(self.spec, self.mask))

    def sqrt(self) -> "FieldElement":
        """The unique square root (Frobenius inverse)."""
        return sqrt_frobenius(self)

    # -- predicates, ordering, hashing ------------------------------------

    def __bool__(self):
        return self.mask != 0

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.spec == other.spec and self.mask == other.mask

    def __hash__(self):
        return hash((self.spec.m, self.spec.modulus, self.mask))

    def __lt__(self, other):
        self._check(other)
        return self.mask < other.mask

    def __le__(self, other):
        self._check(other)
        return self.mask <= other.mask

    def __repr__(self):
        return f"<{self.mask:#x} in GF(2^{self.spec.m})>"


def sqrt_frobenius(a: FieldElement) -> FieldElement:
    """Square root, the exact inverse of squaring.

    With the tables it halves the log; q - 1 is odd, so an odd log l is
    first replaced by l + q - 1.  Above TABLE_M it is
    x -> x^(2^(m-1)), m - 1 squarings.  Every element of GF(2^m) has
    exactly one square root, so the map is a field automorphism and
    sqrt(a + b) = sqrt(a) + sqrt(b) holds; tests rely on that linearity.
    """
    spec = a.spec
    mask = a.mask
    t = _scalar_tables(spec)
    if t is not None:
        if mask:
            exp, log = t
            l = log[mask]
            mask = exp[(l + (l & 1) * (spec.order - 1)) >> 1]
        return FieldElement(spec, mask)
    for _ in range(spec.m - 1):
        mask = _pmulmod(mask, mask, spec.modulus)
    return FieldElement(spec, mask)


def all_elements(spec: FieldSpec):
    """Iterator over the field in canonical (mask) order.  Small m only."""
    for mask in range(spec.order):
        yield FieldElement(spec, mask)
