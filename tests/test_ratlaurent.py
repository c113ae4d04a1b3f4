import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from a4diff import ratlaurent
from a4diff.gf import FieldSpec
from a4diff.ratlaurent import (
    Poly, RatFunc, Place, poly_roots, trace_K_over_J,
)
from helpers import (eval_at, linear_power, ord_at, poly_eval,
                     reference_adic_coeffs,
                     reference_poly_divmod, reference_poly_mul,
                     reference_rho_pullback, reference_root_split,
                     reference_sum,
                     reference_trace_split, valuation)

F16 = FieldSpec(m=4)
F256 = FieldSpec(m=8)
Z = F256.zeta()


def mono(e, spec=F256):
    return RatFunc.monomial(spec, e)


def lin(c, spec=F256):
    """The polynomial s + c as a RatFunc."""
    return RatFunc.from_coeff_masks(spec, [c.mask if hasattr(c, "mask") else c, 1], [1])


def test_canonical_form_reduces_gcd():
    # (s^2 + s) / s = s + 1
    f = RatFunc.from_coeff_masks(F256, [0, 1, 1], [0, 1])
    assert f.num.coeffs == (1, 1)
    assert f.den.coeffs == (1,)


def test_canonical_form_monic_denominator():
    z = Z.mask
    f = RatFunc.from_coeff_masks(F256, [1], [0, z])
    assert f.den.leading() == 1
    # f = 1/(z s) = z^-1 * 1/s
    zinv = Z.inverse()
    assert f == RatFunc.constant(zinv) * mono(-1)


def test_arithmetic_field_laws():
    f = mono(3) + lin(Z)
    g = mono(-2) + RatFunc.constant(F256.one())
    h = lin(F256.element(7))
    assert (f + g) * h == f * h + g * h
    assert (f * g) / g == f
    assert f - f == RatFunc.zero(F256)


def test_ord_at_monomials():
    inf = Place.infinity()
    zero = Place.zero(F256)
    assert ord_at(mono(5), inf) == -5
    assert ord_at(mono(5), zero) == 5
    assert ord_at(mono(-3), inf) == 3
    assert ord_at(mono(-3), zero) == -3
    assert ord_at(RatFunc.zero(F256), inf) == math.inf


def test_ord_at_finite_points():
    psi = F256.element(9)
    f = RatFunc.constant(F256.one()) / (lin(psi) * lin(psi) * lin(psi))
    assert ord_at(f, Place.finite(psi)) == -3
    assert ord_at(f, Place.finite(F256.element(10))) == 0
    assert ord_at(f, Place.infinity()) == 3


def test_sum_of_ords_vanishes():
    # f = (s + a)^2 (s + b) / (s + c)^4: ords must sum to zero over all places
    a, b, c = F256.element(3), F256.element(5), F256.element(12)
    f = lin(a) * lin(a) * lin(b) / (lin(c) * lin(c) * lin(c) * lin(c))
    total = ord_at(f, Place.infinity())
    for p in (a, b, c, F256.zero()):
        total += ord_at(f, Place.finite(p))
    assert total == 0


def laurent_check(f, place, count):
    """Subtracting the reported chunk must raise the valuation by count."""
    chunk = f.laurent_at(place, count)
    assert chunk.coeffs[0].mask != 0
    partial = RatFunc.zero(f.spec)
    for i, coeff in enumerate(chunk.coeffs):
        e = chunk.order + i
        if place.is_infinity():
            term = RatFunc.constant(coeff) * mono(-e, f.spec)
        else:
            pi = lin(place.value, f.spec)
            term = RatFunc.constant(coeff)
            if e >= 0:
                for _ in range(e):
                    term = term * pi
            else:
                for _ in range(-e):
                    term = term / pi
        partial = partial + term
    diff = f - partial
    assert diff.is_zero() or ord_at(diff, place) >= chunk.order + count
    return chunk


def test_laurent_at_infinity():
    # f = s^5 + s^2: expansion in 1/s starts at order -5
    f = mono(5) + mono(2)
    chunk = laurent_check(f, Place.infinity(), 6)
    assert chunk.order == -5
    masks = [c.mask for c in chunk.coeffs]
    assert masks == [1, 0, 0, 1, 0, 0]


def test_laurent_at_finite_pole():
    psi = F256.element(7)
    f = RatFunc.constant(Z) / (lin(psi) * lin(psi))
    chunk = laurent_check(f, Place.finite(psi), 4)
    assert chunk.order == -2
    assert chunk.coeffs[0] == Z
    assert all(c.mask == 0 for c in chunk.coeffs[1:])


def test_laurent_at_regular_point():
    f = mono(2)
    c = F256.element(3)
    chunk = laurent_check(f, Place.finite(c), 3)
    assert chunk.order == 0
    assert chunk.coeffs[0] == c * c  # f(c)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=1, max_size=6),
       st.lists(st.integers(0, 15), min_size=1, max_size=6))
def test_laurent_reconstruction_random(numc, denc):
    num = Poly(F16, numc)
    den = Poly(F16, denc)
    if num.is_zero() or den.is_zero():
        return
    f = RatFunc(num, den)
    if f.is_zero():
        return
    laurent_check(f, Place.infinity(), 5)
    laurent_check(f, Place.zero(F16), 5)


def test_rho_pullback_order_three():
    f = mono(4) + lin(Z) / mono(2)
    r1 = f.rho_pullback()
    r3 = r1.rho_pullback().rho_pullback()
    assert r3 == f
    assert r1 != f


def test_rho_pullback_moves_poles():
    psi = F256.element(9)
    f = RatFunc.constant(F256.one()) / lin(psi)
    # (rho f)(s) = f(zeta s) has its pole where zeta s = psi
    rf = f.rho_pullback()
    target = psi * Z.inverse()
    assert ord_at(rf, Place.finite(target)) == -1
    assert ord_at(rf, Place.finite(psi)) == 0


@pytest.mark.parametrize("m", [2, 8, 20])
def test_rho_pullback_equals_the_gcd_reduced_reference(m):
    # the pullback skips the gcd: it must still be the canonical fraction,
    # also when s divides the denominator and when 3 does not divide its
    # degree (the monic scaling by zeta^(-deg D) is then not 1)
    spec = FieldSpec(m=m)
    rnd = random.Random(m)

    def poly(deg):
        return Poly(spec, [rnd.randrange(spec.order) for _ in range(deg)]
                    + [rnd.randrange(1, spec.order)])
    seen = set()
    for trial in range(60):
        den = poly(rnd.randrange(6)) * Poly(spec, (0,) * (trial % 3) + (1,))
        f = RatFunc(poly(rnd.randrange(8)), den)
        got, ref = f.rho_pullback(), reference_rho_pullback(f)
        assert (got.num, got.den) == (ref.num, ref.den), f
        seen.add((f.den.coeffs[0] == 0, f.den.degree % 3))
    assert {(True, 1), (True, 2), (False, 1), (False, 2),
            (False, 0)} <= seen
    zero = RatFunc.zero(spec)
    assert (zero.rho_pullback().num, zero.rho_pullback().den) == \
        (zero.num, zero.den)


def test_trace_of_monomials():
    # Tr(s^e) = 3 s^e = s^e if 3 | e, else the three zeta-twists cancel.
    for e in range(-7, 8):
        t = trace_K_over_J(mono(e))
        if e % 3 == 0:
            assert t == mono(e)
        else:
            assert t.is_zero()


def test_trace_kills_g_plus_rho_g():
    g = mono(5) + RatFunc.constant(Z) / (lin(F256.element(3)) * lin(F256.element(3)))
    alpha = g + g.rho_pullback()
    assert trace_K_over_J(alpha).is_zero()


def test_trace_is_rho_invariant():
    f = mono(2) + mono(-4) + RatFunc.constant(Z) * mono(6)
    t = trace_K_over_J(f)
    assert t.rho_pullback() == t


def test_poly_roots_with_multiplicity():
    a, b = F256.element(5), F256.element(6)
    p = Poly(F256, (a.mask, 1))
    q = Poly(F256, (b.mask, 1))
    prod = p * p * p * q * q
    roots = poly_roots(prod)
    assert roots == {a.mask: 3, b.mask: 2}


def test_poly_roots_even_multiplicities():
    a = F256.element(5)
    p = Poly(F256, (a.mask, 1))
    roots = poly_roots(p * p)
    assert roots == {a.mask: 2}


def test_poly_roots_nonsplit_raises():
    # x^2 + x + zeta' is irreducible over GF(2^8)? pick an element with
    # absolute trace 1 so the Artin-Schreier quadratic does not split:
    # search deterministically.
    for mask in range(1, 256):
        p = Poly(F256, (mask, 1, 1))
        try:
            poly_roots(p)
        except ValueError as e:
            assert "not split over working field" in str(e)
            break
    else:
        pytest.fail("no irreducible quadratic found")


def test_poles_table():
    psi = F256.element(9)
    f = (mono(7) + RatFunc.constant(F256.one())) / (lin(psi) * lin(psi) * mono(1))
    table = f.poles()
    assert table[Place.infinity()] == 4
    assert table[Place.finite(psi)] == 2
    assert table[Place.zero(F256)] == 1
    assert len(table) == 3


def test_substitute_inverse_swaps_zero_and_infinity():
    f = mono(5) + mono(2)
    g = f.substitute_inverse()
    assert ord_at(g, Place.zero(F256)) == ord_at(f, Place.infinity())
    assert ord_at(g, Place.infinity()) == ord_at(f, Place.zero(F256))
    assert g.substitute_inverse() == f


def test_serialization_roundtrip():
    f = (mono(3) + RatFunc.constant(Z)) / lin(F256.element(17))
    j = f.to_json()
    back = RatFunc.from_json(F256, j)
    assert back == f


def test_eval_at():
    f = mono(2) + RatFunc.constant(F256.one())
    c = F256.element(3)
    assert eval_at(f, c) == c * c + F256.one()
    g = RatFunc.constant(F256.one()) / lin(c)
    with pytest.raises(ZeroDivisionError):
        eval_at(g, c)


# ---------------------------------------------------------------- fast paths

def random_poly(rnd, spec, degree, avoid_root=None):
    """A random polynomial of the given degree; with avoid_root = c, one
    that does not vanish at c."""
    while True:
        p = Poly(spec, [rnd.randrange(spec.order) for _ in range(degree)]
                 + [rnd.randrange(1, spec.order)])
        if avoid_root is None or poly_eval(p, avoid_root) != 0:
            return p


# multiplicity 0, 1 and 2^j - 1, 2^j, 2^j + 1 up to 130
PLANTED = sorted({0, 1} | {(1 << j) + d for j in range(1, 8)
                           for d in (-1, 0, 1)})


@pytest.mark.parametrize("m", [2, 8, 12, 20, 32])
def test_root_split_finds_planted_multiplicities(m):
    spec = FieldSpec(m=m)
    rnd = random.Random(m)
    for c in (0, rnd.randrange(1, spec.order)):
        power = Poly(spec, (1,))
        for v in range(PLANTED[-1] + 1):
            if v in PLANTED:
                q = random_poly(rnd, spec, rnd.randint(0, 6), avoid_root=c)
                p = power * q
                assert p.root_split(c) == (v, q)
                assert valuation(p, c) == v
                assert reference_root_split(p, c) == (v, q)
            power = power * Poly(spec, (c, 1))


@pytest.mark.parametrize("m", [2, 4])
def test_root_split_matches_reference_on_random_polys(m):
    # small fields, so random polynomials often have repeated roots
    spec = FieldSpec(m=m)
    rnd = random.Random(100 + m)
    for _ in range(300):
        p = random_poly(rnd, spec, rnd.randint(0, 12))
        c = rnd.randrange(spec.order)
        assert p.root_split(c) == reference_root_split(p, c)


@pytest.mark.parametrize("m", [8, 12, 20])
def test_adic_coeffs_match_the_one_division_per_coefficient_loop(m):
    spec = FieldSpec(m=m)
    rnd = random.Random(400 + m)
    for degree in (0, 1, 5, 40, 130):
        p = random_poly(rnd, spec, degree)
        for c in (0, 1, rnd.randrange(2, spec.order)):
            # counts below, at and above the degree, across powers of 2
            for count in (0, 1, 2, 3, 17, 64, degree + 1, degree + 9):
                assert p.adic_coeffs(c, count) == \
                    reference_adic_coeffs(p, c, count), (degree, c, count)


def test_valuation_of_zero_polynomial_is_infinite():
    zero = Poly(F256, ())
    assert valuation(zero, 5) == math.inf
    assert valuation(zero, 0) == math.inf
    assert reference_root_split(zero, 5)[0] == math.inf
    with pytest.raises(ValueError):
        zero.root_split(5)


@pytest.mark.parametrize("m", [4, 8, 32])
def test_sum_over_lcm_matches_cross_multiplied_sum(m):
    spec = FieldSpec(m=m)
    rnd = random.Random(200 + m)
    zero = RatFunc.zero(spec)

    def monic(degree):
        return random_poly(rnd, spec, degree).monic()

    for _ in range(25):
        u, v, w = monic(rnd.randint(1, 4)), monic(rnd.randint(1, 4)), \
            linear_power(spec, rnd.randrange(spec.order), rnd.randint(1, 5))
        a, b = (random_poly(rnd, spec, rnd.randint(0, 8)) for _ in range(2))
        pairs = [
            (RatFunc(a, u * w), RatFunc(b, u * w)),      # equal
            (RatFunc(a, u * w), RatFunc(b, w * v)),      # overlapping
            (RatFunc(a, u), RatFunc(b, v)),              # coprime
            (RatFunc(a, u * w), RatFunc(a, u * w)),      # sum zero
            (zero, RatFunc(b, v)), (RatFunc(a, u), zero), (zero, zero),
        ]
        for f, g in pairs:
            got = f + g
            want = reference_sum(f, g)
            assert got.num.coeffs == want.num.coeffs
            assert got.den.coeffs == want.den.coeffs


def test_valuation_takes_logarithmically_many_division_passes(monkeypatch):
    # the degenerate n=32 orbit datum's denominators carry roots of
    # multiplicity up to 127 in degree 379
    rnd = random.Random(5)
    c = 0x53
    p = linear_power(F256, c, 127) * random_poly(rnd, F256, 252,
                                                 avoid_root=c)
    assert p.degree == 379
    passes = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            passes.append(fn)
            return fn(*args, **kwargs)
        return wrapper

    # each pass divides by one binomial s^k + c^k
    monkeypatch.setattr(ratlaurent, "_divmod_binomial",
                        counting(ratlaurent._divmod_binomial))
    assert valuation(p, c) == 127
    assert len(passes) <= 2 * math.ceil(math.log2(128)) + 2


def test_laurent_at_infinity_costs_count_times_degree(monkeypatch):
    rnd = random.Random(6)
    f = RatFunc(random_poly(rnd, F256, 380), random_poly(rnd, F256, 379))
    deg = max(f.num.degree, f.den.degree)
    assert deg >= 379
    count = 5
    multiplies = [0]
    mask_mul, fixed = ratlaurent._mask_mul, ratlaurent.fixed_multiplier

    def counting_mask_mul(spec, a, b):
        multiplies[0] += 1
        return mask_mul(spec, a, b)

    def counting_fixed(c, modulus):
        mul = fixed(c, modulus)

        def counted(x):
            multiplies[0] += 1
            return mul(x)
        return counted

    monkeypatch.setattr(ratlaurent, "_mask_mul", counting_mask_mul)
    monkeypatch.setattr(ratlaurent, "fixed_multiplier", counting_fixed)
    chunk = f.laurent_at(Place.infinity(), count)
    assert chunk.order == f.den.degree - f.num.degree
    assert multiplies[0] <= count * (deg + 1)


class _AddLog(set):
    """A set that records the order of its insertions."""

    def __init__(self):
        super().__init__()
        self.log = []

    def add(self, x):
        self.log.append(x)
        super().add(x)


def _product_of_linears(spec, roots):
    p = Poly(spec, (1,))
    for r in roots:
        p = p * Poly(spec, (r, 1))
    return p


@pytest.mark.parametrize("m", [4, 8, 12, 32])
def test_trace_split_matches_the_per_beta_reference(m):
    # same beta order, same gcds: the same roots in the same order
    spec = FieldSpec(m=m)
    rnd = random.Random(200 + m)
    for degree in (1, 2, 3, 5, 9, 14):
        roots = rnd.sample(range(min(spec.order, 1 << 20)), degree)
        p = _product_of_linears(spec, roots)
        new, ref = _AddLog(), _AddLog()
        frob = [Poly(spec, (0, 1)) % p]
        for _ in range(m - 1):
            frob.append((frob[-1] * frob[-1]) % p)
        ratlaurent._trace_split(p, new, frob)
        reference_trace_split(p, ref)
        assert new.log == ref.log
        assert sorted(new.log) == sorted(roots)


@pytest.mark.parametrize("m", [4, 8, 12, 32])
def test_field_roots_ignores_factors_that_do_not_split(m):
    spec = FieldSpec(m=m)
    rnd = random.Random(300 + m)
    quad = None
    while quad is None:
        # s^2 + s + c is irreducible when c has absolute trace 1
        cand = Poly(spec, (rnd.randrange(1, spec.order), 1, 1))
        if not ratlaurent.field_roots(cand):
            quad = cand
    roots = rnd.sample(range(min(spec.order, 1 << 20)), 4)
    split = _product_of_linears(spec, roots)
    p = split * split * quad * quad * quad
    p = p.scale(rnd.randrange(1, spec.order))
    assert ratlaurent.field_roots(p) == set(roots)
    assert ratlaurent.field_roots(quad) == set()
    assert ratlaurent.field_roots(Poly(spec, (7,))) == set()
    with pytest.raises(ValueError,
                       match=r"not split over working field: irreducible "
                             r"factor of degree 2 with coeff masks "
                             + re.escape(str(list(quad.coeffs)))):
        poly_roots(split * quad)


def test_poly_roots_calls_a_rootless_quartic_no_irreducible_factor():
    # q^2 (s + 1) leaves the cofactor q^2, which has no root in the field
    # but is not irreducible
    q = next(Poly(F256, (c, 1, 1)) for c in range(1, 256)
             if not ratlaurent.field_roots(Poly(F256, (c, 1, 1))))
    rest = q * q
    with pytest.raises(ValueError) as err:
        poly_roots(rest * Poly(F256, (1, 1)))
    assert str(err.value) == (
        "pole not split over working field: factor of degree 4 with no "
        f"root in the field, coeff masks {list(rest.coeffs)}")


def _sparse_poly(rnd, spec, degree):
    """A random polynomial of the given degree, about a third of its lower
    coefficients zero."""
    return Poly(spec, [rnd.randrange(spec.order) if rnd.random() < 0.7
                       else 0 for _ in range(degree)]
                + [rnd.randrange(1, spec.order)])


@pytest.mark.parametrize("m", [8, 16, 18])
def test_poly_product_and_division_match_the_bit_loop(m):
    # m = 8 and 16 run in the log domain, m = 18 on the bit loop
    spec = FieldSpec(m=m)
    rnd = random.Random(400 + m)
    zero = Poly(spec, ())
    for _ in range(25):
        p = _sparse_poly(rnd, spec, rnd.randint(0, 40))
        d = _sparse_poly(rnd, spec, rnd.randint(0, 12))
        assert p * d == reference_poly_mul(p, d) == d * p
        assert p * zero == zero == zero * p
        quo, rem = p.divmod(d)
        assert (quo, rem) == reference_poly_divmod(p, d)
        assert rem.degree < d.degree and quo * d + rem == p
    monic = Poly(spec, (3, 0, 1))
    assert Poly(spec, (5,)).divmod(monic) == (zero, Poly(spec, (5,)))
    with pytest.raises(ZeroDivisionError):
        monic.divmod(zero)


@pytest.mark.parametrize("m", [4, 8, 18])
def test_field_roots_reads_a_linear_polynomial_directly(m, monkeypatch):
    spec = FieldSpec(m=m)
    rnd = random.Random(500 + m)
    divisions = [0]
    divmod_ = Poly.divmod

    def counting_divmod(self, other):
        divisions[0] += 1
        return divmod_(self, other)

    monkeypatch.setattr(Poly, "divmod", counting_divmod)
    for _ in range(10):
        a = spec.element(rnd.randrange(1, spec.order))
        b = spec.element(rnd.randrange(spec.order))
        # a s + b vanishes at b / a
        assert ratlaurent.field_roots(Poly(spec, (b.mask, a.mask))) == \
            {(b / a).mask}
    assert divisions[0] == 0
