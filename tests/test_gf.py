import itertools
import pickle
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from a4diff import gf
from a4diff.gf import (
    FieldSpec, FieldElement, sqrt_frobenius,
    all_elements, is_irreducible_gf2, default_modulus, fixed_multiplier,
    _mask_inv, _mask_mul, _pmulmod,
)

from helpers import (cube_roots_of_unity, reference_field_tables,
                     reference_inverse, reference_sqrt, reference_zeta)

F4 = FieldSpec(m=2)          # modulus x^2 + x + 1
F256 = FieldSpec(m=8)


def test_default_modulus_smallest():
    # x^2+x+1 = 0b111, and for m=8 the smallest irreducible is x^8+x^4+x^3+x+1.
    assert F4.modulus == 0b111
    assert F256.modulus == 0x11B


def test_odd_degree_rejected():
    with pytest.raises(ValueError):
        FieldSpec(m=3)
    with pytest.raises(ValueError):
        FieldSpec(m=0)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec(m=4, modulus=0b10101)  # (x^2+x+1)^2
    with pytest.raises(ValueError):
        FieldSpec(m=4, modulus=0b111)    # degree mismatch


def test_gf4_multiplication_table():
    # Hand table for GF(4) = {0, 1, w, w+1} with w^2 = w + 1.
    z, o = F4.zero(), F4.one()
    w, w1 = F4.element(2), F4.element(3)
    assert w * w == w1
    assert w * w1 == o
    assert w1 * w1 == w
    assert w + w1 == o
    assert (w + w) == z


def test_zeta_is_primitive_cube_root():
    for spec in (F4, FieldSpec(m=4), FieldSpec(m=6), F256, FieldSpec(m=12)):
        one, zeta, zeta2 = cube_roots_of_unity(spec)
        assert zeta != one and zeta2 != one and zeta2 != zeta
        assert zeta * zeta == zeta2
        assert zeta * zeta2 == one
        assert zeta + zeta2 == one  # 1 + zeta + zeta^2 = 0
        # canonical: the smaller root of x^2 + x + 1
        assert zeta.mask < (zeta + one).mask


def test_zeta_matches_the_linear_solve():
    # every supported degree with its default modulus, and a few others
    specs = [FieldSpec(m=m) for m in range(2, 33, 2)]
    for m in (4, 8, 12, 16, 20):
        moduli = (f for f in range((1 << m) + 1, 1 << (m + 1), 2)
                  if is_irreducible_gf2(f))
        specs += [FieldSpec(m=m, modulus=f)
                  for f in itertools.islice(moduli, 1, 3)]
    for spec in specs:
        assert spec.zeta().mask == reference_zeta(spec), spec


def test_inverse_and_division_exhaustive_gf16():
    spec = FieldSpec(m=4)
    for a in all_elements(spec):
        if not a:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            continue
        assert a * a.inverse() == spec.one()
        assert (a / a) == spec.one()


def test_sqrt_exhaustive_gf16():
    spec = FieldSpec(m=4)
    for a in all_elements(spec):
        r = sqrt_frobenius(a)
        assert r * r == a
        assert a.sqrt() == r


masks = st.integers(min_value=0, max_value=255)


@settings(max_examples=300, deadline=None)
@given(masks, masks, masks)
def test_field_axioms_random(a, b, c):
    x, y, z = F256.element(a), F256.element(b), F256.element(c)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + x == F256.zero()


@settings(max_examples=300, deadline=None)
@given(masks, masks)
def test_sqrt_is_additive_automorphism(a, b):
    x, y = F256.element(a), F256.element(b)
    assert sqrt_frobenius(x * y) == sqrt_frobenius(x) * sqrt_frobenius(y)
    assert sqrt_frobenius(x + y) == sqrt_frobenius(x) + sqrt_frobenius(y)
    r = sqrt_frobenius(x)
    assert r * r == x


@settings(max_examples=200, deadline=None)
@given(masks)
def test_pow_matches_repeated_multiplication(a):
    x = F256.element(a)
    acc = F256.one()
    for e in range(5):
        assert x ** e == acc
        acc = acc * x
    if x:
        assert x ** -1 == x.inverse()


def test_cross_field_mixing_rejected():
    with pytest.raises(ValueError):
        F4.one() + F256.one()
    with pytest.raises(ValueError):
        F4.one() * F256.one()


def test_spec_serialization_roundtrip():
    for spec in (F4, F256, FieldSpec(m=10)):
        j = spec.to_json()
        back = FieldSpec.from_json(j)
        assert back == spec
        assert j["modulus"][0] == 1 and j["modulus"][-1] == 1


def test_element_mask_bounds():
    with pytest.raises(ValueError):
        F4.element(4)
    with pytest.raises(ValueError):
        F4.element(-1)


def test_irreducibility_helper():
    assert is_irreducible_gf2(0b111)        # x^2+x+1
    assert not is_irreducible_gf2(0b101)    # (x+1)^2
    assert is_irreducible_gf2(0b1011)       # x^3+x+1
    assert default_modulus(2) == 0b111


def test_canonical_ordering():
    a, b = F256.element(3), F256.element(7)
    assert a < b and a <= b
    assert sorted([b, a]) == [a, b]


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_fixed_multiplier_exhaustive(m):
    f = FieldSpec(m=m).modulus
    for c in range(1 << m):
        mul = fixed_multiplier(c, f)
        assert [mul(x) for x in range(1 << m)] == \
            [_pmulmod(c, x, f) for x in range(1 << m)]


@pytest.mark.parametrize("m", [12, 20, 32])
def test_fixed_multiplier_random_and_all_ones(m):
    f = FieldSpec(m=m).modulus
    top = (1 << m) - 1
    rnd = random.Random(m)
    cs = [0, 1, top] + [rnd.randrange(1 << m) for _ in range(30)]
    for c in cs:
        mul = fixed_multiplier(c, f)
        xs = [0, 1, top] + [rnd.randrange(1 << m) for _ in range(60)]
        assert [mul(x) for x in xs] == [_pmulmod(c, x, f) for x in xs]


def _check_scalar_arithmetic(spec, masks):
    f = spec.modulus
    for a in masks:
        x = spec.element(a)
        assert [_mask_mul(spec, a, b) for b in masks] == \
            [_pmulmod(a, b, f) for b in masks]
        assert [(x * spec.element(b)).mask for b in masks] == \
            [_pmulmod(a, b, f) for b in masks]
        assert sqrt_frobenius(x) == reference_sqrt(x)
        if a:
            assert x.inverse() == reference_inverse(x)
            assert _mask_inv(spec, a) == reference_inverse(x).mask


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_table_arithmetic_matches_the_bit_loop_exhaustively(m):
    spec = FieldSpec(m)
    assert gf._scalar_tables(spec) is not None
    _check_scalar_arithmetic(spec, range(spec.order))


@pytest.mark.parametrize("m", [10, 12, 16, 18])
def test_scalar_arithmetic_matches_the_bit_loop_at_random(m):
    spec = FieldSpec(m)
    # tables up to TABLE_M = 16, the bit loop above it
    assert (gf._scalar_tables(spec) is None) == (m == 18)
    rnd = random.Random(m)
    top = spec.order - 1
    masks = [0, 1, 2, top] + [rnd.randrange(spec.order) for _ in range(60)]
    _check_scalar_arithmetic(spec, masks)
    with pytest.raises(ZeroDivisionError):
        _mask_inv(spec, 0)


def test_a_pickled_field_leaves_its_tables_behind():
    spec = FieldSpec(m=10)
    assert gf._scalar_tables(spec) is not None
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec and back._lut is None
    assert (back.element(77) * back.element(300)).mask == \
        _pmulmod(77, 300, spec.modulus)


@pytest.mark.parametrize("m", list(range(2, 17, 2)) + [9, 11, 13, 15])
def test_exp_log_tables_match_the_plain_build(m):
    # odd m are the tower's subfields at m = 18, 22, 26 and 30
    f = default_modulus(m)
    exp, log = gf._exp_log(m, f)
    ref_exp, ref_log = reference_field_tables(
        types.SimpleNamespace(order=1 << m, modulus=f))
    assert (exp, log) == (tuple(ref_exp.tolist()), tuple(ref_log.tolist()))
