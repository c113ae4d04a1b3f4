import json
import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

from a4diff.gf import FieldSpec
from a4diff.ratlaurent import LaurentChunk, Place, Poly, RatFunc
from a4diff.ramification import (
    INF, analyze_branch_data, lambda_delta,
    lambda_of_phi, mobius_step, param_to_json, phi_of_lambda,
    theta_coefficients,
)
from a4diff._families import (
    degenerate_orbit_alpha, generic_orbit_alpha, hkg_alpha,
)
from helpers import (
    analyzed_random_datum, degenerate_orbit_expected, ell,
    generic_orbit_expected, genus_and_differents, hkg_expected, ord_at,
    point_at, place_from_key, random_trace_zero_alpha,
)

F = FieldSpec(m=8)
Z = F.zeta()
ONE = F.one()


def mono(e):
    return RatFunc.monomial(F, e)


def chunk(order, masks):
    return LaurentChunk(Place.infinity(), order, [F.element(c) for c in masks])


# ---------------------------------------------------------------------------
# theta recursion


def test_theta_monomial_pair():
    th = theta_coefficients(chunk(-5, [1, 0, 0]),
                            chunk(-5, [(Z * Z).mask, 0, 0]), 5)
    assert th == [Z, F.zero()]


def test_theta_rejects_zero_leading():
    with pytest.raises(ValueError, match="degenerate leading coefficient"):
        theta_coefficients(chunk(-5, [0, 1, 1]), chunk(-5, [1, 0, 0]), 5)


def test_theta_rejects_unit_ratio():
    # equal leading data force theta_0 = 1
    with pytest.raises(ValueError, match="degenerate leading coefficient"):
        theta_coefficients(chunk(-5, [1, 0, 0]), chunk(-5, [1, 0, 0]), 5)


def test_theta_rejects_zero_ratio():
    with pytest.raises(ValueError, match="degenerate leading coefficient"):
        theta_coefficients(chunk(-5, [1, 0, 0]), chunk(-5, [0, 1, 0]), 5)


def test_theta_rejects_order_mismatch():
    with pytest.raises(ValueError, match="degenerate leading coefficient"):
        theta_coefficients(chunk(-3, [1]), chunk(-3, [Z.mask]), 5)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_theta_solves_defining_equation(data):
    m = data.draw(st.sampled_from((5, 7, 9, 13, 21)))
    shift = data.draw(st.sampled_from((0, 2)))
    count = 2 * (m // 4) + 1
    a0 = data.draw(st.integers(1, 255))
    b0 = data.draw(st.integers(1, 255).filter(lambda v: shift or v != a0))
    a = [a0] + [data.draw(st.integers(0, 255)) for _ in range(count - 1)]
    b = [b0] + [data.draw(st.integers(0, 255)) for _ in range(count - 1)]
    th = theta_coefficients(chunk(-m, a), chunk(-m - shift, b), m)
    assert len(th) == m // 4 + 1
    assert th[0]
    ae = [F.element(c) for c in a]
    be = [F.element(c) for c in b]
    for i in range(m // 4 + 1):
        acc = be[2 * i]
        for i2 in range(i + 1):
            acc = acc + ae[2 * (i - i2)] * th[i2] * th[i2]
        assert not acc


def test_lambda_delta_small_order_cases():
    assert lambda_delta(F, (3, 5, 5), [ONE]) == (INF, -1)
    assert lambda_delta(F, (5, 3, 5), [ONE]) == (F.zero(), -1)
    assert lambda_delta(F, (5, 5, 3), [ONE]) == (ONE, -1)


# ---------------------------------------------------------------------------
# projective parameter dictionary


def test_phi_lambda_fixed_correspondences():
    assert phi_of_lambda(F, Z) == F.zero()
    assert phi_of_lambda(F, Z * Z) is INF
    assert phi_of_lambda(F, INF) == ONE
    assert phi_of_lambda(F, F.zero()) == Z * Z
    assert phi_of_lambda(F, ONE) == Z
    assert lambda_of_phi(F, INF) == Z * Z
    assert lambda_of_phi(F, ONE) is INF
    assert lambda_of_phi(F, F.zero()) == Z
    assert lambda_of_phi(F, phi_of_lambda(F, INF)) is INF


@given(st.integers(min_value=0, max_value=255))
def test_phi_lambda_roundtrip(mask):
    lam = F.element(mask)
    back = lambda_of_phi(F, phi_of_lambda(F, lam))
    assert back == lam


@given(st.integers(min_value=0, max_value=255))
def test_mobius_step_order_three(mask):
    lam = F.element(mask)
    out = lam
    for _ in range(3):
        out = mobius_step(F, out)
    assert out is not INF and out == lam
    # on the phi side the step is multiplication by zeta
    phi = phi_of_lambda(F, lam)
    phi_next = phi_of_lambda(F, mobius_step(F, lam))
    if phi is INF or phi_next is INF:
        assert phi is INF and mask == (Z * Z).mask or phi_next is INF
    else:
        assert phi_next == Z * phi


# ---------------------------------------------------------------------------
# golden data


def test_quintic_monomial():
    data = analyze_branch_data(mono(5))
    assert data.genus == 6
    assert data.r == 1 and ell(data) == 0 and not data.inverted
    bp = data.special[0]
    assert bp.place.is_infinity()
    assert bp.p_values == (5, 5, 5)
    assert (bp.m, bp.M) == (5, 5)
    assert bp.lam == Z and bp.delta == 0 and bp.epsilon == -1
    assert bp.theta == [Z, F.zero()]
    assert bp.different() == 18 and bp.jumps() == (5,)
    assert data.differents == {"inf": 18}
    assert data.jumps == {"inf": (5,)}


def test_linear_monomial_genus_zero():
    data = analyze_branch_data(mono(1))
    assert data.genus == 0
    bp = data.special[0]
    assert (bp.m, bp.M, bp.delta) == (1, 1, 0)
    assert bp.lam == Z * Z
    assert bp.theta == [Z * Z]
    assert data.differents == {"inf": 6}


def test_pole_at_zero_triggers_inversion():
    alpha = RatFunc(Poly(F, (1,)), Poly(F, [0] * 5 + [1]))
    data = analyze_branch_data(alpha)
    assert data.inverted
    assert data.r == 1 and ell(data) == 0
    bp = data.special[0]
    assert bp.place.is_infinity()
    assert (bp.m, bp.lam, bp.delta) == (5, Z, 0)
    assert data.genus == 6
    assert data.to_json()["inverted"] is True


def test_both_special_points():
    alpha = mono(5) + RatFunc(Poly(F, (1,)), Poly(F, (0, 1)))
    data = analyze_branch_data(alpha)
    assert not data.inverted
    assert data.r == 2 and ell(data) == 0
    inf_bp, zero_bp = data.special
    assert inf_bp.place.is_infinity()
    assert zero_bp.place == Place.zero(F)
    assert inf_bp.epsilon == -1 and zero_bp.epsilon == 1
    assert inf_bp.lam == Z ** ((-5) % 3)
    assert zero_bp.lam == Z
    assert data.genus == 9


def test_trace_nonzero_rejected():
    with pytest.raises(ValueError, match="trace nonzero"):
        analyze_branch_data(mono(3))


def test_trivial_datum_rejected():
    g = mono(5) + mono(1)
    with pytest.raises(ValueError, match="trivial datum"):
        analyze_branch_data(g.square() + g)


def test_partial_ramification_rejected():
    # 1/(s-1) + zeta/(s-zeta): trace zero, but the orbit of 1 is not
    # contained in the pole set, so one Klein-four leg is unramified
    alpha = (RatFunc(Poly(F, (1,)), Poly(F, (1, 1)))
             + RatFunc(Poly(F, (Z.mask,)), Poly(F, (Z.mask, 1))))
    with pytest.raises(ValueError, match="not totally ramified"):
        analyze_branch_data(alpha)


# ---------------------------------------------------------------------------
# parametric families


@pytest.mark.parametrize("n,x", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_hkg_family(n, x):
    exp = hkg_expected(n, x)
    data = analyze_branch_data(hkg_alpha(F, n, x))
    assert data.r == 1 and ell(data) == 0 and not data.inverted
    bp = data.special[0]
    assert bp.m == bp.M == exp["p"]
    assert bp.lam == Z ** exp["lam_power"]
    assert bp.delta == exp["delta"]
    assert data.genus == exp["genus"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_degenerate_orbit_family(n):
    exp = degenerate_orbit_expected(n)
    data = analyze_branch_data(degenerate_orbit_alpha(F, n))
    assert data.r == 1 and ell(data) == 1
    inf_bp = data.special[0]
    assert inf_bp.m == inf_bp.M == exp["p_inf"]
    assert inf_bp.lam == Z * Z
    orb = data.orbits[0]
    assert orb.klass == "Degenerate"
    assert orb.psi == ONE
    assert (orb.m, orb.M, orb.delta) == (exp["m"], exp["M"], -1)
    at_one = orb.points[0]
    assert at_one.p_values == (4 * n - 1, 4 * n - 3, 4 * n - 1)
    assert [param_to_json(bp.lam) for bp in orb.points] == [0, "inf", 1]
    assert orb.phi == Z * Z
    assert data.genus == exp["genus"]
    assert data.jumps[at_one.place.key()] == (4 * n - 3, 4 * n + 1)
    assert data.differents["inf"] == 24


@pytest.mark.parametrize("alpha", [
    hkg_alpha(F, 1, 1), hkg_alpha(F, 2, 2), degenerate_orbit_alpha(F, 1),
    degenerate_orbit_alpha(F, 3), generic_orbit_alpha(F, 1, F.element(7)),
    generic_orbit_alpha(F, 2, F.element(3)), mono(-5) + mono(-1)],
    ids=["hkg1", "hkg2", "degenerate1", "degenerate3", "generic1",
         "generic2", "inverted"])
def test_table_orders_equal_ord_at(alpha):
    # the pole orders of the conjugates are read off alpha's pole table,
    # not from ord_at: ord_y(rho^k alpha) = ord_(zeta^k y)(alpha)
    data = analyze_branch_data(alpha)
    rho_alpha = data.alpha.rho_pullback()
    conjugates = (data.alpha, rho_alpha, rho_alpha.rho_pullback())
    points = list(data.branch_points())
    assert points
    for bp in points:
        assert bp.p_values == tuple(-ord_at(f, bp.place) for f in conjugates)


@pytest.mark.parametrize("n,psi_mask", [(1, 3), (1, 7), (2, 3)])
def test_generic_orbit_family(n, psi_mask):
    psi = F.element(psi_mask)
    assert psi ** 3 != ONE
    exp = generic_orbit_expected(n)
    data = analyze_branch_data(generic_orbit_alpha(F, n, psi))
    assert data.r == 1 and ell(data) == 1
    inf_bp = data.special[0]
    assert inf_bp.m == inf_bp.M == 1 and inf_bp.lam == Z * Z
    orb = data.orbits[0]
    assert orb.klass == "Generic"
    assert orb.m == orb.M == exp["p"] and orb.delta == exp["delta"]
    at_psi = point_at(data, Place.finite(psi))
    assert at_psi.lam == (Z + Z * Z * psi) / (ONE + psi)
    assert phi_of_lambda(F, at_psi.lam) == psi
    assert orb.phi ** 3 == psi ** 3
    assert data.genus == exp["genus"]


# ---------------------------------------------------------------------------
# randomized invariants


def test_random_data_battery():
    rnd = random.Random(3)
    seen_degenerate = 0
    seen_two_orbits = 0
    for _ in range(12):
        form, data = analyzed_random_datum(rnd, F, degenerate_bias=0.25)
        seen_two_orbits += ell(data) >= 2
        for bp in data.branch_points():
            assert all(p > 0 and p % 2 == 1 for p in bp.p_values)
            srt = sorted(bp.p_values)
            assert srt[1] == srt[2]
            assert len(bp.theta) == bp.m // 4 + 1
            if bp.m == bp.M:
                assert bp.lam == bp.theta[0]
                assert 0 <= bp.delta <= bp.m // 4
            else:
                seen_degenerate += 1
                assert bp.delta == -1
                assert bp.lam is INF or bp.lam.mask in (0, 1)
        for bp in data.special:
            assert bp.m % 3 != 0
            assert bp.lam == Z ** ((bp.epsilon * bp.m) % 3)
        assert genus_and_differents(data) == (
            data.genus, data.differents, data.jumps)
        total = sum(data.differents.values())
        assert data.genus == -3 + total // 2
        for key, d in data.differents.items():
            bp = point_at(data, place_from_key(F, key))
            assert d == 3 * (bp.m + 1) + 2 * (bp.M - bp.m)
    assert seen_degenerate and seen_two_orbits


def test_random_trace_zero_alpha_returns_over_gf4():
    # GF(4)* is a single zeta-orbit, so no second orbit can be drawn: the
    # helper caps the orbit count at the orbits there are
    def stuck(signum, frame):
        raise TimeoutError("random_trace_zero_alpha did not return")

    old = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(20)
    try:
        for seed in range(200):
            random_trace_zero_alpha(random.Random(seed), FieldSpec(2),
                                    max_orbits=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_trivial_perturbation_keeps_report():
    rnd = random.Random(7)
    for _ in range(6):
        form, data = analyzed_random_datum(rnd, F)
        g = random_trace_zero_alpha(rnd, F, max_orbits=1)
        data2 = analyze_branch_data(form.alpha_reduced + g.square() + g)
        assert data2.to_json() == data.to_json()


def test_zeta_rescale_moves_lambda_by_mobius():
    rnd = random.Random(11)
    for _ in range(5):
        form, data = analyzed_random_datum(rnd, F, degenerate_bias=0.2)
        data2 = analyze_branch_data(form.alpha_reduced.rho_pullback())
        assert data2.genus == data.genus
        assert data2.differents == data.differents
        assert data2.jumps == data.jumps
        assert data2.inverted == data.inverted
        # inverting the coordinate conjugates the twist, so normalized
        # data moves by two Moebius steps instead of one
        steps = 2 if data.inverted else 1
        for bp in data.branch_points():
            bp2 = point_at(data2, bp.place)
            assert (bp2.m, bp2.M, bp2.delta) == (bp.m, bp.M, bp.delta)
            stepped = bp.lam
            for _ in range(steps):
                stepped = mobius_step(F, stepped)
            if bp2.lam is INF or stepped is INF:
                assert bp2.lam is stepped
            else:
                assert bp2.lam == stepped
        for orb, orb2 in zip(data.orbits, data2.orbits):
            assert orb.psi == orb2.psi
            assert orb.klass == orb2.klass
            if orb.phi is INF or orb2.phi is INF:
                continue
            assert orb.phi ** 3 == orb2.phi ** 3


def test_report_json_shape():
    data = analyze_branch_data(degenerate_orbit_alpha(F, 1))
    js = data.to_json()
    txt = json.dumps(js, sort_keys=True)
    assert '"inf"' in txt
    assert js["r"] == 1 and js["inverted"] is False
    assert js["genus"] == 24
    assert js["special"][0]["place"] == "inf"
    assert js["orbits"][0]["klass"] == "Degenerate"
    assert js["orbits"][0]["points"][1]["lambda"] == "inf"
    assert js["orbits"][0]["points"][0]["jumps"] == [1, 5]
    assert set(js["differents"]) == set(js["jumps"])
