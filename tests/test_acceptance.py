"""Acceptance battery: the shipped guarantees, one test per line.

Each test prints one PASS line so a verbose run reads as a checklist.
Everything here is exact arithmetic; there are no tolerances anywhere.
"""

import random
import time

import pytest

from a4diff.decomp import (KGLabel, KHLabel, _string_block, kG_decomposition,
                           kH_decomposition, mu_nu, restrict_decomposition)
from a4diff.gf import FieldSpec
from a4diff.modulezoo import (kg_group_rep, kh_group_rep, restrict_to_h,
                              validate_group_rep, zoo_labels)
from a4diff.oracle import decompose_rep
from a4diff.ramification import (INF, analyze_branch_data, lambda_of_phi,
                                 phi_of_lambda)
from a4diff.ratlaurent import Poly, RatFunc
from a4diff.repbuilder import build_global_rep
from a4diff._families import (degenerate_orbit_alpha, generic_orbit_alpha,
                              hkg_alpha)

from helpers import (analyzed_random_datum, hom_dim, induce_label,
                     induce_to_g, kh_cd_group_rep, labels_group_rep,
                     restrict_label)
from test_oracle import (conjugated, kg_zoo, kh_zoo, multiset,
                         rand_kg_multiset, rand_kh_multiset)

SPEC = FieldSpec()
Z = SPEC.zeta()
ONE = SPEC.one()


def _ceil(a, b):
    return -(-a // b)


@pytest.fixture(scope="module")
def random_batch():
    """One hundred random admissible data, shared by the two criteria
    that are quantified over the same sample."""
    rnd = random.Random(0xA4D1FF)
    return [analyzed_random_datum(rnd, SPEC) for _ in range(100)]


def test_criterion_1_one_point_family_golden_values():
    for n in (1, 2, 3):
        for x in (1, 2):
            data = analyze_branch_data(hkg_alpha(SPEC, n, x))
            r = n % 3
            p = (32 * n - 2 * r + 20) * x - 3
            assert not data.orbits and len(data.special) == 1
            bp = data.special[0]
            assert bp.place.is_infinity()
            assert bp.p_alpha == p
            assert bp.m == p and bp.M == p
            assert bp.delta == 8 * x
            assert bp.lam == Z ** x
            mn = mu_nu(bp, data)
            assert mn.mu1 == (8 * n + 5) * x - _ceil(r * x, 2)
            assert mn.mu2 == (16 * n + 10 - r) * x - 1
            assert mn.mu3 == (24 * n + 15 - r) * x - 1 - _ceil(r * x + 1, 2)
            l, a1, a2 = _string_block(bp, mn)
            assert l == n + 1
            assert a1 == (5 - r) * x - 1 + _ceil(r * x, 2)
            assert a2 == (3 + r) * x + 1 - _ceil(r * x, 2)
    print("ACCEPTANCE 1: one-point family invariants exact -- PASS")


def test_criterion_2_degenerate_orbit_unit_band():
    for n in (1, 2, 3):
        data = analyze_branch_data(degenerate_orbit_alpha(SPEC, n))
        assert len(data.orbits) == 1
        for bp in data.orbits[0].points:
            assert bp.m == 4 * n - 3
            assert bp.M == 4 * n - 1
            assert bp.delta == -1
        kg = kG_decomposition(data)
        assert kg.entries.get(KGLabel.band(6 * n, ONE)) == 1
    print("ACCEPTANCE 2: degenerate orbit carries Band(6n, 1) once -- PASS")


def test_criterion_3_generic_orbit_band_parameter():
    # draw three admissible psi, canonicalized to the representative of
    # their cube-root-of-unity orbit (which is what the analysis reports)
    rnd = random.Random(2718)
    picks, used = [], set()
    while len(picks) < 3:
        v = SPEC.element(rnd.randrange(2, SPEC.order))
        chain = {(Z ** t * v).mask for t in range(3)}
        rep = SPEC.element(min(chain))
        if rep.mask in used or rep == ONE:
            continue
        used.update(chain)
        picks.append(rep)
    for n in (1, 2):
        for psi in picks:
            data = analyze_branch_data(generic_orbit_alpha(SPEC, n, psi))
            orb = data.orbits[0]
            assert orb.psi == psi
            bp1 = orb.points[0]
            assert bp1.lam == (Z + Z * Z * psi) / (ONE + psi)
            assert phi_of_lambda(SPEC, bp1.lam) == psi
            assert bp1.delta == 1
            kg = kG_decomposition(data)
            assert kg.entries.get(KGLabel.band(6 * n, psi ** 3)) == 1
    print("ACCEPTANCE 3: generic orbit band parameter psi^3 -- PASS")


def test_criterion_4_genus_dimension_identity(random_batch):
    for form, data in random_batch:
        kh = kH_decomposition(data)
        kg = kG_decomposition(data)
        total = sum(3 * (bp.m + 1) + 2 * (bp.M - bp.m)
                    for bp in data.branch_points())
        genus = -3 + total // 2
        assert kh.total_dim == genus
        assert kg.total_dim == genus
        assert data.genus == genus
    print("ACCEPTANCE 4: total dims equal the genus on 100 random data "
          "-- PASS")


def test_criterion_5_restriction_compatibility(random_batch):
    for form, data in random_batch:
        assert restrict_decomposition(kG_decomposition(data)) == \
            kH_decomposition(data)
    print("ACCEPTANCE 5: restriction matches on the same 100 random data "
          "-- PASS")


def _restricted_nonband(lab):
    """Label-level restriction to the Klein subgroup, case by case."""
    if lab.kind == "Simple":
        return {KHLabel.triv(): 1}
    if lab.kind == "OddString":
        return {KHLabel.string(lab.dim, lab.x): 1}
    star = SPEC.zero() if lab.param == 0 else INF
    return {KHLabel.even(lab.dim, lambda_of_phi(SPEC, star)): 1}


def test_criterion_6_zoo_soundness():
    checked = 0
    for side, build in (("kH", kh_group_rep), ("kG", kg_group_rep)):
        for lab in zoo_labels(SPEC, 30, side):
            validate_group_rep(build(SPEC, lab))
            checked += 1
    assert checked == 5336

    # restriction dictionary, non-band labels first
    for lab in zoo_labels(SPEC, 30, "kG"):
        if lab.kind == "Band":
            continue
        sol = decompose_rep(restrict_to_h(kg_group_rep(SPEC, lab)))
        assert sol.multiplicities == _restricted_nonband(lab), str(lab)
        assert sol.total_dim() == lab.dim

    # then every band with a parameter that is a cube in the working
    # field: the three Klein tubes sit at phi, zeta phi, zeta^2 phi
    for dim in (6, 12, 18, 24, 30):
        seen = set()
        for mask in range(1, SPEC.order):
            phi = SPEC.element(mask)
            mu = phi ** 3
            if mu.mask in seen:
                continue
            seen.add(mu.mask)
            lab = KGLabel.band(dim, mu, phi=phi)
            sol = decompose_rep(restrict_to_h(kg_group_rep(SPEC, lab)))
            want = {KHLabel.even(dim // 3, lambda_of_phi(SPEC, Z ** t * phi)): 1
                    for t in range(3)}
            assert sol.multiplicities == want, str(lab)
            assert sol.total_dim() == dim
        assert len(seen) == 85

    # Frobenius reciprocity on every pair from the sliced families,
    # counted through the closed-form hom tables on both sides
    from a4diff.oracle import hom_labels
    params = [SPEC.zero(), ONE, Z, Z * Z, SPEC.element(9), INF]
    phis = [Z, SPEC.element(9), SPEC.element(5)]
    kg_side = kg_zoo(24, phis)
    res = {Y: restrict_label(SPEC, Y) for Y in kg_side}
    for X in kh_zoo(24, params):
        ind = induce_label(SPEC, X)
        for Y in kg_side:
            lhs = sum(m * hom_labels(SPEC, lab, Y)
                      for lab, m in ind.entries.items())
            rhs = sum(m * hom_labels(SPEC, X, lab)
                      for lab, m in res[Y].entries.items())
            assert lhs == rhs, (str(X), str(Y))
    # and on dense matrices for a small mixed sample
    p = SPEC.element(9)
    for X in (KHLabel.triv(), KHLabel.string(3, 2), KHLabel.even(2, p),
              KHLabel.even(4, INF)):
        mx = kh_group_rep(SPEC, X)
        for Y in (KGLabel.simple(2), KGLabel.odd(3, 1, 1),
                  KGLabel.even(4, 0, 0), KGLabel.band(6, p ** 3, phi=p)):
            my = kg_group_rep(SPEC, Y)
            assert hom_dim(induce_to_g(mx), my) == \
                hom_dim(mx, restrict_to_h(my)), (str(X), str(Y))
    print("ACCEPTANCE 6: zoo validation, restriction dictionary and "
          "Frobenius reciprocity -- PASS")


def test_criterion_7_oracle_round_trip():
    rnd = random.Random(777)
    for trial in range(200):
        make = rand_kh_multiset if trial % 2 == 0 else rand_kg_multiset
        labs = make(rnd, rnd.randrange(10, 121))
        M = labels_group_rep(SPEC, labs)
        assert M.dim <= 120
        if trial % 4 == 0:
            M = conjugated(M, rnd)
        sol = decompose_rep(M)
        assert sol.multiplicities == multiset(labs), trial
        assert sol.total_dim() == M.dim
    print("ACCEPTANCE 7: oracle round-trips 200 random multisets -- PASS")


def test_criterion_8_end_to_end_under_ten_seconds():
    cases = [
        ("quintic monomial",
         RatFunc.from_poly(Poly(SPEC, (0, 0, 0, 0, 0, 1)))),
        ("one-point family n=1 x=1", hkg_alpha(SPEC, 1, 1)),
        ("degenerate orbit n=1", degenerate_orbit_alpha(SPEC, 1)),
    ]
    for name, alpha in cases:
        start = time.perf_counter()
        data = analyze_branch_data(alpha)
        gr = build_global_rep(data)
        sol = decompose_rep(gr.rep)
        elapsed = time.perf_counter() - start
        assert sol.multiplicities == kG_decomposition(data).entries, name
        assert sol.total_dim() == gr.dim
        assert elapsed < 10.0, (name, elapsed)
    print("ACCEPTANCE 8: global matrices match closed forms in time "
          "-- PASS")


def test_criterion_9_moebius_dictionary():
    rnd = random.Random(40961)
    sample = [SPEC.element(rnd.randrange(SPEC.order)) for _ in range(100)]
    sample += [SPEC.zero(), ONE, Z, Z * Z, INF]
    for lam in sample:
        assert lambda_of_phi(SPEC, phi_of_lambda(SPEC, lam)) == lam

    # the four fixed correspondences between the two band coordinate
    # systems, checked at parameter level and then as actual modules
    pairs = [(SPEC.zero(), Z), (INF, Z * Z),
             (Z * Z, SPEC.zero()), (ONE, INF)]
    for phi_cd, lam_ab in pairs:
        assert lambda_of_phi(SPEC, phi_cd) == lam_ab
        assert phi_of_lambda(SPEC, lam_ab) == phi_cd
        for dim in (2, 4):
            lab = KHLabel.even(dim, lam_ab)
            sol = decompose_rep(kh_cd_group_rep(SPEC, lab))
            assert sol.multiplicities == {lab: 1}
            assert sol.total_dim() == dim
    print("ACCEPTANCE 9: Moebius band dictionary -- PASS")
