"""Decomposition tests: floor bookkeeping, both module inventories,
restriction, and the refusal of one-point (HKG) requests on orbit data."""

import json
import random

import pytest

from a4diff.cli import JobSpec, run_job
from a4diff.gf import FieldSpec
from a4diff.ratlaurent import RatFunc
from a4diff.artin_schreier import symmetrize_h
from a4diff.ramification import INF, analyze_branch_data, mobius_step
from a4diff.decomp import (
    Decomposition,
    KGLabel,
    KHLabel,
    kG_decomposition,
    kH_decomposition,
    mu_nu,
    restrict_decomposition,
)
from a4diff._families import (
    degenerate_orbit_alpha,
    generic_orbit_alpha,
    hkg_alpha,
)
from helpers import analyzed_random_datum, hkg_expected

F = FieldSpec(m=8)
Z = F.zeta()
ONE = F.one()


def analyze(alpha):
    return analyze_branch_data(symmetrize_h(alpha))


def mono(e):
    return RatFunc.monomial(F, e)


def dec_of(side, *pairs):
    out = Decomposition(side, spec=F)
    for label, mult in pairs:
        out.add(label, mult)
    return out


# ---------------------------------------------------------------- mu_nu

def test_mu_nu_large_wild_point():
    data = analyze(hkg_alpha(F, 1, 1))
    bp = data.special[0]
    assert (bp.m, bp.M) == (47, 47)
    mn = mu_nu(bp, data)
    assert (mn.mu1, mn.mu2, mn.mu3, mn.nu) == (12, 24, 36, 0)
    assert mn.k_y == -2
    assert mn.a_y == 0


def test_mu_nu_orbit_point():
    data = analyze(degenerate_orbit_alpha(F, 1))
    bp = data.orbits[0].points[0]
    assert (bp.m, bp.M) == (1, 3)
    mn = mu_nu(bp, data)
    assert (mn.mu1, mn.mu2, mn.mu3, mn.nu) == (1, 1, 1, 1)
    assert mn.k_y == 0
    assert mn.a_y == 1


def test_mu_nu_smallest_point():
    data = analyze(mono(1))
    mn = mu_nu(data.special[0], data)
    assert (mn.mu1, mn.mu2, mn.mu3, mn.nu) == (1, 1, 1, 0)


def test_mu_nu_designated_point_without_special_fiber():
    # with no pole at 0 or oo one orbit point stands in for them
    rnd = random.Random(411)
    _, data = analyzed_random_datum(rnd, F, allow_inf=False, allow_zero=False)
    assert data.r == 0
    flags = [mu_nu(bp, data).a_y for bp in data.branch_points()]
    assert flags[0] == 2
    assert all(flag == 1 for flag in flags[1:])


# -------------------------------------------------- Klein four side

def test_kh_quintic():
    dec = kH_decomposition(analyze(mono(5)))
    assert dec.entries == {
        KHLabel.even(2, Z): 1,
        KHLabel.string(3, 1): 1,
        KHLabel.triv(): 1,
    }
    assert dec.total_dim == 6


def test_kh_genus_zero_is_empty():
    dec = kH_decomposition(analyze(mono(1)))
    assert dec.entries == {}
    assert dec.total_dim == 0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("x", [1, 2])
def test_kh_wild_family_closed_form(n, x):
    want = hkg_expected(n, x)
    data = analyze(hkg_alpha(F, n, x))
    dec = kH_decomposition(data)
    lam = Z if x == 1 else Z * Z
    mu1, mu2, mu3 = want["mu"]
    expect = {KHLabel.string(3, 1): mu1 - 1, KHLabel.triv(): mu3 - mu2}
    l, a1, a2 = want["l"], want["a1"], want["a2"]
    expect[KHLabel.even(2 * l, lam)] = a1
    if a2:
        expect[KHLabel.even(2 * (l - 1), lam)] = a2
    assert dec.entries == expect
    assert dec.total_dim == want["genus"]


def test_kh_degenerate_orbit():
    dec = kH_decomposition(analyze(degenerate_orbit_alpha(F, 1)))
    # each orbit point lands on one of the three degenerate parameters
    for lam in (F.zero(), ONE, INF):
        assert dec.mult(KHLabel.even(2, lam)) == 1
    assert dec.mult(KHLabel.string(3, 1)) == 4
    assert dec.mult(KHLabel.triv()) == 2
    assert dec.total_dim == 24


# ------------------------------------------------------------ G side

def test_kg_quintic():
    dec = kG_decomposition(analyze(mono(5)))
    assert dec.entries == {
        KGLabel.even(2, 0, 2): 1,
        KGLabel.odd(3, 1, 1): 1,
        KGLabel.simple(0): 1,
    }
    assert dec.total_dim == 6


def test_kg_wild_family_small_case():
    dec = kG_decomposition(analyze(hkg_alpha(F, 1, 1)))
    for i, mult in enumerate((2, 1, 1)):
        assert dec.mult(KGLabel.even(4, 0, i)) == mult
    for i, mult in enumerate((1, 2, 1)):
        assert dec.mult(KGLabel.even(2, 0, i)) == mult
    for i, mult in enumerate((3, 4, 4)):
        assert dec.mult(KGLabel.odd(3, 1, i)) == mult
    for i, mult in enumerate((4, 4, 4)):
        assert dec.mult(KGLabel.simple(i)) == mult
    assert dec.total_dim == 69


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kg_degenerate_orbit_band(n):
    data = analyze(degenerate_orbit_alpha(F, n))
    orb = data.orbits[0]
    assert (orb.m, orb.M, orb.delta) == (4 * n - 3, 4 * n - 1, -1)
    dec = kG_decomposition(data)
    assert dec.mult(KGLabel.band(6 * n, ONE)) == 1
    assert sum(m for lab, m in dec.entries.items()
               if lab.kind == "Band") == 1


def test_kg_degenerate_orbit_character_splits():
    dec = kG_decomposition(analyze(degenerate_orbit_alpha(F, 1)))
    for i, mult in enumerate((1, 2, 1)):
        assert dec.mult(KGLabel.odd(3, 1, i)) == mult
    for i, mult in enumerate((0, 1, 1)):
        assert dec.mult(KGLabel.simple(i)) == mult
    assert dec.mult(KGLabel.even(4, INF, 2)) == 1


@pytest.mark.parametrize("n,mask", [(1, 3), (1, 7), (2, 3)])
def test_kg_generic_orbit_band(n, mask):
    psi = F.element(mask)
    data = analyze(generic_orbit_alpha(F, n, psi))
    dec = kG_decomposition(data)
    band = KGLabel.band(6 * n, psi ** 3)
    assert dec.mult(band) == 1
    stored = next(lab for lab in dec.entries if lab == band)
    assert stored.phi == psi


# -------------------------------------------------------- restriction

def test_restrict_dictionary_fieldless_kinds():
    d = dec_of("kG",
               (KGLabel.simple(0), 2),
               (KGLabel.odd(5, 2, 1), 3),
               (KGLabel.even(4, 0, 0), 1),
               (KGLabel.even(6, INF, 2), 1))
    out = restrict_decomposition(d)
    assert out.entries == {
        KHLabel.triv(): 2,
        KHLabel.string(5, 2): 3,
        KHLabel.even(4, Z): 1,
        KHLabel.even(6, Z * Z): 1,
    }


def test_restrict_band_follows_mobius_chain():
    phi = F.element(9)
    d = dec_of("kG", (KGLabel.band(6, phi ** 3, phi=phi), 1))
    out = restrict_decomposition(d)
    # lambda(phi) = zeta(1 + zeta phi)/(1 + phi), then its step orbit
    lam = Z * (ONE + Z * phi) / (ONE + phi)
    lam2 = mobius_step(F, lam)
    lam3 = mobius_step(F, lam2)
    assert out.entries == {
        KHLabel.even(2, lam): 1,
        KHLabel.even(2, lam2): 1,
        KHLabel.even(2, lam3): 1,
    }
    assert lam2 == (ONE + lam) / lam
    assert lam3 == ONE / (ONE + lam)


def test_restrict_band_without_provenance():
    phi = F.element(9)
    with_phi = dec_of("kG", (KGLabel.band(12, phi ** 3, phi=phi), 2))
    without = dec_of("kG", (KGLabel.band(12, phi ** 3), 2))
    assert restrict_decomposition(with_phi) == restrict_decomposition(without)


def test_restrict_degenerate_band():
    d = dec_of("kG", (KGLabel.band(6, ONE), 1))
    out = restrict_decomposition(d)
    assert out.entries == {
        KHLabel.even(2, F.zero()): 1,
        KHLabel.even(2, ONE): 1,
        KHLabel.even(2, INF): 1,
    }


def test_restriction_matches_klein_four_answer():
    rnd = random.Random(97)
    for k in range(14):
        bias = 0.6 if k % 3 == 0 else 0.0
        _, data = analyzed_random_datum(rnd, F, degenerate_bias=bias)
        kh = kH_decomposition(data)
        kg = kG_decomposition(data)
        assert kh.total_dim == kg.total_dim == data.genus
        assert restrict_decomposition(kg) == kh


def test_restriction_matches_without_special_points():
    rnd = random.Random(131)
    for _ in range(6):
        _, data = analyzed_random_datum(rnd, F, allow_inf=False,
                                        allow_zero=False)
        assert data.r == 0
        kg = kG_decomposition(data)
        assert restrict_decomposition(kg) == kH_decomposition(data)
        assert kg.note


def test_multiplicity_conservation():
    rnd = random.Random(53)
    for _ in range(8):
        _, data = analyzed_random_datum(rnd, F)
        kh = kH_decomposition(data)
        kg = kG_decomposition(data)
        strings = sum(m for lab, m in kg.entries.items()
                      if lab.kind == "OddString")
        simples = sum(m for lab, m in kg.entries.items()
                      if lab.kind == "Simple")
        assert strings == kh.mult(KHLabel.string(3, 1))
        assert simples == kh.mult(KHLabel.triv())


# ------------------------------------------------- one-point requests

def test_hkg_rejects_orbits():
    alpha = degenerate_orbit_alpha(F, 1)
    assert analyze(alpha).orbits
    with pytest.raises(ValueError, match="not an HKG datum"):
        run_job(JobSpec(F, alpha, "hkg"))


# ------------------------------------------------- labels and output

def test_label_strings_exact():
    assert KHLabel.triv().label_str() == "Triv"
    assert KHLabel.string(3, 1).label_str() == "M[2n+1=3,x=1]"
    assert KHLabel.even(2, Z).label_str() == f"N[2n=2,lambda={Z.mask}]"
    assert KHLabel.even(4, INF).label_str() == "N[2n=4,lambda=inf]"
    assert KGLabel.simple(0).label_str() == "S[i=0]"
    assert KGLabel.odd(3, 1, 0).label_str() == "M[2n+1=3,x=1,i=0]"
    assert KGLabel.even(4, 0, 2).label_str() == "N[2n=4,*=0,i=2]"
    assert KGLabel.even(2, INF, 1).label_str() == "N[2n=2,*=inf,i=1]"
    assert KGLabel.band(6, F.element(6)).label_str() == "B[6n=6,mu=6]"


def test_json_entries_sorted_and_complete():
    data = analyze(degenerate_orbit_alpha(F, 1))
    blob = kG_decomposition(data).to_json()
    assert blob["side"] == "kG"
    assert blob["total_dim"] == 24
    labels = [e["label"] for e in blob["entries"]]
    assert labels == sorted(labels, key=labels.index)  # stable shape
    assert all(e["mult"] >= 1 for e in blob["entries"])
    assert any(e["label"].startswith("B[") for e in blob["entries"])
    json.dumps(blob)  # round-trips through the serializer


def test_note_flags_designated_point():
    rnd = random.Random(977)
    _, data = analyzed_random_datum(rnd, F, allow_inf=False,
                                    allow_zero=False)
    blob = kG_decomposition(data).to_json()
    assert "note" in blob
    data2 = analyze(mono(5))
    assert "note" not in kG_decomposition(data2).to_json()


def test_decomposition_equality_semantics():
    a = dec_of("kG", (KGLabel.simple(0), 2))
    b = Decomposition("kG", note="anything", spec=F)
    b.add(KGLabel.simple(0), 1)
    b.add(KGLabel.simple(0), 1)
    assert a == b  # note and spec do not count, accumulation does
    b.add(KGLabel.simple(1), 1)
    assert a != b
    assert a != dec_of("kH", (KHLabel.triv(), 2))


def test_decomposition_rejects_negative_multiplicity():
    d = Decomposition("kH", spec=F)
    with pytest.raises(ValueError, match="inconsistent invariants"):
        d.add(KHLabel.triv(), -1)
    d.add(KHLabel.triv(), 0)
    assert d.entries == {}
    assert d.total_dim == 0
