"""Explicit global matrices versus the closed-form decompositions."""

import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from a4diff._linalg import Matrix
from a4diff.gf import FieldSpec, default_modulus, is_irreducible_gf2
from a4diff.ratlaurent import RatFunc
from a4diff.ramification import analyze_branch_data
from a4diff.decomp import KGLabel, kG_decomposition, kH_decomposition
from a4diff.modulezoo import restrict_to_h, validate_group_rep
from a4diff.oracle import decompose_rep
from a4diff.cli import run_cli
from a4diff.repbuilder import GlobalRep, _index_one_block, build_global_rep
from a4diff._families import (
    hkg_alpha,
    degenerate_orbit_alpha,
    generic_orbit_alpha,
)

from helpers import BasisLabel, analyzed_random_datum, basis_labels

F = FieldSpec(m=8)
Z = F.zeta()
ONE = F.one()


def built(alpha):
    data = analyze_branch_data(alpha)
    return data, build_global_rep(data)


def index_one_sextet(data, gr):
    """The index-one labels of the leading orbit when they form the
    sextet: none at its first member, three at each primed member."""
    if not data.orbits:
        return []
    places = [pt.place for pt in data.orbits[0].points]
    index_one = [lab for lab in basis_labels(data, gr) if lab.index == 1]
    if [sum(lab.place == pl for lab in index_one)
            for pl in places] != [0, 3, 3]:
        return []
    return [lab for lab in index_one if lab.place in places[1:]]


def assert_matches_closed_forms(data, gr):
    assert gr.dim == data.genus
    solG = decompose_rep(gr.rep)
    assert solG.total_dim() == gr.dim
    assert dict(solG.multiplicities) == kG_decomposition(data).entries
    solH = decompose_rep(restrict_to_h(gr.rep))
    assert solH.total_dim() == gr.dim
    assert dict(solH.multiplicities) == kH_decomposition(data).entries


# ---------------------------------------------------------------- basics

def test_quintic_monomial_block_data():
    data, gr = built(RatFunc.monomial(F, 5))
    assert gr.dim == data.genus == 6
    keys = [(lab.place.key(), lab.family, lab.index)
            for lab in basis_labels(data, gr)]
    assert keys == [("inf", 1, 0), ("inf", 1, 1), ("inf", 1, 2),
                    ("inf", 2, 0), ("inf", 3, 0), ("inf", 3, 1)]
    sol = decompose_rep(gr.rep)
    assert dict(sol.multiplicities) == {
        KGLabel.even(2, 0, 2): 1,
        KGLabel.odd(3, 1, 1): 1,
        KGLabel.simple(0): 1,
    }


def test_quintic_monomial_generator_entries():
    data, gr = built(RatFunc.monomial(F, 5))
    pos = {(lab.family, lab.index): t
           for t, lab in enumerate(basis_labels(data, gr))}
    sig, tau = gr.rep.sigma, gr.rep.tau
    # family 3 drops to family 1 under sigma, family 2 under tau
    assert sig.element(pos[(1, 0)], pos[(3, 0)]) == ONE
    assert tau.element(pos[(1, 0)], pos[(2, 0)]) == ONE
    # the corrected tail spreads theta under tau; here theta0 = lambda
    assert tau.element(pos[(1, 1)], pos[(3, 1)]) == Z
    assert sig.element(pos[(1, 1)], pos[(3, 1)]) == ONE
    # rho is a zeta-power diagonal on family 1 (epsilon = -1 at infinity)
    for i in range(3):
        assert gr.rep.rho.element(pos[(1, i)], pos[(1, i)]) == Z ** ((1 + i) % 3)


def test_labels_cover_each_point_once():
    data, gr = built(hkg_alpha(F, 2, 1))
    labels = basis_labels(data, gr)
    assert len(set(labels)) == gr.dim
    per_place = {}
    for lab in labels:
        per_place.setdefault(lab.place.key(), 0)
        per_place[lab.place.key()] += 1
    assert per_place["inf"] == gr.dim  # single branch point


# ------------------------------------------------------- closed families

@pytest.mark.parametrize("n,x", [(1, 1), (2, 1), (1, 2)])
def test_single_wild_point_family(n, x):
    data, gr = built(hkg_alpha(F, n, x))
    assert_matches_closed_forms(data, gr)


@pytest.mark.parametrize("n", [1, 2])
def test_degenerate_orbit_family(n):
    data, gr = built(degenerate_orbit_alpha(F, n))
    assert_matches_closed_forms(data, gr)
    sol = decompose_rep(gr.rep)
    assert sol.multiplicities[KGLabel.band(6 * n, ONE)] == 1


def test_generic_orbit_family():
    psi = F.element(9)
    data, gr = built(generic_orbit_alpha(F, 1, psi))
    assert_matches_closed_forms(data, gr)
    sol = decompose_rep(gr.rep)
    assert sol.multiplicities[KGLabel.band(6, psi ** 3)] == 1


# ------------------------------------------------------- random data

def test_random_data_match_and_validate():
    rnd = random.Random(1311)
    for trial in range(8):
        _, data = analyzed_random_datum(rnd, F)
        gr = build_global_rep(data)
        validate_group_rep(gr.rep)
        assert_matches_closed_forms(data, gr)


def test_fixed_point_free_data_use_index_one_sextet():
    rnd = random.Random(2218)
    seen = 0
    for trial in range(6):
        _, data = analyzed_random_datum(rnd, F, allow_inf=False,
                                        allow_zero=False)
        assert not data.special
        gr = build_global_rep(data)
        assert len(index_one_sextet(data, gr)) == 6
        assert_matches_closed_forms(data, gr)
        seen += 1
    assert seen == 6


def test_degenerate_biased_random_data():
    rnd = random.Random(77)
    for trial in range(4):
        _, data = analyzed_random_datum(rnd, F, degenerate_bias=0.6)
        gr = build_global_rep(data)
        assert_matches_closed_forms(data, gr)


def block_diagonal_data():
    """hkg, families 2 and 3, and seeded random data, some of them
    without fixed branch points."""
    yield analyze_branch_data(hkg_alpha(F, 2, 1))
    yield analyze_branch_data(degenerate_orbit_alpha(F, 2))
    yield analyze_branch_data(generic_orbit_alpha(F, 1, F.element(9)))
    rnd = random.Random(4091)
    for trial in range(10):
        yield analyzed_random_datum(rnd, F)[1]
    for trial in range(4):
        yield analyzed_random_datum(rnd, F, allow_inf=False,
                                    allow_zero=False)[1]


def test_model_is_block_diagonal_by_fixed_point_and_orbit():
    # each fixed point and each orbit owns one contiguous run of labels,
    # and sigma, tau and rho have no nonzero outside those runs' squares
    blocks_seen = 0
    for data in block_diagonal_data():
        gr = build_global_rep(data)
        owner = {pt.place: ("point", j) for j, pt in enumerate(data.special)}
        for j, orb in enumerate(data.orbits):
            owner.update((pt.place, ("orbit", j)) for pt in orb.points)
        keys = [owner[lab.place] for lab in basis_labels(data, gr)]
        runs = [[t for t, _ in run] for _, run in
                itertools.groupby(enumerate(keys), key=lambda tk: tk[1])]
        assert len(runs) == len(set(keys))
        inside = np.zeros((gr.dim, gr.dim), dtype=bool)
        for run in runs:
            inside[run[0]:run[-1] + 1, run[0]:run[-1] + 1] = True
        for M in (gr.rep.sigma, gr.rep.tau, gr.rep.rho):
            assert not M.a[~inside].any()
        blocks_seen += len(runs) > 1
    assert blocks_seen >= 5


def test_the_model_holds_each_nonzero_once_and_the_places_tile_it():
    for data in block_diagonal_data():
        gr = build_global_rep(data)
        assert [name for name in gr.model.gens] == ["sigma", "tau", "rho"]
        for rows, cols, vals in gr.model.gens.values():
            assert rows.dtype == cols.dtype == vals.dtype == np.int64
            assert vals.all()
            keys = rows * gr.dim + cols
            assert len(set(keys.tolist())) == len(keys)
        ends = [0] + [stop for _, _, stop in gr.places]
        assert [start for _, start, _ in gr.places] == ends[:-1]
        assert ends[-1] == gr.dim == data.genus
        assert len({place for place, _, _ in gr.places}) == len(gr.places)


def test_the_triplet_model_decomposes_as_the_dense_one():
    for data in itertools.islice(block_diagonal_data(), 8):
        gr = build_global_rep(data)
        for M, dense in ((gr.model, gr.rep),
                         (gr.model.restrict_to_h(), restrict_to_h(gr.rep))):
            a, b = decompose_rep(M), decompose_rep(dense)
            assert a.multiplicities == b.multiplicities
            assert a.spot_hom == b.spot_hom


def test_the_genus_234_build_makes_no_dense_array():
    # one 234 x 234 int64 array is 438 KB; the three dense generators and
    # the local tables took a peak of 2.4 MB
    data = analyze_branch_data(hkg_alpha(F, 2, 2))
    tracemalloc.start()
    try:
        gr = build_global_rep(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gr.dim == 234
    assert peak < 234 * 234 * 8


def test_the_genus_234_verify_never_asks_for_the_dense_model(monkeypatch,
                                                            capsys):
    def refused(self):
        raise AssertionError("the dense model was made")

    monkeypatch.setattr(GlobalRep, "rep", property(refused))
    assert run_cli(["examples", "--which", "1", "--n", "2", "--x", "2",
                    "--m", "8", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "verification: PASS (dim 234, kG ok, kH ok)" in out


# ------------------------------------------------------- pinned matrices

def _pin_fields():
    """Every even m <= 32 under its default modulus and the next
    irreducible one of the same degree (degree 2 has only one)."""
    for m in range(2, 33, 2):
        first = default_modulus(m)
        yield FieldSpec(m, first)
        for f in range(first + 2, 1 << (m + 1), 2):
            if is_irreducible_gf2(f):
                yield FieldSpec(m, f)
                break


def test_index_one_block_on_every_case_pair_and_field():
    # the block depends only on the local cases of the two primed members
    # and on the field, so these 279 inputs are all it can be asked for
    digest = hashlib.sha256()
    count = 0
    for spec in _pin_fields():
        for cases in itertools.product(("id", "swap", "mix"), repeat=2):
            sig, tau, rho = _index_one_block(spec, cases)
            assert rho @ rho @ rho == Matrix.identity(spec, 6)
            assert rho @ sig == tau @ rho
            assert rho @ tau == sig @ tau @ rho
            for M in (sig, tau, rho):
                digest.update(M.a.tobytes())
            count += 1
    assert count == 279
    assert digest.hexdigest() == (
        "602e3a0940acd33a0a3c27efdc01fb29586836c5b5597bfb805ebe09df2368bb")


# a fixed-point-free datum over GF(2^8), reduced: its leading orbit
# carries the index-one sextet, which no command-line pin reaches
FPF_ALPHA = {
    "num": [0, 57, 0, 0, 67, 241, 0, 137, 102, 0, 117, 53, 0, 232, 1, 0,
            0, 19],
    "den": [29, 0, 0, 179, 0, 0, 8, 0, 0, 211, 0, 0, 171, 0, 0, 102, 0, 0,
            53, 0, 0, 1],
}


# sha256 of the int64 bytes of sigma, tau and rho, in that order
@pytest.mark.parametrize("which,genus,digest", [
    ("fixed_point_free", 33,
     "84a2e57e0fb00375e531d6a261ce7bcc958b4dbd98a314ea693980b658b50299"),
    ("hkg", 234,
     "314357fed2207ab5886c793df84d229af79fb5a950e049251ce257a1855ea727"),
    ("degenerate_orbit", 42,
     "4384f31907763c094bad03ddc09d8e19c2567e77439a22eb8d940d8cf0c677f2"),
])
def test_built_matrices_are_pinned(which, genus, digest):
    alpha = {"fixed_point_free": lambda: RatFunc.from_json(F, FPF_ALPHA),
             "hkg": lambda: hkg_alpha(F, 2, 2),
             "degenerate_orbit": lambda: degenerate_orbit_alpha(F, 2)}[which]
    data, gr = built(alpha())
    assert gr.dim == data.genus == genus
    sextet = bool(index_one_sextet(data, gr))
    assert sextet == (which == "fixed_point_free")
    h = hashlib.sha256()
    for M in (gr.rep.sigma, gr.rep.tau, gr.rep.rho):
        h.update(M.a.tobytes())
    assert h.hexdigest() == digest


# ------------------------------------------------------- label behavior

def test_basis_label_equality_and_repr():
    a = BasisLabel(analyze_branch_data(RatFunc.monomial(F, 5)).special[0].place, 1, 2)
    b = BasisLabel(a.place, 1, 2)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "f[inf,1,2]"
    assert a != BasisLabel(a.place, 2, 2)
