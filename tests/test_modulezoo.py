"""Module zoo tests: words, string/band matrices, group generators,
and the induction/restriction dictionary, plus the matrix plumbing."""

import random
import re

import numpy as np
import pytest

from a4diff.gf import FieldSpec
from a4diff._linalg import Matrix, coords_in_basis, jordan_block
from a4diff.ramification import INF, lambda_of_phi, phi_of_lambda
from a4diff.decomp import KGLabel, KHLabel
from a4diff.modulezoo import (
    A4_QUIVER,
    GroupRep,
    KLEIN_AB,
    StringWord,
    restrict_to_h,
    validate_group_rep,
)
from a4diff.zoo import (
    A4_BAND,
    BandWord,
    QuiverRep,
    band_module_matrices,
    kg_group_rep,
    kg_quiver_rep,
    kh_group_rep,
    parse_label,
    string_module_matrices,
    zoo_dump,
    ZOO_DIM3_BUDGET,
    ZOO_LABEL_CAP,
    zoo_dim3_sum,
    zoo_label_count,
    zoo_labels,
)

from helpers import (KLEIN_CD, induce_label, induce_to_g, kG_group_matrices,
                     kh_cd_group_rep, klein_group_matrices, matrix_from_rows,
                     reference_group_relations, restrict_label)

F = FieldSpec(m=8)
Z = F.zeta()
Z2 = Z * Z
ONE = F.one()


def mat(rows):
    return matrix_from_rows(F, rows)


# ------------------------------------------------------------- matrices

def test_matmul_matches_scalar_arithmetic():
    rnd = random.Random(5)
    a = [[rnd.randrange(256) for _ in range(4)] for _ in range(3)]
    b = [[rnd.randrange(256) for _ in range(5)] for _ in range(4)]
    A, B = mat(a), mat(b)
    C = A @ B
    for i in range(3):
        for j in range(5):
            acc = F.zero()
            for k in range(4):
                acc = acc + F.element(a[i][k]) * F.element(b[k][j])
            assert C.element(i, j) == acc


def test_matrix_add_scale_identity():
    A = mat([[1, 2], [3, 4]])
    assert A + A == Matrix.zeros(F, 2, 2)
    assert Matrix.identity(F, 2) @ A == A
    zA = A.scale(Z)
    assert zA.element(0, 1) == Z * F.element(2)


def test_rank_and_nullspace():
    A = mat([[1, Z.mask, 0], [Z.mask, (Z * Z).mask, 0]])
    # second row is zeta times the first, so rank 1
    assert A.rank() == 1
    ns = A.right_nullspace()
    assert ns.cols == 2
    assert (A @ ns).is_zero()
    assert Matrix.identity(F, 7).rank() == 7


def test_jordan_block_entries():
    J = jordan_block(F, 3, Z)
    assert J.to_mask_rows() == [
        [Z.mask, 1, 0], [0, Z.mask, 1], [0, 0, Z.mask]]


# ----------------------------------------------------------------- words

def test_string_word_validation():
    StringWord(KLEIN_CD, "~D C")
    StringWord(A4_QUIVER, "~d01 g02 ~d12")
    with pytest.raises(ValueError, match="invalid string"):
        StringWord(KLEIN_CD, "~D E")
    with pytest.raises(ValueError, match="do not compose"):
        StringWord(A4_QUIVER, "d01 d01")
    with pytest.raises(ValueError, match="ideal"):
        StringWord(A4_QUIVER, "g10 g02")
    with pytest.raises(ValueError, match="immediate inverse"):
        StringWord(KLEIN_CD, "C ~C")
    with pytest.raises(ValueError, match="needs a vertex"):
        StringWord(A4_QUIVER, ())
    StringWord(A4_QUIVER, (), base_vertex=2)


def test_band_word_validation():
    BandWord(KLEIN_CD, "D ~C")
    with pytest.raises(ValueError, match="first letter must be an arrow"):
        BandWord(KLEIN_CD, "~C D")
    with pytest.raises(ValueError, match="proper power"):
        BandWord(KLEIN_CD, "D ~C D ~C")
    with pytest.raises(ValueError, match="invalid band"):
        BandWord(KLEIN_CD, "D")
    with pytest.raises(ValueError, match="invalid band"):
        BandWord(A4_QUIVER, "d01 ~g21")


def test_string_module_single_inverse_letter():
    rep = string_module_matrices(F, StringWord(KLEIN_CD, "~C"))
    assert rep.vertex_dims == {0: 2}
    assert rep.arrow_mats["C"].to_mask_rows() == [[0, 0], [1, 0]]
    assert rep.arrow_mats["D"].is_zero()
    rep.validate()


def test_string_module_vertex_word():
    rep = string_module_matrices(F, StringWord(A4_QUIVER, (), base_vertex=1))
    assert rep.vertex_dims == {0: 0, 1: 1, 2: 0}
    assert all(m.is_zero() for m in rep.arrow_mats.values())


def test_string_module_two_letters():
    # D^-1 C: the inverse letter sends b1 to b2, the direct letter
    # sends b3 to b2.
    rep = string_module_matrices(F, StringWord(KLEIN_CD, "~D C"))
    assert rep.vertex_dims == {0: 3}
    assert rep.arrow_mats["D"].to_mask_rows() == [
        [0, 0, 0], [1, 0, 0], [0, 0, 0]]
    assert rep.arrow_mats["C"].to_mask_rows() == [
        [0, 0, 0], [0, 0, 1], [0, 0, 0]]
    rep.validate()


def test_band_module_klein_smallest():
    rep = band_module_matrices(F, BandWord(KLEIN_CD, "D ~C"), 1, Z)
    assert rep.vertex_dims == {0: 2}
    assert rep.arrow_mats["D"].to_mask_rows() == [[0, Z.mask], [0, 0]]
    assert rep.arrow_mats["C"].to_mask_rows() == [[0, 1], [0, 0]]
    rep.validate()


def test_band_module_jordan_block():
    rep = band_module_matrices(F, BandWord(KLEIN_AB, "B ~A"), 2, ONE)
    assert rep.arrow_mats["B"].to_mask_rows() == [
        [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
    assert rep.arrow_mats["A"].to_mask_rows() == [
        [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]


def test_band_module_a4_layout():
    mu = F.element(9)
    rep = band_module_matrices(F, A4_BAND, 1, mu)
    assert rep.vertex_dims == {0: 2, 1: 2, 2: 2}
    assert rep.arrow_mats["d01"].to_mask_rows() == [[mu.mask, 0], [0, 0]]
    assert rep.arrow_mats["g21"].to_mask_rows() == [[1, 0], [0, 0]]
    assert rep.arrow_mats["d20"].to_mask_rows() == [[0, 1], [0, 0]]
    assert rep.arrow_mats["g10"].to_mask_rows() == [[0, 0], [0, 1]]
    assert rep.arrow_mats["d12"].to_mask_rows() == [[0, 0], [0, 1]]
    assert rep.arrow_mats["g02"].to_mask_rows() == [[0, 1], [0, 0]]
    rep.validate()


def test_band_module_rejects_bad_parameter():
    with pytest.raises(ValueError, match="invalid band"):
        band_module_matrices(F, A4_BAND, 1, F.zero())
    with pytest.raises(ValueError, match="invalid band"):
        band_module_matrices(F, A4_BAND, 0, ONE)


# ----------------------------------------------------- group generators

def test_simple_reps_are_characters():
    for i in range(3):
        grep = kg_group_rep(F, KGLabel.simple(i))
        assert grep.dim == 1
        assert grep.sigma.to_mask_rows() == [[1]]
        assert grep.tau.to_mask_rows() == [[1]]
        assert grep.rho.to_mask_rows() == [[(Z ** i).mask]]


def test_odd_string_rho_spectrum():
    for i in range(3):
        grep = kg_group_rep(F, KGLabel.odd(3, 1, i))
        diag = sorted(grep.rho.a.diagonal().tolist())
        assert diag == sorted([1, Z.mask, Z2.mask])


def test_relation_validator_names_failure():
    s = mat([[1, 1], [0, 1]])
    t = mat([[1, 0], [1, 1]])
    with pytest.raises(ValueError, match="sigma tau != tau sigma"):
        validate_group_rep(GroupRep("H", F, s, t))
    bad = mat([[0, 1], [1, 1]])
    with pytest.raises(ValueError, match="sigma\\^2 != 1"):
        validate_group_rep(GroupRep("H", F, bad, t))


def test_g_validation_takes_eight_products(monkeypatch):
    rep = kg_group_rep(F, KGLabel.odd(5, 1, 0))
    calls = []
    product = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__",
                        lambda a, b: calls.append(1) or product(a, b))
    validate_group_rep(rep)
    assert len(calls) == 8
    s, t = rep.sigma, rep.tau
    one = Matrix.identity(F, rep.dim)
    with pytest.raises(ValueError, match="rho sigma rho\\^-1 != tau"):
        validate_group_rep(GroupRep("G", F, s, t, one))


def _accepts(rep):
    try:
        validate_group_rep(rep)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("m", [2, 4])
def test_the_presentation_accepts_what_the_six_relations_accept(m):
    spec = FieldSpec(m=m)
    rnd = random.Random(m)
    models = [kg_group_rep(spec, lab) for lab in zoo_labels(spec, 12, "kG")]

    def random_matrix(d):
        return Matrix(spec, np.array(
            [[rnd.randrange(spec.order) for _ in range(d)]
             for _ in range(d)], dtype=np.int64))

    conjugated = []
    for rep in models:
        while True:
            S = random_matrix(rep.dim)
            if S.rank() == rep.dim:
                break
        Si = coords_in_basis(S, Matrix.identity(spec, rep.dim))
        g = [Si @ X @ S for X in (rep.sigma, rep.tau, rep.rho)]
        conjugated.append(GroupRep("G", spec, *g))
    changed = []
    for rep in models:
        g = [X.copy() for X in (rep.sigma, rep.tau, rep.rho)]
        X = g[rnd.randrange(3)]
        i, j = rnd.randrange(rep.dim), rnd.randrange(rep.dim)
        X.a[i, j] ^= rnd.randrange(1, spec.order)
        changed.append(GroupRep("G", spec, *g))
    # and one planted failure of each relation of the presentation but the
    # conjugation, which then defines tau: (sigma, rho) with sigma^2 != 1;
    # with rho^3 != 1 (sigma rho of order 3); with (sigma rho)^3 != 1
    z = spec.zeta()
    swap = matrix_from_rows(spec, [[0, 1], [1, 0]])
    planted = [(Matrix.scalar(spec, 1, z), Matrix.identity(spec, 1)),
               (swap, matrix_from_rows(spec, [[1, 1], [0, 1]])),
               (swap, matrix_from_rows(spec, [[0, 1], [1, 1]]))]
    planted = [GroupRep("G", spec, s, r @ s @ r @ r, r) for s, r in planted]
    verdicts = []
    for rep in models + conjugated + changed + planted:
        want = reference_group_relations(rep)
        assert _accepts(rep) == want
        verdicts.append(want)
    # every model and its conjugate pass; most changed copies do not, and
    # no planted one does
    assert all(verdicts[:2 * len(models)])
    assert sum(verdicts[2 * len(models):]) < len(models) // 4
    assert not any(verdicts[3 * len(models):])


def test_zoo_models_are_built_with_no_product_and_checked_with_4_or_8(
        monkeypatch):
    spec = FieldSpec(m=2)
    calls = []
    product = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__",
                        lambda a, b: calls.append(1) or product(a, b))
    for side, build, count in (("kH", kh_group_rep, 4),
                               ("kG", kg_group_rep, 8)):
        for lab in zoo_labels(spec, 12, side):
            label = parse_label(spec, lab.label_str())
            zoo_dump(spec, label)
            rep = build(spec, label)
            assert not calls
            validate_group_rep(rep)
            assert len(calls) == count
            calls.clear()


def test_public_builders_refuse_a_path_off_the_ideal():
    one = Matrix.identity(F, 1)
    zero = Matrix.zeros(F, 1, 1)
    klein = QuiverRep(KLEIN_AB, F, {0: 1}, {"A": one, "B": zero})
    with pytest.raises(ValueError,
                       match="relation violation: A.A acts nonzero"):
        klein_group_matrices(klein)
    arrows = {name: zero for name in A4_QUIVER.arrows}
    arrows["g10"] = arrows["g21"] = one
    a4 = QuiverRep(A4_QUIVER, F, {0: 1, 1: 1, 2: 1}, arrows)
    with pytest.raises(ValueError,
                       match="relation violation: g21.g10 acts nonzero"):
        kG_group_matrices(a4)


def test_a_restriction_is_checked_on_its_own_four_products(monkeypatch):
    rep = kg_group_rep(F, KGLabel.odd(5, 1, 0))
    bad = GroupRep("G", F, rep.sigma, rep.tau, Matrix.identity(F, rep.dim))
    calls = []
    product = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__",
                        lambda a, b: calls.append(1) or product(a, b))
    # the H relations hold on the restriction of a model whose rho
    # breaks the G ones; each call checks them again
    for _ in range(2):
        validate_group_rep(restrict_to_h(bad))
    assert len(calls) == 8
    with pytest.raises(ValueError, match="rho\\^3"):
        validate_group_rep(GroupRep("G", F, rep.sigma, rep.tau,
                                    rep.sigma))


def test_quiver_relation_validator():
    rep = kg_quiver_rep(F, KGLabel.simple(0))
    rep.vertex_dims = {0: 1, 1: 1, 2: 1}
    one = Matrix.identity(F, 1)
    rep.arrow_mats = {name: one.copy() for name in A4_QUIVER.arrows}
    with pytest.raises(ValueError, match="relation violation"):
        rep.validate()


def test_every_small_label_validates():
    # the model builders check no relation (a word fixes the quiver
    # relations), so each group model is validated here
    def built(grep, dim):
        validate_group_rep(grep)
        assert grep.dim == dim

    lam_sample = [F.zero(), ONE, Z, Z2, INF, F.element(9)]
    for dim in (2, 4, 6):
        for lam in lam_sample:
            built(kh_group_rep(F, KHLabel.even(dim, lam)), dim)
            built(kh_cd_group_rep(F, KHLabel.even(dim, lam)), dim)
    for dim in (3, 5):
        for x in (1, 2):
            built(kh_group_rep(F, KHLabel.string(dim, x)), dim)
            for i in range(3):
                built(kg_group_rep(F, KGLabel.odd(dim, x, i)), dim)
    for dim in (2, 4, 6):
        for star in (0, INF):
            for i in range(3):
                built(kg_group_rep(F, KGLabel.even(dim, star, i)), dim)
    for n in (1, 2):
        built(kg_group_rep(F, KGLabel.band(6 * n, F.element(7))), 6 * n)
    built(kh_group_rep(F, KHLabel.triv()), 1)


def test_rho_idempotents_split_vertices():
    qrep = kg_quiver_rep(F, KGLabel.band(12, F.element(3)))
    grep = kG_group_matrices(qrep)
    r = grep.rho
    I = Matrix.identity(F, grep.dim)
    es = []
    for i in range(3):
        zi = (Z ** (-i))
        e = I + r.scale(zi) + (r @ r).scale(zi * zi)
        es.append(e)
    total = Matrix.zeros(F, grep.dim, grep.dim)
    for i, e in enumerate(es):
        assert e @ e == e
        total = total + e
        assert e.rank() == qrep.vertex_dims[i]
        for j, other in enumerate(es):
            if i != j:
                assert (e @ other).is_zero()
    assert total == I


def test_band_connection_pencil():
    # The same even-dimensional module written in the two letter
    # systems drops pencil rank at the same lambda.
    rnd = random.Random(23)
    for _ in range(6):
        phi = F.element(rnd.randrange(2, 256))
        if phi in (ONE, Z, Z2):
            continue
        lam = lambda_of_phi(F, phi)
        n = rnd.choice((1, 2, 3))
        ab = kh_group_rep(F, KHLabel.even(2 * n, lam))
        cd = kh_cd_group_rep(F, KHLabel.even(2 * n, lam))
        for grep in (ab, cd):
            I = Matrix.identity(F, grep.dim)
            A = grep.sigma + I
            B = grep.tau + I
            assert (B + A.scale(lam)).rank() == n - 1
            assert (B + A.scale(lam + ONE)).rank() == n


def test_restricted_even_string_matches_pencil():
    # Res N_{2n, 0, i} should look like the (A, B) module with
    # lambda = zeta: the pencil B + lambda A drops rank there.
    for i in range(3):
        grep = restrict_to_h(kg_group_rep(F, KGLabel.even(4, 0, i)))
        validate_group_rep(grep)
        I = Matrix.identity(F, 4)
        A = grep.sigma + I
        B = grep.tau + I
        assert (B + A.scale(Z)).rank() == 1
        assert (B + A.scale(Z2)).rank() == 2


def test_induce_to_g_shape():
    hrep = kh_group_rep(F, KHLabel.even(4, F.element(5)))
    grep = induce_to_g(hrep)
    assert grep.dim == 12
    validate_group_rep(grep)


# ------------------------------------------------------------ dictionary

def label_multiset(dec):
    return {lab.label_str(): m for lab, m in dec.entries.items()}


def test_restrict_label_dictionary():
    got = restrict_label(F, KGLabel.simple(2))
    assert label_multiset(got) == {"Triv": 1}
    got = restrict_label(F, KGLabel.odd(5, 2, 1))
    assert label_multiset(got) == {"M[2n+1=5,x=2]": 1}
    got = restrict_label(F, KGLabel.even(4, 0, 0))
    assert label_multiset(got) == {f"N[2n=4,lambda={Z.mask}]": 1}
    got = restrict_label(F, KGLabel.even(4, INF, 0))
    assert label_multiset(got) == {f"N[2n=4,lambda={Z2.mask}]": 1}


def test_restrict_band_label():
    phi = F.element(11)
    mu = phi ** 3
    got = restrict_label(F, KGLabel.band(12, mu, phi=phi))
    lams = {lambda_of_phi(F, Z ** j * phi) for j in range(3)}
    want = {KHLabel.even(4, lam).label_str(): 1 for lam in lams}
    assert label_multiset(got) == want
    assert got.total_dim == 12


def test_induce_label_dictionary():
    got = induce_label(F, KHLabel.triv())
    assert label_multiset(got) == {f"S[i={i}]": 1 for i in range(3)}
    got = induce_label(F, KHLabel.string(3, 1))
    assert label_multiset(got) == {f"M[2n+1=3,x=1,i={i}]": 1
                                   for i in range(3)}
    got = induce_label(F, KHLabel.even(6, Z))
    assert label_multiset(got) == {f"N[2n=6,*=0,i={i}]": 1 for i in range(3)}
    got = induce_label(F, KHLabel.even(6, Z2))
    assert label_multiset(got) == {f"N[2n=6,*=inf,i={i}]": 1
                                   for i in range(3)}


def test_induce_generic_even_gives_band():
    lam = F.element(17)
    got = induce_label(F, KHLabel.even(2, lam))
    phi = phi_of_lambda(F, lam)
    assert label_multiset(got) == {f"B[6n=6,mu={(phi ** 3).mask}]": 1}
    stored = next(iter(got.entries))
    assert stored.phi == phi
    # the degenerate parameters all land on the mu = 1 band
    for lam in (F.zero(), ONE, INF):
        got = induce_label(F, KHLabel.even(2, lam))
        assert label_multiset(got) == {"B[6n=6,mu=1]": 1}


def test_dictionary_round_trip_dimensions():
    rnd = random.Random(71)
    labels = [KHLabel.triv(), KHLabel.string(7, 2),
              KHLabel.even(4, Z), KHLabel.even(6, F.element(rnd.randrange(
                  2, 256)))]
    for lab in labels:
        ind = induce_label(F, lab)
        assert ind.total_dim == 3 * lab.dim
        back = {}
        for glab, mult in ind.entries.items():
            res = restrict_label(F, glab)
            for hlab, m in res.entries.items():
                back[hlab] = back.get(hlab, 0) + m * mult
        # the original label reappears in its own restriction
        assert back.get(lab, 0) >= 1
        assert sum(m * l.dim for l, m in back.items()) == 3 * lab.dim


# ------------------------------------------------------- labels and dumps

def test_parse_label_round_trip():
    labels = [
        KHLabel.triv(), KHLabel.string(9, 1), KHLabel.even(4, INF),
        KHLabel.even(2, F.element(13)), KGLabel.simple(1),
        KGLabel.odd(7, 2, 0), KGLabel.even(8, 0, 2),
        KGLabel.even(2, INF, 1), KGLabel.band(18, F.element(77)),
    ]
    for lab in labels:
        assert parse_label(F, lab.label_str()) == lab
    with pytest.raises(ValueError, match="unrecognized label"):
        parse_label(F, "Q[dim=3]")


@pytest.mark.parametrize("text,reason", [
    ("B[6n=7,mu=3]", "dimension 7 is not one of 6, 12, 18"),
    ("B[6n=6,mu=0]", "band parameter must be nonzero"),
    ("M[2n+1=4,x=1]", "dimension 4 is not one of 3, 5, 7"),
    ("M[2n+1=1,x=1]", "dimension 1 is not one of 3, 5, 7"),
    ("N[2n=3,lambda=5]", "dimension 3 is not one of 2, 4, 6"),
    ("N[2n=0,*=inf,i=0]", "dimension 0 is not one of 2, 4, 6"),
    ("M[2n+1=6,x=2,i=1]", "dimension 6 is not one of 3, 5, 7"),
    ("N[2n=2,lambda=256]", "mask 256 out of range"),
])
def test_parse_label_refuses_malformed_labels(text, reason):
    with pytest.raises(ValueError, match=re.escape(
            f"invalid label {text!r}: {reason}")):
        parse_label(F, text)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_zoo_label_count_is_the_listing_length(m):
    spec = FieldSpec(m=m)
    for side in ("kH", "kG"):
        for max_dim in range(-1, 14):
            labels = list(zoo_labels(spec, max_dim, side))
            assert len(labels) == zoo_label_count(spec, max_dim, side)
            assert all(lab.dim <= max_dim for lab in labels)


def test_zoo_labels_refuses_listings_past_the_cap():
    # the largest listing the tests use fits; one more even dimension of
    # tubes over GF(2^14), or the default listing over GF(2^32), does not
    assert zoo_label_count(F, 30, "kH") <= ZOO_LABEL_CAP
    assert zoo_label_count(F, 30, "kG") <= ZOO_LABEL_CAP
    for spec, max_dim, side in ((FieldSpec(m=14), 2, "kH"),
                                (FieldSpec(m=32), 8, "kH"),
                                (FieldSpec(m=32), 8, "kG")):
        assert zoo_label_count(spec, max_dim, side) > ZOO_LABEL_CAP
        with pytest.raises(ValueError, match="unsupported configuration"):
            next(zoo_labels(spec, max_dim, side))
    assert zoo_label_count(FieldSpec(m=12), 2, "kH") == 1 + (1 << 12) + 1


@pytest.mark.parametrize("m", [2, 4, 8])
def test_zoo_dim3_sum_is_the_listings(m):
    spec = FieldSpec(m=m)
    for side in ("kH", "kG"):
        for max_dim in range(-1, 20):
            assert zoo_dim3_sum(spec, max_dim, side) == sum(
                lab.dim ** 3 for lab in zoo_labels(spec, max_dim, side))


def test_zoo_labels_refuses_listings_past_the_dim3_budget():
    # the largest test listing fits; over GF(4) a listing under the label
    # cap can still be refused for its dimensions
    assert zoo_dim3_sum(F, 30, "kH") <= ZOO_DIM3_BUDGET
    assert zoo_dim3_sum(F, 30, "kG") <= ZOO_DIM3_BUDGET
    spec = FieldSpec(m=2)
    for max_dim, side in ((800, "kH"), (400, "kG")):
        assert zoo_label_count(spec, max_dim, side) <= ZOO_LABEL_CAP
        assert zoo_dim3_sum(spec, max_dim, side) > ZOO_DIM3_BUDGET
        with pytest.raises(ValueError, match="unsupported configuration: "
                           r"\d+ k[HG] labels .* in dim\^3, more than"):
            next(zoo_labels(spec, max_dim, side))


def test_zoo_labels_enumeration():
    kh = list(zoo_labels(F, 4, "kH"))
    # Triv, two strings of dim 3, and 257 parameters in dims 2 and 4
    assert len(kh) == 1 + 2 + 2 * 257
    assert all(lab.dim <= 4 for lab in kh)
    kg = list(zoo_labels(F, 6, "kG"))
    assert len(kg) == 3 + 2 * 2 * 3 + 3 * 2 * 3 + 255
    with pytest.raises(ValueError, match="side"):
        next(zoo_labels(F, 4, "both"))


def test_zoo_dump_layout():
    out = zoo_dump(F, KGLabel.band(6, F.element(3)))
    assert out["label"] == "B[6n=6,mu=3]"
    assert out["side"] == "kG"
    assert out["dim"] == 6
    assert out["quiver"]["vertex_dims"] == {"0": 2, "1": 2, "2": 2}
    assert len(out["generators"]["rho"]) == 6
    out = zoo_dump(F, KHLabel.even(2, Z))
    assert set(out["quiver"]["arrows"]) == {"A", "B"}
    assert "rho" not in out["generators"]
