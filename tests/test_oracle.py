"""Hom counting and decomposition certification."""

import random
from collections import Counter

import numpy as np
import pytest

from a4diff import oracle
from a4diff._families import hkg_alpha
from a4diff._linalg import Matrix, coords_in_basis, jordan_block
from a4diff.decomp import KGLabel, KHLabel
from a4diff.gf import FieldSpec, all_elements
from a4diff.modulezoo import (GroupRep, kg_group_rep, kh_group_rep,
                              restrict_to_h, zoo_labels)
from a4diff.oracle import (MultiplicitySolution, _charpoly, _kronecker,
                           decompose_rep, hom_labels, string_pair_homs)
from a4diff.ramification import INF, analyze_branch_data
from a4diff.ratlaurent import Poly
from a4diff.repbuilder import build_global_rep

from helpers import (direct_sum, gf2_blowup_rank, hom_dim, induce_label,
                     induce_to_g, labels_group_rep, matrix_from_rows,
                     poly_eval, probe_hom, reference_a4_pencil,
                     reference_rank_drops, restrict_label)

SPEC = FieldSpec()
Z = SPEC.zeta()
ONE = SPEC.one()


def kh_zoo(max_dim, params):
    out = [KHLabel.triv()]
    n = 1
    while 2 * n + 1 <= max_dim:
        out += [KHLabel.string(2 * n + 1, 1), KHLabel.string(2 * n + 1, 2)]
        n += 1
    n = 1
    while 2 * n <= max_dim:
        out += [KHLabel.even(2 * n, p) for p in params]
        n += 1
    return out


def kg_zoo(max_dim, phis):
    out = [KGLabel.simple(i) for i in range(3)]
    n = 1
    while 2 * n + 1 <= max_dim:
        out += [KGLabel.odd(2 * n + 1, x, i) for x in (1, 2) for i in range(3)]
        n += 1
    n = 1
    while 2 * n <= max_dim:
        out += [KGLabel.even(2 * n, s, i) for s in (0, INF) for i in range(3)]
        n += 1
    n = 1
    while 6 * n <= max_dim:
        out += [KGLabel.band(6 * n, p ** 3, phi=p) for p in phis]
        n += 1
    return out


def model(label):
    if isinstance(label, KHLabel):
        return kh_group_rep(SPEC, label)
    return kg_group_rep(SPEC, label)


def conjugated(M, rnd):
    d = M.dim
    while True:
        S = matrix_from_rows(M.spec,
                             [[rnd.randrange(256) for _ in range(d)]
                              for _ in range(d)])
        if S.rank() == d:
            break
    Si = coords_in_basis(S, Matrix.identity(M.spec, d))
    g = {k: Si @ v @ S for k, v in M.generators().items()}
    return GroupRep(M.group, M.spec, g["sigma"], g["tau"], g.get("rho"))


def permuted(M, perm):
    """M in new coordinates: coordinate k is M's coordinate perm[k]."""
    ix = np.ix_(perm, perm)
    g = {k: Matrix(M.spec, v.a[ix]) for k, v in M.generators().items()}
    return GroupRep(M.group, M.spec, g["sigma"], g["tau"], g.get("rho"))


def multiset(labels):
    out = {}
    for lab in labels:
        out[lab] = out.get(lab, 0) + 1
    return out


class TestHomDim:
    def test_simples_orthonormal(self):
        reps = [kg_group_rep(SPEC, KGLabel.simple(i)) for i in range(3)]
        for i in range(3):
            for j in range(3):
                assert hom_dim(reps[i], reps[j]) == (1 if i == j else 0)

    def test_tube_self_and_cross(self):
        lam, mu = SPEC.element(3), SPEC.element(7)
        A = kh_group_rep(SPEC, KHLabel.even(2, lam))
        B = kh_group_rep(SPEC, KHLabel.even(2, mu))
        assert hom_dim(A, A) == 2
        assert hom_dim(A, B) == 1
        assert hom_dim(B, A) == 1

    def test_induced_trivial_hits_each_simple_once(self):
        ind = induce_to_g(kh_group_rep(SPEC, KHLabel.triv()))
        for i in range(3):
            assert hom_dim(ind, kg_group_rep(SPEC, KGLabel.simple(i))) == 1

    def test_mixed_groups_rejected(self):
        A = kh_group_rep(SPEC, KHLabel.triv())
        B = kg_group_rep(SPEC, KGLabel.simple(0))
        with pytest.raises(ValueError):
            hom_dim(A, B)

    def test_probe_presentations_count_like_hom_dim(self):
        # every label up to dimension 8 over GF(16) as the target, every
        # tube N_{2,lam} as an H probe besides the trivial module
        F16 = FieldSpec(4)
        kh_probes = [KHLabel.triv(), KHLabel.even(2, INF)]
        kh_probes += [KHLabel.even(2, lam) for lam in all_elements(F16)]
        kg_probes = [KGLabel.simple(i) for i in range(3)]
        for side, probes, build in (("kH", kh_probes, kh_group_rep),
                                    ("kG", kg_probes, kg_group_rep)):
            models = [build(F16, X) for X in probes]
            for Y in zoo_labels(F16, 8, side):
                my = build(F16, Y)
                for X, mx in zip(probes, models):
                    assert probe_hom(X, my) == hom_dim(mx, my), \
                        (str(X), str(Y))

    def test_additive_in_both_arguments(self):
        rnd = random.Random(4)
        pool = kh_zoo(6, [SPEC.element(9), INF])
        for _ in range(6):
            X, Y, W = (rnd.choice(pool) for _ in range(3))
            XY = labels_group_rep(SPEC, [X, Y])
            mw = model(W)
            assert hom_dim(XY, mw) == hom_dim(model(X), mw) + hom_dim(model(Y), mw)
            assert hom_dim(mw, XY) == hom_dim(mw, model(X)) + hom_dim(mw, model(Y))


class TestRankInvariants:
    def test_product_rank_bounded(self):
        rnd = random.Random(11)
        for _ in range(10):
            A = matrix_from_rows(SPEC, [[rnd.randrange(256) for _ in range(7)]
                                        for _ in range(5)])
            B = matrix_from_rows(SPEC, [[rnd.randrange(4) for _ in range(6)]
                                        for _ in range(7)])
            assert (A @ B).rank() <= min(A.rank(), B.rank())

    def test_rank_stable_under_transposed_elimination(self):
        rnd = random.Random(12)
        for _ in range(10):
            A = matrix_from_rows(SPEC, [[rnd.randrange(256) for _ in range(8)]
                                        for _ in range(6)])
            assert A.rank() == A.transpose().rank()
            assert A.rank() == gf2_blowup_rank(A)


class TestHomLabels:
    """The closed forms against dense elimination, pair by pair."""

    def test_klein_pairs_match_dense(self):
        params = [SPEC.zero(), ONE, Z, Z * Z, SPEC.element(9), INF]
        labels = kh_zoo(6, params)
        reps = {lab: kh_group_rep(SPEC, lab) for lab in labels}
        for X in labels:
            for Y in labels:
                assert hom_labels(SPEC, X, Y) == hom_dim(reps[X], reps[Y]), \
                    (str(X), str(Y))

    def test_a4_pairs_match_dense(self):
        labels = kg_zoo(7, [Z, SPEC.element(9)])
        reps = {lab: kg_group_rep(SPEC, lab) for lab in labels}
        for X in labels:
            for Y in labels:
                assert hom_labels(SPEC, X, Y) == hom_dim(reps[X], reps[Y]), \
                    (str(X), str(Y))

    def test_band_pairs(self):
        p, q = SPEC.element(9), SPEC.element(5)
        B1 = KGLabel.band(6, p ** 3, phi=p)
        B1b = KGLabel.band(12, p ** 3, phi=p)
        B2 = KGLabel.band(6, q ** 3, phi=q)
        assert hom_labels(SPEC, B1, B1) == 4
        assert hom_labels(SPEC, B1, B2) == 3
        assert hom_labels(SPEC, B1, B1b) == 7
        assert hom_labels(SPEC, B1b, B1b) == 14

    def test_mixed_sides_rejected(self):
        with pytest.raises(ValueError):
            hom_labels(SPEC, KHLabel.triv(), KGLabel.simple(0))

    def test_word_counter_agrees_with_table(self):
        from a4diff.modulezoo import kh_label_word
        params = [SPEC.zero(), INF]
        labels = [lab for lab in kh_zoo(8, params)]
        for X in labels:
            for Y in labels:
                wx = kh_label_word(X)
                wy = kh_label_word(Y)
                assert string_pair_homs(wx, wy) == hom_labels(SPEC, X, Y), \
                    (str(X), str(Y))


class TestFrobeniusReciprocity:
    def test_label_battery(self):
        phis = [Z, SPEC.element(9), SPEC.element(5)]
        params = [SPEC.zero(), ONE, Z, Z * Z, SPEC.element(9), INF]
        for X in kh_zoo(24, params):
            indX = induce_label(SPEC, X)
            for Y in kg_zoo(24, phis):
                resY = restrict_label(SPEC, Y)
                lhs = sum(m * hom_labels(SPEC, lab, Y)
                          for lab, m in indX.entries.items())
                rhs = sum(m * hom_labels(SPEC, X, lab)
                          for lab, m in resY.entries.items())
                assert lhs == rhs, (str(X), str(Y))

    def test_dense_spot_checks(self):
        p = SPEC.element(9)
        kh_side = [KHLabel.triv(), KHLabel.string(3, 1),
                   KHLabel.even(2, p), KHLabel.even(4, INF)]
        kg_side = [KGLabel.simple(1), KGLabel.odd(3, 2, 0),
                   KGLabel.even(4, 0, 2), KGLabel.band(6, p ** 3, phi=p)]
        for X in kh_side:
            mx = kh_group_rep(SPEC, X)
            for Y in kg_side:
                lhs = hom_dim(induce_to_g(mx), kg_group_rep(SPEC, Y))
                rhs = hom_dim(mx, restrict_to_h(kg_group_rep(SPEC, Y)))
                assert lhs == rhs, (str(X), str(Y))


def rand_kh_multiset(rnd, budget):
    labs = []
    while budget > 0:
        k = rnd.randrange(4)
        if k == 0:
            labs.append(KHLabel.triv())
            budget -= 1
        elif k == 1:
            n = rnd.randrange(1, 6)
            if 2 * n + 1 <= budget:
                labs.append(KHLabel.string(2 * n + 1, rnd.choice((1, 2))))
                budget -= 2 * n + 1
        elif k == 2:
            n = rnd.randrange(1, 6)
            if 2 * n <= budget:
                pick = rnd.choice(["inf", "zero", "one", "z", "zz", "r", "r"])
                par = {"inf": INF, "zero": SPEC.zero(), "one": ONE,
                       "z": Z, "zz": Z * Z}.get(
                           pick, SPEC.element(rnd.randrange(1, 256)))
                labs.append(KHLabel.even(2 * n, par))
                budget -= 2 * n
        else:
            if labs and rnd.random() < 0.3:
                break
            budget -= 1
    return labs or [KHLabel.triv()]


def rand_kg_multiset(rnd, budget):
    labs = []
    while budget > 0:
        k = rnd.randrange(5)
        if k == 0:
            labs.append(KGLabel.simple(rnd.randrange(3)))
            budget -= 1
        elif k == 1:
            n = rnd.randrange(1, 5)
            if 2 * n + 1 <= budget:
                labs.append(KGLabel.odd(2 * n + 1, rnd.choice((1, 2)),
                                        rnd.randrange(3)))
                budget -= 2 * n + 1
        elif k == 2:
            n = rnd.randrange(1, 5)
            if 2 * n <= budget:
                labs.append(KGLabel.even(2 * n, rnd.choice((0, INF)),
                                         rnd.randrange(3)))
                budget -= 2 * n
        elif k == 3:
            n = rnd.randrange(1, 4)
            if 6 * n <= budget:
                phi = SPEC.element(rnd.randrange(1, 256))
                labs.append(KGLabel.band(6 * n, phi ** 3, phi=phi))
                budget -= 6 * n
        else:
            if labs and rnd.random() < 0.3:
                break
            budget -= 1
    return labs or [KGLabel.simple(0)]


class TestDecompose:
    def test_simple_plus_odd(self):
        M = labels_group_rep(SPEC, [KGLabel.simple(0), KGLabel.odd(3, 1, 1)])
        sol = decompose_rep(M)
        assert sol.multiplicities == {KGLabel.simple(0): 1,
                                      KGLabel.odd(3, 1, 1): 1}
        assert sol.total_dim() == M.dim

    def test_restricted_band_is_the_parameter_triple(self):
        phi = SPEC.element(9)
        from a4diff.ramification import lambda_of_phi
        lam = lambda_of_phi(SPEC, phi)
        M = restrict_to_h(kg_group_rep(SPEC, KGLabel.band(6, phi ** 3,
                                                          phi=phi)))
        sol = decompose_rep(M)
        want = {KHLabel.even(2, lam): 1,
                KHLabel.even(2, (ONE + lam) / lam): 1,
                KHLabel.even(2, (ONE + lam).inverse()): 1}
        assert sol.multiplicities == want
        assert sol.total_dim() == M.dim

    def test_round_trip_kh(self):
        rnd = random.Random(101)
        for trial in range(8):
            labs = rand_kh_multiset(rnd, rnd.randrange(10, 61))
            M = labels_group_rep(SPEC, labs)
            if trial % 2:
                M = conjugated(M, rnd)
            sol = decompose_rep(M)
            assert sol.multiplicities == multiset(labs)
            assert sol.total_dim() == M.dim

    def test_round_trip_kg(self):
        rnd = random.Random(202)
        for trial in range(8):
            labs = rand_kg_multiset(rnd, rnd.randrange(10, 61))
            M = labels_group_rep(SPEC, labs)
            if trial % 2:
                M = conjugated(M, rnd)
            sol = decompose_rep(M)
            assert sol.multiplicities == multiset(labs)
            assert sol.total_dim() == M.dim

    def test_singular_gram_rescued_by_probe_rows(self):
        # distinct small bands next to a gapped tower of infinity type
        # modules, whose hom counts against the labels present do not
        # tell them apart; the dense spot checks must match the result.
        p1, p2, p3 = (SPEC.element(k) for k in (17, 23, 29))
        labs = ([KGLabel.band(12, p1 ** 3, phi=p1),
                 KGLabel.band(6, p2 ** 3, phi=p2),
                 KGLabel.band(6, p3 ** 3, phi=p3),
                 KGLabel.odd(9, 2, 0),
                 KGLabel.even(2, INF, 2), KGLabel.even(6, INF, 1),
                 KGLabel.even(8, INF, 2)]
                + [KGLabel.simple(0)] * 3
                + [KGLabel.simple(1), KGLabel.simple(2)])
        M = labels_group_rep(SPEC, labs)
        sol = decompose_rep(M)
        assert sol.multiplicities == multiset(labs)
        assert sol.spot_hom == {
            str(X): hom_dim(kg_group_rep(SPEC, X), M)
            for X in (KGLabel.simple(0), KGLabel.simple(1))}

    @pytest.mark.parametrize("which", ["zoo", "genus234"])
    def test_spot_check_counts_match_the_stacked_ranks(self, which):
        # S_0 and S_1 from the fixed space K = ker [A; B] of each G
        # pack, Triv from K of each H pack and N_{2,0} from ker B,
        # against one rank of the stacked relations each (probe_hom)
        if which == "zoo":
            # the bands whose parameter is a cube, as the oracle needs
            F16 = FieldSpec(4)
            cubes = {p ** 3 for p in all_elements(F16)}
            models = [kg_group_rep(F16, lab)
                      for lab in zoo_labels(F16, 8, "kG")
                      if lab.kind != "Band" or lab.param in cubes]
        else:
            data = analyze_branch_data(hkg_alpha(SPEC, 2, 2))
            models = [build_global_rep(data).rep]
            assert models[0].dim == 234
        for M in models:
            spec = M.spec
            simples = (KGLabel.simple(0), KGLabel.simple(1))
            assert decompose_rep(M).spot_hom == {
                str(X): probe_hom(X, M) for X in simples}
            H = restrict_to_h(M)
            probes = [KHLabel.triv(), KHLabel.even(2, spec.zero())]
            assert decompose_rep(H).spot_hom == {
                str(X): probe_hom(X, H) for X in probes if X.dim <= M.dim}

    def test_projective_summand_rejected(self):
        # the regular module of the Klein four group is projective and
        # outside the inventory; the radical square acts nonzero on it.
        def perm(cols):
            return matrix_from_rows(
                SPEC, [[1 if cols[j] == i else 0 for j in range(4)]
                       for i in range(4)])
        M = GroupRep("H", SPEC, perm([1, 0, 3, 2]), perm([2, 3, 0, 1]))
        with pytest.raises(ValueError, match="no nonnegative integer"):
            decompose_rep(M)
        try:
            decompose_rep(M)
        except ValueError as err:
            assert err.certificate["reason"]

    def test_regular_a4_module_rejected(self):
        # kA4 is projective too: AB, the sum over H, acts nonzero.  A4 as
        # even permutations of 0..3, acting on itself from the left
        sigma, tau, rho = (1, 0, 3, 2), (2, 3, 0, 1), (0, 2, 3, 1)
        group = [tuple(range(4))]
        for g in group:
            for h in (sigma, tau, rho):
                hg = tuple(h[g[x]] for x in range(4))
                if hg not in group:
                    group.append(hg)
        assert len(group) == 12

        def regular(h):
            return matrix_from_rows(SPEC, [
                [1 if tuple(h[g[x]] for x in range(4)) == f else 0
                 for g in group] for f in group])
        M = GroupRep("G", SPEC, regular(sigma), regular(tau), regular(rho))
        with pytest.raises(ValueError, match="no nonnegative integer") as err:
            decompose_rep(M)
        assert err.value.certificate == {
            "reason": "radical square acts nonzero", "dim": 12, "side": "kG"}
        # a block of a larger model, in interleaved coordinates: the
        # certificate names the whole model's dimension
        both = direct_sum([kg_group_rep(SPEC, KGLabel.odd(5, 1, 0)), M])
        perm = np.array([5, 0, 6, 1, 7, 2, 8, 3, 9, 4] + list(range(10, 17)))
        with pytest.raises(ValueError, match="no nonnegative integer") as err:
            decompose_rep(permuted(both, perm))
        assert err.value.certificate == {
            "reason": "radical square acts nonzero", "dim": 17, "side": "kG"}

    def test_wrong_extraction_rejected_by_spot_check(self, monkeypatch):
        # right total dimension, but dense Hom(Triv, M) is 2, not 3
        M = kh_group_rep(SPEC, KHLabel.string(3, 2))
        monkeypatch.setattr("a4diff.oracle._klein_counts",
                            lambda rep: {KHLabel.triv(): 3})
        with pytest.raises(RuntimeError, match="disagrees at Triv"):
            decompose_rep(M)

    def test_wrong_extraction_rejected_above_dimension_150(self, monkeypatch):
        # the genus-234 one-point model over H, with one M_{3,1} read as
        # Triv + N_{2,0}: the same dimension, but other Hom counts
        data = analyze_branch_data(hkg_alpha(SPEC, 2, 2))
        M = restrict_to_h(build_global_rep(data).rep)
        assert M.dim == 234
        extract = oracle._klein_counts

        def swapped(rep):
            counts = extract(rep)
            counts[KHLabel.string(3, 1)] -= 1
            for lab in (KHLabel.triv(), KHLabel.even(2, SPEC.zero())):
                counts[lab] = counts.get(lab, 0) + 1
            return counts

        monkeypatch.setattr(oracle, "_klein_counts", swapped)
        with pytest.raises(RuntimeError, match="disagrees at"):
            decompose_rep(M)

    @pytest.mark.parametrize("labels, wrong", [
        # an A4 left string named at index i + 1
        ([KGLabel.odd(5, 2, 0)],
         {KGLabel.odd(5, 2, 0): KGLabel.odd(5, 2, 1)}),
        ([KGLabel.simple(1), KGLabel.odd(3, 2, 2), KGLabel.band(6, ONE)],
         {KGLabel.odd(3, 2, 2): KGLabel.odd(3, 2, 0)}),
        # a Klein right string named one dimension too long, or as the
        # left string of its dimension
        ([KHLabel.string(5, 1)],
         {KHLabel.string(5, 1): KHLabel.string(7, 1)}),
        ([KHLabel.triv(), KHLabel.string(3, 1), KHLabel.even(4, Z)],
         {KHLabel.string(3, 1): KHLabel.string(3, 2)}),
    ])
    def test_misnamed_summand_breaks_the_vertex_profile(self, monkeypatch,
                                                       labels, wrong):
        M = labels_group_rep(SPEC, labels)
        summands = oracle._summands

        def planted(rep, name, word):
            def misname(kind, n, at):
                lab = name(kind, n, at)
                return wrong.get(lab, lab)
            return summands(rep, misname, word)

        assert decompose_rep(M).multiplicities == multiset(labels)
        monkeypatch.setattr(oracle, "_summands", planted)
        with pytest.raises(RuntimeError, match="internal extraction "
                           "inconsistency: vertex profile does not match"):
            decompose_rep(M)

    def test_non_cube_band_parameter_unsupported(self):
        M = kg_group_rep(SPEC, KGLabel.band(6, Z))
        with pytest.raises(ValueError, match="unsupported configuration"):
            decompose_rep(M)

    def test_relation_violation_propagates(self):
        I = Matrix.identity(SPEC, 2)
        J = matrix_from_rows(SPEC, [[1, 1], [0, 1]])
        sol = decompose_rep(GroupRep("H", SPEC, J, J))
        assert sol.multiplicities == {KHLabel.even(2, ONE): 1}
        bad = GroupRep("H", SPEC, matrix_from_rows(SPEC, [[0, 1], [1, 1]]), I)
        with pytest.raises(ValueError, match="relation violation"):
            decompose_rep(bad)

    @pytest.mark.parametrize("side", ["kH", "kG"])
    def test_a_permuted_direct_sum_adds_up_its_blocks(self, side):
        # the blocks are read off the matrices in any coordinate order;
        # their labels and their Hom counts add up
        phi = SPEC.element(17)
        if side == "kH":
            labs = [KHLabel.triv(), KHLabel.string(5, 1), KHLabel.string(3, 2),
                    KHLabel.even(4, INF), KHLabel.even(2, Z),
                    KHLabel.even(4, INF), KHLabel.triv()]
            probes = [KHLabel.triv(), KHLabel.even(2, SPEC.zero())]
        else:
            labs = [KGLabel.band(6, phi ** 3, phi=phi),
                    KGLabel.even(4, INF, 1), KGLabel.odd(5, 2, 0),
                    KGLabel.simple(1), KGLabel.even(4, INF, 1),
                    KGLabel.simple(1)]
            probes = [KGLabel.simple(0), KGLabel.simple(1)]
        M = labels_group_rep(SPEC, labs)
        perm = np.arange(M.dim)
        random.Random(7).shuffle(perm)
        sol = decompose_rep(permuted(M, perm))
        assert sol.multiplicities == multiset(labs)
        assert sol.spot_hom == {
            str(X): sum(probe_hom(X, model(lab)) for lab in labs)
            for X in probes}

    def test_byte_equal_blocks_are_taken_apart_once(self, monkeypatch):
        lab = KGLabel.odd(5, 2, 1)
        one = model(lab)
        # copy c at coordinates c, c + 5, c + 10, ...
        perm = np.array([c * one.dim + i for i in range(one.dim)
                         for c in range(5)])
        M = permuted(direct_sum([one] * 5), perm)
        tops = []
        kronecker = oracle._kronecker

        def counting(P, Q):
            tops.append([p.cols for p in P])
            return kronecker(P, Q)

        monkeypatch.setattr(oracle, "_kronecker", counting)
        for N, N1 in ((M, one), (restrict_to_h(M), restrict_to_h(one))):
            single = decompose_rep(N1)
            sol = decompose_rep(N)
            # one call on the pencil of one copy
            assert len(tops) == 2 and tops[0] == tops[1]
            tops.clear()
            assert sol.multiplicities == {
                k: 5 * c for k, c in single.multiplicities.items()}
            assert sol.spot_hom == {
                k: 5 * c for k, c in single.spot_hom.items()}

    def test_the_probes_follow_the_whole_models_dimension(self):
        # N_{2,0} is left out only when the whole model, not a block, is
        # smaller; the other probes are taken even on the zero model
        sol = decompose_rep(labels_group_rep(SPEC, [KHLabel.triv()] * 2))
        assert sol.to_json() == {
            "multiplicities": {"Triv": 2},
            "spot_hom": {"Triv": 2, "N[2n=2,lambda=0]": 2}}
        empty = Matrix.zeros(SPEC, 0, 0)
        assert decompose_rep(GroupRep("G", SPEC, empty, empty,
                                      empty)).to_json() == {
            "multiplicities": {}, "spot_hom": {"S[i=0]": 0, "S[i=1]": 0}}
        assert decompose_rep(GroupRep("H", SPEC, empty, empty)).to_json() \
            == {"multiplicities": {}, "spot_hom": {"Triv": 0}}

    def test_solution_json(self):
        M = labels_group_rep(SPEC, [KGLabel.simple(2), KGLabel.simple(2)])
        sol = decompose_rep(M)
        assert sol.to_json() == {"multiplicities": {"S[i=2]": 2},
                                 "spot_hom": {"S[i=0]": 0, "S[i=1]": 0}}
        assert isinstance(sol, MultiplicitySolution)


# ---------------------------------------------------------------------------
# tube and band parameters as eigenvalues of a pivot minor

def random_matrix(spec, rnd, rows, cols, density=1.0):
    entries = [rnd.randrange(spec.order) if rnd.random() < density else 0
               for _ in range(rows * cols)]
    return Matrix(spec, np.array(entries, dtype=np.int64).reshape(rows, cols))


def random_invertible(spec, rnd, n):
    while True:
        X = random_matrix(spec, rnd, n, n)
        if X.rank() == n:
            return X


def poly_at_matrix(p, N):
    """p(N) by Horner's rule."""
    spec, n = N.spec, N.rows
    acc = Matrix.zeros(spec, n, n)
    for c in reversed(p.coeffs):
        acc = acc @ N + Matrix.scalar(spec, n, spec.element(c))
    return acc


class TestCharpoly:
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_roots_are_the_singular_shifts(self, m):
        spec = FieldSpec(m=m)
        rnd = random.Random(40 + m)
        for n in (0, 1, 2, 3, 5, 7):
            for density in (1.0, 0.3):
                N = random_matrix(spec, rnd, n, n, density)
                p = _charpoly(N)
                assert p.degree == n and p.leading() == 1
                for lam in range(spec.order):
                    shifted = N + Matrix.scalar(spec, n, spec.element(lam))
                    assert (poly_eval(p, lam) == 0) == (shifted.rank() < n)
                assert poly_at_matrix(p, N).is_zero()

    def test_repeated_eigenvalues_and_zero_subdiagonal(self):
        # conjugated Jordan blocks: the Hessenberg form splits into
        # blocks and the polynomial is the product of (x + mu)^size
        spec = FieldSpec(m=4)
        rnd = random.Random(7)
        blocks = [(3, 5), (2, 5), (1, 0), (2, 9)]
        J = Matrix.assemble(spec, [b for b, _ in blocks],
                            [b for b, _ in blocks],
                            {(i, i): jordan_block(spec, b, spec.element(mu))
                             for i, (b, mu) in enumerate(blocks)})
        X = random_invertible(spec, rnd, J.rows)
        N = coords_in_basis(X, J @ X)
        want = Poly(spec, (1,))
        for size, mu in blocks:
            for _ in range(size):
                want = want * Poly(spec, (mu, 1))
        assert _charpoly(J) == want
        assert _charpoly(N) == want
        assert _charpoly(Matrix.zeros(spec, 4, 4)) == Poly(spec,
                                                           (0, 0, 0, 0, 1))


def planted_pencil(spec, rnd, kron, kron_t, finite, infinite):
    """A random conjugate of a pencil (P, Q) in Kronecker form.

    P + lam Q carries one L_k block (k x (k+1)) per k in kron, one L_k^T
    per k in kron_t, a Jordan block of size s at the finite parameter mu
    for each (s, mu) in finite, and one of size s at infinity for each s
    in infinite.
    """
    blocks = []
    for k in kron:
        eye = np.eye(k, k + 1, dtype=np.int64)
        blocks.append((eye, np.eye(k, k + 1, k=1, dtype=np.int64)))
    for k in kron_t:
        eye = np.eye(k + 1, k, dtype=np.int64)
        blocks.append((eye, np.eye(k + 1, k, k=-1, dtype=np.int64)))
    for size, mu in finite:
        blocks.append((jordan_block(spec, size, spec.element(mu)).a,
                       np.eye(size, dtype=np.int64)))
    for size in infinite:
        blocks.append((np.eye(size, dtype=np.int64),
                       np.eye(size, k=1, dtype=np.int64)))
    rows = [b.shape[0] for b, _ in blocks]
    cols = [b.shape[1] for b, _ in blocks]
    P = Matrix.assemble(spec, rows, cols, {(i, i): Matrix(spec, b)
                                           for i, (b, _) in enumerate(blocks)})
    Q = Matrix.assemble(spec, rows, cols, {(i, i): Matrix(spec, q)
                                           for i, (_, q) in enumerate(blocks)})
    X = random_invertible(spec, rnd, P.rows)
    Y = random_invertible(spec, rnd, P.cols)
    return X @ P @ Y, X @ Q @ Y


def random_planted_pencil(spec, rnd):
    """A planted pencil with one to three finite parameters, drawn from 0,
    1, zeta and two random elements, one of them carrying two blocks;
    returns (P, Q, finite, infinite, kron, kron_t)."""
    z = spec.zeta().mask
    params = [0, 1, z, rnd.randrange(spec.order), rnd.randrange(spec.order)]
    finite = [(rnd.randint(1, 3), mu)
              for mu in rnd.sample(params, rnd.randint(1, 3))]
    finite.append((rnd.randint(1, 2), finite[0][1]))
    kron = rnd.sample([0, 1, 2], rnd.randint(0, 2))
    kron_t = rnd.sample([0, 1, 2], rnd.randint(0, 2))
    infinite = [1, 2][:rnd.randint(0, 2)]
    P, Q = planted_pencil(spec, rnd, kron, kron_t, finite, infinite)
    return P, Q, finite, infinite, kron, kron_t


def graded_models(keep_band):
    """The kG zoo models of dimension <= 8 (the bands B_{6,mu} with
    keep_band(mu)), four conjugated random sums and the genus-234 model."""
    rnd = random.Random(303)
    models = [kg_group_rep(SPEC, lab) for lab in zoo_labels(SPEC, 8, "kG")
              if lab.kind != "Band" or keep_band(lab.param)]
    models += [conjugated(labels_group_rep(
        SPEC, rand_kg_multiset(rnd, rnd.randrange(10, 41))), rnd)
        for _ in range(4)]
    data = analyze_branch_data(hkg_alpha(SPEC, 1, 2))
    models.append(build_global_rep(data).rep)
    return models


def graded_wong_dims(F, G, shift, start):
    """Total dimension of each step of a Wong sequence, run vertex by
    vertex and run once more on the assembled, ungraded pencil."""
    spec = F[0].spec
    rows = [f.rows for f in F]
    cols = [f.cols for f in F]
    # F[v] and G[v + shift] land in the same block row v
    Fbig = Matrix.assemble(spec, rows, cols,
                           {(v, v): F[v] for v in range(3)})
    Gbig = Matrix.assemble(spec, rows, cols,
                           {((v - shift) % 3, v): G[v] for v in range(3)})
    whole = Matrix.assemble(spec, cols, [s.cols for s in start],
                            {(v, v): s for v, s in enumerate(start)})
    graded = [sum(x.cols for x in S)
              for S in oracle._wong(F, G, shift, start)]
    ungraded = [S[0].cols
                for S in oracle._wong([Fbig], [Gbig], shift, [whole])]
    return graded, ungraded


class TestDropCandidates:
    # the Kronecker data of a pencil from its Wong sequences: the finite
    # parameters against ranking the pencil at every field element, the
    # block sizes against the planted ones

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    @pytest.mark.parametrize("skip_zero", [False, True])
    def test_no_rank_drop_is_missed(self, m, skip_zero):
        # skip_zero: the nonzero parameters alone, as the band side
        # reads them
        spec = FieldSpec(m=m)
        rnd = random.Random(m * 10 + skip_zero)
        for _ in range(4):
            P, Q, finite, _, _, _ = random_planted_pencil(spec, rnd)
            right, left, inf, zero, nonzero = _kronecker([P], [Q])
            found = set(nonzero)
            if zero and not skip_zero:
                found.add(spec.zero())
            drops = reference_rank_drops(P, Q, skip_zero)
            want = {mu for _, mu in finite if mu or not skip_zero}
            assert {lam.mask for lam in drops} == want
            assert found == set(drops)
            # a zero first row and column add a Triv and a zero row: the
            # data must not depend on where the blocks sit
            Pz, Qz = (Matrix(spec, np.pad(X.a, ((1, 0), (1, 0))))
                      for X in (P, Q))
            padded = _kronecker([Pz], [Qz])
            right[(1, 0)] = right.get((1, 0), 0) + 1
            assert padded == (right, left, inf, zero, nonzero)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_sizes_are_the_planted_blocks(self, m):
        # L_k (k x (k+1)) is a right string of k + 1 top vectors, L_k^T
        # for k >= 1 a left string of k; the zero row L_0^T is in no
        # Wong subspace.  Jordan blocks at 0, at infinity and at the
        # other parameters come back with their sizes.
        spec = FieldSpec(m=m)
        rnd = random.Random(70 + m)
        for _ in range(6):
            P, Q, finite, infinite, kron, kron_t = random_planted_pencil(
                spec, rnd)
            right, left, inf, zero, nonzero = _kronecker([P], [Q])
            assert right == Counter((k + 1, 0) for k in kron)
            assert left == Counter((k, 0) for k in kron_t if k)
            assert inf == Counter((size, 0) for size in infinite)
            assert zero == Counter((size, 0) for size, mu in finite if not mu)
            want = {}
            for size, mu in finite:
                if mu:
                    at = want.setdefault(spec.element(mu), {})
                    at[size] = at.get(size, 0) + 1
            assert nonzero == want

    def test_a_parameter_outside_the_field_is_refused(self):
        # x^2 + x + zeta has no root in GF(4): its companion block is a
        # tube whose parameter lies in GF(16)
        spec = FieldSpec(m=2)
        z = spec.zeta().mask
        rnd = random.Random(5)
        P, Q = planted_pencil(spec, rnd, [1], [], [(1, 1)], [1])
        comp = matrix_from_rows(spec, [[0, z], [1, 1]])
        P = Matrix.assemble(spec, [P.rows, 2], [P.cols, 2],
                            {(0, 0): P, (1, 1): comp})
        Q = Matrix.assemble(spec, [Q.rows, 2], [Q.cols, 2],
                            {(0, 0): Q, (1, 1): Matrix.identity(spec, 2)})
        with pytest.raises(ValueError, match="unsupported configuration"):
            _kronecker([P], [Q])

    def test_wong_subspaces_are_graded(self):
        # images and preimages under the homogeneous D and C keep graded
        # subspaces graded, so each Wong subspace of the A4 pencil is the
        # sum of its parts at the three vertices: on every zoo model of
        # dimension <= 8, on random sums and on a family datum, the
        # vertex dimensions add up to the ungraded ones, step by step
        for M in graded_models(lambda mu: mu == ONE):
            D, C = oracle._radical_pencil(M)
            for F, G, shift, start in (
                    (D, C, 1, [Matrix.identity(SPEC, d.cols) for d in D]),
                    (C, D, -1, [Matrix.zeros(SPEC, d.cols, 0) for d in D])):
                graded, ungraded = graded_wong_dims(F, G, shift, start)
                assert graded == ungraded

    def test_radical_pencil_matches_the_quiver_reference(self):
        # the pencil read off the rho eigenspaces directly is the one the
        # graded quiver representation gives, matrix for matrix
        for M in graded_models(lambda mu: True):
            assert oracle._radical_pencil(M) == reference_a4_pencil(M)

    def test_band_orbit_is_named_by_its_first_element_in_scan_order(self):
        # the orbit phi, zeta phi, zeta^2 phi of a band parameter is named
        # by its smallest mask, which is 1 for the unit orbit: the first
        # member in the order 0, 1, zeta, zeta^2, then by mask
        rnd = random.Random(11)
        for p in [ONE, Z * Z] + [SPEC.element(rnd.randrange(2, 256))
                                 for _ in range(6)]:
            M = conjugated(kg_group_rep(SPEC, KGLabel.band(6, p ** 3,
                                                           phi=p)), rnd)
            (label, count), = decompose_rep(M).multiplicities.items()
            orbit = [p, p * Z, p * Z * Z]
            first = ONE if ONE in orbit else min(orbit, key=lambda x: x.mask)
            assert count == 1 and label.phi == first
