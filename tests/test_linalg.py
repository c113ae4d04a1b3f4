"""The GF(2^m) matrix kernel against scalar and plain references."""

import random

import numpy as np
import pytest

from a4diff import _linalg
from a4diff._linalg import (Matrix, _div_arrays, _eliminate, _field_tables,
                            _gather_product, _inv_mask, _mul_arrays,
                            _nonzeros, _pair_product, col_basis,
                            coords_at_pivots, coords_in_basis, hstack)
from a4diff.gf import (FieldSpec, _ppowmod, _pmulmod, default_modulus,
                       is_irreducible_gf2)

from helpers import (gf2_blowup_rank, matrix_from_rows,
                     reference_field_tables, reference_product,
                     reference_right_nullspace, reference_rref)

SHAPES = [(0, 3, 4), (3, 0, 4), (3, 4, 0), (1, 1, 1), (2, 1, 3), (5, 7, 4),
          (9, 6, 11)]


def random_matrix(rnd, spec, rows, cols, density=1.0):
    # dense matrices draw one mask per entry and nothing else
    masks = [rnd.randrange(spec.order)
             if density >= 1 or rnd.random() < density else 0
             for _ in range(rows * cols)]
    return Matrix(spec, np.array(masks, dtype=np.int64).reshape(rows, cols))


def monomial_matrix(rnd, spec, n):
    """A permutation matrix with random nonzero masks for its ones."""
    out = np.zeros((n, n), dtype=np.int64)
    out[np.arange(n), rnd.sample(range(n), n)] = [
        rnd.randrange(1, spec.order) for _ in range(n)]
    return Matrix(spec, out)


@pytest.mark.parametrize("m", [2, 8, 12, 18, 20, 26, 28, 30, 32])
def test_product_matches_scalar_reference(m, monkeypatch):
    # the gathered product both ways round, the pair product and the
    # product that picks among them, on dense, sparse and zero operands,
    # on direct tables up to m = 16 and on the tower above
    spec = FieldSpec(m)
    rnd = random.Random(m)
    cases = [(n, k, p, 1.0) for n, k, p in SHAPES]
    cases += [(12, 15, 10, 0.08), (15, 9, 14, 0.3), (1, 20, 17, 0.1),
              (16, 16, 16, 0.0)]
    operands = [(random_matrix(rnd, spec, n, k, density),
                 random_matrix(rnd, spec, k, p, density))
                for n, k, p, density in cases]
    # all-ones masks carry into every reduction step
    full = matrix_from_rows(spec, [[spec.order - 1] * 3] * 3)
    operands.append((full, full))
    for A, B in operands:
        want = reference_product(A, B)
        pairs = _pair_product(spec, A.a, B.a, _nonzeros(A.a), _nonzeros(B.a))
        # __matmul__ runs the gathered product transposed when B is the
        # cheaper side to gather
        got = [(A @ B).a, _gather_product(spec, A.a, B.a),
               _gather_product(spec, B.a.T, A.a.T).T, pairs]
        with monkeypatch.context() as mp:
            # runs of a few terms split rows between passes
            mp.setattr(_linalg, "_TERMS", 5)
            got.append(_gather_product(spec, A.a, B.a))
        for C in got:
            assert C.shape == (A.rows, B.cols)
            assert C.tolist() == want, (m, A.shape, B.shape)


@pytest.mark.parametrize("m", [2, 8, 12, 20, 32])
def test_pair_product_matches_the_gathered_product(m, monkeypatch):
    # monomial, sparse, dense, all-zero and empty operands, contiguous
    # and as transposed views, against the gathered product and the
    # bit-loop reference, in one run of pairs and in runs of a few
    spec = FieldSpec(m)
    rnd = random.Random(400 + m)
    mats = [monomial_matrix(rnd, spec, 9)]
    mats += [random_matrix(rnd, spec, 9, 9, d) for d in (0.1, 0.3, 1.0)]
    mats.append(Matrix.zeros(spec, 9, 9))
    operands = [(A, B) for A in mats for B in mats]
    # column 4 of A against a full row 4 of B: each nonzero of A has
    # more pairs than a run of 5 holds
    col = Matrix.zeros(spec, 9, 9)
    col.a[:, 4] = 1 + np.arange(9) % (spec.order - 1)
    operands.append((col, mats[3]))
    operands += [(random_matrix(rnd, spec, n, k, 0.5),
                  random_matrix(rnd, spec, k, p, 0.5))
                 for n, k, p in [(0, 4, 3), (4, 0, 3), (4, 3, 0), (0, 0, 0)]]
    for terms in (_linalg._TERMS, 5):
        monkeypatch.setattr(_linalg, "_TERMS", terms)
        for A, B in operands:
            want = reference_product(A, B)
            for a, b in ((A.a, B.a), (B.a.T, A.a.T)):
                got = _pair_product(spec, a, b, _nonzeros(a), _nonzeros(b))
                assert got.shape == (a.shape[0], b.shape[1])
                assert (got == _gather_product(spec, a, b)).all()
                if a is A.a:
                    assert got.tolist() == want
            assert (A @ B).a.tolist() == want
            assert (B.transpose() @ A.transpose()).a.T.tolist() == want
    # at this size __matmul__ multiplies pairs for monomial and sparse
    # operands, and gathers for dense ones
    calls = []
    pair_product = _linalg._pair_product
    monkeypatch.setattr(_linalg, "_pair_product",
                        lambda *args: calls.append(1) or pair_product(*args))
    big = [monomial_matrix(rnd, spec, 64),
           random_matrix(rnd, spec, 64, 64, 0.02),
           random_matrix(rnd, spec, 64, 64, 1.0)]
    for A in big:
        for B in big:
            assert ((A @ B).a == _gather_product(spec, A.a, B.a)).all()
    assert len(calls) == 4


def _next_irreducible(f):
    f += 2
    while not is_irreducible_gf2(f):
        f += 2
    return f


TOWER_FIELDS = [(m, default_modulus(m)) for m in range(18, 33, 2)]
TOWER_FIELDS += [(m, _next_irreducible(default_modulus(m)))
                 for m in (18, 20, 24, 32)]


@pytest.mark.parametrize("m,modulus", TOWER_FIELDS)
def test_tower_products_and_inverses_match_the_bit_loop(m, modulus):
    spec = FieldSpec(m, modulus)
    rnd = random.Random(m * modulus)
    top = spec.order - 1
    a = np.array([0, 1, 2, top, top] + [rnd.randrange(spec.order)
                                        for _ in range(200)], dtype=np.int64)
    b = np.array([top, 0, top, 1, top] + [rnd.randrange(spec.order)
                                          for _ in range(200)], dtype=np.int64)
    assert _mul_arrays(spec, a, b).tolist() == \
        [_pmulmod(int(x), int(y), modulus) for x, y in zip(a, b)]
    # a scalar against an array, and an outer product by broadcasting
    assert _mul_arrays(spec, a[7], b).tolist() == \
        [_pmulmod(int(a[7]), int(y), modulus) for y in b]
    assert _mul_arrays(spec, a[:5, None], b[None, :4]).tolist() == \
        [[_pmulmod(int(x), int(y), modulus) for y in b[:4]] for x in a[:5]]
    nonzero = a[a != 0]
    want = [_ppowmod(int(x), spec.order - 2, modulus) for x in nonzero]
    assert _inv_mask(spec, nonzero).tolist() == want
    assert _inv_mask(spec, int(nonzero[-1])) == want[-1]
    with pytest.raises(ZeroDivisionError):
        _inv_mask(spec, a[:3])


@pytest.mark.parametrize("m", [2, 8, 12, 18, 32])
def test_division_matches_product_by_the_inverse(m):
    spec = FieldSpec(m)
    rnd = random.Random(200 + m)
    top = spec.order - 1
    a = np.array([0, 1, top, 0] + [rnd.randrange(spec.order)
                                   for _ in range(200)], dtype=np.int64)
    b = np.array([1, top, top, 2] + [rnd.randrange(1, spec.order)
                                     for _ in range(200)], dtype=np.int64)
    assert _div_arrays(spec, a, b).tolist() == \
        _mul_arrays(spec, a, _inv_mask(spec, b)).tolist()
    # by one scalar, as rref divides a pivot column by its pivot
    assert _div_arrays(spec, a, b[5]).tolist() == \
        _mul_arrays(spec, a, _inv_mask(spec, b[5])).tolist()


@pytest.mark.parametrize("m", range(2, 17, 2))
def test_field_tables_match_the_plain_build(m):
    # the plain tables, then a zero tail that log[0] points at: a log
    # sum or difference with a zero operand reads 0 there
    spec = FieldSpec(m)
    exp, log = _field_tables(spec)
    ref_exp, ref_log = reference_field_tables(spec)
    n = ref_exp.size
    assert n == 2 * (spec.order - 1)
    assert exp.dtype == ref_exp.dtype and log.dtype == ref_log.dtype
    assert exp.shape == (2 * n + 1,) and log.shape == ref_log.shape
    assert (exp[:n] == ref_exp).all() and not exp[n:].any()
    assert (log[1:] == ref_log[1:]).all() and log[0] == n


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_a_zero_factor_gives_zero_everywhere(m):
    # every pair of masks, zeros included: products against the bit
    # loop, and quotients by every nonzero mask
    spec = FieldSpec(m)
    q = spec.order
    a = np.repeat(np.arange(q), q)
    b = np.tile(np.arange(q), q)
    want = [_pmulmod(int(x), int(y), spec.modulus) for x, y in zip(a, b)]
    assert _mul_arrays(spec, a, b).tolist() == want
    assert not _mul_arrays(spec, np.int64(0), np.arange(q)).any()
    nonzero = b != 0
    quot = _div_arrays(spec, a[nonzero], b[nonzero])
    assert not quot[a[nonzero] == 0].any()
    assert _mul_arrays(spec, quot, b[nonzero]).tolist() == \
        a[nonzero].tolist()
    for y in range(1, q):
        assert not _div_arrays(spec, np.zeros(3, dtype=np.int64),
                               np.int64(y)).any()


@pytest.mark.parametrize("m", [8, 12, 18, 26, 28, 30, 32])
def test_rank_matches_gf2_blowup_on_rank_deficient_matrices(m):
    spec = FieldSpec(m)
    rnd = random.Random(100 + m)
    for _ in range(12):
        n, p = rnd.randint(1, 7), rnd.randint(1, 7)
        r = rnd.randint(0, min(n, p) - 1)
        A = random_matrix(rnd, spec, n, r) @ random_matrix(rnd, spec, r, p)
        rank = A.rank()
        assert rank <= r
        assert rank == gf2_blowup_rank(A) == gf2_blowup_rank(A.transpose())


@pytest.mark.parametrize("m", [2, 8, 12, 20])
def test_rref_and_kernel_match_the_normalising_reference(m):
    spec = FieldSpec(m)
    rnd = random.Random(300 + m)
    for density in (0.05, 0.3, 1.0):
        for _ in range(6):
            n, p = rnd.randint(1, 14), rnd.randint(1, 14)
            r = rnd.randint(0, min(n, p))
            A = (random_matrix(rnd, spec, n, r, density)
                 @ random_matrix(rnd, spec, r, p, density))
            R, piv = A.rref()
            R_ref, piv_ref = reference_rref(A)
            assert piv == piv_ref
            assert R == R_ref
            assert A.right_nullspace() == reference_right_nullspace(A)


def peel_cases(rnd, spec):
    """(name, matrix) pairs of the shapes the peel must handle."""
    def nonzero():
        return rnd.randrange(1, spec.order)

    def unit_rows(cols, picks):
        out = np.zeros((len(picks), cols), dtype=np.int64)
        out[np.arange(len(picks)), picks] = [nonzero() for _ in picks]
        return out

    cases = [("monomial", monomial_matrix(rnd, spec, n).a)
             for n in (1, 5, 12)]
    # two singleton rows in each column, and singletons over a dense core
    cases.append(("shared", np.concatenate(
        [monomial_matrix(rnd, spec, 7).a, monomial_matrix(rnd, spec, 7).a])))
    cases.append(("shared over dense", np.concatenate(
        [unit_rows(9, [4, 1, 4, 7]), random_matrix(rnd, spec, 5, 9).a])))
    # singleton columns that denser rows also use, rows in random order
    dense = random_matrix(rnd, spec, 8, 10, 0.4).a
    dense[:, [2, 5]] = [[nonzero(), nonzero()] for _ in range(8)]
    mixed = np.concatenate([dense, unit_rows(10, [5, 2, 9])])
    cases.append(("singleton under dense", mixed[rnd.sample(range(11), 11)]))
    # a bidiagonal chain: each peel leaves one new singleton row, until
    # the last peel; then the same chain under a dense block
    n = 9
    chain = np.zeros((n, n), dtype=np.int64)
    chain[np.arange(n), np.arange(n)] = [nonzero() for _ in range(n)]
    chain[np.arange(n - 1), np.arange(1, n)] = [nonzero() for _ in range(n - 1)]
    cases.append(("chain", chain[rnd.sample(range(n), n)]))
    cases.append(("chain under dense", np.concatenate(
        [np.concatenate([chain, np.zeros((n, 4), dtype=np.int64)], axis=1),
         random_matrix(rnd, spec, 3, n + 4).a])))
    # zero rows and columns around a sparse block, and empty shapes
    block = np.zeros((10, 11), dtype=np.int64)
    block[2:8, 3:10] = random_matrix(rnd, spec, 6, 7, 0.3).a
    block[[2, 5]] = 0
    cases.append(("zero rows and columns", block))
    cases.append(("zero", np.zeros((4, 6), dtype=np.int64)))
    cases += [("empty", np.zeros(shape, dtype=np.int64))
              for shape in ((0, 5), (5, 0), (0, 0))]
    return [(name, Matrix(spec, a)) for name, a in cases]


@pytest.mark.parametrize("m", [2, 8, 16, 18, 32])
def test_rref_peels_to_the_normalising_reference(m):
    # the peel takes singleton rows, those left by earlier peels and
    # shared columns; the pivot loop reduces the rest; the merged rows
    # are the reference's, and rank counts its pivots
    spec = FieldSpec(m)
    rnd = random.Random(700 + m)
    for name, A in peel_cases(rnd, spec):
        R, piv = A.rref()
        R_ref, piv_ref = reference_rref(A)
        assert piv == piv_ref, name
        assert R == R_ref, name
        assert A.rank() == len(piv_ref), name
        if name in ("monomial", "shared", "chain"):
            # nothing is left for the pivot loop
            assert _eliminate(spec, A.a)[1] is None, name


@pytest.mark.parametrize("m", [2, 8, 20])
def test_coordinates_at_pivot_rows_match_the_row_reduced_solve(m):
    # a col_basis is the identity at its pivot rows, so the coordinates
    # of a vector in its span are the vector's entries there; a unit
    # vector at another row, plus anything in the span, is outside, and
    # the row-reduced solve refuses it
    spec = FieldSpec(m)
    rnd = random.Random(500 + m)
    for density in (0.1, 0.5, 1.0):
        for _ in range(8):
            d, r = rnd.randint(1, 12), rnd.randint(0, 6)
            S = (random_matrix(rnd, spec, d, r, density)
                 @ random_matrix(rnd, spec, r, rnd.randint(0, 8), density))
            B, rows = col_basis(S)
            assert B.a[rows].tolist() == np.eye(B.cols, dtype=int).tolist()
            vecs = B @ random_matrix(rnd, spec, B.cols, 4, density)
            X = coords_at_pivots(B, rows, vecs)
            assert X == coords_in_basis(B, vecs)
            free = sorted(set(range(d)) - set(rows))
            if free:
                out = vecs.copy()
                out.a[rnd.choice(free), 2] ^= rnd.randrange(1, spec.order)
                with pytest.raises(ValueError,
                                   match="vector outside the spanning"):
                    coords_in_basis(B, hstack([vecs, out]))
