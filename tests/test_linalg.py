"""The GF(2^m) matrix kernel against scalar and plain references."""

import random

import numpy as np
import pytest

from a4diff import _linalg
from a4diff._linalg import (Matrix, _div_arrays, _field_tables,
                            _gather_product, _inv_mask, _mul_arrays)
from a4diff.gf import (FieldSpec, _ppowmod, _pmulmod, default_modulus,
                       is_irreducible_gf2)

from helpers import (gf2_blowup_rank, reference_field_tables,
                     reference_right_nullspace, reference_rref)

SHAPES = [(0, 3, 4), (3, 0, 4), (3, 4, 0), (1, 1, 1), (2, 1, 3), (5, 7, 4),
          (9, 6, 11)]


def random_matrix(rnd, spec, rows, cols, density=1.0):
    # dense matrices draw one mask per entry and nothing else
    masks = [rnd.randrange(spec.order)
             if density >= 1 or rnd.random() < density else 0
             for _ in range(rows * cols)]
    return Matrix(spec, np.array(masks, dtype=np.int64).reshape(rows, cols))


def scalar_product(A, B):
    """A @ B entry by entry with FieldElement arithmetic."""
    spec = A.spec
    out = [[spec.zero() for _ in range(B.cols)] for _ in range(A.rows)]
    for i in range(A.rows):
        for j in range(B.cols):
            for k in range(A.cols):
                out[i][j] = out[i][j] + A.element(i, k) * B.element(k, j)
    return [[e.mask for e in row] for row in out]


@pytest.mark.parametrize("m", [2, 8, 12, 18, 20, 26, 28, 30, 32])
def test_product_matches_scalar_reference(m, monkeypatch):
    # the gathered product both ways round and the product that picks
    # between them, on dense, sparse and zero operands, on direct tables
    # up to m = 16 and on the tower above
    spec = FieldSpec(m)
    rnd = random.Random(m)
    cases = [(n, k, p, 1.0) for n, k, p in SHAPES]
    cases += [(12, 15, 10, 0.08), (15, 9, 14, 0.3), (1, 20, 17, 0.1),
              (16, 16, 16, 0.0)]
    operands = [(random_matrix(rnd, spec, n, k, density),
                 random_matrix(rnd, spec, k, p, density))
                for n, k, p, density in cases]
    # all-ones masks carry into every reduction step
    full = Matrix.from_rows(spec, [[spec.order - 1] * 3] * 3)
    operands.append((full, full))
    for A, B in operands:
        want = scalar_product(A, B)
        # __matmul__ runs the gathered product transposed when B is the
        # cheaper side to gather
        got = [(A @ B).a, _gather_product(spec, A.a, B.a),
               _gather_product(spec, B.a.T, A.a.T).T]
        with monkeypatch.context() as mp:
            # runs of a few terms split rows between passes
            mp.setattr(_linalg, "_TERMS", 5)
            got.append(_gather_product(spec, A.a, B.a))
        for C in got:
            assert C.shape == (A.rows, B.cols)
            assert C.tolist() == want, (m, A.shape, B.shape)


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
    spec = FieldSpec(m)
    exp, log = _field_tables(spec)
    ref_exp, ref_log = reference_field_tables(spec)
    assert exp.dtype == ref_exp.dtype and log.dtype == ref_log.dtype
    assert (exp == ref_exp).all() and (log == ref_log).all()


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
