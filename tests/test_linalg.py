"""The GF(2^m) matrix kernel against scalar and plain references."""

import random

import numpy as np
import pytest

from a4diff import _linalg
from a4diff._linalg import Matrix, _field_tables
from a4diff.gf import FieldSpec

from helpers import gf2_blowup_rank, reference_field_tables

SHAPES = [(0, 3, 4), (3, 0, 4), (3, 4, 0), (1, 1, 1), (2, 1, 3), (5, 7, 4),
          (9, 6, 11)]


def random_matrix(rnd, spec, rows, cols):
    masks = [rnd.randrange(spec.order) for _ in range(rows * cols)]
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


@pytest.mark.parametrize("m", [2, 8, 12, 20, 32])
def test_product_matches_scalar_reference(m):
    spec = FieldSpec(m)
    rnd = random.Random(m)
    for n, k, p in SHAPES:
        A = random_matrix(rnd, spec, n, k)
        B = random_matrix(rnd, spec, k, p)
        C = A @ B
        assert C.shape == (n, p)
        assert C.to_mask_rows() == scalar_product(A, B), (m, n, k, p)
    # all-ones masks carry into every reduction step
    full = Matrix.from_rows(spec, [[spec.order - 1] * 3] * 3)
    assert (full @ full).to_mask_rows() == scalar_product(full, full)


def test_product_refuses_inner_dimensions_float32_cannot_count():
    spec = FieldSpec(32)
    k = (1 << 24) // spec.m            # m * k reaches 2^24
    with pytest.raises(AssertionError, match="float32"):
        Matrix.zeros(spec, 1, k) @ Matrix.zeros(spec, k, 1)


@pytest.mark.parametrize("m", range(2, 17, 2))
def test_field_tables_match_the_plain_build(m):
    spec = FieldSpec(m)
    exp, log = _field_tables(spec)
    ref_exp, ref_log = reference_field_tables(spec)
    assert exp.dtype == ref_exp.dtype and log.dtype == ref_log.dtype
    assert (exp == ref_exp).all() and (log == ref_log).all()


def test_field_tables_refuse_fields_above_the_bound(monkeypatch):
    monkeypatch.setattr(_linalg, "MAX_M", 4)
    with pytest.raises(ValueError, match="supported up to m = 4"):
        _field_tables(FieldSpec(6, 0b1011011))   # a modulus not yet cached


@pytest.mark.parametrize("m", [8, 12])
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
