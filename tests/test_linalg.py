"""The GF(2^m) matrix kernel against scalar and plain references."""

import random

import numpy as np
import pytest

from a4diff import _linalg, gf
from a4diff._linalg import (Matrix, _field_tables, _gather_product,
                            _plane_product)
from a4diff.cli import run_cli
from a4diff.gf import FieldSpec

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


@pytest.mark.parametrize("m", [2, 8, 12, 20, 32])
def test_product_matches_scalar_reference(m, monkeypatch):
    # both regimes and the product that picks between them, on dense,
    # sparse and zero operands
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
        got = [(A @ B).a, _plane_product(spec, A.a, B.a)]
        if m <= _linalg.MAX_M:
            # the gathered product needs the exp/log tables; __matmul__
            # runs it transposed when B is the cheaper side to gather
            got += [_gather_product(spec, A.a, B.a),
                    _gather_product(spec, B.a.T, A.a.T).T]
            with monkeypatch.context() as mp:
                # runs of a few terms split rows between passes
                mp.setattr(_linalg, "_TERMS", 5)
                got.append(_gather_product(spec, A.a, B.a))
        for C in got:
            assert C.shape == (A.rows, B.cols)
            assert C.tolist() == want, (m, A.shape, B.shape)


def test_large_model_products_avoid_the_bit_plane_gemm(capsys, monkeypatch):
    # the genus-234 one-point verify: every product of at least
    # 234 * 234 * 78 multiply-adds is one of its nearly monomial group
    # matrices, and goes through the gathered product
    big = 234 * 234 * 78
    sizes = []
    planes = []
    product = Matrix.__matmul__
    gemm = _linalg._plane_product

    def sized(a, b):
        sizes.append(a.rows * a.cols * b.cols)
        return product(a, b)

    def counted(spec, a, b):
        planes.append(a.shape[0] * a.shape[1] * b.shape[1])
        return gemm(spec, a, b)

    monkeypatch.setattr(Matrix, "__matmul__", sized)
    monkeypatch.setattr(_linalg, "_plane_product", counted)
    code = run_cli(["examples", "--which", "1", "--n", "2", "--x", "2",
                    "--m", "8", "--verify"])
    assert code == 0 and "verification: PASS" in capsys.readouterr().out
    assert sum(size >= big for size in sizes) == 26
    assert not [size for size in planes if size >= big]


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
    monkeypatch.setattr(gf, "MAX_M", 4)
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
