"""Exact linear algebra over GF(2^m).

A matrix holds its entries as bit masks in a numpy int64 array.

A product multiplies only what it must, in one of two ways.  The pair
product takes the pairs of nonzeros a[i, l], b[l, c], multiplies each
pair with one entrywise table product, and XORs the products of one
(i, c) together by sorted key with `bitwise_xor.reduceat`: Gustavson's
row-wise sparse product ("Two fast algorithms for sparse matrices", ACM
TOMS 4, 1978) carried through to the second operand's nonzeros.  The
gathered product multiplies each nonzero a[i, l] of one operand by the
whole row l of the other and XORs the rows of one i together: A @ B
costs nnz(A) * cols(B) table products, or nnz(B) * rows(A) on the
transposes when that is smaller.  The exact pair count is one dot
product, of A's column counts with B's row counts.  The models' group
matrices are nearly monomial (about 1.4 nonzeros a row), so their
products have about as many pairs as rows, and a 234 x 234 product
takes some 400 pairs where gathering takes 70,000 terms; dense
operands, and tiny ones where the pair product's set-up dominates, are
gathered.  Either product goes in runs of at most _TERMS terms, so the
temporaries stay in cache whatever the size.

Entrywise products, quotients and inverses (both products, scaling, row
reduction) go through _mul_arrays, _div_arrays and _inv_mask on the
tables _field_tables caches per field: int64 exp/log arrays up to
m = gf.TABLE_M = 16, copied from the scalar layer's tuples, and the
quadratic tower over GF(2^(m/2)) of _tower for every even m above it up
to 32.  The exp array ends in a zero tail that log[0] points into, so a
zero operand reads 0 with no mask.  So one product kernel serves every
field.  numpy enters here: the scalar layers below never import it.

Rank is the number of pivots of the row reduction over the field, which
runs in two stages.  The peel finds every row with a single nonzero at
once: e_j is then in the row space, so j is a pivot column and e_j its
reduced row.  Such columns leave every row, which may leave new rows
with a single nonzero, and the peel repeats until none is left.  The
rows still nonzero make the core, reduced one pivot column at a time
over the columns still nonzero; only rows with an entry in the pivot
column change, each by M[o, j] / M[r, j] times the pivot row, and a
pivot row is scaled to a leading 1 once, at the end.  The reduced
matrix is unique, so the rows of both stages, merged by pivot column,
are the whole reduction.  This is structured Gaussian elimination
(LaMacchia and Odlyzko, "Solving large sparse linear systems over
finite fields", CRYPTO '90): the models' matrices are nearly monomial,
and their reductions are mostly peeled.
"""

import numpy as np

from .gf import TABLE_M, _exp_log

_TERMS = 1 << 16      # product terms per pass, 512 KB
_TABLES = {}          # _field_tables' cache; perfbench's layer trace reads it


def _table_arrays(tables):
    """gf._exp_log's (exp, log) as int64 arrays with a zero tail.

    exp keeps its 2(q - 1) entries and gains 2(q - 1) + 1 zeros, and
    log[0] = 2(q - 1) points at the first of them: a sum of two logs
    with a zero among the operands, and log a - log b + q - 1 with
    a = 0, lands in the tail and reads 0, so no product or quotient
    needs a mask for its zeros.  The tail is never written, and reading
    pages that np.zeros mapped lazily does not make them resident, so
    at m = 16 its 1 MB does not show in peak RSS.
    """
    exp, log = tables
    n = len(exp)
    out = np.zeros(2 * n + 1, dtype=np.int64)
    out[:n] = exp
    log = np.array(log, dtype=np.int64)
    log[0] = n
    return out, log


def _table_mul(tables, a, b):
    """Entrywise product of two broadcastable mask arrays by (exp, log)."""
    exp, log = tables
    return exp[log[a] + log[b]]


def _field_tables(spec):
    """The cached tables of spec's entrywise arithmetic: (exp, log) int64
    arrays (see _table_arrays) for m <= TABLE_M, a _tower.Tower above."""
    key = (spec.m, spec.modulus)
    t = _TABLES.get(key)
    if t is None:
        if spec.m <= TABLE_M:
            t = _table_arrays(_exp_log(*key))
        else:
            # imported here, so runs over smaller fields never compile it
            from ._tower import Tower
            t = Tower(spec)
        _TABLES[key] = t
    return t


def _mul_arrays(spec, a, b):
    """Entrywise field product of two broadcastable mask arrays."""
    t = _field_tables(spec)
    if spec.m <= TABLE_M:
        return _table_mul(t, a, b)
    return t.mul(a, b)


def _div_arrays(spec, a, b):
    """Entrywise a / b of two broadcastable mask arrays, b nonzero."""
    t = _field_tables(spec)
    if spec.m > TABLE_M:
        return t.mul(a, t.inv(b))
    exp, log = t
    # the brackets keep a scalar b's part scalar
    return exp[log[a] + (spec.order - 1 - log[b])]


def _inv_mask(spec, mask):
    """1 / mask, for a nonzero mask or entrywise for an array of them."""
    array = isinstance(mask, np.ndarray)
    if not (mask.all() if array else mask):
        raise ZeroDivisionError("inverting zero")
    t = _field_tables(spec)
    if spec.m <= TABLE_M:
        exp, log = t
        out = exp[spec.order - 1 - log[mask]]
    else:
        out = t.inv(mask)
    return out if array else int(out)


def _nonzeros(a):
    """Row and column indices of a's nonzeros, in row-major order."""
    # the flat nonzeros of a boolean array: np.nonzero of an int64
    # matrix takes several times as long
    return np.divmod((a != 0).ravel().nonzero()[0], a.shape[1])


def _run_starts(keys):
    """Indices where a run of equal sorted keys starts."""
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


def _gather_product(spec, a, b):
    """a @ b from the nonzeros of a: each a[i, l] times row l of b, the
    rows of one i XORed together.

    The nonzeros go in row-major runs of at most _TERMS // cols(b), so
    the temporaries stay in cache; a row split between two runs gets
    both partial sums.
    """
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    i, l = _nonzeros(a)
    step = max(1, _TERMS // max(b.shape[1], 1))
    for lo in range(0, i.size, step):
        ii, ll = i[lo:lo + step], l[lo:lo + step]
        terms = _mul_arrays(spec, a[ii, ll, None], b[ll])
        starts = _run_starts(ii)
        out[ii[starts]] ^= np.bitwise_xor.reduceat(terms, starts, axis=0)
    return out


def _pair_product(spec, a, b, anz, bnz):
    """a @ b from the pairs of nonzeros a[i, l], b[l, c], given
    anz = _nonzeros(a) and bnz = _nonzeros(b): each pair's product is
    keyed by i * cols(b) + c, and the products of one key are XORed
    together after sorting the keys.

    The nonzeros of a go in order, each with the nonzeros of b's row l,
    in runs of at most _TERMS pairs (a nonzero of a with more pairs
    takes a run of its own), so the temporaries stay in cache whatever
    the size.
    """
    rows, cols = a.shape[0], b.shape[1]
    out = np.zeros(rows * cols, dtype=np.int64)
    i, l = anz
    bl, c = bnz
    av, bv = a[i, l], b[bl, c]
    per_row = np.bincount(bl, minlength=b.shape[0])
    reps = per_row[l]                     # pairs of each nonzero of a
    ends = np.cumsum(reps)
    # the p-th pair, counting over all pairs, of the k-th nonzero of a
    # takes the (first[k] + p)-th nonzero of b
    first = (np.cumsum(per_row) - per_row)[l] - (ends - reps)
    lo = 0
    while lo < l.size:
        done = ends[lo] - reps[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, done + _TERMS, "right")))
        k = np.repeat(np.arange(lo, hi), reps[lo:hi])
        lo = hi
        if not k.size:
            continue
        j = np.arange(done, done + k.size) + first[k]
        key = i[k] * cols + c[j]
        order = np.argsort(key)
        key = key[order]
        terms = _mul_arrays(spec, av[k[order]], bv[j[order]])
        starts = _run_starts(key)
        out[key[starts]] ^= np.bitwise_xor.reduceat(terms, starts)
    return out.reshape(rows, cols)


def _eliminate(spec, a):
    """The row reduction of a, unscaled: (pivot column mask, the core's
    pivot rows and their pivot columns, or None, None if it has none).

    The peel takes the pivot columns of the rows with a single nonzero
    and drops them from the nonzeros of every row, until no such row
    is left; the core is a's other nonzero rows with those columns
    zeroed, reduced in place over the columns still nonzero.  Its pivot
    rows come out in pivot order, zero at every other pivot column.
    """
    ii, jj = _nonzeros(a)
    count = np.bincount(ii, minlength=a.shape[0])
    single = count[ii] == 1         # the nonzeros of one-entry rows
    pivot = np.zeros(a.shape[1], dtype=bool)
    while np.count_nonzero(single):
        pivot[jj[single]] = True
        keep = ~pivot[jj]
        ii, jj = ii[keep], jj[keep]
        count = np.bincount(ii, minlength=a.shape[0])
        single = count[ii] == 1
    M = a[count.nonzero()[0]]
    M[:, pivot] = 0
    live = np.zeros(a.shape[1], dtype=bool)
    live[jj] = True
    # pivot rows stay where they are: a column's pivot is its first row
    # with an entry that is not yet a pivot row
    free = [True] * M.shape[0]
    piv, top = [], []
    for j in live.nonzero()[0].tolist():
        if len(top) == M.shape[0]:
            break
        hit = M[:, j].nonzero()[0]
        for r in hit.tolist():
            if free[r]:
                break
        else:
            continue
        free[r] = False
        if hit.size > 1:
            others = hit[hit != r]
            f = _div_arrays(spec, M[others, j], M[r, j])
            M[others, j:] ^= _mul_arrays(spec, f[:, None], M[r, j:])
        piv.append(j)
        top.append(r)
    if not top:
        return pivot, None, None
    piv = np.array(piv)
    pivot[piv] = True
    return pivot, M[top], piv


class Matrix:
    """An exact matrix over GF(2^m), entries stored as masks."""

    __slots__ = ("spec", "a")

    def __init__(self, spec, arr):
        self.spec = spec
        self.a = np.ascontiguousarray(arr, dtype=np.int64)
        assert self.a.ndim == 2

    @classmethod
    def zeros(cls, spec, rows, cols):
        return cls(spec, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, spec, n):
        return cls(spec, np.eye(n, dtype=np.int64))

    @classmethod
    def scalar(cls, spec, n, c):
        return cls(spec, np.eye(n, dtype=np.int64) * c.mask)

    @classmethod
    def assemble(cls, spec, row_dims, col_dims, blocks):
        """Block matrix from {(i, j): Matrix}; absent blocks are zero."""
        roff = np.concatenate(([0], np.cumsum(row_dims)))
        coff = np.concatenate(([0], np.cumsum(col_dims)))
        out = np.zeros((int(roff[-1]), int(coff[-1])), dtype=np.int64)
        for (i, j), blk in blocks.items():
            r0, c0 = roff[i], coff[j]
            assert blk.a.shape == (row_dims[i], col_dims[j])
            out[r0:r0 + row_dims[i], c0:c0 + col_dims[j]] = blk.a
        return cls(spec, out)

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

    @property
    def shape(self):
        return self.a.shape

    def element(self, i, j):
        return self.spec.element(int(self.a[i, j]))

    def __add__(self, other):
        assert self.shape == other.shape
        return Matrix(self.spec, self.a ^ other.a)

    def __matmul__(self, other):
        assert self.cols == other.rows
        spec, a, b = self.spec, self.a, other.a
        anz, bnz = _nonzeros(a), _nonzeros(b)
        # gathered from the side with fewer terms; one pair per a[i, l]
        # and nonzero of b's row l.  A pair costs a few gathered terms,
        # and the pair product's set-up a few hundred.
        gather_a = anz[0].size * b.shape[1]
        gather_b = bnz[0].size * a.shape[0]
        pairs = (np.bincount(anz[1], minlength=a.shape[1])
                 @ np.bincount(bnz[0], minlength=b.shape[0]))
        if 16 * pairs + 512 < min(gather_a, gather_b):
            return Matrix(spec, _pair_product(spec, a, b, anz, bnz))
        if gather_a <= gather_b:
            return Matrix(spec, _gather_product(spec, a, b))
        return Matrix(spec, _gather_product(spec, b.T, a.T).T)

    def scale(self, c):
        return Matrix(self.spec,
                      _mul_arrays(self.spec, np.int64(c.mask), self.a))

    def transpose(self):
        return Matrix(self.spec, self.a.T)

    def is_zero(self):
        return not self.a.any()

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.shape == other.shape
                and bool((self.a == other.a).all()))

    def copy(self):
        return Matrix(self.spec, self.a.copy())

    def to_mask_rows(self):
        return [[int(v) for v in row] for row in self.a]

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over GF(2^{self.spec.m}))"

    # -- elimination ------------------------------------------------

    def rank(self):
        return int(np.count_nonzero(_eliminate(self.spec, self.a)[0]))

    def rref(self):
        """(reduced matrix, pivot column list), over the field."""
        spec = self.spec
        pivot, top, core_piv = _eliminate(spec, self.a)
        piv = pivot.nonzero()[0]
        R = np.zeros(self.shape, dtype=np.int64)
        R[np.arange(piv.size), piv] = 1
        if top is not None:
            # the core's pivot rows, scaled to a leading 1, in their
            # places among the peeled unit rows
            lead = top[np.arange(core_piv.size), core_piv]
            R[piv.searchsorted(core_piv)] = _div_arrays(spec, top,
                                                        lead[:, None])
        return Matrix(spec, R), piv.tolist()

    def right_nullspace(self):
        """Matrix whose columns form a basis of the kernel."""
        R, piv = self.rref()
        # a mask, not setdiff1d: that sorts through np.unique, which
        # imports numpy.ma on its first call
        free = np.ones(self.cols, dtype=bool)
        free[piv] = False
        free = np.flatnonzero(free)
        out = np.zeros((self.cols, free.size), dtype=np.int64)
        out[free, np.arange(free.size)] = 1
        out[piv] = R.a[:len(piv), free]
        return Matrix(self.spec, out)


def jordan_block(spec, n, mu):
    """Upper triangular Jordan block with eigenvalue mu."""
    arr = np.eye(n, dtype=np.int64) * mu.mask
    arr ^= np.eye(n, k=1, dtype=np.int64)
    return Matrix(spec, arr)


# ---------------------------------------------------------------------------
# subspaces, represented by matrices whose columns span them

def hstack(mats):
    assert mats
    spec = mats[0].spec
    return Matrix(spec, np.concatenate([m.a for m in mats], axis=1))


def vstack(mats):
    assert mats
    spec = mats[0].spec
    return Matrix(spec, np.concatenate([m.a for m in mats], axis=0))


def col_basis(M):
    """(B, rows): the canonical basis B of the column space (rref rows,
    transposed) and its pivot rows, where B is the identity."""
    R, piv = M.transpose().rref()
    return Matrix(M.spec, R.a[:len(piv)].T.copy()), piv


def equations_of(S):
    """Rows e with e @ S = 0; the column space is their kernel."""
    return S.transpose().right_nullspace().transpose()


def preimage_space(f, S):
    """A basis of {x : f x in colspace(S)}."""
    E = equations_of(S)
    if E.rows == 0:
        return Matrix.identity(f.spec, f.cols)
    return (E @ f).right_nullspace()


def coords_at_pivots(B, rows, vecs):
    """Solve B @ X = vecs for a col_basis (B, rows) and columns vecs in
    its span: X is vecs at the pivot rows, where B is the identity.  The
    span is not checked; the callers' columns lie in it by construction."""
    return Matrix(B.spec, vecs.a[rows])


def coords_in_basis(B, vecs):
    """Solve B @ X = vecs for X; raises if some column is outside."""
    aug = hstack([B, vecs])
    R, piv = aug.rref()
    if any(p >= B.cols for p in piv):
        raise ValueError("vector outside the spanning set")
    out = np.zeros((B.cols, vecs.cols), dtype=np.int64)
    out[piv] = R.a[:len(piv), B.cols:]
    return Matrix(B.spec, out)
