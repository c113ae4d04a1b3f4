"""GF(2^m) above gf.TABLE_M as a quadratic tower over GF(2^(m/2)).

The matrix kernel's entrywise arithmetic at even m from 18 to 32: the
subfield's direct exp/log tables hold 3 * 2^(m/2) entries, 1.5 MB at
m = 32, where direct tables of the field would hold 3 * 2^m.  These are
the composite-field log tables of De Win, Bosselaers, Vandenberghe, De
Gersem and Vandewalle, "A fast software implementation for arithmetic
operations in GF(2^n)", ASIACRYPT 1996.  _linalg._field_tables imports
this module only for such a field, since every run compiles what it
imports.
"""

import numpy as np

from ._linalg import _table_arrays, _table_mul
from .gf import (_byte_tables, _exp_log, _gf2_pivots, _gf2_solve, _pmulmod,
                 _ppowmod, _primitive)


def _byte_map(tables, x):
    """The GF(2)-linear map of _byte_tables, entrywise on mask arrays."""
    out = tables[0][x & 255]
    for i in range(1, len(tables)):
        out = out ^ tables[i][x >> 8 * i & 255]
    return out


class Tower:
    """GF(2^m), m = 2k, as K[w]/(w^2 + w + gamma), K = GF(2^k).

    The basis is found inside the field with the scalar layer.  K is the
    subfield of order 2^k, generated by beta = g^((2^m - 1)/(2^k - 1))
    for the primitive g; its modulus is beta's minimal polynomial, read
    off the tower coordinates of beta^k, and k is odd for m = 18, 22, 26
    and 30, so K is no FieldSpec.  gamma = beta^i is the first basis
    element of absolute trace 1 and w = artin_schreier_root(gamma), so
    w is not in K.  A tower element a0 + a1 w is the mask a0 | a1 << k
    over the basis beta^i, beta^i w (i < k); masks of the field cross to
    it and back by byte tables, so arrays outside stay in the polynomial
    basis.

    A product is three K products (Karatsuba) and one by gamma, a table:
    (a0 + a1 w)(b0 + b1 w)
        = (a0 b0 + gamma a1 b1) + ((a0 + a1)(b0 + b1) + a0 b0) w.
    An inverse divides the conjugate a0 + a1 + a1 w by the norm
    a0^2 + a0 a1 + gamma a1^2, which is in K.
    """

    def __init__(self, spec):
        m, f = spec.m, spec.modulus
        k = self.k = m // 2
        beta = _ppowmod(_primitive(m, f), ((1 << m) - 1) // ((1 << k) - 1),
                        f)
        powers = [1]
        for _ in range(k):
            powers.append(_pmulmod(powers[-1], beta, f))
        for i in range(k):      # the trace is 1 on some basis element
            trace = h = powers[i]
            for _ in range(k - 1):
                h = _pmulmod(h, h, f)
                trace ^= h
            if trace == 1:
                break
        w = spec.artin_schreier_root(spec.element(powers[i])).mask
        images = powers[:k] + [_pmulmod(p, w, f) for p in powers[:k]]
        pivots = _gf2_pivots(images)
        self.from_tower = [np.array(t, dtype=np.int64)
                           for t in _byte_tables(images)]
        self.to_tower = [np.array(t, dtype=np.int64) for t in _byte_tables(
            [_gf2_solve(pivots, 1 << j) for j in range(m)])]
        # uncached: no scalar reads K's tables, so they are freed once
        # copied; kept, they would add 1.8 MB to peak RSS at m = 32
        self.K = _table_arrays(_exp_log.__wrapped__(
            k, (1 << k) | int(_byte_map(self.to_tower, powers[k]))))
        self.gamma = _table_mul(self.K, 1 << i, np.arange(1 << k))

    def mul(self, a, b):
        """Entrywise product of two broadcastable mask arrays."""
        k, K = self.k, self.K
        lo = (1 << k) - 1
        a = _byte_map(self.to_tower, a)
        b = _byte_map(self.to_tower, b)
        a0, a1, b0, b1 = a & lo, a >> k, b & lo, b >> k
        p0 = _table_mul(K, a0, b0)
        p1 = _table_mul(K, a1, b1)
        p2 = _table_mul(K, a0 ^ a1, b0 ^ b1)
        return _byte_map(self.from_tower,
                         (p0 ^ self.gamma[p1]) | ((p2 ^ p0) << k))

    def inv(self, a):
        """Entrywise inverse of nonzero masks."""
        k, K = self.k, self.K
        a = _byte_map(self.to_tower, a)
        a0, a1 = a & ((1 << k) - 1), a >> k
        s = a0 ^ a1
        norm = _table_mul(K, a0, s) ^ self.gamma[_table_mul(K, a1, a1)]
        exp, log = K
        ninv = exp[(1 << k) - 1 - log[norm]]
        return _byte_map(self.from_tower,
                         _table_mul(K, s, ninv) | (_table_mul(K, a1, ninv)
                                                   << k))
