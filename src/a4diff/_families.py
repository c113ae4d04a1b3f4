"""Parametric input families with known invariants.

Three families of trace-zero data, used by the command-line examples
mode and throughout the test-suite.

* hkg_alpha(spec, n, x): a polynomial datum whose only branch point is
  infinity, so the cover is a Harbater-Katz-Gabber cover.  x in {1, 2}.
* degenerate_orbit_alpha(spec, n): one finite orbit with unequal pole
  orders (m = 4n - 3 < M = 4n - 1) plus a branch point at infinity;
  the orbit class is Degenerate.
* generic_orbit_alpha(spec, n, psi): one finite orbit with equal odd
  orders 4n + 1 and a free parameter psi; the orbit class is Generic
  with band parameter psi^3.  psi must avoid 0 and the cube roots of
  unity.
"""

from .gf import _mask_mul
from .ratlaurent import Poly, RatFunc


def _binomial_power(spec, a, c, e):
    """(s^a + c)^e as the product of s^(a 2^j) + c^(2^j) over the set bits
    j of e: squaring is additive in characteristic 2."""
    out = Poly(spec, (1,))
    for j in range(e.bit_length()):
        if e >> j & 1:
            out = out * Poly(spec, (c,) + (0,) * (a - 1) + (1,))
        a, c = 2 * a, _mask_mul(spec, c, c)
    return out


def hkg_alpha(spec, n, x):
    """s^((32n - 2r + 4)x - 3) (s^(16x) + 1) with r = n mod 3."""
    if n < 1 or x not in (1, 2):
        raise ValueError("family parameters out of range")
    r = n % 3
    e = (32 * n - 2 * r + 4) * x - 3
    coeffs = [0] * (e + 16 * x + 1)
    coeffs[e] = 1
    coeffs[e + 16 * x] = 1
    return RatFunc.from_poly(Poly(spec, coeffs))


def degenerate_orbit_alpha(spec, n):
    """zeta s^(12n+2) / ((s-1)^(4n-1) (s-zeta)^(4n-3) (s-zeta^2)^(4n-1))."""
    if n < 1:
        raise ValueError("family parameters out of range")
    z = spec.zeta()
    num = Poly(spec, [0] * (12 * n + 2) + [z.mask])
    den = _binomial_power(spec, 1, 1, 4 * n - 1)
    den = den * _binomial_power(spec, 1, z.mask, 4 * n - 3)
    den = den * _binomial_power(spec, 1, (z * z).mask, 4 * n - 1)
    return RatFunc(num, den)


def generic_orbit_alpha(spec, n, psi):
    """psi^(3(4n+1)) s^(12n+2) (s^2 + 1) / (s^3 + psi^3)^(4n+1)."""
    if n < 1:
        raise ValueError("family parameters out of range")
    if not psi or psi ** 3 == spec.one():
        raise ValueError("psi must avoid 0 and the cube roots of unity")
    p3 = psi ** 3
    scale = (p3 ** (4 * n + 1)).mask
    coeffs = [0] * (12 * n + 5)
    coeffs[12 * n + 2] = scale
    coeffs[12 * n + 4] = scale
    num = Poly(spec, coeffs)
    den = _binomial_power(spec, 3, p3.mask, 4 * n + 1)
    return RatFunc(num, den)
