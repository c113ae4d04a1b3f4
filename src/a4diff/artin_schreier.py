"""Artin-Schreier reduction to odd-pole-order standard form.

A substitution alpha -> alpha - (h^2 - h) does not change the degree-two
cover defined by u^2 - u = alpha, so we may normalize alpha.  The form
fixed here: every pole has odd order, and the polynomial part carries only
odd-exponent monomials and no constant term.  Principal-part coefficients
below the leading term at finite poles are left untouched; they carry
local data the branch analysis reads directly.

In trace-zero mode the reducer h is assembled from complete rho-orbits so
that Tr(h) = Tr(h^2) = 0, keeping the reduced alpha inside the trace-zero
locus.  This works because the trace-zero condition on alpha ties the
order-e principal coefficients b_e at the three orbit points psi, zeta
psi, zeta^2 psi together: b_{psi,e} + zeta^{-e} b_{zeta psi,e} +
zeta^{-2e} b_{zeta^2 psi,e} = 0, and the square root of that relation is
the same relation for the order-e/2 legs of h.
"""

from __future__ import annotations

from .gf import FieldElement, FieldSpec
from .ratlaurent import Place, RatFunc, trace_K_over_J


class ASForm:
    """A reduced datum: alpha_reduced = alpha - (h^2 - h) - dropped_constant.

    dropped_constant is zero unless the constant term of alpha's polynomial
    part has no preimage under x -> x^2 + x in the working field; over an
    algebraically closed field it would always be absorbable into h, so we
    record it instead of failing.
    """

    __slots__ = ("alpha_reduced", "h", "pole_table", "dropped_constant")

    def __init__(self, alpha_reduced: RatFunc, h: RatFunc,
                 pole_table: dict[Place, int], dropped_constant: FieldElement):
        self.alpha_reduced = alpha_reduced
        self.h = h
        self.pole_table = dict(pole_table)
        self.dropped_constant = dropped_constant

    def to_json(self) -> dict:
        return {
            "alpha_reduced": self.alpha_reduced.to_json(),
            "h": self.h.to_json(),
            "pole_table": {pl.key(): p for pl, p in sorted(
                self.pole_table.items(), key=lambda kv: kv[0].key())},
            "dropped_constant": self.dropped_constant.mask,
        }

    def __repr__(self):
        return f"ASForm(poles={ {pl.key(): p for pl, p in self.pole_table.items()} })"


def _inv_linear_power(spec: FieldSpec, value: FieldElement, f: int) -> RatFunc:
    """1/(s - value)^f."""
    num = RatFunc.constant(spec.one())
    lin = RatFunc.from_coeff_masks(spec, [value.mask, 1], [1])
    for _ in range(f):
        num = num / lin
    return num


def _polynomial_part(f: RatFunc):
    q, _ = f.num.divmod(f.den)
    return q


def _even_legs(work: RatFunc, poles: dict[Place, int]) -> RatFunc:
    """Square roots of the even-exponent terms slated for cancellation.
    poles is work.poles(), and the legs' poles are among them.

    Covers: every even-exponent monomial of the polynomial part, the
    leading term of the pole at 0 when its order is even, and, per
    rho-orbit of finite poles, the order-e coefficients at all three orbit
    points for e = the largest even order that is the leading order of
    some orbit member.  Grouping whole orbits at a common order is what
    keeps the legs trace-compatible.
    """
    spec = work.spec
    zeta = spec.zeta()
    legs = RatFunc.zero(spec)

    q = _polynomial_part(work)
    for e in range(2, q.degree + 1, 2):
        mask = q.coeffs[e] if e < len(q.coeffs) else 0
        if mask:
            root = spec.element(mask).sqrt()
            legs = legs + RatFunc.constant(root) * RatFunc.monomial(spec, e // 2)

    zero_place = Place.zero(spec)
    p0 = poles.get(zero_place, 0)
    if p0 and p0 % 2 == 0:
        lead = work.laurent_at(zero_place, 1).coeffs[0]
        legs = legs + RatFunc.constant(lead.sqrt()) * RatFunc.monomial(spec, -(p0 // 2))

    finite = {pl.value.mask: p for pl, p in poles.items()
              if not pl.is_infinity() and pl.value.mask != 0}
    seen = set()
    for mask in sorted(finite):
        if mask in seen:
            continue
        y = spec.element(mask)
        orbit = [y, zeta * y, zeta * zeta * y]
        seen.update(v.mask for v in orbit)
        trigger = 0
        for v in orbit:
            p = finite.get(v.mask, 0)
            if p % 2 == 0 and p > trigger:
                trigger = p
        if trigger == 0:
            continue
        for v in orbit:
            p = finite.get(v.mask, 0)
            if p < trigger:
                continue
            chunk = work.laurent_at(Place.finite(v), p)
            coeff = chunk.coeffs[p - trigger]
            if coeff.mask:
                legs = legs + RatFunc.constant(coeff.sqrt()) * _inv_linear_power(
                    spec, v, trigger // 2)
    return legs


def _reduce_core(alpha: RatFunc):
    # legs have poles at poles of work: later passes split at alpha's roots
    spec = alpha.spec
    work = alpha
    h = RatFunc.zero(spec)
    poles = work.poles()
    roots = {pl.value.mask for pl in poles if not pl.is_infinity()}
    while True:
        legs = _even_legs(work, poles)
        if legs.is_zero():
            break
        den = work.den
        work = work + legs.square() + legs
        h = h + legs
        if work.den == den:
            # work is in lowest terms, so the same denominator has the
            # same finite poles: only the order at infinity is read again
            poles.pop(Place.infinity(), None)
            deficit = work.num.degree - den.degree
            if deficit > 0:
                poles = {Place.infinity(): deficit, **poles}
        else:
            poles = work.poles(roots)
    dropped = spec.zero()
    q = _polynomial_part(work)
    c0 = q.coeffs[0] if q.degree >= 0 else 0
    if c0:
        const = spec.element(c0)
        work = work + RatFunc.constant(const)
        root = spec.artin_schreier_root(const)
        if root is not None:
            h = h + RatFunc.constant(root)
        else:
            dropped = const
    # a constant moves no pole: the last pass's table is reduced's
    return work, h, dropped, poles


def _check_standard_form(reduced: RatFunc, pole_table: dict[Place, int]):
    """Refuse a reduction left off standard form; pole_table is reduced's."""
    if any(p % 2 == 0 for p in pole_table.values()):
        raise AssertionError("reduction left an even pole order")
    if any(_polynomial_part(reduced).coeffs[::2]):
        raise AssertionError("reduction left an even polynomial term")


def as_reduce(alpha: RatFunc) -> ASForm:
    """Reduce alpha to standard form; poles must split over the field."""
    reduced, h, dropped, pole_table = _reduce_core(alpha)
    _check_standard_form(reduced, pole_table)
    return ASForm(reduced, h, pole_table, dropped)


def check_a4_conditions(alpha: RatFunc) -> ASForm:
    """Admit alpha as an alternating-four datum and return its reduction.

    Needs: Tr(alpha) = 0, and nontriviality of alpha, rho alpha, and
    alpha + rho alpha, so that the three degree-two subcovers are distinct.
    rho is a k-automorphism of k(s), so rho alpha = xi^2 - xi is solvable
    exactly when alpha is.  When Tr(alpha) = 0, alpha + rho alpha =
    rho^2 alpha, so the sum is trivial exactly when alpha is: one trace
    and one reduction decide all four.  alpha is reduced before a nonzero
    trace is refused, so poles that do not split are reported first.
    Constants count as trivial even when x^2 + x = c has no root in the
    working field; geometrically the base is algebraically closed.
    """
    trace_zero = trace_K_over_J(alpha).is_zero()
    form = as_reduce(alpha)
    if not trace_zero:
        raise ValueError(
            "trace nonzero: the datum needs Tr(alpha) = 0 over the "
            "rational subfield")
    if form.alpha_reduced.is_zero():
        raise ValueError(
            "trivial datum: alpha = xi^2 - xi is solvable; the cover "
            "needs all three conditions alpha != xi^2 - xi")
    return form


def symmetrize_h(alpha: RatFunc) -> ASForm:
    """Reduce an admissible alpha keeping Tr(h) = Tr(h^2) = 0.

    alpha is admitted and reduced by check_a4_conditions; the trace-zero
    grouping lives in _even_legs, and the relations it should keep are
    checked here.  h^2 is not traced: rho is a field automorphism in
    characteristic 2, so Tr(h^2) = Tr(h)^2.
    """
    form = check_a4_conditions(alpha)
    if form.dropped_constant.mask:
        raise AssertionError("trace-zero input produced a constant")
    # each function once; Tr(alpha) = Tr(0) = 0 (h = 0 when alpha is
    # already reduced, and then alpha_reduced = alpha)
    checks = {form.h, form.alpha_reduced}
    for f in checks - {alpha, RatFunc.zero(alpha.spec)}:
        if not trace_K_over_J(f).is_zero():
            raise AssertionError("reduction left the trace-zero locus")
    return form
