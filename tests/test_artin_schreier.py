import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from a4diff import artin_schreier, ratlaurent
from a4diff._families import (degenerate_orbit_alpha, generic_orbit_alpha,
                              hkg_alpha)
from a4diff.cli import run_cli
from a4diff.gf import FieldSpec
from a4diff.ratlaurent import Place, RatFunc, trace_K_over_J
from a4diff.artin_schreier import (
    ASForm, as_reduce, check_a4_conditions, symmetrize_h,
)

from helpers import (eval_at, is_constant, random_trace_zero_alpha,
                     reference_check_a4_conditions)

F = FieldSpec(m=8)
Z = F.zeta()


def mono(e):
    return RatFunc.monomial(F, e)


def const(c):
    return RatFunc.constant(c)


def lin(c):
    return RatFunc.from_coeff_masks(F, [c.mask, 1], [1])


def inv_pow(c, f):
    out = const(F.one())
    for _ in range(f):
        out = out / lin(c)
    return out


def roundtrip_ok(alpha, form):
    back = form.alpha_reduced + form.h.square() + form.h + const(form.dropped_constant)
    return back == alpha


def test_reduce_square():
    form = as_reduce(mono(2))
    assert form.alpha_reduced == mono(1)
    assert form.h == mono(1)
    assert form.dropped_constant.mask == 0


def test_reduce_fixed_point():
    alpha = mono(47) + mono(31)
    form = as_reduce(alpha)
    assert form.h.is_zero()
    assert form.alpha_reduced == alpha
    assert form.pole_table == {Place.infinity(): 47}


def test_reduce_trivial_input():
    g = mono(3) + mono(1)
    alpha = g.square() + g
    form = as_reduce(alpha)
    assert form.alpha_reduced.is_zero()
    assert form.h == g
    assert form.pole_table == {}


def test_reduce_even_pole_at_zero():
    form = as_reduce(mono(-2))
    assert form.alpha_reduced == mono(-1)
    assert form.h == mono(-1)


def test_reduce_absorbs_solvable_constant():
    # x^2 + x = c solvable for half the field elements
    root = F.element(3)
    c = root * root + root
    assert c.mask != 0
    form = as_reduce(mono(3) + const(c))
    assert form.alpha_reduced == mono(3)
    assert form.dropped_constant.mask == 0
    assert is_constant(form.h) and \
        eval_at(form.h, F.zero()) in (root, root + F.one())


def test_reduce_drops_unsolvable_constant():
    c = next(F.element(m) for m in range(1, 256)
             if F.artin_schreier_root(F.element(m)) is None)
    form = as_reduce(mono(3) + const(c))
    assert form.alpha_reduced == mono(3)
    assert form.dropped_constant == c
    assert form.h.is_zero()


def test_pole_table_orders():
    a = F.element(9)
    alpha = inv_pow(a, 3) + mono(5)
    form = as_reduce(alpha)
    assert form.pole_table[Place.finite(a)] == 3
    assert form.pole_table[Place.infinity()] == 5


def test_symmetrize_rejects_nonzero_trace():
    with pytest.raises(ValueError, match="trace nonzero"):
        symmetrize_h(mono(3))


def test_symmetrize_fixed_point():
    alpha = mono(47) + mono(31)
    form = symmetrize_h(alpha)
    assert form.h.is_zero()
    assert trace_K_over_J(form.alpha_reduced).is_zero()


def example3_alpha(n, psi):
    p = 4 * n + 1
    c = psi ** (3 * p)
    num = mono(12 * n + 2) * (mono(2) + const(F.one()))
    den = const(F.one())
    cube = mono(3) + const(psi ** 3)
    for _ in range(p):
        den = den * cube
    return const(c) * num / den


def test_symmetrize_example3_already_standard():
    psi = F.element(7)
    alpha = example3_alpha(1, psi)
    form = symmetrize_h(alpha)
    assert form.h.is_zero()
    expected = {
        Place.infinity(): 1,
        Place.finite(psi): 5,
        Place.finite(Z * psi): 5,
        Place.finite(Z * Z * psi): 5,
    }
    assert form.pole_table == expected


def test_symmetrize_grouped_orbit_reduction():
    # poles of even order 4 at two of the three orbit points
    b = F.element(5)
    w = inv_pow(b, 4).scale(F.element(77))
    alpha = w + w.rho_pullback()
    assert trace_K_over_J(alpha).is_zero()
    form = symmetrize_h(alpha)
    assert roundtrip_ok(alpha, form)
    assert all(p % 2 == 1 for p in form.pole_table.values())
    assert trace_K_over_J(form.h).is_zero()


def is_trivial(alpha):
    return as_reduce(alpha).alpha_reduced.is_zero()


def test_is_trivial():
    assert is_trivial(mono(2) + mono(1))
    assert not is_trivial(mono(47) + mono(31))
    assert is_trivial(const(F.one()))
    assert is_trivial(RatFunc.zero(F))


def test_check_a4_example1():
    alpha = mono(47) + mono(31)
    assert check_a4_conditions(alpha).to_json() == as_reduce(alpha).to_json()


def test_check_a4_bad_trace():
    with pytest.raises(ValueError, match="^trace nonzero"):
        check_a4_conditions(mono(3))


def test_check_a4_trivial_alpha():
    with pytest.raises(ValueError, match="^trivial datum"):
        check_a4_conditions(mono(2) + mono(1))


def random_ratfunc(draw_masks, pole_masks, exps):
    """Numerator from masks over a denominator of split linear factors."""
    num = RatFunc.from_coeff_masks(F, draw_masks or [1], [1])
    den = const(F.one())
    for mask, e in zip(pole_masks, exps):
        for _ in range(e):
            den = den * lin(F.element(mask))
    return num / den


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=9),
       st.lists(st.integers(0, 255), min_size=0, max_size=2, unique=True),
       st.lists(st.integers(1, 4), min_size=2, max_size=2))
def test_reduce_roundtrip_random(numc, poles, exps):
    alpha = random_ratfunc(numc, poles, exps)
    form = as_reduce(alpha)
    assert roundtrip_ok(alpha, form)
    assert all(p % 2 == 1 for p in form.pole_table.values())
    again = as_reduce(form.alpha_reduced)
    assert again.h.is_zero()
    assert again.alpha_reduced == form.alpha_reduced


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=6),
       st.integers(2, 254), st.integers(1, 5),
       st.integers(2, 254), st.integers(1, 4))
def test_symmetrize_properties_random(numc, amask, aexp, gmask, gexp):
    w = RatFunc.from_coeff_masks(F, numc, [1]) * inv_pow(F.element(amask), aexp)
    alpha = w + w.rho_pullback()
    if is_trivial(alpha):
        return
    form = symmetrize_h(alpha)
    assert roundtrip_ok(alpha, form)
    assert trace_K_over_J(form.h).is_zero()
    assert trace_K_over_J(form.h.square()).is_zero()
    assert trace_K_over_J(form.alpha_reduced).is_zero()

    # branch locus (pole set closed under the orbit map) is {0, inf} plus
    # full orbits of size three
    finite = [pl for pl in form.pole_table if not pl.is_infinity()
              and not pl.is_zero()]
    closure = set()
    for pl in finite:
        closure.update((pl.value.mask, (Z * pl.value).mask, (Z * Z * pl.value).mask))
    assert len(closure) % 3 == 0

    # special-point pole orders avoid multiples of three
    if Place.infinity() in form.pole_table:
        assert form.pole_table[Place.infinity()] % 3 != 0
    if Place.zero(F) in form.pole_table:
        assert form.pole_table[Place.zero(F)] % 3 != 0


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 254), st.integers(1, 3), st.integers(0, 255),
       st.integers(2, 254), st.integers(1, 3), st.integers(1, 255))
def test_symmetrize_canonical_under_trivial_shift(amask, aexp, ac,
                                                  bmask, bexp, bc):
    a, b = F.element(amask), F.element(bmask)
    # keep the perturbation's orbit disjoint from alpha's
    if {(Z ** i * a).mask for i in range(3)} & {(Z ** i * b).mask for i in range(3)}:
        return
    v = inv_pow(a, aexp).scale(F.element(ac)) + mono(2).scale(F.element(ac))
    alpha = v + v.rho_pullback()
    if alpha.is_zero():
        return
    g = inv_pow(b, bexp).scale(F.element(bc))
    g = g + g.rho_pullback()
    base = symmetrize_h(alpha)
    shifted = symmetrize_h(alpha + g.square() + g)
    assert shifted.alpha_reduced == base.alpha_reduced


def _precheck_cases():
    spec12 = FieldSpec(m=12)
    rnd = random.Random(7)
    cases = [hkg_alpha(F, 2, 2), degenerate_orbit_alpha(F, 4),
             generic_orbit_alpha(spec12, 1, spec12.element(19)),
             mono(3), mono(2) + mono(1), mono(47) + mono(31),
             const(F.one()), RatFunc.zero(F)]
    for _ in range(12):
        g = random_trace_zero_alpha(rnd, F)
        cases.append(g)                      # trace zero
        cases.append(g.square() + g)         # trace zero and trivial
        w = RatFunc.from_coeff_masks(
            F, [rnd.randrange(256) for _ in range(rnd.randint(1, 6))], [1])
        cases.append(g + w)                  # mostly of nonzero trace
        cases.append(w * inv_pow(F.element(rnd.randrange(2, 256)),
                                 rnd.randint(1, 4)))
    return cases


def test_check_a4_flags_match_three_reductions():
    seen = set()
    for alpha in _precheck_cases():
        ref = reference_check_a4_conditions(alpha)
        seen.add(tuple(ref))
        # at trace zero the rho alpha and sum conditions are alpha's
        if ref.trace_zero:
            assert ref.nontrivial_alpha == ref.nontrivial_rho_alpha \
                == ref.nontrivial_sum
        if ref.verdict:
            form = check_a4_conditions(alpha)
            assert form.to_json() == as_reduce(alpha).to_json()
            continue
        first = "trace nonzero" if not ref.trace_zero else "trivial datum"
        with pytest.raises(ValueError, match="^" + first):
            check_a4_conditions(alpha)
    # trace zero and nonzero, trivial and not, and a nonzero trace whose
    # alpha + rho alpha is trivial (s^3) all occur
    assert (True, True, True, True, True) in seen
    assert (True, False, False, False, False) in seen
    assert (False, True, True, True, False) in seen
    assert (False, True, True, False, False) in seen


def test_one_job_reduces_alpha_once(monkeypatch, capsys):
    calls = [0]
    reduce_core = artin_schreier._reduce_core

    def counting(alpha):
        calls[0] += 1
        return reduce_core(alpha)

    monkeypatch.setattr(artin_schreier, "_reduce_core", counting)
    for argv, code in (
            (["examples", "--which", "2", "--n", "4", "--m", "8"], 0),
            (["examples", "--which", "1", "--n", "1", "--x", "2"], 0),
            (["analyze", "--alpha", '{"num":[0,0,0,0,0,1],"den":[1]}'], 0),
            # refused for its trace, after the one reduction
            (["analyze", "--alpha", '{"num":[0,0,0,1],"den":[1]}'], 2)):
        calls[0] = 0
        assert run_cli(argv + ["--json"]) == code
        assert calls[0] == 1, argv
    capsys.readouterr()


def test_one_job_searches_each_polynomial_and_traces_each_function_once(
        monkeypatch, capsys):
    # a reduction finds its roots once and splits at them in later passes;
    # alpha is traced on admission, h and alpha_reduced in the checks of
    # symmetrize_h, and nothing downstream traces again
    searched, traced = [], []
    field_roots = ratlaurent.field_roots
    trace = ratlaurent.trace_K_over_J

    def counting_roots(p):
        searched.append(p)
        return field_roots(p)

    def counting_trace(f):
        traced.append(f)
        return trace(f)

    monkeypatch.setattr(ratlaurent, "field_roots", counting_roots)
    monkeypatch.setattr(artin_schreier, "trace_K_over_J", counting_trace)
    for argv in (["examples", "--which", "2", "--n", "4", "--m", "8"],
                 ["examples", "--which", "1", "--n", "1", "--x", "2"],
                 ["analyze", "--alpha", '{"num":[0,0,0,0,0,1],"den":[1]}']):
        searched.clear()
        traced.clear()
        assert run_cli(argv + ["--json"]) == 0
        assert searched and len(set(searched)) == len(searched), argv
        assert traced and len(set(traced)) == len(traced), argv
    capsys.readouterr()


def test_a_reduction_splits_each_denominator_once(monkeypatch, capsys):
    # the same denominator has the same finite poles, so a pass that
    # leaves it unchanged reads only the order at infinity again
    split = []
    poles = ratlaurent.RatFunc.poles

    def counting_poles(f, roots=None):
        split.append(f.den)
        return poles(f, roots)

    monkeypatch.setattr(ratlaurent.RatFunc, "poles", counting_poles)
    assert run_cli(["examples", "--which", "2", "--n", "32", "--m", "8",
                    "--json"]) == 0
    assert split and len(set(split)) == len(split)
    capsys.readouterr()


def test_broken_analysis_is_refused_under_optimisation():
    # python -O strips asserts; the analyze invariants are explicit raises.
    # The child plants broken reductions behind the CLI and builds branch
    # points with impossible pole orders.
    script = """
import a4diff.artin_schreier as a
from a4diff.cli import run_cli
from a4diff.ramification import BranchPoint
from a4diff.ratlaurent import Place, RatFunc
assert False, "asserts are live"
core = a._reduce_core

def even_term(alpha):
    work, h, dropped, poles = core(alpha)
    return work + RatFunc.monomial(alpha.spec, 2), h, dropped, poles

def even_pole(alpha):
    work, h, dropped, poles = core(alpha)
    return work, h, dropped, {pl: 2 * p for pl, p in poles.items()}

def constant(alpha):
    work, h, dropped, poles = core(alpha)
    return work, h, alpha.spec.one(), poles

def traced_h(alpha):
    work, h, dropped, poles = core(alpha)
    return work, h + RatFunc.monomial(alpha.spec, 3), dropped, poles

for broken in (even_term, even_pole, constant, traced_h):
    a._reduce_core = broken
    try:
        run_cli(["analyze", "--alpha", '{"num":[0,0,0,0,0,1],"den":[1]}'])
        print("accepted")
    except AssertionError as exc:
        print(exc)
for p_values in ((2, 3, 3), (3, 5, 7)):
    try:
        BranchPoint(Place.infinity(), p_values, None, 0, None, [])
        print("accepted")
    except AssertionError as exc:
        print(exc)

# the derived relations of the analysis, each planted broken once
from a4diff import decomp
from a4diff._families import generic_orbit_alpha, hkg_alpha
from a4diff.gf import FieldSpec
from a4diff.ramification import Orbit, analyze_branch_data
a._reduce_core = core

def refused(make):
    try:
        make()
        print("accepted")
    except AssertionError as exc:
        print(exc)

F8, F12 = FieldSpec(8), FieldSpec(12)
one_point = analyze_branch_data(hkg_alpha(F8, 1, 1))
bp = one_point.special[0]
refused(lambda: BranchPoint(bp.place, bp.p_values, F8.zeta() * bp.lam,
                            bp.delta, bp.epsilon, bp.theta))
orbit = analyze_branch_data(
    generic_orbit_alpha(F12, 1, F12.element(19))).orbits[0]
p0, p1, p2 = orbit.points
refused(lambda: Orbit(orbit.psi, (p2, p1, p2)))
refused(lambda: Orbit(orbit.psi, (p0, p1, p0)))
refused(lambda: Orbit(orbit.psi, (p0, p1, BranchPoint(
    p2.place, p2.p_values, p2.lam, p2.delta + 1, None, p2.theta))))
one_point.genus += 1
refused(lambda: decomp.kH_decomposition(one_point))
refused(lambda: decomp.kG_decomposition(one_point))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "reduction left an even polynomial term",
        "reduction left an even pole order",
        "trace-zero input produced a constant",
        "reduction left the trace-zero locus",
        "pole orders (2, 3, 3) not odd poles",
        "pole orders (3, 5, 7) not M, M, m",
        "lambda 189 at inf is not zeta^(epsilon m) with epsilon = -1, m = 47",
        "orbit psi = 19: lambdas [3302, 4078, 3302] break the Moebius chain",
        "orbit psi = 19: lambdas [365, 4078, 365] break the Moebius chain",
        "orbit psi = 19: delta [1, 1, 2] varies along the orbit",
        "kH closed form has dimension 69, not the genus 70",
        "kG closed form has dimension 69, not the genus 70",
    ]
