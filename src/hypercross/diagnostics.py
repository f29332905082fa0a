"""Executable property suites with measured residuals.

Each check returns its worst residual so regressions show up as numbers, not
just booleans.  The CLI `diagnose` verb runs these and exits nonzero when a
property fails; the pytest suite covers the same ground (and more) with finer
granularity.

Check points, random polynomial coefficients and value vectors come from a
fixed low-discrepancy sequence (`_Points`), not from numpy's random number
generators: every run of a check reads the same points under any numpy, and the
points of a draw spread evenly over its box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from . import bspline, dyadic, functions, grid, interp, recovery


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    bound: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} residual={self.residual:.6e} bound={self.bound:.6e}"


def _check(name: str, residual: float, bound: float) -> CheckResult:
    return CheckResult(name, bool(residual <= bound), float(residual), float(bound))


class _Points:
    """A fixed additive-recurrence (Kronecker, Roberts' R_d) sequence in ``[0, 1)^d``.

    Point ``i`` is ``frac(0.5 + i * alpha)`` with ``alpha_j = phi_d ** -(j + 1)``, ``phi_d``
    the generalized golden ratio, the positive root of ``x ** (d + 1) = x + 1``.  Indices
    run on from ``start`` across draws, as a seeded generator's stream does.
    """

    def __init__(self, start: int):
        self.start = start

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """Values in ``[low, high)`` of shape ``size``: an int draws that many values, a
        tuple rows of points along its last axis."""
        shape = size if isinstance(size, tuple) else (size, 1)
        d, n = shape[-1], math.prod(shape[:-1])
        phi = 2.0
        for _ in range(64):
            phi = (1.0 + phi) ** (1.0 / (d + 1))
        alpha = phi ** -np.arange(1.0, d + 1)
        i = np.arange(self.start, self.start + n, dtype=np.float64)
        self.start += n
        u = (0.5 + i[:, None] * alpha) % 1.0
        return (low + (high - low) * u).reshape(size)


# -- suite: bspline ----------------------------------------------------------------


def bspline_checks() -> list[CheckResult]:
    seq = _Points(2024)
    out = []

    worst = 0.0
    for d, order, level in [
        (1, (0,), (3,)),
        (2, (1, 2), (2, 1)),
        (3, (2, 1, 0), (1, 2, 2)),
    ]:
        x = seq.uniform(0, 1, size=(2000, d))
        total = np.ones(len(x))
        for j in range(d):
            axis_sum = np.zeros(len(x))
            for shift in range(-order[j], 2 ** level[j]):
                axis_sum += bspline.bspline_derivative(
                    order[j], 0, np.ldexp(x[:, j], level[j]) - shift
                )
            total *= axis_sum
        worst = max(worst, float(np.max(np.abs(total - 1.0))))
    out.append(_check("bspline.partition_of_unity", worst, 1e-12))

    worst = 0.0
    for m in range(7):
        coeffs = [float(a) for a in bspline.refinement_coeffs(m)]
        x = seq.uniform(-1, m + 2, size=4000)
        lhs = bspline.bspline_derivative(m, 0, x)
        rhs = np.zeros_like(x)
        for mu, a in enumerate(coeffs):
            rhs += a * bspline.bspline_derivative(m, 0, 2 * x - mu)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    out.append(_check("bspline.refinement", worst, 1e-12))

    bad = 0.0
    for m in range(5):
        x = seq.uniform(-0.5, m + 1.5, size=4000)
        v = bspline.bspline_derivative(m, 0, x)
        inside = (x > 0) & (x < m + 1)
        # Positivity may only fail within float noise of the support edges.
        near_edge = np.minimum(np.abs(x), np.abs(x - (m + 1))) < 1e-9
        wrong = ((v > 0) != inside) & ~near_edge
        bad = max(bad, float(wrong.sum()))
    out.append(_check("bspline.support_sign", bad, 0.0))

    worst = 0.0
    for m in range(1, 7):
        coeffs = [float(a) for a in bspline.refinement_coeffs(m)]
        x = np.linspace(-0.5, m + 1.5, 2001)
        for r in range(1, m + 1):
            # The differentiated two-scale relation carries the r-th derivative
            # from one dyadic level to the next with the factor 2**r.
            lhs = bspline.bspline_derivative(m, r, x)
            rhs = np.zeros_like(x)
            for mu, a in enumerate(coeffs):
                rhs += a * bspline.bspline_derivative(m, r, 2 * x - mu)
            rhs *= 2.0**r
            worst = max(worst, float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs))))
    out.append(_check("bspline.deriv_sup_scaling", worst, 1e-10))

    worst = 0.0
    h = 1e-5
    for m in range(1, 6):
        xs = seq.uniform(0.3, m + 0.7, size=200)
        xs = xs[np.abs(xs - np.round(xs)) > 0.01]
        fd = (
            bspline.bspline_derivative(m, 0, xs + h) - bspline.bspline_derivative(m, 0, xs - h)
        ) / (2 * h)
        worst = max(worst, float(np.max(np.abs(fd - bspline.bspline_derivative(m, 1, xs)))))
    out.append(_check("bspline.derivative_fd", worst, 1e-6))
    return out


# -- suite: interp -----------------------------------------------------------------


def _random_poly(seq, degrees):
    coeffs = seq.uniform(-1, 1, size=tuple(d + 1 for d in degrees))

    def f(x):
        out = np.zeros(len(x))
        for idx in product(*[range(d + 1) for d in degrees]):
            term = coeffs[idx] * np.ones(len(x))
            for j, e in enumerate(idx):
                term *= x[:, j] ** e
            out += term
        return out

    return f


def interp_checks() -> list[CheckResult]:
    seq = _Points(7)
    out = []

    worst = 0.0
    for degrees in [(2,), (3, 2), (2, 1, 2)]:
        d = len(degrees)
        for _ in range(10):
            f = _random_poly(seq, degrees)
            poly = interp.interpolate(f, degrees, (0.2,) * d, (0.5,) * d)
            pts = seq.uniform(0.2, 0.7, size=(40, d))
            err = np.max(np.abs(poly.eval(pts) - f(pts)))
            worst = max(worst, float(err))
    out.append(_check("interp.reproduction", worst, 1e-9))

    worst = 0.0
    for deg in [1, 3, 5]:
        # Column j holds the monomial coefficients of the basis polynomial of
        # node j, as the study's evaluators build them.
        basis = interp.monomial_coeffs(np.eye(deg + 1), (deg,))
        for i, x in enumerate(interp.nodes(deg)):
            got = interp.horner(basis, 0, x)
            worst = max(worst, float(np.max(np.abs(got - np.eye(deg + 1)[i]))))
        for x in seq.uniform(0, 1, size=50):
            worst = max(worst, abs(sum(interp.horner(basis, 0, x)) - 1.0))
    out.append(_check("interp.lagrange_kronecker", worst, 1e-12))

    worst = 0.0
    degrees = (2, 3)
    f = _random_poly(seq, degrees)
    x0, delta = (0.25, 0.5), (0.5, 0.25)
    poly = interp.interpolate(f, degrees, x0, delta)
    # Axis-by-axis interpolation must reproduce the tensor result: each row of
    # node values along axis 1 is a 1-D interpolant, and their values at the
    # point are interpolated along axis 0.
    for p in seq.uniform(0.3, 0.7, size=(30, 2)):
        inner = [
            interp.TensorPoly(degrees[1:], x0[1:], delta[1:], row).eval(p[1:])
            for row in poly.values
        ]
        pfin = interp.TensorPoly(degrees[:1], x0[:1], delta[:1], np.array(inner))
        worst = max(worst, abs(pfin.eval((p[0],)) - poly.eval(p)))
    out.append(_check("interp.axis_factorization", worst, 1e-10))
    return out


# -- suite: dyadic -----------------------------------------------------------------


def dyadic_checks() -> list[CheckResult]:
    seq = _Points(11)
    out = []
    degrees, order = (2, 2), (1, 1)

    poly_f = _random_poly(seq, degrees)

    worst = 0.0
    ev = dyadic.DyadicEvaluator(degrees, order, f=poly_f)
    scale = np.max(np.abs(poly_f(seq.uniform(0, 1, size=(50, 2)))))
    for level in [(1, 0), (0, 2), (2, 1)]:
        pts = seq.uniform(0.02, 0.98, size=(30, 2))
        worst = max(worst, float(np.max(np.abs(ev.surplus_deriv(level, (0, 0), pts)) / scale)))
    out.append(_check("dyadic.polynomial_annihilation", worst, 1e-9))

    smooth = lambda p: np.sin(2.1 * p[:, 0] + 0.4) * np.cos(1.7 * p[:, 1])  # noqa: E731
    ev = dyadic.DyadicEvaluator(degrees, order, f=smooth)
    worst = 0.0
    for top in [(2, 2), (3, 1)]:
        pts = seq.uniform(0.02, 0.98, size=(20, 2))
        tele = sum(
            ev.surplus_deriv(lvl, (0, 0), pts) for lvl in product(*[range(t + 1) for t in top])
        )
        worst = max(worst, float(np.max(np.abs(tele - ev.quasi_interp_deriv(top, (0, 0), pts)))))
    out.append(_check("dyadic.telescoping", worst, 1e-9))

    worst = 0.0
    for level in [(1, 1), (2, 0), (2, 2)]:
        pts = seq.uniform(0.02, 0.98, size=(15, 2))
        a = ev.surplus_deriv(level, (1, 0), pts)
        b = ev.surplus_via_translates(level, (1, 0), pts)
        worst = max(worst, float(np.max(np.abs(a - b))))
    out.append(_check("dyadic.translate_representation", worst, 1e-9))

    errs = []
    quad = recovery.Quadrature(d=2, cells_log2=3)
    for s in range(1, 5):
        ev_s = dyadic.DyadicEvaluator(degrees, order, f=smooth)
        approx = lambda pts: ev_s.quasi_interp_deriv((s, s), (0, 0), pts)  # noqa: E731
        errs.append(recovery.lq_error(approx, smooth, 2.0, quad))
    ratio = max(errs[i + 1] / errs[i] for i in range(len(errs) - 1))
    out.append(_check("dyadic.level_convergence", ratio, 1.01))
    return out


# -- suite: grid -------------------------------------------------------------------


def grid_checks() -> list[CheckResult]:
    out = []
    # Two-sided growth law for the weighted head sum.
    ref = grid.weighted_sum((1.0, 1.0), (1.0, 1.0), 6) / (2.0**6 * 6)
    ratios = [
        grid.weighted_sum((1.0, 1.0), (1.0, 1.0), r) / (2.0**r * r) / ref
        for r in range(4, 15)
    ]
    worst = max(max(ratios), 1.0 / min(ratios))
    out.append(_check("grid.head_growth_law", worst, 4.0))

    ref = grid.tail_sum((1.0, 1.0), (1.0, 1.0), 6) / (2.0**-6 * 6)
    ratios = [
        grid.tail_sum((1.0, 1.0), (1.0, 1.0), r) / (2.0**-r * r) / ref
        for r in range(4, 15)
    ]
    worst = max(max(ratios), 1.0 / min(ratios))
    out.append(_check("grid.tail_decay_law", worst, 4.0))

    brute = sum(
        2.0 ** -(k1 + k2)
        for k1 in range(41)
        for k2 in range(41)
        if k1 + k2 > 5
    )
    got = grid.tail_sum((1.0, 1.0), (1.0, 1.0), 5)
    out.append(_check("grid.tail_brute_force", abs(got - brute), 1e-10))

    params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, (0, 0))
    counts = grid.count_profile(params, 12)
    ref = counts[5] / (2.0**6 * 6)
    worst = max(
        max(counts[r - 1] / (2.0**r * r) / ref, ref / (counts[r - 1] / (2.0**r * r)))
        for r in range(4, 13)
    )
    out.append(_check("grid.point_growth", worst, 4.0))

    params2 = grid.derive_params(2, (2.0, 1.5), 2.0, 2.0, 2.0, (1, 0))
    w_ok = all(
        params2.eff[j] / params2.weights[j] > params2.rate
        for j in range(2)
        if j not in params2.min_axes
    )
    out.append(_check("grid.weight_admissibility", 0.0 if w_ok else 1.0, 0.0))
    return out


# -- suite: recovery ---------------------------------------------------------------


def recovery_checks() -> list[CheckResult]:
    seq = _Points(23)
    out = []
    params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, (1, 1))
    plan = grid.build_plan(params, 4)

    v1 = seq.uniform(-1, 1, size=plan.n_actual)
    v2 = seq.uniform(-1, 1, size=plan.n_actual)
    a, b = 0.7, -1.3
    r1 = recovery.reconstruct(v1, plan, (1, 1))
    r2 = recovery.reconstruct(v2, plan, (1, 1))
    r12 = recovery.reconstruct(a * v1 + b * v2, plan, (1, 1))
    pts = seq.uniform(0.02, 0.98, size=(50, 2))
    worst = float(np.max(np.abs(r12(pts) - a * r1(pts) - b * r2(pts))))
    out.append(_check("recovery.linearity", worst, 1e-10))

    f = functions.get_function("poly", 2)
    approx = recovery.reconstruct(recovery.sample(f.value, plan), plan, (1, 1))
    pts = seq.uniform(0.01, 0.99, size=(400, 2))
    worst = float(np.max(np.abs(approx(pts) - f.deriv((1, 1), pts))))
    out.append(_check("recovery.poly_exactness", worst, 1e-8))

    f = functions.get_function("trig", 2)
    params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, (0, 0))
    quad = recovery.Quadrature(d=2, cells_log2=4)
    errs = []
    for r in range(2, 7):
        plan_r = grid.build_plan(params, r)
        ap = recovery.reconstruct(recovery.sample(f.value, plan_r), plan_r, (0, 0))
        errs.append(recovery.lq_error(ap, f.value, 2.0, quad))
    ratio = max(errs[i + 1] / errs[i] for i in range(len(errs) - 1))
    out.append(_check("recovery.error_decreasing", ratio, 1.01))
    return out


# -- suite: lab --------------------------------------------------------------------


def lab_checks() -> list[CheckResult]:
    seq = _Points(31)
    out = []

    worst = 0.0
    h = 1e-4
    for entry in functions.registry(2):
        for lam in [(1, 0), (0, 1)]:
            pts = seq.uniform(0.06, 0.94, size=(100, 2))
            for loci, col in zip(entry.kink_loci, range(2)):
                for c in loci:
                    pts = pts[np.abs(pts[:, col] - c) >= 0.05]
            axis = lam.index(1)
            e = np.zeros(2)
            e[axis] = h
            fd = (entry.value(pts + e) - entry.value(pts - e)) / (2 * h)
            ref = entry.deriv(lam, pts)
            worst = max(worst, float(np.max(np.abs(fd - ref))))
    out.append(_check("lab.reference_derivatives_fd", worst, 1e-5))

    entry = functions.get_function("trig", 2)
    order = tuple(math.floor(a) + 1 for a in entry.alpha)
    ts = [0.5**s for s in range(3, 9)]
    ests = [
        functions.modulus_estimate(entry.value, order, (t, t), (0, 1), math.inf)
        for t in ts
    ]
    slope = np.polyfit(np.log(ts), np.log(ests), 1)[0]
    out.append(_check("lab.smooth_modulus_slope", abs(slope - sum(order)), 0.2))

    # ests are for decreasing t, so the sequence must be non-increasing.
    mono = all(ests[i] >= ests[i + 1] - 1e-15 for i in range(len(ests) - 1))
    out.append(_check("lab.modulus_monotone", 0.0 if mono else 1.0, 0.0))
    return out


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "bspline": bspline_checks,
    "interp": interp_checks,
    "dyadic": dyadic_checks,
    "grid": grid_checks,
    "recovery": recovery_checks,
    "lab": lab_checks,
}


def run_suite(selector: str) -> list[CheckResult]:
    """Run one named suite, or every suite for selector "all"."""
    names = [name for name in SUITES if selector in (name, "all")]
    if not names:
        raise ValueError(f"unknown suite {selector!r} (known: {', '.join([*SUITES, 'all'])})")
    return [res for name in names for res in SUITES[name]()]
