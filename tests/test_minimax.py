"""Tests for the minimax solver (Remez and LP exchange) and kernel recovery."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

import smoothavg
import smoothavg.minimax as mm
from smoothavg.chebyshev import cheb_eval
from smoothavg.cli import N_CAP
from smoothavg.kernel import KNOWN_OPTIMA, box_kernel, kernel_from_symbol, symbol, triangle_kernel
from smoothavg.minimax import (
    PROBLEMS,
    MinimaxProblem,
    MinimaxSolution,
    Stalled,
    solve,
)
from smoothavg.smoothness import (
    OperatorSymbol,
    first_deriv_constant,
    laplacian_constant,
    operator_constant,
)


# |s| of these taps vanishes inside (-1, 1), at x = -1/2, which keeps the
# problem on the LP path
LP_STENCIL = [-1.0, 0.0, 0.0, 1.0]
# the third difference: on the Remez path, and not a model stencil, so it
# takes several rounds (4 at n = 5 and 6)
REMEZ_STENCIL = [-1.0, 3.0, -3.0, 1.0]


def taps_of(text):
    return [float(t) for t in text.split(",")]


def pad_to(coeffs, length):
    out = np.zeros(length)
    out[: coeffs.size] = coeffs
    return out


def recover(name, n, stencil=None):
    """The optimal kernel and the smoothness constant of a named problem."""
    sol = solve(MinimaxProblem(name, n, stencil), 1e-9)
    return sol.kernel, sol.value


class TestProblemTable:
    @pytest.mark.parametrize("args,match", [
        (("second-deriv", 3), "unknown problem"),
        (("laplacian", 3, [1.0, -2.0, 1.0]), "takes no stencil"),
        (("operator", 3), "needs a stencil"),
        (("operator", 3, [0.0, 0.0]), "taps are zero"),
        (("first-deriv", -1), "nonnegative"),
    ], ids=["unknown-name", "stencil-on-laplacian", "operator-without-stencil",
            "zero-stencil", "negative-degree"])
    def test_rejects(self, args, match):
        with pytest.raises(ValueError, match=match):
            MinimaxProblem(*args)

    @pytest.mark.parametrize("name,stencil", [
        ("first-deriv", None), ("laplacian", None), ("laplacian-nonneg", None),
        ("operator", [-1.0, 3.0, -3.0, 1.0]),
    ])
    def test_solution_carries_constant_and_kernel(self, name, stencil):
        sol = solve(MinimaxProblem(name, 4, stencil), 1e-9)
        np.testing.assert_array_equal(sol.kernel.half, kernel_from_symbol(sol.coeffs).half)

    @pytest.mark.parametrize("name", ["first-deriv", "laplacian", "laplacian-nonneg"])
    def test_fixed_stencil_symbol_is_built_once(self, name):
        symbol = MinimaxProblem(name, 3).symbol
        assert MinimaxProblem(name, 7).symbol is symbol
        fresh = OperatorSymbol(PROBLEMS[name].stencil)
        assert symbol == fresh
        assert symbol.weight[0] == fresh.weight[0]
        np.testing.assert_array_equal(symbol.weight[1].coeffs, fresh.weight[1].coeffs)
        assert symbol.vanishes_inside == fresh.vanishes_inside
        xs = np.linspace(-1.0, 1.0, 101)
        np.testing.assert_array_equal(symbol.magnitude(xs), fresh.magnitude(xs))

    def test_import_builds_no_symbol(self):
        # the fixed-stencil symbols are built on the first problem, not at import
        code = ("import smoothavg.cli, smoothavg.minimax as mm; "
                "print(mm._stencil_symbol.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": str(Path(smoothavg.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "0"


class TestValueIsTheConstant:
    @pytest.mark.parametrize("name,stencil", [
        ("first-deriv", None), ("laplacian", None), ("laplacian-nonneg", None),
        ("operator", "-1,3,-3,1"), ("operator", "1,-1,1"),
    ])
    def test_value_brackets_the_smoothness_constant(self, name, stencil):
        # the level is a lower bound and level + certificate_gap an upper
        # bound on sup |s| |p|, the constant that smoothness reports for the
        # kernel and the problem's stencil
        for n in (0, 1, 5, 24, 64):
            sol = solve(MinimaxProblem(name, n, None if stencil is None else taps_of(stencil)), 1e-9)
            if name == "first-deriv":
                constant = first_deriv_constant(sol.kernel).constant
            elif name.startswith("laplacian"):
                constant = laplacian_constant(sol.kernel).constant
            else:
                constant = operator_constant(sol.kernel, OperatorSymbol(taps_of(stencil))).constant
            assert sol.value * (1 - 1e-14) <= constant, n
            assert constant <= sol.value + sol.certificate_gap + 1e-14 * sol.value, n


class TestSolveNamedProblems:
    def test_signed_degree4_recovers_g4(self):
        prob = MinimaxProblem("laplacian-nonneg", 4)
        sol = solve(prob, 1e-9)
        assert sol.converged
        assert sol.value == pytest.approx(4 / 25, abs=1e-9)
        got = pad_to(sol.coeffs.coeffs, 5)
        np.testing.assert_allclose(got, symbol(triangle_kernel(4)).coeffs, atol=1e-7)

    def test_abs_degree3_recovers_h3(self):
        prob = MinimaxProblem("first-deriv", 3)
        sol = solve(prob, 1e-9)
        assert sol.value**2 == pytest.approx(4 / 49, abs=1e-9)
        got = pad_to(sol.coeffs.coeffs, 4)
        np.testing.assert_allclose(got, symbol(box_kernel(3)).coeffs, atol=1e-7)

    def test_degree0_signed(self):
        prob = MinimaxProblem("laplacian-nonneg", 0)
        sol = solve(prob, 1e-9)
        assert sol.coeffs.coeffs.tolist() == [1.0]
        assert sol.value == pytest.approx(4.0, abs=1e-12)

    def test_normalization_invariant(self):
        for name in ("laplacian-nonneg", "first-deriv"):
            sol = solve(MinimaxProblem(name, 4), 1e-9)
            assert cheb_eval(sol.coeffs, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_certificate_gap_within_tol(self):
        sol = solve(MinimaxProblem("laplacian-nonneg", 5), 1e-9)
        assert sol.certificate_gap <= 1e-9

    def test_trace_brackets_value(self):
        # the LP level is a lower bound, the audited continuum max an upper
        # bound; they close to within tol at termination
        sol = solve(MinimaxProblem("laplacian-nonneg", 6), 1e-9)
        last = sol.trace[-1]
        assert last["continuum_max"] >= last["lp_value"] - 1e-12
        assert last["continuum_max"] - last["lp_value"] <= 1e-9
        exact = 4 / 49
        assert last["lp_value"] <= exact + 1e-10
        assert last["continuum_max"] >= exact - 1e-10

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            solve(MinimaxProblem("laplacian", 2), 0.0)


class TestEquioscillation:
    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_signed_active_set_alternates(self, n):
        sol = solve(MinimaxProblem("laplacian-nonneg", n), 1e-9)
        pts = sorted(sol.active_points, reverse=True)  # walk x downward from 1
        assert len(pts) >= n + 2
        values = [2 * (1 - x) * cheb_eval(sol.coeffs, x) for x in pts]
        kinds = []
        for v in values:
            if abs(v) <= 1e-6:
                kinds.append("lo")
            elif abs(v - sol.value) <= 1e-6:
                kinds.append("hi")
        collapsed = [k for i, k in enumerate(kinds) if i == 0 or k != kinds[i - 1]]
        assert len(collapsed) >= n + 2
        assert all(a != b for a, b in zip(collapsed, collapsed[1:]))

    def test_triangle_certificate_is_the_chebyshev_reference(self):
        # laplacian-nonneg's active points are the n+2 alternation points
        # cos(pi j/(n+1)) that certify L(u) >= 4/(n+1)^2, bitwise
        for n in range(N_CAP + 1):
            sol = solve(MinimaxProblem("laplacian-nonneg", n), 1e-9)
            expect = np.sort(np.cos(np.pi * np.arange(n + 2) / (n + 1)))
            assert sol.active_points == expect.tolist(), n


class TestRecovery:
    def test_first_deriv_n1(self):
        u, val = recover("first-deriv", 1)
        assert val == pytest.approx(2 / 3, abs=1e-9)
        np.testing.assert_allclose(u.half, box_kernel(1).half, atol=1e-7)

    def test_first_deriv_n6(self):
        u, val = recover("first-deriv", 6)
        assert val == pytest.approx(2 / 13, abs=1e-8)
        np.testing.assert_allclose(u.half, box_kernel(6).half, atol=1e-6)

    def test_first_deriv_n0(self):
        u, val = recover("first-deriv", 0)
        assert u.half.tolist() == [1.0]
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_laplacian_n2(self):
        u, val = recover("laplacian-nonneg", 2)
        assert val == pytest.approx(4 / 9, abs=1e-9)
        np.testing.assert_allclose(u.half, triangle_kernel(2).half, atol=1e-7)

    def test_laplacian_n5(self):
        u, val = recover("laplacian-nonneg", 5)
        assert val == pytest.approx(1 / 9, abs=1e-8)
        np.testing.assert_allclose(u.half, triangle_kernel(5).half, atol=1e-6)

    def test_laplacian_unconstrained_relaxation(self):
        # dropping the positivity constraint cannot increase the optimum
        _, val = recover("laplacian", 2)
        assert val <= 4 / 9 + 1e-9

    @pytest.mark.parametrize("n", range(0, 9))
    def test_relaxation_monotone_in_n(self, n):
        _, constrained = recover("laplacian-nonneg", n)
        _, relaxed = recover("laplacian", n)
        assert relaxed <= constrained + 1e-9


class TestExploreOperator:
    def test_grad_stencil_consistency(self):
        sol = solve(MinimaxProblem("operator", 3, [-1.0, 1.0]), 1e-9)
        _, val = recover("first-deriv", 3)
        assert sol.value == pytest.approx(val, abs=1e-8)
        assert not sol.exploratory

    def test_laplacian_stencil_consistency(self):
        sol = solve(MinimaxProblem("operator", 3, [1.0, -2.0, 1.0]), 1e-9)
        _, val = recover("laplacian", 3)
        assert sol.value == pytest.approx(val, abs=1e-8)

    def test_third_difference_against_nelder_mead(self):
        from scipy.optimize import minimize

        taps = np.array([-1.0, 3.0, -3.0, 1.0])
        n = 4
        sol = solve(MinimaxProblem("operator", n, taps), 1e-9)
        assert len(sol.active_points) >= 2

        # independent derivative-free search over kernel space: params are
        # u(1..n), u(0) = 1 - 2 sum, objective on a dense xi grid from the
        # complex exponential sums directly; the minimax objective is
        # non-smooth, so Nelder-Mead is restarted from its own endpoint
        xi = np.linspace(0.0, math.pi, 4097)
        s_abs = np.abs(sum(t * np.exp(1j * j * xi) for j, t in enumerate(taps)))

        def objective(tail):
            half = np.concatenate([[1.0 - 2.0 * tail.sum()], np.asarray(tail)])
            k = np.arange(n + 1)
            uhat = half[0] + 2.0 * np.cos(np.outer(xi, k[1:])) @ half[1:]
            return float(np.max(s_abs * np.abs(uhat)))

        best = math.inf
        rng = np.random.default_rng(2024)
        starts = [np.full(n, 1.0 / (2 * n + 1)), rng.uniform(0, 0.4, n), rng.uniform(0, 0.4, n)]
        for start in starts:
            x = start
            for _ in range(3):
                res = minimize(objective, x, method="Nelder-Mead",
                               options={"xatol": 1e-10, "fatol": 1e-12,
                                        "adaptive": True, "maxiter": 2500, "maxfev": 2500})
                x = res.x
            best = min(best, float(res.fun))
        assert sol.value == pytest.approx(best, abs=1e-4)


class TestStalled:
    def test_stall_carries_best_iterate(self, monkeypatch):
        monkeypatch.setattr(mm, "_MAX_ROUNDS", 1)
        with pytest.raises(Stalled) as exc:
            solve(MinimaxProblem("operator", 6, REMEZ_STENCIL), 1e-13)
        sol = exc.value.solution
        assert isinstance(sol, MinimaxSolution)
        assert not sol.converged
        assert sol.value > 0
        np.testing.assert_array_equal(sol.kernel.half, kernel_from_symbol(sol.coeffs).half)


    def test_lp_failure_after_round_one_stalls_with_iterate(self, monkeypatch):
        real, calls = mm.solve_origin_feasible, []

        def fail_after_first(cost, G, h, start=None):
            calls.append(len(h))
            if len(calls) > 1:
                raise mm.Infeasible("stub")
            return real(cost, G, h, start)

        monkeypatch.setattr(mm, "solve_origin_feasible", fail_after_first)
        with pytest.raises(Stalled) as exc:
            solve(MinimaxProblem("operator", 6, LP_STENCIL), 1e-9)
        sol = exc.value.solution
        assert isinstance(exc.value.__cause__, mm.Infeasible)
        assert not sol.converged
        assert sol.iterations == len(sol.trace) == 1
        assert sol.value == sol.trace[0]["lp_value"]
        assert sol.trace[0]["lp_status"] == "Optimal"
        # the start LP on the 7 start points below x = 1, then the failed one
        assert len(calls) == 2 and calls[0] == 2 * 7

    def test_next_set_keeps_the_optimal_basis(self, monkeypatch):
        # every LP round after the first runs on the previous round's optimal
        # basis points plus that round's cuts, and on no other point
        real, rounds = mm._solve_restricted, []

        def record(problem, xs, start):
            level, p, fields = real(problem, xs, start)
            rounds.append((xs, level, p, fields["basis"][0]))
            return level, p, fields

        monkeypatch.setattr(mm, "_solve_restricted", record)
        problem = MinimaxProblem("operator", 6, LP_STENCIL)
        sol = solve(problem, 1e-9)
        assert sol.converged and sol.iterations == len(rounds) > 1
        for (prev, level, p, basis), (xs, *_), row, done in zip(rounds, rounds[1:], sol.trace, sol.trace[1:]):
            assert np.all(np.diff(xs) > 0)
            cuts = np.array(sorted(set(xs.tolist()) - set(basis.tolist())))
            assert set(basis.tolist()) <= set(xs.tolist())
            assert cuts.size == row["cuts"] > 0
            assert not set(cuts.tolist()) & set(prev.tolist())
            objective = np.abs(problem.symbol.magnitude(cuts) * npcheb.chebval(cuts, p.coeffs))
            assert np.all(objective > level + 1e-9)
            assert done["lp_rows"] == 2 * xs.size
        # the certificate: the last optimal basis points and x = 1
        assert sol.active_points == sorted({*rounds[-1][3].tolist(), 1.0})

    def test_first_lp_failure_propagates(self, monkeypatch):
        def fail(cost, G, h, start=None):
            raise mm.Infeasible("stub")

        monkeypatch.setattr(mm, "solve_origin_feasible", fail)
        for name, stencil in (("laplacian-nonneg", None), ("operator", LP_STENCIL)):
            with pytest.raises(mm.Infeasible):
                solve(MinimaxProblem(name, 6, stencil), 1e-9)


TRACE_KEYS = {"round", "method", "lp_value", "continuum_max", "gap",
              "positivity_violation", "lp_rows", "cuts", "seconds"}
LP_TRACE_KEYS = TRACE_KEYS | {"lp_status", "lp_iterations"}


class TestTrace:
    @pytest.mark.parametrize("stencil", ["-1,0,0,1", "1,-1,1,-1"])
    def test_rows_carry_lp_size_and_cuts(self, stencil):
        n = 12
        sol = solve(MinimaxProblem("operator", n, taps_of(stencil)), 1e-9)
        assert sol.iterations > 1
        assert all(set(row) == LP_TRACE_KEYS and row["method"] == "lp" for row in sol.trace)
        assert all(row["lp_status"] == "Optimal" for row in sol.trace)
        assert all(type(row["lp_iterations"]) is int for row in sol.trace)
        # the taps sum to zero: the reference start is round 1's optimum, and
        # every later round pivots its cuts in
        assert sol.trace[0]["lp_iterations"] == 0
        assert all(row["lp_iterations"] > 0 for row in sol.trace[1:])
        # start set: the n+1 Chebyshev extreme points below x = 1, two rows each
        assert sol.trace[0]["lp_rows"] == 2 * (n + 1)
        assert all(row["cuts"] > 0 for row in sol.trace[:-1])
        assert sol.trace[-1]["cuts"] == 0

    def test_first_round_cuts_every_stationary_point_above_level(self):
        # the stationary points of |s|^2 p^2 = (2 - 2 T_3) p^2, the square of
        # the objective for the taps -1,0,0,1, located by sign changes of its
        # derivative on a fine grid, independently of the sup engine
        n = 12
        problem = MinimaxProblem("operator", n, LP_STENCIL)
        start = np.cos(np.pi * np.arange(n + 1, -1, -1) / (n + 1))
        # the rows at j = 1..n+1: upper at j = 1, then lower and upper in turn
        reference = (np.cos(np.pi * np.arange(1, n + 2) / (n + 1)), np.arange(n + 1) % 2 == 0)
        level, p, _ = mm._solve_restricted(problem, start, reference)
        q = npcheb.chebmul([2.0, 0.0, 0.0, -2.0], npcheb.chebmul(p.coeffs, p.coeffs))
        xs = np.cos(np.linspace(np.pi, 0.0, 200_001))
        dq = npcheb.chebval(xs, npcheb.chebder(q))
        turns = xs[:-1][np.sign(dq[:-1]) != np.sign(dq[1:])]
        above = int(np.sum(np.sqrt(np.clip(npcheb.chebval(turns, q), 0.0, None)) > level + 1e-9))
        assert above == 12
        assert solve(problem, 1e-9).trace[0]["cuts"] == above

    @pytest.mark.parametrize("name", ["first-deriv", "laplacian"])
    def test_remez_rows_count_reference_points(self, name):
        n = 12
        sol = solve(MinimaxProblem(name, n), 1e-9)
        assert all(set(row) == TRACE_KEYS and row["method"] == "remez" for row in sol.trace)
        assert all(row["lp_rows"] == n + 1 for row in sol.trace)
        assert all(row["cuts"] > 0 for row in sol.trace[:-1])
        assert sol.trace[-1]["cuts"] == 0
        assert all(row["seconds"] >= 0.0 for row in sol.trace)

    def test_signed_rows_count_positivity(self):
        n = 5
        sol = solve(MinimaxProblem("laplacian-nonneg", n), 1e-9)
        # below x = 1: objective row + positivity row
        assert sol.trace[0]["lp_rows"] == 2 * (n + 1)


# Exploratory (stencil, n) solves that raised Infeasible or stalled under the
# single-cut solver; every one must converge now.
FORMER_STENCIL_FAILURES = (
    ("-3,2,2,-1", 15), ("-3,3,-2,2", 15), ("-2,0,0,2", 15), ("-2,1,0,1", 10),
    ("-2,1,2,-1", 10), ("-2,2,-3,3", 15), ("-1,-3,3,1", 15), ("-1,0,-1,2", 10),
    ("-1,1,-1,1", 15), ("-1,2,1,-2", 10), ("-1,2,2,-3", 15), ("1,-2,-2,3", 15),
    ("1,-2,-1,2", 10), ("1,-1,1,-1", 15), ("1,0,1,-2", 10), ("1,3,-3,-1", 15),
    ("2,-2,3,-3", 15), ("2,-1,-2,1", 10), ("2,-1,0,-1", 10), ("2,0,0,-2", 15),
    ("3,-3,2,-2", 15), ("3,-2,-2,1", 15),
    ("-3,1,3,-1", 15), ("-3,3,-2,2", 10), ("-2,2,-3,3", 10), ("-2,2,-2,2", 10),
    ("-2,3,-3,2", 15), ("-1,3,1,-3", 15), ("1,-3,-1,3", 15), ("2,-3,3,-2", 15),
    ("2,-2,2,-2", 10), ("2,-2,3,-3", 10), ("3,-3,2,-2", 10), ("3,-1,-3,1", 15),
)

# the third difference and its negative at n > 15, above the sizes of the
# former failures
LARGE_STENCIL_SOLVES = tuple((s, n) for s in ("-1,3,-3,1", "1,-3,3,-1") for n in (20, 40, 64))

# stencils whose taps do not sum to zero, so |s| does not vanish at x = 1;
# the LP exchange stalled on these after _MAX_ROUNDS rounds, and they take
# Remez steps now
FORMER_LP_STALLS = (("2,-1", 8), ("2,-1", 20), ("1,-2,2", 3), ("1,-2,2", 20))

THEOREM_PROBLEMS = ("first-deriv", "laplacian-nonneg", "laplacian")


def grid_weight(problem, xs):
    """|s| at xs in closed form for each named problem; for operator,
    |sum_k t_k e^{ik xi}| with xi = arccos x, straight from the taps."""
    if problem.name == "first-deriv":
        return np.sqrt(2.0 * (1.0 - xs))
    if problem.name in ("laplacian", "laplacian-nonneg"):
        return 2.0 * (1.0 - xs)
    xi = np.arccos(xs)
    return np.abs(sum(t * np.exp(1j * k * xi) for k, t in enumerate(problem.stencil)))


def grid_gap(problem, sol):
    """The sampled certificate: objective over level on 10^5 equispaced points."""
    xs = np.linspace(-1.0, 1.0, 10**5)
    p = npcheb.chebval(xs, sol.coeffs.coeffs)
    w = grid_weight(problem, xs)
    phi = w * p if problem.spec.positivity else w * np.abs(p)
    viol = float(np.max(phi)) - sol.value
    if problem.spec.positivity:
        viol = max(viol, -float(np.min(p)))
    return max(0.0, viol)


@pytest.fixture(scope="module")
def theorem_sweep():
    return {
        (name, n): (problem, solve(problem, 1e-9))
        for name in THEOREM_PROBLEMS
        for n in range(N_CAP + 1)
        for problem in [MinimaxProblem(name, n)]
    }


class TestSweep:
    def test_every_n_converges(self, theorem_sweep):
        assert len(theorem_sweep) == 3 * (N_CAP + 1)
        for (name, n), (_, sol) in theorem_sweep.items():
            assert sol.converged, (name, n)
            assert sol.certificate_gap <= 1e-9, (name, n)

    def test_box_and_triangle_values(self, theorem_sweep):
        for n in range(N_CAP + 1):
            _, box = theorem_sweep["first-deriv", n]
            _, tri = theorem_sweep["laplacian-nonneg", n]
            assert abs(box.value - 2 / (2 * n + 1)) <= 1e-8, n
            assert abs(tri.value - 4 / (n + 1) ** 2) <= 1e-8, n

    def test_triangle_constant_within_1e_13_relative(self, theorem_sweep):
        for n in range(N_CAP + 1):
            _, tri = theorem_sweep["laplacian-nonneg", n]
            exact = 4 / (n + 1) ** 2
            assert abs(tri.value - exact) <= 1e-13 * exact, n

    def test_triangle_at_n_256(self):
        # above N_CAP, an exact re-solve leaves basis rows with slacks below
        # the LP's feasibility tolerance; no such row may be pivoted in again
        n = 256
        sol = solve(MinimaxProblem("laplacian-nonneg", n), 1e-9)
        assert sol.converged
        assert abs(sol.value - 4 / (n + 1) ** 2) <= 1e-10 * 4 / (n + 1) ** 2

    def test_laplacian_converges_in_four_rounds(self, theorem_sweep):
        for n in range(N_CAP + 1):
            _, sol = theorem_sweep["laplacian", n]
            assert sol.iterations <= 4, n

    def test_certificate_never_below_grid_audit(self, theorem_sweep):
        for (name, n), (problem, sol) in theorem_sweep.items():
            assert sol.certificate_gap >= grid_gap(problem, sol) - 1e-15, (name, n)

    @pytest.mark.parametrize("stencil,n", [("1,1,1", 8), ("2,-1,2", 11), ("1,-1,1", 20),
                                           ("1,1,1,1", 3), ("1,1,1,1", 5), ("1,1,1,1", 11),
                                           ("-2,0,0,-2", 3)])
    def test_lp_stencils_with_optimum_at_x_1_converge_in_one_round(self, stencil, n):
        # taps that do not sum to zero and an |s| that vanishes inside: the
        # optimum is |s(1)|, which p(1) = 1 forces, on a large optimal face.
        # The LP on the points below 1 picks a p of it with slack there, not
        # a vertex; 1,1,1,1 also has two reference points at zeros of |s|
        problem = MinimaxProblem("operator", n, taps_of(stencil))
        sol = solve(problem, 1e-9)
        assert sol.converged and sol.trace[0]["method"] == "lp"
        assert sol.iterations == 1
        assert sol.value == pytest.approx(abs(sum(taps_of(stencil))), rel=1e-12)
        assert sol.certificate_gap >= grid_gap(problem, sol) - 1e-15

    @pytest.mark.parametrize("stencil,n,rounds", [
        # |s| vanishes at x = -1/2 and -1, the reference points j = 6 and 9
        ("1,1,0,-1,-1", 8, 5), ("2,2,0,-2,-2", 8, 5),
        # at x = 0 and -1 (j = 1 and 2), and at cos(pi/4), halfway from 0 to 1
        ("1,1,1,1,1,1,1,1", 1, 1),
    ])
    def test_reference_zeros_of_s_start_round_one(self, stencil, n, rounds):
        # rows at two zeros of |s| read t >= 0 only and make a singular basis
        problem = MinimaxProblem("operator", n, taps_of(stencil))
        xs, (points, upper) = mm._reference_start(problem)
        w = problem.symbol.magnitude(points)
        assert np.count_nonzero(w <= 1e-6) == 1 and points[-1] == -1.0
        assert np.all(np.isin(points, xs)) and np.unique(points).size == n + 1
        sol = solve(problem, 1e-9)
        assert sol.converged and sol.iterations <= rounds
        assert sol.certificate_gap >= grid_gap(problem, sol) - 1e-15

    @pytest.mark.parametrize("stencil,n",
                             FORMER_STENCIL_FAILURES + LARGE_STENCIL_SOLVES + FORMER_LP_STALLS)
    def test_former_stencil_failures_converge(self, stencil, n):
        problem = MinimaxProblem("operator", n, taps_of(stencil))
        sol = solve(problem, 1e-9)
        assert sol.converged
        assert sol.certificate_gap <= 1e-9
        assert sol.certificate_gap >= grid_gap(problem, sol) - 1e-15


# every integer difference stencil of 2-4 taps in [-3, 3]: nonzero end taps
# summing to zero
INTEGER_STENCILS = tuple(
    taps for size in (2, 3, 4) for taps in itertools.product(range(-3, 4), repeat=size)
    if taps[0] and taps[-1] and sum(taps) == 0
)


def interior_zero_on_grid(taps, phases):
    """Whether |s| has a local minimum below 1e-3 max |s| strictly inside
    (0, pi), straight from the taps and the rows e^{ik xi} of ``phases`` on
    200001 points in xi.  A zero at xi0 leaves at most max|s'| * h/2 <=
    18 * 8e-6 on the grid, below the bound."""
    mag = np.abs(np.asarray(taps, dtype=float) @ phases[: len(taps)])
    inner = mag[1:-1]
    dips = (inner <= mag[:-2]) & (inner <= mag[2:]) & (inner < 1e-3 * mag.max())
    return bool(np.any(dips))


class TestRemez:
    @pytest.mark.parametrize("name,stencil,n", [
        ("first-deriv", None, 12), ("first-deriv", None, 64),
        ("laplacian", None, 12), ("laplacian", None, 64),
        ("operator", "-1,3,-3,1", 20), ("operator", "-1,3,-3,1", 64),
        ("operator", "1,0,-1", 15),  # |s| vanishes at x = -1 too
    ])
    def test_final_reference_equioscillates(self, name, stencil, n):
        problem = MinimaxProblem(name, n, None if stencil is None else taps_of(stencil))
        sol = solve(problem, 1e-9)
        assert all(row["method"] == "remez" for row in sol.trace)
        ref = np.asarray(sol.active_points)
        assert ref.size == n + 1
        err = grid_weight(problem, ref) * npcheb.chebval(ref, sol.coeffs.coeffs)
        assert np.all(np.sign(err[1:]) == -np.sign(err[:-1]))
        np.testing.assert_allclose(np.abs(err), sol.value, rtol=1e-10)

    def test_path_rule_over_integer_stencils(self):
        assert len(INTEGER_STENCILS) == 194
        phases = np.exp(1j * np.outer(np.arange(4), np.linspace(0.0, math.pi, 200_001)))
        vanishing = 0
        for taps in INTEGER_STENCILS:
            inside = interior_zero_on_grid(taps, phases)
            vanishing += inside
            problem = MinimaxProblem("operator", 2, [float(t) for t in taps])
            assert problem.symbol.vanishes_inside == inside, taps
            assert solve(problem, 1e-9).trace[0]["method"] == ("lp" if inside else "remez"), taps
        assert vanishing == 28

    def test_laplacian_n1_closed_form(self):
        sol = solve(MinimaxProblem("laplacian", 1), 1e-9)
        assert abs(sol.value - (2.0 * math.sqrt(2.0) - 2.0)) <= 1e-9

    def test_singular_system_after_round_one_stalls_with_iterate(self, monkeypatch):
        real, calls = np.linalg.solve, []

        def singular_after_first(a, b):
            calls.append(a.shape)
            if len(calls) > 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_after_first)
        with pytest.raises(Stalled) as exc:
            solve(MinimaxProblem("operator", 6, REMEZ_STENCIL), 1e-9)
        sol = exc.value.solution
        assert isinstance(exc.value.__cause__, mm.Infeasible)
        assert calls == [(7, 7), (7, 7)]
        assert not sol.converged
        assert sol.iterations == len(sol.trace) == 1
        assert sol.value == sol.trace[0]["lp_value"]

    def test_first_singular_system_propagates(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(mm.Infeasible, match="singular"):
            solve(MinimaxProblem("laplacian", 6), 1e-9)

    def test_lost_alternation_stalls_with_iterate(self, monkeypatch):
        monkeypatch.setattr(mm, "_exchange", lambda problem, cands, e: None)
        with pytest.raises(Stalled) as exc:
            solve(MinimaxProblem("operator", 6, REMEZ_STENCIL), 1e-9)
        sol = exc.value.solution
        assert not sol.converged
        assert sol.iterations == 1 and sol.trace[0]["cuts"] == 0


def binomial(m):
    """The taps of (1 - z)^m, the m-th difference."""
    return [float((-1) ** k * math.comb(m, k)) for k in range(m + 1)]


class TestBinomialStencils:
    """(1 - z)^m puts an (m-1)-fold root at x = 1 into (|s|^2 p^2)' / p; the
    candidate pass divides it out, so the roots next to x = 1 stay apart."""

    @pytest.mark.parametrize("m", range(5, 11))
    def test_converge_inside_n_cap(self, m):
        for n in (25, 40, 53, 64):
            assert solve(MinimaxProblem("operator", n, binomial(m)), 1e-9).converged, n

    @pytest.mark.parametrize("m,n", [(5, 128), (5, 256), (6, 128), (6, 256)])
    def test_certified_max_holds_on_a_grid(self, m, n):
        problem = MinimaxProblem("operator", n, binomial(m))
        sol = solve(problem, 1e-9)
        assert sol.converged
        top = sol.trace[-1]["continuum_max"]
        grid = np.cos(np.linspace(0.0, np.pi, 200_001))
        s = problem.symbol.magnitude(grid)
        c = sol.coeffs.coeffs
        values = s * np.abs(npcheb.chebval(grid, c))
        rounding = np.finfo(float).eps * c.size * np.abs(c).sum() * s.max()
        assert values.max() <= top * (1 + 1e-12) + rounding, (values.max() - top) / top


def model_reference(orders, n):
    """The equioscillation set of a model stencil's optimum, ascending."""
    j = np.arange(n + 1)
    if orders == (1, 0):
        return np.sort(np.cos((j + 0.5) * math.pi / (n + 0.5)))
    if orders == (1, 1):
        return np.sort(np.cos((j + 0.5) * math.pi / (n + 1)))
    lam = math.cos(math.pi / (4 * (n + 1))) ** 2
    return np.sort((1.0 + np.cos((j + 1) * math.pi / (n + 1))) / lam - 1.0)


MODEL_PROBLEMS = (("first-deriv", None, (1, 0)), ("laplacian", None, (2, 0)),
                  ("operator", "-2,2", (1, 0)), ("operator", "1,0,-1", (1, 1)),
                  ("operator", "3,0,-3", (1, 1)), ("operator", "1,-2,1", (2, 0)))


class TestRemezStart:
    @pytest.mark.parametrize("name,stencil,orders", MODEL_PROBLEMS)
    def test_model_stencils_certify_in_round_one(self, name, stencil, orders):
        for n in range(N_CAP + 1):
            problem = MinimaxProblem(name, n, None if stencil is None else taps_of(stencil))
            assert problem.symbol.model_orders == orders
            sol = solve(problem, 1e-9)
            assert sol.converged and sol.iterations == 1, n
            assert sol.certificate_gap <= 1e-13, n
            np.testing.assert_allclose(sol.active_points, model_reference(orders, n),
                                       rtol=0, atol=1e-15)

    def test_model_values_match_closed_forms(self):
        # observed, not proved: the box kernel's constant is the theorem's
        # 2/(2n+1), and the unconstrained second-difference value matches
        # (4/(n+1)) tan(pi/(4(n+1))); the worst errors at n <= 64 are
        # 1.6e-14 (first-deriv, n = 50) and 7.1e-15 (laplacian, n = 64)
        for n in range(N_CAP + 1):
            box = solve(MinimaxProblem("first-deriv", n), 1e-9)
            assert box.value == pytest.approx(2 / (2 * n + 1), rel=2e-14, abs=0), n
            lap = solve(MinimaxProblem("laplacian", n), 1e-9)
            exact = 4 / (n + 1) * math.tan(math.pi / (4 * (n + 1)))
            assert lap.value == pytest.approx(exact, rel=1e-13, abs=0), n

    @pytest.mark.parametrize("stencil", ["2,-3,1", "-1,3,-3,1", "1,1", "1,-1,1"])
    def test_other_stencils_start_on_the_chebyshev_points(self, stencil):
        problem = MinimaxProblem("operator", 7, taps_of(stencil))
        np.testing.assert_array_equal(mm._remez_start(problem),
                                      np.cos(np.pi * np.arange(1, 9) / 8))


def comb_half(n):
    """The comb's half: u(k) = 1/(n+1) at k = n (mod 2), 0 elsewhere."""
    return [Fraction(1, n + 1) if (n - k) % 2 == 0 else Fraction(0) for k in range(n + 1)]


# the proved optima by their own closed forms, exact: (problem, stencil,
# value, kernel half, reference, whether |s| p alternates in sign there)
KNOWN = {
    "box": ("first-deriv", None, lambda n: Fraction(2, 2 * n + 1),
            lambda n: [Fraction(1, 2 * n + 1)] * (n + 1),
            lambda n: model_reference((1, 0), n), True),
    "triangle": ("laplacian-nonneg", None, lambda n: Fraction(4, (n + 1) ** 2),
                 lambda n: [Fraction(n + 1 - k, (n + 1) ** 2) for k in range(n + 1)],
                 lambda n: np.sort(np.cos((2 * np.arange(n // 2 + 1) + 1) * math.pi / (n + 1))),
                 False),
    "comb": ("operator", [1.0, 0.0, -1.0], lambda n: Fraction(2, n + 1), comb_half,
             lambda n: model_reference((1, 1), n), True),
}


def known_problem(name, n):
    problem, stencil = KNOWN[name][:2]
    return MinimaxProblem(problem, n, stencil)


def floats(fractions):
    return np.array([float(f) for f in fractions])


class TestKnownOptima:
    def test_table(self):
        names = {key: entry.name for key, entry in KNOWN_OPTIMA.items()}
        assert names == {((1, 0), False): "box", ((2, 0), True): "triangle",
                         ((1, 1), False): "comb"}

    @pytest.mark.parametrize("name", KNOWN)
    def test_entry_meets_its_closed_forms(self, name):
        _, _, value, half, reference, _ = KNOWN[name]
        for n in range(N_CAP + 1):
            entry = known_problem(name, n).optimum
            assert entry.name == name
            assert entry.value(n) == float(value(n)), n
            np.testing.assert_array_equal(entry.kernel(n).half, floats(half(n)))
            np.testing.assert_allclose(entry.reference(n), reference(n), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", KNOWN)
    def test_solve_attains_the_optimum_in_round_one(self, name):
        # measured worst at n <= 64: value 1.9e-14 relative (comb), kernel 3.9e-16
        _, _, value, half, _, _ = KNOWN[name]
        for n in range(N_CAP + 1):
            sol = solve(known_problem(name, n), 1e-9)
            assert sol.converged and sol.iterations == 1, n
            assert not sol.exploratory
            assert sol.value == pytest.approx(float(value(n)), rel=1e-13, abs=0), n
            np.testing.assert_allclose(sol.kernel.half, floats(half(n)), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", KNOWN)
    def test_optimum_reaches_the_value_on_the_reference(self, name):
        # |s| |p| of the exact optimal kernel in 30-digit arithmetic, at the
        # entry's reference points: the value, with alternating signs of p
        # for box and comb and p > 0 for the triangle
        mpmath = pytest.importorskip("mpmath")
        _, _, value, half, _, alternates = KNOWN[name]
        with mpmath.workdps(30):
            exact = lambda f: mpmath.mpf(f.numerator) / f.denominator
            for n in range(N_CAP + 1):
                problem = known_problem(name, n)
                coeffs = [exact(c) for c in [half(n)[0]] + [2 * w for w in half(n)[1:]]]
                level = exact(value(n))
                signs = []
                for x in problem.optimum.reference(n).tolist():
                    x = mpmath.mpf(x)
                    xi = mpmath.acos(x)
                    s = abs(mpmath.fsum(t * mpmath.expj(j * xi)
                                        for j, t in enumerate(problem.symbol.taps)))
                    cheb = [mpmath.mpf(1), x]  # T_0(x), T_1(x), ...
                    while len(cheb) < len(coeffs):
                        cheb.append(2 * x * cheb[-1] - cheb[-2])
                    p = mpmath.fsum(c * t for c, t in zip(coeffs, cheb))
                    assert abs(s * abs(p) - level) <= 1e-15 * level, (n, float(x))
                    signs.append(mpmath.sign(p))
                if alternates:
                    assert all(a == -b for a, b in zip(signs, signs[1:])), n
                else:
                    assert all(sign > 0 for sign in signs), n

    @pytest.mark.parametrize("name", ["box", "comb"])
    def test_remez_start_is_the_reference(self, name):
        for n in range(N_CAP + 1):
            problem = known_problem(name, n)
            np.testing.assert_array_equal(mm._remez_start(problem), problem.optimum.reference(n))


class TestSerialization:
    def test_to_dict_round_trips_json(self):
        import json

        sol = solve(MinimaxProblem("laplacian-nonneg", 2), 1e-9)
        text = json.dumps(sol.to_dict())
        data = json.loads(text)
        assert data["converged"] is True
        assert len(data["trace"]) == sol.iterations
        assert data["active_points"] == sol.active_points
