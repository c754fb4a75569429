"""Tests for the cutting-plane minimax solver and kernel recovery."""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

import smoothavg.minimax as mm
from smoothavg.chebyshev import cheb_eval, make_g, make_h
from smoothavg.cli import N_CAP
from smoothavg.kernel import box_kernel, kernel_from_symbol, triangle_kernel
from smoothavg.minimax import (
    PROBLEMS,
    MinimaxProblem,
    MinimaxSolution,
    Stalled,
    solve,
)


def pad_to(coeffs, length):
    out = np.zeros(length)
    out[: coeffs.size] = coeffs
    return out


def recover(name, n, stencil=None):
    """The optimal kernel and the smoothness constant of a named problem."""
    sol = solve(MinimaxProblem(name, n, stencil), 1e-9)
    return sol.kernel, sol.constant


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
        assert sol.constant == PROBLEMS[name].scale * sol.value
        np.testing.assert_array_equal(sol.kernel.half, kernel_from_symbol(sol.coeffs).half)


class TestSolveNamedProblems:
    def test_signed_degree4_recovers_g4(self):
        prob = MinimaxProblem("laplacian-nonneg", 4)
        sol = solve(prob, 1e-9)
        assert sol.converged
        assert sol.value == pytest.approx(2 / 25, abs=1e-9)
        got = pad_to(sol.coeffs.coeffs, 5)
        np.testing.assert_allclose(got, make_g(4).coeffs, atol=1e-7)

    def test_abs_degree3_recovers_h3(self):
        prob = MinimaxProblem("first-deriv", 3)
        sol = solve(prob, 1e-9)
        assert sol.value**2 == pytest.approx(2 / 49, abs=1e-9)
        got = pad_to(sol.coeffs.coeffs, 4)
        np.testing.assert_allclose(got, make_h(3).coeffs, atol=1e-7)

    def test_degree0_signed(self):
        prob = MinimaxProblem("laplacian-nonneg", 0)
        sol = solve(prob, 1e-9)
        assert sol.coeffs.coeffs.tolist() == [1.0]
        assert sol.value == pytest.approx(2.0, abs=1e-12)

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
        exact = 2 / 49
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
        values = [(1 - x) * cheb_eval(sol.coeffs, x) for x in pts]
        kinds = []
        for v in values:
            if abs(v) <= 1e-6:
                kinds.append("lo")
            elif abs(v - sol.value) <= 1e-6:
                kinds.append("hi")
        collapsed = [k for i, k in enumerate(kinds) if i == 0 or k != kinds[i - 1]]
        assert len(collapsed) >= n + 2
        assert all(a != b for a, b in zip(collapsed, collapsed[1:]))


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
        assert sol.exploratory

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
            solve(MinimaxProblem("first-deriv", 6), 1e-13)
        sol = exc.value.solution
        assert isinstance(sol, MinimaxSolution)
        assert not sol.converged
        assert sol.value > 0
        assert sol.constant == math.sqrt(2.0) * sol.value
        np.testing.assert_array_equal(sol.kernel.half, kernel_from_symbol(sol.coeffs).half)


    def test_lp_failure_after_round_one_stalls_with_iterate(self, monkeypatch):
        real, calls = mm.solve_origin_feasible, []

        def fail_after_first(cost, G, h):
            calls.append(len(h))
            if len(calls) > 1:
                raise mm.Infeasible("stub")
            return real(cost, G, h)

        monkeypatch.setattr(mm, "solve_origin_feasible", fail_after_first)
        with pytest.raises(Stalled) as exc:
            solve(MinimaxProblem("first-deriv", 6), 1e-9)
        sol = exc.value.solution
        assert isinstance(exc.value.__cause__, mm.Infeasible)
        assert not sol.converged
        assert sol.iterations == len(sol.trace) == 1
        assert sol.value == sol.trace[0]["lp_value"]

    def test_first_lp_failure_propagates(self, monkeypatch):
        def fail(cost, G, h):
            raise mm.Infeasible("stub")

        monkeypatch.setattr(mm, "solve_origin_feasible", fail)
        with pytest.raises(mm.Infeasible):
            solve(MinimaxProblem("first-deriv", 6), 1e-9)


class TestTrace:
    @pytest.mark.parametrize("name", ["first-deriv", "laplacian"])
    def test_rows_carry_lp_size_and_cuts(self, name):
        n = 12
        sol = solve(MinimaxProblem(name, n), 1e-9)
        assert sol.iterations > 1
        assert all({"lp_rows", "cuts"} <= set(row) for row in sol.trace)
        # start set: the n+2 Chebyshev extreme points, two rows each
        assert sol.trace[0]["lp_rows"] == 2 * (n + 2)
        assert all(row["cuts"] > 0 for row in sol.trace[:-1])
        assert sol.trace[-1]["cuts"] == 0

    def test_first_round_cuts_every_stationary_point_above_level(self):
        # the stationary points of (1-x)p located by sign changes of its
        # derivative on a fine grid, independently of the sup engine
        n = 12
        problem = MinimaxProblem("laplacian", n)
        start = np.cos(np.pi * np.arange(n + 2) / (n + 1))
        level, p, _ = mm._solve_restricted(problem, start)
        q = npcheb.chebmul([1.0, -1.0], p.coeffs)
        xs = np.cos(np.linspace(np.pi, 0.0, 200_001))
        dq = npcheb.chebval(xs, npcheb.chebder(q))
        turns = xs[:-1][np.sign(dq[:-1]) != np.sign(dq[1:])]
        above = int(np.sum(np.abs(npcheb.chebval(turns, q)) > level + 1e-9))
        assert above == 12
        assert solve(problem, 1e-9).trace[0]["cuts"] == above

    def test_signed_rows_count_positivity(self):
        n = 5
        sol = solve(MinimaxProblem("laplacian-nonneg", n), 1e-9)
        assert sol.trace[0]["lp_rows"] == 2 * (n + 2)  # objective row + positivity row


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

THEOREM_PROBLEMS = ("first-deriv", "laplacian-nonneg", "laplacian")


def grid_weight(problem, xs):
    """|s| / scale at xs in closed form for each named problem; for operator,
    |sum_k t_k e^{ik xi}| with xi = arccos x, straight from the taps."""
    if problem.name == "first-deriv":
        return np.sqrt(1.0 - xs)
    if problem.name in ("laplacian", "laplacian-nonneg"):
        return 1.0 - xs
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
            assert abs(math.sqrt(2.0) * box.value - 2 / (2 * n + 1)) <= 1e-8, n
            assert abs(2.0 * tri.value - 4 / (n + 1) ** 2) <= 1e-8, n

    def test_laplacian_converges_in_four_rounds(self, theorem_sweep):
        for n in range(N_CAP + 1):
            _, sol = theorem_sweep["laplacian", n]
            assert sol.iterations <= 4, n

    def test_certificate_never_below_grid_audit(self, theorem_sweep):
        for (name, n), (problem, sol) in theorem_sweep.items():
            assert sol.certificate_gap >= grid_gap(problem, sol) - 1e-15, (name, n)

    @pytest.mark.parametrize("stencil,n", FORMER_STENCIL_FAILURES + LARGE_STENCIL_SOLVES)
    def test_former_stencil_failures_converge(self, stencil, n):
        taps = [float(t) for t in stencil.split(",")]
        problem = MinimaxProblem("operator", n, taps)
        sol = solve(problem, 1e-9)
        assert sol.converged
        assert sol.certificate_gap <= 1e-9
        assert sol.certificate_gap >= grid_gap(problem, sol) - 1e-15


class TestSerialization:
    def test_to_dict_round_trips_json(self):
        import json

        sol = solve(MinimaxProblem("laplacian-nonneg", 2), 1e-9)
        text = json.dumps(sol.to_dict())
        data = json.loads(text)
        assert data["converged"] is True
        assert len(data["trace"]) == sol.iterations
        assert data["active_points"] == sol.active_points
