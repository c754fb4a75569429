"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smoothavg
import smoothavg.cli as cli
import smoothavg.minimax as mm
import smoothavg.smoothness as smoothness
from smoothavg.cli import main
from smoothavg.kernel import KernelFileError, box_kernel, triangle_kernel, write_kernel_file


def run(argv):
    return main([str(a) for a in argv])


def reference_format_json(obj, indent=0):
    """The JSON formatter as first written, one recursive call per value:
    the oracle that cli.format_json's output must match byte for byte."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {reference_format_json(v, indent + 1)}'
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
            return "[" + ", ".join(reference_format_json(v) for v in seq) + "]"
        items = ",\n".join(f"{pad}  {reference_format_json(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.17g}"
    if obj is None:
        return "null"
    return json.dumps(str(obj))


class TestFormatJson:
    def test_edge_values_match_the_reference(self):
        payload = {
            "floats": [0.1, -0.0, 5e-324, 1e300, math.inf, -math.inf, math.nan, 1.0],
            "numpy": np.array([1.0 / 3.0, -2.5e-17, 0.0]),
            "numpy32": [np.float32(0.1), np.float32(2.0)],
            "mixed": [1, 2.5, True, None, "x", np.int64(3), np.float64(0.2), np.bool_(False)],
            "ints": [0, -7, 2**60],
            "bools": [True, False],
            "empty": [], "empty_dict": {}, "tuple": (0.5, 0.25),
            "nested": [[0.1, 0.2], [], {"a": [1.5], "b": []}, [[1.0]]],
            "scalars": {"f": 0.30000000000000004, "i": 3, "s": "text", "n": None},
        }
        assert cli.format_json(payload) == reference_format_json(payload)

    @pytest.mark.parametrize("argv", [
        ["analyze", "{tri}", "--operator=-1,3,-3,1"],
        ["analyze", "{box}"],
        ["optimize", "first-deriv", "-n", "6"],
        ["optimize", "laplacian", "--nonneg", "-n", "7"],
        ["optimize", "operator", "--stencil=-1,0,0,1", "-n", "9"],
        ["continuum", "--builtin", "halftriangle"],
    ], ids=["analyze-triangle", "analyze-box", "optimize-first-deriv",
            "optimize-laplacian-nonneg", "optimize-operator-lp", "continuum"])
    def test_cli_payloads_match_the_reference(self, argv, tmp_path, capsys, monkeypatch):
        paths = {"tri": tmp_path / "tri.json", "box": tmp_path / "box.json"}
        write_kernel_file(paths["tri"], triangle_kernel(12))
        write_kernel_file(paths["box"], box_kernel(5))
        payloads, emit = [], cli._emit

        def recording_emit(payload, out_path):
            payloads.append(payload)
            emit(payload, out_path)

        monkeypatch.setattr(cli, "_emit", recording_emit)
        assert main([a.format(**paths) for a in argv]) == 0
        # the same payload, timings included, through both formatters
        (payload,) = payloads
        assert capsys.readouterr().out == reference_format_json(payload) + "\n"


class TestGenerateAnalyze:
    def test_round_trip_triangle(self, tmp_path, capsys):
        kfile = tmp_path / "tri.json"
        assert run(["generate", "triangle", "-n", 4, "-o", kfile]) == 0
        assert run(["analyze", kfile]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["laplacian"]["constant"] == pytest.approx(4 / 25, abs=1e-10)
        assert data["laplacian"]["is_extremal"] is True
        assert data["laplacian"]["gap"] == pytest.approx(0.0, abs=1e-10)
        assert data["nonneg_fourier"]["flag"] is True

    def test_round_trip_box(self, tmp_path, capsys):
        kfile = tmp_path / "box.json"
        assert run(["generate", "box", "-n", 4, "-o", kfile]) == 0
        assert run(["analyze", kfile]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["first_deriv"]["constant"] == pytest.approx(2 / 9, abs=1e-10)
        assert data["first_deriv"]["is_extremal"] is True

    def test_round_trip_comb(self, tmp_path, capsys):
        # the comb u(k) = 1/(n+1) at k = n (mod 2) is optimal for 1 - z^2
        kfile = tmp_path / "comb.json"
        assert run(["generate", "comb", "-n", 4, "-o", kfile]) == 0
        assert json.loads(kfile.read_text()) == {"n": 4, "half": [0.2, 0.0, 0.2, 0.0, 0.2]}
        assert run(["analyze", kfile, "--operator=1,0,-1"]) == 0
        op = json.loads(capsys.readouterr().out)["operator"]
        assert op["sharp_bound"] == 2 / 5
        assert op["constant"] == pytest.approx(2 / 5, rel=1e-14)
        assert op["is_extremal"] is True

    @pytest.mark.parametrize("stencil,bound,extremal", [
        ("-2,2", 4 / 15, True),  # 2 (1 - z): twice the box's 2/(2n+1)
        ("1,-1", 2 / 15, True),
        ("1,0,-1", 2 / 8, False),  # the comb's 2/(n+1); the box is not the comb
        ("0,1,0,-1", 2 / 8, False),
        ("1,-2,1", 0.0, False),  # no entry without positivity
        ("-1,3,-3,1", 0.0, False),
    ])
    def test_operator_report_on_box7(self, tmp_path, capsys, stencil, bound, extremal):
        kfile = tmp_path / "box7.json"
        assert run(["generate", "box", "-n", 7, "-o", kfile]) == 0
        assert run(["analyze", kfile, f"--operator={stencil}"]) == 0
        op = json.loads(capsys.readouterr().out)["operator"]
        assert op["sharp_bound"] == bound
        assert op["gap"] == op["constant"] - bound
        assert op["is_extremal"] is extremal

    def test_generate_n0(self, tmp_path):
        kfile = tmp_path / "id.json"
        assert run(["generate", "triangle", "-n", 0, "-o", kfile]) == 0
        assert json.loads(kfile.read_text()) == {"n": 0, "half": [1.0]}

    @pytest.mark.parametrize("kind,section", [("box", "first_deriv"), ("triangle", "laplacian")])
    def test_generated_families_round_trip_with_zero_gap(self, tmp_path, capsys, kind, section):
        for n in range(0, 21):
            kfile = tmp_path / f"{kind}{n}.json"
            assert run(["generate", kind, "-n", n, "-o", kfile]) == 0
            assert run(["analyze", kfile]) == 0
            data = json.loads(capsys.readouterr().out)
            assert abs(data[section]["gap"]) <= 1e-10
            assert data[section]["is_extremal"] is True

    def test_asymmetric_exit3(self, tmp_path):
        kfile = tmp_path / "asym.json"
        kfile.write_text('{"full": [0.2, 0.5, 0.3]}')
        assert run(["analyze", kfile]) == 3

    def test_symmetrize_flag_rescues(self, tmp_path):
        kfile = tmp_path / "asym.json"
        kfile.write_text('{"full": [0.2, 0.5, 0.3]}')
        assert run(["analyze", kfile, "--symmetrize"]) == 0

    # --renormalize cannot divide out a zero sum or one past the double
    # range (that would give a kernel of zeros); the sums, the average and
    # the asymmetry are formed without a RuntimeWarning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("text,flags,message", [
        ('{"half": [1e308, 1e308]}', ["--renormalize"], "kernel weights sum to inf, expected 1"),
        ('{"half": [1, -0.5]}', ["--renormalize"], "kernel weights sum to 0.0, expected 1"),
        ('{"half": [1e308, 1e308]}', [], "kernel weights sum to inf, expected 1"),
        ('{"full": [1e308, 1e308, 1e308]}', ["--symmetrize"],
         "kernel weights sum to inf, expected 1"),
        ('{"full": [-1e308, 0, 1e308]}', [],
         "kernel is not symmetric: max |v(n+k) - v(n-k)| = inf"),
    ], ids=["inf-renormalize", "zero-renormalize", "inf", "full-inf-symmetrize", "full-inf-asym"])
    def test_unusable_sum_exit3(self, tmp_path, capsys, text, flags, message):
        kfile = tmp_path / "k.json"
        kfile.write_text(text)
        assert run(["analyze", kfile, *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"kernel contract violated: {message}\n"

    def test_malformed_exit2(self, tmp_path):
        kfile = tmp_path / "bad.json"
        kfile.write_text("{nope")
        assert run(["analyze", kfile]) == 2

    def test_operator_section(self, tmp_path, capsys):
        kfile = tmp_path / "box.json"
        write_kernel_file(kfile, box_kernel(2))
        assert run(["analyze", kfile, "--operator=-1,3,-3,1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["operator"]["stencil"] == [-1.0, 3.0, -3.0, 1.0]
        assert data["operator"]["constant"] > 0

    def test_zero_stencil_exit2(self, tmp_path, capsys):
        kfile = tmp_path / "box.json"
        write_kernel_file(kfile, box_kernel(2))
        assert run(["analyze", kfile, "--operator=0,0"]) == 2
        assert run(["optimize", "operator", "--stencil=0,-0", "-n", 3]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("all stencil taps are zero") == 2

    @pytest.mark.parametrize("text,message", [
        ("nan,1", "stencil taps [nan, 1.0] must be finite"),
        ("1,-inf", "stencil taps [1.0, -inf] must be finite"),
        ("1e308,-1e308", "|s|^2 of the stencil taps [1e+308, -1e+308] overflows"),
        # sum q_i^2 rounds to 0: analyze printed the constant 0 below its
        # bound and optimize found its Remez system singular (exit 4)
        ("1e-170,-1e-170", "|s|^2 of the stencil taps [1e-170, -1e-170] underflows"),
        ("1e-300,-1e-300", "|s|^2 of the stencil taps [1e-300, -1e-300] underflows"),
    ], ids=["nan", "inf", "overflow", "underflow", "deep-underflow"])
    def test_unusable_stencil_exit2(self, tmp_path, capsys, text, message):
        kfile = tmp_path / "box.json"
        write_kernel_file(kfile, box_kernel(2))
        assert run(["analyze", kfile, f"--operator={text}"]) == 2
        assert run(["optimize", "operator", f"--stencil={text}", "-n", 3]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message, message]

    @pytest.mark.parametrize("text", ["1e154,1", "1,1e154"])
    def test_taps_near_the_double_range(self, tmp_path, capsys, text):
        # |s|^2 of these taps is finite but within a factor of a few of the
        # double range; the sup engine scales Q by a power of two first, so
        # nothing overflows and the constants are finite: |s| peaks at
        # 1e154 + 1 at x = 1, where the box's symbol is 1
        kfile = tmp_path / "box.json"
        write_kernel_file(kfile, box_kernel(3))
        out = tmp_path / "sol.json"
        assert run(["optimize", "operator", f"--stencil={text}", "-n", 3, "-o", out]) == 0
        data = json.loads(out.read_text())
        assert math.isfinite(data["value"]) and data["solution"]["converged"] is True
        assert data["value"] == pytest.approx(1e154, rel=1e-12)
        assert run(["analyze", kfile, f"--operator={text}"]) == 0
        operator = json.loads(capsys.readouterr().out)["operator"]
        assert operator["constant"] == pytest.approx(1e154, rel=1e-12)

    def test_tiny_taps_keep_their_constants(self, tmp_path, capsys):
        # sum q_i^2 = 1e-300 is a normal double: 1e-150 (1 - z) is the
        # box's stencil scaled, with constant and bound 1e-150 * 2/7 at n = 3
        kfile = tmp_path / "box.json"
        write_kernel_file(kfile, box_kernel(3))
        out = tmp_path / "sol.json"
        assert run(["optimize", "operator", "--stencil=1e-150,-1e-150", "-n", 3, "-o", out]) == 0
        data = json.loads(out.read_text())
        assert data["solution"]["converged"] is True
        assert data["value"] == pytest.approx(2e-150 / 7, rel=1e-12)
        assert run(["analyze", kfile, "--operator=1e-150,-1e-150"]) == 0
        operator = json.loads(capsys.readouterr().out)["operator"]
        assert operator["constant"] == pytest.approx(2e-150 / 7, rel=1e-12)
        assert operator["sharp_bound"] == pytest.approx(2e-150 / 7, rel=1e-12)
        assert operator["is_extremal"] is True

    def test_output_aliasing_the_kernel_exit2(self, tmp_path, capsys, monkeypatch):
        # "k.json" and "./k.json" name one file, which the report replaced
        monkeypatch.chdir(tmp_path)
        write_kernel_file(tmp_path / "k.json", box_kernel(2))
        kernel = (tmp_path / "k.json").read_bytes()
        assert run(["analyze", "k.json", "-o", "./k.json"]) == 2
        assert (tmp_path / "k.json").read_bytes() == kernel
        assert capsys.readouterr().err == "input and output paths must be distinct\n"

    def test_output_hard_linked_to_the_kernel_exit2(self, tmp_path, capsys):
        # a hard link is a second name that realpath does not resolve
        write_kernel_file(tmp_path / "k.json", box_kernel(2))
        os.link(tmp_path / "k.json", tmp_path / "h.json")
        kernel = (tmp_path / "k.json").read_bytes()
        assert run(["analyze", tmp_path / "k.json", "-o", tmp_path / "h.json"]) == 2
        assert (tmp_path / "k.json").read_bytes() == kernel
        assert capsys.readouterr().err == "input and output paths must be distinct\n"

    def test_seventeen_digit_floats(self, tmp_path, capsys):
        kfile = tmp_path / "box.json"
        write_kernel_file(kfile, box_kernel(3))
        assert run(["analyze", kfile]) == 0
        assert "0.14285714285714285" in capsys.readouterr().out

    def test_n_cap(self, tmp_path):
        assert run(["generate", "box", "-n", 70, "-o", tmp_path / "k.json"]) == 2

    @pytest.mark.parametrize("radius, code", [(64, 0), (65, 2)])
    def test_kernel_file_radius_cap(self, tmp_path, capsys, radius, code):
        # a kernel file is held to the cap of -n, --box and --triangle
        kfile = tmp_path / "tri.json"
        write_kernel_file(kfile, triangle_kernel(radius))
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        src.write_text("1.0\n" * 200)
        assert run(["analyze", kfile]) == code
        assert run(["smooth", src, dst, "--kernel", kfile]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else "n must lie in [0, 64]\n" * 2)
        assert dst.exists() == (code == 0)

    @pytest.mark.parametrize("text", [
        '{"half": ["1"]}',
        '{"half": [true]}',
        '{"half": [1], "n": false}',
        '{"full": [true]}',
    ], ids=["string", "bool", "bool-n", "bool-full"])
    def test_non_number_values_exit2(self, tmp_path, capsys, text):
        kfile = tmp_path / "k.json"
        kfile.write_text(text)
        assert run(["analyze", kfile]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot read kernel: ")


class TestOptimize:
    def test_first_deriv_recovers_box(self, tmp_path):
        out = tmp_path / "sol.json"
        assert run(["optimize", "first-deriv", "-n", 5, "-o", out]) == 0
        data = json.loads(out.read_text())
        assert data["value"] == pytest.approx(2 / 11, abs=1e-8)
        np.testing.assert_allclose(data["kernel"]["half"], box_kernel(5).half, atol=1e-6)
        assert data["solution"]["converged"] is True
        assert len(data["solution"]["trace"]) == data["solution"]["iterations"]

    def test_laplacian_nonneg_recovers_triangle(self, tmp_path):
        out = tmp_path / "sol.json"
        assert run(["optimize", "laplacian", "--nonneg", "-n", 5, "-o", out]) == 0
        data = json.loads(out.read_text())
        assert data["value"] == pytest.approx(1 / 9, abs=1e-8)
        np.testing.assert_allclose(data["kernel"]["half"], triangle_kernel(5).half, atol=1e-6)

    def test_operator_exploratory(self, tmp_path):
        out = tmp_path / "sol.json"
        assert run(["optimize", "operator", "--stencil", "1,-2,1", "-n", 5, "-o", out]) == 0
        data = json.loads(out.read_text())
        assert data["problem"]["exploratory"] is True
        # dropping positivity cannot beat the constrained optimum
        assert data["value"] <= 4 / 36 + 1e-9

    @pytest.mark.parametrize("n", [3, 8, 20, 64])
    def test_stencil_1_m1_1_converges(self, tmp_path, n):
        # |s| = |2x - 1| vanishes at x = 1/2, which keeps 1,-1,1 on the LP
        # path, and x = 1 holds every level at |s(1)| = 1
        out = tmp_path / "sol.json"
        assert run(["optimize", "operator", "--stencil=1,-1,1", "-n", n, "-o", out]) == 0
        data = json.loads(out.read_text())
        assert data["solution"]["converged"] is True
        assert data["value"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("argv, exploratory", [
        (["first-deriv"], False),
        (["laplacian", "--nonneg"], False),
        (["laplacian"], True),
        (["operator", "--stencil", "1,-2,1"], True),
        (["operator", "--stencil=-1,0,1"], False),
        (["operator", "--stencil=-2,2"], False),
        (["operator", "--stencil=0,1,0,-1"], False),
        (["operator", "--stencil=-1,3,-3,1"], True),
    ], ids=["first-deriv", "laplacian-nonneg", "laplacian", "operator", "operator-comb",
            "operator-scaled-box", "operator-shifted-comb", "operator-third-difference"])
    def test_exploratory_reported_once(self, tmp_path, argv, exploratory):
        # the problem header and the solver's own flag must agree
        out = tmp_path / "sol.json"
        assert run(["optimize", *argv, "-n", 4, "-o", out]) == 0
        data = json.loads(out.read_text())
        assert data["problem"]["exploratory"] is exploratory
        assert data["solution"]["exploratory"] is exploratory

    @pytest.mark.parametrize("argv, name, stencil", [
        (["first-deriv"], "first-deriv", None),
        (["laplacian", "--nonneg"], "laplacian-nonneg", None),
        (["laplacian"], "laplacian", None),
        (["operator", "--stencil", "1,-2,1"], "operator", [1.0, -2.0, 1.0]),
    ], ids=["first-deriv", "laplacian-nonneg", "laplacian", "operator"])
    def test_report_matches_library(self, tmp_path, argv, name, stencil):
        out = tmp_path / "sol.json"
        assert run(["optimize", *argv, "-n", 4, "-o", out]) == 0
        data = json.loads(out.read_text())
        sol = mm.solve(mm.MinimaxProblem(name, 4, stencil))
        assert data["value"] == sol.value
        assert data["solution"]["value"] == data["value"]
        assert data["kernel"]["half"] == sol.kernel.half.tolist()

    def test_operator_needs_stencil(self):
        assert run(["optimize", "operator", "-n", 3]) == 2

    @pytest.mark.parametrize("argv, flag", [
        (["first-deriv", "--stencil=1,-1"], "--stencil"),
        (["laplacian", "--stencil=1,-1"], "--stencil"),
        (["operator", "--nonneg", "--stencil=1,-1"], "--nonneg"),
        (["first-deriv", "--nonneg"], "--nonneg"),
    ], ids=["first-deriv-stencil", "laplacian-stencil", "operator-nonneg", "first-deriv-nonneg"])
    def test_inapplicable_flag_exit2(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "sol.json"
        assert run(["optimize", *argv, "-n", 3, "-o", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(flag) and err.count("\n") == 1
        assert not out.exists()

    def test_tol_range(self):
        assert run(["optimize", "first-deriv", "-n", 3, "--tol", "1"]) == 2

    def test_first_lp_failure_exits_4_without_traceback(self, monkeypatch, tmp_path, capsys):
        def fail(cost, G, h, start=None):
            raise mm.Infeasible("LP solve failed: stub")

        monkeypatch.setattr(mm, "solve_origin_feasible", fail)
        out = tmp_path / "sol.json"
        # positivity keeps laplacian --nonneg on the LP path
        assert run(["optimize", "laplacian", "--nonneg", "-n", 5, "-o", out]) == 4
        err = capsys.readouterr().err
        assert err.startswith("solver stalled: LP solve failed")
        assert "Traceback" not in err
        assert not out.exists()

    def test_later_lp_failure_exits_4_with_iterate(self, monkeypatch, tmp_path, capsys):
        real, calls = mm.solve_origin_feasible, []

        def fail_after_first(cost, G, h, start=None):
            calls.append(len(h))
            if len(calls) > 1:
                raise mm.Infeasible("LP solve failed: stub")
            return real(cost, G, h, start)

        monkeypatch.setattr(mm, "solve_origin_feasible", fail_after_first)
        out = tmp_path / "sol.json"
        # |s| vanishes inside (-1, 1) for this stencil, which keeps it on the
        # LP path, and the LP solve takes more than one round
        argv = ["optimize", "operator", "--stencil=-1,0,0,1", "-n", 5, "-o", out]
        assert run(argv) == 4
        assert "solver stalled" in capsys.readouterr().err
        data = json.loads(out.read_text())
        assert data["solution"]["converged"] is False
        assert data["solution"]["iterations"] == 1
        assert data["solution"]["trace"][0]["lp_status"] == "Optimal"

    @pytest.mark.parametrize("fail_from, iterations", [(1, None), (2, 1)],
                             ids=["first-system", "second-system"])
    def test_singular_remez_system_exits_4(self, monkeypatch, tmp_path, capsys,
                                           fail_from, iterations):
        real, calls = np.linalg.solve, []

        def singular_after(a, b):
            calls.append(a.shape)
            if len(calls) >= fail_from:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_after)
        out = tmp_path / "sol.json"
        # the third difference takes several Remez rounds at n = 5
        assert run(["optimize", "operator", "--stencil=-1,3,-3,1", "-n", 5, "-o", out]) == 4
        err = capsys.readouterr().err
        assert err.startswith("solver stalled") and "Traceback" not in err
        assert calls and all(shape == (6, 6) for shape in calls)
        if iterations is None:  # no iterate to write
            assert not out.exists()
        else:
            data = json.loads(out.read_text())
            assert data["solution"]["converged"] is False
            assert data["solution"]["iterations"] == iterations


class TestVerify:
    @pytest.mark.parametrize("suite", ["thm1", "thm2", "thm3", "thm4", "thm5", "prop8"])
    def test_suites_pass(self, suite, capsys):
        assert run(["verify", suite, "--n-max", 5]) == 0
        out = capsys.readouterr().out
        assert out.startswith("1..")
        assert "not ok" not in out

    @pytest.mark.parametrize("suite", ["thm4", "thm5"])
    @pytest.mark.parametrize("n_max", [0, 1, 2, 3])
    def test_recovery_rows_stay_within_n_max(self, suite, n_max, capsys):
        # the optimizer recovers the kernel at min(2, n_max) and
        # min(5, n_max), each size once and none past --n-max
        assert run(["verify", suite, "--n-max", n_max]) == 0
        sizes = [int(line.rsplit("n=", 1)[1]) for line in capsys.readouterr().out.splitlines()
                 if "optimizer recovers" in line]
        assert sizes == sorted({min(2, n_max), min(5, n_max)})

    def test_all_passes(self, capsys):
        assert run(["verify", "all", "--n-max", 4]) == 0
        assert "not ok" not in capsys.readouterr().out

    def test_n_max_cap(self, capsys):
        for n_max in (-1, 31):
            assert run(["verify", "thm1", "--n-max", n_max]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "n-max must lie in [0, 30]" in captured.err


class TestVerifyViolations:
    """A violated theorem in a random battery is a TAP `not ok` with its
    witness and exit 1, not a traceback or an input error."""

    def test_bound_violation_is_not_ok(self, monkeypatch, capsys):
        real = smoothness.first_deriv_constants

        def halved(kernels):
            # the battery's stacked check reads its reports from smoothness;
            # the box rows of the suite are stacks of one, left unpatched
            reports = real(kernels)
            if len(kernels) == 1:
                return reports
            return [dataclasses.replace(rep, constant=rep.constant / 2) for rep in reports]

        monkeypatch.setattr(smoothness, "first_deriv_constants", halved)
        assert run(["verify", "thm1", "--n-max", 3]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1..6"
        assert all(line.startswith("ok ") for line in lines[1:5])
        bad = lines[5]
        assert bad.startswith("not ok 5 - thm1: random kernels respect the bound # n=")
        assert "< sharp bound" in bad and "for kernel half [" in bad
        assert lines[6] == "ok 6 - thm1: non-box kernels are strictly worse"

    def test_hypothesis_violation_is_not_ok(self, monkeypatch, capsys):
        # the battery's stacked check takes the symbols' minima from
        # smoothness; the sign-changing rows, stacks of one, stay rejected
        monkeypatch.setattr(smoothness, "extrema", lambda c: (
            None, None, np.full(len(c), -1.0), np.full(len(c), 0.25)))
        assert run(["verify", "thm2", "--n-max", 2]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1..5"
        bad = [line for line in lines if line.startswith("not ok")]
        assert len(bad) == 1
        assert bad[0].startswith("not ok 4 - thm2: nonneg-transform kernels respect the bound # n=")
        assert "(x = 0.250000)" in bad[0] and "half=[" in bad[0]
        assert lines[5] == "ok 5 - thm2: sign-changing transforms are rejected"


def test_parser_is_reused_without_carry_over(tmp_path, capsys):
    # one parser serves every call of one process; no flag of one call may
    # reach the next, and errors must leave it usable
    assert cli.build_parser() is cli.build_parser()
    kfile = tmp_path / "box.json"
    write_kernel_file(kfile, box_kernel(3))
    ops = [
        (["optimize", "first-deriv", "-n", 3], 0),
        (["optimize", "first-deriv", "--nonneg", "-n", 3], 2),
        (["optimize", "no-such-problem", "-n", 3], SystemExit),
        (["optimize", "laplacian", "--nonneg", "-n", 3], 0),
        (["optimize", "laplacian", "-n", 3], 0),
        (["analyze", kfile, "--operator=-1,3,-3,1"], 0),
        (["analyze", kfile], 0),
    ]
    outputs = []
    for _ in range(2):
        for argv, code in ops:
            if code is SystemExit:
                with pytest.raises(SystemExit) as exc:
                    run(argv)
                assert exc.value.code == 2
            else:
                assert run(argv) == code, argv
            # byte for byte, but for the wall times in the solver's trace
            outputs.append(re.sub(r'"seconds": [^,\n]+', '"seconds": 0', capsys.readouterr().out))
    first, second = outputs[: len(ops)], outputs[len(ops):]
    assert first == second
    assert json.loads(first[3])["problem"]["nonneg"] is True
    plain = json.loads(first[4])
    assert plain["problem"]["nonneg"] is False
    assert plain["problem"]["exploratory"] is True
    assert "operator" in json.loads(first[5])
    assert "operator" not in json.loads(first[6])


class TestSmooth:
    def test_constant_series(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        src.write_text("".join("1.0\n" for _ in range(12)))
        assert run(["smooth", src, dst, "--box", 2]) == 0
        vals = [float(v) for v in dst.read_text().split()]
        assert len(vals) == 12 - 4
        np.testing.assert_allclose(vals, 1.0, atol=1e-12)

    def test_delta_spike(self, tmp_path):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        rows = ["0.0"] * 9
        rows[4] = "1.0"
        src.write_text("\n".join(rows) + "\n")
        assert run(["smooth", src, dst, "--box", 1]) == 0
        vals = [float(v) for v in dst.read_text().split()]
        assert vals[2:5] == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_ratios_below_ceilings(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        src.write_text("series\n" + "".join(f"{v}\n" for v in rng.standard_normal(1000)))
        assert run(["smooth", src, dst, "--triangle", 4]) == 0
        out = capsys.readouterr().out
        grad_line, lap_line = out.strip().splitlines()
        grad_ratio, m_u = float(grad_line.split()[2]), float(grad_line.split()[-1])
        lap_ratio, l_u = float(lap_line.split()[2]), float(lap_line.split()[-1])
        assert grad_ratio <= m_u + 1e-12
        assert lap_ratio <= l_u + 1e-12

    def test_pad_modes_keep_length(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("".join(f"{v}\n" for v in np.arange(10.0)))
        for pad in ("zero", "reflect"):
            dst = tmp_path / f"out_{pad}.csv"
            assert run(["smooth", src, dst, "--triangle", 2, "--pad", pad]) == 0
            assert len(dst.read_text().split()) == 10

    def test_parse_error_reports_row(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("1.0\n2.0\nbanana\n4.0\n")
        assert run(["smooth", src, tmp_path / "out.csv", "--box", 1]) == 2
        assert "row 3" in capsys.readouterr().err

    def test_header_skipped_only_on_row_one(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        src.write_text("value\n" + "".join(f"{v}\n" for v in range(1, 8)))
        assert run(["smooth", src, dst, "--box", 1]) == 0
        assert len(dst.read_text().split()) == 7 - 2
        src.write_text("\nvalue\n" + "".join(f"{v}\n" for v in range(1, 8)))
        assert run(["smooth", src, tmp_path / "late.csv", "--box", 1]) == 2
        assert "row 2: cannot parse 'value'" in capsys.readouterr().err

    def test_blank_rows_and_later_columns_ignored(self, tmp_path):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        src.write_text("1.0,x\n\n  \n2.0 , 9\r\n,7\n3.0,,\n4.0\n5.0,oops\n")
        assert run(["smooth", src, dst, "--box", 1]) == 0
        assert [float(v) for v in dst.read_text().split()] == pytest.approx([2.0, 3.0, 4.0])

    @pytest.mark.parametrize("text", ["", "\n\n", "value\n", ",1\n  ,2\n"])
    def test_no_numeric_rows(self, tmp_path, capsys, text):
        src = tmp_path / "in.csv"
        src.write_text(text)
        assert run(["smooth", src, tmp_path / "out.csv", "--box", 1]) == 2
        assert "no numeric rows found" in capsys.readouterr().err

    def test_first_bad_row_is_named(self, tmp_path, capsys):
        # a parse error after a non-finite row: the earlier row is reported
        src = tmp_path / "in.csv"
        src.write_text("1.0\n\n inf \nbanana\n")
        assert run(["smooth", src, tmp_path / "out.csv", "--box", 1]) == 2
        assert "row 3: value 'inf' is not finite" in capsys.readouterr().err
        src.write_text("1.0\n\n banana \ninf\n")
        assert run(["smooth", src, tmp_path / "out.csv", "--box", 1]) == 2
        assert "row 3: cannot parse 'banana'" in capsys.readouterr().err

    def test_output_rows_carry_17_significant_digits(self, tmp_path):
        rng = np.random.default_rng(11)
        series = rng.standard_normal(50)
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        src.write_text("".join(f"{float(v)!r}\n" for v in series))
        assert run(["smooth", src, dst, "--box", 2]) == 0
        lines = dst.read_text().splitlines()
        assert lines == [f"{float(line):.17g}" for line in lines]
        expect = np.convolve(series, np.full(5, 0.2), mode="valid")
        np.testing.assert_allclose([float(line) for line in lines], expect, rtol=0, atol=1e-15)

    def test_output_aliasing_the_series_exit2(self, tmp_path, capsys, monkeypatch):
        # "s.csv", "./s.csv" and a link to it name one file, which the
        # smoothing replaced
        monkeypatch.chdir(tmp_path)
        text = "1.0\n2.0\n3.0\n4.0\n"
        (tmp_path / "s.csv").write_text(text)
        os.symlink("s.csv", tmp_path / "link.csv")
        for output in ("./s.csv", "link.csv", tmp_path / "sub" / ".." / "s.csv"):
            assert run(["smooth", "s.csv", output, "--box", 1]) == 2
            assert (tmp_path / "s.csv").read_text() == text
        assert capsys.readouterr().err == "input and output paths must be distinct\n" * 3

    def test_output_hard_linked_to_the_series_exit2(self, tmp_path, capsys):
        # at the parent the four rows of s.csv became the two smoothed ones
        text = "1.0\n2.0\n3.0\n4.0\n"
        (tmp_path / "s.csv").write_text(text)
        os.link(tmp_path / "s.csv", tmp_path / "h.csv")
        assert run(["smooth", tmp_path / "s.csv", tmp_path / "h.csv", "--box", 1]) == 2
        assert (tmp_path / "s.csv").read_text() == text
        assert capsys.readouterr().err == "input and output paths must be distinct\n"

    @pytest.mark.parametrize("text, scans", [("1.0\n2.0\n3.0\n4.0\n", False),
                                             ("1.0\n  \n2.0\n3.0\n4.0\n", True)],
                             ids=["loadtxt", "scan"])
    def test_byte_order_mark_is_not_part_of_row_one(self, tmp_path, monkeypatch, text, scans):
        # the first cell read "\ufeff1.0", did not parse and was skipped as
        # a header; the row of blanks sends the numpy reader to the scan
        src = tmp_path / "in.csv"
        src.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        scanned = []
        scan = cli._scan_series
        monkeypatch.setattr(cli, "_scan_series", lambda path: scanned.append(path) or scan(path))
        assert cli._read_series(str(src)).tolist() == [1.0, 2.0, 3.0, 4.0]
        assert bool(scanned) == scans
        assert scan(str(src)).tolist() == [1.0, 2.0, 3.0, 4.0]
        dst = tmp_path / "out.csv"
        assert run(["smooth", src, dst, "--box", 1]) == 0
        assert [float(v) for v in dst.read_text().split()] == pytest.approx([2.0, 3.0])

    # rows the C reader accepts, and rows only the row scan can skip or name
    READER_CORPUS = [
        "1.0\n2.5\n-3e-7\n",
        "value\n1.0\n2.0\n",
        "\ufeffvalue\n1.0\n2.0\n",
        "\ufeff1.0\n2.0\n3.0\n",
        "\n\n1.0\n\n2.0\n\n",
        "\nvalue\n1.0\n",
        "1.0\n   \n2.0\n\t\n3.0\n",
        "value\r\n1.0\r\n\r\n2.0\r\n",
        "1.0\r2.0\r3.0\r",
        "1.0,x,y\n2.0,3\n3.0,\n",
        "1.0\n,7\n2.0\n",
        "1_000\n2.0\n",
        "value\n1_000\n",
        "1.0\nnan\n2.0\n",
        "nan\n1.0\n",
        "1.0\ninf\n",
        "1.0\n-inf\n",
        "1.0\n1e400\n",
        "1.0\n\n inf \nbanana\n",
        "1.0\nnan\n2,0\nbanana\n",
        "1.0\nbanana\ninf\n",
        " +1.5 \n.5\n5.\n1E5\n-0\n",
        "1.0\n# comment\n",
        "1.0\n\"2.0\"\n",
        "1.0\n\x0c\n2.0\n",
        "\u20031.0\u2003\n2.0\xa0\n",
        "1.0\n0x10\n",
        "",
        "\n\n",
        "value\n",
        "  \n",
    ]

    @pytest.mark.parametrize("text", READER_CORPUS)
    def test_reader_matches_row_scan(self, tmp_path, text):
        # the numpy reader gives the row scan's values, or its error text
        src = tmp_path / "in.csv"
        src.write_bytes(text.encode("utf-8"))

        def outcome(read):
            try:
                return read(str(src))
            except (KernelFileError, ValueError) as exc:
                return f"{type(exc).__name__}: {exc}"

        fast, scan = outcome(cli._read_series), outcome(cli._scan_series)
        if isinstance(scan, str):
            assert fast == scan
        else:
            assert isinstance(fast, np.ndarray) and fast.dtype == scan.dtype
            assert fast.tobytes() == scan.tobytes()

    def test_reader_skips_the_scan_on_plain_series(self, tmp_path, monkeypatch):
        # a header and blank rows are read in C; the scan does not run
        src = tmp_path / "in.csv"
        rng = np.random.default_rng(3)
        series = rng.standard_normal(500)
        src.write_text("value\n" + "".join(f"{float(v)!r}\n\n" for v in series))
        monkeypatch.setattr(cli, "_scan_series", lambda path: pytest.fail("row scan ran"))
        assert cli._read_series(str(src)).tobytes() == series.tobytes()

    def test_writer_matches_format(self, tmp_path):
        rng = np.random.default_rng(12)
        scales = 10.0 ** rng.integers(-300, 300, 20_000)
        values = np.concatenate([rng.standard_normal(20_000) * scales,
                                 [0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1.0, 1e16]])
        with open(tmp_path / "out.csv", "w", encoding="utf-8") as fh:
            cli._write_series(fh, values)
        expected = "".join(map("{:.17g}\n".format, values.tolist()))
        assert (tmp_path / "out.csv").read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_row_rejected(self, tmp_path, capsys, bad):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        src.write_text(f"1.0\n2.0\n{bad}\n4.0\n5.0\n")
        assert run(["smooth", src, dst, "--box", 1]) == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "not finite" in err
        assert not dst.exists()

    def test_too_short_series(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("1.0\n2.0\n3.0\n")
        assert run(["smooth", src, tmp_path / "out.csv", "--box", 2]) == 2

    @pytest.mark.parametrize("flag", ["--box", "--triangle"])
    @pytest.mark.parametrize("radius", [-1, 65])
    def test_radius_cap(self, tmp_path, capsys, flag, radius):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        src.write_text("".join("1.0\n" for _ in range(200)))
        assert run(["smooth", src, dst, flag, radius]) == 2
        assert "n must lie in [0, 64]" in capsys.readouterr().err
        assert not dst.exists()

    @pytest.mark.parametrize("text,code", [('{"full": [0.2, 0.5, 0.3]}', 3), ("{nope", 2)])
    def test_bad_kernel_file(self, tmp_path, capsys, text, code):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        kfile = tmp_path / "k.json"
        src.write_text("".join("1.0\n" for _ in range(20)))
        kfile.write_text(text)
        assert run(["smooth", src, dst, "--kernel", kfile]) == code
        prefix = "kernel contract violated" if code == 3 else "cannot read kernel"
        assert capsys.readouterr().err.startswith(prefix)
        assert not dst.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_sum_with_renormalize_exit3(self, tmp_path, capsys):
        # no series of zeros is written from a kernel of zeros
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        kfile = tmp_path / "k.json"
        src.write_text("".join("1.0\n" for _ in range(20)))
        kfile.write_text('{"half": [1e308, 1e308]}')
        assert run(["smooth", src, dst, "--kernel", kfile, "--renormalize"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "kernel contract violated: kernel weights sum to inf, expected 1\n"
        assert not dst.exists()

    def test_kernel_source_required(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("1.0\n2.0\n3.0\n")
        assert run(["smooth", src, tmp_path / "out.csv"]) == 2


class TestContinuum:
    def test_builtin_triangle(self, capsys):
        assert run(["continuum", "--builtin", "triangle", "--n-max", 200]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["J0"] == pytest.approx(1 / (36 * math.pi**4), abs=1e-10)
        assert abs(data["c_f_analytic"]) <= 1e-10
        assert abs(data["c_f_numeric"]) <= 1e-4

    def test_builtin_halftriangle(self, capsys):
        assert run(["continuum", "--builtin", "halftriangle", "--n-max", 200]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["c_f_analytic"] > 0
        assert data["prop8_lhs"] - data["prop8_rhs"] > 1e-6

    def test_profile_file(self, tmp_path, capsys):
        pfile = tmp_path / "prof.json"
        pfile.write_text('{"knots": [0.0, 0.5, 1.0], "values": [1.0, 0.0, 0.0]}')
        assert run(["continuum", "--profile", pfile, "--n-max", 150]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["c_f_analytic"] == pytest.approx(1 / (144 * math.pi**4), rel=1e-8)

    def test_malformed_profile(self, tmp_path):
        pfile = tmp_path / "prof.json"
        pfile.write_text('{"knots": [0.0]}')
        assert run(["continuum", "--profile", pfile]) == 2

    def test_source_required(self):
        assert run(["continuum"]) == 2

    @pytest.mark.parametrize("text", [
        '{"knots": ["0", "1"], "values": [1, 0]}',
        '{"knots": [0, 1], "values": [true, false]}',
    ], ids=["string", "bool"])
    def test_non_number_profile_exit2(self, tmp_path, capsys, text):
        pfile = tmp_path / "prof.json"
        pfile.write_text(text)
        assert run(["continuum", "--profile", pfile]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot read profile: ")

    # at the parent nan printed "c_f_numeric": NaN, which is not JSON, and
    # a repeated step raised ZeroDivisionError in the Richardson step
    @pytest.mark.parametrize("eps, message", [
        ("nan", "all eps must be finite and lie in (0, 0.1]"),
        ("1e-2,1e-2", "eps must be distinct"),
    ], ids=["nan", "repeated"])
    def test_unusable_eps_exit2(self, capsys, eps, message):
        assert run(["continuum", "--builtin", "halftriangle", "--eps", eps]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_overflowing_slopes_exit2(self, tmp_path, capsys):
        # at the parent the report printed nan in five fields
        pfile = tmp_path / "prof.json"
        pfile.write_text('{"knots": [0, 0.5], "values": [1, 1e308]}')
        assert run(["continuum", "--profile", pfile]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot read profile: ")

    def test_profile_near_the_double_range(self, tmp_path, capsys):
        # J is scale invariant; at the parent (int |u|)^4 overflowed
        pfile = tmp_path / "prof.json"
        pfile.write_text('{"knots": [0, 1], "values": [1e80, 0]}')
        assert run(["continuum", "--profile", pfile, "--n-max", 100]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["J0"] == pytest.approx(1 / (36 * math.pi**4), rel=1e-15, abs=0.0)
        assert abs(data["c_f_numeric"]) <= 1e-15

    # the report of a table near the top of the double range is finite
    # JSON (inf is not JSON), with no RuntimeWarning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("top", ["1e306", "1.7e308"])
    def test_profile_at_the_top_of_the_double_range(self, tmp_path, capsys, top):
        pfile = tmp_path / "prof.json"
        pfile.write_text(f'{{"knots": [0, 1], "values": [{top}, 0]}}')
        assert run(["continuum", "--profile", pfile, "--n-max", 100]) == 0
        data = json.loads(capsys.readouterr().out, parse_constant=lambda c: pytest.fail(c))
        assert all(math.isfinite(v) for v in data.values() if isinstance(v, float))
        # a multiple c of the triangle: gamma = c/pi^2 and a zero slope
        assert data["gamma"] == pytest.approx(float(top) / math.pi**2, rel=1e-15)
        assert abs(data["c_f_numeric"]) <= 1e-15

    def test_n_max_range(self, capsys):
        for n_max in (49, 100_001):
            assert run(["continuum", "--builtin", "halftriangle", "--n-max", n_max]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "n-max must lie in [50, 100000]" in captured.err


# the scipy modules in sys.modules: none, when nothing loaded scipy
SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


@pytest.mark.parametrize("problem", ["first-deriv", "laplacian"])
def test_remez_optimize_leaves_scipy_optimize_unloaded(problem, tmp_path):
    # without positivity and with |s| nonzero inside (-1, 1) every round is
    # a Remez step; no module of scipy is loaded, scipy.optimize included
    code = ("import sys; from smoothavg.cli import main; "
            f"code = main(['optimize', '{problem}', '-n', '64', '-o', sys.argv[1]]); "
            f"print(code, {SCIPY_MODULES})")
    env = {**os.environ, "PYTHONPATH": str(Path(smoothavg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "sol.json")],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "0 []"


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # importing the CLI loads no scipy module, and neither does any command
    # after it: the LP rounds run the package's own simplex, and continuum
    # and verify prop8 take their Gauss-Legendre rules from numpy.  Nor
    # numpy.ma, which np.unique imports: the LP active sets merge by a sort
    modules = f"{SCIPY_MODULES} + ['numpy.ma'] * ('numpy.ma' in sys.modules)"
    data = tmp_path / "in.csv"
    data.write_text("\n".join(str(math.sin(0.1 * i)) for i in range(200)) + "\n")
    kernel = tmp_path / "tri.json"
    commands = [
        ["generate", "triangle", "-n", "4", "-o", str(kernel)],
        ["analyze", str(kernel), "--operator=-1,3,-3,1"],
        ["optimize", "laplacian", "--nonneg", "-n", "12"],
        ["optimize", "operator", "--stencil=-1,0,0,1", "-n", "12"],
        ["verify", "all", "--n-max", "6"],
        ["smooth", str(data), str(tmp_path / "out.csv"), "--triangle", "4"],
        ["continuum", "--builtin", "halftriangle"],
    ]
    code = ("import contextlib, io, json, sys\n"
            "import smoothavg.cli\n"
            f"loaded = [{modules}]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = smoothavg.cli.main(argv)\n"
            f"    loaded.append([code, {modules}])\n"
            "print(json.dumps(loaded))")
    env = {**os.environ, "PYTHONPATH": str(Path(smoothavg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                         capture_output=True, text=True, env=env, check=True)
    assert json.loads(out.stdout) == [[]] + [[0, []]] * len(commands)


def test_continuum_leaves_scipy_special_and_numpy_ma_unloaded(tmp_path):
    # tables, quadrature and autoconvolutions take their Gauss-Legendre
    # rules from numpy, so no continuum report imports scipy.special; nor
    # numpy.ma, which np.unique imports and a fresh process pays ~30 ms for
    table = tmp_path / "profile.json"
    table.write_text(json.dumps({"knots": [0.2, 0.4, 0.6, 0.8], "values": [0.5, 0.3, 0.9, 0.2]}))
    code = ("import sys, contextlib, io, numpy as np; from smoothavg.cli import main; "
            "from smoothavg.continuum import autoconvolution_profile, perturbation_report\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['continuum', '--builtin', 'halftriangle']), "
            "main(['continuum', '--profile', sys.argv[1]])]\n"
            "perturbation_report(autoconvolution_profile(lambda t: np.cos(np.pi * t) ** 2))\n"
            "print(codes, [m for m in ('scipy.special', 'numpy.ma') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(smoothavg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, str(table)], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.strip() == "[0, 0] []"
