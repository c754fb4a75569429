"""Command-line front end.

Subcommands: analyze a kernel file, generate the extremal kernels, run
the minimax optimizer, verify the package's sharp inequalities, smooth a
CSV series, and run the continuum perturbation analysis.  Exit codes: 0
ok, 1 verification failure, 2 input error, 3 kernel-contract error, 4
solver stall.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from . import minimax
from .chebyshev import cheb_mul, extrema, mul_one_minus_x
from .kernel import (
    KNOWN_OPTIMA,
    AsymmetricKernel,
    DiscreteKernel,
    KernelFileError,
    NotNormalized,
    Sequence,
    _numbers,
    convolve,
    grad,
    l2_norm,
    laplacian,
    random_nonneg_fourier_kernel,
    random_symmetric_kernel,
    read_kernel_file,
    symbol,
    write_kernel_file,
)
from .minimax import Infeasible, MinimaxProblem, Stalled
from .smoothness import (
    BoundViolated,
    HypothesisViolated,
    OperatorSymbol,
    first_deriv_constants,
    kernel_constants,
    laplacian_constants,
    nonneg_violations,
    verify_theorem1_batch,
    verify_theorem2_batch,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_KERNEL = 3
EXIT_STALL = 4

N_CAP = 64
VERIFY_N_MAX = 30
# the half-integer scan transforms n_max + 1 frequencies at once; its
# phase arrays stay within a fixed budget, so its memory grows linearly in
# n_max only through a few doubles per frequency of its outputs.  Profiles
# here are tables, which have no resolution limit.  The slope's sup needs
# at least 50
CONTINUUM_N_MAX_RANGE = (50, 100_000)
TOL_RANGE = (1e-14, 1e-2)
SERIES_BLOCK = 4096  # rows per formatted write of ``smooth``'s output
OPTIMA = {entry.name: entry for entry in KNOWN_OPTIMA.values()}  # generate's kinds, by name


def _check_args(paths, n=None, tol=None) -> None:
    """Raise ValueError unless the given paths are distinct, n (a support
    radius) lies in [0, N_CAP] and tol in TOL_RANGE; None is not checked."""
    paths = [str(p) for p in paths if p is not None]
    if len(set(paths)) != len(paths):
        raise ValueError("input and output paths must be distinct")
    if n is not None and not 0 <= n <= N_CAP:
        raise ValueError(f"n must lie in [0, {N_CAP}]")
    if tol is not None and not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
        raise ValueError(f"tolerance must lie in [{TOL_RANGE[0]:g}, {TOL_RANGE[1]:g}]")


def format_json(obj, indent: int = 0) -> str:
    """JSON text with every float printed to 17 significant digits
    (lossless round-trip for doubles)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {format_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, float) for v in seq):  # python and numpy float64
            return "[" + ", ".join(map("{:.17g}".format, seq)) + "]"
        flat = all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if flat:
            return "[" + ", ".join(format_json(v) for v in seq) + "]"
        items = ",\n".join(f"{pad}  {format_json(v, indent + 1)}" for v in seq)
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


def _emit(payload: dict, out_path: str | None) -> None:
    text = format_json(payload) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _kernel_payload(u: DiscreteKernel) -> dict:
    return {"n": u.n, "half": u.half.tolist()}


def _parse_stencil(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValueError(f"bad stencil {text!r}: {exc}") from exc


def _read_kernel(args) -> tuple[DiscreteKernel | None, int]:
    """(kernel, EXIT_OK) for the file args.kernel, or (None, exit code)
    after printing why the file was rejected."""
    try:
        u = read_kernel_file(args.kernel, symmetrize=args.symmetrize,
                             renormalize=args.renormalize)
    except (AsymmetricKernel, NotNormalized) as exc:
        print(f"kernel contract violated: {exc}", file=sys.stderr)
        return None, EXIT_KERNEL
    except (KernelFileError, OSError, ValueError) as exc:
        print(f"cannot read kernel: {exc}", file=sys.stderr)
        return None, EXIT_INPUT
    _check_args([], n=u.n)
    return u, EXIT_OK


def cmd_analyze(args) -> int:
    _check_args([args.kernel, args.output])
    u, code = _read_kernel(args)
    if u is None:
        return code

    taps = _parse_stencil(args.operator) if args.operator else None
    operator = None if taps is None else OperatorSymbol(taps)
    reports, (flag, witness) = kernel_constants(u, operator, nonneg=True)
    payload = {
        "kernel": _kernel_payload(u),
        "first_deriv": reports[0].to_dict(),
        "laplacian": reports[1].to_dict(),
        "nonneg_fourier": {"flag": flag, "witness_x": witness},
    }
    if operator is not None:
        payload["operator"] = {"stencil": taps.tolist(), **reports[2].to_dict()}
    _emit(payload, args.output)
    return EXIT_OK


def cmd_generate(args) -> int:
    _check_args([args.output], n=args.n)
    u = OPTIMA[args.kind].kernel(args.n)
    try:
        write_kernel_file(args.output, u)
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def cmd_optimize(args) -> int:
    _check_args([args.output], n=args.n, tol=args.tol)
    if args.stencil and args.problem != "operator":
        raise ValueError("--stencil applies only to optimize operator")
    if args.nonneg and args.problem != "laplacian":
        raise ValueError("--nonneg applies only to optimize laplacian")
    stencil = None
    if args.problem == "operator":
        if not args.stencil:
            raise ValueError("operator mode needs --stencil")
        stencil = _parse_stencil(args.stencil)
    name = "laplacian-nonneg" if args.problem == "laplacian" and args.nonneg else args.problem
    problem = MinimaxProblem(name, args.n, stencil)

    code = EXIT_OK
    try:
        sol = minimax.solve(problem, args.tol)
    except Stalled as exc:
        sol = exc.solution
        code = EXIT_STALL
        print(f"solver stalled: {exc}", file=sys.stderr)
    except Infeasible as exc:  # the first round failed: there is no iterate to report
        print(f"solver stalled: {exc}", file=sys.stderr)
        return EXIT_STALL

    payload = {
        "problem": {
            "kind": args.problem,
            "n": args.n,
            "tol": args.tol,
            "nonneg": bool(args.nonneg),
            "stencil": args.stencil,
            "exploratory": sol.exploratory,
        },
        "value": sol.value,
        "kernel": _kernel_payload(sol.kernel),
        "solution": sol.to_dict(),
    }
    _emit(payload, args.output)
    return code


def _tap(results) -> int:
    print(f"1..{len(results)}")
    failures = 0
    for i, (name, ok, detail) in enumerate(results, 1):
        if ok:
            print(f"ok {i} - {name}")
        else:
            failures += 1
            print(f"not ok {i} - {name} # {detail}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAIL


def _suite_thm1(n_max: int, rng) -> list:
    box = OPTIMA["box"]
    out = []
    for n, rep in enumerate(first_deriv_constants([box.kernel(n) for n in range(n_max + 1)])):
        ok = abs(rep.constant - box.value(n)) <= 1e-10 and rep.is_extremal
        out.append((f"thm1: box kernel attains 2/(2n+1) at n={n}", ok,
                    f"constant={rep.constant!r}"))
    bound_ok, strict_ok = True, True
    bound_detail = strict_detail = ""
    for n in range(1, min(8, n_max) + 1):
        box_half = box.kernel(n).half
        kernels = [random_symmetric_kernel(rng, n) for _ in range(40)]
        for u, rep in zip(kernels, verify_theorem1_batch(kernels)):
            if isinstance(rep, BoundViolated):  # the witness is the kernel itself
                bound_ok = False
                bound_detail = f"n={n} {rep}"
                continue
            if np.max(np.abs(u.half - box_half)) > 1e-4 and rep.gap <= 1e-8:
                strict_ok = False
                strict_detail = f"n={n} gap={rep.gap!r}"
    out.append(("thm1: random kernels respect the bound", bound_ok, bound_detail))
    out.append(("thm1: non-box kernels are strictly worse", strict_ok, strict_detail))
    return out


def _suite_thm2(n_max: int, rng) -> list:
    triangle = OPTIMA["triangle"]
    out = []
    for n, rep in enumerate(laplacian_constants([triangle.kernel(n) for n in range(n_max + 1)])):
        ok = abs(rep.constant - triangle.value(n)) <= 1e-10 and rep.is_extremal
        out.append((f"thm2: triangle kernel attains 4/(n+1)^2 at n={n}", ok,
                    f"constant={rep.constant!r}"))
    bound_ok = True
    worst = ""
    for n in range(1, min(8, n_max) + 1):
        kernels = [random_nonneg_fourier_kernel(rng, n) for _ in range(40)]
        for u, outcome in zip(kernels, verify_theorem2_batch(kernels)):
            if isinstance(outcome, (BoundViolated, HypothesisViolated)):
                bound_ok = False
                witness = f" half={u.half.tolist()}" if isinstance(outcome, HypothesisViolated) else ""
                worst = f"n={n} {outcome}{witness}"
    out.append(("thm2: nonneg-transform kernels respect the bound", bound_ok, worst))
    boxes = [OPTIMA["box"].kernel(n) for n in range(1, min(8, n_max) + 1)]
    hyp_ok = None not in nonneg_violations(boxes)
    out.append(("thm2: sign-changing transforms are rejected", hyp_ok, ""))
    return out


def _sups(stack: np.ndarray) -> list:
    """max |p| on [-1, 1] of each row p of a zero-padded stack, from one
    stacked extrema pass: the value ``sup_abs`` gives the row."""
    vmax, _, vmin, _ = extrema(stack)
    return np.maximum(vmax, -vmin).tolist()


def _suite_thm3(n_max: int, rng) -> list:
    out = []
    degrees = np.arange(1, n_max + 1)
    scaled = np.zeros((n_max, n_max + 1))
    scaled[degrees - 1, degrees] = 2.0 ** (1 - degrees)  # row n-1 is 2^(1-n) T_n
    for n, sup in zip(degrees.tolist(), _sups(scaled)):
        ok = abs(sup - 2.0 ** (1 - n)) <= 1e-12
        out.append((f"thm3: scaled degree-{n} Chebyshev polynomial has sup 2^(1-n)", ok,
                    f"sup={sup!r}"))
    polys = []
    for _ in range(25):
        deg = int(rng.integers(2, 11))
        mono = np.zeros(deg + 1)
        mono[deg] = 1.0
        mono[: deg] = 1e-2 * rng.standard_normal(deg)
        polys.append(npcheb.poly2cheb(mono))
    # zero-padded: the engine groups rows by trimmed length
    stack = np.zeros((len(polys), max(c.size for c in polys)))
    for row, c in zip(stack, polys):
        row[: c.size] = c
    strict_ok = True
    worst = ""
    for c, sup in zip(polys, _sups(stack)):
        n = c.size - 1
        bound = 2.0 ** (1 - n)
        if not sup > bound + 1e-12:
            strict_ok = False
            worst = f"deg={n} sup={sup!r} bound={bound!r}"
    out.append(("thm3: perturbed monic polynomials deviate strictly more", strict_ok, worst))
    return out


def _recovers(suite: str, problem: str, entry, n_max: int) -> list:
    """The suite's checks that the optimizer on ``problem`` recovers the
    value and kernel of the ``KNOWN_OPTIMA`` entry at n = 2 and 5, each
    capped at n_max."""
    out = []
    for n in sorted({min(2, n_max), min(5, n_max)}):
        sol = minimax.solve(MinimaxProblem(problem, n), 1e-9)
        ok = (abs(sol.value - entry.value(n)) <= 1e-8
              and np.max(np.abs(sol.kernel.half - entry.kernel(n).half)) <= 1e-6)
        out.append((f"{suite}: optimizer recovers the {entry.name} kernel at n={n}", ok,
                    f"value={sol.value!r}"))
    return out


def _suite_thm4(n_max: int, rng) -> list:
    triangle = OPTIMA["triangle"]
    out = []
    for n in range(0, n_max + 1):
        # (1 - x) g_n is half the weighted objective 2 (1 - x) g_n
        q = mul_one_minus_x(symbol(triangle.kernel(n)))
        zeros = np.array([math.cos(2 * math.pi * j / (n + 1)) for j in range((n + 1) // 2 + 1)])
        peaks = q(triangle.reference(n)) - triangle.value(n) / 2
        worst = max(float(np.max(np.abs(q(zeros)))), float(np.max(np.abs(peaks))))
        out.append((f"thm4: weighted extremal polynomial equioscillates at n={n}",
                    worst <= 1e-12, f"worst node error={worst!r}"))
    return out + _recovers("thm4", "laplacian-nonneg", triangle, n_max)


def _suite_thm5(n_max: int, rng) -> list:
    box, triangle = OPTIMA["box"], OPTIMA["triangle"]
    worst = 0.0
    for n in range(0, n_max + 1):
        sq = cheb_mul(symbol(box.kernel(n)), symbol(box.kernel(n)))
        worst = max(worst, float(np.max(np.abs(sq.coeffs - symbol(triangle.kernel(2 * n)).coeffs))))
    return [(f"thm5: square identity h_n^2 = g_2n for n<={n_max}", worst <= 1e-13,
             f"worst coeff error={worst!r}")] + _recovers("thm5", "first-deriv", box, n_max)


def _suite_prop8(rng) -> list:
    from .continuum import (
        _gauss_legendre, a_coefficient, half_triangle_profile, prop8_sides, triangle_profile)

    out = []
    x, w = _gauss_legendre(256)
    worst = 0.0
    for twice_j in range(0, 41):
        j = twice_j / 2.0
        half_nodes = 0.5 + 0.5 * x
        integrand = (1 - 3 * half_nodes**2) * np.cos(2 * math.pi * j * half_nodes)
        oracle = 2.0 * 0.5 * float(np.dot(w, integrand))
        worst = max(worst, abs(a_coefficient(j) - oracle))
    out.append(("prop8: closed-form coefficients match quadrature for |j|<=20",
                worst <= 1e-12, f"worst={worst!r}"))
    sides = prop8_sides(triangle_profile(), 400)
    out.append(("prop8: equality at the triangle", abs(sides.lhs - sides.rhs) <= 1e-10,
                f"lhs-rhs={sides.lhs - sides.rhs!r}"))
    sides = prop8_sides(half_triangle_profile(), 400)
    out.append(("prop8: strict inequality for the half-width triangle",
                sides.lhs - sides.rhs > 1e-6, f"gap={sides.lhs - sides.rhs!r}"))
    return out


def cmd_verify(args) -> int:
    if not 0 <= args.n_max <= VERIFY_N_MAX:
        raise ValueError(f"n-max must lie in [0, {VERIFY_N_MAX}]")
    rng = np.random.default_rng(args.seed)
    suites = {
        "thm1": lambda: _suite_thm1(args.n_max, rng),
        "thm2": lambda: _suite_thm2(args.n_max, rng),
        "thm3": lambda: _suite_thm3(args.n_max, rng),
        "thm4": lambda: _suite_thm4(args.n_max, rng),
        "thm5": lambda: _suite_thm5(args.n_max, rng),
        "prop8": lambda: _suite_prop8(rng),
    }
    results = []
    if args.suite == "all":
        for fn in suites.values():
            results.extend(fn())
    else:
        results.extend(suites[args.suite]())
    return _tap(results)


def _scan_series(path: str) -> np.ndarray:
    """The first column of a CSV series, in one streamed pass that names the
    first bad row: blank rows are skipped, and so is row 1 when it does not
    parse (a header)."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for row_no, raw in enumerate(fh, 1):
            cell = raw.split(",", 1)[0].strip()
            if not cell:
                continue
            try:
                value = float(cell)
            except ValueError:
                if row_no == 1:  # header
                    continue
                raise KernelFileError(f"row {row_no}: cannot parse {cell!r}") from None
            if not math.isfinite(value):
                raise KernelFileError(f"row {row_no}: value {cell!r} is not finite")
            values.append(value)
    if not values:
        raise KernelFileError("no numeric rows found")
    return np.array(values)


def _read_series(path: str) -> np.ndarray:
    """The first column of a CSV series: the values ``_scan_series`` gives,
    or the error it raises.

    np.loadtxt reads the column in C, skipping row 1 when the scan would
    take it for a header (its first cell is not empty and float() cannot
    read it).  Every cell loadtxt reads, float() reads to the same value,
    but loadtxt raises on some rows the scan accepts: rows of whitespace,
    an empty first cell, or a cell such as ``1_000``.  So only when
    loadtxt raises, or returns no value or a non-finite one, does the scan
    run, to skip those rows or to name the first bad one.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cell = fh.readline().split(",", 1)[0].strip()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            values = np.loadtxt(path, delimiter=",", usecols=0, comments=None,
                                skiprows=int(bool(cell) and not _parses(cell)), ndmin=1,
                                encoding="utf-8")
    except ValueError:
        return _scan_series(path)
    if values.size and np.all(np.isfinite(values)):
        return values
    return _scan_series(path)


def _parses(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _write_series(fh, values: np.ndarray) -> None:
    """One "%.17g" row per value, formatted SERIES_BLOCK rows at a time: the
    text of "{:.17g}".format, with a working set bounded by the block."""
    for i in range(0, values.size, SERIES_BLOCK):
        part = tuple(values[i : i + SERIES_BLOCK].tolist())
        fh.write(("%.17g\n" * len(part)) % part)


def cmd_smooth(args) -> int:
    """Convolve the series with the kernel and write the valid interior, or
    a same-length series under --pad, one "%.17g" row per value; print the
    discrete gradient and Laplacian ratios ||D(f*u)|| / ||f|| next to their
    ceilings M(u) and L(u), which come from one engine pass."""
    radius = args.box if args.box is not None else args.triangle
    _check_args([args.input, args.kernel, args.output], n=radius)
    sources = sum(1 for v in (args.kernel, args.box, args.triangle) if v is not None)
    if sources != 1:
        raise ValueError("exactly one of --kernel, --box, --triangle is required")
    if args.kernel:
        u, code = _read_kernel(args)
        if u is None:
            return code
    elif args.box is not None:
        u = OPTIMA["box"].kernel(args.box)
    else:
        u = OPTIMA["triangle"].kernel(args.triangle)

    try:
        series = _read_series(args.input)
    except (KernelFileError, OSError) as exc:
        print(f"cannot read series: {exc}", file=sys.stderr)
        return EXIT_INPUT
    n = u.n
    if series.size <= 2 * n:
        print(f"series length {series.size} must exceed 2n = {2 * n}", file=sys.stderr)
        return EXIT_INPUT

    f = Sequence(0, series)
    smoothed = convolve(f, u)
    norm_f = l2_norm(f)
    grad_ratio = l2_norm(grad(smoothed)) / norm_f
    lap_ratio = l2_norm(laplacian(smoothed)) / norm_f
    (m_rep, l_rep), _ = kernel_constants(u)
    m_u, l_u = m_rep.constant, l_rep.constant

    full = smoothed.values
    if args.pad == "zero":
        out_values = full[n : n + series.size]
    elif args.pad == "reflect":
        padded = Sequence(0, np.pad(series, n, mode="reflect"))
        out_values = convolve(padded, u).values[2 * n : 2 * n + series.size]
    else:
        out_values = full[2 * n : series.size]

    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            _write_series(fh, out_values)
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_INPUT

    print(f"grad ratio:      {grad_ratio:.12g}   ceiling M(u): {m_u:.12g}")
    print(f"laplacian ratio: {lap_ratio:.12g}   ceiling L(u): {l_u:.12g}")
    return EXIT_OK


def cmd_continuum(args) -> int:
    from .continuum import (
        ZeroMass, half_triangle_profile, perturbation_report, profile_from_table, triangle_profile)

    _check_args([args.profile, args.output])
    if (args.profile is None) == (args.builtin is None):
        raise ValueError("exactly one of --profile, --builtin is required")
    lo, hi = CONTINUUM_N_MAX_RANGE
    if not lo <= args.n_max <= hi:
        raise ValueError(f"n-max must lie in [{lo}, {hi}]")
    if args.builtin:
        f = triangle_profile() if args.builtin == "triangle" else half_triangle_profile()
    else:
        try:
            with open(args.profile, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not (_numbers(data["knots"]) and _numbers(data["values"])):
                raise ValueError("knots and values must be lists of numbers")
            f = profile_from_table(data["knots"], data["values"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            print(f"cannot read profile: {exc}", file=sys.stderr)
            return EXIT_INPUT
    try:
        eps = [float(e) for e in args.eps.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad eps list: {exc}") from exc
    try:
        rep = perturbation_report(f, eps, n_max=args.n_max)
    except (ZeroMass, ValueError) as exc:
        print(f"continuum analysis failed: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(rep.to_dict(), args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args fills a new
    namespace on every call and changes nothing in the parser."""
    parser = argparse.ArgumentParser(
        prog="smoothavg",
        description="Smoothness constants of discrete averaging kernels, "
        "their sharp bounds, and the extremal box/triangle kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="compute smoothness constants of a kernel file")
    p.add_argument("kernel", help="kernel JSON file (half or full form)")
    p.add_argument("--operator", help="extra difference stencil, e.g. '-1,3,-3,1'")
    p.add_argument("--symmetrize", action="store_true", help="average asymmetric input")
    p.add_argument("--renormalize", action="store_true", help="rescale weights to unit sum")
    p.add_argument("-o", "--output", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="write an extremal kernel file")
    p.add_argument("kind", choices=list(OPTIMA))
    p.add_argument("-n", type=int, required=True, help="support radius")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("optimize", help="solve the minimax problem for the optimal kernel")
    p.add_argument("problem", choices=["first-deriv", "laplacian", "operator"])
    p.add_argument("-n", type=int, required=True, help="support radius")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--nonneg", action="store_true",
                   help="laplacian mode: require a nonnegative Fourier transform")
    p.add_argument("--stencil", help="operator mode: difference taps, e.g. '1,-2,1'")
    p.add_argument("-o", "--output", help="write solution JSON here instead of stdout")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="run the sharp-inequality verification suites")
    p.add_argument("suite", choices=["thm1", "thm2", "thm3", "thm4", "thm5", "prop8", "all"],
                   help="thm1/thm2: kernel bounds and equality cases; thm3: monic "
                        "minimal deviation; thm4/thm5: weighted extremal polynomials "
                        "and optimizer recovery; prop8: half-integer sampling inequality")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="seed for the random batteries")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("smooth", help="smooth a one-column CSV series by convolution")
    p.add_argument("input", help="CSV with one numeric column (header optional)")
    p.add_argument("output", help="CSV written with the smoothed values")
    p.add_argument("--kernel", help="kernel JSON file")
    p.add_argument("--box", type=int, help="use the box kernel of this radius")
    p.add_argument("--triangle", type=int, help="use the triangle kernel of this radius")
    p.add_argument("--pad", choices=["zero", "reflect"],
                   help="emit a same-length series instead of the valid interior")
    p.add_argument("--symmetrize", action="store_true")
    p.add_argument("--renormalize", action="store_true")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("continuum", help="first-order perturbation analysis at the triangle")
    p.add_argument("--profile", help='JSON file {"knots": [...], "values": [...]} on [0,1]')
    p.add_argument("--builtin", choices=["triangle", "halftriangle"])
    p.add_argument("--eps", default="1e-2,1e-3",
                   help="comma-separated finite-difference steps, distinct, in (0, 0.1]")
    p.add_argument("--n-max", type=int, default=1000,
                   help="half-integer scan cutoff, in [%d, %d]" % CONTINUUM_N_MAX_RANGE)
    p.add_argument("-o", "--output", help="write report JSON here instead of stdout")
    p.set_defaults(func=cmd_continuum)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    raise SystemExit(main())
