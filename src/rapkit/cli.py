"""Command-line front end: generate, solve, verify, and benchmark.

Exit codes: 0 success (for solve: the output re-verified as feasible),
1 usage or IO problem (a reader that closes standard output early
included), or a solver that gave up (``ExactError``,
``LpError``), 2 infeasible instance, 3 solution rejected by the
verifier.  Reports never trust a solver's own feasibility claim; every
solution is re-checked before being announced.  Instances go to the
solvers and the verifier as parsed, unbalanced ones included, and every
edge id read or written is one of the instance file's.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from .ear import EarDecomposition, format_ears, solve_ear
from .exact import ExactError, lower_bounds, solve_exact
from .instance import (
    NOMINAL_SCENARIO,
    InfeasibleSolutionError,
    InstanceError,
    RapInstance,
    Solution,
    balanced_completion,
    format_instance,
    format_solution,
    parse_instance,
    parse_solution,
    solution_for,
    verify_solution,
)
from .lp import LpError, dump_lp, relax
from .reductions import (
    format_reduced,
    from_set_cover,
    gk_family,
    parse_set_cover,
    random_instance,
    random_snpp,
)
from .rounding import RoundPlan, format_trace, prepare, solve_lp_round

__all__ = ["cmd_bench", "cmd_gen", "cmd_solve", "cmd_verify", "main"]

ALGOS = ("lp-round", "ear", "exact")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_REJECTED = 3

CSV_COLUMNS = (
    "instance", "algo", "seed", "cost", "lb", "exact", "ratio", "iters", "ms", "error"
)


def _num(x: float) -> str:
    # an integral float prints as an integer while every integer of its
    # size is a float, and past 2**53 as its shortest round-trip form
    if not float(x).is_integer():
        return f"{x:g}"
    return f"{int(x)}" if abs(x) < 2**53 else repr(float(x))


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_USAGE


def _instance_id(path: str, text: str) -> str:
    digest = hashlib.sha256(text.encode()).hexdigest()[:8]
    return f"{Path(path).stem}@{digest}"


def _read_instance(path: str) -> tuple[RapInstance, str]:
    text = Path(path).read_text()
    return parse_instance(text), text


def _run_solver(
    inst: RapInstance,
    algo: str,
    seed: Optional[int],
    ear_order: str,
    plan: Optional[RoundPlan],
) -> tuple[Solution, Optional[int], str]:
    """Run one algorithm.

    Returns the solution, the iteration count when the algorithm has one,
    and the trace text (one line per iteration or per ear; empty for the
    exact solver). lp-round rounds ``plan``, prepared from ``inst``.
    """
    if algo == "exact":
        return solve_exact(inst), None, ""
    if algo == "ear":
        decs: list[EarDecomposition] = []
        sol = solve_ear(inst, ear_order=ear_order, trace=decs)
        text = "\n".join(format_ears(d) for d in decs)
        return sol, None, text + ("\n" if text else "")
    sol, rtrace = solve_lp_round(inst, seed=seed, plan=plan)
    return sol, rtrace.iterations, format_trace(rtrace)


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        inst, text = _read_instance(args.infile)
    except OSError as exc:
        return _fail(f"cannot read instance: {exc}")
    except InstanceError as exc:
        return _fail(str(exc))
    if args.algo == "ear" and any(c != 1 for c in inst.costs):
        print(
            "warning: ear minimizes cardinality; costs are not all one",
            file=sys.stderr,
        )

    seed = args.seed
    if args.algo == "lp-round" and seed is None:
        seed = 0
    plan = None
    try:
        if args.algo == "lp-round":
            plan = prepare(inst)
        sol, iters, trace_text = _run_solver(inst, args.algo, seed, args.ear_order, plan)
    except InstanceError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ExactError, ValueError) as exc:
        return _fail(str(exc))
    except LpError as exc:
        return _fail(_error_text(exc))

    try:
        verify_solution(inst, sol)
        feasible = True
    except InfeasibleSolutionError as exc:
        print(f"solver output rejected: {exc}", file=sys.stderr)
        feasible = False
    lb, error = _attempt(lower_bounds, inst)
    if error is not None:
        print(f"lb: {error}", file=sys.stderr)
    ratio = f"{sol.cost / lb:.4f}" if lb is not None and lb > 0 else "-"
    # wall time deliberately left out: repeated runs must print
    # byte-identical reports
    report = (
        f"instance={_instance_id(args.infile, text)} algo={args.algo} "
        f"seed={'-' if seed is None else seed} cost={_num(sol.cost)} "
        f"feasible={'yes' if feasible else 'no'} iters={'-' if iters is None else iters} "
        f"lb={'-' if lb is None else _num(lb)} ratio={ratio}"
    )

    try:
        if args.out:
            Path(args.out).write_text(format_solution(sol.edge_ids))
        if args.trace:
            Path(args.trace).write_text(trace_text)
        if args.dump_lp:
            # lp-round dumps the final cut master its plan solved (of the
            # instance it rounded, uniformized if it had to be); the others
            # solve that of the balanced completion again, as lb= did
            relaxation = (plan.relaxation if plan is not None
                          else relax(balanced_completion(inst).instance))
            Path(args.dump_lp).write_text(dump_lp(relaxation.master))
    except OSError as exc:
        return _fail(f"cannot write output: {exc}")
    except LpError as exc:
        return _fail(_error_text(exc))

    print(report)
    return EXIT_OK if feasible else EXIT_REJECTED


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        if args.family == "gk":
            if args.k is None:
                return _fail("gk family needs --k")
            inst = gk_family(args.k)
            text = format_instance(inst)
        elif args.family == "setcover":
            if args.infile is None:
                return _fail("setcover family needs --in <setcover file>")
            sc = parse_set_cover(Path(args.infile).read_text())
            ri = from_set_cover(sc, args.variant)
            inst = ri.rap
            text = format_reduced(ri)
        elif args.family == "snpp":
            if args.n is None:
                return _fail("snpp family needs --n")
            inst = random_snpp(args.n, args.edge_prob, args.seed)
            text = format_instance(inst)
        else:
            if args.n_r is None or args.n_t is None:
                return _fail("random family needs --n-r and --n-t")
            inst = random_instance(
                args.n_r,
                args.n_t,
                args.edge_prob,
                args.vuln_prob,
                (args.cost_lo, args.cost_hi),
                seed=args.seed,
            )
            text = format_instance(inst)
    except OSError as exc:
        return _fail(f"cannot read input: {exc}")
    except InstanceError as exc:
        return _fail(str(exc))

    counts = f"{inst.graph.n_r + inst.graph.n_t} nodes, {inst.graph.n_edges} edges"
    try:
        if args.out:
            Path(args.out).write_text(text)
            print(counts)
        else:
            sys.stdout.write(text)
            print(counts, file=sys.stderr)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        inst, _ = _read_instance(args.instance)
        sol = solution_for(inst, parse_solution(Path(args.solution).read_text()))
    except OSError as exc:
        return _fail(f"cannot read input: {exc}")
    except InstanceError as exc:
        return _fail(str(exc))

    try:
        cert = verify_solution(inst, sol)
    except InfeasibleSolutionError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_REJECTED
    # scenarios come in ascending id, and each witness is built as it is printed
    for f, witness in cert.matchings.items():
        name = "nominal" if f == NOMINAL_SCENARIO else f"e{f}"
        matched = ",".join(f"e{e}" for e in sorted(witness))
        print(f"scenario {name}: matching {matched}")
    return EXIT_OK


def _parse_seeds(text: str) -> list[int]:
    """Either a single integer or an inclusive range ``a..b``."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _error_text(exc: BaseException) -> str:
    """The exception class and the first line of its message."""
    first = str(exc).partition("\n")[0]
    return f"{type(exc).__name__}: {first}" if first else type(exc).__name__


def _attempt(fn: Callable[..., Any], *args: Any) -> tuple[Any, Optional[str]]:
    """``fn(*args)`` and None, or None and the error text when it raises.

    An AssertionError (a failed internal check) or a RecursionError is a
    fault in rapkit, not a property of the input, so it propagates.
    """
    try:
        return fn(*args), None
    except (AssertionError, RecursionError):
        raise
    except Exception as exc:
        return None, _error_text(exc)


@dataclass
class _BenchShared:
    """Per-instance work shared by all of the instance's bench rows.

    ``failure`` names an error raised while solving the relaxation of an
    instance with lp-round rows; each lp-round row reports it. ``errors``
    names why the lb and exact cells are blank.
    """

    inst: Optional[RapInstance] = None
    plan: Optional[RoundPlan] = None
    failure: Optional[str] = None
    lb: Optional[float] = None
    exact: Optional[float] = None
    errors: list[str] = field(default_factory=list)


def _bench_shared(path: Path, lp_round: bool) -> _BenchShared:
    """Read one instance, and solve its relaxation and references."""
    ref = _BenchShared()
    try:
        inst, _ = _read_instance(str(path))
    except (OSError, InstanceError) as exc:
        ref.errors.append(_error_text(exc))
        return ref
    ref.inst = inst
    if lp_round:
        ref.plan, ref.failure = _attempt(prepare, inst)
    ref.lb, error = _attempt(lower_bounds, inst)
    if error is not None:
        ref.errors.append(f"lb: {error}")
    exact, error = _attempt(solve_exact, inst)
    if error is not None:
        ref.errors.append(f"exact: {error}")
    else:
        ref.exact = exact.cost
    return ref


def _bench_one(label: str, shared: _BenchShared, algo: str, seed: int) -> dict[str, str]:
    """One CSV row; ``ms`` leaves out the work in ``shared``."""
    row = {col: "" for col in CSV_COLUMNS}
    row["error"] = "; ".join(shared.errors)
    row["instance"] = label
    row["algo"] = algo
    row["seed"] = str(seed)
    if shared.lb is not None:
        row["lb"] = _num(shared.lb)
    if shared.exact is not None:
        row["exact"] = _num(shared.exact)
    if shared.inst is None:
        return row
    if shared.failure is not None and algo == "lp-round":
        row["ms"] = "0.0"
        row["error"] = "; ".join([*shared.errors, shared.failure])
        return row
    start = time.perf_counter()
    run, error = _attempt(_run_solver, shared.inst, algo, seed, "lowest", shared.plan)
    if error is None:
        _, error = _attempt(verify_solution, shared.inst, run[0])
    row["ms"] = f"{(time.perf_counter() - start) * 1000:.1f}"
    if error is not None:
        # failed runs keep their row with the result cells blank
        row["error"] = "; ".join([*shared.errors, error])
        return row
    sol, iters, _ = run
    row["cost"] = _num(sol.cost)
    if iters is not None:
        row["iters"] = str(iters)
    reference = shared.exact if shared.exact is not None else shared.lb
    if reference:
        row["ratio"] = f"{sol.cost / reference:.4f}"
    return row


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        manifest_text = Path(args.manifest).read_text()
    except OSError as exc:
        return _fail(f"cannot read manifest: {exc}")
    try:
        seeds = _parse_seeds(args.seeds)
    except ValueError as exc:
        return _fail(str(exc))

    base = Path(args.manifest).parent
    entries: list[tuple[str, str]] = []
    for raw in manifest_text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[1] not in ALGOS:
            return _fail(f"expected '<instance path> <algo>', got {raw!r}")
        entries.append((parts[0], parts[1]))

    # one relaxation and one set of references per instance; an instance's
    # rows all run, and its shared work is dropped, before the next is read
    rows: list[dict[str, str]] = []
    for label in dict.fromkeys(label for label, _ in entries):
        algos = [algo for other, algo in entries if other == label]
        shared = _bench_shared(base / label, "lp-round" in algos)
        rows.extend(_bench_one(label, shared, algo, seed) for algo in algos for seed in seeds)
        del shared
    rows.sort(key=lambda row: (row["instance"], row["algo"], int(row["seed"])))

    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    try:
        if args.out:
            Path(args.out).write_text(out.getvalue())
        else:
            sys.stdout.write(out.getvalue())
    except OSError as exc:
        return _fail(f"cannot write output: {exc}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # usage problems exit with code 1, matching the documented contract
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rap", description="Robust assignment toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--algo", choices=ALGOS, required=True)
    solve.add_argument("--in", dest="infile", required=True, metavar="FILE")
    solve.add_argument("--seed", type=int, help="rounding seed (lp-round only)")
    solve.add_argument("--out", metavar="FILE", help="write the solution here")
    solve.add_argument("--trace", metavar="FILE", help="write the iteration trace here")
    solve.add_argument(
        "--ear-order",
        default="lowest",
        metavar="ORDER",
        help="ear exploration order: lowest or random:<seed>",
    )
    solve.add_argument(
        "--dump-lp", metavar="FILE", help="write the relaxation in LP format"
    )
    solve.set_defaults(func=cmd_solve)

    gen = sub.add_parser("gen", help="generate an instance")
    gen.add_argument(
        "--family", choices=("setcover", "gk", "snpp", "random"), required=True
    )
    gen.add_argument("--out", metavar="FILE", help="write the instance here")
    gen.add_argument("--k", type=int, help="gk: number of paths")
    gen.add_argument("--variant", choices=("basic", "uniform_weighted", "uniform_card"),
                     default="basic", help="setcover: reduction variant")
    gen.add_argument("--in", dest="infile", metavar="FILE",
                     help="setcover: cover instance to encode")
    gen.add_argument("--n", type=int, help="snpp: nodes per side")
    gen.add_argument("--n-r", type=int, help="random: r-side size")
    gen.add_argument("--n-t", type=int, help="random: t-side size")
    gen.add_argument("--edge-prob", type=float, default=0.5)
    gen.add_argument("--vuln-prob", type=float, default=0.5)
    gen.add_argument("--cost-lo", type=int, default=1)
    gen.add_argument("--cost-hi", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_gen)

    verify = sub.add_parser("verify", help="check a solution file")
    verify.add_argument("instance", metavar="INSTANCE")
    verify.add_argument("solution", metavar="SOLUTION")
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="run a manifest of instances")
    bench.add_argument("manifest", metavar="MANIFEST",
                       help="lines of '<instance path> <algo>'")
    bench.add_argument("--seeds", default="0..0", metavar="A..B",
                       help="inclusive seed range, or a single seed")
    bench.add_argument("--out", metavar="FILE", help="write the CSV here")
    bench.set_defaults(func=cmd_bench)
    return parser


# built once per process, not per main() call: a build takes about 1.2 ms
_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed standard output (`rap verify ... | head`): stop
        # quietly, with stdout on devnull so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
