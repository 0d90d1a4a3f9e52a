"""The three benchmark workloads: instances, ops and output checks.

Every op calls one public rapkit entry point (a solver, or ``rap solve``
through ``rapkit.cli.main`` in-process). The benchmark times that call
from outside and then checks the output with its own verifier
(``checker.check_robust``) and the workload's quality rule. Instances are
fixed drafts; on ear-ladder and exact-bnb the benchmark seed relabels their
nodes (see ``relabel``). The program only ever sees the instances.

Functions are looked up on their rapkit module at call time, never bound
at import, so the traced run sees every call through its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import rapkit
import rapkit.cli
import rapkit.ear
import rapkit.exact

from checker import CheckFailed, check_robust, parse_solution_text

# Refuse any lp-small instance whose dense LP would need more than this.
# Today's instances need a few MB; the machine has about 7 GiB.
LP_BYTES_CAP = 256 * 2**20


@dataclass
class Result:
    """What one op produced: the chosen edge ids plus anything reported."""

    edge_ids: frozenset[int]
    report: str = ""


@dataclass
class Op:
    label: str
    instance: rapkit.RapInstance
    reference: float  # the denominator of cost_ratio
    call: Callable[[], Result]
    quality: Callable[[Result, float], None]  # raises CheckFailed


@dataclass
class Workload:
    ops: list[Op]
    top: str  # label of the op on the largest instance
    warmup: Callable[[], None] | None = None


def derive(seed: int, *parts: object) -> int:
    """A 32-bit generator seed derived from a base seed and a slot name."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verify(inst: rapkit.RapInstance, ids: frozenset[int]) -> float:
    """Check ``ids`` with the benchmark's own verifier and return its cost."""
    g = inst.graph
    check_robust(g.n_r, g.n_t, g.edges, inst.vulnerable, ids)
    return float(sum(inst.costs[e] for e in ids))


def relabel(inst: rapkit.RapInstance, seed: int, label: str) -> rapkit.RapInstance:
    """The same instance with the nodes of one side permuted.

    The permuted side is the t side, or the r side when it is the smaller
    one (balanced completion swaps the sides then). Edge ids keep their
    order.
    """
    rng = np.random.default_rng(derive(seed, "relabel", label))
    g = inst.graph
    if g.n_r < g.n_t:
        perm = rng.permutation(g.n_r)
        edges = [(int(perm[r]), t) for r, t in g.edges]
    else:
        perm = rng.permutation(g.n_t)
        edges = [(r, int(perm[t])) for r, t in g.edges]
    return rapkit.make_instance(g.n_r, g.n_t, edges, inst.vulnerable, inst.costs)


# Every workload runs a fixed ladder of drafts: the first instances from a
# fixed generator stream that meet the workload's size rule. For ear-ladder
# and exact-bnb the benchmark seed renames the t-side nodes. Solve times of
# small drafts of one size differ by up to twenty times, and renaming the
# r side (which sets the order matching routines visit nodes in) moves the
# witness-cache hit rate of one exact instance by up to 15%, so either
# would swamp the changes the benchmark has to resolve. Renaming the t side
# changes the input bytes and keeps each instance's work.
DRAFT_STREAM = 0


# --- ear-ladder ---------------------------------------------------------------

EAR_RANDOM = ((40, 0.2), (80, 0.12), (120, 0.1), (160, 0.08))
EAR_GK = (10, 25, 50)


def _ear_op(label: str, inst: rapkit.RapInstance, reference: float) -> Op:
    n_t = max(inst.graph.n_r, inst.graph.n_t)

    def call() -> Result:
        sol = rapkit.ear.solve_ear(inst)
        return Result(frozenset(sol.edge_ids))

    def quality(res: Result, cost: float) -> None:
        if len(res.edge_ids) > 3 * n_t:
            raise CheckFailed(f"{len(res.edge_ids)} edges exceed 3 * n_t = {3 * n_t}")
        if cost < reference:
            raise CheckFailed(f"cost {cost:g} below the lower bound {reference:g}")

    return Op(label, inst, reference, call, quality)


def setup_ear_ladder(seed: int, workdir: Path) -> Workload:
    ops = []
    for n, p in EAR_RANDOM:
        draft = rapkit.random_instance(n, n, p, 0.5, (1, 1), seed=derive(DRAFT_STREAM, "ear", n))
        ops.append(_ear_op(f"rand{n}", relabel(draft, seed, f"rand{n}"), float(n)))
    for k in EAR_GK:
        ops.append(_ear_op(f"gk{k}", relabel(rapkit.gk_family(k), seed, f"gk{k}"),
                           float(2 * k + 2)))
    return Workload(ops, top=f"rand{EAR_RANDOM[-1][0]}")


# --- lp-small -----------------------------------------------------------------

LP_GK = (3, 4)
LP_RANDOM = ((4, 2), (5, 2))  # (side, how many instances)
LP_MAX_UNIFORM_EDGES = 19
_REPORT_NUM = re.compile(r"\b(cost|lb)=(\S+)")


def dense_lp_bytes(n_r: int, n_t: int, m: int, blocks: int) -> int:
    """Bytes of float64 arrays one dense relaxation solve allocates.

    Counts the ``build_lp`` matrix (rows x structural columns), the
    simplex copy that appends one slack or artificial column per row, and
    the dense basis inverse (rows x rows).
    """
    rows = blocks * (n_r + n_t + m)
    cols = m * (blocks + 1)
    return 8 * (rows * cols + rows * (cols + rows) + rows * rows)


def lp_bytes_for_solve(inst: rapkit.RapInstance) -> int:
    """Peak dense-LP bytes of ``rap solve --algo lp-round`` on ``inst``.

    The rounding relaxation runs on the uniformized balanced instance; the
    reported lower bound solves a second relaxation on the balanced
    instance as given. The two solves run one after the other.
    """
    g = inst.graph
    n = max(g.n_r, g.n_t)
    m_balanced = g.n_edges + n * (n - min(g.n_r, g.n_t))
    invulnerable = m_balanced - len(inst.vulnerable)
    m_uniform = m_balanced + (invulnerable if inst.vulnerable else 0)
    blocks_uniform = m_uniform if inst.vulnerable else 1
    return max(
        dense_lp_bytes(n, n, m_uniform, blocks_uniform),
        dense_lp_bytes(n, n, m_balanced, max(1, len(inst.vulnerable))),
    )


def _draw_lp_random(side: int, index: int) -> rapkit.RapInstance:
    """First draft from this slot's stream whose uniformized LP is small."""
    for attempt in range(1000):
        inst = rapkit.random_instance(
            side, side, 0.6, 0.5, (1, 10),
            seed=derive(DRAFT_STREAM, "lp", side, index, attempt),
        )
        if rapkit.uniformize(inst).instance.graph.n_edges <= LP_MAX_UNIFORM_EDGES:
            return inst
    raise RuntimeError(f"no {side}x{side} draft with a small LP")


def _lp_op(label: str, inst: rapkit.RapInstance, path: Path, optimum: float,
           round_seed: int) -> Op:
    out = path.with_name(f"{path.stem}.s{round_seed}.sol")
    argv = ["solve", "--algo", "lp-round", "--seed", str(round_seed),
            "--in", str(path), "--out", str(out)]

    def call() -> Result:
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = rapkit.cli.main(argv)
        if code != 0:
            raise CheckFailed(f"rap solve exited {code}: {stderr.getvalue().strip()}")
        return Result(frozenset(parse_solution_text(out.read_text())), stdout.getvalue())

    def quality(res: Result, cost: float) -> None:
        fields = dict(_REPORT_NUM.findall(res.report))
        if "feasible=yes" not in res.report or set(fields) != {"cost", "lb"}:
            raise CheckFailed(f"unexpected report {res.report.strip()!r}")
        if abs(float(fields["cost"]) - cost) > 1e-6:
            raise CheckFailed(f"reported cost {fields['cost']} but the output costs {cost:g}")
        if float(fields["lb"]) > optimum + 1e-6:
            raise CheckFailed(f"lb={fields['lb']} exceeds the optimum {optimum:g}")
        if optimum > cost + 1e-9:
            raise CheckFailed(f"cost {cost:g} below the optimum {optimum:g}")

    return Op(f"{label}.s{round_seed}", inst, optimum, call, quality)


def setup_lp_small(seed: int, workdir: Path) -> Workload:
    # The seed is not used: renaming nodes reorders the LP's rows, which
    # moves the dense simplex's pivot count (the top op took 2.4 to 4.3 s
    # over five seeds), so lp-small runs the same inputs whatever the seed.
    instances = [(f"gk{k}", rapkit.gk_family(k)) for k in LP_GK]
    for side, count in LP_RANDOM:
        for index in range(count):
            instances.append((f"rand{side}{'ab'[index]}", _draw_lp_random(side, index)))
    for label, inst in instances:
        need = lp_bytes_for_solve(inst)
        if need > LP_BYTES_CAP:
            raise MemoryError(
                f"{label}: dense LP needs {need / 2**20:.0f} MiB, cap is "
                f"{LP_BYTES_CAP / 2**20:.0f} MiB"
            )
    ops = []
    for index, (label, inst) in enumerate(instances):
        path = workdir / f"{label}.txt"
        path.write_text(rapkit.format_instance(inst))
        optimum = rapkit.solve_exact(inst).cost
        # rounding seeds 0 and 1 alternate, so each size class sees both
        ops.append(_lp_op(label, inst, path, optimum, index % 2))
    largest = max(ops, key=lambda op: lp_bytes_for_solve(op.instance))
    warm = ops[0]
    return Workload(ops, top=largest.label, warmup=lambda: warm.call())


# --- exact-bnb ----------------------------------------------------------------

BNB_GK = (4, 5)
# (n_r, n_t, edge count after completion); instances with 25 or 26 edges
# take 20 to 40 s and are left out
BNB_RANDOM = ((6, 6, 23), (6, 6, 22), (5, 6, 24), (6, 5, 24))


def _exact_op(label: str, inst: rapkit.RapInstance, reference: float,
              exact_optimum: bool) -> Op:
    def call() -> Result:
        return Result(frozenset(rapkit.exact.solve_exact(inst).edge_ids))

    def quality(res: Result, cost: float) -> None:
        if exact_optimum and cost != reference:
            raise CheckFailed(f"cost {cost:g} differs from the optimum {reference:g}")
        if cost < reference:
            raise CheckFailed(f"cost {cost:g} below the lower bound {reference:g}")

    return Op(label, inst, reference, call, quality)


def _draw_bnb_random(n_r: int, n_t: int, m_completed: int) -> rapkit.RapInstance:
    """First draft from this size's stream with the given completed edge count."""
    for attempt in range(1000):
        inst = rapkit.random_instance(
            n_r, n_t, 0.6, 1.0, (1, 1),
            seed=derive(DRAFT_STREAM, "bnb", n_r, n_t, m_completed, attempt),
        )
        if inst.graph.n_edges + max(n_r, n_t) * abs(n_r - n_t) == m_completed:
            return inst
    raise RuntimeError(f"no {n_r}x{n_t} draft with {m_completed} completed edges")


def setup_exact_bnb(seed: int, workdir: Path) -> Workload:
    ops = []
    for k in BNB_GK:
        label = f"gk{k}"
        ops.append(_exact_op(label, relabel(rapkit.gk_family(k), seed, label),
                             float(2 * k + 2), True))
    for n_r, n_t, m_completed in BNB_RANDOM:
        label = f"rand{n_r}x{n_t}m{m_completed}"
        inst = relabel(_draw_bnb_random(n_r, n_t, m_completed), seed, label)
        ops.append(_exact_op(label, inst, float(2 * min(n_r, n_t)), False))
    largest = max(ops, key=lambda op: op.instance.graph.n_edges)
    return Workload(ops, top=largest.label)


# The code an op spends its time in, which picks the host-speed kernel its
# times are scaled by (see run.py). Set-up is Python on every workload.
OP_KIND = {
    "ear-ladder": "python",
    "lp-small": "numpy",
    "exact-bnb": "python",
}

SETUPS = {
    "ear-ladder": setup_ear_ladder,
    "lp-small": setup_lp_small,
    "exact-bnb": setup_exact_bnb,
}
