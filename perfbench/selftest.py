"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [workload ...]

1. The benchmark's verifier agrees with rapkit's on random small instances
   and random edge subsets, feasible and infeasible, balanced or not.
2. For each workload, two short traced runs with one seed give identical
   instance digests, output edge sets and per-layer counts. A run with
   another seed must change the inputs (lp-small: keep them) and keep the
   per-layer counts.
3. Without the rapkit sources beside it, the benchmark exits non-zero and
   prints no result.

Exits 0 when every check passes. Takes a few minutes, most of it in the
ear-ladder set-up.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import rapkit  # noqa: E402

from checker import CheckFailed, check_robust  # noqa: E402


class SelfTestError(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def check_verifier_agrees(trials: int = 300) -> None:
    rng = random.Random(7)
    disagreements = feasible_seen = 0
    for trial in range(trials):
        n_r, n_t = rng.randint(2, 5), rng.randint(2, 5)
        inst = rapkit.random_instance(n_r, n_t, 0.7, rng.choice((0.0, 0.5, 1.0)), (1, 3),
                                      seed=trial)
        g = inst.graph
        subset = {e for e in g.edge_ids() if rng.random() < 0.8}
        if g.balanced:
            expected = rapkit.is_feasible_set(inst, subset)
        else:
            completion = rapkit.balanced_completion(inst)
            expected = rapkit.is_feasible_set(completion.instance, completion.encode(subset))
        try:
            check_robust(g.n_r, g.n_t, g.edges, inst.vulnerable, subset)
            got = True
        except CheckFailed:
            got = False
        feasible_seen += expected
        if got != expected:
            disagreements += 1
            print(f"verifier disagrees on trial {trial}: rapkit {expected}, benchmark {got}")
    require(disagreements == 0, f"{disagreements} disagreements")
    require(0 < feasible_seen < trials, "trials must cover feasible and infeasible subsets")
    print(f"verifier: agrees with rapkit on {trials} subsets ({feasible_seen} feasible)")


def traced_record(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    require(proc.returncode == 0, proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    require(result["correct"] and result["failed"] == 0, str(result))
    path = OUT_DIR / f"record-{workload}-seed{seed}-trace1.json"
    return json.loads(path.read_text())


def counts(record: dict) -> dict:
    return {k: m["value"] for k, m in record["metrics"].items() if m["unit"] == "count"}


def check_repeatable(workload: str) -> None:
    first = traced_record(workload, 5)
    second = traced_record(workload, 5)
    other = traced_record(workload, 6)
    require(first["instances"] == second["instances"], "instance digests differ")
    require(first["outputs"] == second["outputs"], "output edge sets differ")
    diff = {k: (v, counts(second)[k]) for k, v in counts(first).items() if counts(second)[k] != v}
    require(not diff, f"per-layer counts differ: {diff}")
    print(f"{workload}: 2 runs agree on {len(first['instances'])} instance digests, "
          f"{len(first['outputs'])} outputs, {len(counts(first))} counts")
    same_inputs = first["instances"] == other["instances"]
    same_work = counts(first) == counts(other)
    print(f"{workload}: another seed gives {'the same' if same_inputs else 'other'} inputs "
          f"and {'the same' if same_work else 'other'} per-layer counts")
    # lp-small ignores the seed; the others rename nodes but keep the work
    require(same_inputs == (workload == "lp-small"),
            f"{workload}: another seed should {'not ' if workload == 'lp-small' else ''}"
            "change the inputs")
    require(same_work, f"{workload}: another seed changed the per-layer counts")


def check_bare_directory() -> None:
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "exact-bnb", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(proc.returncode != 0, "benchmark succeeded without the program")
    require('"metrics"' not in proc.stdout, "benchmark printed a result without the program")
    print(f"bare directory: exit {proc.returncode}, no result printed")


def main(argv: list[str]) -> int:
    workloads = argv or ["ear-ladder", "lp-small", "exact-bnb"]
    check_verifier_agrees()
    for workload in workloads:
        check_repeatable(workload)
    check_bare_directory()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
