"""Benchmark entry point: one workload, one seed, one JSON line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train_pb_b1 --seed 1 --seconds 20 --trace 0

Each phase of the workload runs in a fresh interpreter (``workloads.py``)
with BLAS pinned to one thread, so no workload inherits another's
process-global state (grad mode, BLAS thread pools, forked workers).
``--trace 0`` runs the untraced ``measure`` phase and reports the
end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` adds a
``trace`` phase over the same work and reports the per-layer metrics.
After every phase the run fails its correctness check if a shared-memory
segment or a child process outlived the phase.  Files go to
``.perfbench/<workload>-s<seed>-t<trace>/``; the last line of standard
output is the result object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: one BLAS/OpenMP thread per process: the pipeline already runs one
#: process per stage on a small host, and unpinned BLAS threads made
#: throughput swing run to run
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
#: every phase together must finish well inside the 180 s run limit
RUN_BUDGET_S = 170.0
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux), so a stage worker that outlives
    its workload process is found and stopped here."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may contain spaces; fields resume after ")"
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def reap_strays(grace_s: float = 3.0) -> list[int]:
    """Children still alive after ``grace_s`` (a resource tracker exits by
    itself once its owner is gone); those are killed and returned."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        strays = child_pids()
        if not strays or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    for pid in strays:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return strays


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def run_phase(args, phase: str, out: str, deadline: float) -> dict | None:
    env = dict(os.environ, **PINNED_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--phase", phase, "--out", out,
    ]
    shm_before = shm_segments()
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {phase} phase exceeded the run budget", file=sys.stderr)
        code = None
    strays = reap_strays()
    leaked = sorted(shm_segments() - shm_before)
    for name in leaked:
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass
    if code != 0:
        if code is not None:
            print(f"perfbench: {phase} phase exited with {code}", file=sys.stderr)
        return None
    with open(os.path.join(out, f"{phase}.json")) as f:
        result = json.load(f)
    if strays:
        result["why"].append(f"child processes outlived the phase: {strays}")
    if leaked:
        result["why"].append(f"shared-memory segments outlived the phase: {leaked}")
    result["correct"] = result["correct"] and not strays and not leaked
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out = os.path.join(ROOT, ".perfbench", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    become_subreaper()
    phases = ["measure", "trace"] if args.trace else ["measure"]
    results = {}
    for phase in phases:
        results[phase] = run_phase(args, phase, out, deadline)
        if results[phase] is None:
            return 1

    measure = results["measure"]
    if args.trace:
        trace = results["trace"]
        values = dict(measure["layer_metrics"], **trace["layer_metrics"])
        values["trace.overhead_share"] = (
            trace["overhead_basis_s"] / measure["overhead_basis_s"] - 1.0
        )
        wanted = spec["per_layer"]
    else:
        values = measure["metrics"]
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: workload did not report {missing}", file=sys.stderr)
        return 1
    for phase, result in results.items():
        for why in result["why"]:
            print(f"perfbench: {phase}: incorrect: {why}", file=sys.stderr)
    print(f"host: {json.dumps(measure['host'], sort_keys=True)}")
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        print("end-to-end (untraced phase): " + ", ".join(
            f"{k}={v:.6g} {units[k]}" for k, v in measure["metrics"].items()
        ))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
