#!/usr/bin/env python3
"""gframes benchmark: one command for every workload, timed end to end
(--trace 0) or traced per layer (--trace 1).

    python3 perfbench/run.py --workload cli-mix|frames-dense|coherent-fock \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (it needs src/gframes).  Each run
starts fresh worker processes (perfbench/worker.py): with --trace 0, four
that only set up and a fifth that sets up and then measures, so `setup_s`
is the median of five set-ups; with --trace 1, one that measures untraced
and then traced.  BLAS runs single-threaded in every worker and every
`gframe` process.  The full record of a run (environment, input digest,
per-case times, any failed check) goes to .perfbench/results/; the last line
of standard output is the JSON summary:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the lines before it print each metric by name and unit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-mix", "frames-dense", "coherent-fock")
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170
BLAS_THREADS = "1"   # one client, one core: steadier than a thread pool on a shared box

END_TO_END = {
    "cases_per_s": ("1/s", "higher"),
    "case_s.p50": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
_LAYER_TIMES = ("linalg.decomp_s", "linalg.self_s", "frames.self_s", "frames.classify_s",
                "duality.self_s", "duality.kernel_vector_s", "perturbation.self_s",
                "perturbation.gavruta_s", "coherent.self_s", "coherent.build_fock_s",
                "coherent.ladder_s", "coherent.quadrature_s", "coherent.uncertainty_s",
                "coherent.bicoherent_s", "frame_io.parse_s", "frame_io.serialize_s",
                "cli.interp_s", "cli.numpy_import_s", "cli.import_s", "cli.main_s",
                "cli.self_s")
_LAYER_COUNTS = ("linalg.eigh.calls", "linalg.svd.calls", "linalg.other.calls",
                 "frames.calls", "frames.frame_operator.calls", "duality.calls",
                 "perturbation.calls", "coherent.calls")
PER_LAYER = {
    **{k: ("count", "lower") for k in _LAYER_COUNTS},
    **{k: ("s", "lower") for k in _LAYER_TIMES},
    "linalg.factor_mb": ("MB", "lower"),
    "frame_io.mb": ("MB", "lower"),
    **{f"{layer}.raised": ("count", "lower") for layer in
       ("linalg", "frames", "duality", "perturbation", "coherent", "frame_io", "cli")},
    "trace.overhead_frac": ("fraction", "lower"),
}


def run_worker(root: str, env: dict, argv: list) -> dict:
    """Run one worker in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv} exited {proc.returncode}:\n{err[-2000:]}")
    sys.stderr.write(err)
    return json.loads(out.strip().splitlines()[-1])


def median_case(labels, times) -> float:
    """Median wall time of one case of the workload, each case timed as the
    median of its repeats over the run's rounds.  Every round holds every
    case once, so one slow round moves no case, and a mix whose median falls
    between two size classes averages their medians, not their extremes."""
    by_case = {}
    for label, t in zip(labels, times):
        by_case.setdefault(label, []).append(t)
    return statistics.median(statistics.median(ts) for ts in by_case.values())


def source_sha256(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "gframes")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gframes", "__init__.py")):
        print("run from the root of a gframes checkout: src/gframes is missing",
              file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    workdir = os.path.join(root, ".perfbench", f"work-{args.workload}-{os.getpid()}")
    src = os.path.join(root, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--workdir", workdir]
    problems = []
    try:
        if args.trace:
            res = run_worker(root, env, common + ["--phase", "trace"])
            metrics = {k: res["metrics"][k] for k in PER_LAYER}
            digests = {res["sha256"]}
        else:
            setups = [run_worker(root, env, common + ["--phase", "setup"])
                      for _ in range(SETUP_REPEATS - 1)]
            res = run_worker(root, env, common + ["--phase", "run"])
            times = res["times"]
            metrics = {
                "cases_per_s": len(times) / sum(times),
                "case_s.p50": median_case(res["labels"], times),
                "peak_rss_mb": res["peak_rss_mb"],
                "setup_s": statistics.median([s["setup_s"] for s in setups] + [res["setup_s"]]),
            }
            digests = {s["sha256"] for s in setups} | {res["sha256"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = res["attempted"], res["failed"]
    if len(digests) != 1:
        problems.append(f"the same seed generated different inputs: {sorted(digests)}")
        attempted, failed = attempted + 1, failed + 1
    problems = res.get("problems", []) + problems

    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": sorted(digests),
        "env": {**res["env"], "blas_threads_env": BLAS_THREADS,
                "git_commit": git_commit(root), "source_sha256": source_sha256(root),
                "loadavg_start": load_start, "loadavg_end": os.getloadavg()},
        "metrics": {k: {"value": v, "unit": units[k][0], "better": units[k][1]}
                    for k, v in metrics.items()},
        "attempted": attempted, "failed": failed, "problems": problems,
        "worker": {k: v for k, v in res.items() if k not in ("env", "metrics", "problems")},
    }
    out_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} cases={res['attempted']} "
          f"inputs={record['inputs_sha256'][0][:16]} record={os.path.relpath(path, root)}")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    for p in problems[:20]:
        print(f"# FAILED {p}")
    for name, (unit, better) in units.items():
        print(f"{args.workload:14s} {name:30s} {metrics[name]:14.6g} {unit:8s} "
              f"({better} is better)")
    print(f"{args.workload:14s} {'fail_frac':30s} {failed / attempted:14.6g} fraction "
          f"({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
