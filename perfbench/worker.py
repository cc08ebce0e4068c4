"""One fresh worker process of the gframes benchmark.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --phase setup|run|trace --workdir DIR

Every phase first sets up (imports gframes for the in-process workloads,
generates the seeded inputs, writes the specs, runs one warm-up case) and
times that.  `setup` stops there; `run` then runs whole rounds of cases,
closed loop with one client, until S seconds have passed; `trace` runs
rounds untraced for S/2 seconds and the same number of rounds again under
the tracer, in-process (for cli-mix through `cli.main`).  The last line of
standard output is one JSON object for run.py.
"""
from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import tracer as T
from workloads import WORKLOADS

PROBES = (("cli.interp_s", "pass"), ("cli.numpy_import_s", "import numpy"),
          ("cli.import_s", "import gframes.cli"))
PROBE_REPEATS = 5


def blas_threads():
    """Thread count the loaded OpenBLAS will use, or None if not OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "cli_launch": f"{sys.executable} -m gframes.cli",
        "pythonpath": os.environ.get("PYTHONPATH"),
    }


def measure(wl, run, seconds=None, rounds=None, tracer=None) -> dict:
    """Closed loop over whole rounds; stops after `rounds` rounds or at the
    first round boundary after `seconds`.  Output checks run between cases,
    outside the timed region and with the tracer inactive.  `problems` maps a
    case index to what was wrong with it."""
    labels, times, fps, problems = [], [], [], {}
    first = {}
    start = perf_counter()
    done = 0
    while (done < rounds) if rounds is not None else (perf_counter() - start < seconds):
        for case in wl.round():
            index = len(times)
            if tracer is not None:
                tracer.begin_case(index)
            t = perf_counter()
            try:
                out, found = run(case), []
            except Exception as exc:  # a case that raises is counted, never dropped
                out, found = None, [f"raised {type(exc).__name__}: {exc}"]
            dt = perf_counter() - t
            if tracer is not None:
                tracer.end_case()
            fp = None
            if out is not None:
                found = wl.check(case, out)
                fp = wl.fingerprint(out)
                if first.setdefault(case.label, fp) != fp:
                    found.append("output differs from the same case earlier in this run")
            labels.append(case.label)
            times.append(dt)
            fps.append(fp)
            if found:
                problems[index] = f"{case.label}: " + "; ".join(found)
                print(f"case {index} {problems[index]}", file=sys.stderr)
        done += 1
    return dict(labels=labels, times=times, fingerprints=fps, problems=problems, rounds=done)


def probe_cli() -> dict:
    """Median wall time of interpreter, numpy and gframes.cli start-up."""
    out = {}
    for key, code in PROBES:
        walls = []
        for _ in range(PROBE_REPEATS):
            t = perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
            walls.append(perf_counter() - t)
        out[key] = statistics.median(walls)
    return out


def traced_phase(wl, seconds: float) -> dict:
    """Untraced rounds, then the same rounds traced; the traced outputs must
    equal the untraced ones and no wrapper may outlive the phase."""
    run = wl.run if wl.in_process else wl.run_in_process
    plain = measure(wl, run, seconds=seconds / 2.0)
    tracer = T.Tracer()
    tracer.install()
    traced = measure(wl, run, rounds=plain["rounds"], tracer=tracer)
    leftovers = tracer.uninstall()
    n = len(traced["times"])
    bad = traced["problems"]
    untraced = dict(zip(plain["labels"], plain["fingerprints"]))
    for i, (label, fp) in enumerate(zip(traced["labels"], traced["fingerprints"])):
        if fp != untraced[label]:
            bad[i] = bad.get(i, "") + " traced output differs from the untraced one"
    for i, self_s in T.case_self_times(tracer.spans).items():
        if self_s > traced["times"][i]:
            bad[i] = bad.get(i, "") + f" layer self times {self_s} exceed the case wall time"
    if leftovers:
        bad[n - 1] = bad.get(n - 1, "") + f" wrappers still bound after the run: {leftovers}"
    metrics = T.layer_metrics(tracer.spans, n)
    metrics.update({key: 0.0 for key, _ in PROBES} if wl.in_process else probe_cli())
    # both phases ran the same whole rounds, so their summed times cover the
    # same cases; a median would land on a ~20 ms case in cli-mix and read noise
    metrics["trace.overhead_frac"] = sum(traced["times"]) / sum(plain["times"]) - 1.0
    problems = ([f"untraced case {i} {p}" for i, p in plain["problems"].items()]
                + [f"traced case {i} {p}" for i, p in bad.items()])
    return dict(metrics=metrics, attempted=len(plain["times"]) + n,
                failed=len(plain["problems"]) + len(bad), problems=problems,
                spans=len(tracer.spans), labels=traced["labels"],
                untraced_times=plain["times"], traced_times=traced["times"],
                inclusive=T.inclusive_by_label(tracer.spans, traced["labels"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--phase", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    t0 = perf_counter()
    cls = WORKLOADS[args.workload]
    if cls.in_process or args.phase == "trace":
        for layer in T.LAYERS:
            importlib.import_module(f"gframes.{layer}")
    wl = cls(args.seed, args.workdir)
    warm = wl.warm_up_case()
    warm_problems = wl.check(warm, wl.run(warm))
    setup_s = perf_counter() - t0
    result = dict(setup_s=setup_s, sha256=wl.sha256)
    if args.phase == "run":
        m = measure(wl, wl.run, seconds=args.seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF if wl.in_process
                                 else resource.RUSAGE_CHILDREN).ru_maxrss
        result.update(labels=m["labels"], times=m["times"], rounds=m["rounds"],
                      attempted=len(m["times"]), failed=len(m["problems"]),
                      problems=[f"case {i} {p}" for i, p in m["problems"].items()],
                      peak_rss_mb=rss / 1024.0, env=environment())
    elif args.phase == "trace":
        result.update(traced_phase(wl, args.seconds), env=environment())
    if warm_problems:
        result["attempted"] = result.get("attempted", 0) + 1
        result["failed"] = result.get("failed", 0) + 1
        result["problems"] = result.get("problems", []) + [f"warm-up: {warm_problems}"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
