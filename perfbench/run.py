"""cryoguide benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload guided-demo --seed 0 --seconds 35 --trace 0

Run from the repository root; cryoguide is imported from ./src.  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it
makes pairs of one untraced and one traced call and reports the per-layer
metrics.
Before the result it prints one line with the environment, and it writes the
result, the environment and (when traced) every span to
perfbench/results/<workload>-seed<seed>-trace<trace>.json.  The last line of
standard output is the result as one JSON object.  See perfbench/README.md.
"""

import os

# Held fixed before numpy loads: one BLAS/OpenMP thread and one cryoguide
# worker, so the benchmark process is the only thing computing.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["CRYOGUIDE_WORKERS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
# the probe runs after the import, so that numpy's import cost stays in setup_s
SETUP_CODE = ("import sys, time; t = time.perf_counter(); import cryoguide; "
              "dt = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
              "import speed; print(dt, sum(speed.probe() for _ in range(200)) / 200)")

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("rmsd_mean", "A"),
    ("rscc_mean", "ratio"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]


def import_cryoguide():
    """Import cryoguide from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import cryoguide
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import cryoguide from {SRC}: {exc}")
    if not os.path.abspath(cryoguide.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported cryoguide from {cryoguide.__file__}, not {SRC}")
    return cryoguide


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median over fresh interpreters of the time `import cryoguide` takes,
    scaled by the speed probe each interpreter runs right after it."""
    import speed
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, HERE], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        seconds, probe_s = map(float, proc.stdout.split())
        times.append(seconds * speed.REFERENCE_S / probe_s)
    return statistics.median(times)


def kernel_check() -> tuple[dict, bool | None]:
    """Compare the active splat backend with the NumPy reference kernel.

    Runs only when the compiled `_splat_cy` imports; returns the record and
    whether the kernels agreed (None when the check was skipped).
    """
    import numpy as np
    from cryoguide import _kernels
    from cryoguide._kernels import _splat_py
    try:
        from cryoguide._kernels import _splat_cy  # noqa: F401
    except ImportError:
        return {"backend": _kernels.BACKEND,
                "agreement_check": "skipped: compiled _splat_cy not importable"}, None
    rng = np.random.default_rng(0)
    coords = rng.uniform(5.0, 35.0, (200, 3))
    amps = rng.uniform(6.0, 8.0, 200)
    shape, origin, voxel, sigma = (40, 40, 40), np.zeros(3), 1.0, 0.45
    field = rng.standard_normal(shape)
    ok = (np.allclose(_kernels.splat(coords, amps, shape, origin, voxel, sigma),
                      _splat_py.splat(coords, amps, shape, origin, voxel, sigma),
                      atol=1e-10)
          and np.allclose(_kernels.splat_grad(coords, amps, field, origin, voxel, sigma),
                          _splat_py.splat_grad(coords, amps, field, origin, voxel, sigma),
                          atol=1e-10))
    return {"backend": _kernels.BACKEND,
            "agreement_check": "passed" if ok else "FAILED"}, bool(ok)


def git_sha() -> str | None:
    """HEAD of the checkout's git repository; None outside one or without git."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(cryoguide, workload: str, seed: int, kernels: dict) -> dict:
    import numpy
    import scipy
    return {
        "workload": workload, "seed": seed,
        "kernel_backend": cryoguide.KERNEL_BACKEND, "kernels": kernels,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("CRYOGUIDE_WORKERS",
                                                               "CRYOGUIDE_KERNELS")},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cryoguide": cryoguide.__version__,
        "git_sha": git_sha(), "machine": platform.machine(),
    }


def measure(wl, seconds: float, trace: bool, workdir: str) -> dict:
    """Call the prepared workload `wl` repeatedly for about `seconds`.

    Starts another call while at least half of an average call so far still
    fits in the budget, so runs end within half a call of it on average.  At
    least one call is made.  When tracing, calls come in pairs of one untraced
    and one traced call, which goes first alternating from pair to pair
    (untraced, traced, traced, untraced, ...), and only whole pairs are made.
    Call n runs the workload on its input item n, or n // 2 when tracing, so
    that both calls of a pair see the same input.
    """
    import speed
    import tracer as tr
    tracer = tr.Tracer() if trace else None
    times = {False: [], True: []}     # reference seconds, see speed.py
    wall = {False: [], True: []}
    outcomes = []
    t0 = time.perf_counter()
    while True:
        traced = trace and len(outcomes) % 4 in (1, 2)
        outdir = os.path.join(workdir, f"call{len(outcomes)}")
        gauge = speed.Gauge()
        with contextlib.ExitStack() as stack:
            if traced:
                tracer.run = len(outcomes)
                stack.enter_context(tracer.installed(tr.targets()))
            stack.enter_context(gauge.sampling())
            t = time.perf_counter()
            res = wl.call(outdir, len(outcomes) // 2 if trace else len(outcomes))
            dt = time.perf_counter() - t
        wall[traced].append(dt)
        times[traced].append(dt * gauge.scale())
        outcomes.append(wl.check(res))
        shutil.rmtree(outdir, ignore_errors=True)
        elapsed = time.perf_counter() - t0
        whole = not trace or len(outcomes) % 2 == 0
        if whole and elapsed + elapsed / len(outcomes) / 2 > seconds:
            break
    return {"times": times, "wall": wall, "outcomes": outcomes, "tracer": tracer}


def result(m: dict, setup_s: float | None, kernel_ok: bool | None, trace: bool) -> dict:
    """The benchmark's one-line result from a `measure` record."""
    import tracer as tr
    outcomes = m["outcomes"]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if kernel_ok is not None:
        attempted += 1
        failed += not kernel_ok
    run_s = statistics.median(m["times"][False])
    if trace:
        n = len(m["times"][True])
        values = tr.layer_metrics(m["tracer"].spans, n)
        # the i-th traced and the i-th untraced call form one pair, made back
        # to back, so each difference sees the same machine speed and data
        values["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(m["times"][True], m["times"][False]))
        units = {name: unit for name, unit, _ in tr.PER_LAYER}
    else:
        values = {
            "setup_s": setup_s,
            "run_s": run_s,
            "rmsd_mean": statistics.fmean(x for o in outcomes for x in o.rmsd),
            "rscc_mean": statistics.fmean(x for o in outcomes for x in o.rscc),
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}}


def main(argv=None) -> int:
    cryoguide = import_cryoguide()
    sys.path.insert(0, HERE)
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    trace = bool(args.trace)

    kernels, kernel_ok = kernel_check()
    env = environment(cryoguide, args.workload, args.seed, kernels)
    print("perfbench environment: " + json.dumps(env, sort_keys=True), flush=True)
    setup_s = None if trace else measure_setup()
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "work")) as workdir:
        wl = workloads.WORKLOADS[args.workload](workdir, args.seed)
        wl.prepare()
        m = measure(wl, args.seconds, trace, workdir)
    res = result(m, setup_s, kernel_ok, trace)

    record = {"environment": env, "result": res,
              "calls": {"untraced_s": m["times"][False], "traced_s": m["times"][True],
                        "untraced_wall_s": m["wall"][False], "traced_wall_s": m["wall"][True]},
              "counts": [o.counts for o in m["outcomes"]],
              "checks": [o.checks for o in m["outcomes"]]}
    if trace:
        record["spans"] = m["tracer"].records()
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, default=float)
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
