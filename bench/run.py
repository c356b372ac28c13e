"""hdcca benchmark: one workload, one run, one JSON line of metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload cli_cold|cli_warm|mc_study --seed N --seconds S --trace 0|1

``--trace 0`` sets up five times, then repeats the workload's unit of work
until S seconds have passed, and reports the end-to-end metrics of
BENCHMARK.json.  ``--trace 1`` sets up once, runs one plain and one traced
unit, and reports the per-layer metrics.  Either way the last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; progress and
the environment record go to stderr.  README.md says why each workload
and metric exists.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPS = 5
OPENBLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def log(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr, flush=True)


def blas_libraries() -> list[dict]:
    """Each OpenBLAS loaded in this process, with its version and thread count."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        query = next((q for q in OPENBLAS_THREAD_QUERIES if hasattr(lib, q)), None)
        if query is None:
            continue
        getter = getattr(lib, query)
        getter.restype = ctypes.c_int
        config = getattr(lib, query.replace("num_threads", "config"), None)
        if config is not None:
            config.restype = ctypes.c_char_p
        found.append({
            "library": Path(path).name,
            "config": config().decode() if config is not None else None,
            "threads": getter(),
        })
    return found


def environment() -> dict:
    import numpy
    import scipy  # noqa: F401  (loads scipy's own BLAS so it is listed)
    import scipy.linalg  # noqa: F401

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": sys.modules["scipy"].__version__,
        "blas": blas_libraries(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def flag_environment(env: dict) -> None:
    """Warn when thread overrides differ from the recorded environment."""
    recorded = json.loads((BENCH_DIR / "environment.json").read_text())
    if env["thread_env"] != recorded["thread_env"]:
        log(f"FLAG: *_NUM_THREADS {env['thread_env']} differ from the recorded {recorded['thread_env']}")
    threads = [b["threads"] for b in env["blas"]]
    if threads != [b["threads"] for b in recorded["blas"]]:
        log(f"FLAG: effective BLAS threads {threads} differ from the recorded {[b['threads'] for b in recorded['blas']]}")
    for key in ("nproc", "python", "numpy", "scipy"):
        if env[key] != recorded[key]:
            log(f"note: {key} is {env[key]}, recorded {recorded[key]}")


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload, seconds: float) -> tuple[dict, list]:
    setups = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload.setup(rep)
        setups.append(time.perf_counter() - t0)
    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        units.append(workload.unit(len(units)))
        log(f"unit {len(units)}: {units[-1].wall:.3f} s, {units[-1].attempted} ops")
    # Times are totals over the run's units.  One kind of large replicate runs
    # anywhere from 9 to 39 per second from one round to the next (two BLAS
    # threads on two shared vCPUs), so the mean of many units is steadier
    # than their median or their best.
    kinds, regime = units[0].kind_s, units[0].kind_regime
    kind_s = {k: sum(u.kind_s.get(k, 0.0) for u in units) for k in kinds}
    kind_n = {k: sum(u.kind_n.get(k, 0) for u in units) for k in kinds}
    rate = lambda r: sum(kind_n[k] for k in kinds if regime[k] == r) / sum(  # noqa: E731
        kind_s[k] for k in kinds if regime[k] == r
    )
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.mean(u.wall for u in units),
        "cpu_s": statistics.mean(u.cpu for u in units),
        "peak_rss_mb": peak_rss_mb(),
        "call_s.p50": statistics.median(kind_s[k] / kind_n[k] for k in kinds),
        "small_dim_reps_per_s": rate("small"),
        "large_dim_reps_per_s": rate("large"),
    }
    log(f"setups {[round(s, 3) for s in setups]}; {len(units)} units; "
        f"table cache hits {sum(u.cache_hits for u in units)}, misses {sum(u.cache_misses for u in units)}")
    return values, units


def single_thread_baseline() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "single_thread.py")], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def trace(workload) -> tuple[dict, list]:
    from tracing import LAYERS, layer_metrics

    workload.setup(0)
    plain = workload.unit(0)
    traced = workload.unit(0, traced=True)
    values = layer_metrics(traced.spans)
    values["cli.import_s"] = traced.import_s
    values["hyptest.table_cache.hits"] = traced.cache_hits
    values["hyptest.table_cache.misses"] = traced.cache_misses
    baseline = single_thread_baseline()
    values["cca_core.sample_cca.large.s.1t"] = baseline["sample_cca_large_s"]
    values["ensembles.manova_spectra.ms_per_draw.1t"] = baseline["manova_ms_per_draw"]
    values["trace.overhead_ratio"] = traced.wall / plain.wall
    units = [plain, traced]
    values["failed_ratio"] = sum(u.failed for u in units) / sum(u.attempted for u in units)

    shares = {layer: values[f"{layer}.self_s"] for layer in LAYERS}
    shares["cli"] += traced.import_s
    shares["unattributed"] = traced.wall - sum(shares.values())
    for layer, t in shares.items():
        values[f"share.{layer}"] = 100.0 * t / traced.wall
    log(f"{workload.name}: traced unit {traced.wall:.3f} s, plain unit {plain.wall:.3f} s")
    for layer, t in sorted(shares.items(), key=lambda kv: -kv[1]):
        log(f"  {layer:<14} {t:9.3f} s  {100.0 * t / traced.wall:5.1f}% of wall_s")
    top = max(LAYERS, key=lambda layer: shares[layer])
    verdict = "confirmed" if top in workload.predicted else "NOT confirmed"
    log(f"  largest layer {top}; predicted {' + '.join(workload.predicted)}: {verdict}")
    return values, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli_cold", "cli_warm", "mc_study"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hdcca" / "__init__.py").is_file():
        log(f"no hdcca sources under {ROOT / 'src'}: run from the root of a full checkout")
        return 2
    if args.seed < 0:
        log("--seed must be non-negative")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("HDCCA_TABLE_DIR", None)  # the benchmark's caches are its own

    import workloads

    env = environment()
    log(f"environment {json.dumps(env, sort_keys=True)}")
    flag_environment(env)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    cls = {"cli_cold": workloads.CliCold, "cli_warm": workloads.CliWarm, "mc_study": workloads.McStudy}
    workload = cls[args.workload](ROOT, work, args.seed)
    try:
        values, units = trace(workload) if args.trace else measure(workload, args.seconds)
        problems = [p for u in units for p in u.problems] + workload.final_problems()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    for p in problems[:20]:
        log(f"CHECK FAILED: {p}")
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    log(f"{attempted} operations, {failed} failed, failed_ratio {failed / attempted:.4f}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
