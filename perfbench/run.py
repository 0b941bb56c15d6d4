"""flowplug benchmark: one workload per process, end-to-end metrics with
tracing off (``--trace 0``) or per-layer metrics from a traced run
(``--trace 1``). The last line of standard output is one JSON object.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

See perfbench/README.md for the metrics and what each workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"  # work directories, results, cross-run expectations
WORKLOAD_NAMES = ("pipeline", "evaluate", "edit_requests")
BLAS_THREADS = 1

# gated end-to-end metrics, reported by every workload
END_TO_END = [
    ("setup_s", "s"),
    ("task_s", "s"),
    ("stacks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("final_loss", "nats"),
    ("mod_acc_pct", "%"),
    ("retention_pct", "%"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the timed part runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> None:
    """Pin the BLAS pool; has to run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_flowplug() -> None:
    """Import flowplug from this checkout's src/ and nowhere else."""
    if not (SRC / "flowplug" / "__init__.py").is_file():
        raise ImportError(f"no flowplug sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import flowplug

    if Path(flowplug.__file__).resolve().parent != (SRC / "flowplug").resolve():
        raise ImportError(f"flowplug resolved to {flowplug.__file__}, not this checkout")


def tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "nproc": nproc(),
        "platform": platform.platform(),
        "git_rev": rev,
        "src_sha256": tree_sha256(SRC),
        "bench_sha256": tree_sha256(BENCH),
    }


class Contention:
    """Load average and this process's CPU share around the measured part.
    A run is flagged contended when the 1-minute load before or after it
    exceeds the CPU count (more runnable threads than CPUs; a benchmark run
    that just ended still shows in the load), or when this process got under
    90% of a CPU while timed."""

    def __init__(self):
        self.load_before = os.getloadavg()
        self.cpu0 = time.process_time()
        self.wall0 = time.perf_counter()
        self.switches0 = resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw

    def finish(self) -> dict:
        load_after = os.getloadavg()
        cpu_share = (time.process_time() - self.cpu0) / (time.perf_counter() - self.wall0)
        contended = max(self.load_before[0], load_after[0]) > nproc() or cpu_share < 0.9
        return {
            "load_before": self.load_before,
            "load_after": load_after,
            "cpu_share": cpu_share,
            "involuntary_switches": resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw - self.switches0,
            "contended": bool(contended),
        }


def run_units(run, wl, state, seconds: float | None = None, count: int | None = None) -> list[dict]:
    """Timed units of work: a fixed count, or as many as start within
    ``seconds`` (at least one)."""
    units = []
    t0 = time.perf_counter()
    while len(units) < (count or 1) or (count is None and time.perf_counter() - t0 < seconds):
        units.append(wl.unit(run, state, len(units)))
        run.attempted += 1
    return units


def measure_untraced(run, wl, seconds: float) -> dict:
    setup_times = []
    for _ in range(wl.setup_repeats):
        state = None  # one set-up's data alive at a time
        t0 = time.perf_counter()
        state = wl.setup(run)
        setup_times.append(time.perf_counter() - t0)
    contention = Contention()
    units = run_units(run, wl, state, seconds=seconds)
    contention = contention.finish()
    # read before the output checks, whose own arrays are not the workload's
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res = wl.finish(run, state, units, STATE / "expect")
    values = {
        "setup_s": statistics.median(setup_times),
        "task_s": res["task_s"],
        "stacks_per_s": res["stacks_per_s"],
        "peak_rss_mb": peak_mb,
        "final_loss": res["final_loss"],
        "mod_acc_pct": res["quality"]["mod_acc_pct"],
        "retention_pct": res["quality"]["retention_pct"],
    }
    return {
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END},
        "named": {"setup_s": ("s", values["setup_s"], len(setup_times)), **res["named"], "peak_rss_mb": ("MB", peak_mb, 1)},
        "units": len(units),
        "setup_samples_s": setup_times,
        "phases_s": res.get("phases"),
        "contention": contention,
    }


def measure_traced(run, wl, tracer) -> dict:
    """One traced set-up, then the workload's fixed trace units once
    untraced and once traced (the ratio of their median unit times is the
    tracing overhead). The output checks run after the tracer is removed,
    so that their calls are not counted as the program's work."""
    import workloads
    from layers import PER_LAYER, layer_metrics

    count = workloads.TRACE_UNITS[wl.name]
    tracer.install()
    state = wl.setup(run)
    tracer.uninstall()
    contention = Contention()
    plain_s = statistics.median(u["wall_s"] for u in run_units(run, wl, state, count=count))
    tracer.install()
    units = run_units(run, wl, state, count=count)
    tracer.uninstall()
    traced_s = statistics.median(u["wall_s"] for u in units)
    contention = contention.finish()
    res = wl.finish(run, state, units, STATE / "expect")
    metrics, counts, detail = layer_metrics(tracer.spans)
    metrics["synthetic.dataset_bytes"] = run.files["dataset_bytes"]
    metrics["training.checkpoint_bytes"] = run.files["checkpoint_bytes"]
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    metrics["quality.identity_mse"] = res["quality"]["identity_mse"]
    workloads.compare_expectation(run, "exact_counts", counts, STATE / "expect")
    return {
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in PER_LAYER},
        "exact_counts": counts,
        "layer_detail": detail,
        "traced_units": count,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "contention": contention,
    }


def run_workload(args) -> dict:
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[args.workload]
    work_dir = STATE / "work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    env = environment()
    code_key = f"src{env['src_sha256'][:16]}-bench{env['bench_sha256'][:12]}"
    run = workloads.Run(args.workload, args.seed, code_key, work_dir, tracer)
    out = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env}
    try:
        out.update(measure_traced(run, wl, tracer) if args.trace else measure_untraced(run, wl, args.seconds))
    except Exception as exc:  # the run still reports: one more failed attempt
        traceback.print_exc(file=sys.stderr)
        run.attempted += 1
        run.failed += 1
        run.checks.append({"check": "workload ran to completion", "ok": False, "detail": repr(exc)})
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
    out["checks"] = run.checks
    out["attempted"] = max(1, run.attempted)
    out["failed"] = run.failed
    out["correct"] = run.failed == 0
    return out


def print_report(result: dict) -> None:
    env = result["environment"]
    print(f"# flowplug benchmark  workload={result['workload']}  seed={result['seed']}  trace={result['trace']}")
    print(
        f"# numpy {env['numpy']}  {env['blas_name']} {env['blas_version']}  blas_threads={env['blas_threads']}  "
        f"nproc={env['nproc']}  python {env['python']}  rev={env['git_rev'] or 'src:' + env['src_sha256'][:12]}"
    )
    c = result.get("contention")
    if c:
        flag = "CONTENDED" if c["contended"] else "quiet"
        print(f"# load {c['load_before'][0]:.2f} -> {c['load_after'][0]:.2f}  cpu_share={c['cpu_share']:.2f}  {flag}")
    for name, (unit, value, n) in result.get("named", {}).items():
        print(f"{name:36s} {value:14.6g} {unit:6s} n={n}")
    if result["trace"]:
        for name, m in result.get("metrics", {}).items():
            print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
        for name, value in result.get("layer_detail", {}).get("workload_specific", {}).items():
            print(f"{name:36s} {value:14.6g} (results file only)")
        if "traced_units" in result:
            print(f"# tracing overhead, median of {result['traced_units']} unit(s): "
                  f"{result['untraced_s']:.3f} s untraced, {result['traced_s']:.3f} s traced")
    for chk in result["checks"]:
        print(f"check {'ok  ' if chk['ok'] else 'FAIL'} {chk['check']}  {chk['detail']}")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        print("\n".join(proc.stdout.splitlines()[:-1]))
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    pin_threads()
    try:
        import_flowplug()
    except ImportError as exc:
        print(f"error: cannot load flowplug: {exc}", file=sys.stderr)
        return 2
    result = run_workload(args)
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    detail_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    detail_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print_report(result)
    print(f"# detail: {detail_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result.get("metrics", {}),
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
