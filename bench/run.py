"""settraj benchmark.

    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` it runs every workload, one at a time, each in its
own process, and prints a summary; with ``--trace 1`` it also runs each one
traced. With ``--workload`` it runs that workload in this process: it sets
up its inputs from ``--seed``, repeats one pass of library calls for about
``--seconds`` seconds, checks every output, prints the metrics by name with
their units, and ends with one JSON line. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics and writes the spans.
Reports and spans go to ``--out`` (default ``bench/out``).

The benchmark runs the settraj sources in ``src/`` next to this directory and
exits with code 2 when they are missing. See bench/README.md.
"""

import os

# Single-thread BLAS, set before anything imports numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train-desk", "train-full", "pipeline")
E2E_UNITS = {
    "setup_s": "s",
    "train_seq_steps_per_s": "seq/s",
    "val_ade_m": "m",
    "eval_seqs_per_s": "seq/s",
    "infer_seq_ms_min": "ms",
    "infer_seq_ms_p50": "ms",
    "infer_seq_ms_p90": "ms",
    "csv_load_rows_per_s": "rows/s",
    "csv_save_rows_per_s": "rows/s",
    "baseline_seqs_per_s": "seq/s",
    "peak_rss_mb": "MB",
}
# Printed and recorded, but left out of the result line and BENCHMARK.json:
# after one optimizer step the full model's ADE varies with the training data
# by more than any bound allows, and on a shared machine the latency
# percentiles measure other tenants' load more than the program
# (bench/README.md).
UNGATED = ("val_ade_m", "infer_seq_ms_p50", "infer_seq_ms_p90")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=HERE / "out")
    p.add_argument("--tiny", action="store_true",
                   help="tiny sizes, for the smoke test")
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "seed": seed,
    }


RATES = ("train_seq_steps_per_s", "eval_seqs_per_s", "csv_load_rows_per_s",
         "csv_save_rows_per_s", "baseline_seqs_per_s")


def samples(passes) -> dict:
    """Every per-call rate and latency of the passes, by metric."""
    out = {name: [x for p in passes for x in getattr(p, name)]
           for name in RATES}
    out["infer_ms"] = [ms for p in passes for ms in p.infer_ms]
    return out


def end_to_end(passes, setup_s: float) -> dict:
    """The metrics of the measured passes.

    Training and evaluation are one call of a second or more per pass, which
    averages the machine's speed over the call; their rates are the median
    over the passes. The other calls last milliseconds, and each is slowed
    or not by other tenants of the machine, which never make one faster: their
    rates are the fastest call's, and ``infer_seq_ms_min`` the fastest
    ``run_model`` call's. The latency deciles pool every ``run_model`` call.
    """
    s = samples(passes)
    deciles = statistics.quantiles(s["infer_ms"], n=10, method="inclusive")
    values = {
        "setup_s": setup_s,
        "train_seq_steps_per_s": statistics.median(
            s["train_seq_steps_per_s"]),
        "val_ade_m": passes[0].val_ade_m,
        "eval_seqs_per_s": statistics.median(s["eval_seqs_per_s"]),
        "infer_seq_ms_min": min(s["infer_ms"]),
        "infer_seq_ms_p50": deciles[4],
        "infer_seq_ms_p90": deciles[8],
        "csv_load_rows_per_s": max(s["csv_load_rows_per_s"]),
        "csv_save_rows_per_s": max(s["csv_save_rows_per_s"]),
        "baseline_seqs_per_s": max(s["baseline_seqs_per_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return {k: (v, E2E_UNITS[k]) for k, v in values.items()}


def show(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")


def measure(args, w, wl, tally, work: Path) -> dict:
    """Set up several times, run the known-defect probe on train-desk, then
    repeat the pass until the next one would end after ``--seconds``.

    With ``--trace 1`` the passes alternate, untraced first, so that the
    tracing overhead compares passes from the same stretch of time. Before
    the first traced pass the inputs are set up once more under the tracer.
    """
    from tracer import Tracer

    setups = []
    for _ in range(w.setup_repeats):
        t = wl.now()
        inputs = wl.set_up(w, args.seed, work)
        setups.append(wl.now() - t)
    probe = (wl.probe_gapped_training(w, inputs, args.seed)
             if w.name == "train-desk" else None)

    untraced, traced, tracer = [], [], None
    deadline = wl.now() + args.seconds
    while True:
        tracing = bool(args.trace) and len(untraced) > len(traced)
        if tracing:
            if tracer is None:
                tracer = Tracer()
                tracer.install()
                inputs = wl.set_up(w, args.seed, work)
            else:
                tracer.install()
        try:
            result = wl.run_pass(w, inputs, work, tally)
        except Exception as exc:  # noqa: BLE001 - count it, then report
            tally.attempted += 1
            tally.check(False, f"{type(exc).__name__}: {exc}")
            traceback.print_exc()
            break
        finally:
            if tracing:
                tracer.uninstall()
        (traced if tracing else untraced).append(result)
        tally.check(result.val_ade_m == untraced[0].val_ade_m,
                    "val ADE differs between identical passes")
        if wl.now() + result.wall_s > deadline and (traced or not args.trace):
            break
    return {"setup": statistics.median(setups), "setups": setups,
            "probe": probe,
            "untraced": untraced, "traced": traced, "tracer": tracer}


def per_layer(w, run: dict) -> dict:
    """The tracer's per-layer metrics plus the tracing overhead."""
    traced, untraced = run["traced"], run["untraced"]
    metrics = run["tracer"].metrics(
        loaded=sum(p.loaded for p in traced),
        saved=sum(p.saved for p in traced),
        generated=w.n_train + w.n_eval)
    wall = statistics.median(p.wall_s for p in traced)
    ref = statistics.median(p.wall_s for p in untraced)
    metrics["trace.overhead_pct"] = (100.0 * (wall - ref) / ref, "%")
    return metrics


def run_workload(args) -> int:
    if not (SRC / "settraj" / "__init__.py").is_file():
        print(f"error: settraj sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl
    import_s = time.perf_counter() - T_START

    w = wl.get_workload(args.workload, args.tiny)
    env = environment(args.seed)
    tally = wl.Tally()
    work = args.out / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = measure(args, w, wl, tally, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    measured = run["traced"] if args.trace else run["untraced"]
    if not measured:
        print("error: no pass completed", file=sys.stderr)
        return 1

    e2e = end_to_end(measured, import_s + run["setup"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(measured)} passes, "
          f"{sum(len(p.infer_ms) for p in measured)} run_model calls")
    print("  environment " + json.dumps(env))
    print("end-to-end" + (" (traced passes)" if args.trace else ""))
    show(e2e)
    attempted, failed = tally.attempted, tally.failed
    if run["probe"] is not None:
        print(f"  known defect, training on a gapped sequence: {run['probe']}")
        attempted += 1
        failed += run["probe"] != "ok"
    print(f"  {'failed_share':36s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} ops)")
    for note in tally.notes:
        print(f"  FAILED: {note}")

    report = {"workload": args.workload, "environment": env,
              "passes": len(measured), "known_defect_probe": run["probe"],
              "failures": tally.notes,
              "end_to_end": {k: v for k, (v, _) in e2e.items()},
              "setups_s": run["setups"], "import_s": import_s,
              "samples": samples(measured)}
    stem = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        reference = end_to_end(run["untraced"], import_s + run["setup"])
        print("tracing overhead: traced minus untraced passes")
        for name, (value, unit) in e2e.items():
            if name not in ("setup_s", "val_ade_m", "peak_rss_mb"):
                ref = reference[name][0]
                print(f"  {name:36s} {value - ref:+14.6g} {unit} "
                      f"({100.0 * (value - ref) / ref:+.1f}%)")
        metrics = per_layer(w, run)
        print("per-layer (per sequence unless named per step or call)")
        show(metrics)
        run["tracer"].write_csv(f"{stem}.spans.csv")
        report["per_layer"] = {k: v for k, (v, _) in metrics.items()}
    else:
        metrics = {k: v for k, v in e2e.items() if k not in UNGATED}
    Path(f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one at a time."""
    results = {}
    for trace in ((0, 1) if args.trace else (0,)):
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--out", str(args.out)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
                return proc.returncode
            results[(name, trace)] = json.loads(
                proc.stdout.strip().splitlines()[-1])
    print("\nsummary")
    for (name, trace), res in results.items():
        print(f"{name} trace {trace}: correct {res['correct']}, "
              f"{res['failed']} of {res['attempted']} ops failed")
        show({k: (m["value"], m["unit"]) for k, m in res["metrics"].items()})
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
