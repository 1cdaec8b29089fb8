"""Benchmark of the selfrank pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload full60-eval --seed 0 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from its `src`
directory. Rounds of short timed units repeat for `--seconds` (at least
`min_rounds`); the first round warms up and is not sampled. A stage's time is
the sum of its units' fastest repeats. With
`--trace 0` the last stdout line reports the end-to-end metrics; with
`--trace 1` one more round runs traced and the last line reports the
per-layer metrics. The line before it is the full record: machine facts,
workload counts, every sample, failures and artifact hashes. The record and,
when traced, the spans are also written under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("full60-eval", "cli30")
DEFAULT_SEED = 0
HELD_OUT_SEED = 4099  # not used while the benchmark was written; re-check claims on it
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def source_digest() -> str:
    """Digest of the program and benchmark sources: what 'one commit' means here."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def identity_defect(key: str, hashes: dict) -> str | None:
    """CLI artifacts must hash identically across the runs of one commit.

    The hashes of the first run per (source digest, size, seed) are kept in
    .perfbench_out/identity.json; later runs compare against them. Within a
    run, the rounds' counts, hashes included, are compared as they run.
    """
    store = OUT / "identity.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        return None if known[key] == hashes else "artifacts differ from an earlier run"
    known[key] = hashes
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True, indent=1))
    os.replace(tmp, store)
    return None


def fastest_repeats(rounds: list) -> float:
    """The sum over a stage's units of each unit's fastest time in the run.

    `rounds` holds, per sampled round, the times of the stage's units in a
    fixed order; every round repeats the same units on the same inputs.
    """
    return float(sum(min(times) for times in zip(*rounds)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "selfrank" / "__init__.py").is_file():
        print(f"perfbench: no selfrank sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # One BLAS thread on one CPU: a unit's time then follows the state of one
    # vCPU of a shared host, not the slower of two. Set before numpy loads.
    os.environ.update({name: "1" for name in BLAS_THREAD_VARS})
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    warnings.simplefilter("ignore")  # split warnings for users with < 3 ratings
    import tracing
    import workloads

    machine = machine_facts()
    workload = workloads.WORKLOADS[args.size][args.workload]
    workdir = OUT / f"{args.workload}-{args.size}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = workloads.Run(workload, args.seed, workdir)
    path = run.write_inputs()

    rounds = []
    traced = None
    try:
        # The first round warms up and is not sampled. A round starts only
        # while it is expected to end within --seconds, or to reach min_rounds.
        started = time.perf_counter()
        while len(rounds) < workload.min_rounds or time.perf_counter() - started + rounds[-1].seconds < args.seconds:
            rounds.append(run.run_round(path))
        if args.trace:
            run.tracer = tracing.Tracer()
            with run.tracer.patched():
                traced = run.run_round(path)
    except workloads.RoundAborted:
        print(f"perfbench: a round aborted; failures: {run.failures}", file=sys.stderr)
        return 1

    digest = source_digest()
    counts = rounds[0].counts
    if "hashes" in counts:
        run.check("artifact identity", identity_defect(f"{digest}/{args.size}/{args.seed}", counts["hashes"]))

    samples = {name: [r.samples[name] for r in rounds[1:]] for name in rounds[0].samples}
    stages = {name: fastest_repeats(times) for name, times in samples.items()}
    end_to_end = {
        "setup_s": {"value": stages["setup"], "unit": "s"},
        "pipeline_s": {"value": sum(stages.values()), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    metrics = end_to_end
    if traced is not None:
        metrics = run.tracer.layer_metrics({
            "cli.checkpoint_bytes": counts.get("checkpoint_bytes", 0),
            "losses.test_loss": traced.test_loss,
            "trace.overhead_s": traced.seconds - min(r.seconds for r in rounds[1:]),
        })
        (workdir / "spans.json").write_text(json.dumps(run.tracer.to_json()))

    record = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "source_digest": digest,
        "machine": machine,
        "counts": counts,
        "rounds": len(rounds),
        "samples": samples,
        "test_loss": [r.test_loss for r in rounds],
        "stages": stages,
        "round_s": [r.seconds for r in rounds],
        "end_to_end": end_to_end,
        "per_layer": metrics if traced is not None else None,
        "error_rate": run.failed / max(run.attempted, 1),
        "failures": run.failures,
    }
    text = json.dumps(record, sort_keys=True, default=str)
    (workdir / "record.json").write_text(text + "\n")
    (workdir / "u.data").unlink()
    shutil.rmtree(workdir / "cli", ignore_errors=True)
    print(text)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
