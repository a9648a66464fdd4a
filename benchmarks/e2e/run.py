"""One command for the whole end-to-end benchmark.

    python3 benchmarks/e2e/run.py                      # every workload
    python3 benchmarks/e2e/run.py --traced             # ... plus per-layer pass
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` each workload runs in its own fresh subprocess
(RSS and warm state never leak between workloads) and a summary table
is printed.  With ``--workload`` this process *is* that fresh
subprocess: it prints every metric by name with its unit and sample
count, then -- as the last line -- one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs a short untraced reference pass, then the same pass
with every layer boundary wrapped (see ``tracing.py``), and prints the
per-layer metrics.  ``BENCHMARK.json`` at the repository root is the
single list of workload and metric names, units and bounds;
``layers.json`` beside this file says which end-to-end metric each
per-layer metric should move, and on which workload.

Timings are quoted on a reference machine: each sample is wall seconds
divided by the box's speed read next to it (``harness.Calibrator``).
The ``box_speed`` line gives the run's median reading, so wall time on
this box is about the reported time multiplied by it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: How often a run sets its stack up; ``setup_s`` is the median.
SETUPS = 3

#: Fixed sizes of the traced pass, so its call counts repeat exactly.
TRACED_REPS = 5
TRACED_OPS = 600
REFERENCE_OPS = 1000


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bootstrap() -> None:
    """Make the program and the harness importable from a bare checkout."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"error: {SRC / 'repro'} not found; run from a full checkout")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def _end_to_end(result) -> dict[str, tuple]:
    """``metric -> (value, sample count)``."""
    import harness

    log = result.log
    setups = result.setup_seconds

    def mbps(kind):
        # The workload's file size (the mean size, on the fleet) over the
        # median latency, so the figure does not depend on which sizes a
        # seed happened to draw.
        mib = result.nominal_bytes / harness.MIB
        return mib / (log.median_ms(kind) / 1e3), log.count(kind)

    def p50(kind):
        return log.median_ms(kind), log.count(kind)

    return {
        "upload_mbps": mbps("put"),
        "download_mbps": mbps("get"),
        "degraded_download_mbps": mbps("degraded_get"),
        "get_p50_ms": p50("get"),
        "put_p50_ms": p50("put"),
        "update_p50_ms": p50("update"),
        "exposure_max_share": (result.exposure, 1),
        "stored_bytes_per_user_byte": (result.stored_ratio, 1),
        "rss_peak_mib": (harness.rss_peak_mib(), 1),
        "setup_s": (statistics.median(setups), len(setups)),
    }


def _run_pass(spec, args, workdir: Path, tracer=None, fixed: int | None = None,
              setups: int = 1):
    import workloads

    if isinstance(spec, workloads.ClosedLoop):
        return workloads.run_closed(
            spec, args.seed, args.seconds, workdir, args.smoke, setups,
            tracer=tracer, reps=fixed,
        )
    return workloads.run_open(
        spec, args.seed, args.seconds, setups, tracer=tracer, ops=fixed
    )


def _per_layer(spec, args, workdir: Path) -> tuple[dict[str, tuple], list]:
    """Reference pass, traced pass, and (fleet only) the rate ladder."""
    import harness
    import tracing
    import workloads
    from repro.core.privacy import ChunkSizePolicy

    closed = isinstance(spec, workloads.ClosedLoop)
    if closed:
        ref_n = traced_n = 1 if args.smoke else TRACED_REPS
        chunk_size = spec.chunk_size or ChunkSizePolicy().chunk_size(spec.level)
    else:
        ref_n, traced_n = (100, 100) if args.smoke else (REFERENCE_OPS, TRACED_OPS)
        chunk_size = ChunkSizePolicy().chunk_size(spec.spec.privacy_level)
    reference = _run_pass(spec, args, workdir, fixed=ref_n)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = _run_pass(spec, args, workdir, tracer=tracer, fixed=traced_n)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump([s.to_dict() for s in spans], fh)

    chunks_moved = sum(
        -(-n // chunk_size)
        for kind in ("put", "get", "update", "degraded_get")
        for n in traced.log.nbytes[kind]
    )
    values = tracing.layer_metrics(spans, chunks_moved)

    healthy = ("put", "get", "update", "delete")
    if closed:
        # Same op counts on both passes, so total healthy wall compares.
        walls = [
            sum(sum(r.log.seconds[k]) for k in healthy) for r in (traced, reference)
        ]
        overhead = walls[0] / walls[1] - 1.0
        lateness, best_rate = 0.0, 0.0
    else:
        overhead = (
            traced.notes["service_p50_ms"] / reference.notes["service_p50_ms"] - 1.0
        )
        lateness = reference.notes["lateness_p95_ms"]
        best_rate, rows = workloads.rate_ladder(
            spec, args.seed, step_s=1.0 if args.smoke else None
        )
        for row in rows:
            print(
                f"ladder rate={row['rate']:.0f}/s p95={row['p95_ms']:.3f} ms "
                f"achieved={row['achieved_ratio']:.3f} ok={row['ok']}"
            )
    ref = reference.log
    every = [s for k in healthy for s in ref.seconds[k]]
    values.update({
        "trace.overhead": overhead,
        "loadgen.lateness_p95_ms": lateness,
        "loadgen.p99_ms": harness.percentile(every, 99.0) * 1e3,
        "loadgen.get_p95_ms": ref.percentile_ms("get", 95.0),
        "loadgen.put_p95_ms": ref.percentile_ms("put", 95.0),
        "loadgen.update_p95_ms": ref.percentile_ms("update", 95.0),
        "loadgen.delete_p50_ms": ref.median_ms("delete"),
        "loadgen.max_rate_ok": best_rate,
    })
    counts = {
        "loadgen.p99_ms": len(every),
        "loadgen.get_p95_ms": ref.count("get"),
        "loadgen.put_p95_ms": ref.count("put"),
        "loadgen.update_p95_ms": ref.count("update"),
        "loadgen.delete_p50_ms": ref.count("delete"),
    }
    traced_ops = traced.log.attempted
    out = {
        name: (value, counts.get(name, traced_ops)) for name, value in values.items()
    }
    return out, [reference, traced]


def _pin_to_one_cpu() -> None:
    """Run the whole stack -- clients, pool threads, chunk servers -- on one
    core.  On this shared 2-vCPU guest, cross-CPU wake-ups swing every
    thread hand-off (one per wire round trip) severalfold with the
    neighbours' load, and the speed reading of one core says little about
    work that ran on the other: unpinned, the same runs spread two to four
    times wider (README, "Holding still")."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(args) -> int:
    """Run one workload here; print its metrics and the result line."""
    _bootstrap()
    _pin_to_one_cpu()
    import workloads

    contract = load_contract()
    spec = workloads.WORKLOADS[args.workload]
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[group]}
    workdir = HERE / ".work" / str(os.getpid())
    print(f"workload {spec.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}{' smoke' if args.smoke else ''}")
    try:
        if args.trace:
            values, results = _per_layer(spec, args, workdir)
        else:
            result = _run_pass(
                spec, args, workdir, setups=1 if args.smoke else SETUPS
            )
            values, results = _end_to_end(result), [result]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            workdir.parent.rmdir()

    digest = results[0].notes.get("trace_digest")
    if digest:
        print(f"trace_digest {digest}")
    if set(values) != set(units):
        raise SystemExit(
            f"error: metrics measured {sorted(set(values) ^ set(units))} "
            f"do not match BENCHMARK.json {group}"
        )
    # Informational: how this box compared with the reference machine
    # all timings are quoted on.  Wall time here ~ reported time x this.
    print(f"box_speed {results[0].speed:.4f} x reference")
    for name, unit in units.items():
        value, n = values[name]
        print(f"{name} {value:.6g} {unit} n={n}")
    attempted = sum(r.log.attempted for r in results)
    failed = sum(r.log.failed for r in results)
    print(f"ops_attempted {attempted} ops_failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name][0], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


# ---------------------------------------------------------------------------
# every workload, each in a fresh subprocess
# ---------------------------------------------------------------------------


def run_subprocess(workload: str, args, trace: int, echo: bool = True) -> dict:
    """Run one workload in a fresh interpreter; parse its result line."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if echo:
        sys.stdout.write(done.stdout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: workload {workload} exited {done.returncode}")
    return json.loads(done.stdout.rstrip().splitlines()[-1])


def should_move(contract: dict) -> dict[str, str]:
    """``per-layer metric -> "upload_mbps on 1, 3"`` from ``layers.json``
    (workloads numbered in ``BENCHMARK.json`` order)."""
    number = {w["name"]: str(i) for i, w in enumerate(contract["workloads"], start=1)}
    layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["layers"]
    return {
        metric: (", ".join(layer["should_move"]) or "-")
        + " on " + ", ".join(number[w] for w in layer["on"])
        for layer in layers
        for metric in layer["metrics"]
    }


def render_table(contract: dict, group: str, results: dict[str, dict]) -> str:
    names = list(results)
    moves = should_move(contract) if group == "per_layer" else None
    rows = [["metric", "unit"] + names + (["should move"] if moves else [])]
    for metric in contract[group]:
        row = [metric["name"], metric["unit"]]
        for name in names:
            row.append(f"{results[name]['metrics'][metric['name']]['value']:.5g}")
        if moves:
            row.append(moves[metric["name"]])
        rows.append(row)
    rows.append(["ops_attempted", "count"] + [str(results[n]["attempted"]) for n in names])
    rows.append(["ops_failed", "count"] + [str(results[n]["failed"]) for n in names])
    widths = [max(len(r[i]) for r in rows if i < len(r)) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def run_suite(args) -> int:
    contract = load_contract()
    print(f"seed {args.seed}")
    ok = True
    for trace in (0, 1) if args.traced else (0,):
        group = "per_layer" if trace else "end_to_end"
        results = {
            w["name"]: run_subprocess(w["name"], args, trace)
            for w in contract["workloads"]
        }
        print(f"\n== {group} (seed {args.seed}) ==")
        print(render_table(contract, group, results))
        ok = ok and all(r["correct"] for r in results.values())
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=13,
                        help="the only source of payloads, traces and schedules")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: wrap the layer boundaries, print per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="suite mode: also run the --trace 1 pass")
    parser.add_argument("--smoke", action="store_true",
                        help="small size class: tiny files, short phases")
    parser.add_argument("--trace-out", help="with --trace 1: dump the spans as JSON here")
    args = parser.parse_args(argv)
    contract = load_contract()
    if args.seconds is None:
        args.seconds = 1.5 if args.smoke else float(contract["run_seconds"])
    if args.workload is None:
        if args.trace_out:
            parser.error("--trace-out needs --workload (one file holds one trace)")
        return run_suite(args)
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.traced:
        args.trace = 1
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
