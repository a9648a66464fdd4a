"""Does the benchmark agree with itself?  Run it in sets and compare.

    python3 benchmarks/e2e/repeat.py                 # 2 sets x 1 run, same seed
    python3 benchmarks/e2e/repeat.py --runs 10       # 2 sets x 10 seeds each

Every set runs every workload ``--runs`` times (run *i* of each set uses
seed ``--seed + i``, so the sets see identical inputs).  Per end-to-end
metric x workload it prints each set's median, how far apart the sets'
medians lie (largest over smallest, minus one), the widest spread inside
a set (quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives it) and the metric's bound
from ``BENCHMARK.json``.

Exit status is non-zero when any two sets' medians lie further apart than
the bound -- in either direction: for identical code the direction is
noise -- when, with at least four runs per set, a spread exceeds its
bound (``setup_s`` is exempt from the spread check, as in the acceptance
run), or when ``exposure_max_share`` or ``stored_bytes_per_user_byte``
fails to repeat to the last digit on a closed-loop workload.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import run as runner


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def disagreement(medians: list[float]) -> float:
    """How far apart the sets' medians lie, as a share of the smallest."""
    return max(medians) / min(medians) - 1.0


#: Counts of the program's placement, not timings: under one seed they
#: repeat exactly wherever one client drives the stack.
EXACT = ("exposure_max_share", "stored_bytes_per_user_byte")


def judge(per_set: list[list[float]], metric: dict, exact: bool) -> tuple[float, float | None, str]:
    """(medians apart by, widest spread or None, verdict -- "" when fine)
    for one metric on one workload; *per_set* holds each set's values."""
    name, bound = metric["name"], metric["bound"]
    apart = disagreement([statistics.median(v) for v in per_set])
    sp = max(map(spread, per_set)) if len(per_set[0]) >= 4 else None
    if apart > bound:
        return apart, sp, "sets disagree"
    if sp is not None and sp > bound and name != "setup_s":
        return apart, sp, "spread over bound"
    if exact and any(v != per_set[0] for v in per_set):
        return apart, sp, "does not repeat exactly"
    return apart, sp, ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=1, help="runs (seeds) per set")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workload", action="append",
                        help="restrict to these workloads (repeatable)")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    contract = runner.load_contract()
    if args.seconds is None:
        args.seconds = 1.5 if args.smoke else float(contract["run_seconds"])
    names = args.workload or [w["name"] for w in contract["workloads"]]

    # values[set][workload][metric] -> one value per run
    values = [
        {w: {m["name"]: [] for m in contract["end_to_end"]} for w in names}
        for _ in range(args.sets)
    ]
    failed_ops = 0
    base_seed = args.seed
    for set_no, set_values in enumerate(values, start=1):
        for i in range(args.runs):
            args.seed = base_seed + i
            for workload in names:
                result = runner.run_subprocess(workload, args, trace=0, echo=False)
                print(f"set {set_no} seed {args.seed} "
                      f"{workload}: {result['attempted']} ops, "
                      f"{result['failed']} failed", flush=True)
                failed_ops += result["failed"]
                for name, metric in result["metrics"].items():
                    set_values[workload][name].append(metric["value"])

    runner._bootstrap()
    import workloads

    bad = []
    header = ["workload", "metric"] + [f"median{i + 1}" for i in range(args.sets)]
    header += ["apart", "spread", "bound"]
    rows = [header]
    for workload in names:
        closed = isinstance(workloads.WORKLOADS[workload], workloads.ClosedLoop)
        for metric in contract["end_to_end"]:
            name = metric["name"]
            per_set = [s[workload][name] for s in values]
            apart, sp, verdict = judge(per_set, metric, closed and name in EXACT)
            if verdict:
                bad.append((workload, name))
            rows.append(
                [workload, name]
                + [f"{statistics.median(v):.5g}" for v in per_set]
                + [f"{apart:.2%}", "-" if sp is None else f"{sp:.2%}",
                   f"{metric['bound']:.0%}" + (f"  <-- {verdict}" if verdict else "")]
            )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    print()
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    print(f"\nops_failed {failed_ops}; {len(bad)} metric x workload pair(s) out of bounds")
    return 1 if bad or failed_ops else 0


if __name__ == "__main__":
    sys.exit(main())
