#!/usr/bin/env python3
"""Perf-regression gate: compare fresh benchmark output against a checked-in
baseline and fail when any metric regresses beyond the threshold.

Two input formats are understood:

* ``--throughput FILE`` — a ``BENCH_throughput.json`` written by
  ``bench_throughput``; every numeric key of its ``extra`` object becomes a
  candidate metric named ``throughput:<key>`` (higher is better).
* ``--serving FILE`` — a ``BENCH_s1_serving.json`` written by
  ``bench_s1_serving``; every numeric key of its ``extra`` object becomes a
  candidate metric named ``s1:<key>`` (latency percentiles are
  lower-is-better, rates higher-is-better — see BASELINE_METRICS).
* ``--gbench FILE`` — Google Benchmark ``--benchmark_out`` JSON; every entry
  becomes ``f9:<name>`` with its ``real_time`` (lower is better).
* ``--fleet-inproc FILE`` / ``--fleet-supervised FILE`` — ``BENCH_fleet.json``
  files from the same grid run in-process and under ``--supervise N``
  (both repeatable: best-of-N is used). This mode is a *relative* gate, not
  a baseline one: it fails when the supervised clean path is more than
  ``--max-fleet-overhead`` slower than in-process, or when the two digest
  chains disagree (the supervised clean path must be bitwise identical).

Only metrics present in the baseline are checked, so the baseline file is
also the allowlist. Refresh it after an intentional perf change with::

    python3 tools/check_perf.py --baseline bench/baselines/throughput_baseline.json \
        --throughput BENCH_throughput.json --gbench BENCH_f9.json --update-baseline

A markdown delta table goes to stdout and, when the ``GITHUB_STEP_SUMMARY``
environment variable is set (GitHub Actions), to the job summary as well.

Exit codes: 0 ok, 1 regression, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from datetime import datetime, timezone

# Metrics recorded by --update-baseline. Keys are (prefix, metric) with the
# direction a *good* change moves in.
BASELINE_METRICS = {
    "throughput:t1_sessions_per_sec": "higher",
    "throughput:t1_events_per_sec": "higher",
    "throughput:net_sessions_per_sec": "higher",
    "throughput:net_events_per_sec": "higher",
    "f9:BM_EventScheduleAndFire": "lower",
    "f9:BM_VafsPlanDecision": "lower",
    "f9:BM_FullSessionSimulation": "lower",
    "s1:decisions_per_sec": "higher",
    "s1:decision_rtt_p50_us": "lower",
    "s1:decision_rtt_p99_us": "lower",
}


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"error: cannot read {path}: {err}")


def collect_current(args: argparse.Namespace) -> dict[str, float]:
    """Flattens all provided result files into {metric_name: value}."""
    current: dict[str, float] = {}
    for path in args.throughput or []:
        extra = load_json(path).get("extra", {})
        for key, value in extra.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                current[f"throughput:{key}"] = float(value)
    for path in args.serving or []:
        extra = load_json(path).get("extra", {})
        for key, value in extra.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                current[f"s1:{key}"] = float(value)
    for path in args.gbench or []:
        for bench in load_json(path).get("benchmarks", []):
            name = bench.get("name")
            time = bench.get("real_time")
            if name is not None and isinstance(time, (int, float)):
                current[f"f9:{name}"] = float(time)
    return current


def update_baseline(path: str, current: dict[str, float]) -> int:
    metrics = {}
    missing = []
    for name, direction in BASELINE_METRICS.items():
        if name in current:
            metrics[name] = {"value": current[name], "direction": direction}
        else:
            missing.append(name)
    if not metrics:
        sys.exit("error: none of the baseline metrics are present in the inputs")
    baseline = {
        "comment": "Perf baseline for tools/check_perf.py. Host-specific: refresh "
        "with --update-baseline after intentional perf changes.",
        "host": platform.node() or "unknown",
        "updated": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "metrics": metrics,
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    print(f"baseline written: {path} ({len(metrics)} metrics)")
    for name in missing:
        print(f"warning: metric not found in inputs, omitted: {name}")
    return 0


def fmt(value: float) -> str:
    if value >= 1000:
        return f"{value:,.0f}"
    return f"{value:.3g}"


def best_fleet_run(paths: list[str], label: str) -> tuple[float, str]:
    """Best (highest) sessions_per_sec across repeats + the shared digest chain.

    Repeats of the same deterministic grid must agree on the digest chain;
    best-of-N throughput is used so a noisy neighbour on one repeat does not
    fail the overhead gate.
    """
    best = 0.0
    digest = None
    for path in paths:
        data = load_json(path)
        rate = data.get("sessions_per_sec")
        chain = data.get("digest_chain")
        if not isinstance(rate, (int, float)) or rate <= 0:
            sys.exit(f"error: {path}: missing or non-positive sessions_per_sec")
        if not isinstance(chain, str) or not chain:
            sys.exit(f"error: {path}: missing digest_chain")
        if digest is None:
            digest = chain
        elif chain != digest:
            sys.exit(
                f"error: {label} repeats disagree on digest_chain "
                f"({digest} vs {chain} in {path}) — the run is not deterministic"
            )
        best = max(best, float(rate))
    return best, digest


def check_fleet_overhead(args: argparse.Namespace) -> int:
    """Gate the supervised clean path: bitwise identical, < max overhead."""
    inproc_rate, inproc_digest = best_fleet_run(args.fleet_inproc, "in-process")
    sup_rate, sup_digest = best_fleet_run(args.fleet_supervised, "supervised")

    overhead = inproc_rate / sup_rate - 1.0
    digests_match = inproc_digest == sup_digest
    over_budget = overhead > args.max_fleet_overhead

    lines = [
        f"### Supervised fleet overhead gate (limit: {args.max_fleet_overhead * 100:.0f}%)",
        "",
        "| path | best sessions/s | digest chain |",
        "|---|---:|---|",
        f"| in-process | {fmt(inproc_rate)} | `{inproc_digest}` |",
        f"| supervised | {fmt(sup_rate)} | `{sup_digest}` |",
        "",
        f"overhead: **{overhead * 100:+.1f}%** — "
        + ("❌ over budget" if over_budget else "✅ within budget")
        + " · digest chains "
        + ("✅ identical" if digests_match else "❌ DIFFER"),
    ]
    table = "\n".join(lines)
    print(table)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as fh:
            fh.write(table + "\n")

    failed = False
    if not digests_match:
        print(
            f"\nfleet gate FAILED: supervised digest chain {sup_digest} != "
            f"in-process {inproc_digest} (clean path must be bitwise identical)",
            file=sys.stderr,
        )
        failed = True
    if over_budget:
        print(
            f"\nfleet gate FAILED: supervised overhead {overhead * 100:+.1f}% exceeds "
            f"limit {args.max_fleet_overhead * 100:.0f}%",
            file=sys.stderr,
        )
        failed = True
    if not failed:
        print("\nfleet overhead gate passed")
    return 1 if failed else 0


def check(baseline_path: str, current: dict[str, float], threshold: float) -> int:
    baseline = load_json(baseline_path)
    baseline_metrics = baseline.get("metrics", {})

    # A metric the gate tracks (BASELINE_METRICS) that the current run
    # produced but the checked-in baseline has no entry for means the
    # baseline predates the bench grid — say so instead of silently
    # skipping the new metric (or KeyError-ing below on a malformed entry).
    stale = [
        name
        for name in BASELINE_METRICS
        if name in current and name not in baseline_metrics
    ]
    if stale:
        sys.exit(
            f"error: baseline {baseline_path} has no entry for: "
            + ", ".join(sorted(stale))
            + "\nthe baseline predates these bench metrics — refresh it with "
            "--update-baseline after verifying the numbers"
        )

    rows = []
    failures = []
    for name, spec in baseline_metrics.items():
        if not isinstance(spec, dict) or not isinstance(
            spec.get("value"), (int, float)
        ):
            sys.exit(
                f"error: baseline {baseline_path} entry {name!r} is malformed "
                f"(expected an object with a numeric 'value', got {spec!r}); "
                "refresh it with --update-baseline"
            )
        base = float(spec["value"])
        direction = spec.get("direction", "higher")
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: missing from current results")
            rows.append((name, base, None, None, "missing"))
            continue
        # Signed change where positive == improvement.
        change = (cur - base) / base if direction == "higher" else (base - cur) / base
        regressed = change < -threshold
        status = "REGRESSION" if regressed else "ok"
        if regressed:
            failures.append(
                f"{name}: {fmt(cur)} vs baseline {fmt(base)} "
                f"({change * 100:+.1f}%, limit -{threshold * 100:.0f}%)"
            )
        rows.append((name, base, cur, change, status))

    lines = [
        f"### Perf gate (threshold: -{threshold * 100:.0f}%)",
        "",
        "| metric | baseline | current | delta | status |",
        "|---|---:|---:|---:|---|",
    ]
    for name, base, cur, change, status in rows:
        cur_s = fmt(cur) if cur is not None else "—"
        change_s = f"{change * 100:+.1f}%" if change is not None else "—"
        mark = "✅" if status == "ok" else "❌"
        lines.append(f"| `{name}` | {fmt(base)} | {cur_s} | {change_s} | {mark} {status} |")
    table = "\n".join(lines)
    print(table)

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as fh:
            fh.write(table + "\n")

    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="checked-in baseline JSON")
    parser.add_argument("--throughput", action="append", metavar="FILE",
                        help="BENCH_throughput.json (repeatable)")
    parser.add_argument("--serving", action="append", metavar="FILE",
                        help="BENCH_s1_serving.json (repeatable)")
    parser.add_argument("--gbench", action="append", metavar="FILE",
                        help="Google Benchmark JSON (repeatable)")
    parser.add_argument("--fleet-inproc", action="append", metavar="FILE",
                        help="BENCH_fleet.json from an in-process run (repeatable)")
    parser.add_argument("--fleet-supervised", action="append", metavar="FILE",
                        help="BENCH_fleet.json from a --supervise run (repeatable)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max tolerated fractional regression (default 0.25)")
    parser.add_argument("--max-fleet-overhead", type=float, default=0.05,
                        help="max tolerated supervised-vs-inproc slowdown (default 0.05)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from the current results")
    args = parser.parse_args()

    fleet_mode = bool(args.fleet_inproc or args.fleet_supervised)
    if fleet_mode:
        if not (args.fleet_inproc and args.fleet_supervised):
            parser.error("fleet mode needs both --fleet-inproc and --fleet-supervised")
        if args.throughput or args.gbench or args.serving or args.update_baseline:
            parser.error("fleet mode does not combine with baseline-gate inputs")
        return check_fleet_overhead(args)

    if not args.throughput and not args.gbench and not args.serving:
        parser.error("provide at least one of --throughput / --gbench / --serving")
    if not args.baseline:
        parser.error("--baseline is required for the baseline gate")

    current = collect_current(args)
    if args.update_baseline:
        return update_baseline(args.baseline, current)
    return check(args.baseline, current, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
