#!/usr/bin/env python3
"""Compare two sets of BENCH_<name>.json records (see bench/bench_common.hpp).

Usage:
    bench_compare.py BASELINE CURRENT [--tolerance REL] [--gate KEY]...
                     [--limit KEY=MAX]...

BASELINE and CURRENT are directories holding BENCH_*.json files (or two
individual files). Records are matched by file name. Performance is
measured by perfbench/, not by these records: its --trace 1 run folds the
spans per layer, and an exported Chrome trace opens in Perfetto or
chrome://tracing.

Gating rules -- the exit status is non-zero iff a gated metric drifts:
  * every metric whose key contains "acc" (accuracy percentages) is gated
    with the relative tolerance (--tolerance, default 1e-9: the determinism
    contract makes accuracy metrics bit-stable, so any real drift trips it);
  * extra keys named via --gate are gated the same way (e.g. allocation
    counts, parameter counts);
  * --limit KEY=MAX is a baseline-free absolute gate: any current record
    carrying KEY fails if its value exceeds MAX (e.g. the quantization
    accuracy-delta ceiling) -- no baseline required;
  * wall-clock / timing metrics (key ending in "_s" or containing "wall",
    "_us_", "rss", "samples_per_sec") are never gated -- they are reported
    informationally.

Everything else is reported informationally.
"""

import argparse
import json
import sys
from pathlib import Path

TIMING_MARKERS = ("wall", "_us_", "rss", "samples_per_sec")


def is_timing(key: str) -> bool:
    return key.endswith("_s") or any(m in key for m in TIMING_MARKERS)


def load_records(path: Path) -> dict[str, dict]:
    if path.is_file():
        return {path.name: json.loads(path.read_text())}
    if not path.is_dir():
        sys.exit(f"bench_compare: {path} is neither a file nor a directory")
    records = {}
    for f in sorted(path.glob("BENCH_*.json")):
        records[f.name] = json.loads(f.read_text())
    if not records:
        sys.exit(f"bench_compare: no BENCH_*.json files under {path}")
    return records


def rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", type=Path)
    ap.add_argument("current", type=Path)
    ap.add_argument("--tolerance", type=float, default=1e-9,
                    help="relative tolerance for gated metrics (default 1e-9)")
    ap.add_argument("--gate", action="append", default=[], metavar="KEY",
                    help="additional metric keys to gate exactly (repeatable)")
    ap.add_argument("--limit", action="append", default=[], metavar="KEY=MAX",
                    help="absolute baseline-free ceiling on a current metric "
                         "(repeatable)")
    args = ap.parse_args()

    def parse_kv(spec: str, flag: str) -> tuple[str, float]:
        key, sep, value = spec.partition("=")
        if not sep or not key:
            ap.error(f"{flag} expects KEY=VALUE, got {spec!r}")
        try:
            return key, float(value)
        except ValueError:
            ap.error(f"{flag} {spec!r}: {value!r} is not a number")

    limits = dict(parse_kv(s, "--limit") for s in args.limit)

    base = load_records(args.baseline)
    cur = load_records(args.current)

    failures = []

    def apply_limits(name: str, metrics: dict) -> None:
        for key, ceiling in limits.items():
            if key not in metrics:
                continue
            value = float(metrics[key])
            if value > ceiling:
                failures.append(
                    f"{name}:{key} {value:.12g} exceeds limit {ceiling:.12g}")
                print(f"  [FAIL] {key}: {value:.12g} > limit {ceiling:.12g}")
            else:
                print(f"  [ok  ] {key}: {value:.12g} <= limit {ceiling:.12g}")

    for name in sorted(set(base) | set(cur)):
        if name not in cur:
            print(f"[WARN] {name}: present in baseline only (bench not run?)")
            continue
        if name not in base:
            print(f"[INFO] {name}: new bench, no baseline to compare")
            apply_limits(name, cur[name].get("metrics", {}))
            continue

        b, c = base[name], cur[name]
        print(f"== {name} "
              f"(baseline {b.get('wall_clock_s', 0):.1f}s @ {b.get('threads')}t"
              f" -> current {c.get('wall_clock_s', 0):.1f}s @ {c.get('threads')}t)")

        bm, cm = b.get("metrics", {}), c.get("metrics", {})
        for key in bm:
            if key not in cm:
                print(f"  [WARN] {key}: dropped from current run")
                if "acc" in key or key in args.gate:
                    failures.append(f"{name}:{key} missing from current run")
                continue
            bv, cv = float(bm[key]), float(cm[key])
            gated = ("acc" in key or key in args.gate) and not is_timing(key)
            drift = rel_diff(bv, cv)
            status = "ok"
            if gated and drift > args.tolerance:
                status = "FAIL"
                failures.append(
                    f"{name}:{key} {bv:.12g} -> {cv:.12g} (rel {drift:.3g})")
            elif not gated:
                status = "info"
            print(f"  [{status:4}] {key}: {bv:.12g} -> {cv:.12g}"
                  + (f"  (rel {drift:.3g})" if drift > 0 else ""))
        for key in cm:
            if key not in bm:
                print(f"  [INFO] {key}: new metric {float(cm[key]):.12g}")
        apply_limits(name, cm)

    if failures:
        print(f"\nbench_compare: {len(failures)} gated metric(s) drifted:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nbench_compare: all gated metrics match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
