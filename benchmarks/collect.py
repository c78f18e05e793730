"""Aggregate every ``BENCH_*.json`` record into one trajectory file.

Each benchmark run (``conftest.register_table``) drops a
machine-readable ``results/BENCH_<name>.json`` next to its rendered
table.  This collector merges all of them into a single
``results/BENCH_trajectory.json`` — the one artifact CI uploads per
run, so the perf trajectory across commits is a download-and-diff away
instead of a scrape of N loose files.

Usage::

    python collect.py [--results-dir results] [--output BENCH_trajectory.json]

The output records are sorted by name for stable diffs.  Exits
non-zero when no records exist — an empty trajectory upload would mask
a benches-never-ran CI wiring failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path


def collect(results_dir: Path) -> list:
    """Load every BENCH_*.json record in ``results_dir``, name-sorted."""
    records = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        if path.name == "BENCH_trajectory.json":
            continue  # never fold a previous aggregation into itself
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"collect: skipping {path.name}: {exc}", file=sys.stderr)
            continue
        payload.setdefault("name", path.stem.removeprefix("BENCH_"))
        records.append(payload)
    return records


def headline(record: dict) -> str:
    """One human line per record for the collection log."""
    metrics = record.get("metrics") or {}
    for key in ("speedup", "score", "total_time"):
        if key in metrics:
            return f"{record['name']}: {key}={metrics[key]:.3f}"
    return f"{record['name']}: {len(metrics)} metrics"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=Path(__file__).parent / "results",
        help="directory holding the per-bench BENCH_*.json records",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="trajectory file to write (default: <results-dir>/BENCH_trajectory.json)",
    )
    args = parser.parse_args(argv)
    output = args.output or args.results_dir / "BENCH_trajectory.json"

    if not args.results_dir.is_dir():
        print(f"collect: no results directory at {args.results_dir}", file=sys.stderr)
        return 1
    records = collect(args.results_dir)
    if not records:
        print(f"collect: no BENCH_*.json records in {args.results_dir}", file=sys.stderr)
        return 1

    trajectory = {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "n_records": len(records),
        "records": records,
    }
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"collect: wrote {len(records)} records to {output}")
    for record in records:
        print("  " + headline(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
