#!/usr/bin/env python3
"""End-to-end benchmark of ``route_design``: five workloads, one process.

    python3 benchmarks/e2e/run.py                       # all workloads, traced
    python3 benchmarks/e2e/run.py --smoke               # tiny sizes, < 30 s
    python3 benchmarks/e2e/run.py --workload pattern_l --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --sets 2              # repeatability proof
    python3 benchmarks/e2e/run.py --compare A.json B.json

Inputs come from ``--seed``; only calls into the router's public
functions are timed; every result is checked from outside; every metric
named in ``BENCHMARK.json`` is printed with its unit.  Nothing under
``src/`` is edited, flagged or switched by environment.  All work
happens in this process: no subprocess, no ``processes`` executor, no
server.  See README.md beside this file for the metric glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import statistics
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: {ROOT / 'src' / 'repro'} not found; the benchmark routes "
             "with the repository's own package and needs a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import layers  # noqa: E402
import trace as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import RunRecord, Workload  # noqa: E402

#: Any of these would silently move the run onto the ``processes`` policy.
FORBIDDEN_ENV = ("REPRO_FORCE_EXECUTOR", "REPRO_PROCESS_WORKERS", "REPRO_MP_START")


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def summarize(samples: List[float]) -> dict:
    """Median with the sample count, quartiles and range beside it.

    Inclusive quartiles: they stay inside the samples, where the default
    method extrapolates past min and max when a run holds two or three.
    """
    mid = statistics.median(samples)
    q1, q3 = mid, mid
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"value": mid, "n": len(samples), "min": min(samples), "q1": q1,
            "q3": q3, "max": max(samples), "samples": samples}


# --------------------------------------------------------------------- #
# Measuring
# --------------------------------------------------------------------- #
@dataclass
class Tally:
    """Everything one workload accumulated over an invocation."""

    workload: Workload
    end_to_end: List[Dict[str, float]] = field(default_factory=list)
    group_a: List[Dict[str, float]] = field(default_factory=list)
    group_b: List[Dict[str, float]] = field(default_factory=list)
    revisions: List[int] = field(default_factory=list)  # of each end_to_end row
    durations: List[float] = field(default_factory=list)  # set-up + region
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    last: Optional[RunRecord] = None  # last untraced repeat, for the checks
    spans: List[tracing.Span] = field(default_factory=list)

    def route_median(self, revision: int) -> float:
        return statistics.median(
            row["route_s"]
            for row, rev in zip(self.end_to_end, self.revisions) if rev == revision
        )

    def scores(self) -> Dict[int, set]:
        """Revision -> the distinct scores its repeats reported (one, if sane)."""
        out: Dict[int, set] = {}
        for row, rev in zip(self.end_to_end, self.revisions):
            out.setdefault(rev, set()).add(row["score"])
        return out


def one_repeat(tally: Tally, smoke: bool, seed: int, traced: bool) -> None:
    """One repeat on the next of the seed's revisions, cycling through them."""
    revision = len(tally.group_b if traced else tally.end_to_end) % workloads.REVISIONS
    input_seed = workloads.REVISIONS * seed + revision
    gc.collect()
    start = time.perf_counter()
    tracer = tracing.Tracer() if traced else None
    with tracer.installed() if tracer else nullcontext():
        prepared = workloads.prepare(tally.workload, smoke, input_seed, tracer)
        record = workloads.route(tally.workload, prepared, input_seed, tracer)
    tally.durations.append(time.perf_counter() - start)
    tally.attempted += record.nets_attempted
    if record.error is not None:
        tally.failed += record.nets_attempted
        tally.problems.append(f"run raised:\n{record.error}")
        return
    tally.failed += record.maze_failures
    if tracer is None:
        tally.end_to_end.append(layers.end_to_end(record))
        tally.revisions.append(revision)
        tally.group_a.append(layers.group_a(record))
        tally.last = record
    elif revision in tally.revisions:
        tally.spans = tracer.spans()
        totals = tracing.layer_totals(tally.spans)
        untraced = tally.route_median(revision)
        tally.group_b.append(layers.group_b(record, totals, untraced))


def run_phase(
    tallies: List[Tally], smoke: bool, seed: int, traced: bool,
    budget: float, repeats: Optional[int], floor: int,
) -> None:
    """Round-robin repeats: a noisy minute is spread over every workload.

    A workload stops at ``repeats`` when given; otherwise once another
    repeat would overrun its ``budget``, but never before ``floor``.
    """
    spent = {t.workload.name: 0.0 for t in tallies}
    done = {t.workload.name: 0 for t in tallies}
    active = list(tallies)
    while active:
        for tally in list(active):
            name = tally.workload.name
            one_repeat(tally, smoke, seed, traced)
            spent[name] += tally.durations[-1]
            done[name] += 1
            if repeats is not None:
                more = done[name] < repeats
            else:
                typical = statistics.median(tally.durations)
                more = done[name] < floor or spent[name] + typical <= budget
            if not more:
                active.remove(tally)


def run_checks(tally: Tally, break_result: bool) -> None:
    """Outside every timed region: check the last untraced repeat."""
    record = tally.last
    if record is None:
        return
    if break_result:
        _break(record)
    problems, failed = check.check_record(tally.workload, record)
    tally.problems += problems
    tally.failed += failed
    for revision, scores in tally.scores().items():
        if len(scores) > 1:
            tally.problems.append(
                f"score of revision {revision} differs between repeats: {sorted(scores)}")
    if not tally.workload.session:
        hashed = [b["session.hash_calls"] for b in tally.group_b]
        if any(hashed):
            tally.problems.append(f"one-shot workload hashed for the session: {hashed}")


def _break(record: RunRecord) -> None:
    """--force-check-failure: drop one wire so the checks must object."""
    for route in record.results[-1].routes.values():
        if route.wires:
            route.wires.pop()
            return


def measure(args, contract: dict) -> dict:
    """One set: warm up, timed rounds, traced rounds, checks; the document."""
    selected = [workloads.WORKLOADS[name] for name in args.workloads]
    tallies = [Tally(w) for w in selected]
    for workload in selected:
        workloads.warm_up(workload)
    trace_on = bool(args.trace)
    budget = args.seconds / 2 if trace_on else args.seconds
    # Every revision at least once: the score is the median over them.
    run_phase(tallies, args.smoke, args.seed, False, budget, args.repeats,
              workloads.REVISIONS)
    if trace_on:
        traced_repeats = None if args.repeats is None else 1
        run_phase(tallies, args.smoke, args.seed, True, budget, traced_repeats, 1)
    for tally in tallies:
        run_checks(tally, args.force_check_failure)

    args.out.mkdir(parents=True, exist_ok=True)
    document = {
        "meta": {"seed": args.seed, "smoke": args.smoke, "seconds": args.seconds,
                 "repeats": args.repeats, "trace": int(trace_on),
                 "cpus": os.cpu_count(), "python": sys.version.split()[0]},
        "workloads": {},
    }
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    for tally in tallies:
        name = tally.workload.name
        if tally.spans:
            tracing.write_chrome_trace(tally.spans, args.out / f"trace_{name}.json")
        document["workloads"][name] = _workload_entry(tally, units)
    return document


def _workload_entry(tally: Tally, units: Dict[str, str]) -> dict:
    def column(rows: List[Dict[str, float]]) -> Dict[str, dict]:
        return {
            key: {**summarize([row[key] for row in rows]), "unit": units[key]}
            for key in (rows[0] if rows else ())
        }

    end_to_end = column(tally.end_to_end)
    if end_to_end:
        # One sample per revision, not per repeat: the same --seed then gives
        # the same score however many repeats the box had time for.
        per_revision = [min(scores) for _, scores in sorted(tally.scores().items())]
        end_to_end["score"] = {**summarize(per_revision), "unit": units["score"]}
    return {
        "config": tally.workload.config().name,
        "repeats": len(tally.end_to_end),
        "traced_repeats": len(tally.group_b),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "end_to_end": end_to_end,
        "per_layer": {**column(tally.group_a), **column(tally.group_b)},
    }


# --------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------- #
def print_document(document: dict) -> None:
    def row(workload: str, name: str, m: dict) -> str:
        text = f"{workload:15s} {name:34s} {m['value']:>14.6g} {m['unit']:9s} n={m['n']}"
        if m["n"] > 1:
            text += (f" min {m['min']:.6g} q1 {m['q1']:.6g} "
                     f"q3 {m['q3']:.6g} max {m['max']:.6g}")
        return text

    for title, section, keep in (
        ("end-to-end (untraced repeats, medians)", "end_to_end", lambda k: True),
        ("per layer (measured)", "per_layer", lambda k: k not in layers.MODELLED),
        ("per layer (MODELLED, not wall clock)", "per_layer",
         lambda k: k in layers.MODELLED),
    ):
        print(f"\n== {title} ==")
        for workload, entry in document["workloads"].items():
            for name, metric in entry[section].items():
                if keep(name):
                    print(row(workload, name, metric))
    print("\n== checks ==")
    for workload, entry in document["workloads"].items():
        verdict = "ok" if not entry["problems"] else "FAILED"
        print(f"{workload:15s} {verdict}: {entry['failed']} of {entry['attempted']} "
              f"nets failed over {entry['repeats']}+{entry['traced_repeats']} repeats")
        for problem in entry["problems"]:
            print(f"{'':15s} - {problem}")


def result_line(document: dict, section: str) -> dict:
    """The driver's result object; metrics keyed by workload when several ran."""
    entries = document["workloads"]
    per_workload = {
        workload: {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in entry[section].items()}
        for workload, entry in entries.items()
    }
    metrics = next(iter(per_workload.values())) if len(entries) == 1 else per_workload
    return {
        "correct": not any(entry["problems"] for entry in entries.values()),
        "attempted": sum(entry["attempted"] for entry in entries.values()),
        "failed": sum(entry["failed"] for entry in entries.values()),
        "metrics": metrics,
    }


def contract_mismatch(document: dict, contract: dict, section: str) -> List[str]:
    """Names the run produced that the contract lacks, and the reverse."""
    declared = {m["name"] for m in contract[section]}
    out = []
    for workload, entry in document["workloads"].items():
        produced = set(entry[section])
        if produced != declared and not entry["problems"]:
            out.append(f"{workload}/{section}: missing {sorted(declared - produced)}, "
                       f"undeclared {sorted(produced - declared)}")
    return out


# --------------------------------------------------------------------- #
# Comparing two result documents
# --------------------------------------------------------------------- #
def compare(before: dict, after: dict, contract: dict) -> int:
    """Row per workload x end-to-end metric; returns the regressed count.

    ``regressed``: the later median is worse by more than the bound.
    ``unresolved``: not regressed, but either side's interquartile spread
    is wider than the bound, so "unchanged" cannot be claimed — unless
    every later sample reads better than every earlier one.
    """
    regressed = 0
    print(f"{'workload':15s} {'metric':12s} {'before':>12s} {'after':>12s} "
          f"{'change':>8s} {'bound':>6s} {'spread':>7s}  verdict")
    for workload, entry in before["workloads"].items():
        other = after["workloads"].get(workload)
        if other is None:
            continue
        for spec in contract["end_to_end"]:
            a, b = entry["end_to_end"].get(spec["name"]), other["end_to_end"].get(spec["name"])
            if a is None or b is None:
                continue
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (b["value"] - a["value"]) / abs(a["value"])
            # The score's quartiles are over the seed's revisions, not over
            # runs: at equal seed it is exact and has no spread.
            spread = 0.0 if spec["name"] == "score" else max(
                (m["q3"] - m["q1"]) / abs(m["value"]) for m in (a, b))
            if sign > 0:
                all_better = max(b["samples"]) < min(a["samples"])
            else:
                all_better = min(b["samples"]) > max(a["samples"])
            if worse > spec["bound"]:
                verdict = "regressed"
                regressed += 1
            elif spread > spec["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:15s} {spec['name']:12s} {a['value']:12.6g} "
                  f"{b['value']:12.6g} {worse * sign:+8.2%} {spec['bound']:6.2f} "
                  f"{spread:7.2%}  {verdict} (n={a['n']}/{b['n']})")
    return regressed


# --------------------------------------------------------------------- #
# Process hygiene
# --------------------------------------------------------------------- #
def leftovers() -> List[str]:
    """Child processes and non-daemon threads still alive, and live patches."""
    found = [f"child process {p.name} (pid {p.pid})"
             for p in multiprocessing.active_children()]
    found += [f"thread {t.name}" for t in threading.enumerate()
              if t is not threading.main_thread() and not t.daemon]
    if tracing.is_installed():
        found.append("trace wrappers still installed")
    return found


def parse_args(contract: dict) -> argparse.Namespace:
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names, dest="workloads",
                        help="run this workload only (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--repeats", type=int,
                        help="exactly this many timed repeats instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add traced repeats and per-layer figures")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repeat, tracer self-test")
    parser.add_argument("--sets", type=int, default=1,
                        help="measure this many times and compare consecutive sets")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"), type=Path,
                        help="compare two result documents and exit")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--force-check-failure", action="store_true",
                        help="corrupt one route before checking (exit-path test)")
    args = parser.parse_args()
    args.workloads = args.workloads or names
    if args.smoke:
        args.repeats, args.trace = 1, 1
    return args


def main() -> int:
    contract = load_contract()
    args = parse_args(contract)
    if args.compare:
        before, after = (json.loads(path.read_text()) for path in args.compare)
        return 1 if compare(before, after, contract) else 0

    forced = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if forced:
        print(f"run.py: unset {', '.join(forced)}: it would move the run onto the "
              "processes policy, which this benchmark does not measure", file=sys.stderr)
        return 2
    if sorted(workloads.WORKLOADS) != sorted(w["name"] for w in contract["workloads"]):
        print("run.py: BENCHMARK.json and workloads.py name different workloads",
              file=sys.stderr)
        return 2

    failures: List[str] = tracing.selftest() if args.smoke else []
    documents = []
    for index in range(args.sets):
        document = measure(args, contract)
        documents.append(document)
        suffix = f"_set{index + 1}" if args.sets > 1 else ""
        path = args.out / f"results_seed{args.seed}{suffix}.json"
        path.write_text(json.dumps(document, indent=1))
        print_document(document)
        print(f"\nwrote {path}")
    section = "per_layer" if args.trace else "end_to_end"
    failures += contract_mismatch(documents[-1], contract, section)
    for before, after in zip(documents, documents[1:]):
        print("\n== set against set ==")
        if compare(before, after, contract):
            failures.append("two sets of the same code disagree beyond the bounds")

    failures += leftovers()
    if failures:
        for failure in failures:
            print(f"run.py: {failure}", file=sys.stderr)
        return 3
    line = result_line(documents[-1], section)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
