"""The dtgcert benchmark: timed workloads with checked outputs.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --workload all        # every workload in turn

Run from the root of a checkout; the package is taken from its src/
directory. Load is closed-loop: this process starts one child interpreter
per pass (bench/child.py), waits for it, checks its output with oracle.py,
and starts the next, until the next pass would end past --seconds (with at
least three passes). A timed pass is always a fresh process, because every
real `dtgcert` invocation is one: a cache that survived from one pass to the
next would be measured as free.

--trace 0 prints the end-to-end metrics: items_per_ref, setup_s and
peak_rss_mb, and for reading only items_per_s, pass_s.tail and
failed_frac, which the result line leaves out. --trace 1 alternates
untraced passes with traced ones (layer wrappers from spans.py installed)
and prints the per-layer metrics, taken from the traced passes only, and
trace.overhead_s. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
pass's output was correct, the oracle's self-test caught every break it
tried, and (traced) every traced pass made the same calls.
"""
import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import spans

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SPANS_DIR = Path(__file__).resolve().parent / "out"

WORKLOADS = ("sweep-default", "ree-deep", "tables-fault")
MIN_PASSES = 3
SETUP_SAMPLES = 10
#: No pass starts that would end after this, even short of the minimum passes.
HARD_LIMIT_S = 150
CHILD_TIMEOUT_S = 150

#: Span name -> the per-span metrics the traced run reports for it.
SPAN_METRICS = {
    "exact.Poly.mul": ("calls",),
    "exact.Poly.eval": ("calls", "s"),
    "exact.exp_compare": ("calls", "s"),
    "exact.factorize": ("calls", "s"),
    "groups.outer_subgroup_options": ("calls",),
    "groups.coset_index": ("calls",),
    "tables.build_table": ("calls", "s"),
    "tables.instantiate": ("calls", "s"),
    "tables.verify_mass_symbolic": ("calls", "s"),
    "gates.multiplicity_free_gate": ("calls", "s"),
    "gates.sigma_in_x_gate": ("calls", "s"),
    "gates.involution_gate": ("calls", "s"),
    "gates.bhk_gate": ("calls", "s"),
    "gates.kernel_chain_gate": ("calls", "s"),
    "gates.bcn_small_case_gate": ("calls", "s"),
    "pipeline.emit": ("calls", "s"),
    "cli.main": ("s",),
}

#: End-to-end figures printed for reading but left out of the result line.
#: They are wall times, and on a shared host other tenants' load moves them
#: by more than any bound for minutes at a time; items_per_ref is the gated
#: form of the throughput.
PRINTED_ONLY = ("items_per_s", "pass_s.tail")


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def last_json_line(text):
    lines = text.decode(errors="replace").strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def setup_samples():
    """Import times of SETUP_SAMPLES import-only children.

    One more child runs first and is dropped: it compiles the bytecode, as
    an installed package would already have it. Every child must import
    the package from this checkout's src/.
    """
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, str(CHILD), "setup"], cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S
        )
        record = last_json_line(done.stderr) if done.returncode == 0 else None
        if record is None or not record["dtgcert_file"].startswith(str(ROOT / "src") + os.sep):
            raise HarnessError(f"dtgcert does not import from {ROOT / 'src'}: {done.stderr.decode(errors='replace').strip()}")
        samples.append(record["setup_s"])
    return samples[1:]


def run_pass(workload, seed, trace):
    """One child pass: (record or None, stdout bytes, problems found, wall seconds)."""
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{workload}.tsv"
    argv = [sys.executable, str(CHILD), workload, str(seed), "1" if trace else "0", str(spans_path)]
    t0 = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, b"", [f"pass timed out after {CHILD_TIMEOUT_S} s"], time.perf_counter() - t0
    wall = time.perf_counter() - t0
    record = last_json_line(done.stderr) if done.returncode == 0 else None
    if record is None:
        tail = "\n".join(done.stderr.decode(errors="replace").strip().splitlines()[-5:])
        return None, done.stdout, [f"child exited {done.returncode} without a pass record:\n{tail}"], wall
    return record, done.stdout, oracle.check(workload, record["codes"], done.stdout), wall


def tail_percentile(values):
    """(p, value): the highest whole percentile with at least ten samples
    beyond it, by nearest rank. Below twenty samples no percentile from p50
    up has ten beyond it, and the median stands in as p50."""
    n = len(values)
    if n < 20:
        return 50, statistics.median(values)
    pct = 100 * (n - 10) // n
    return pct, sorted(values)[math.ceil(pct * n / 100) - 1]


def measure(workload, seed, seconds, trace):
    """Run passes until the time is spent; returns the collected run state."""
    start = time.perf_counter()
    state = {"attempted": 0, "failed": 0, "problems": [], "untraced": [], "traced": [], "walls": {False: [], True: []}}
    state["setup_s"] = setup_samples()
    self_tested = False
    while True:
        traced = trace and len(state["traced"]) < len(state["untraced"])
        record, out, problems, wall = run_pass(workload, seed, traced)
        state["attempted"] += 1
        state["walls"][traced].append(wall)
        if record is not None:
            state["traced" if traced else "untraced"].append(record)
            if not problems and not self_tested:
                self_tested = True
                missed = oracle.self_test(workload, record["codes"], out)
                state["problems"] += [f"oracle self-test: not rejected: {label}" for label in missed]
        if problems:
            state["failed"] += 1
            state["problems"] += problems
        elapsed = time.perf_counter() - start
        enough = len(state["untraced"]) >= (1 if trace else MIN_PASSES) and len(state["traced"]) >= (2 if trace else 0)
        if record is None and not state["untraced"] + state["traced"]:
            break
        next_traced = trace and len(state["traced"]) < len(state["untraced"])
        next_wall = statistics.median(state["walls"][next_traced] or state["walls"][not next_traced])
        if elapsed + next_wall > (seconds if enough else HARD_LIMIT_S):
            break
    if not self_tested:
        state["problems"].append("oracle self-test did not run: no pass was correct")
    return state


def end_to_end(workload, state):
    records = state["untraced"]
    items = oracle.items(workload)
    pass_s = [r["pass_s"] for r in records]
    pct, tail = tail_percentile(pass_s)
    setup_s = state["setup_s"] + [r["setup_s"] for r in records]
    metrics = {
        "items_per_ref": (items / statistics.median(r["pass_s"] / r["ref_s"] for r in records), "1/ref"),
        "items_per_s": (items / statistics.median(pass_s), "1/s"),
        "pass_s.tail": (tail, "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in records) / 1024, "MB"),
    }
    notes = {
        "items_per_ref": f"{items} items / median over {len(records)} passes of pass time in reference runs",
        "items_per_s": f"{items} items / median pass {statistics.median(pass_s):.4f} s; printed only",
        "pass_s.tail": f"p{pct} of {len(pass_s)} passes; printed only",
        "setup_s": f"median of {len(setup_s)} fresh imports",
        "peak_rss_mb": "median child ru_maxrss",
    }
    return metrics, notes


def per_layer(state):
    summaries = [r["trace"] for r in state["traced"]]
    first = summaries[0]
    if any(s["calls"] != first["calls"] for s in summaries[1:]):
        state["problems"].append("traced passes disagree on call counts")
    metrics = {}
    for span, kinds in SPAN_METRICS.items():
        if "calls" in kinds:
            metrics[f"{span}.calls"] = (first["calls"].get(span, 0), "count")
        if "s" in kinds:
            metrics[f"{span}.s"] = (statistics.median(s["s"].get(span, 0.0) for s in summaries), "s")
    metrics["fusion.calls"] = (sum(v for k, v in first["calls"].items() if k.startswith("fusion.")), "count")
    for span, key in (("tables.build_table", "distinct_families"), ("tables.instantiate", "distinct_instantiations")):
        calls = first["calls"].get(span, 0)
        metrics[f"{span}.redundancy"] = (calls / first[key] if first[key] else 0.0, "calls/key")
    metrics["pipeline.emit.bytes"] = (first["emit_bytes"], "bytes")
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median(s["self_s"][layer] for s in summaries), "s")
    traced = statistics.median(r["pass_s"] for r in state["traced"])
    metrics["trace.overhead_s"] = (traced - statistics.median(r["pass_s"] for r in state["untraced"]), "s")
    notes = {"trace.overhead_s": f"median of {len(summaries)} traced passes minus median of {len(state['untraced'])} untraced"}
    return metrics, notes


def report(workload, seed, seconds, trace):
    """Run one workload; print its metric lines; return its result object."""
    state = measure(workload, seed, seconds, trace)
    if not state["untraced"] or (trace and not state["traced"]):
        for problem in state["problems"]:
            print(f"{workload}: {problem}", file=sys.stderr)
        raise HarnessError(f"{workload}: no pass produced a record")
    metrics, notes = per_layer(state) if trace else end_to_end(workload, state)
    seed_note = f"seed {seed}" if workload == "tables-fault" else f"seed {seed} unused (fixed inputs)"
    print(f"== {workload}  {seed_note}  passes {state['attempted']}  trace {int(trace)}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {value:>16.6g} {unit}{note}")
    if not trace:
        frac = state["failed"] / state["attempted"]
        print(f"  {'failed_frac':<40} {frac:>16.6g} ({state['failed']}/{state['attempted']} passes failed the output check)")
    for problem in state["problems"]:
        print(f"{workload}: {problem}", file=sys.stderr)
    return {
        "correct": not state["problems"],
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items() if name not in PRINTED_ONLY
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "dtgcert" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'dtgcert'}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = report(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            results = {w: report(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
            }
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
