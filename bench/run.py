"""mvpdl benchmark: four closed-loop workloads, end to end and per layer.

    python3 bench/run.py --workload check --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1 --seconds 20 [--out bench/baseline.json]

Run from the repository root.  With --workload, one workload runs in this
process: set-up (import of mvpdl from ./src plus generating and writing the
inputs, repeated SETUP_REPEATS times), then one client issuing the
workload's cycle of ops one after another until --seconds of timed wall
time have passed.  The untraced cycle is ROUNDS[workload] rounds of the
workload's inputs, each drawn afresh from the seed, so that a run covers
several models and several hundred to a few thousand distinct inputs:
with one round, which few models and formulas a seed draws would move
throughput and percentiles more than the program does.  Every answer is
checked against an independent reference outside the timed region.
--trace 0 reports the end-to-end metrics.  --trace 1 instead runs one
round's cycle untraced, then each known-defect probe once (untimed, never
counted as an op; every one that fails is listed), then the same cycle
traced, and reports the per-layer metrics; spans go to
bench/out/<workload>-spans.jsonl.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.

Without --workload every workload runs, each untraced and then traced, in
its own fresh interpreter, and the summary of all of them is printed.

Timing on a shared machine.  Other tenants slow this process by up to a
half for seconds at a time.  A fixed pure-Python loop (`machine_loop`) is
timed between ops, at most every CALIBRATE_EVERY_S of timed work and
outside the timed region, and each op's time is scaled by REFERENCE_LOOP_S
over the median of the CALIBRATE_WINDOW loop samples nearest to it: the
time the op would take on a machine running the loop in REFERENCE_LOOP_S.
A median, because single loop samples jump to several times their usual
time (a collection or a preemption), and scaling the ops beside such a
sample by it would add noise rather than remove it.  Set-up times are
scaled by the median of loop samples taken between the set-up repeats.  The report prints
raw times and loop times beside the scaled ones.  Each op's latency is
the median over its runs (usually one: an untraced run rarely gets far
into a second pass over its rounds), and the percentiles are taken over
those medians.  ops_per_s is the ops of one cycle over the sum of their
medians when the whole cycle ran, else the ops run over the time of
every step run (load and unload steps included).

Exit status is 0 when the run finished, whatever the failed ops; 2 when
mvpdl cannot be imported from ./src or a reference check cannot run.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
ROUNDS = {"check": 4, "decide": 8, "game": 5, "prove": 6}  # about one pass per 20 s run
MIN_OPS = 100
CALIBRATE_EVERY_S = 0.1
CALIBRATE_WINDOW = 11  # loop samples, about a second of timed work
REFERENCE_LOOP_S = 0.005  # about machine_loop's time on the 2-vCPU Xeon VM of the baseline

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

LAYER_UNITS = {
    "kripke.world_checks_per_s": "1/s",
    "kripke.worlds": "count",
    "kripke.edges": "count",
    "filtration.classes_per_world": "ratio",
    "sat.candidates": "count",
    "sat.us_per_candidate": "us",
    "sat.rows": "count",
    "sat.decided": "count",
    "sat.budget_exhausted": "count",
    "syntax.closure_size": "count",
    "parser.chars_per_s": "1/s",
    "luk.assignments_per_s": "1/s",
    "proofs.lines": "count",
    "ulam.states": "count",
    "ulam.edges": "count",
    "ulam.updates_per_s": "1/s",
    "cli.calls": "count",
    "defects.probes": "count",
    "defects.failed": "count",
    "trace.overhead_share": "ratio",
}  # every other per-layer metric is a self time in seconds


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def import_mvpdl():
    """Import mvpdl from ./src and nowhere else, afresh."""
    for name in [m for m in sys.modules if m == "mvpdl" or m.startswith("mvpdl.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import mvpdl
    except ImportError as exc:
        raise BenchError(f"cannot import mvpdl from {SRC}: {exc}") from None
    if Path(mvpdl.__file__).resolve().parent != SRC / "mvpdl":
        raise BenchError(f"mvpdl was imported from {mvpdl.__file__}, not from {SRC}")


def machine_loop() -> float:
    """Seconds a fixed mix of dict, tuple, sort and set work takes now."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + len(str(i))
    ranked = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    total = sum(v for _, v in ranked) + len({frozenset((i, i + 1, i % 5)) for i in range(1000)})
    if total < 0:
        raise AssertionError("unreachable; keeps the work observable")
    return time.perf_counter() - t0


def scale_of(loop_times) -> float:
    return REFERENCE_LOOP_S / statistics.median(loop_times)


def call_op(op, budget_error):
    """(answer, None, None), or (None, cause, detail) when the call raised:
    an op that raises is a failed op, not a crash."""
    try:
        return op.call(), None, None
    except budget_error as exc:
        return None, "budget", str(exc)
    except Exception as exc:
        return None, "exception", f"{type(exc).__name__}: {str(exc)[:200]}"


def judge(op, answer, unsound):
    """(cause, detail) when the reference disagrees with an answer, else
    (None, None); an unsound answer is also added to `unsound`."""
    wrong = op.verify(answer)
    if wrong is None:
        return None, None
    if wrong.unsound:
        unsound.append((op.text, wrong.reason))
    return "wrong_answer", wrong.reason


def run_ops(ops, budget_error, tr=None, seconds=None):
    """Issue ops one at a time; stop after one full cycle, or once
    `seconds` of timed wall time and MIN_OPS ops are done and no session
    is open.  Answers are checked right after each op, outside the timed
    region.

    A session (check's model, game's built model) runs to its unload
    step: its ops are far from alike (a model load or game build, then
    cheap checks, then CLI calls), so a run cut inside one would weigh
    them by where the clock ran out."""
    steps: list[tuple[int, int, float]] = []  # index in cycle, cycle, seconds
    loops: list[tuple[float, float]] = [(0.0, machine_loop())]  # timed seconds so far, loop seconds
    failures: list[tuple[str, str, str]] = []  # cause, input, detail
    unsound = []
    timed = last_loop = 0.0
    attempted = i = 0
    clock = time.perf_counter
    sessions = any(op.kind == "unload" for op in ops)
    while True:
        k, cycle = i % len(ops), i // len(ops)
        if k == 0:
            # Every cycle starts from the same collector state, and what the
            # run keeps (inputs, reference memos) is left out of later
            # collections, so an op's collection cost is its own garbage.
            gc.collect()
            gc.freeze()
        op = ops[k]
        if tr is not None:
            tr.op = i
            tr.push("bench." + op.kind)
        t0 = clock()
        answer, cause, detail = call_op(op, budget_error)
        dt = clock() - t0
        if tr is not None:
            tr.pop()
            tr.active = False
        timed += dt
        steps.append((k, cycle, dt))
        if op.counted:
            attempted += 1
            if cause is None:
                cause, detail = judge(op, answer, unsound)
            if cause is not None:
                failures.append((cause, op.text, detail))
        if timed - last_loop >= CALIBRATE_EVERY_S:
            loops.append((timed, machine_loop()))
            last_loop = timed
        if tr is not None:
            tr.active = True
        i += 1
        if seconds is None:
            if i == len(ops):
                break
        elif timed >= seconds and attempted >= MIN_OPS and (op.kind == "unload" or not sessions):
            break
    loops.append((timed, machine_loop()))
    return {"ops": ops, "steps": steps, "loops": loops, "failures": failures,
            "unsound": unsound, "timed": timed, "attempted": attempted}


def run_probes(probes, budget_error):
    """Each known-defect probe once, outside any timed region and any
    count of ops.  Returns failures like run_ops, unsound answers and the
    seconds the probes took."""
    failures, unsound = [], []
    t0 = time.perf_counter()
    for op in probes:
        answer, cause, detail = call_op(op, budget_error)
        if cause is None:
            cause, detail = judge(op, answer, unsound)
        if cause is not None:
            failures.append((cause, op.text, detail))
    return failures, unsound, time.perf_counter() - t0


def scaled_steps(res):
    """Each step's time scaled by the loop samples nearest to it."""
    loops = res["loops"]
    at = [t for t, _ in loops]
    times = [t for _, t in loops]
    half = CALIBRATE_WINDOW // 2
    out = []
    timed = 0.0
    for k, cycle, dt in res["steps"]:
        after = bisect.bisect_left(at, timed + dt)
        lo = max(0, min(after - half - 1, len(times) - CALIBRATE_WINDOW))
        out.append((k, cycle, dt * scale_of(times[lo : lo + CALIBRATE_WINDOW])))
        timed += dt
    return out


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def print_failures(failures, what="failed ops"):
    if not failures:
        print(f"{what}: none")
        return
    grouped: dict[tuple[str, str, str], int] = {}
    for key in failures:
        grouped[key] = grouped.get(key, 0) + 1
    print(f"{what}: {len(failures)} ({len(grouped)} distinct inputs)")
    for (cause, text, detail), times in sorted(grouped.items()):
        print(f"  [{cause}] x{times} {text}\n      {detail}")


def end_to_end(res, setup_s):
    ops = res["ops"]
    per_step: dict[int, list[float]] = {}
    for k, _, dt in scaled_steps(res):
        per_step.setdefault(k, []).append(dt)
    per_op = {k: v for k, v in per_step.items() if ops[k].counted}
    if len(per_step) == len(ops):  # a cycle's time: the sum of each step's median
        rate = len(per_op) / sum(statistics.median(v) for v in per_step.values())
    else:  # not one complete cycle
        rate = sum(map(len, per_op.values())) / sum(map(sum, per_step.values()))
    medians = [statistics.median(v) for v in per_op.values()]
    failed = len(res["failures"])
    loops = [t for _, t in res["loops"]]
    print(f"ops {res['attempted']} in {res['timed']:.3f} s timed (raw), failed {failed} "
          f"(failed_share {failed / res['attempted']:.4f})")
    print(f"machine loop {statistics.fmean(loops) * 1000:.3f} ms mean over {len(loops)} samples "
          f"(min {min(loops) * 1000:.3f}, max {max(loops) * 1000:.3f}); reference {REFERENCE_LOOP_S * 1000:.3f} ms")
    metrics = {"ops_per_s": rate}
    runs = sorted(map(len, per_op.values()))
    for q in (50, 90):
        cut = percentile(medians, q)
        metrics[f"op_ms_p{q}"] = cut * 1000
        print(f"op_ms_p{q:<3} {cut * 1000:12.4f} ms  (n={len(medians)} distinct ops, "
              f"{sum(1 for v in medians if v > cut)} beyond; each the median of {runs[0]}-{runs[-1]} runs)")
    metrics["setup_s"] = statistics.median(setup_s)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"setup_s per repeat (scaled): {', '.join(f'{s:.4f}' for s in setup_s)}")
    by_kind: dict[str, list[float]] = {}
    for k, v in per_op.items():
        by_kind.setdefault(ops[k].kind, []).append(statistics.median(v))
    for kind, v in sorted(by_kind.items()):
        print(f"  {kind:<18} {len(v):6d} ops  sum {sum(v):9.3f} s  median {statistics.median(v) * 1000:10.4f} ms")
    return metrics


def layer_metrics(tr, probes, probe_failures, probe_s, overhead_share, scale):
    """Per-layer metrics of the traced cycle; times scaled like the
    end-to-end ones."""
    s = {name: v * scale for name, v in tr.self_s.items()}
    c, k = tr.calls, tr.counts

    def ratio(a, b):
        return a / b if b else 0.0

    checks = {kind: s.get(f"kripke.check.{kind}", 0.0) for kind in ("star", "box", "test")}
    check_calls = sum(c.get(f"kripke.check.{kind}", 0) for kind in ("star", "box", "test"))
    parse_s, format_s = s.get("parser.parse", 0.0), s.get("parser.format", 0.0)
    return {
        **{f"kripke.check_s.{kind}": v for kind, v in checks.items()},
        "kripke.world_checks_per_s": ratio(k["kripke.world_checks"], sum(checks.values())),
        "kripke.worlds": ratio(k["kripke.world_checks"], check_calls),
        "kripke.edges": ratio(k["kripke.edges"], check_calls),
        "kripke.load_s": s.get("kripke.load", 0.0),
        "filtration.filter_s": s.get("filtration.filter", 0.0),
        "filtration.classes_per_world": ratio(k["filtration.classes"], k["filtration.worlds"]),
        "sat.decide_s": s.get("sat.decide", 0.0),
        "sat.candidates": k["sat.candidates"],
        "sat.us_per_candidate": ratio(tr.total_s.get("sat.decide", 0.0) * scale * 1e6, k["sat.candidates"]),
        "sat.rows": k["sat.rows"],
        "sat.decided": k["sat.decided"],
        "sat.budget_exhausted": k["sat.budget_exhausted"],
        "syntax.fl_closure_s": s.get("syntax.fl_closure", 0.0),
        "syntax.closure_size": ratio(k["syntax.closure_members"], c.get("syntax.fl_closure", 0)),
        "syntax.substitute_s": s.get("syntax.substitute", 0.0),
        "parser.parse_s": parse_s,
        "parser.format_s": format_s,
        "parser.chars_per_s": ratio(k["parser.chars"], parse_s + format_s),
        "luk.taut_s": s.get("luk.taut", 0.0),
        "luk.assignments_per_s": ratio(k["luk.assignments"], s.get("luk.taut", 0.0)),
        **{
            f"proofs.line_s.{kind}": s.get(f"proofs.line.{kind}", 0.0)
            for kind in ("premise", "axiom", "luk", "mp", "nec", "subst")
        },
        "proofs.lines": sum(v for name, v in c.items() if name.startswith("proofs.line.")),
        "proofs.parse_derivation_s": s.get("proofs.parse_derivation", 0.0),
        "ulam.reachable_s": s.get("ulam.reachable", 0.0),
        "ulam.states": k["ulam.states"],
        "ulam.build_s": s.get("ulam.build", 0.0),
        "ulam.edges": k["ulam.edges"],
        "ulam.updates_per_s": ratio(k["ulam.updates"], tr.total_s.get("ulam.build", 0.0) * scale),
        "ulam.spec_s": s.get("ulam.spec", 0.0),
        "cli.s": s.get("cli.main", 0.0),
        "cli.calls": c.get("cli.main", 0),
        "defects.probes": len(probes),
        "defects.failed": len(probe_failures),
        "defects.probe_s": probe_s * scale,
        "trace.overhead_share": overhead_share,
    }


def print_layer_table(tr, ops, scale):
    print(f"layer self time (scaled) over one traced cycle of {ops} ops "
          f"(spans kept {len(tr.spans)}, dropped {tr.dropped})")
    by_layer = tr.layer_self_s()
    total = sum(by_layer.values()) or 1.0
    for layer in sorted(by_layer, key=by_layer.get, reverse=True):
        names = sorted((n for n in tr.self_s if n.split(".", 1)[0] == layer), key=tr.self_s.get, reverse=True)
        calls = sum(tr.calls[n] for n in names)
        print(f"  {layer:<12} {by_layer[layer] * scale:10.4f} s {100 * by_layer[layer] / total:6.1f} %  {calls:9d} calls")
        for n in names:
            print(f"      {n:<28} {tr.self_s[n] * scale:10.4f} s  {tr.calls[n]:9d} calls")


def generate(name, seed, rounds):
    """The steps of `rounds` rounds of a workload's inputs; round r is drawn
    from seed 1000 * seed + r and writes its files to a directory of its own."""
    ops = []
    for r in range(rounds):
        work = OUT / name / f"round{r}"
        work.mkdir(parents=True, exist_ok=True)
        ops += WORKLOADS[name](1000 * seed + r, work)
    return ops


def run_workload(name, seed, seconds, traced):
    rounds = 1 if traced else ROUNDS[name]
    setup_raw = []
    setup_loops = []
    ops = []
    for _ in range(SETUP_REPEATS):
        del ops[:]  # each repeat starts from the same heap: the last one's inputs freed and collected
        gc.collect()
        setup_loops.append(machine_loop())
        t0 = time.perf_counter()
        import_mvpdl()
        ops = generate(name, seed, rounds)
        setup_raw.append(time.perf_counter() - t0)
    setup_loops.append(machine_loop())
    setup_s = [dt * scale_of(setup_loops) for dt in setup_raw]
    from mvpdl.sat import BudgetExceeded

    probes = [op for op in ops if op.defect]
    ops = [op for op in ops if not op.defect]
    print(f"workload {name}, seed {seed}: {rounds} rounds, {sum(op.counted for op in ops)} ops per cycle, "
          f"{len(probes) // rounds} known-defect probes per round (run in the traced run); {SIZES[name]}")
    unsound = []
    if not traced:
        res = run_ops(ops, BudgetExceeded, seconds=seconds)
        metrics = end_to_end(res, setup_s)
        units = END_TO_END_UNITS
    else:
        plain = run_ops(ops, BudgetExceeded)
        probe_failures, unsound, probe_s = run_probes(probes, BudgetExceeded)
        print(f"known-defect probes: {len(probes)} run once in {probe_s:.3f} s (raw), untimed")
        print_failures(probe_failures, "failed known-defect probes")
        tr = spans.Tracer()
        spans.install(tr)
        tr.op = "setup"
        ops = [op for op in generate(name, seed, rounds) if not op.defect]  # same inputs, generated under the tracer
        res = run_ops(ops, BudgetExceeded, tr=tr)
        plain_s = sum(dt for _, _, dt in scaled_steps(plain))
        traced_s = sum(dt for _, _, dt in scaled_steps(res))
        print(f"one cycle untraced {plain_s:.4f} s, traced {traced_s:.4f} s (scaled)")
        scale = scale_of([t for _, t in res["loops"]])
        print_layer_table(tr, res["attempted"], scale)
        tr.write(OUT / f"{name}-spans.jsonl")
        metrics = layer_metrics(tr, probes, probe_failures, probe_s, traced_s / plain_s - 1, scale)
        units = {key: LAYER_UNITS.get(key, "s") for key in metrics}
    print_failures(res["failures"])
    unsound += res["unsound"]
    for text, reason in unsound:
        print(f"UNSOUND: {text}: {reason}")
    for key, value in metrics.items():
        print(f"  {key:<30} {value:14.6f} {units[key]}")
    return {
        "correct": not unsound,
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {key: {"value": v, "unit": units[key]} for key, v in metrics.items()},
    }


def run_all(args):
    """Every workload in a fresh interpreter, untraced then traced."""
    summary = {}
    status = 0
    for name in WORKLOADS:
        for traced in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(traced)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = proc.returncode
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            summary.setdefault(name, {})["traced" if traced else "untraced"] = result
    print("\nsummary (untraced end-to-end)")
    for name, entry in summary.items():
        r = entry.get("untraced")
        if r is not None:
            cells = ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in r["metrics"].items())
            print(f"  {name:<7} attempted {r['attempted']}, failed {r['failed']}, correct {r['correct']}: {cells}")
    if args.out:
        for name, entry in summary.items():
            entry["sizes"] = SIZES[name]
        record = {"seed": args.seed, "seconds": args.seconds, "workloads": summary}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if status:
        print(f"error: a workload exited with status {status}", file=sys.stderr)
        return status
    print(json.dumps({name: entry.get("untraced") for name, entry in summary.items()}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with all workloads: write the results here as JSON")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a reference that cannot run leaves the run without a result
        traceback.print_exc()
        print("error: a reference check could not run", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
