"""Benchmark of the SpTRSV reproduction: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload playout-50k --seed 1 --seconds 26 --trace 0

The command sets up the workload several times from cold, measures it
for ``--seconds``, checks every result and prints each metric by name
with its unit, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
spans are recorded around the program's public calls and the metrics are
the per-layer ones.  Everything, including the spans (as JSON and as a
Chrome trace), is also written under ``perfbench/out/``.

The exit code is 0 when every result is correct, 1 when one is wrong,
and 2 when the program's sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from refclock import NOMINAL_S, RefClock
from spans import ROOT_SETUP, Tracer
from workloads import DESIGNS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The end-to-end metrics (``--trace 0``), every one on every workload.
END_TO_END = {
    "latency_s_p50": "s",
    "latency_s_tail": "s",
    "goodput_rps": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "model_err": "ratio",
}

#: Span name -> per-layer metric stem.  ``session`` and ``serve.request``
#: are reported by their self time only: what the session facade adds
#: around its children, and admission + queue wait + dispatch.
LAYER_METRICS = {
    "workloads.gen": "workloads.gen_s",
    "artefacts.build": "artefacts.build_s",
    "tasks.dist": "tasks.dist_s",
    "costs.build": "costs.build_s",
    "des.playout": "des.playout_s",
    "fastmodel.price": "fastmodel.price_s",
    "residual.check": "residual.check_s",
    "session": "session.self_s",
    "serve.request": "serve.overhead_s",
    "serve.worker": "serve.worker_s",
    "serve.encode": "serve.encode_s",
}

#: The per-layer metrics (``--trace 1``), every one on every workload; a
#: layer a workload does not exercise reads 0.
PER_LAYER = {
    **{m: "s" for m in LAYER_METRICS.values()},
    **{f"setup.{m}": "s" for m in LAYER_METRICS.values()},
    "artefacts.builds": "count",
    "artefacts.hits": "count",
    "des.ns_per_event": "ns",
    "des.trace_records": "count",
    "des.events": "count",
    "des.sim_time_us": "sim_us",
    "des.page_faults": "count",
    **{f"fastmodel.err.{d}": "ratio" for d in DESIGNS},
    "fig7.unified_task": "ratio",
    "fig7.shmem": "ratio",
    "fig7.zerocopy": "ratio",
    "fig7.zerocopy_max": "ratio",
    "serve.retries": "count",
    "serve.shed": "count",
    "serve.failed": "count",
    "serve.loop_stalls": "count",
    "trace.coverage": "ratio",
    "setup.trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "ref_s": "s",
}


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns the value (the 11th-largest sample) and its percentile.  With
    fewer than 11 samples no percentile has ten beyond it; the smallest
    sample is returned, which is where the rule's answer tends as the
    count falls to 11.
    """
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[max(0, n - 11)], max(0, math.floor(100 * (n - 10) / n))


def latency(samples: list[float], group: int) -> tuple[float, float, int]:
    """Median, tail and tail percentile of the latency samples.

    Samples come in groups of ``group`` that repeat the same set of
    cells (a whole Fig. 7); each statistic is taken per group, then the
    median across groups, so it does not depend on how many groups fit
    in the window.  A workload without such groups passes one group.
    """
    groups = [samples[i:i + group]
              for i in range(0, len(samples) - group + 1, group)]
    tails = [tail(g) for g in groups]
    return (statistics.median(statistics.median(g) for g in groups),
            statistics.median(t for t, _ in tails), tails[0][1])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=HERE / "out",
                   help="directory for the result and span files")
    return p.parse_args(argv)


def layer_metrics(tracer, setup_roots: dict, op_roots: dict) -> dict:
    """Per-layer self times, per cold set-up and per traced operation.

    ``setup_roots`` and ``op_roots`` map each root span id to the
    reference scale of the work under it.
    """
    selfs = tracer.self_times()
    roots = tracer.roots()
    n_ops, n_setups = max(1, len(op_roots)), max(1, len(setup_roots))
    per_op = dict.fromkeys(LAYER_METRICS, 0.0)
    per_setup = dict.fromkeys(LAYER_METRICS, 0.0)
    builds = hits = events = records = 0
    for sp in tracer.kept():
        root = roots[sp.id].id
        in_op, in_setup = root in op_roots, root in setup_roots
        if sp.name in LAYER_METRICS:
            if in_op:
                per_op[sp.name] += selfs[sp.id] * op_roots[root]
            elif in_setup:
                per_setup[sp.name] += selfs[sp.id] * setup_roots[root]
        if sp.name == "artefacts.build":
            built = not sp.attrs.get("hit", False)
            builds += in_setup and built
            hits += in_op and not built
        if sp.name == "des.playout" and in_op:
            events += sp.attrs["events"]
            records += sp.attrs["trace_records"]
    spans = {sp.id: sp for sp in tracer.spans}

    def busy(ids):
        return sum((spans[i].end - spans[i].start) * ids[i] for i in ids)

    out = {}
    for name, metric in LAYER_METRICS.items():
        out[metric] = per_op[name] / n_ops
        out[f"setup.{metric}"] = per_setup[name] / n_setups
    op_time, setup_time = busy(op_roots), busy(setup_roots)
    out["trace.coverage"] = sum(per_op.values()) / op_time if op_time else 0.0
    out["setup.trace.coverage"] = (
        sum(per_setup.values()) / setup_time if setup_time else 0.0
    )
    out["artefacts.builds"] = builds / n_setups
    out["artefacts.hits"] = hits / n_ops
    out["des.ns_per_event"] = (
        per_op["des.playout"] / events * 1e9 if events else 0.0
    )
    out["des.trace_records"] = records / n_ops
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    tracer = Tracer()
    if args.trace:
        tracer.install()
    ref = RefClock()
    workload = WORKLOADS[args.workload](args.seed)

    # Cold set-ups, each between two reference samples.
    setups: list[tuple[float, int]] = []
    setup_roots: dict[int, int] = {}
    for _ in range(SETUP_REPEATS):
        gc.collect()
        index = ref.sample()
        tracer.enabled = bool(args.trace)
        with tracer.span(ROOT_SETUP) as sp:
            t0 = time.perf_counter()
            workload.setup(tracer)
            setups.append((time.perf_counter() - t0, index))
        tracer.enabled = False
        if sp is not None:
            setup_roots[sp.id] = index
    ref.sample()
    gc.collect()
    window = workload.window(args.seconds, tracer, ref, bool(args.trace))
    check = workload.check()
    snapshot = getattr(workload, "snapshot", None)
    workload.close()
    tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops = window.ops
    setup_s = [sec * ref.scale(i) for sec, i in setups]
    op_s = [op.seconds * ref.scale(op.ref) for op in ops]
    samples = [s for s, op in zip(op_s, ops) if not op.traced]
    busy_s = sum(sec * ref.scale(i) for i, sec in window.active)
    group = getattr(workload, "figure_size", len(samples))
    p50_s, tail_s, tail_pct = latency(samples, group)
    det = check.deterministic
    e2e = {
        "latency_s_p50": p50_s,
        "latency_s_tail": tail_s,
        "goodput_rps": sum(op.ok for op in ops) / busy_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mib": peak_rss_mib,
        "model_err": det.get("fastmodel_err", det.get("paper_gap")),
    }
    correct = not check.problems and check.failed == 0
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct,
        "attempted": check.attempted, "failed": check.failed,
        "problems": check.problems[:20],
        "ref": {"seconds": ref.seconds, "samples": ref.samples},
        "setup_s_raw": [sec for sec, _ in setups],
        "latency_s_raw": [op.seconds for op in ops if not op.traced],
        "samples": len(samples), "group": group, "tail_percentile": tail_pct,
        "latency_s": samples,
        "deterministic": det,
        "end_to_end": e2e,
    }
    # The same figures under the names the benchmark was specified with.
    named = {"error_rate": check.failed / max(1, check.attempted)}
    if args.workload == "playout-50k":
        named["solve_s_p50"] = e2e["latency_s_p50"]
        named["solve_s_tail"] = e2e["latency_s_tail"]
    if args.workload == "paper-fig7":
        named["figure_s"] = statistics.median(
            sum(samples[i:i + group])
            for i in range(0, len(samples) - group + 1, group))
    for key in ("fastmodel_err", "paper_gap"):
        if key in det:
            named[key] = det[key]
    result["named"] = named

    if args.trace:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        op_roots = {
            op.span: ref.scale(op.ref) for op in ops
            if op.traced and op.span is not None
        }
        metrics.update(layer_metrics(
            tracer, {k: ref.scale(i) for k, i in setup_roots.items()},
            op_roots))
        for key in PER_LAYER:
            if key in det:
                metrics[key] = det[key]
        if snapshot is not None:
            stats = snapshot["stats"]
            metrics["serve.retries"] = stats["retries"]
            metrics["serve.shed"] = stats["shed"]
            metrics["serve.failed"] = stats["failed"]
            metrics["serve.loop_stalls"] = snapshot["loop_watchdog"]["stalls"]
        on = [s for s, op in zip(op_s, ops) if op.traced]
        if on and samples:
            base = statistics.median(samples)
            metrics["trace.overhead_s"] = statistics.median(on) - base
            metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / base
        metrics["ref_s"] = ref.seconds
        result["per_layer"] = metrics
        units = PER_LAYER
    else:
        metrics = e2e
        units = END_TO_END

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(args.out / f"{stem}-spans.json",
                     args.out / f"{stem}-chrome.json")
    with open(args.out / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    report(result, metrics, units)
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


def report(result: dict, metrics: dict, units: dict) -> None:
    """Human-readable lines, ahead of the final JSON line."""
    print(f"{result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  {result['seconds']:g} s window")
    print(f"  host seconds are scaled to a {NOMINAL_S} s reference loop, "
          f"which measured {result['ref']['seconds']:.4f} s (median)")
    print(f"  latency samples {result['samples']} in groups of "
          f"{result['group']}; tail is p{result['tail_percentile']} per group")
    for key, unit in units.items():
        print(f"  {key:28s} {metrics[key]:14.6g} {unit}")
    for key, value in result["deterministic"].items():
        if not isinstance(value, list):
            print(f"  = {key:26s} {value!r}")
    for key, value in result["named"].items():
        print(f"  ~ {key:26s} {value!r}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


if __name__ == "__main__":
    sys.exit(main())
