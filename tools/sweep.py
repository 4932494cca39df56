#!/usr/bin/env python3
"""Parallel DES engine sweep: reference engine vs the array fast path.

Fans the benchmark cases out across cores with a process pool (analysis
artefacts are spilled once by the parent and loaded by the workers),
verifies bit-identical traces/solutions/counters per case, times the
engines, runs the multi-node scale-out rows (64-256 simulated GPUs,
flat taskpool vs hierarchical placement across the IB tier), and writes
``BENCH_des.json``.

    python tools/sweep.py                    # full sweep incl. scale cases
    python tools/sweep.py --quick            # CI subset (small/medium)
    python tools/sweep.py --repeats 5 --jobs 2 --out results.json
    python tools/sweep.py --config '{"design": "unified", "n_gpus": 8}'

``--config`` takes a :class:`repro.runtime.RunConfig` JSON object (or
``@path/to/file.json``); its ``design`` and ``n_gpus`` knobs select the
simulated node every case is measured on.  ``--engines`` takes a
comma-separated subset of the fast engines (only ``array``);
unknown names raise a :class:`~repro.errors.ConfigurationError` listing
the valid ones.

Exit status: 0 when every comparison is bit-identical, no worker
re-derived its analysis, and every clean (non-noisy) case meets its
speedup floors; 1 otherwise.  Noisy timings (cv above the threshold)
downgrade the floor check to a warning — identity is always enforced.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.dessweep import SWEEP_ENGINES, run_des_sweep  # noqa: E402


def _fmt(v, width, prec=3):
    if v is None:
        return f"{'-':>{width}}"
    return f"{v:>{width}.{prec}f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_des.json"),
        help="output JSON path (default: ./BENCH_des.json)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: small/medium cases only (skips the scale cases)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per engine"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: one per case, capped at cores-1)",
    )
    parser.add_argument(
        "--engines",
        default=",".join(SWEEP_ENGINES),
        help="comma-separated fast engines to measure "
        f"(subset of: {', '.join(SWEEP_ENGINES)})",
    )
    parser.add_argument(
        "--no-scale-out",
        action="store_true",
        help="skip the multi-node scale-out rows (64-256 simulated GPUs)",
    )
    parser.add_argument(
        "--config",
        default=None,
        help="RunConfig JSON object (or @file.json) selecting design/n_gpus",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be at least 1")

    from repro.errors import ConfigurationError
    from repro.runtime import load_run_config

    engines = tuple(
        e.strip() for e in args.engines.split(",") if e.strip()
    )
    unknown = [e for e in engines if e not in SWEEP_ENGINES]
    if unknown:
        err = ConfigurationError(
            f"unknown engine(s) {', '.join(unknown)} for --engines; "
            f"valid engines: {', '.join(SWEEP_ENGINES)}"
        )
        parser.error(str(err))
    if not engines:
        parser.error("--engines must select at least one engine")

    try:
        cfg = load_run_config(args.config)
    except ConfigurationError as err:
        parser.error(str(err))

    payload = run_des_sweep(
        quick=args.quick,
        repeats=args.repeats,
        jobs=args.jobs,
        n_gpus=cfg.n_gpus,
        design=cfg.design,
        engines=engines,
        scale_out=not args.no_scale_out,
    )
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    hdr = (
        f"{'case':>15} {'n':>8} {'events':>9} {'ref-s':>8} {'arr-s':>8} "
        f"{'speedup':>8}  ok"
    )
    print(hdr)
    print("-" * len(hdr))
    for c in payload["cases"]:
        print(
            f"{c['name']:>15} {c['n']:>8} {c['events']:>9} "
            f"{_fmt(c['t_reference'], 8)} {_fmt(c['t_array'], 8)} "
            f"{_fmt(c['speedup'], 7, 2)}x  "
            f"{'yes' if c['identical'] else 'MISMATCH'} ({c['verified']})"
        )
    if payload.get("scale_out"):
        so_hdr = (
            f"{'scale-out':>15} {'gpus':>6} {'nodes':>6} {'flat-sim':>10} "
            f"{'hier-sim':>10} {'hier-x':>7} {'ib-flat':>8} {'ib-hier':>8}  ok"
        )
        print("\n" + so_hdr)
        print("-" * len(so_hdr))
        for c in payload["scale_out"]:
            print(
                f"{c['name']:>15} {c['n_gpus']:>6} {c['n_nodes']:>6} "
                f"{_fmt(c['flat']['sim_time'], 10, 4)} "
                f"{_fmt(c['hierarchical']['sim_time'], 10, 4)} "
                f"{_fmt(c['hier_speedup'], 6, 2)}x "
                f"{c['flat']['fallback_fraction']:>7.1%} "
                f"{c['hierarchical']['fallback_fraction']:>7.1%}  "
                f"{'yes' if c['identical'] else 'MISMATCH'}"
                f" ({c['verified']})"
            )
    print(f"\nwrote {args.out}")

    if not payload["all_identical"]:
        print("FAIL: a fast engine diverged from the reference engine")
        return 1
    if not payload.get("scaleout_identical", True):
        print("FAIL: engines diverged on a multi-node scale-out row")
        return 1
    if not payload["analysis_shared"]:
        print("FAIL: a worker re-derived its analysis instead of loading it")
        return 1
    if payload["floor_misses"]:
        print(
            "FAIL: clean run below its speedup floor: "
            + ", ".join(payload["floor_misses"])
        )
        return 1
    acc = payload["acceptance"]
    if acc is not None:
        sp = acc["speedup"]
        print(
            f"acceptance {acc['case']}: "
            f"{'n/a' if sp is None else f'{sp:.2f}x'} "
            f"(floor {acc['floor']}x) -> {'met' if acc['met'] else 'missed'}"
        )
    tt = payload.get("throughput_target")
    if tt is not None:
        print(
            f"throughput target {tt['case']}: "
            f"{tt['events_per_sec']:.0f} events/s "
            f"(target {tt['target']:.0f}) -> "
            f"{'met' if tt['met'] else 'missed'}"
        )
    if payload["noisy"]:
        print("WARN: timer noise detected; speedup floor not enforced")
    else:
        print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
