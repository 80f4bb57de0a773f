#!/usr/bin/env python3
"""Per-architecture simulator-throughput gate over two hotpath artifacts.

Usage:
    arch_gate.py NEW_hotpath.json --baseline PREV_hotpath.json \
        [--min-ratio 0.95] [--arch mt_cgra] [--max-mt-sm-ratio 6.5]

Reads the schema-v2 ``archs`` block of ``BENCH_hotpath.json`` (per-arch
sim-cycles/sec over the smoke per-job set) from the current run and from
the previous push's artifact (persisted by CI as
``artifacts/trajectory/baseline-hotpath.json``, the way
``baseline-smoke.json`` backs ``bench_regress.py``). Fails (exit 1) when
the gated architecture's throughput fell below ``--min-ratio`` of the
baseline — by default a >5% MT-CGRA regression, the architecture the
edge-batched delivery work targets; the other architectures print
informationally. Skips cleanly (exit 0, message) when the baseline is
missing, unreadable, or predates the ``archs`` block — the first run of
a fresh repository has nothing to compare against.

Additionally fails when the current artifact's ``mt_vs_sm_slowdown``
(how many times slower the MT-CGRA engine simulates than the Fermi SM
on the same smoke work) exceeds ``--max-mt-sm-ratio`` — an *absolute*
ceiling that needs no baseline, so the MT/SM gap can only ratchet down.
The workflow env sets the operative value (``DMT_MAX_MT_SM_RATIO``);
tighten it there as engine work closes the gap. Skips cleanly when the
artifact predates the ratio field (pre-v2 schemas).

Wall-clock throughput is host-dependent; this gate backstops the
MT-CGRA engine's simulator performance between pushes on comparable CI
runners, while cycle counts stay gated exactly by ``bench_regress.py``.
"""

import argparse
import json
import sys


def arch_cps(doc):
    """Per-arch sim-cycles/sec, or None for pre-v2 artifacts."""
    archs = doc.get("archs")
    if not isinstance(archs, dict):
        return None
    out = {}
    for name, rec in archs.items():
        cps = rec.get("sim_cycles_per_sec") if isinstance(rec, dict) else None
        if isinstance(cps, (int, float)) and cps > 0:
            out[name] = float(cps)
    return out or None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("new", help="current BENCH_hotpath.json")
    ap.add_argument("--baseline", required=True,
                    help="previous push's BENCH_hotpath.json")
    ap.add_argument("--min-ratio", type=float, default=0.95,
                    help="fail when gated arch's new/baseline cyc/s falls "
                         "below this (default 0.95, i.e. a >5%% regression)")
    ap.add_argument("--arch", default="mt_cgra",
                    help="architecture key to gate on (default mt_cgra)")
    ap.add_argument("--max-mt-sm-ratio", type=float, default=6.5,
                    help="fail when mt_vs_sm_slowdown exceeds this absolute "
                         "ceiling (default 6.5; set via DMT_MAX_MT_SM_RATIO "
                         "in the workflow and ratchet down as the gap closes)")
    args = ap.parse_args()

    try:
        with open(args.new, encoding="utf-8") as f:
            new = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"arch gate: cannot read {args.new}: {e}", file=sys.stderr)
        return 1
    new_cps = arch_cps(new)
    if new_cps is None:
        print(f"arch gate: {args.new} has no per-arch block "
              f"(schema_version {new.get('schema_version')!r})", file=sys.stderr)
        return 1

    # Absolute MT/SM ceiling: independent of the push-over-push baseline,
    # so it runs (and can fail) even on a fresh repository.
    failed = False
    ratio = new.get("mt_vs_sm_slowdown")
    if isinstance(ratio, (int, float)) and ratio > 0:
        if ratio > args.max_mt_sm_ratio:
            print(f"arch gate: mt_vs_sm_slowdown {ratio:.2f}x exceeds the "
                  f"{args.max_mt_sm_ratio:.2f}x ceiling", file=sys.stderr)
            failed = True
        else:
            print(f"  mt_vs_sm_slowdown {ratio:.2f}x within the "
                  f"{args.max_mt_sm_ratio:.2f}x ceiling")
    else:
        print("arch gate: artifact has no mt_vs_sm_slowdown; "
              "skipping the absolute ceiling")

    try:
        with open(args.baseline, encoding="utf-8") as f:
            base = json.load(f)
        base_cps = arch_cps(base)
    except (OSError, json.JSONDecodeError) as e:
        print(f"arch gate: no baseline ({e}); skipping the push-over-push gate")
        return 1 if failed else 0
    if base_cps is None:
        print("arch gate: baseline predates the per-arch block; "
              "skipping the push-over-push gate")
        return 1 if failed else 0

    regressed = False
    for name in sorted(set(new_cps) | set(base_cps)):
        if name not in new_cps or name not in base_cps:
            print(f"  {name}: present in only one artifact; skipped")
            continue
        push_ratio = new_cps[name] / base_cps[name]
        gated = name == args.arch
        verdict = ""
        if gated:
            verdict = " — ok" if push_ratio >= args.min_ratio else " <-- REGRESSION"
            regressed = regressed or push_ratio < args.min_ratio
        print(f"  {name}: {base_cps[name]:.0f} -> {new_cps[name]:.0f} cyc/s "
              f"({push_ratio:.3f}x){verdict}")

    if args.arch not in new_cps or args.arch not in base_cps:
        print(f"arch gate: gated arch {args.arch!r} not in both artifacts; "
              "skipping the push-over-push gate")
        return 1 if failed else 0
    if regressed:
        print(f"arch gate: {args.arch} throughput regressed below "
              f"{args.min_ratio:.2f}x of the previous push; if no engine "
              "code changed, suspect the runner host (cycle counts are the "
              "deterministic gate)", file=sys.stderr)
    else:
        print(f"arch gate: {args.arch} within {args.min_ratio:.2f}x of the "
              "previous push; OK")
    return 1 if (failed or regressed) else 0


if __name__ == "__main__":
    sys.exit(main())
