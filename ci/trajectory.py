#!/usr/bin/env python3
"""Appends one run's smoke artifact to the BENCH_trajectory.json series.

Usage:
    trajectory.py TRAJECTORY.json ARTIFACT.json --sha SHA --run-id ID \
        [--hotpath BENCH_hotpath.json]

The trajectory is the perf-over-time record the CI ``bench-artifact``
job carries forward from push to push (restored from the previous run,
appended to, re-uploaded): one entry per push, each holding the
deterministic per-job cycles/energy of the smoke suite keyed by stable
``job_hash``/``config_hash``, so any two points in history are
comparable job-by-job. Creates the trajectory on first use.

With ``--hotpath``, the entry additionally records the simulator
wall-clock measurement from ``bench_hotpath`` (sim-cycles/sec and the
speedup over the vendored pre-overhaul baseline, plus — from schema-v2
hotpath artifacts — per-architecture sim-cycles/sec and the MT-CGRA/SM
throughput ratio, the history ``ci/arch_gate.py`` gates against from
this push forward; schema-v3 and later artifacts add the fire-loop share
per fabric arch under ``modes``; hotpath schemas v2–v4 are accepted,
and rows recorded from older ones simply lack the newer keys — or, from
v3, carry two engine-path keys nothing reads any more). This is
informational — wall time depends on the runner host — and never gates
the trajectory append itself; ``bench_regress.py`` gates on
deterministic cycles only.
"""

import argparse
import json
import os
import sys

TRAJECTORY_SCHEMA_VERSION = 1

# Artifact schema versions this reader understands. v2 added the per-job
# "phases" array (every v1 field unchanged); the trajectory records the
# totals either way, plus the per-phase cycle breakdown when present, so
# a series may hold v1 and v2 rows side by side.
SUPPORTED_ARTIFACT_SCHEMAS = (1, 2)


def phase_fields(job):
    """The per-phase keys of one v2 job record (empty for v1 rows).

    Records the phase count and the per-phase cycle vector — the data
    the summary's per-phase table rows render. Kept as plain lists so
    any two pushes in history compare phase-by-phase.
    """
    phases = job.get("phases")
    if not isinstance(phases, list):
        return {}
    fields = {"phases": len(phases)}
    cycles = [p.get("cycles") for p in phases]
    if all(isinstance(c, int) for c in cycles):
        fields["phase_cycles"] = cycles
    return fields


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trajectory")
    ap.add_argument("artifact")
    ap.add_argument("--sha", required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--hotpath", help="BENCH_hotpath.json to record wall-clock perf from")
    args = ap.parse_args()

    with open(args.artifact, encoding="utf-8") as f:
        artifact = json.load(f)
    schema = artifact.get("schema_version")
    if schema not in SUPPORTED_ARTIFACT_SCHEMAS:
        print(f"trajectory: unsupported artifact schema_version {schema!r} "
              f"(supported: {SUPPORTED_ARTIFACT_SCHEMAS})", file=sys.stderr)
        return 1

    hotpath = None
    if args.hotpath:
        try:
            with open(args.hotpath, encoding="utf-8") as f:
                doc = json.load(f)
            total = doc.get("total", {})
            hotpath = {
                "wall_us": total.get("wall_us"),
                "sim_cycles_per_sec": total.get("sim_cycles_per_sec"),
                "speedup_vs_baseline": total.get("speedup_vs_baseline"),
            }
            # Schema-v2 and later hotpath artifacts: per-arch throughput
            # history (v1 rows in the same series simply lack the keys).
            archs = doc.get("archs")
            if isinstance(archs, dict):
                hotpath["archs"] = {
                    name: rec.get("sim_cycles_per_sec")
                    for name, rec in archs.items()
                    if isinstance(rec, dict)
                }
                # Schema-v3 and later: the fire-loop share estimate per
                # fabric arch (v2 rows lack the key).
                modes = {
                    name: {"fire_event_share": rec["fire_event_share"]}
                    for name, rec in archs.items()
                    if isinstance(rec, dict) and "fire_event_share" in rec
                }
                if modes:
                    hotpath["modes"] = modes
            if isinstance(doc.get("mt_vs_sm_slowdown"), (int, float)):
                hotpath["mt_vs_sm_slowdown"] = doc["mt_vs_sm_slowdown"]
        except (OSError, json.JSONDecodeError) as e:
            # Informational only: a missing/corrupt hotpath record must not
            # fail the trajectory append.
            print(f"trajectory: ignoring hotpath record: {e}", file=sys.stderr)

    try:
        with open(args.trajectory, encoding="utf-8") as f:
            trajectory = json.load(f)
        if trajectory.get("schema_version") != TRAJECTORY_SCHEMA_VERSION:
            print(f"trajectory: schema {trajectory.get('schema_version')} != "
                  f"{TRAJECTORY_SCHEMA_VERSION}; starting fresh", file=sys.stderr)
            raise OSError("schema mismatch")
    except (OSError, json.JSONDecodeError):
        trajectory = {
            "schema_version": TRAJECTORY_SCHEMA_VERSION,
            "generator": "dmt-runner-ci",
            "kind": "bench_trajectory",
            "entries": [],
        }

    entry = {
        "sha": args.sha,
        "run_id": args.run_id,
        "suite": artifact.get("suite"),
        "artifact_schema": schema,
        "jobs": [
            {
                "bench": j["bench"],
                "arch": j["arch"],
                "config_hash": j["config_hash"],
                "job_hash": j["job_hash"],
                "status": j["status"],
                **({"cycles": j["cycles"], "total_j": j["total_j"]}
                   if j.get("status") == "ok" else {}),
                # v2 artifacts: record the phase count and per-phase
                # cycles (informational; v1 rows in the same series
                # simply lack the keys).
                **phase_fields(j),
            }
            for j in artifact.get("jobs", [])
        ],
    }
    if hotpath is not None:
        entry["hotpath"] = hotpath
    # Re-running the same commit (e.g. a workflow re-run) replaces its
    # entry instead of duplicating the series.
    trajectory["entries"] = [
        e for e in trajectory["entries"] if e.get("sha") != args.sha
    ]
    trajectory["entries"].append(entry)

    parent = os.path.dirname(args.trajectory)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(args.trajectory, "w", encoding="utf-8") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")
    print(f"trajectory: {len(trajectory['entries'])} entries "
          f"(appended {args.sha[:12]}, {len(entry['jobs'])} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
