"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload kautz-k1 --seed 1 \
        --seconds 40 --trace 0

``--trace 0`` times the public entry points and reports the end-to-end
metrics; ``--trace 1`` replays the layer pipeline and reports the
per-layer metrics (see README.md).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; a ``_meta`` line
before it records the machine, versions and fabric fingerprints.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys

from common import BENCH, RUN_DIR, ROOT, SRC, Census, become_subreaper, \
    code_digest, git_revision, log, reap_all

#: per-layer values that must repeat exactly for one code and input
#: (checked across runs through a ledger in the run directory)
DETERMINISTIC = (
    "quality.fallback_rate", "quality.gamma_max", "quality.a2a_gbps",
    "partition.max_part_frac", "cdg.cycle_searches", "cdg.blocked_deps",
    "cdg.pk_reorders", "escape.initial_deps", "kernel.heap_pops",
    "kernel.relaxations", "kernel.stale_pop_frac", "backtrack.rounds",
    "backtrack.islands_resolved", "backtrack.shortcuts",
    "backtrack.escape_fallbacks", "resilience.dirty_frac",
    "resilience.layers_repaired", "reconfig.proofs",
    "reconfig.blocked_candidates", "reconfig.drains",
)


def check_ledger(workload: str, seed: int, src: str,
                 fingerprints: dict, metrics: dict) -> list:
    """Compare deterministic values with the first run of the same
    code on the same input.

    The ledger is keyed on the workload, the seed, the digests of
    ``src/`` and of the benchmark, and the fabric fingerprint, so a
    change to the routing code or to the input starts a new entry
    instead of drifting from an old one.
    """
    key = hashlib.blake2b(json.dumps(
        [src, code_digest(BENCH), fingerprints], sort_keys=True).encode(),
        digest_size=8).hexdigest()
    ledger = RUN_DIR / "ledger" / f"{workload}-{seed}-{key}.json"
    mine = {k: metrics[k] for k in DETERMINISTIC if k in metrics}
    if not ledger.exists():
        ledger.parent.mkdir(parents=True, exist_ok=True)
        ledger.write_text(json.dumps(mine, sort_keys=True))
        return []
    first = json.loads(ledger.read_text())
    return [f"{k} drifted: {first.get(k)} -> {v}"
            for k, v in mine.items() if first.get(k) != v]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["torus-fig11", "kautz-k1", "fail-in-place"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (SRC / "repro").is_dir():
        log(f"no repro sources under {SRC}; run from a full checkout")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import numpy

    from repro.core.kernels import numba_available, resolve_kernel

    census = Census()
    become_subreaper()
    try:
        if args.trace:
            from traced import run_traced

            run = run_traced(args.workload, args.seed, census)
        else:
            from workloads import run_timed

            run = run_timed(args.workload, args.seed, args.seconds,
                            census)
        leaks = census.check()
    finally:
        # every path out waits for every process the run started
        killed = reap_all()
    for leak in leaks + [f"killed straggling process {p}" for p in killed]:
        run.fail("leak", RuntimeError(leak))
    src = code_digest()
    if args.trace and not run.failed:
        for drift in check_ledger(args.workload, args.seed, src,
                                  run.fingerprints, run.metrics):
            run.fail("determinism", RuntimeError(drift))

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cores": len(os.sched_getaffinity(0)),
        "kernel_backend": resolve_kernel("auto"),
        "numba": numba_available(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
        "src_digest": src,
        "network_fingerprints": run.fingerprints,
        "samples": {k: len(v) for k, v in run.samples.items()},
        "sample_values": run.samples,
        "host_probes_s": run.probes,
        "wall_s": run.wall,
        "serial_fallbacks": run.counts.get("serial_fallbacks", 0),
        "errors": run.errors,
    }
    declared = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())[
            "per_layer" if args.trace else "end_to_end"]}
    if set(declared) != set(run.metrics) and not run.failed:
        run.fail("report", RuntimeError(
            f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(declared) ^ set(run.metrics))}"))
    metrics = {}
    for name, unit in declared.items():
        if name not in run.metrics:
            continue
        value = run.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
        n = meta["samples"].get(name)
        wall = run.wall.get(name)
        print(f"{name:32s} {value:14.6f} {unit}"
              + (f"  (mean of {n}; wall {wall:.3f} s)" if n else ""))
    print(json.dumps({"_meta": meta}))
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
