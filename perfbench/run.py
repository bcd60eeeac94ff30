"""The repository's end-to-end benchmark: one command per workload.

    python3 perfbench/run.py --workload dict-approx --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

- ``dict-approx``: a RAM-backed ``DistPermIndex`` over a synthetic
  English dictionary, served by a ``QueryServer`` subprocess;
- ``vec-shard-mmap``: a 2-shard memory-mapped index behind resident
  workers, served the same way;
- ``census-stream``: the out-of-core census of an ASCII vector file.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
traced variant and prints the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every answer is
checked; a run with a wrong answer reports ``correct: false``.  A run
whose load generator fell behind its schedule is invalid and exits 3
without a result.
"""

from __future__ import annotations

import argparse
import json
import sys

import common


def declared(section: str) -> dict:
    """``{name: unit}`` of one metric section of ``BENCHMARK.json``."""
    with open(common.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench: end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.bootstrap()

    import offline
    import serving
    import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    trace = bool(args.trace)
    if spec is workloads.CENSUS:
        result = offline.run(args.seed, args.seconds, trace)
    else:
        result = serving.run(spec, args.seed, args.seconds, trace)

    units = declared("per_layer" if trace else "end_to_end")
    unknown = set(result["metrics"]) - set(units)
    if unknown:
        raise SystemExit(f"perfbench: undeclared metrics {sorted(unknown)}")
    # Layers a workload never enters did no work in it: zero time, zero count.
    values = {name: float(result["metrics"].get(name, 0.0)) for name in units}
    if not trace:
        missing = set(units) - set(result["metrics"])
        if missing:
            raise SystemExit(f"perfbench: end-to-end metrics missing {sorted(missing)}")

    print(f"== {spec.name} seed {args.seed} ({'traced' if trace else 'untraced'})")
    for line in result["lines"]:
        print(line)
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}")
    if trace:
        for name, value in values.items():
            print(f"{name} {value:.6g} {units[name]}")
    if result["invalid"]:
        print("perfbench: run invalid (load generator fell behind)", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
