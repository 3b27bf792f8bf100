"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload paper_flows --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with spans around each layer and
prints the per-layer metrics instead.  The last line of standard output
is the result object; the lines before it give every metric under its
workload-specific name, and the provenance of the run.  ``--mini``
shrinks each workload to a smoke-test size (used by the self-test).

The run also appends a determinism record (layout digests and HiGHS
node counts per phase) to ``.perfbench-state/records.jsonl`` in the
checkout, from which ``layout.distinct_digests.*`` counts how many
different layouts each circuit has produced across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench-state"
WORKLOADS = ("paper_flows", "service_cold", "service_cached")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mini", action="store_true", help="smoke-test sized workload")
    return parser.parse_args(argv)


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def program_env() -> dict:
    """Environment for child interpreters: this checkout's sources first."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def determinism(records, seed: int, trace: bool) -> dict:
    """Append this run's layout digests; count distinct digests per circuit.

    Only records made with the same configuration are compared.
    """
    path = STATE_DIR / "records.jsonl"
    configs = set()
    with open(path, "a", encoding="utf-8") as handle:
        for record in records:
            if record.get("digest"):
                line = {key: record[key] for key in ("circuit", "config", "digest", "nodes", "wall_s")}
                line.update(seed=seed, trace=trace)
                handle.write(json.dumps(line) + "\n")
                configs.add(record["config"])
    seen: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            if row["config"] in configs:
                seen.setdefault(row["circuit"], set()).add(row["digest"])
    return {circuit: len(digests) for circuit, digests in seen.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    contract = load_contract()
    STATE_DIR.mkdir(exist_ok=True)
    env = program_env()

    import flows
    import service
    from measure import provenance

    trace = bool(args.trace)
    if args.workload == "paper_flows":
        result = flows.run(ROOT, env, args.seconds, trace, args.mini)
    elif args.workload == "service_cold":
        result = service.run_cold(ROOT, STATE_DIR, env, args.seed, trace, args.mini)
    else:
        result = service.run_cached(ROOT, STATE_DIR, env, args.seed, args.seconds, trace, args.mini)

    if trace:
        declared = contract["per_layer"]
        values = {metric["name"]: 0.0 for metric in declared}
        values.update(result["layers"])
        distinct = determinism(result.get("records", []), args.seed, trace)
        for name, count in distinct.items():
            values[f"layout.distinct_digests.{name}"] = count
        if result.get("spans"):
            (STATE_DIR / f"spans-{args.workload}-{args.seed}.json").write_text(
                json.dumps(result["spans"]), encoding="utf-8"
            )
    else:
        declared = contract["end_to_end"]
        values = dict(result["end_to_end"])
        values["success_ratio"] = 1.0 - result["failed"] / result["attempted"]
        determinism(result.get("records", []), args.seed, trace)
    unknown = set(values) - {metric["name"] for metric in declared}
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")

    doc = provenance(ROOT, args.seed, dict(result["provenance"], workload=args.workload,
                                           trace=trace, attempted=result["attempted"]))
    print("provenance " + json.dumps(doc, sort_keys=True))
    for name, value in sorted(result["named"].items()):
        print(f"{args.workload} {name} = {value:.6g}")
    for metric in declared:
        print(f"{args.workload} {metric['name']} = {values[metric['name']]:.6g} {metric['unit']}")
    for error in result["errors"]:
        print(f"FAILED {error}")
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    correct = result["failed"] == 0 and not result["errors"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
