#!/usr/bin/env python3
"""Schema validator for the BENCH_*.json files written by bench_main.

Expected document shape (schema_version 1):

  {
    "schema_version": 1,
    "suite": "phase1" | "phase2" | "stream" | "persist" | "serve"
             | "merge" | "quality" | "graph" | "micro",
    "smoke": bool,
    "seed": int,
    "runs": [
      {
        "name": str,                  # non-empty, unique within the file
        "params": {str: number, ...},
        "timings": {str: number, ...},   # optional (--no-timings omits it)
        "telemetry": {                   # deterministic snapshot export
          "counters": {name: {"unit": str, "value": int}, ...},
          "gauges": {name: {"unit": str, "value": number|null}, ...},
          "histograms": {name: {"unit": str, "bounds": [number...],
                                "counts": [int...],  # len(bounds) + 1
                                "count": int, "sum": number|null}, ...}
        }
      }, ...
    ]
  }

The telemetry objects are the *deterministic view* (no seconds-valued
metrics), so two files produced with the same seed and --no-timings must
be byte-identical regardless of thread count; this script only checks
shape, the byte comparison is a plain diff/cmp in CI.

The "serve" suite carries extra invariants beyond shape: every run must
record zero dropped and zero cross-generation-inconsistent responses
from >= 8 clients across >= 3 snapshot hot-swaps, and (when timings are
present) QPS plus ordered p50/p99/p999 latency percentiles.

The "merge" suite likewise: every run must name its shard count
(params.num_shards >= 1) and its telemetry must record exactly that many
merged checkpoints (counters["merge.checkpoints"]) — a run that silently
merged fewer shards than it claims is a broken benchmark, not a slow one.
Its checkpoint-merged rule count (params.rules) must equal the
single-node baseline's (params.single_node_rules).

The "quality" suite: every run must keep pruned <= total with finite
score extrema, the stationary control (params.drift_injected == 0) must
report zero born/died/drifted rules, and the drift-injected run must
flag at least one change — a drift detector that fires on a stationary
stream (or misses a planted mean shift) is wrong, not slow.

The "graph" suite (the dar::graph clique engine on adversarial graphs):
every run must report its component count (params.components >= 1) and
both truncation flags (params.clique_cap_truncated /
params.step_budget_truncated, each 0 or 1); across the suite each flag
must fire at least once (the Moon-Moser budget runs exist to prove
truncation stays loud); and the oracle runs must report zero
dropped_cliques and zero spurious_cliques against the brute-force
maximal-clique oracle — a single missing or invented clique is a
correctness bug in the engine, not noise.

The "micro" suite must include the rule-formation kernel: a run named
"micro/rule_gen" whose counters micro.rule_gen.rules,
micro.rule_gen.degree_evaluations and micro.rule_gen.cliques are all
non-zero — a kernel that formed no rule measured nothing. Likewise the
contingency post-scan: a run named "micro/rule_stats" whose counters
micro.rule_stats.rows, micro.rule_stats.rules and
micro.rule_stats.signatures are all non-zero.

Usage: tools/check_bench_json.py FILE [FILE...]
Prints one `file: message` per violation and exits 1 when anything is
found, 0 when every file is schema-valid. Stdlib only.
"""

import json
import math
import numbers
import sys

VALID_SUITES = {"phase1", "phase2", "stream", "persist", "serve", "merge",
                "quality", "graph", "micro"}
VALID_UNITS = {"count", "seconds", "bytes"}


def is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def check_scalar_map(errors, path, obj):
    if not isinstance(obj, dict):
        errors.append(f"{path}: expected object, got {type(obj).__name__}")
        return
    for key, value in obj.items():
        if value is not None and not is_number(value):
            errors.append(f"{path}.{key}: expected number, got {value!r}")


def check_telemetry(errors, path, telemetry):
    if not isinstance(telemetry, dict):
        errors.append(f"{path}: expected object")
        return
    for section in ("counters", "gauges", "histograms"):
        if section not in telemetry:
            errors.append(f"{path}: missing '{section}'")
    for name, counter in telemetry.get("counters", {}).items():
        where = f"{path}.counters.{name}"
        if counter.get("unit") not in VALID_UNITS:
            errors.append(f"{where}: bad unit {counter.get('unit')!r}")
        if counter.get("unit") == "seconds":
            errors.append(f"{where}: seconds-valued metric in the "
                          "deterministic view")
        if not is_int(counter.get("value")):
            errors.append(f"{where}: value must be an integer")
    for name, gauge in telemetry.get("gauges", {}).items():
        where = f"{path}.gauges.{name}"
        if gauge.get("unit") not in VALID_UNITS:
            errors.append(f"{where}: bad unit {gauge.get('unit')!r}")
        if gauge.get("unit") == "seconds":
            errors.append(f"{where}: seconds-valued metric in the "
                          "deterministic view")
        if gauge.get("value") is not None and not is_number(gauge["value"]):
            errors.append(f"{where}: value must be a number or null")
    for name, hist in telemetry.get("histograms", {}).items():
        where = f"{path}.histograms.{name}"
        if hist.get("unit") not in VALID_UNITS:
            errors.append(f"{where}: bad unit {hist.get('unit')!r}")
        if hist.get("unit") == "seconds":
            errors.append(f"{where}: seconds-valued metric in the "
                          "deterministic view")
        bounds = hist.get("bounds")
        counts = hist.get("counts")
        if not isinstance(bounds, list) or not all(
                is_number(b) for b in bounds):
            errors.append(f"{where}: bounds must be a number array")
            continue
        if sorted(bounds) != bounds:
            errors.append(f"{where}: bounds must be ascending")
        if not isinstance(counts, list) or not all(
                is_int(c) for c in counts):
            errors.append(f"{where}: counts must be an integer array")
            continue
        if len(counts) != len(bounds) + 1:
            errors.append(f"{where}: expected {len(bounds) + 1} counts "
                          f"(bounds + overflow), got {len(counts)}")
        if not is_int(hist.get("count")):
            errors.append(f"{where}: count must be an integer")
        elif hist["count"] != sum(counts):
            errors.append(f"{where}: count {hist['count']} != "
                          f"sum(counts) {sum(counts)}")


def check_serve_run(errors, where, run):
    """Serve-suite invariants: zero dropped / inconsistent responses from
    >= 8 clients across >= 3 hot-swaps, and ordered latency percentiles."""
    params = run.get("params")
    if not isinstance(params, dict):
        return  # shape error already reported
    for key, want in (("dropped_responses", 0), ("inconsistent_responses", 0)):
        value = params.get(key)
        if value is None:
            errors.append(f"{where}.params: missing '{key}'")
        elif value != want:
            errors.append(f"{where}.params.{key}: must be {want}, "
                          f"got {value!r}")
    for key, floor in (("clients", 8), ("swaps", 3)):
        value = params.get(key)
        if value is None:
            errors.append(f"{where}.params: missing '{key}'")
        elif not is_number(value) or value < floor:
            errors.append(f"{where}.params.{key}: must be >= {floor}, "
                          f"got {value!r}")
    timings = run.get("timings")
    if timings is None:  # --no-timings omits the whole object
        return
    if not isinstance(timings, dict):
        return
    for key in ("qps", "p50_seconds", "p99_seconds", "p999_seconds"):
        if not is_number(timings.get(key)):
            errors.append(f"{where}.timings: missing numeric '{key}'")
    p50 = timings.get("p50_seconds")
    p99 = timings.get("p99_seconds")
    p999 = timings.get("p999_seconds")
    if all(is_number(v) for v in (p50, p99, p999)) and not (
            p50 <= p99 <= p999):
        errors.append(f"{where}.timings: percentiles must be ordered "
                      f"(p50 {p50} <= p99 {p99} <= p999 {p999})")


def check_merge_run(errors, where, run):
    """Merge-suite invariants: the merged rule count equals the
    single-node one, the shard count is named and the telemetry actually
    merged that many shard checkpoints."""
    params = run.get("params")
    if not isinstance(params, dict):
        return  # shape error already reported
    rules = params.get("rules")
    single = params.get("single_node_rules")
    if not is_number(rules) or not is_number(single):
        errors.append(f"{where}.params: missing numeric 'rules' or "
                      "'single_node_rules'")
    elif rules != single:
        errors.append(f"{where}.params.rules: checkpoint merge mined "
                      f"{rules:g} rules, single-node {single:g}")
    num_shards = params.get("num_shards")
    if num_shards is None:
        errors.append(f"{where}.params: missing 'num_shards'")
        return
    if not is_number(num_shards) or num_shards < 1:
        errors.append(f"{where}.params.num_shards: must be >= 1, "
                      f"got {num_shards!r}")
        return
    telemetry = run.get("telemetry")
    if not isinstance(telemetry, dict):
        return  # shape error already reported
    counters = telemetry.get("counters", {})
    merged = counters.get("merge.checkpoints", {})
    if not isinstance(merged, dict) or merged.get("value") != num_shards:
        errors.append(f"{where}.telemetry: counters['merge.checkpoints'] "
                      f"must equal params.num_shards ({num_shards:g}), "
                      f"got {merged.get('value') if isinstance(merged, dict) else merged!r}")


def check_quality_run(errors, where, run):
    """Quality-suite invariants: pruning never invents rules, scores stay
    finite, and drift classification matches the planted ground truth —
    zero changes on the stationary control, at least one when a cluster-
    mean shift was injected."""
    params = run.get("params")
    if not isinstance(params, dict):
        return  # shape error already reported
    for key in ("drift_injected", "rules_total", "rules_pruned",
                "born", "died", "drifted", "min_score", "max_score"):
        if not is_number(params.get(key)):
            errors.append(f"{where}.params: missing numeric '{key}'")
    total = params.get("rules_total")
    pruned = params.get("rules_pruned")
    if is_number(total) and is_number(pruned) and not (0 <= pruned <= total):
        errors.append(f"{where}.params: rules_pruned {pruned!r} must be in "
                      f"[0, rules_total {total!r}]")
    for key in ("min_score", "max_score"):
        value = params.get(key)
        # json.load maps the JSON literals NaN/Infinity to the float
        # specials, and a writer bug could also smuggle them in as huge
        # doubles; math.isfinite catches both.
        if is_number(value) and not math.isfinite(value):
            errors.append(f"{where}.params.{key}: must be finite, "
                          f"got {value!r}")
    changes = [params.get(k) for k in ("born", "died", "drifted")]
    if not all(is_number(v) for v in changes):
        return
    injected = params.get("drift_injected")
    if injected == 0 and any(v != 0 for v in changes):
        errors.append(f"{where}.params: stationary control must report "
                      f"zero born/died/drifted, got {changes}")
    if is_number(injected) and injected != 0 and sum(changes) < 1:
        errors.append(f"{where}.params: drift was injected but no rule "
                      "was born, died, or drifted")


def check_graph_run(errors, where, run):
    """Graph-suite invariants: component count and both truncation flags
    are always reported, and the oracle runs agree exactly with the
    brute-force maximal-clique oracle."""
    params = run.get("params")
    if not isinstance(params, dict):
        return  # shape error already reported
    components = params.get("components")
    if components is None:
        errors.append(f"{where}.params: missing 'components'")
    elif not is_number(components) or components < 1:
        errors.append(f"{where}.params.components: must be >= 1, "
                      f"got {components!r}")
    for key in ("clique_cap_truncated", "step_budget_truncated"):
        flag = params.get(key)
        if flag is None:
            errors.append(f"{where}.params: missing '{key}'")
        elif flag not in (0, 1):
            errors.append(f"{where}.params.{key}: must be 0 or 1, "
                          f"got {flag!r}")
    if isinstance(run.get("name"), str) and "oracle" in run["name"]:
        for key in ("oracle_cliques", "dropped_cliques", "spurious_cliques"):
            if not is_number(params.get(key)):
                errors.append(f"{where}.params: missing numeric '{key}'")
        for key in ("dropped_cliques", "spurious_cliques"):
            value = params.get(key)
            if is_number(value) and value != 0:
                errors.append(f"{where}.params.{key}: must be 0 "
                              f"(engine disagrees with the oracle), "
                              f"got {value!r}")


def check_graph_suite(errors, runs):
    """Across the whole graph suite, each truncation flag must have fired
    at least once — the adversarial budget runs exist to prove truncation
    is loud, and a suite where neither flag ever fires no longer tests it."""
    for key in ("clique_cap_truncated", "step_budget_truncated"):
        fired = any(
            isinstance(run, dict) and isinstance(run.get("params"), dict)
            and run["params"].get(key) == 1 for run in runs)
        if not fired:
            errors.append(f"runs: no run fired params.{key} — the "
                          "adversarial budget runs are missing")


MICRO_COUNTERS = {
    "micro/rule_gen": ("micro.rule_gen.rules",
                       "micro.rule_gen.degree_evaluations",
                       "micro.rule_gen.cliques"),
    "micro/rule_stats": ("micro.rule_stats.rows",
                         "micro.rule_stats.rules",
                         "micro.rule_stats.signatures"),
}


def check_micro_suite(errors, runs):
    """The micro suite must carry each MICRO_COUNTERS run with non-zero
    counters."""
    for run_name, counter_names in MICRO_COUNTERS.items():
        matching = [run for run in runs if isinstance(run, dict)
                    and run.get("name") == run_name]
        if not matching:
            errors.append(f"runs: missing the '{run_name}' run")
            continue
        telemetry = matching[0].get("telemetry")
        counters = telemetry.get("counters", {}) if isinstance(
            telemetry, dict) else {}
        for name in counter_names:
            counter = counters.get(name)
            value = counter.get("value") if isinstance(counter, dict) else None
            if not is_int(value) or value <= 0:
                errors.append(f"{run_name}.telemetry.counters['{name}']: "
                              f"must be a positive integer, got {value!r}")


def check_file(path):
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"unreadable or invalid JSON: {e}"]
    if not isinstance(doc, dict):
        return ["top level must be an object"]
    if doc.get("schema_version") != 1:
        errors.append(f"schema_version must be 1, "
                      f"got {doc.get('schema_version')!r}")
    if doc.get("suite") not in VALID_SUITES:
        errors.append(f"suite must be one of {sorted(VALID_SUITES)}, "
                      f"got {doc.get('suite')!r}")
    if not isinstance(doc.get("smoke"), bool):
        errors.append("smoke must be a boolean")
    if not is_int(doc.get("seed")):
        errors.append("seed must be an integer")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        errors.append("runs must be a non-empty array")
        return errors
    names = set()
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        if not isinstance(run, dict):
            errors.append(f"{where}: expected object")
            continue
        name = run.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: name must be a non-empty string")
        elif name in names:
            errors.append(f"{where}: duplicate name {name!r}")
        else:
            names.add(name)
        if "params" not in run:
            errors.append(f"{where}: missing 'params'")
        else:
            check_scalar_map(errors, f"{where}.params", run["params"])
        if "timings" in run:  # optional: --no-timings omits it
            check_scalar_map(errors, f"{where}.timings", run["timings"])
        if "telemetry" not in run:
            errors.append(f"{where}: missing 'telemetry'")
        else:
            check_telemetry(errors, f"{where}.telemetry", run["telemetry"])
        if doc.get("suite") == "serve":
            check_serve_run(errors, where, run)
        if doc.get("suite") == "merge":
            check_merge_run(errors, where, run)
        if doc.get("suite") == "quality":
            check_quality_run(errors, where, run)
        if doc.get("suite") == "graph":
            check_graph_run(errors, where, run)
    if doc.get("suite") == "graph":
        check_graph_suite(errors, runs)
    if doc.get("suite") == "micro":
        check_micro_suite(errors, runs)
    return errors


def main(argv):
    if len(argv) < 2:
        print("usage: check_bench_json.py FILE [FILE...]", file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        errors = check_file(path)
        for message in errors:
            print(f"{path}: {message}")
        if errors:
            failed = True
        else:
            print(f"{path}: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
