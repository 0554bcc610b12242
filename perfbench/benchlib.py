"""Statistics, verdicts, schema checks and provenance for the benchmark.

Everything here is pure (no subprocesses, no clock) except provenance(),
so test_benchlib.py can pin the rules down exactly.
"""

import hashlib
import json
import os
import re
import statistics
import subprocess

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
# Provenance fields two result sets must share before they are compared.
COMPARABLE = ("nproc", "build_type", "compiler")
# How far below zero the ladder's unattributed_ns_per_get may read, as a
# share of the untraced per-get wall time, before the steadiness check fails.
UNATTRIBUTED_BOUND = 0.25
SELF_METRICS = ("sim.self_ns_per_get", "os.self_ns_per_get", "kv.self_ns_per_get",
                "client.self_ns_per_get", "harness.self_ns_per_get")


def valid_name(name):
    return isinstance(name, str) and bool(NAME_RE.match(name))


def valid_unit(unit):
    return isinstance(unit, str) and bool(UNIT_RE.match(unit))


def load_spec(path):
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    problems = check_spec(spec)
    if problems:
        raise ValueError("BENCHMARK.json: " + "; ".join(problems))
    return spec


def check_spec(spec):
    """Returns the ways `spec` breaks the benchmark file's rules (empty: ok)."""
    problems = []
    seen = set()

    def name_ok(name, where):
        if not valid_name(name):
            problems.append(f"{where}: bad name {name!r}")
        elif name in seen:
            problems.append(f"{where}: duplicate name {name!r}")
        seen.add(name)

    if not 2 <= len(spec.get("workloads", [])) <= 8:
        problems.append("workloads: need 2 to 8")
    for w in spec.get("workloads", []):
        name_ok(w.get("name"), "workloads")
        if not isinstance(w.get("why"), str) or not 0 < len(w["why"]) <= 200 or "\n" in w["why"]:
            problems.append(f"workloads: bad why for {w.get('name')!r}")
    e2e = spec.get("end_to_end", [])
    if not 1 <= len(e2e) <= 16:
        problems.append("end_to_end: need 1 to 16")
    for m in e2e:
        name_ok(m.get("name"), "end_to_end")
        if set(m) != {"name", "unit", "better", "bound"}:
            problems.append(f"end_to_end: keys of {m.get('name')!r}")
        if not valid_unit(m.get("unit")):
            problems.append(f"end_to_end: bad unit for {m.get('name')!r}")
        if m.get("better") not in ("lower", "higher"):
            problems.append(f"end_to_end: bad better for {m.get('name')!r}")
        bound = m.get("bound")
        if not isinstance(bound, (int, float)) or not 0 < bound <= 0.25:
            problems.append(f"end_to_end: bound of {m.get('name')!r} not in (0, 0.25]")
    if not any(m.get("name") == "setup_s" and m.get("unit") == "s" and m.get("better") == "lower"
               for m in e2e):
        problems.append("end_to_end: setup_s (s, lower) missing")
    layer = spec.get("per_layer", [])
    if not 1 <= len(layer) <= 128:
        problems.append("per_layer: need 1 to 128")
    for m in layer:
        name_ok(m.get("name"), "per_layer")
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per_layer: keys of {m.get('name')!r}")
        if not valid_unit(m.get("unit")):
            problems.append(f"per_layer: bad unit for {m.get('name')!r}")
        if m.get("better") not in ("lower", "higher"):
            problems.append(f"per_layer: bad better for {m.get('name')!r}")
    seconds = spec.get("run_seconds")
    if not isinstance(seconds, int) or not 1 <= seconds <= 60:
        problems.append("run_seconds: need a whole number from 1 to 60")
    return problems


def check_result(result, spec, trace):
    """Returns the ways a printed result breaks the schema (empty: ok)."""
    problems = []
    if not isinstance(result, dict) or set(result) != set(RESULT_KEYS):
        return [f"result keys must be exactly {list(RESULT_KEYS)}"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        value = result[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    if set(metrics) != {m["name"] for m in expected}:
        missing = sorted({m["name"] for m in expected} - set(metrics))
        extra = sorted(set(metrics) - {m["name"] for m in expected})
        problems.append(f"metric names differ: missing {missing}, extra {extra}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if not isinstance(got, dict) or set(got) != {"value", "unit"}:
            problems.append(f"{m['name']}: needs exactly value and unit")
            continue
        value = got["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value != value:
            problems.append(f"{m['name']}: value is not a number")
        if got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {got['unit']!r}, expected {m['unit']!r}")
    return problems


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median (inf at median 0)."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def better(a, b, direction):
    """True when value b is strictly better than value a."""
    return b > a if direction == "higher" else b < a


def pair_wins(pairs, direction):
    """(wins of the second side, losses, ties) over (a, b) pairs."""
    wins = sum(1 for a, b in pairs if better(a, b, direction))
    losses = sum(1 for a, b in pairs if better(b, a, direction))
    return wins, losses, len(pairs) - wins - losses


def verdict(base, change, pairs, direction, bound):
    """Judges one workload x metric by the choosing-metrics section 8 rules.

    base/change: the values of each side; pairs: (base, change) runs made
    back to back. Returns one of "better", "worse", "same", "unresolved".
    - "unresolved": the base's own spread exceeds the bound, unless every
      change run beats every base run;
    - "better": the change wins at least 9/10 of the pairs, ties counting
      for neither, and the medians differ by more than the base's own
      inter-quartile distance;
    - "worse": the change's median is worse than the base median by more
      than the bound;
    - "same" otherwise.
    """
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    all_better = all(better(b, c, direction) for b in base for c in change)
    if spread(base) > bound and not all_better:
        return "unresolved"
    wins, _, _ = pair_wins(pairs, direction)
    if pairs and wins >= 0.9 * len(pairs) and abs(cmed - bmed) > (bq3 - bq1) and \
            better(bmed, cmed, direction):
        return "better"
    worse_by = (bmed - cmed) if direction == "higher" else (cmed - bmed)
    if worse_by > bound * abs(bmed):
        return "worse"
    return "same"


def pairing_problems(base, change):
    """Names why two result sets of one workload, each a {seed: record} map,
    cannot be compared: a failed correctness check on either side, or a
    simulated scorecard that differs between the sides for the same seed (a
    perf-only change leaves it byte-identical). Empty: they can."""
    problems = []
    for seed in sorted(set(base) & set(change)):
        for side, record in (("base", base[seed]), ("change", change[seed])):
            if not record["result"]["correct"]:
                problems.append(f"seed {seed}: {side} failed its correctness check")
        if base[seed]["scorecard"] != change[seed]["scorecard"]:
            problems.append(f"seed {seed}: scorecards differ")
    return problems


def comparable(prov_a, prov_b):
    """Names the provenance fields on which two results differ."""
    return [k for k in COMPARABLE if prov_a.get(k) != prov_b.get(k)]


def source_digest(root, dirs=("src", "perfbench")):
    """sha256 over the simulator and benchmark sources (the git rev stand-in
    when the checkout is not a git repository)."""
    h = hashlib.sha256()
    for d in dirs:
        for base, subdirs, files in os.walk(os.path.join(root, d)):
            subdirs[:] = sorted(s for s in subdirs if s != "__pycache__")
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def provenance(root, binary_info, seed):
    return {
        "nproc": os.cpu_count(),
        "build_type": binary_info.get("build_type"),
        "compiler": binary_info.get("compiler"),
        "git_rev": git_rev(root),
        "source_digest": source_digest(root),
        "seed": seed,
    }
