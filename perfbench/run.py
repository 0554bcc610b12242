#!/usr/bin/env python3
"""The MittOS simulation benchmark (see perfbench/README.md). Run from the
repository root.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Builds the simulator libraries and the benchmark binary from source
      (once per checkout), runs one workload, checks its simulated outputs
      and prints the result as the last line of stdout. The full result,
      with its provenance, is saved under .bench_out/results/ (or
      --results-dir DIR).

  python3 perfbench/run.py steady
      Steadiness check: ten runs per workload on the tuning seeds and again
      on the held-out seeds (which no change may be tuned against), each
      end-to-end metric's spread against its bound, plus one traced run per
      seed set checking the ladder's unattributed time.

  python3 perfbench/run.py compare BASE_DIR CHANGE_DIR
      Compares two result sets (one directory of saved results per commit,
      same seeds, runs alternated) by the choosing-metrics section 8 rules,
      one row per workload. Refuses result sets whose provenance differs,
      whose correctness checks failed, or whose simulated scorecards differ
      for the same workload and seed.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

STEADY_RUNS = 10
TUNE_SEEDS = list(range(1, 1 + STEADY_RUNS))
HELD_OUT_SEEDS = list(range(9001, 9001 + STEADY_RUNS))
BINARY_TIMEOUT_S = 175


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def spec():
    try:
        return benchlib.load_spec(os.path.join(ROOT, "BENCHMARK.json"))
    except (OSError, ValueError) as e:
        fail(str(e), 2)


def build():
    """Configures (once) and builds mittbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found (src/CMakeLists.txt); run from a full checkout", 2)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "mittbench", "-j", jobs])
    with open(log_path, "w", encoding="utf-8") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, env=env,
                                      check=False).returncode
            except OSError as e:
                fail(f"cannot run {step[0]}: {e}", 2)
            if code != 0:
                log.flush()
                with open(log_path, encoding="utf-8", errors="replace") as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build step failed: {' '.join(step)}", 2)
    return os.path.join(build_dir, "mittbench")


def run_one(argv):
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--results-dir", default=os.path.join(ROOT, ".bench_out", "results"))
    args = parser.parse_args(argv)
    s = spec()
    if args.workload not in [w["name"] for w in s["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("seed must be >= 0 and seconds in [1, 3600]", 2)

    binary = build()
    work_dir = os.path.join(ROOT, ".bench_out", "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=BINARY_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {BINARY_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    # Exit code 1 still carries a result: a failed correctness check.
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"mittbench exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])
    result = {k: raw[k] for k in benchlib.RESULT_KEYS}
    problems = benchlib.check_result(result, s, args.trace)
    for p in problems:
        print(f"SCHEMA: {p}")
    if problems:
        result["correct"] = False

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "provenance": benchlib.provenance(ROOT, raw, args.seed),
        "result": result,
        "detail": raw.get("detail", {}),
        "scorecard": raw.get("scorecard", ""),
    }
    os.makedirs(args.results_dir, exist_ok=True)
    name = f"{args.workload}.t{args.trace}.s{args.seed}.json"
    with open(os.path.join(args.results_dir, name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def invoke(workload, seed, seconds, trace, results_dir):
    """Runs this script for one workload; returns the saved record, whose
    result says whether the correctness checks passed."""
    path = os.path.join(results_dir, f"{workload}.t{trace}.s{seed}.json")
    if os.path.exists(path):
        os.remove(path)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--results-dir", results_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1) or not os.path.exists(path):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        fail(f"{workload} seed {seed} trace {trace} failed (exit code {proc.returncode})")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def steady(argv):
    argparse.ArgumentParser(prog="run.py steady").parse_args(argv)
    s = spec()
    workloads = [w["name"] for w in s["workloads"]]
    ok = True
    for set_name, seeds in (("tune", TUNE_SEEDS), ("held-out", HELD_OUT_SEEDS)):
        out_dir = os.path.join(ROOT, ".bench_out", "steady", set_name)
        for workload in workloads:
            values = {m["name"]: [] for m in s["end_to_end"]}
            for seed in seeds:
                record = invoke(workload, seed, s["run_seconds"], 0, out_dir)
                ok &= record["result"]["correct"]
                for name, metric in record["result"]["metrics"].items():
                    values[name].append(metric["value"])
            print(f"{set_name} {workload} ({len(seeds)} seeds)")
            for m in s["end_to_end"]:
                sp = benchlib.spread(values[m["name"]])
                q1, med, q3 = benchlib.quartiles(values[m["name"]])
                exempt = m["name"] == "setup_s"
                status = ("exempt" if exempt else
                          "steady" if sp <= m["bound"] / 3 else
                          "ok" if sp <= m["bound"] else "TOO WIDE")
                ok &= exempt or sp <= m["bound"]
                print(f"  {m['name']:<16} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                      f"spread {sp:.4f} bound {m['bound']} {status}")
            record = invoke(workload, seeds[0], s["run_seconds"], 1, out_dir)
            ok &= record["result"]["correct"]
            metrics = record["result"]["metrics"]
            untraced = record["detail"]["untraced_ns_per_get"]["value"]
            floor = -benchlib.UNATTRIBUTED_BOUND * untraced
            unattributed = metrics["unattributed_ns_per_get"]["value"]
            ladder_ok = floor <= unattributed
            ok &= ladder_ok
            selves = " ".join(f"{name.split('.')[0]} {metrics[name]['value']:.0f}"
                              for name in benchlib.SELF_METRICS)
            print(f"  unattributed_ns_per_get {unattributed:.1f} of untraced {untraced:.1f} "
                  f"(floor {floor:.1f}) {'ok' if ladder_ok else 'TOO NEGATIVE'}; self ns/get: "
                  f"{selves}; tracing_overhead_pct "
                  f"{metrics['tracing_overhead_pct']['value']:.2f}")
    print("steady: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def load_set(path):
    records = []
    for name in sorted(os.listdir(path)):
        if name.endswith(".json"):
            with open(os.path.join(path, name), encoding="utf-8") as f:
                records.append(json.load(f))
    return records


def compare(argv):
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("base_dir")
    parser.add_argument("change_dir")
    args = parser.parse_args(argv)
    s = spec()
    base = [r for r in load_set(args.base_dir) if r["trace"] == 0]
    change = [r for r in load_set(args.change_dir) if r["trace"] == 0]
    if not base or not change:
        fail("both result sets need end-to-end (--trace 0) results", 2)
    reference = base[0]["provenance"]
    for r in base + change:
        differs = benchlib.comparable(reference, r["provenance"])
        if differs:
            fail(f"refusing to compare: provenance differs in {differs} "
                 f"({r['workload']} seed {r['seed']})", 2)
    paired = {}
    for w in [w["name"] for w in s["workloads"]]:
        b = {r["seed"]: r for r in base if r["workload"] == w}
        c = {r["seed"]: r for r in change if r["workload"] == w}
        if not set(b) & set(c):
            continue
        if set(b) != set(c):
            fail(f"{w}: the two sets ran different seeds", 2)
        problems = benchlib.pairing_problems(b, c)
        if problems:
            fail(f"refusing to compare {w}: " + "; ".join(problems), 2)
        paired[w] = (b, c)
    summary = {}
    for w, (b, c) in paired.items():
        seeds = sorted(b)
        base_first = sum(1 for seed in seeds if b[seed]["finished"] < c[seed]["finished"])
        row = {}
        for m in s["end_to_end"]:
            bv = [b[seed]["result"]["metrics"][m["name"]]["value"] for seed in seeds]
            cv = [c[seed]["result"]["metrics"][m["name"]]["value"] for seed in seeds]
            pairs = list(zip(bv, cv))
            wins, losses, ties = benchlib.pair_wins(pairs, m["better"])
            row[m["name"]] = {
                "verdict": benchlib.verdict(bv, cv, pairs, m["better"], m["bound"]),
                "base": benchlib.quartiles(bv),
                "change": benchlib.quartiles(cv),
                "pairs_won": wins, "pairs_lost": losses, "ties": ties,
            }
        summary[w] = {"pairs": len(seeds), "base_ran_first": base_first, "metrics": row}
        cells = " ".join(f"{name}={v['verdict']}" for name, v in row.items())
        print(f"{w:<18} pairs {len(seeds)} (base first in {base_first}) {cells}")
    print()
    for w, entry in summary.items():
        for name, v in entry["metrics"].items():
            bq, cq = v["base"], v["change"]
            print(f"{w:<18} {name:<16} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] "
                  f"won {v['pairs_won']}/{entry['pairs']} -> {v['verdict']}")
    print(json.dumps(summary, sort_keys=True))
    return 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "steady":
        return steady(argv[1:])
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    return run_one(argv)


if __name__ == "__main__":
    sys.exit(main())
