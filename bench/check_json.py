"""Checks bench artifacts: each file must parse as JSON and open with the
header every BENCH_*.json shares (benchmark, host_cpus, build_type).

Usage: python3 bench/check_json.py FILE...   (exit 1 on the first bad file)
"""
import json
import sys

HEADER = ["benchmark", "host_cpus", "build_type"]

for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or list(doc)[:3] != HEADER:
        sys.exit(f"{path}: does not start with the header keys {HEADER}")
    print(f"{path}: ok ({doc['benchmark']}, {doc['build_type']}, {doc['host_cpus']} cpus)")
