#!/usr/bin/env python3
"""Key-presence gate of tools/check_bench_regression.py.

Every committed BENCH_*.json must pass against itself, and must fail —
naming the key — against a copy with one key deleted: a top-level key, a
key of a nested object, a key of every element of an array, and the
element keys of an array emptied outright. This is what proves that a
change to how a bench writes its JSON dropped no field.

Usage: bench_gate_keys_test.py CHECK_BENCH_REGRESSION_PY REPO_ROOT
"""

import copy
import glob
import json
import os
import subprocess
import sys
import tempfile


def run_gate(tool, baseline, candidate):
    proc = subprocess.run([sys.executable, tool, baseline, candidate],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def deletions(doc):
    """(path, mutated copy) pairs, one per kind of deletion doc offers."""
    last = list(doc)[-1]  # never the "bench" kind key the gate dispatches on
    top = copy.deepcopy(doc)
    del top[last]
    yield last, top
    for key, value in doc.items():
        if isinstance(value, dict) and value:
            inner = next(iter(value))
            nested = copy.deepcopy(doc)
            del nested[key][inner]
            yield f"{key}.{inner}", nested
            break
    for key, value in doc.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            inner = next(iter(value[0]))
            arr = copy.deepcopy(doc)
            for element in arr[key]:
                element.pop(inner, None)
            yield f"{key}[].{inner}", arr
            emptied = copy.deepcopy(doc)
            emptied[key] = []
            yield f"{key}[].{inner}", emptied
            break


def main():
    tool, root = sys.argv[1], sys.argv[2]
    baselines = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not baselines:
        print(f"no BENCH_*.json under {root}")
        return 1
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for baseline in baselines:
            name = os.path.basename(baseline)
            rc, out = run_gate(tool, baseline, baseline)
            if rc != 0:
                print(f"FAIL {name} against itself:\n{out}")
                failures += 1
            with open(baseline) as f:
                doc = json.load(f)
            for path, mutated in deletions(doc):
                candidate = os.path.join(tmp, name)
                with open(candidate, "w") as f:
                    json.dump(mutated, f)
                rc, out = run_gate(tool, baseline, candidate)
                if rc != 1 or f"lacks key {path!r}" not in out:
                    print(f"FAIL {name} without {path!r}: rc={rc}\n{out}")
                    failures += 1
                else:
                    print(f"ok: {name} without {path!r} is rejected")
    print("GATE KEYS FAIL" if failures else "GATE KEYS PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
