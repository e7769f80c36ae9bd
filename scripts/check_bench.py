#!/usr/bin/env python3
"""Schema validator for the BENCH_chaos.json trajectory document.

Usage: check_bench.py chaos <path>

Runs against both the freshly generated smoke document and the committed
root trajectory, so a stale checked-in BENCH file fails CI.

The document is parsed with `parse_constant` set to fail: the JSON spec has
no NaN/Infinity, and a bench writer that truncates or passes non-finite
floats through produced exactly that bug once (see lint rule L007).
"""

import json
import sys


def fail(message):
    sys.exit(f"check_bench: {message}")


def reject_constant(token):
    fail(f"non-finite JSON constant {token!r} (bench writers must emit null)")


def load(path):
    try:
        with open(path) as handle:
            return json.load(handle, parse_constant=reject_constant)
    except OSError as err:
        fail(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        fail(f"{path} is not valid JSON: {err}")


def check_chaos(doc, path):
    got = doc.get("schema")
    if got != "mint-chaos-v1":
        fail(f"{path}: schema is {got!r}, expected 'mint-chaos-v1'")
    scenarios = doc["scenarios"]
    if not isinstance(scenarios, list) or not scenarios:
        fail(f"{path}: empty scenario list")
    for index, scenario in enumerate(scenarios):
        for key in ("mint_capture_rate", "rca"):
            if key not in scenario:
                fail(f"{path}: scenario #{index} is missing {key!r}")
    print(f"{path} OK: {len(scenarios)} scenarios")


def main():
    args = sys.argv[1:]
    if len(args) != 2 or args[0] != "chaos":
        fail("usage: check_bench.py chaos <path>")
    path = args[1]
    doc = load(path)
    try:
        check_chaos(doc, path)
    except (KeyError, TypeError, AttributeError) as err:
        fail(f"{path}: malformed chaos document ({err!r})")


if __name__ == "__main__":
    main()
