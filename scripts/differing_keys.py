#!/usr/bin/env python3
"""Prints the top-level keys of JSON records OLD and NEW whose values differ,
comma-separated, in OLD's key order.  scripts/gate.sh and
scripts/gate_full.sh name a mismatching record's keys with it.

Usage: differing_keys.py OLD NEW
"""
import json
import sys

try:
    old, new = (json.load(open(p)) for p in sys.argv[1:3])
except (OSError, ValueError) as e:
    print(f"unreadable: {e}")
    sys.exit(0)
if not (isinstance(old, dict) and isinstance(new, dict)):
    print("whole record")
    sys.exit(0)
missing = object()
keys = list(old) + [k for k in new if k not in old]
print(", ".join(k for k in keys if old.get(k, missing) != new.get(k, missing))
      or "same values, different bytes")
