#!/usr/bin/env python3
"""Fail when a fresh JSON document's key structure differs from a checked-in one.

    python3 tools/check_json_keys.py [--skip-arrays] CHECKED_IN FRESH

Compares the sets of key paths ("/rows[]/speedup", ...) of the two
documents and ignores every value, so documents whose numbers vary by
machine (wall-clock benches, serve and metrics snapshots) can still be
pinned by schema.  Array elements are descended into ("[]" in the path)
unless --skip-arrays is given, for documents whose array elements may
legitimately differ in shape between runs.  Exits 0 when the schemas
match, 1 (printing the differing paths) when they do not.
"""
import argparse
import json
import sys


def keys(node, prefix="", arrays=True):
    """Every key path under `node`."""
    out = set()
    if isinstance(node, dict):
        for k, v in node.items():
            out.add(f"{prefix}/{k}")
            out |= keys(v, f"{prefix}/{k}", arrays)
    elif isinstance(node, list) and arrays:
        for v in node:
            out |= keys(v, f"{prefix}[]", arrays)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checked_in")
    ap.add_argument("fresh")
    ap.add_argument("--skip-arrays", action="store_true",
                    help="do not descend into arrays")
    args = ap.parse_args()
    with open(args.checked_in) as f:
        want = keys(json.load(f), arrays=not args.skip_arrays)
    with open(args.fresh) as f:
        got = keys(json.load(f), arrays=not args.skip_arrays)
    if got != want:
        print(f"schema drift between {args.checked_in} and {args.fresh}:",
              file=sys.stderr)
        for path in sorted(want - got):
            print(f"  missing: {path}", file=sys.stderr)
        for path in sorted(got - want):
            print(f"  extra:   {path}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
