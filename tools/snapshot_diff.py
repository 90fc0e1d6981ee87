#!/usr/bin/env python3
"""Diff two metric snapshots written by obs::Registry::to_csv().

Usage: tools/snapshot_diff.py OLD.csv NEW.csv

Rows are keyed by (kind, subsystem, name, node). Prints the rows removed,
changed and added, and marks every added row whose value columns are not all
zero. Exits 1 if any row was removed or changed, else 0, so a regenerated
golden file that only gains cells reads as additive at a glance.
"""
import csv
import sys


def load(path):
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = {}
        for row in reader:
            if not row:
                continue
            rows[tuple(row[:4])] = row[4:]
    return header[4:], rows


def show(key, values, fields):
    cells = ",".join(f"{f}={v}" for f, v in zip(fields, values) if v != "")
    return f"{key[0]} {key[1]}/{key[2]} node={key[3]}: {cells}"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fields, old = load(argv[1])
    _, new = load(argv[2])

    removed = sorted(k for k in old if k not in new)
    changed = sorted(k for k in old if k in new and old[k] != new[k])
    added = sorted(k for k in new if k not in old)
    nonzero = [k for k in added if any(v not in ("", "0") for v in new[k])]

    print(f"removed: {len(removed)}")
    for k in removed:
        print("  - " + show(k, old[k], fields))
    print(f"changed: {len(changed)}")
    for k in changed:
        print("  ~ " + show(k, old[k], fields) + "  ->  " + show(k, new[k], fields))
    print(f"added: {len(added)} ({len(nonzero)} non-zero)")
    for k in added:
        mark = "  [non-zero]" if k in nonzero else ""
        print("  + " + show(k, new[k], fields) + mark)
    return 1 if removed or changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
