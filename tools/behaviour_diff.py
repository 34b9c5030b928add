#!/usr/bin/env python3
"""Per-sink behaviour diff between two figures-quick output directories.

    python3 tools/behaviour_diff.py BASE_DIR HEAD_DIR [--summary FILE] [--changed FILE]

Each directory holds the JSONL sinks `bench/main.exe figures-quick`
writes (results.jsonl and its derived sinks).  Records are compared
with the scheduling fields (worker, duration_s) dropped.  Within a
sink, records are grouped by (config, profile, seed_index, seed) and
compared as multisets, so a sink that emits several records per key
still diffs exactly: a record with a counterpart on the other side is
identical or changed, one without is missing.

Prints a markdown table of identical / changed / missing records per
sink, appending it to --summary when given (CI passes
$GITHUB_STEP_SUMMARY); --changed writes every differing record, tagged
"base" or "head", as JSONL.  Always exits 0: a pull request may change
behaviour on purpose, and the table is there to show whether it did.
"""

import argparse
import collections
import json
import os

SINKS = ["results.jsonl", "results-wearlevel.jsonl", "results-fleet.jsonl", "results-hybrid.jsonl"]
SCHEDULING = ("worker", "duration_s")


def load(path):
    """key -> Counter of canonical record strings, or None if the sink is absent."""
    if not os.path.exists(path):
        return None
    groups = collections.defaultdict(collections.Counter)
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            for k in SCHEDULING:
                rec.pop(k, None)
            key = (rec.get("config"), rec.get("profile"), rec.get("seed_index"), rec.get("seed"))
            groups[key][json.dumps(rec, sort_keys=True)] += 1
    return groups


def diff_sink(base, head):
    """(identical, changed, missing, differing records as (side, record))"""
    identical = changed = missing = 0
    differing = []
    for key in sorted(set(base) | set(head), key=repr):
        b, h = base.get(key, collections.Counter()), head.get(key, collections.Counter())
        identical += sum((b & h).values())
        only_b, only_h = b - h, h - b
        nb, nh = sum(only_b.values()), sum(only_h.values())
        changed += min(nb, nh)
        missing += abs(nb - nh)
        differing += [("base", json.loads(r)) for r in only_b.elements()]
        differing += [("head", json.loads(r)) for r in only_h.elements()]
    return identical, changed, missing, differing


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--summary", help="append the markdown table to this file")
    ap.add_argument("--changed", help="write differing records to this JSONL file")
    args = ap.parse_args()

    rows, differing, absent = [], [], False
    for sink in SINKS:
        base, head = load(os.path.join(args.base, sink)), load(os.path.join(args.head, sink))
        if base is None or head is None:
            side = "base" if base is None else "head"
            rows.append(f"| `{sink}` | — | — | — | — | — | **absent on {side}** |")
            absent = True
            continue
        identical, changed, missing, diff = diff_sink(base, head)
        count = lambda g: sum(sum(c.values()) for c in g.values())
        verdict = "identical" if changed == 0 and missing == 0 else "**differs**"
        rows.append(
            f"| `{sink}` | {count(base)} | {count(head)} | {identical} | {changed} | {missing} | {verdict} |"
        )
        differing += [dict(sink=sink, side=side, record=rec) for side, rec in diff]

    if absent:
        outcome = "**incomplete**: a sink is absent on one side (did its run fail?)"
    elif differing:
        outcome = f"**behaviour changed**: {len(differing)} differing records (see the behaviour-diff artifact)"
    else:
        outcome = "**byte-identical**"
    table = [
        "### Behaviour diff: figures-quick, base vs head",
        "",
        "Scheduling fields (`worker`, `duration_s`) ignored.",
        "",
        "| sink | base | head | identical | changed | missing | verdict |",
        "|---|---:|---:|---:|---:|---:|---|",
        *rows,
        "",
        outcome,
        "",
    ]
    text = "\n".join(table)
    print(text)
    if args.summary:
        with open(args.summary, "a") as f:
            f.write(text + "\n")
    if args.changed:
        with open(args.changed, "w") as f:
            for d in differing:
                f.write(json.dumps(d, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
