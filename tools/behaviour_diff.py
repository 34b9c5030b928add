#!/usr/bin/env python3
"""Behaviour diff between two output directories: figures-quick sinks, printed tables, torture logs and benchmark digests.

    python3 tools/behaviour_diff.py BASE_DIR HEAD_DIR [--summary FILE] [--changed FILE]

Each directory holds the JSONL sinks `bench/main.exe figures-quick`
writes (results.jsonl and its derived sinks); every results*.jsonl
found in either directory is diffed, so a new derived sink needs no
edit here.  Records are compared
with the scheduling fields (worker, duration_s) dropped.  Within a
sink, records are grouped by (config, profile, seed_index, seed) and
compared as multisets, so a sink that emits several records per key
still diffs exactly: a record with a counterpart on the other side is
identical or changed, one without is missing.

Every tables*.txt (saved figures-quick stdout) found in either
directory is diffed line by line, so a table that reads the wrong cell
shows even when every sink record is intact: a line in a matching run
of lines is identical, one replaced by another is changed, and one with
no counterpart is missing.

Every torture*.log (the output of `bin/torture.exe`) found in either
directory is diffed seed by seed.  A seed is changed when its config,
status, violation or any key=value field printed on both sides
differs.  A field that only one side prints (say, a counter the head
added to the seed line) is listed under the table but does not count
as a change.

Every *.trace0.json (the result an untraced `bench/e2e/run.sh` run
writes under its --out directory) found in either directory, at any
depth, is compared by its `digest` and its `virt_us_per_op`: both equal
is identical, either different is changed, and a result on one side
only is missing.

Prints a markdown table of identical / changed / missing records per
sink, of lines per tables file, of seeds per torture log and of
benchmark results, appending them to --summary when given (CI passes
$GITHUB_STEP_SUMMARY); --changed writes every differing record, line,
seed and benchmark result, tagged "base" or "head", as JSONL.  Always
exits 0: a pull request may change behaviour on purpose, and the
tables are there to show whether it did.
"""

import argparse
import collections
import difflib
import glob
import json
import os

SCHEDULING = ("worker", "duration_s")


def sinks(*dirs):
    """Every results*.jsonl name in any of dirs, results.jsonl first."""
    names = {os.path.basename(p) for d in dirs for p in glob.glob(os.path.join(d, "results*.jsonl"))}
    return sorted(names, key=lambda n: (n != "results.jsonl", n))


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


def tables_files(*dirs):
    """Every tables*.txt name in any of dirs."""
    return sorted({os.path.basename(p) for d in dirs for p in glob.glob(os.path.join(d, "tables*.txt"))})


def load_lines(path):
    """The lines of path, or None if it is absent."""
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return f.read().splitlines()


def diff_lines(base, head):
    """(identical, changed, missing, differing lines as (side, line number, text))"""
    identical = changed = missing = 0
    differing = []
    for op, b0, b1, h0, h1 in difflib.SequenceMatcher(None, base, head, autojunk=False).get_opcodes():
        if op == "equal":
            identical += b1 - b0
            continue
        changed += min(b1 - b0, h1 - h0)
        missing += abs((b1 - b0) - (h1 - h0))
        differing += [("base", i + 1, base[i]) for i in range(b0, b1)]
        differing += [("head", i + 1, head[i]) for i in range(h0, h1)]
    return identical, changed, missing, differing


def tables_table(base_dir, head_dir):
    """(markdown lines, differing lines as dicts); no lines when neither side has a tables file."""
    names = tables_files(base_dir, head_dir)
    if not names:
        return [], []
    rows, differing, absent = [], [], False
    for name in names:
        base, head = load_lines(os.path.join(base_dir, name)), load_lines(os.path.join(head_dir, name))
        if base is None or head is None:
            side = "base" if base is None else "head"
            rows.append(f"| `{name}` | — | — | — | — | — | **absent on {side}** |")
            absent = True
            continue
        identical, changed, missing, diff = diff_lines(base, head)
        verdict = "identical" if changed == 0 and missing == 0 else "**differs**"
        rows.append(f"| `{name}` | {len(base)} | {len(head)} | {identical} | {changed} | {missing} | {verdict} |")
        differing += [dict(tables=name, side=side, line=n, text=text) for side, n, text in diff]
    if absent:
        outcome = "**incomplete**: a tables file is absent (did a run fail?)"
    elif differing:
        outcome = f"**tables changed**: {len(differing)} differing lines (see the behaviour-diff artifact)"
    else:
        outcome = "**identical tables**"
    lines = [
        "### Behaviour diff: printed tables, base vs head",
        "",
        "| file | base lines | head lines | identical | changed | missing | verdict |",
        "|---|---:|---:|---:|---:|---:|---|",
        *rows,
        "",
        outcome,
        "",
    ]
    return lines, differing


def torture_logs(*dirs):
    """Every torture*.log name in any of dirs."""
    return sorted({os.path.basename(p) for d in dirs for p in glob.glob(os.path.join(d, "torture*.log"))})


def load_torture(path):
    """seed -> {field: value} from a torture log, or None if the log is absent.

    A seed line reads "seed N CONFIG STATUS key=value ..."; the indented
    violation and repro lines after it are kept as its "violation"."""
    if not os.path.exists(path):
        return None
    seeds, last = {}, None
    with open(path) as f:
        for line in f:
            tok = line.split()
            if len(tok) >= 4 and tok[0] == "seed":
                last = {"config": tok[2], "status": tok[3], "violation": ""}
                last.update(t.split("=", 1) for t in tok[4:] if "=" in t)
                seeds[int(tok[1])] = last
            elif line.startswith("  ") and last is not None:
                last["violation"] = (last["violation"] + " " + line.strip()).strip()
    return seeds


def diff_torture(base, head):
    """(identical, changed, missing, one-sided fields as (side, name), differing seeds)"""
    identical = changed = missing = 0
    one_sided, differing = set(), []
    for seed in sorted(set(base) | set(head)):
        b, h = base.get(seed), head.get(seed)
        if b is None or h is None:
            missing += 1
            continue
        one_sided |= {("base", k) for k in b.keys() - h.keys()}
        one_sided |= {("head", k) for k in h.keys() - b.keys()}
        if all(b[k] == h[k] for k in b.keys() & h.keys()):
            identical += 1
        else:
            changed += 1
            differing += [(seed, "base", b), (seed, "head", h)]
    return identical, changed, missing, one_sided, differing


def torture_table(base_dir, head_dir):
    """(markdown lines, differing seeds as dicts); no lines when neither side has a log."""
    names = torture_logs(base_dir, head_dir)
    if not names:
        return [], []
    rows, differing, one_sided, absent = [], [], set(), False
    for log in names:
        base, head = load_torture(os.path.join(base_dir, log)), load_torture(os.path.join(head_dir, log))
        if base is None or head is None:
            side = "base" if base is None else "head"
            rows.append(f"| `{log}` | — | — | — | — | — | **absent on {side}** |")
            absent = True
            continue
        identical, changed, missing, fields, diff = diff_torture(base, head)
        one_sided |= fields
        verdict = "identical" if changed == 0 and missing == 0 else "**differs**"
        rows.append(f"| `{log}` | {len(base)} | {len(head)} | {identical} | {changed} | {missing} | {verdict} |")
        differing += [dict(log=log, seed=seed, side=side, record=rec) for seed, side, rec in diff]
    if absent:
        outcome = "**incomplete**: a torture log is absent (did a run fail?)"
    elif differing:
        outcome = f"**behaviour changed**: {len(differing) // 2} differing seeds (see the behaviour-diff artifact)"
    else:
        outcome = "**identical per seed**"
    lines = [
        "### Behaviour diff: torture, base vs head",
        "",
        "| log | base seeds | head seeds | identical | changed | missing | verdict |",
        "|---|---:|---:|---:|---:|---:|---|",
        *rows,
        "",
    ]
    if one_sided:
        listed = ", ".join(f"`{name}` ({side} only)" for side, name in sorted(one_sided, key=lambda f: (f[1], f[0])))
        lines += [f"Printed on one side only, not counted as changes: {listed}.", ""]
    return lines + [outcome, ""], differing


def bench_results(d):
    """relative path -> (digest, virt_us_per_op) of every *.trace0.json under d."""
    out = {}
    for p in glob.glob(os.path.join(d, "**", "*.trace0.json"), recursive=True):
        with open(p) as f:
            rec = json.load(f)
        virt = rec.get("metrics", {}).get("virt_us_per_op", {}).get("value")
        out[os.path.relpath(p, d)] = (rec.get("digest"), virt)
    return out


def bench_table(base_dir, head_dir):
    """(markdown lines, differing results as dicts); no lines when neither side has a result."""
    base, head = bench_results(base_dir), bench_results(head_dir)
    if not base and not head:
        return [], []
    rows, differing, missing = [], [], False
    for name in sorted(set(base) | set(head)):
        b, h = base.get(name), head.get(name)
        if b is None or h is None:
            rows.append(f"| `{name}` | — | — | — | — | **missing on {'base' if b is None else 'head'}** |")
            missing = True
        else:
            verdict = "identical" if b == h else "**changed**"
            rows.append(f"| `{name}` | {b[0]} | {h[0]} | {b[1]!r} | {h[1]!r} | {verdict} |")
        if b != h:
            differing += [
                dict(bench=name, side=side, digest=r[0], virt_us_per_op=r[1])
                for side, r in (("base", b), ("head", h))
                if r is not None
            ]
    if missing:
        outcome = "**incomplete**: a benchmark result is missing (did a run fail?)"
    elif differing:
        outcome = f"**benchmark behaviour changed**: {len(differing) // 2} results differ in digest or `virt_us_per_op`"
    else:
        outcome = "**identical digests and `virt_us_per_op`**"
    lines = [
        "### Behaviour diff: benchmark digests, base vs head",
        "",
        "| result | base digest | head digest | base `virt_us_per_op` | head `virt_us_per_op` | verdict |",
        "|---|---|---|---:|---:|---|",
        *rows,
        "",
        outcome,
        "",
    ]
    return lines, differing


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--summary", help="append the markdown table to this file")
    ap.add_argument("--changed", help="write differing records to this JSONL file")
    args = ap.parse_args()

    rows, differing, absent = [], [], False
    names = sinks(args.base, args.head)
    if not names:
        rows.append("| `results*.jsonl` | — | — | — | — | — | **absent on both** |")
        absent = True
    for sink in names:
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
        outcome = "**incomplete**: a sink is absent (a new sink, or did a run fail?)"
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
    tables, tables_differing = tables_table(args.base, args.head)
    torture, torture_differing = torture_table(args.base, args.head)
    bench, bench_differing = bench_table(args.base, args.head)
    differing += tables_differing + torture_differing + bench_differing
    text = "\n".join(table + tables + torture + bench)
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
