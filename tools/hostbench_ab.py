#!/usr/bin/env python3
"""Alternating-pairs A/B runner for the host-speed benchmark.

Builds two trees of the repository -- a parent and a change -- from
copies at paths of equal length (the checkout path is baked into panic
strings and moves code), then runs `hostbench/run.py` on both, one pair
per seed. The seed's parity decides which side runs first: an even seed
runs the parent first, an odd one the change. Every run lasts
BENCHMARK.json's `run_seconds`. For every end-to-end metric of
BENCHMARK.json it prints each side's median, quartiles, min and max,
the ratio of the medians (change / parent) and how many pairs the change
won (ties count for neither side), and writes the rounds, with every
pair's raw values, to a JSON file in the shape of the BENCH_<pr>.json
files at the repository root.

Run from the repository root:

    python3 tools/hostbench_ab.py --scratch /tmp/ab --parent HEAD~1 \\
        --change HEAD --workloads fault-campaign --seeds 5001-5010 \\
        --out BENCH_<pr>.json

`--change WORKTREE` (the default) copies the working tree's tracked and
untracked, not ignored, files instead of a commit. `--append` adds the
rounds to an existing output file. `--self-test` checks the statistics,
the run order and the output shape on a fixed input, without building or
running anything.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

SIDES = ("pa", "ch")
WORKTREE = "WORKTREE"
BUILD_DIR = ".bench_build"


def summary(values):
    """Median, quartiles (statistics.quantiles, n=4), min and max."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
    }


def change_wins(pairs, better):
    """Pairs whose change value beats the parent's; ties count for neither."""
    if better == "higher":
        return sum(1 for pa, ch in pairs if ch > pa)
    return sum(1 for pa, ch in pairs if ch < pa)


def order(seed):
    """The side that runs first, then the other: even seeds start with
    the parent."""
    return SIDES if seed % 2 == 0 else SIDES[::-1]


def parse_seeds(text):
    """`A-B` (inclusive) or a comma-separated list."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        seeds = list(range(lo, hi + 1))
    else:
        seeds = [int(x) for x in text.split(",")]
    if not seeds or min(seeds) < 0:
        raise ValueError(f"no non-negative seeds in {text!r}")
    return seeds


def run_round(workload, seeds, run):
    """Runs one pair per seed; `run(side, workload, seed)` returns the
    benchmark's result object. Returns the raw pairs in run order."""
    raw = []
    for seed in seeds:
        pair = {"seed": seed, "first": order(seed)[0]}
        for side in order(seed):
            pair[side] = run(side, workload, seed)
        raw.append(pair)
    return raw


def round_record(workload, raw, spec, tree=None):
    """A BENCH_<pr>.json round: each end-to-end metric's summaries, ratio
    and wins, plus every pair's raw values."""
    record = {
        "workload": workload,
        "seeds": [pair["seed"] for pair in raw],
        "pairs": len(raw),
        "correct": all(pair[s]["correct"] for pair in raw for s in SIDES),
        "failed": {s: sum(pair[s]["failed"] for pair in raw) for s in SIDES},
        "metrics": {},
    }
    if tree is not None:
        record["tree"] = tree
    for m in spec["end_to_end"]:
        name = m["name"]
        pairs = [
            (pair["pa"]["metrics"][name]["value"], pair["ch"]["metrics"][name]["value"])
            for pair in raw
        ]
        parent = summary([pa for pa, _ in pairs])
        change = summary([ch for _, ch in pairs])
        record["metrics"][name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": parent,
            "change": change,
            "ratio": change["median"] / parent["median"],
            "change_wins": change_wins(pairs, m["better"]),
        }
    record["raw"] = [
        {
            "seed": pair["seed"],
            "first": pair["first"],
            **{
                s: {name: v["value"] for name, v in pair[s]["metrics"].items()}
                for s in SIDES
            },
        }
        for pair in raw
    ]
    return record


def report(record):
    """The round as a table: one line per metric."""
    lines = [
        f"{record['workload']}: {record['pairs']} pairs, seeds "
        f"{record['seeds'][0]}-{record['seeds'][-1]}, correct {record['correct']}, "
        f"failed pa {record['failed']['pa']} ch {record['failed']['ch']}"
    ]
    head = f"  {'metric':<14}{'side':<4}{'median':>12}{'q1':>12}{'q3':>12}{'min':>12}{'max':>12}"
    lines.append(head)
    for name, m in record["metrics"].items():
        for side in ("parent", "change"):
            s = m[side]
            cells = "".join(f"{s[k]:>12.4g}" for k in ("median", "q1", "q3", "min", "max"))
            lines.append(f"  {name:<14}{side[:2]:<4}{cells}")
        lines.append(
            f"  {'':<14}ratio {m['ratio']:.3f}x, change wins "
            f"{m['change_wins']}/{record['pairs']} ({m['better']} is better)"
        )
    return "\n".join(lines)


def prepare(rev, dest):
    """Fills `dest` with the tree at `rev` (or the working tree), keeping
    an earlier build directory. Every file gets a fresh mtime, so Cargo
    rebuilds what it holds even when `rev` is older than that build."""
    os.makedirs(dest, exist_ok=True)
    for entry in os.listdir(dest):
        if entry != BUILD_DIR:
            path = os.path.join(dest, entry)
            if os.path.isdir(path) and not os.path.islink(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
    if rev == WORKTREE:
        files = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            stdout=subprocess.PIPE, check=True,
        ).stdout.split(b"\0")
        for name in filter(None, (f.decode() for f in files)):
            if os.path.isfile(name):
                os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
                shutil.copy(name, os.path.join(dest, name))
    else:
        archive = subprocess.run(["git", "archive", rev], stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-m", "-C", dest], input=archive.stdout, check=True)


def bench_env():
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    return env


def build(dest):
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "hostbench/Cargo.toml"],
        cwd=dest, env=dict(bench_env(), CARGO_TARGET_DIR=BUILD_DIR), check=True,
    )


def hostbench(dest, workload, seed, seconds):
    """One untraced run of `seconds` in the tree at `dest`: the result
    object `hostbench/run.py` prints last."""
    out = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=dest, env=bench_env(), stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def host():
    try:
        with open("/proc/cpuinfo") as f:
            model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                "unknown CPU",
            )
    except OSError:
        model = "unknown CPU"
    return f"{os.cpu_count()} vCPU, {model}"


def self_test():
    """The statistics, run order and output shape on a fixed input."""
    spec = {"end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
        {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
    ]}
    ops = {"pa": [100, 90, 110, 95, 105], "ch": [120, 99, 110, 118, 126]}
    rss = {"pa": [8.0, 8.0, 8.5, 8.25, 8.0], "ch": [8.5, 8.0, 8.25, 8.75, 8.5]}
    seeds = [10, 11, 12, 13, 14]
    calls = []

    def fake(side, workload, seed):
        calls.append((side, seed))
        k = seeds.index(seed)
        return {
            "correct": True, "attempted": 10, "failed": int(side == "ch" and k == 2),
            "metrics": {
                "ops_per_s": {"value": ops[side][k]},
                "peak_rss_mib": {"value": rss[side][k]},
            },
        }

    raw = run_round("fault-campaign", seeds, fake)
    assert calls[:4] == [("pa", 10), ("ch", 10), ("ch", 11), ("pa", 11)], calls
    assert [p["first"] for p in raw] == ["pa", "ch", "pa", "ch", "pa"]
    rec = round_record("fault-campaign", raw, spec, tree="final")
    m = rec["metrics"]["ops_per_s"]
    assert m["parent"] == {"median": 100, "q1": 92.5, "q3": 107.5, "min": 90, "max": 110}, m
    assert m["change"] == {"median": 118, "q1": 104.5, "q3": 123.0, "min": 99, "max": 126}, m
    assert m["ratio"] == 1.18 and m["change_wins"] == 4, m
    r = rec["metrics"]["peak_rss_mib"]
    assert r["change_wins"] == 1 and r["ratio"] == 8.5 / 8.0, r
    assert rec["failed"] == {"pa": 0, "ch": 1} and rec["correct"] is True
    assert rec["seeds"] == seeds and rec["pairs"] == 5 and rec["tree"] == "final"
    assert rec["raw"][1] == {
        "seed": 11, "first": "ch",
        "pa": {"ops_per_s": 90, "peak_rss_mib": 8.0},
        "ch": {"ops_per_s": 99, "peak_rss_mib": 8.0},
    }, rec["raw"][1]
    assert list(rec) == ["workload", "seeds", "pairs", "correct", "failed", "metrics",
                         "tree", "raw"], list(rec)
    json.dumps(rec)
    assert "ratio 1.180x, change wins 4/5" in report(rec)
    assert parse_seeds("5001-5003") == [5001, 5002, 5003]
    assert parse_seeds("7,9") == [7, 9]
    print("hostbench_ab self-test: ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    p.add_argument("--change", default=WORKTREE,
                   help=f"change revision, or {WORKTREE} (default)")
    p.add_argument("--scratch", help="directory for the two copies, pa/ and ch/")
    p.add_argument("--workloads", default="fault-campaign,rf3-mixed,pair-smallpkt")
    p.add_argument("--seeds", help="A-B or a comma-separated list; one pair per seed")
    p.add_argument("--out", help="BENCH_<pr>.json to write")
    p.add_argument("--append", action="store_true",
                   help="add the rounds to an existing --out file")
    p.add_argument("--tree", help="label each round with this tree name")
    p.add_argument("--title", default="", help="the file's `change` text")
    p.add_argument("--claim", help="WORKLOAD:METRIC:RATIO claimed")
    p.add_argument("--note", default="")
    args = p.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not (args.scratch and args.seeds and args.out):
        p.error("--scratch, --seeds and --out are required")
    seeds = parse_seeds(args.seeds)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    known = {w["name"] for w in spec["workloads"]}
    workloads = args.workloads.split(",")
    if not set(workloads) <= known:
        p.error(f"unknown workloads {sorted(set(workloads) - known)}")

    dirs = {"pa": os.path.join(args.scratch, "pa"), "ch": os.path.join(args.scratch, "ch")}
    for side, rev in (("pa", args.parent), ("ch", args.change)):
        print(f"hostbench_ab: {side} = {rev} in {dirs[side]}", file=sys.stderr)
        prepare(rev, dirs[side])
        build(dirs[side])

    def run(side, workload, seed):
        result = hostbench(dirs[side], workload, seed, spec["run_seconds"])
        ops = result["metrics"]["ops_per_s"]["value"]
        print(f"hostbench_ab: {workload} seed {seed} {side} ops_per_s {ops:.0f}",
              file=sys.stderr)
        return result

    if args.append:
        with open(args.out) as f:
            bench = json.load(f)
    else:
        bench = {
            "change": args.title,
            "command": "python3 hostbench/run.py --workload <w> --seed <s> "
                       f"--seconds {spec['run_seconds']} --trace 0",
            "method": "alternating parent/change pairs, one per seed, the side that "
                      "runs first swapping with the seed's parity; both sides built "
                      "from copies at paths of equal length (tools/hostbench_ab.py)",
            "host": host(),
            "note": args.note,
            "rounds": [],
        }
        if args.claim:
            workload, metric, ratio = args.claim.split(":")
            bench = {"change": bench.pop("change"),
                     "claim": {"workload": workload, "metric": metric,
                               "target_ratio": float(ratio)},
                     **bench}
    for workload in workloads:
        raw = run_round(workload, seeds, run)
        record = round_record(workload, raw, spec, args.tree)
        print(report(record))
        bench["rounds"].append(record)
        with open(args.out, "w") as f:
            f.write(json.dumps(bench, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
