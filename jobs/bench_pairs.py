#!/usr/bin/env python3
"""Paired benchmark of two commits: writes BENCH_<workload>.json.

Usage (from the repository root):

    python3 jobs/bench_pairs.py --parent REV --change REV --workload grid \
        --seeds 1-10 --workdir DIR

Each commit is extracted with `git archive` into its own directory under
`--workdir`, so both sides build from committed files only. For every seed,
`perfbench/run.py --workload W --seed N --seconds S --trace 0` runs once on
each side, interleaved: odd seeds run the parent first, even seeds the change.
S is BENCHMARK.json's `run_seconds`. The output, BENCH_<workload>.json in the
repository root, has the layout of the committed BENCH_*.json files: the
seeds, the machine (from the run records), each side's median, quartiles and IQR of every
end-to-end metric of BENCHMARK.json, how many seed pairs the change won per
metric, and whether every grid digest of both sides is equal (null on a
workload without grids).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MACHINE_KEYS = ("nproc", "jvm", "spark", "master", "driver_max_heap_mb")


def fail(msg):
    print(f"bench_pairs: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    try:
        seeds = list(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        fail(f"--seeds must be N or N-M, got {text!r}")
    if not seeds or seeds[0] < 0:
        fail(f"--seeds must name at least one seed >= 0, got {text!r}")
    return seeds


def rev_parse(rev):
    r = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                       capture_output=True, text=True)
    if r.returncode != 0:
        fail(f"not a commit: {rev}")
    return r.stdout.strip()


def extract(sha, dest):
    """The committed tree of `sha` in `dest`, replacing anything there."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail(f"could not extract {sha} into {dest}")


def run_once(checkout, workload, seed, seconds):
    """(metrics, record) of one untraced perfbench run in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr[-4000:])
        fail(f"{' '.join(cmd)} failed ({r.returncode}) in {checkout}")
    result = json.loads(lines[-1])
    with open(os.path.join(checkout, "perfbench", "out", f"record-{workload}-seed{seed}-trace0.json")) as fh:
        record = json.load(fh)
    return {k: v["value"] for k, v in result["metrics"].items()}, record


def summary(values, unit):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="N or N-M (inclusive)")
    ap.add_argument("--workdir", required=True, help="scratch directory for the two checkouts")
    a = ap.parse_args()
    seeds = parse_seeds(a.seeds)
    if len(seeds) < 2:
        fail("quartiles need at least two seeds")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {a.workload!r}")
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]

    sides = {"parent": rev_parse(a.parent), "change": rev_parse(a.change)}
    checkouts = {side: os.path.join(os.path.abspath(a.workdir), side) for side in sides}
    for side, sha in sides.items():
        extract(sha, checkouts[side])

    runs = {side: [] for side in sides}
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            m, rec = run_once(checkouts[side], a.workload, seed, seconds)
            runs[side].append((m, rec))
            print(f"seed {seed} {side}: " + " ".join(f"{k}={m[k]:.6g}" for k in sorted(m)), flush=True)

    machine = {k: runs["parent"][0][1]["config"][k] for k in MACHINE_KEYS}
    for side in sides:
        for _, rec in runs[side]:
            if {k: rec["config"][k] for k in MACHINE_KEYS} != machine:
                fail(f"runs disagree on the machine: {machine} vs {rec['config']}")

    pairs = {}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        diffs = [sign * (c[0][name] - p[0][name]) for p, c in zip(runs["parent"], runs["change"])]
        pairs[name] = {"change_better": sum(d > 0 for d in diffs), "ties": sum(d == 0 for d in diffs),
                       "pairs": len(diffs)}
    # null when the workload checks no grids (`build`)
    digest_pairs = [(p[1]["grid_digests"], c[1]["grid_digests"]) for p, c in zip(runs["parent"], runs["change"])]
    digests_equal = all(p == c for p, c in digest_pairs) if any(p or c for p, c in digest_pairs) else None
    out = {
        "workload": a.workload,
        "command": f"python3 perfbench/run.py --workload {a.workload} --seed N --seconds {seconds:g} --trace 0",
        "seeds": seeds,
        "order": "one parent and one change run per seed, alternating which runs first (odd seeds: parent first)",
        "quartiles": "Python statistics.quantiles(n=4) over the runs of one side",
        "machine": machine,
        **{side: {"git_sha": sha, "runs": len(runs[side]),
                  "metrics": {m["name"]: summary([r[0][m["name"]] for r in runs[side]], m["unit"])
                              for m in metrics}}
           for side, sha in sides.items()},
        "pairs": pairs,
        "grid_digests_equal": digests_equal,
    }
    path = os.path.join(ROOT, f"BENCH_{a.workload}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
