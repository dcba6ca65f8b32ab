#!/usr/bin/env python3
"""perfbench: the repository's host-wall-clock benchmark.

Run one workload (builds perfbench/ from source first, then runs the workload
in a fresh process and prints one JSON result as the last line of output):

    python3 perfbench/run.py --workload boids_v5 --seed 1 --seconds 20 --trace 0

Compare two sets of result records (directories of the JSON records each run
writes to <build>/results/):

    python3 perfbench/run.py compare <results-a> <results-b>

Print each end-to-end metric's median and interquartile spread (as a share
of the median) next to its bound:

    python3 perfbench/run.py spread <results>

Re-record the modelled reference values (perfbench/reference.json):

    python3 perfbench/run.py record --seeds 0-63

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout root. CUPP_* environment variables are dropped for the
workload process so the env-gated recorders stay off unless a run enables
them itself.
"""
import argparse
import concurrent.futures
import fcntl
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("boids_v5", "boids_v6_grid", "kernel_calls", "serve_soak")
BUILD_TYPE = "RelWithDebInfo"
CHILD_TIMEOUT_S = 170
REFERENCE = HERE / "reference.json"
LAYERS = HERE / "layers.json"


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no source tree at {ROOT / 'src'}; nothing to benchmark")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not (bdir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                die(f"build step failed: {' '.join(cmd)}")
    return bdir / "perfbench"


def child_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("CUPP_")}


def run_binary(binary, workload, seed, seconds, trace, record=False, spans_out=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    if record:
        cmd.append("--record")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=child_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {CHILD_TIMEOUT_S} s", 1)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        die(f"{workload} exited with code {done.returncode}", 1)
    return json.loads(lines[-1])


def load_reference():
    if not REFERENCE.is_file():
        return {}
    with open(REFERENCE) as f:
        return json.load(f)


def check_reference(record, workload, seed):
    """Failures where a modelled value differs from the recorded reference."""
    expected = load_reference().get(workload, {}).get(str(seed))
    if expected is None:
        return [], False
    got = record["reference"]
    failures = [f"reference {key}: expected {value!r}, got {got.get(key)!r}"
                for key, value in sorted(expected.items()) if got.get(key) != value]
    return failures, True


def cmd_run(args):
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    binary = build()
    results = build_dir() / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = results / f"{stem}.spans.json" if args.trace else None
    record = run_binary(binary, args.workload, args.seed, args.seconds, args.trace,
                        spans_out=spans)
    ref_failures, pinned = check_reference(record, args.workload, args.seed)
    record["failures"] += ref_failures
    record["failed"] += len(ref_failures)
    record["correct"] = record["failed"] == 0
    record["info"]["reference_pinned"] = "1" if pinned else "0"
    with open(results / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for line in record["failures"][:20]:
        print(f"FAIL: {line}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


# --- record ------------------------------------------------------------------

def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_record(args):
    binary = build()
    workloads = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    reference = load_reference()
    jobs = [(w, s) for w in workloads for s in parse_seeds(args.seeds)]

    def one(job):
        workload, seed = job
        return job, run_binary(binary, workload, seed, 0, 0, record=True)

    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for (workload, seed), record in pool.map(one, jobs):
            if record["failed"]:
                die(f"{workload} seed {seed} failed its checks: {record['failures'][:3]}", 1)
            reference.setdefault(workload, {})[str(seed)] = record["reference"]
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(jobs)} references into {REFERENCE}")
    return 0


# --- compare -------------------------------------------------------------------

def load_records(directory):
    """{(workload, trace): {seed: record}} from a results directory."""
    out = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        with open(path) as f:
            rec = json.load(f)
        info = rec.get("info", {})
        key = (info.get("workload"), int(info.get("trace", "0")))
        out.setdefault(key, {})[info.get("seed")] = rec
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound, pairs):
    """The choosing-metrics rule: a gain needs >= 9/10 pair wins and a median
    shift beyond the parent's own spread; a loss is a median worse by more
    than the bound; a spread wider than the bound is unresolved unless every
    run of one side beats every run of the other."""
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    spread_a = (qa[2] - qa[0]) / abs(med_a) if med_a else 0.0
    spread_b = (qb[2] - qb[0]) / abs(med_b) if med_b else 0.0
    worse = -sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if spread_a > bound or spread_b > bound:
        if sign * (min(b) if sign > 0 else max(b)) > sign * (max(a) if sign > 0 else min(a)):
            return "improved (every run)"
        return "unresolved (spread above bound)"
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > (qa[2] - qa[0]):
        return "improved"
    if worse > bound:
        return "regressed"
    return "unchanged (within bound)"


def cmd_compare(args):
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    a, b = load_records(args.a), load_records(args.b)
    print(f"{'workload':<14} {'metric':<12} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34}  verdict")
    for workload in WORKLOADS:
        ra, rb = a.get((workload, 0), {}), b.get((workload, 0), {})
        if not ra or not rb:
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            va = [r["metrics"][name]["value"] for r in ra.values() if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in rb.values() if name in r["metrics"]]
            if not va or not vb:
                continue
            pairs = [(ra[s]["metrics"][name]["value"], rb[s]["metrics"][name]["value"])
                     for s in ra if s in rb and name in ra[s]["metrics"]
                     and name in rb[s]["metrics"]]
            qa, qb = quartiles(va), quartiles(vb)
            print(f"{workload:<14} {name:<12} "
                  f"{qa[1]:>12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]".ljust(62) +
                  f"{qb[1]:>12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]".ljust(36) +
                  f" {verdict(va, vb, m['better'], m['bound'], pairs)}  (n={len(va)}/{len(vb)})")
    # Per-layer medians, with the end-to-end metric each should move.
    with open(LAYERS) as f:
        moves = json.load(f)
    for workload in WORKLOADS:
        ra, rb = a.get((workload, 1), {}), b.get((workload, 1), {})
        if not ra or not rb:
            continue
        print(f"\n{workload}: per-layer medians (traced runs)")
        for name, where in moves.items():
            va = [r["metrics"][name]["value"] for r in ra.values() if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in rb.values() if name in r["metrics"]]
            if va and vb and (any(va) or any(vb)):
                print(f"  {name:<34} {statistics.median(va):>14.6g} {statistics.median(vb):>14.6g}"
                      f"   moves: {where}")
    return 0


def cmd_spread(args):
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    records = load_records(args.results)
    for workload in WORKLOADS:
        recs = records.get((workload, 0), {})
        if not recs:
            continue
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in recs.values()
                      if m["name"] in r["metrics"]]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / abs(q2) if q2 else 0.0
            print(f"{workload:<14} {m['name']:<12} n={len(values):<3} median {q2:<14.6g} "
                  f"spread {spread:.4f}  bound {m['bound']}  "
                  f"{'ok' if spread < m['bound'] / 3 else 'WIDE'}")
    return 0


def main(argv):
    if argv and argv[0] == "spread":
        p = argparse.ArgumentParser(prog="run.py spread")
        p.add_argument("results", help="results directory")
        return cmd_spread(p.parse_args(argv[1:]))
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a", help="results directory of the parent")
        p.add_argument("b", help="results directory of the change")
        return cmd_compare(p.parse_args(argv[1:]))
    if argv and argv[0] == "record":
        p = argparse.ArgumentParser(prog="run.py record")
        p.add_argument("--seeds", default="0-63")
        p.add_argument("--workloads", default="")
        p.add_argument("--jobs", type=int, default=2)
        return cmd_record(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
