#!/usr/bin/env python3
"""The repository benchmark: builds the measuring program from source and
runs one workload for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the repository root.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, medians over untraced runs, each in a
fresh process, with host times scaled to a reference host speed.  With --trace 1 they are the per-layer ones from one traced
run; its host spans are written to .bench_build/perfbench-spans-NAME.json.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
RESULTS = os.path.join(BUILD_DIR, "perfbench-results.json")

# A seeded workload (kv) serves this many load instances per run, with
# seeds derived from --seed, so its medians do not hang on one draw.
INSTANCES = 32
MIN_REPS = 3
# No new run starts after LAST_START_S seconds of measuring, and every
# process is stopped at HARD_STOP_S, so a run ends within 180 seconds.
LAST_START_S = 120
HARD_STOP_S = 170
# The host's speed drifts by tens of percent over minutes.  Each run's
# host times are scaled by REF_S over the time of a fixed reference loop
# (`perfbench.exe ref`) measured just before and just after it, so they
# read as on a host where that loop takes REF_S seconds.  The exponent
# says how a metric scales with time.
REF_S = 0.09
SCALED = {"setup_s": 1, "run_s": 1, "events_per_s": -1}
SIMULATED = {"sim_cycles"}


def die(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def build():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        die("run from the repository root (no dune-project or lib/ here)")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled", "--display", "quiet",
           "./perfbench/perfbench.exe"]
    # The compilers' temporary files stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=850,
                           env=dict(os.environ, TMPDIR=tmp))
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed:\n%s%s" % (r.stdout, r.stderr))


def call(args, deadline=None):
    """Run the measuring program; its last stdout line is a JSON object."""
    timeout = None if deadline is None else max(1, deadline - time.monotonic())
    try:
        r = subprocess.run([EXE] + args, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timed out after %.0fs" % timeout}
    lines = r.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"ok": False,
                "error": "no result (exit %d): %s" % (r.returncode, r.stderr.strip()[-500:])}
    if not out.get("ok"):
        out["ok"] = False
    return out


def workloads():
    out = call(["workloads"])
    if not out["ok"]:
        die(out.get("error", ""))
    return out["workloads"]


def source_hash():
    """Identifies the code under test, for the cross-run identity check."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(root, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def check_identity(wname, reps):
    """Runs of one seed must agree on every simulated result, within this
    invocation and with earlier invocations on the same sources.  Marks
    each disagreeing run as failed."""
    try:
        with open(RESULTS) as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    key = source_hash()
    known = store.get(key, {}).get(wname, {})
    for r in reps:
        if not r["ok"]:
            continue
        seed = str(r["seed"])
        ref = known.setdefault(seed, r["digest"])
        if r["digest"] != ref:
            r["ok"] = False
            r["error"] = "simulated results differ from another run of seed %s" % seed
    store = {key: dict(store.get(key, {}), **{wname: known})}
    tmp = RESULTS + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(store, fh)
    os.replace(tmp, RESULTS)


def ref_s(deadline):
    out = call(["ref"], deadline)
    return out["ref_s"] if out["ok"] else None


def scale(r, before, after):
    """Scales the run's host times to the reference speed; keeps its
    unscaled run_s as wall_run_s."""
    if before is None or after is None:
        r["ok"] = False
        r["error"] = "the reference loop failed"
        return
    r["ref_s"] = (before + after) / 2
    k = REF_S / r["ref_s"]
    r["wall_run_s"] = r["metrics"]["run_s"]["value"]
    for name, m in r["metrics"].items():
        m["value"] *= k ** SCALED.get(name, 0)


def run_reps(w, seeds, seconds, start, min_reps):
    reps = []
    deadline = start + HARD_STOP_S
    before = ref_s(deadline)
    while (time.monotonic() - start < seconds or len(reps) < min_reps) \
            and time.monotonic() - start < LAST_START_S:
        seed = seeds[len(reps) % len(seeds)]
        r = call(["rep", "--workload", w["name"], "--seed", str(seed)], deadline)
        after = ref_s(deadline)
        if r["ok"]:
            scale(r, before, after)
        before = after
        r.setdefault("seed", seed)
        reps.append(r)
    check_identity(w["name"], reps)
    for r in reps:
        if not r["ok"]:
            sys.stderr.write("perfbench: %s seed %s failed: %s\n"
                             % (w["name"], r["seed"], r.get("error", "")))
    return reps


def aggregate(reps):
    """Each metric's median over seeds of its median over that seed's runs,
    so every seed weighs the same however many runs it got.  A seed's runs
    agree on the simulated metrics; for those the mean over seeds is
    taken, which moves less than the median with the draw of seeds."""
    ok = [r for r in reps if r["ok"]]
    if not ok:
        return {}
    out = {}
    for name, m in ok[0]["metrics"].items():
        by_seed = {}
        for r in ok:
            by_seed.setdefault(r["seed"], []).append(r["metrics"][name]["value"])
        per_seed = [statistics.median(v) for v in by_seed.values()]
        over = statistics.fmean if name in SIMULATED else statistics.median
        out[name] = {"value": over(per_seed), "unit": m["unit"]}
    return out


def seeds_of(w, seed):
    return [seed * 100 + i for i in range(INSTANCES)] if w["seeded"] else [seed]


def measure(w, seed, seconds, trace):
    start = time.monotonic()
    seeds = seeds_of(w, seed)
    if not trace:
        reps = run_reps(w, seeds, seconds, start, max(MIN_REPS, len(seeds)))
        failed = sum(1 for r in reps if not r["ok"])
        return {"correct": failed == 0, "attempted": len(reps), "failed": failed,
                "metrics": aggregate(reps)}
    # Traced: untraced runs of the traced seed first, for the overhead.
    reps = run_reps(w, seeds[:1], 0.4 * seconds, start, 2)
    run_s = [r["wall_run_s"] for r in reps if r["ok"]]
    t = call(["trace", "--workload", w["name"], "--seed", str(seeds[0]),
              "--untraced-run-s", str(statistics.median(run_s) if run_s else 0)],
             deadline=start + HARD_STOP_S)
    if t["ok"]:
        with open(os.path.join(BUILD_DIR, "perfbench-spans-%s.json" % w["name"]), "w") as fh:
            json.dump(t["spans"], fh, indent=1)
    else:
        sys.stderr.write("perfbench: traced run failed: %s\n" % t.get("error", ""))
    ok = [r for r in reps if r["ok"]]
    if t["ok"] and ok and t["digest"] != ok[0]["digest"]:
        t["ok"] = False
        sys.stderr.write("perfbench: traced and untraced runs disagree\n")
    failed = sum(1 for r in reps if not r["ok"]) + (0 if t["ok"] else 1)
    metrics = {k: {"value": v["value"], "unit": v["unit"]}
               for k, v in t.get("metrics", {}).items()}
    refs = [r["ref_s"] for r in reps if r["ok"]]
    metrics["host.ref_s"] = {"value": statistics.median(refs) if refs else 0, "unit": "s"}
    return {"correct": failed == 0, "attempted": len(reps) + 1, "failed": failed,
            "metrics": metrics}


def print_table(title, metrics):
    print("== %s" % title)
    for name, m in metrics.items():
        print("  %-28s %18.6g %s" % (name, m["value"], m["unit"]))


def selftest():
    """Checks the benchmark itself; exits non-zero on the first failure."""
    def expect(cond, what):
        print("%s  %s" % ("ok  " if cond else "FAIL", what))
        if not cond:
            sys.exit(1)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    table = {m["name"]: m for m in call(["metrics"])["metrics"]}
    ws = workloads()
    expect({w["name"] for w in spec["workloads"]} <= {w["name"] for w in ws},
           "the program runs every workload BENCHMARK.json names")
    for kind in ("end_to_end", "per_layer"):
        named = {m["name"]: m for m in spec[kind]}
        mine = {n: m for n, m in table.items() if m["kind"] == kind}
        expect(sorted(named) == sorted(mine), "%s: BENCHMARK.json names every metric" % kind)
        for n, m in named.items():
            expect((m["unit"], m["better"]) == (mine[n]["unit"], mine[n]["better"]),
                   "%s: unit and direction agree" % n)
    for w in ws:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            res = measure(w, 7, 1, trace)
            expect(res["correct"], "%s --trace %d is correct" % (w["name"], trace))
            expect(sorted(res["metrics"]) == sorted(m["name"] for m in spec[kind]),
                   "%s --trace %d emits every %s metric" % (w["name"], trace, kind))
            for n, m in res["metrics"].items():
                expect(m["unit"] == table[n]["unit"], "%s: emitted with its unit" % n)
            if trace:
                ms = res["metrics"]
                expect(ms["svm.tlb_grants_words"]["value"] == 0,
                       "%s: Tlb.grants allocates nothing" % w["name"])
                expect(ms["core.read_hit_words"]["value"] <= 2,
                       "%s: an Api.read hit allocates at most its boxed result" % w["name"])
                expect(ms["check.par_identical"]["value"] == 1,
                       "%s: par 1 and par 2 simulate identically" % w["name"])
    kv = [w for w in ws if w["seeded"]][0]["name"]
    for seed in (7, 12345):
        r = call(["rep", "--workload", kv, "--seed", str(seed)])
        expect(r["ok"], "%s seed %d runs with no span dropped" % (kv, seed))
    # Par 2 allocates a few percent more for its windows and outboxes; a
    # count that saw only the calling domain would miss the helper's share.
    alloc = [call(["rep", "--workload", kv, "--seed", "7", "--par", str(par)])
             ["metrics"]["alloc_mb"]["value"] for par in (1, 2)]
    expect(abs(alloc[0] - alloc[1]) <= 0.1 * alloc[0],
           "%s alloc_mb at par 1 and par 2 agree within 10%% (%.1f, %.1f)"
           % (kv, alloc[0], alloc[1]))
    print("selftest: OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    build()
    if a.selftest:
        selftest()
        return
    ws = workloads()
    if a.workload == "all":
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in ws:
            res = measure(w, a.seed, a.seconds, a.trace)
            print_table("%s (correct=%s)" % (w["name"], res["correct"]), res["metrics"])
            total["correct"] = total["correct"] and res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for k, v in res["metrics"].items():
                total["metrics"]["%s/%s" % (w["name"], k)] = v
        print(json.dumps(total))
        return
    match = [w for w in ws if w["name"] == a.workload]
    if not match:
        die("unknown workload %r (known: %s, all)" % (a.workload, ", ".join(w["name"] for w in ws)))
    res = measure(match[0], a.seed, a.seconds, a.trace)
    print_table("%s (correct=%s)" % (a.workload, res["correct"]), res["metrics"])
    print(json.dumps(res))


if __name__ == "__main__":
    main()
