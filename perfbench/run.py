#!/usr/bin/env python3
"""Repository benchmark: build, run and aggregate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds bench.exe from source with dune, then runs the workload one
iteration per fresh process (perfbench/bench.ml) until --seconds of
iterations have run, and prints one JSON result as the last line of
stdout: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1.  Iterations of a --trace 1 run
alternate between spans on (those also replay the layers) and spans off,
which is how the spans' own cost is measured.  Host facts, every
iteration record and the spans are written to perfbench/_out/.
See perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
EXPECTED = os.path.join("perfbench", "expected.txt")

MIN_ITERATIONS = 3
# A run must end within 180 s: no iteration starts after RUN_DEADLINE_S,
# and every process still running at KILL_DEADLINE_S is killed.
RUN_DEADLINE_S = 150.0
KILL_DEADLINE_S = 170.0
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# -- statistics ---------------------------------------------------------


def tail_percentile(samples, q, beyond=10):
    """Nearest-rank q-quantile, or None unless at least `beyond` samples
    lie above it: a tail is only reported with ten samples past it."""
    n = len(samples)
    if n == 0:
        return None
    k = max(1, math.ceil(q * n))
    if n - k < beyond:
        return None
    return sorted(samples)[k - 1]


def highest_tail(samples, qs=(0.99, 0.95, 0.9, 0.75, 0.5)):
    for q in qs:
        v = tail_percentile(samples, q)
        if v is not None:
            return q, v
    return None


# -- host facts ---------------------------------------------------------


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("_"))
            for f in sorted(filenames):
                if f.endswith((".ml", ".mli", ".c")) or f == "dune":
                    p = os.path.join(dirpath, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def host_facts(ocaml_host):
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "source_digest": source_digest(),
    }
    facts.update({"recommended_domain_count": ocaml_host.get("domains"),
                  "ocaml_version": ocaml_host.get("ocaml")})
    return facts


# -- processes ----------------------------------------------------------


def child_env(tmpdir):
    env = dict(os.environ)
    env["TMPDIR"] = tmpdir
    env["DUNE_CACHE"] = "disabled"
    return env


def reap_group(pgid):
    """Kill whatever is left of an iteration's process group (a shard
    node orphaned by a crash) and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "./perfbench/bench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
            env=child_env(os.environ.get("TMPDIR", "/tmp")), timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return False
    return r.returncode == 0 and os.path.exists(os.path.join(ROOT, BENCH))


def run_process(cmd, tmpdir, deadline):
    """Run one bench.exe process; return (seconds to its "ready" line or
    None, its last stdout line or None, exit code)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         start_new_session=True, env=child_env(tmpdir))
    timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                            lambda: reap_group(p.pid))
    timer.start()
    setup, last = None, None
    try:
        for line in p.stdout:
            if setup is None and line.strip() == "ready":
                setup = time.perf_counter() - t0
            elif line.strip():
                last = line
        rc = p.wait()
    finally:
        timer.cancel()
        reap_group(p.pid)
    return setup, last, rc


# -- one run ------------------------------------------------------------


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def median(xs):
    return statistics.median(xs)


def end_to_end(recs):
    return {
        "evals_per_s": median([r["evals"] / r["timed_s"] for r in recs]),
        "req_per_s": median([r["requests"] / r["timed_s"] for r in recs]),
        "req_p50_ms": median([median(r["req_ms"]) for r in recs]),
        "setup_s": median([r["setup_s"] for r in recs]),
        "peak_rss_mb": median([r["rss_kb"] / 1024.0 for r in recs]),
    }


def per_layer(traced, untraced, shard):
    names = set()
    for r in traced:
        names.update(r["layers"])
    out = {k: median([r["layers"][k] for r in traced if k in r["layers"]])
           for k in names}

    def per_eval(key):
        return median([r["extra"][key] / max(1, r["evals"]) for r in traced])

    out["gc.minor_words_per_eval"] = per_eval("minor_words")
    out["gc.major_collections"] = median(
        [r["extra"]["major_collections"] for r in traced])
    out["io.rchar_per_eval"] = per_eval("rchar")
    out["io.wchar_per_eval"] = per_eval("wchar")
    out["engine.evals"] = median([r["evals"] for r in traced])
    out["bench.span_overhead_frac"] = (
        median([r["timed_s"] for r in traced])
        / median([r["timed_s"] for r in untraced]) - 1.0)
    out.update(shard)
    return out


def main_run(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        log("unknown workload %r (expected one of %s)"
            % (args.workload, ", ".join(workloads)))
        return 2
    if not build():
        log("build failed")
        return 1
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    kill_at = start + KILL_DEADLINE_S
    run_id = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    rundir = os.path.join(ROOT, "perfbench", "_run", run_id)
    outdir = os.path.join(ROOT, "perfbench", "_out")
    os.makedirs(rundir, exist_ok=True)
    os.makedirs(outdir, exist_ok=True)
    traced, untraced, spans = [], [], []
    attempted = failed = 0
    failures = []
    i = 0
    try:
        while True:
            elapsed = time.monotonic() - start
            have = min(len(traced), len(untraced)) if args.trace else len(untraced)
            if have >= MIN_ITERATIONS and elapsed >= args.seconds:
                break
            if time.monotonic() >= deadline:
                break
            with_spans = bool(args.trace) and i % 2 == 0
            d = os.path.join(rundir, "it%d" % i)
            os.makedirs(d)
            cmd = [BENCH, "iter", "--workload", args.workload,
                   "--seed", str(args.seed), "--dir", d,
                   "--expected", EXPECTED]
            if with_spans:
                cmd.append("--spans")
            if i == 0:
                cmd.append("--reference")
            setup, last, rc = run_process(cmd, d, kill_at)
            shutil.rmtree(d, ignore_errors=True)
            i += 1
            try:
                rec = json.loads(last) if rc == 0 and setup is not None else None
            except (TypeError, ValueError):
                rec = None
            if rec is None:
                attempted += 1
                failed += 1
                failures.append("iteration %d exited %d" % (i - 1, rc))
                continue
            rec["setup_s"] = setup
            attempted += rec["attempted"]
            failed += rec["failed"]
            failures.extend(rec["failures"])
            for s in rec.pop("spans"):
                s.update({"run": run_id, "iteration": i - 1})
                spans.append(s)
            (traced if with_spans else untraced).append(rec)
        shard = {}
        if traced:
            _, last, rc = run_process(
                [BENCH, "shard-probe", "--batch", str(traced[0]["batch"])],
                rundir, kill_at)
            attempted += 1
            try:
                shard = json.loads(last) if rc == 0 else {}
            except (TypeError, ValueError):
                shard = {}
            if not shard:
                failed += 1
                failures.append("shard probe failed")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    if not untraced or (args.trace and not traced):
        log("no iteration completed: %s" % "; ".join(failures[:5]))
        return 1
    for f in failures:
        log("FAILED: " + f.strip())

    if args.trace:
        values = per_layer(traced, untraced, shard)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(untraced)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            log("metric %s was not measured" % m["name"])
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    recs = untraced + traced
    facts = host_facts(recs[0]["host"])
    latencies = [x for r in untraced for x in r["req_ms"]]
    tail = highest_tail(latencies)
    notes = {"iterations": len(recs), "request_samples": len(latencies),
             "req_tail": tail}
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    for r in recs:
        r.pop("host", None)
    with open(os.path.join(outdir, tag + ".json"), "w") as f:
        json.dump({"host": facts, "metrics": metrics, "notes": notes,
                   "failures": failures, "iterations": recs}, f, indent=1)
    if spans:
        with open(os.path.join(outdir, "spans-" + tag + ".jsonl"), "w") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
    for name, m in metrics.items():
        log("%-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("perfbench host: " + json.dumps(facts, sort_keys=True))
    print("perfbench notes: " + json.dumps(notes, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# -- self-tests ---------------------------------------------------------


def selftest():
    failures = []

    def expect(what, ok):
        if not ok:
            failures.append(what)

    for good in ("evals_per_s", "session.make_ms", "pool.speedup_j2", "a-b.c_1"):
        expect("name %r accepted" % good, NAME_RE.match(good))
    for bad in ("", ".x", "_x", "a b", "a/b", "x" * 65, "p99%"):
        expect("name %r rejected" % bad, not NAME_RE.match(bad))

    expect("p99 of 1000 has ten beyond", tail_percentile(range(1, 1001), 0.99) == 990)
    expect("p99 of 999 withheld", tail_percentile(range(999), 0.99) is None)
    expect("p50 of 20 has ten beyond", tail_percentile(range(20), 0.5) == 9)
    expect("p50 of 19 withheld", tail_percentile(range(19), 0.5) is None)
    expect("highest tail of 200 is p95", highest_tail(list(range(200)))[0] == 0.95)
    expect("no tail of 5", highest_tail([1, 2, 3, 4, 5]) is None)

    spec = load_spec()
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in spec[k]]
    expect("BENCHMARK.json names unique", len(names) == len(set(names)))
    for n in names:
        expect("BENCHMARK.json name %r" % n, NAME_RE.match(n))

    for f in failures:
        print("FAIL " + f)
    print("run.py selftest: %s" % ("OK" if not failures else "FAILED"))
    if not build():
        return 1
    r = subprocess.run([BENCH, "selftest", "--expected", EXPECTED], cwd=ROOT)
    return 1 if failures or r.returncode != 0 else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
