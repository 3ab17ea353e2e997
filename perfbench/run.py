#!/usr/bin/env python3
"""The repository benchmark: one command per workload, Release build only.

    python3 perfbench/run.py --workload sweep_paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds perfbench/ (which compiles the
checkout's src/ and apps/proxy_daemon.cpp) into $CARGO_TARGET_DIR or
.bench_build, runs the workload for --seconds, checks its outputs and
prints the result as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
A detail line (sample counts, percentiles used, host fingerprint) is
printed just before it and saved under <build>/results/, with the spans
of a traced run.

    python3 perfbench/run.py --compare OLD.json NEW.json
compares two saved results and refuses when their fingerprints differ.
See perfbench/README.md for why each workload exists and what each
metric means.
"""
import argparse
import bisect
import csv
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Inputs of `perfbench sim` per workload: the timed grid, and the small
# fixed-seed grid whose digest must match reference.json. A fault plan's
# windows are request times, so it scales with the trace length.
WORKLOADS = {
    "sweep_paper": {
        "args": {"objects": 5000, "requests": 100000, "runs": 10},
        "reference": {"seed": 7, "args": {"objects": 1000, "requests": 20000, "runs": 2}},
    },
    "fleet_chaos": {
        "args": {"objects": 5000, "requests": 50000, "runs": 20,
                 "fault": "fault:outage=200000+15000@r1,degrade=225000+30000x0.5,"
                          "blackout=250000+30000,flap=280000+30000@600"},
        "reference": {"seed": 7, "args": {
            "objects": 1000, "requests": 40000, "runs": 1,
            "fault": "fault:outage=160000+12000@r1,degrade=180000+24000x0.5,"
                     "blackout=200000+24000,flap=224000+24000@600"}},
        # The traced run also measures the server and loadgen layers.
        "serve_layers": True,
    },
}

# The live serve phase of a traced fleet_chaos run: a persisting daemon
# with the catalog `perfbench load` and `perfbench probe` assume (2000
# objects, seed 42); the session mix and rate (3000 sessions/s of 4-16
# KiB ranges) are fixed in load_gen.cpp.
SERVE = {
    "daemon": ["--policy=pb", "--estimator=ewma", "--cache=0.02", "--objects=2000",
               "--seed=42", "--snapshot-interval-s=0.5"],
    "warm_s": 1.0,
    "nominal_s": 3.0,
    # The run is invalid when the generator itself is the bottleneck.
    "loadgen_cpu_frac_max": 0.9,
    "loadgen_late_p99_ms_max": 5.0,
}


class BenchError(Exception):
    """A failure that makes the run invalid (non-zero exit, no result)."""


# --------------------------------------------------------------- statistics
def tail_percentile(values, q=0.99, beyond=10):
    """The q-th percentile (nearest rank), lowered until at least `beyond`
    samples lie above it. Returns (value, percentile used, sample count);
    value is None when fewer than beyond + 1 samples exist."""
    n = len(values)
    if n <= beyond:
        return None, None, n
    v = sorted(values)
    k = min(max(0, math.ceil(q * n) - 1), n - 1 - beyond)
    return v[k], (k + 1) / n, n


def median(values):
    return statistics.median(values) if values else None


# --------------------------------------------------------------- sessions
def read_sessions(path):
    with open(path) as f:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]


def session_summary(sessions, duration_s):
    """Open-loop accounting of one phase's session records (times in ms
    from the phase epoch; start < 0 means never started).

    late      start - ready, where ready = max(due, connection free): how
              late the generator itself ran
    backlog   sessions due but not yet started, sampled at each start and
              at the end of the phase
    """
    started = [s for s in sessions if s["start_ms"] >= 0]
    due = sorted(s["due_ms"] for s in sessions)
    starts = sorted(s["start_ms"] for s in started)

    def backlog_at(t):
        # due <= t minus started <= t
        return bisect.bisect_right(due, t) - bisect.bisect_right(starts, t)

    end_backlog = backlog_at(duration_s * 1e3)
    backlog = [backlog_at(t) for t in starts] + [end_backlog]
    return {
        "sessions": len(sessions),
        "unstarted": len(sessions) - len(started),
        "failed_sessions": sum(1 for s in sessions if s["failed"] != 0),
        "late_ms": [s["start_ms"] - s["ready_ms"] for s in started],
        "backlog_max": max(backlog),
        "end_backlog": end_backlog,
    }


# --------------------------------------------------------------- build
def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    out = build_dir()
    src = os.path.relpath(HERE)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        r = subprocess.run(["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError("configure failed (is this the root of a full checkout?)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError("build failed")
    return os.path.join(out, "perfbench"), os.path.join(out, "proxy_daemon")


def tree_digest():
    h = hashlib.sha256()
    for top in ("src", "apps", os.path.relpath(HERE)):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                p = os.path.join(root, name)
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def fingerprint(perfbench):
    info = json.loads(subprocess.run([perfbench, "info"], capture_output=True, text=True,
                                     check=True).stdout.strip().splitlines()[-1])
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = r.stdout.strip() or None
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "lto": info["lto"],
        "sc_native": False,  # perfbench/CMakeLists.txt never tunes for the host
        "commit": commit or tree_digest(),
    }


def same_host(a, b):
    keys = ("cpu", "nproc", "compiler", "build_type", "lto", "sc_native")
    return all(a.get(k) == b.get(k) for k in keys)


# --------------------------------------------------------------- processes
class Children:
    """Every process the benchmark starts; all are killed and reaped on
    every exit path."""

    def __init__(self):
        self.procs = []

    def start(self, argv, **kw):
        p = subprocess.Popen(argv, **kw)
        self.procs.append(p)
        return p

    def stop(self, p, sig=signal.SIGTERM, timeout=10):
        if p.poll() is None:
            p.send_signal(sig)
            try:
                p.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        if p.stdout:
            p.stdout.close()
        if p in self.procs:
            self.procs.remove(p)

    def stop_all(self):
        for p in list(self.procs):
            self.stop(p, signal.SIGKILL)


def run_json(argv, timeout=170):
    r = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    if r.returncode != 0:
        raise BenchError("%s failed: %s" % (os.path.basename(argv[0]) + " " + argv[1],
                                            r.stderr.strip()[-500:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


def flags(d):
    return ["--%s=%s" % (k, v) for k, v in d.items()]


def load_reference():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def reference_digest(perfbench, name, cfg):
    ref = cfg["reference"]
    return run_json([perfbench, "sim", "--workload=" + name, "--seed=%d" % ref["seed"],
                     "--seconds=0", "--min-passes=1"] + flags(ref["args"]))


# --------------------------------------------------------------- sim workloads
def run_sim(name, cfg, perfbench, args, workdir, spans_path):
    ref_rec = reference_digest(perfbench, name, cfg)
    samples = os.path.join(workdir, "sim_wall_ms.txt")
    argv = [perfbench, "sim", "--workload=" + name, "--seed=%d" % args.seed,
            "--seconds=%g" % args.seconds, "--samples-out=" + samples] + flags(cfg["args"])
    if args.trace:
        argv += ["--trace=1", "--trace-out=" + spans_path]
    rec = run_json(argv)
    with open(samples) as f:
        wall_ms = [float(x) for x in f if x.strip()]

    problems = []
    expected = load_reference().get(name)
    if expected is None:
        problems.append("no reference digest for %s" % name)
    elif ref_rec["digest"] != expected:
        problems.append("reference digest %s != %s" % (ref_rec["digest"], expected))
    if not rec["deterministic"]:
        problems.append("grid passes disagree (nondeterministic results)")
    for key in ("check_failure", "trace_failure"):
        if rec.get(key):
            problems.append(rec[key])

    p99, q_used, n = tail_percentile(wall_ms)
    e2e = {
        "req_per_s": rec["req_per_s"],
        "setup_s": rec["setup_s"],
        "peak_rss_mb": rec["peak_rss_mb"],
        "byte_hit_ratio": rec["byte_hit_ratio"],
    }
    layers = {k: v for k, v in rec.items() if isinstance(v, (int, float)) and "." in k}
    detail = {"sim": rec, "reference_digest": ref_rec["digest"],
              "simulation_samples": n, "sim_wall_p50_ms": median(wall_ms),
              "sim_wall_p99_ms": p99, "sim_wall_p99_percentile": q_used}
    attempted = int(rec["simulations"]) + int(ref_rec["simulations"])
    return e2e, layers, detail, problems, attempted, 0


# --------------------------------------------------------------- serve layers
def proc_cpu_s(pid):
    """utime + stime seconds of a running process."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def launch_daemon(children, daemon, tmp):
    argv = [daemon, "--port=0", "--persist-dir=" + tempfile.mkdtemp(prefix="persist-", dir=tmp)]
    p = children.start(argv + SERVE["daemon"], stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL)
    deadline = time.perf_counter() + 30
    while time.perf_counter() < deadline:
        r, _, _ = select.select([p.stdout], [], [], 0.5)
        if r:
            line = p.stdout.readline()
            if line.startswith(b"LISTENING"):
                return p, int(line.split()[1])
            if not line:
                break
    children.stop(p, signal.SIGKILL)
    raise BenchError("daemon did not report LISTENING")


def load_phase(perfbench, port, seed, duration, workdir, tag, trace_out=None):
    ses = os.path.join(workdir, tag + "_sessions.csv")
    argv = [perfbench, "load", "--port=%d" % port, "--seed=%d" % seed,
            "--duration=%g" % duration, "--sessions-out=" + ses]
    if trace_out:
        argv.append("--trace-out=" + trace_out)
    summary = run_json(argv)
    s = session_summary(read_sessions(ses), duration)
    s.update(summary)
    return s


def run_serve_layers(perfbench, daemon, seed, workdir, spans_path):
    """The server and loadgen layers: a live daemon under open-loop
    sessions (warm, nominal, traced nominal, wire AUDIT), then the
    in-process server probes."""
    children = Children()
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    try:
        proc, port = launch_daemon(children, daemon, tmp)
        load_phase(perfbench, port, seed * 1000 + 1, SERVE["warm_s"], workdir, "warm")
        cpu0 = proc_cpu_s(proc.pid)
        nominal = load_phase(perfbench, port, seed * 1000 + 2, SERVE["nominal_s"], workdir,
                             "nominal")
        cpu1 = proc_cpu_s(proc.pid)
        traced = load_phase(perfbench, port, seed * 1000 + 3, SERVE["nominal_s"], workdir,
                            "traced", trace_out=spans_path)
        audit = run_json([perfbench, "audit", "--port=%d" % port])
        children.stop(proc)
    finally:
        children.stop_all()

    phases = (nominal, traced)
    problems = []
    if audit["audit"].get("ok") is not True:
        problems.append("wire AUDIT failed: %s" % json.dumps(audit["audit"]))
    failures = sum(int(s["failures"]) for s in phases)
    if failures:
        problems.append("%d GETs failed" % failures)
    cpu_frac = nominal["cpu_s"] / (nominal["wall_s"] * nominal["connections"])
    late_p99 = tail_percentile(nominal["late_ms"])[0] or 0.0
    if cpu_frac > SERVE["loadgen_cpu_frac_max"]:
        problems.append("load generator saturated (cpu_frac %.2f)" % cpu_frac)
    if late_p99 > SERVE["loadgen_late_p99_ms_max"]:
        problems.append("load generator late (p99 %.2f ms)" % late_p99)

    stats = audit["stats"]
    probe = run_json([perfbench, "probe", "--seed=%d" % seed, "--tmp=" + tmp])
    layers = {k: v for k, v in probe.items() if k.startswith("server.")}
    layers.update({
        "server.cpu_us_per_get": (cpu1 - cpu0) * 1e6 / max(1, nominal["gets"]),
        "server.persist_records_per_session":
            stats.get("journal_records", 0) / max(1, stats.get("sessions", 1)),
        "loadgen.cpu_frac": cpu_frac,
        "loadgen.late_p99_ms": late_p99,
        "loadgen.backlog_max": nominal["backlog_max"],
    })
    detail = {
        "gets": [int(s["gets"]) for s in phases],
        "unstarted": [s["unstarted"] for s in phases],
        "verified_bytes": sum(s["verified_bytes"] for s in phases),
        "audit": audit["audit"],
        "daemon_stats": stats,
    }
    return layers, detail, problems, sum(int(s["gets"]) for s in phases), failures


# --------------------------------------------------------------- main
def metric_specs():
    with open(BENCHMARK) as f:
        b = json.load(f)
    return b["end_to_end"], b["per_layer"]


def compose(e2e_specs, layer_specs, e2e, layers, trace):
    """The result's metrics: every end-to-end metric (trace 0) or every
    per-layer metric (trace 1); a per-layer metric the workload does not
    exercise reads 0."""
    out = {}
    if trace:
        for m in layer_specs:
            out[m["name"]] = {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
        return out
    for m in e2e_specs:
        v = e2e.get(m["name"])
        if v is None:
            raise BenchError("metric %s was not measured" % m["name"])
        out[m["name"]] = {"value": v, "unit": m["unit"]}
    return out


def compare(old_path, new_path):
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    if not same_host(old["fingerprint"], new["fingerprint"]):
        log("refusing to compare results from different hosts/builds:\n  %s\n  %s"
            % (old["fingerprint"], new["fingerprint"]))
        return 2
    e2e_specs, _ = metric_specs()
    for m in e2e_specs:
        a = old["result"]["metrics"].get(m["name"])
        b = new["result"]["metrics"].get(m["name"])
        if a and b:
            print("%-20s %14.6g -> %14.6g  (%+.1f%%)" % (m["name"], a["value"], b["value"],
                                                        100 * (b["value"] / a["value"] - 1)))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--write-reference", action="store_true",
                    help="record the reference digests of the workloads")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.write_reference and args.workload is None:
        ap.error("--workload is required")

    perfbench, daemon = build()
    fp = fingerprint(perfbench)
    if fp["build_type"] != "Release":
        raise BenchError("refusing a %s build: the benchmark measures Release only"
                         % fp["build_type"])
    if args.write_reference:
        ref = {name: reference_digest(perfbench, name, cfg)["digest"]
               for name, cfg in WORKLOADS.items()}
        with open(REFERENCE, "w") as f:
            json.dump(ref, f, indent=2, sort_keys=True)
            f.write("\n")
        log("wrote %s" % REFERENCE)
        return 0
    cfg = WORKLOADS[args.workload]
    e2e_specs, layer_specs = metric_specs()

    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    workdir = tempfile.mkdtemp(prefix="run-", dir=build_dir())
    try:
        e2e, layers, detail, problems, attempted, failed = run_sim(
            args.workload, cfg, perfbench, args, workdir, stem + "-spans.jsonl")
        if args.trace and cfg.get("serve_layers"):
            l2, d2, p2, a2, f2 = run_serve_layers(perfbench, daemon, args.seed, workdir,
                                                  stem + "-serve-spans.jsonl")
            layers.update(l2)
            detail["serve_layers"] = d2
            problems += p2
            attempted += a2
            failed += f2
        result = {
            "correct": not problems,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": compose(e2e_specs, layer_specs, e2e, layers, args.trace),
        }
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "fingerprint": fp, "problems": problems,
                  "end_to_end": e2e, "detail": detail, "result": result}
        with open(stem + ".json", "w") as f:
            json.dump(record, f, indent=1, default=str)
        print(json.dumps({"detail": detail, "fingerprint": fp, "problems": problems},
                         default=str))
        print(json.dumps(result))
        if problems:
            log("correctness check failed: " + "; ".join(problems))
            return 1
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except BenchError as e:
        log("perfbench: " + str(e))
        sys.exit(1)
