#!/usr/bin/env python3
"""Tests of the benchmark's own logic (stdlib unittest, no build needed):

    python3 perfbench/test_run.py
"""
import json
import os
import stat
import sys
import tempfile
import types
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_p99_when_enough_samples(self):
        values = list(range(1, 2001))  # 2000 samples: p99 leaves 20 beyond
        v, q, n = run.tail_percentile(values)
        self.assertEqual((v, n), (1980, 2000))
        self.assertAlmostEqual(q, 0.99)

    def test_lowered_to_keep_ten_beyond(self):
        values = list(range(1, 101))  # p99 would leave 1 beyond
        v, q, n = run.tail_percentile(values)
        self.assertEqual(v, 90)  # ten samples (91..100) lie above it
        self.assertAlmostEqual(q, 0.90)
        self.assertEqual(sum(1 for x in values if x > v), 10)

    def test_too_few_samples(self):
        self.assertEqual(run.tail_percentile(list(range(10)))[0], None)
        self.assertEqual(run.tail_percentile(list(range(11)))[0], 0)


def session(due, ready, start, failed=0):
    return {"due_ms": due, "ready_ms": ready, "start_ms": start, "failed": failed}


class OpenLoopAccounting(unittest.TestCase):
    def test_waiting_for_the_connection_is_not_lateness(self):
        # The second session waits 5 ms behind the first on the same
        # connection: it starts when ready, so the generator was not late.
        s = run.session_summary([session(0, 0, 0), session(1, 6, 6)], 0.1)
        self.assertEqual(s["late_ms"], [0, 0])

    def test_generator_lateness(self):
        s = run.session_summary([session(10, 10, 13)], 0.1)
        self.assertEqual(s["late_ms"], [3])

    def test_backlog_and_unstarted(self):
        sessions = [session(0, 0, 0), session(1, 50, 50),
                    session(2, 60, 60), session(3, -1, -1)]
        s = run.session_summary(sessions, 0.1)  # phase ends at 100 ms
        # At t=50 the sessions due at 2 and 3 ms are still waiting.
        self.assertEqual(s["backlog_max"], 2)
        self.assertEqual(s["unstarted"], 1)
        self.assertEqual(s["end_backlog"], 1)

    def test_steady_phase_has_no_backlog(self):
        sessions = [session(i, i, i) for i in range(100)]
        s = run.session_summary(sessions, 0.1)
        self.assertEqual((s["backlog_max"], s["end_backlog"]), (0, 0))

    def test_failed_sessions_are_counted(self):
        s = run.session_summary([session(0, 0, 0, failed=1)], 0.1)
        self.assertEqual(s["failed_sessions"], 1)


FAKE_PERFBENCH = r'''#!/usr/bin/env python3
import json, sys
args = dict(a[2:].split("=", 1) for a in sys.argv[2:] if "=" in a)
if "samples-out" in args:
    with open(args["samples-out"], "w") as f:
        f.write("\n".join(str(10 + i % 7) for i in range(500)))
print(json.dumps({"digest": "%DIGEST%", "simulations": 500, "deterministic": True,
                  "check_failure": "", "trace_failure": "%TRACE%", "req_per_s": 1e7, "setup_s": 0.01,
                  "peak_rss_mb": 20.0, "byte_hit_ratio": 0.2}))
'''


class DigestCheck(unittest.TestCase):
    def run_sim_with(self, produced, expected, trace_failure=""):
        with tempfile.TemporaryDirectory() as d:
            exe = os.path.join(d, "perfbench")
            with open(exe, "w") as f:
                f.write(FAKE_PERFBENCH.replace("%DIGEST%", produced)
                        .replace("%TRACE%", trace_failure))
            os.chmod(exe, os.stat(exe).st_mode | stat.S_IEXEC)
            saved = run.load_reference
            run.load_reference = lambda: {"sweep_paper": expected}
            try:
                cfg = {"args": {}, "reference": {"seed": 7, "args": {}}}
                args = types.SimpleNamespace(seed=1, seconds=1, trace=0)
                return run.run_sim("sweep_paper", cfg, exe, args, d, os.path.join(d, "spans"))
            finally:
                run.load_reference = saved

    def test_matching_digest_passes(self):
        _, _, _, problems, attempted, _ = self.run_sim_with("abc", "abc")
        self.assertEqual(problems, [])
        self.assertEqual(attempted, 1000)

    def test_digest_mismatch_fails_the_run(self):
        problems = self.run_sim_with("abc", "abd")[3]
        self.assertEqual(len(problems), 1)
        self.assertIn("reference digest", problems[0])

    def test_traced_loop_divergence_fails_the_run(self):
        problems = self.run_sim_with("abc", "abc", "traced loop diverged in cell 3")[3]
        self.assertEqual(problems, ["traced loop diverged in cell 3"])


class Results(unittest.TestCase):
    def test_missing_end_to_end_metric_is_an_error(self):
        specs = [{"name": "req_per_s", "unit": "req/s"}]
        with self.assertRaises(run.BenchError):
            run.compose(specs, [], {"req_per_s": None}, {}, trace=False)

    def test_workloads_match_benchmark_json(self):
        with open(run.BENCHMARK) as f:
            listed = [w["name"] for w in json.load(f)["workloads"]]
        self.assertEqual(sorted(listed), sorted(run.WORKLOADS))

    def test_unexercised_layer_reads_zero(self):
        out = run.compose([], [{"name": "server.fill_gb_s", "unit": "GB/s"}], {}, {}, trace=True)
        self.assertEqual(out["server.fill_gb_s"], {"value": 0.0, "unit": "GB/s"})

    def test_compare_refuses_other_fingerprints(self):
        fp = {"cpu": "A", "nproc": 4, "compiler": "GNU 12", "build_type": "Release",
              "lto": True, "sc_native": False}
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for i, cpu in enumerate(("A", "B")):
                p = os.path.join(d, "%d.json" % i)
                with open(p, "w") as f:
                    json.dump({"fingerprint": dict(fp, cpu=cpu),
                               "result": {"metrics": {}}}, f)
                paths.append(p)
            self.assertEqual(run.compare(*paths), 2)


if __name__ == "__main__":
    unittest.main()
