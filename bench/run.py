"""Benchmark of quillen-strata as users run it: one CLI job per fresh interpreter.

    python3 bench/run.py --workload kernel --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the run is a closed loop
with one client: it launches the workload's jobs one after another, in whole
rounds, until ``--seconds`` have passed, checks every output against the
oracles in ``oracle.py`` and prints the end-to-end metrics, with times
scaled by the interleaved ``reference.py`` job.  With
``--trace 1`` it runs a fixed number of rounds through ``tracer.py`` (so the
counts repeat exactly for a seed), prints the per-layer metrics, times the
same jobs untraced to report the tracing overhead on stderr, and runs the
tracer self-checks.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import jobs as jobs_mod
import oracle
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_EVERY = 4            # one fresh-interpreter import timed per 4 jobs
REF_EVERY = 2              # one reference job timed per 2 jobs
# wall time of reference.py on the 2-vCPU machine the benchmark was sized on
REF_NOMINAL_S = 0.09
TRACE_ROUNDS = 2           # rounds in a traced run
JOB_TIMEOUT_S = 60         # a job still running after this is killed and failed
SELF_CHECK_JOBS = {
    "kernel": ("spectrum", "--group", "sym:4", "--theory", "height1:p=2"),
    "glue": ("spectrum", "--group", "cyclic:12", "--theory", "ku", "--mode", "weak"),
    "splitting": ("spectrum", "--group", "cyclic:12", "--theory", "ku",
                  "--prime-bound", "97"),
}


class Runner:
    """Launches jobs from the checkout root and records wall time and max RSS."""

    def __init__(self, root):
        self.root = root
        self.out_dir = os.path.join(HERE, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith(("PYTHON", "QUILLEN_STRATA"))}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONHASHSEED"] = "0"

    def launch(self, argv, hash_seed="0"):
        """Run one process; return (wall seconds, exit code, max RSS MB, stdout)."""
        env = dict(self.env, PYTHONHASHSEED=hash_seed)
        out_path = os.path.join(self.out_dir, "stdout")
        err_path = os.path.join(self.out_dir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + list(argv), cwd=self.root,
                                    env=env, stdout=out, stderr=err)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            timer.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        return wall, code, usage.ru_maxrss / 1024.0, stdout

    def _must_pass(self, argv):
        wall, code, _, _ = self.launch(argv)
        if code != 0:
            raise SystemExit("%s exited with %d" % (" ".join(argv), code))
        return wall

    def reference_time(self):
        return self._must_pass([os.path.join(HERE, "reference.py")])

    def setup_time(self):
        return self._must_pass(["-c", "import quillen_strata.cli"])

    def cli(self, argv, **kw):
        return self.launch(["-m", "quillen_strata"] + list(argv), **kw)

    def traced(self, argv, mode="trace", **kw):
        path = os.path.join(self.out_dir, "trace.json")
        result = self.launch([os.path.join(HERE, "tracer.py"), mode, path]
                             + list(argv), **kw)
        with open(path) as fh:
            return result, json.load(fh)


def check_output(job, code, stdout, docs):
    """None if the job succeeded and its output passes its oracle check,
    else (whether the output was wrong, the reason)."""
    if code != 0:
        return False, "exit code %d" % code
    try:
        doc = json.loads(stdout)
        job.check(doc)
        if job.pair:
            other = docs.pop(job.pair, None)
            if other is None:
                docs[job.pair] = doc
            else:
                oracle.check_agreement(other, doc)
    except (ValueError, KeyError, TypeError, oracle.CheckFailed) as exc:
        return True, "%s: %s" % (type(exc).__name__, exc)
    return None


def timed_run(runner, workload, seed, seconds):
    setup, ref, walls, rss, failures, docs = [], [], [], [], [], {}
    round_walls = []
    start = time.perf_counter()
    for batch in jobs_mod.rounds(workload, seed):
        round_start = time.perf_counter()
        for job in batch:
            # set-up samples are spread over the run, so they meet the same
            # load on the machine as the jobs
            if len(walls) % SETUP_EVERY == 0:
                setup.append(runner.setup_time())
            if len(walls) % REF_EVERY == 0:
                ref.append(runner.reference_time())
            wall, code, maxrss, stdout = runner.cli(job.argv)
            walls.append(wall)
            rss.append(maxrss)
            failure = check_output(job, code, stdout, docs)
            if failure:
                failures.append((job.label(),) + failure)
        round_walls.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.mean(round_walls) / 2 >= seconds:
            break
    # The machine's speed drifts by up to 20% over minutes.  Times are scaled
    # by the reference job's median wall time against its nominal one, so
    # that a run reads as if the machine ran at its usual speed.
    speed = statistics.median(ref) / REF_NOMINAL_S
    sys.stderr.write("unscaled: jobs_per_s %.4f job_p50_s %.4f setup_s %.4f "
                     "reference_s %.4f\n"
                     % (len(walls) / sum(walls), statistics.median(walls),
                        statistics.median(setup), statistics.median(ref)))
    metrics = {
        "jobs_per_s": (len(walls) / sum(walls) * speed, "jobs/s"),
        "job_p50_s": (statistics.median(walls) / speed, "s"),
        "setup_s": (statistics.median(setup) / speed, "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    return len(walls), failures, metrics


# -- traced run ---------------------------------------------------------------

LAYER_OF = {name: layer for layer, names in tracer.LAYERS.items() for name in names}

# per-layer metric -> (source, function or counter): the outermost span time
# of a function, its span count, a counter, or its share of distinct inputs
PER_LAYER = {
    "groups.subgroups_s": ("time", "subgroups_up_to_conjugacy"),
    "groups.subgroups_calls": ("calls", "subgroups_up_to_conjugacy"),
    "groups.subgroups_distinct_share": ("share", "subgroups_up_to_conjugacy"),
    "groups.weyl_s": ("time", "weyl"),
    "groups.weyl_calls": ("calls", "weyl"),
    "groups.double_cosets_s": ("time", "double_cosets"),
    "groups.build_s": ("time", "build_group"),
    "groups.classes": ("counter", "classes"),
    "orbit_cat.build_s": ("time", "build_orbit_category"),
    "orbit_cat.morphisms": ("counter", "morphisms"),
    "orbit_cat.colimit_s": ("time", "colimit"),
    "orbit_cat.colimit_nodes": ("counter", "colimit_nodes"),
    "rings.factor_s": ("time", "factor"),
    "rings.factor_calls": ("calls", "factor"),
    "rings.factor_distinct_share": ("share", "factor"),
    "rings.spectrum_ring_s": ("time", "cyclic_spectrum_ring"),
    "rings.irreducible_s": ("time", "is_irreducible"),
    "rings.irreducible_calls": ("calls", "is_irreducible"),
    "rings.cyclotomic_hits": ("counter", "cyclotomic_hits"),
    "strata.stratum_calls": ("calls", "stratum"),
    "strata.transition_s": ("time", "transition_map"),
    "strata.transition_calls": ("calls", "transition_map"),
    "spectrum.strong_calls": ("calls", "assemble_strong"),
    "spectrum.serialize_s": ("time", "serialize"),
    "spectrum.points": ("counter", "points"),
}
UNITS = {"time": "s", "calls": "count", "counter": "count", "share": "ratio"}


def summarize(trace):
    """Per-job totals: layer self time, outermost time and calls per function."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, incl, calls = {}, {}, {}
    for i, (name, parent, start, end) in enumerate(spans):
        layer = LAYER_OF[name]
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child[i]
        calls[name] = calls.get(name, 0) + 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            incl[name] = incl.get(name, 0.0) + end - start
    return self_s, incl, calls


def per_layer_metrics(summaries, counters):
    self_s, incl, calls = {}, {}, {}
    for s, i, c in summaries:
        for d, src in ((self_s, s), (incl, i), (calls, c)):
            for k, v in src.items():
                d[k] = d.get(k, 0) + v

    def value(source, key):
        if source == "time":
            return incl.get(key, 0.0)
        if source == "calls":
            return calls.get(key, 0)
        if source == "counter":
            return counters.get(key, 0)
        n = calls.get(key, 0)
        return counters.get("distinct." + key, 0) / n if n else 1.0

    out = {"%s.self_s" % layer: (self_s.get(layer, 0.0), "s")
           for layer in tracer.LAYERS}
    out.update({name: (value(source, key), UNITS[source])
                for name, (source, key) in PER_LAYER.items()})
    return out


def _counts(trace):
    return summarize(trace)[2], trace["counters"]


def self_checks(runner, workload):
    """Failures of the tracer self-checks on the workload's check job."""
    argv = SELF_CHECK_JOBS[workload]
    failures = []
    _, _, _, plain = runner.cli(argv)
    (_, _, _, traced_out), first = runner.traced(argv)
    if traced_out != plain:
        failures.append("traced stdout differs from the untraced job's")
    counts = _counts(first)
    for hash_seed in ("0", "1"):
        _, again = runner.traced(argv, hash_seed=hash_seed)
        if _counts(again) != counts:
            failures.append("counts differ on a repeat with PYTHONHASHSEED=%s"
                            % hash_seed)
    _, profile = runner.traced(argv, mode="count")
    expected = {name: n for name, n in profile["calls"].items() if n}
    if expected != counts[0]:
        failures.append("span counts %s differ from cProfile counts %s"
                        % (counts[0], expected))
    return failures


def traced_run(runner, workload, seed):
    summaries, counters, failures, docs = [], {}, [], {}
    plain_s = traced_s = 0.0
    n = 0
    for batch, _ in zip(jobs_mod.rounds(workload, seed), range(TRACE_ROUNDS)):
        for job in batch:
            plain_s += runner.cli(job.argv)[0]
            (wall, code, _, stdout), trace = runner.traced(job.argv)
            traced_s += wall
            n += 1
            failure = check_output(job, code, stdout, docs)
            if failure:
                failures.append((job.label(),) + failure)
            summaries.append(summarize(trace))
            for k, v in trace["counters"].items():
                counters[k] = counters.get(k, 0) + v
    problems = self_checks(runner, workload)
    sys.stderr.write("tracing overhead: %.1f%% of %.2f s untraced over %d jobs\n"
                     % (100.0 * (traced_s / plain_s - 1.0), plain_s, n))
    return n, failures, problems, per_layer_metrics(summaries, counters)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "quillen_strata", "cli.py")):
        sys.stderr.write("run from the root of a quillen-strata checkout\n")
        return 2
    runner = Runner(root)
    runner.setup_time()    # compiles the package once before anything is timed
    problems = []
    if args.trace:
        attempted, failures, problems, metrics = traced_run(
            runner, args.workload, args.seed)
    else:
        attempted, failures, metrics = timed_run(
            runner, args.workload, args.seed, args.seconds)
    for label, _, reason in failures:
        sys.stderr.write("FAILED %s: %s\n" % (label, reason))
    for reason in problems:
        sys.stderr.write("SELF-CHECK %s\n" % reason)
    shutil.rmtree(runner.out_dir, ignore_errors=True)
    print(json.dumps({
        # a job that exits non-zero fails; one whose output is wrong is incorrect
        "correct": not any(wrong for _, wrong, _ in failures) and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
