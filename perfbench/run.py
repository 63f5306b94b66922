#!/usr/bin/env python3
"""The natint benchmark: seeded request streams through the public entry
points, with a correctness gate and a separate traced run per layer.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; natint is imported from
`src/`, nothing is installed.  Workloads: analyze, ideals, oracle, book
(see workloads.py and README.md).

Load model: a closed loop with one client in this process and no think
time; request i+1 is sent when request i returns.  CLI requests go
through `natint.cli.main(argv)` with stdout captured in memory.  A run
sends a fixed number of rounds (workloads.ROUNDS), each one variant of
every pool slot in seeded order.  `--seconds` is the nominal length of
those rounds; a run whose rounds have not ended after 4 x `--seconds`
(at most RUN_CAP_S) is cut and reported as not correct.

Every request is checked: it fails if it raises, exits with another code
than its reference, or writes stdout whose sha256 differs from the
reference (`refs/<workload>.json`, recorded by record_refs.py).  Oracle
suite calls need no reference: the report must say ok with no failures,
and, in the traced pass, every requested case must have run exactly once.

Times are host-adjusted: between requests the loop times a fixed piece of
pure-Python work (calibrate) and scales each request's wall time by the
calibrations taken around it, so that a shared host's speed spells do not
read as changes of natint.  The run record keeps the unadjusted values.

`--trace 0` prints the end-to-end metrics.  `--trace 1` sends the first
round untraced, then has a fresh interpreter send the same requests
under the tracer (tracer.py), checks that both give the same bytes and
exit codes, prints the per-layer metrics and writes the spans to
`perfbench/out/`.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run record (machine, versions, seed, load, latency-tail percentile, the
share of each analyze property).
"""

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5           # fresh interpreters, spread over the run
CALIBRATION_LOOPS = 8      # calibration loops per thread in one calibration
CALIBRATION_REF_S = 1e-3   # wall time per calibration loop on the reference host
CALIBRATE_EVERY_S = 0.5    # least time from one calibration to the next
SPEED_WINDOW_S = 1.0       # calibrations this near a request set its host speed
SPEED_EXPONENT = 0.5       # how much of the calibration's swing to take out
TAIL_BEYOND = 10           # requests that must lie beyond the tail percentile
RUN_CAP_S = 120.0          # untraced rounds still running here are cut
TRACED_CAP_S = 165.0       # the traced child is killed at this run age


class Setup:
    """What a run needs before its first request: the library, the
    request stream and the references."""

    def __init__(self, workload, seed, refs_dir):
        t0 = time.perf_counter()
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        import natint
        import natint.cli
        import natint.suites
        import natint.verify
        import workloads
        self.natint = natint
        self.rounds = workloads.stream(
            workload, seed, natint.verify.claim_ids())
        self.refs = load_refs(workload, refs_dir)
        self.seconds = time.perf_counter() - t0
        # Set-up is single-threaded, and so is its calibration.
        self.calibration = calibrate(1)


def load_refs(workload, refs_dir):
    if workload == "oracle":
        return {}
    with open(os.path.join(refs_dir, f"{workload}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def check_source_tree():
    init = os.path.join(SRC, "natint", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: no natint source at {init}; run from the root "
                 f"of a natint checkout")


class CaseCount:
    """Records, for each `run_chunked` call a suite makes, the case count
    it was asked for and the case indices that actually ran."""

    def __init__(self, suites):
        self.calls = []
        original = suites.run_chunked
        calls = self.calls

        @functools.wraps(original)
        def run_chunked(total, case_fn, *args, **kwargs):
            ran = []
            calls.append((total, ran))

            def case(rng, k):
                ran.append(k)
                return case_fn(rng, k)

            return original(total, case, *args, **kwargs)

        suites.run_chunked = run_chunked

    def take(self):
        out = list(self.calls)
        self.calls.clear()
        return out


# ----------------------------------------------------------------------
# host speed


class _Pair:
    """A small interval-like value for the calibration loop."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def __add__(self, other):
        return _Pair(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other):
        c = (self.lo * other.lo, self.lo * other.hi,
             self.hi * other.lo, self.hi * other.hi)
        return _Pair(min(c), max(c))

    def __eq__(self, other):
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))


_CALIBRATION_ITEMS = [_Pair(i % 13 - 6, i % 7 + 3) for i in range(64)]


def calibration_loop():
    """A fixed piece of pure-Python work shaped like natint's interval
    arithmetic (small objects, operator methods, hashing), using nothing
    from natint.  It slows down with the host as natint's own work does;
    a tight integer loop does not, it swings further."""
    seen = set()
    xs = _CALIBRATION_ITEMS
    for i, a in enumerate(xs):
        for b in xs[i % 8::8]:
            seen.add(a * b + a)
    return len(seen)


def calibrate(threads):
    """The host's speed now, as wall time per calibration loop: `threads`
    threads each run CALIBRATION_LOOPS loops at once, as natint's scan and
    suite threads do.  When the host this benchmark was defined on, a
    shared 2-core VM, falls into its slow phase, one thread's loops slow
    by 1.9x, like single-threaded work, but two threads' loops only by
    1.25x, like two-worker suite calls (1.4x) and small `analyze`
    requests (1.1x): part of their wall time waits on thread hand-offs."""
    workers = [threading.Thread(target=_calibration_loops)
               for _ in range(threads)]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return (time.perf_counter() - t0) / (threads * CALIBRATION_LOOPS)


def _calibration_loops():
    for _ in range(CALIBRATION_LOOPS):
        calibration_loop()


class HostSpeed:
    """Calibrations taken between requests, at most one per
    CALIBRATE_EVERY_S, so that short requests do not pay for one each."""

    def __init__(self, threads):
        self.threads = threads
        self.samples = []          # (perf_counter at the end, seconds)

    def calibrate_if_due(self):
        now = time.perf_counter()
        if not self.samples or now - self.samples[-1][0] >= CALIBRATE_EVERY_S:
            seconds = calibrate(self.threads)
            self.samples.append((time.perf_counter(), seconds))

    def around(self, t0, t1):
        """The median calibration within SPEED_WINDOW_S of [t0, t1], or
        the nearest one when none is that near."""
        near = [c for t, c in self.samples
                if t0 - SPEED_WINDOW_S <= t <= t1 + SPEED_WINDOW_S]
        if near:
            return statistics.median(near)
        return min(self.samples, key=lambda tc: abs(tc[0] - t0))[1]

    def median(self):
        return statistics.median(c for _, c in self.samples)


def host_adjusted(seconds, calibration):
    """A time measured while calibrate() gave `calibration`, scaled to
    the reference host, where it gives CALIBRATION_REF_S.

    Only the square root of the ratio is taken out.  On the host this
    benchmark was defined on, natint's requests swing by between half and
    all of the calibration's swing (in logarithm), depending on the
    workload and on the kind of slow spell.  Over three sets of ten runs
    per workload there, taking out all of it let book runs in a spell
    that slowed the calibration 2.5x read up to 40% fast; taking out half
    of it lowered the largest spread of a time metric from 0.31 to 0.24
    and raised none by more than 0.05."""
    return seconds * (CALIBRATION_REF_S / calibration) ** SPEED_EXPONENT


def adjusted_walls(outcomes, speed):
    """Each request's wall time, host-adjusted by the calibrations taken
    around it."""
    return [host_adjusted(o.wall, speed.around(o.start, o.start + o.wall))
            for o in outcomes]


# ----------------------------------------------------------------------
# executing one request


class Outcome:
    """One request's exit code, stdout digest, start and wall time.
    `text` is the stdout itself; run_pass drops it once the request is
    checked, so the benchmark does not hold every report and swell peak
    RSS."""

    __slots__ = ("code", "digest", "text", "start", "wall", "error", "why")

    def __init__(self, code, digest, text, start, wall, error=None):
        self.code = code
        self.digest = digest
        self.text = text
        self.start = start
        self.wall = wall
        self.error = error
        self.why = None


def execute(natint, req, workers, cases=None):
    if req.argv is not None:
        return _execute_cli(natint, req.argv)
    return _execute_suite(natint, req, workers, cases)


def _execute_cli(natint, argv):
    out = io.StringIO()
    err = io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = natint.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - a raise fails the request
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    text = out.getvalue()
    if code not in (0, None) and error is None and err.getvalue():
        error = err.getvalue().strip()[:200]
    return Outcome(code, _sha256(text), text, t0, wall, error)


def _execute_suite(natint, req, workers, cases):
    fn = getattr(natint.suites, req.suite)
    t0 = time.perf_counter()
    try:
        report = fn(workers=workers, **req.kwargs)
    except Exception as exc:  # noqa: BLE001 - a raise fails the request
        report, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    ran = cases.take() if cases is not None else None
    if report is None:
        return Outcome(None, None, "", t0, wall, error)
    text = json.dumps(report, sort_keys=True, default=str)
    return Outcome(0, _sha256(text), text, t0, wall,
                   _suite_problem(req, report, ran))


def _suite_problem(req, report, ran):
    """None when the suite report holds and every case ran, else why not.
    `ran` is CaseCount.take(): one (asked, indices run) per chunked call,
    or None when no CaseCount is installed."""
    want = req.kwargs.get("cases", req.kwargs.get("pairs"))
    parts = report.get("domains", [report])
    if report.get("ok") is not True:
        return "report not ok"
    for part in parts:
        if part.get("failures") != 0:
            return f"{part.get('failures')} failures"
    if ran is None:
        return None
    if len(ran) != len(parts):
        return f"{len(ran)} chunked runs for {len(parts)} report parts"
    for asked, indices in ran:
        if asked != want or sorted(indices) != list(range(want)):
            return (f"ran {len(indices)} of {want} cases "
                    f"({len(set(indices))} distinct)")
    return None


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdict(req, outcome, refs):
    """None when the request is correct, else why it failed."""
    if outcome.code is None:
        return outcome.error or "raised"
    if req.argv is None:
        return outcome.error
    ref = refs.get(req.key)
    if ref is None:
        return "no reference for this request"
    if outcome.code != ref["exit"]:
        return f"exit {outcome.code}, reference {ref['exit']}"
    if outcome.digest != ref["sha256"]:
        return "stdout differs from the reference"
    if "status" in ref:
        status = json.loads(outcome.text)["claims"][0]["status"]
        if status != ref["status"]:
            return f"claim status {status}, reference {ref['status']}"
    return None


# ----------------------------------------------------------------------
# passes


def run_pass(natint, requests, refs, deadline, workers, speed=None,
             cases=None, tracer=None):
    """Send requests one after another until done or past the deadline;
    check each one as it returns, and calibrate the host (`speed`, a
    HostSpeed) between them."""
    outcomes = []
    for rid, req in enumerate(requests):
        if time.perf_counter() >= deadline:
            break
        # A CLI invocation starts with a fresh heap.  Collecting the
        # previous requests' garbage here, untimed, keeps a request from
        # paying for a collection its predecessors made due.
        gc.collect()
        if speed is not None:
            speed.calibrate_if_due()
        if tracer is not None:
            tracer.begin_request(rid)
        outcome = execute(natint, req, workers, cases)
        if tracer is not None:
            tracer.end_request()
        outcome.why = verdict(req, outcome, refs)
        outcome.text = None
        outcomes.append(outcome)
    return outcomes


def slot_medians(requests, walls):
    """Each request's time replaced by its slot's median time over the
    run.  A slot's requests do the same work and every round sends the
    same number of them, so these are the times of a round in which every
    slot takes its median time; a host hiccup that hits a minority of a
    slot's requests moves none of them."""
    per_slot = {}
    for req, wall in zip(requests, walls):
        per_slot.setdefault(req.slot, []).append(wall)
    median = {slot: statistics.median(w) for slot, w in per_slot.items()}
    return [median[req.slot] for req in requests]


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND requests beyond it:
    (value, percentile, requests)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n, n


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def child_argv(args, *extra):
    argv = [sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--refs", args.refs]
    if args.max_requests is not None:
        argv += ["--max-requests", str(args.max_requests)]
    return argv + list(extra)


def setup_probe(args):
    """Set-up time of a fresh interpreter, and its calibration."""
    proc = subprocess.run(child_argv(args, "--setup-probe"), cwd=ROOT,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return proc.stdout.strip().splitlines()[-1]


class ProbeLauncher:
    """Starts the set-up probes from a small interpreter that is started
    before natint is imported.  A process started from this one would
    report this process's resident set as its own peak (the kernel
    records the image it replaced at exec), which would double
    peak_rss_mb.  Close it only after peak RSS is read: waiting for it
    adds its probes' peak to this process's children."""

    def __init__(self, args):
        self.proc = subprocess.Popen(
            child_argv(args, "--probe-launcher"), cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.proc.stdout.readline()

    def probe(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the set-up probe launcher ended")
        probe = json.loads(line)
        return probe["setup_s"], probe["calibration_s"]

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve_probes(args):
    """The launcher's side: one set-up probe per line read."""
    print("ready", flush=True)
    for _ in sys.stdin:
        print(setup_probe(args), flush=True)
    return 0


def machine_record(args, load_1m):
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "load_1m_at_start": load_1m}


def property_shares(requests, refs):
    """Share of the requests that have each analyze property."""
    shares = {}
    n = len(requests)
    if not n:
        return shares

    def add(key):
        shares[key] = shares.get(key, 0) + 1 / n

    for req in requests:
        p = req.props
        order = refs.get(req.key, {}).get("order", p["order"])
        add("order<=36" if order <= 36 else "order<=100" if order <= 100
            else "order<=256")
        add("product" if p["product"] else "non-product")
        add(f"table-path:{p['table']}")
        add(f"command:{p['command']}")
        if p["command"] == "analyze":
            s_ring = refs.get(req.key, {}).get("s_ring")
            add({True: "subfield:found",
                 False: "subfield:none-after-exhaustive-search",
                 None: "subfield:not-searched"}[s_ring])
    return {k: round(v, 4) for k, v in sorted(shares.items())}


def emit(record, result):
    for name, entry in result["metrics"].items():
        print(f"{name:44s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))


def main(argv=None):
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("analyze", "ideals", "oracle", "book"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-requests", type=int, default=None,
                    help="send at most this many requests (smoke runs)")
    ap.add_argument("--refs", default=REFS,
                    help="directory of reference digests")
    # The roles of the child interpreters a run starts.
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--probe-launcher", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--traced-pass", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    check_source_tree()
    if args.probe_launcher:
        return serve_probes(args)
    load_1m = os.getloadavg()[0]
    launcher = None
    if not (args.trace or args.setup_probe or args.traced_pass):
        launcher = ProbeLauncher(args)
    try:
        return measure(args, launcher, load_1m, t_start)
    finally:
        if launcher is not None:
            launcher.close()


def measure(args, launcher, load_1m, t_start):
    setup = Setup(args.workload, args.seed, args.refs)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup.seconds,
                          "calibration_s": setup.calibration}))
        return 0
    natint = setup.natint
    rounds = setup.rounds[:1] if args.trace else setup.rounds
    if args.max_requests is not None:
        rounds = [rounds[0][:args.max_requests]]
    workers = os.cpu_count() or 1
    if args.traced_pass:
        # Counting cases costs a call per case (a sixth of a strictness
        # case), so only the traced pass, untimed by nature, counts them.
        cases = (CaseCount(natint.suites) if args.workload == "oracle"
                 else None)
        return traced_pass(natint, rounds[0], setup.refs, workers, cases,
                           args)

    record = machine_record(args, load_1m)
    requests = [req for r in rounds for req in r]
    record["stream"] = {"rounds": len(rounds), "requests": len(requests)}

    # Untraced: every request, with the set-up probes spread evenly between
    # them, so that the probes meet the host in the same states as the
    # requests do.
    deadline = t_start + min(RUN_CAP_S, 4 * args.seconds)
    probes = SETUP_PROBES if launcher is not None else 0
    n = len(requests)
    stops = [n * (j + 1) // (probes + 1) for j in range(probes)] + [n]
    speed = HostSpeed(workers)
    outcomes, samples, start = [], [(setup.seconds, setup.calibration)], 0
    for j, stop in enumerate(stops):
        outcomes.extend(run_pass(natint, requests[start:stop], setup.refs,
                                 deadline, workers, speed))
        if len(outcomes) < stop:
            break
        if j < probes:
            samples.append(launcher.probe())
        start = stop
    failures = [{"request": req.key, "why": out.why}
                for req, out in zip(requests, outcomes) if out.why is not None]
    # Requests the time cap left unsent count as attempted and failed.
    unsent = len(requests) - len(outcomes)
    wall = sum(o.wall for o in outcomes)

    if args.trace:
        metrics, trace_failures = traced_run(requests, outcomes, args,
                                             record, t_start)
        failures.extend(trace_failures)
    elif outcomes:
        lat = slot_medians(requests, adjusted_walls(outcomes, speed))
        raw = slot_medians(requests, [o.wall for o in outcomes])
        tail_value, tail_pct, tail_n = tail(lat)
        record["latency_tail"] = {"percentile": round(tail_pct, 2),
                                  "requests": tail_n}
        record["setup_samples"] = [{"setup_s": s, "calibration_s": c}
                                   for s, c in samples]
        record["calibration_s"] = {"median": speed.median(),
                                   "samples": len(speed.samples)}
        record["unadjusted"] = {
            "setup_s": statistics.median(s for s, _ in samples),
            "throughput_rps": len(raw) / sum(raw),
            "latency_p50_s": statistics.median(raw),
            "latency_tail_s": tail(raw)[0],
        }
        metrics = {
            "setup_s": (statistics.median(host_adjusted(s, c)
                                          for s, c in samples), "s"),
            "throughput_rps": (len(lat) / sum(lat), "req/s"),
            "latency_p50_s": (statistics.median(lat), "s"),
            "latency_tail_s": (tail_value, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        metrics = {}
    attempted = len(requests)
    failed = len({f["request"] for f in failures}) + unsent
    record["fail_ratio"] = failed / attempted if attempted else 1.0
    record["unsent_at_time_cap"] = unsent
    record["failures"] = failures[:10]
    record["timed_wall_s"] = wall
    if args.workload == "analyze":
        record["analyze_property_shares"] = property_shares(
            requests, setup.refs)
    result = {
        "correct": attempted > 0 and not failures and not unsent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }
    emit(record, result)
    return 0


def traced_pass(natint, requests, refs, workers, cases, args):
    """The child side of a traced run: send the requests under the
    tracer in this fresh interpreter and print what the parent checks."""
    import tracer as tracing
    tr = tracing.Tracer(natint)
    tr.install()
    try:
        outcomes = run_pass(natint, requests, refs, float("inf"), workers,
                            cases=cases, tracer=tr)
    finally:
        tr.uninstall()
    layer = tr.layer_self()
    total = sum(layer.values()) or 1.0
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tr.write_spans(path)
    print(json.dumps({
        "outcomes": [[o.code, o.digest, o.wall, o.why] for o in outcomes],
        "metrics": tr.metrics(),
        "layer_self_share": {k: round(v / total, 4)
                             for k, v in sorted(layer.items())},
        "trace_wrapper_overhead_s": {
            thread: dict(zip(("outer", "inner"), tr.overhead[main]))
            for thread, main in (("main_thread", True),
                                 ("worker_threads", False))},
        "spans_file": os.path.relpath(path, ROOT),
        "spans": len(tr.spans),
    }))
    return 0


def traced_run(requests, untraced, args, record, t_start):
    """Have a fresh interpreter replay the untraced requests under the
    tracer, so both passes start equally cold; return the per-layer
    metrics and any request whose bytes or exit code changed."""
    timeout = max(10.0, TRACED_CAP_S - (time.perf_counter() - t_start))
    try:
        proc = subprocess.run(child_argv(args, "--trace", "1",
                                         "--traced-pass"),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {}, [{"request": "traced pass",
                     "why": f"did not finish within {timeout:.0f} s"}]
    if proc.returncode != 0:
        return {}, [{"request": "traced pass",
                     "why": proc.stderr.strip()[-300:]
                     or f"exit {proc.returncode}"}]
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    traced = child.pop("outcomes")
    failures = []
    for req, a, (code, digest, _, why) in zip(requests, untraced, traced):
        if why is not None:
            failures.append({"request": req.key, "why": f"traced: {why}"})
        if (a.code, a.digest) != (code, digest):
            failures.append({"request": req.key,
                             "why": "traced output differs from untraced"})
    if len(traced) != len(untraced):
        failures.append({"request": "traced pass",
                         "why": f"sent {len(traced)} of {len(untraced)}"})
    base = sum(o.wall for o in untraced)
    traced_wall = sum(t[2] for t in traced)
    metrics = {k: tuple(v) for k, v in child.pop("metrics").items()}
    metrics["trace.overhead_ratio"] = (
        traced_wall / base if base else 0.0, "ratio")
    record.update(child)
    record["traced_wall_s"] = traced_wall
    record["untraced_wall_s"] = base
    return metrics, failures


if __name__ == "__main__":
    sys.exit(main())
