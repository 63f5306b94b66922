"""Span tracer that attributes time and counts to natint's modules.

It works from outside the library: `install` replaces public functions
and methods with timing wrappers, in the defining module and at every
module-level name that imports them (`from .structures import
analyze_structure` binds its own name), and `uninstall` puts the
originals back.  Nothing under src/ is edited.

A span is (span id, function, start, end, parent span id, request id).
Spans stay in memory and are written out at the end of a run.  Arithmetic
on scalars, intervals, matrices and polynomials runs millions of times,
so those calls are aggregated (count, self time, total time) but not kept
as spans.  Self time is a call's duration minus the durations of the
wrapped calls it made.

Threads: the library's thread pools run pure-Python suite cases, which
take turns on the interpreter lock, so a worker's wall-clock span would
also cover the time it waited for the lock.  On worker threads the
duration is therefore that thread's CPU time, and the calls are only
aggregated.  A worker call made with an empty stack is a child of the
span the main thread is in at the time: the call that started the pool
and now waits for it.
"""

import functools
import inspect
import itertools
import json
import os
import resource
import sys
import threading
import time

LAYERS = ("scalars", "intervals", "matrices", "polys", "carriers",
          "structures", "quotients", "fuzzy", "suites", "verify", "cli")

# Layers whose calls are only aggregated, never kept as spans.
ARITHMETIC_LAYERS = ("scalars", "intervals", "matrices", "polys")

ARITH_DUNDERS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__",
                 "__pow__", "__matmul__")

# Classes whose public methods and arithmetic dunders are wrapped, by
# module, and the private methods wrapped besides.
CLASSES = {"structures": "FiniteStructure", "quotients": "QuotientStructure",
           "intervals": "NaturalInterval", "matrices": "IntervalMatrix",
           "polys": "IntervalPoly"}
EXTRA_METHODS = {"FiniteStructure": ("_build_table",),
                 "QuotientStructure": ("__init__",)}
DOMAIN_OPS = ("add", "sub", "mul", "div")

# Cheap helpers called once per element: aggregated, not kept as spans.
HOT = frozenset({"bench.calibrate",
                 "structures.FiniteStructure.label",
                 "structures.FiniteStructure.labels",
                 "structures.FiniteStructure.op_fn",
                 "structures.FiniteStructure.has_op",
                 "structures.FiniteStructure.apply"})

SUITE_KINDS = {"decomposition_suite": "decomposition",
               "modmap_suite": "modmap",
               "matmul_decompose_suite": "matmul",
               "poly_decompose_suite": "poly",
               "strictness_suite": "strict"}

# Claims named in the per-layer metrics; the rest are summed as "other".
NAMED_CLAIMS = ("thm-3.10-modmap", "ex-3.41", "fuzzy-assoc-grid")

MAX_SPANS = 400_000


class _ThreadState:
    __slots__ = ("stack", "calls", "self_s", "total_s", "main", "clock",
                 "outer", "inner")

    def __init__(self, nfuncs, main, overhead=(0.0, 0.0)):
        self.stack = []
        self.calls = [0] * nfuncs
        self.self_s = [0.0] * nfuncs
        self.total_s = [0.0] * nfuncs
        self.main = main
        self.clock = time.perf_counter if main else time.thread_time
        # Calibrated wrapper time per call, outside and inside the measured
        # duration.  Neither is charged as self time, so the arithmetic
        # wrappers inflate neither the ops nor the code that calls them.
        self.outer, self.inner = overhead


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.names = []        # function id -> "layer.qualname"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._main = None
        self._patches = []
        self.overhead = {True: (0.0, 0.0), False: (0.0, 0.0)}
        self._ids = itertools.count()
        self.spans = []
        self.dropped_spans = 0
        self.request = -1
        self.counters = {}
        self._distinct = {}

    # ------------------------------------------------------------------
    # installing and removing the wrappers

    def install(self):
        targets = []   # (owner, attribute, original, name)
        for layer, mod in self.modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets.append((mod, attr, obj, f"{layer}.{attr}"))
            if layer in CLASSES:
                cls_name = CLASSES[layer]
                cls = getattr(mod, cls_name)
                names = [m for m, v in vars(cls).items()
                         if inspect.isfunction(v)
                         and (not m.startswith("_") or m in ARITH_DUNDERS)]
                for m in names + list(EXTRA_METHODS.get(cls_name, ())):
                    targets.append((cls, m, vars(cls)[m],
                                    f"{layer}.{cls_name}.{m}"))
        scalars = self.modules["scalars"]
        for cls_name, cls in sorted(vars(scalars).items()):
            if inspect.isclass(cls) and issubclass(cls, scalars.Domain):
                for m in DOMAIN_OPS:
                    if m in vars(cls):
                        targets.append((cls, m, vars(cls)[m],
                                        f"scalars.{cls_name}.{m}"))

        replaced = {}
        for owner, attr, orig, name in targets:
            fid = self._register(name)
            wrapper = self._wrap(fid, orig, name)
            self._patch(owner, attr, wrapper)
            if not inspect.isclass(owner):
                replaced[id(orig)] = (orig, wrapper)
        # Every module-level name bound to a wrapped function by import.
        for mod in list(self._package_modules()):
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])
        # The claim catalogue holds its checkers in a list.
        registry = self.modules["verify"]._REGISTRY
        for i, (cid, citation, fn) in enumerate(list(registry)):
            fid = self._register(f"verify.claim[{cid}]")
            registry[i] = (cid, citation,
                           self._wrap(fid, fn, f"verify.claim[{cid}]"))
            self._patches.append((registry, i, (cid, citation, fn)))
        self._bench_fid = self._register("bench.request")
        self._calibrate()
        self.constructor_fids = {i for i, n in enumerate(self.names)
                             if n in CARRIER_CONSTRUCTORS}
        self._main = self._state()

    def _calibrate(self, calls=2000, rounds=7):
        """Measure, per clock, the wrapper time per call outside the
        measured duration (which the caller would see as its own) and
        inside it (which the callee would)."""
        fid = self._register("bench.calibrate")

        def noop():
            return None

        probe = self._wrap(fid, noop, "bench.calibrate")
        saved = getattr(self._local, "state", None)
        for main in (True, False):
            st = _ThreadState(len(self.names), main)
            self._local.state = st
            frame = [0.0, -1, -1]
            st.stack.append(frame)
            clock = st.clock
            outer = inner = float("inf")
            for _ in range(rounds):
                t0 = clock()
                for _ in range(calls):
                    pass
                empty = clock() - t0
                t0 = clock()
                for _ in range(calls):
                    noop()
                bare = clock() - t0
                frame[0] = 0.0
                t0 = clock()
                for _ in range(calls):
                    probe()
                traced = clock() - t0
                outer = min(outer, (traced - frame[0] - bare) / calls)
                inner = min(inner, (frame[0] - (bare - empty)) / calls)
            self.overhead[main] = (max(0.0, outer), max(0.0, inner))
        if saved is None:
            del self._local.state
        else:
            self._local.state = saved

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            if isinstance(owner, list):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches = []

    def _package_modules(self):
        prefix = self.package.__name__
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == prefix
                                    or name.startswith(prefix + ".")):
                yield mod

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)
                              if not inspect.isclass(owner)
                              else vars(owner)[attr]))
        setattr(owner, attr, value)

    def _register(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            main = threading.current_thread() is threading.main_thread()
            st = _ThreadState(len(self.names), main, self.overhead[main])
            self._local.state = st
            with self._lock:
                self._states.append(st)
            return st

    def _wrap(self, fid, fn, name):
        tracer = self
        local = self._local
        keep = (name.split(".", 1)[0] not in ARITHMETIC_LAYERS
                and name not in HOT)
        hook = _HOOKS.get(name)
        if name.startswith("suites.") and name[7:] in SUITE_KINDS:
            hook = _suite_hook(SUITE_KINDS[name[7:]])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                st = local.state
            except AttributeError:
                st = tracer._state()
            stack = st.stack
            if stack:
                parent = stack[-1]
            elif not st.main and tracer._main.stack:
                parent = tracer._main.stack[-1]
            else:
                parent = None
            span = keep and st.main
            frame = [0.0, next(tracer._ids) if span else -1, fid]
            state = hook[0](tracer, args, kwargs) if hook else None
            stack.append(frame)
            clock = st.clock
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st.calls[fid] += 1
                # The calibrated overhead is a typical value; clamp so
                # that a fast call never books negative self time.
                own = max(0.0, dur - frame[0] - st.inner)
                st.self_s[fid] += own
                st.total_s[fid] += dur
                if stack:
                    parent[0] += dur + st.outer
                elif parent is not None:
                    with tracer._lock:
                        parent[0] += dur + st.outer
                if span:
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append(
                            (frame[1], fid, t0, t1,
                             parent[1] if parent is not None else -1,
                             tracer.request))
                    else:
                        tracer.dropped_spans += 1
            if hook:
                hook[1](tracer, state, args, kwargs, result, own)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # requests and counters

    def begin_request(self, rid):
        self.request = rid
        frame = [0.0, next(self._ids), self._bench_fid]
        self._main.stack.append(frame)
        self._req_t0 = time.perf_counter()

    def end_request(self):
        t1 = time.perf_counter()
        frame = self._main.stack.pop()
        dur = t1 - self._req_t0
        fid = self._bench_fid
        self._main.calls[fid] += 1
        self._main.self_s[fid] += dur - frame[0]
        self._main.total_s[fid] += dur
        self.spans.append((frame[1], fid, self._req_t0, t1, -1, self.request))

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def distinct(self, key, item):
        self._distinct.setdefault(key, set()).add(item)

    # ------------------------------------------------------------------
    # results

    def totals(self):
        """Per function: (calls, self seconds, total seconds)."""
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        total_s = [0.0] * n
        for st in self._states:
            for i in range(n):
                calls[i] += st.calls[i]
                self_s[i] += st.self_s[i]
                total_s[i] += st.total_s[i]
        return {name: (calls[i], self_s[i], total_s[i])
                for i, name in enumerate(self.names)}

    def layer_self(self):
        out = {}
        for name, (_, self_s, _) in self.totals().items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def metrics(self):
        """Per-layer metrics: name -> (value, unit)."""
        t = self.totals()
        c = self.counters

        def calls(*names):
            return sum(t[n][0] for n in names if n in t)

        def self_s(*names):
            return sum(t[n][1] for n in names if n in t)

        def layer_names(layer, pred=lambda n: True):
            return [n for n in t if n.split(".", 1)[0] == layer and pred(n)]

        def ratio(a, b):
            return a / b if b else 0.0

        fs = "structures.FiniteStructure."
        q = "quotients."
        qs = "quotients.QuotientStructure."
        m = {}
        m["cli.render_s"] = (self_s("cli.render", "cli.emit"), "s")
        m["cli.requests"] = (calls("cli.main"), "count")
        m["carriers.build_carrier_s"] = (self_s(*layer_names(
            "carriers", lambda n: n != "carriers.corner_s_ring_witness")),
            "s")
        m["carriers.elements"] = (c.get("carrier_elements", 0), "count")
        m["structures.table_builds"] = (c.get("table_builds", 0), "count")
        m["structures.table_hits"] = (c.get("table_hits", 0), "count")
        m["structures.table_python_builds"] = (calls(fs + "_build_table"),
                                               "count")
        m["structures.table_build_s"] = (
            c.get("table_build_s", 0.0) + self_s(fs + "_build_table"), "s")
        for ax in ("associative", "distributive"):
            m[f"structures.{ax}.calls"] = (calls(fs + ax), "count")
            m[f"structures.{ax}.distinct"] = (
                len(self._distinct.get(ax, ())), "count")
            m[f"structures.{ax}_s"] = (self_s(fs + ax), "s")
        m["structures.cubic_triples"] = (c.get("cubic_triples", 0), "count")
        m["structures.identity_index.calls"] = (calls(fs + "identity_index"),
                                                "count")
        m["structures.small_scan_s"] = (self_s(*(fs + x for x in (
            "closed", "commutative", "identity_index", "absorbing_index",
            "inverses"))), "s")
        m["structures.classify_s"] = (self_s(
            "structures.classify", "structures.is_ring", "structures.is_field",
            "structures.is_group"), "s")
        m["structures.axiom_report_s"] = (self_s(
            "structures.axiom_report", "structures.ring_report"), "s")
        m["structures.analyze_structure_s"] = (
            self_s("structures.analyze_structure"), "s")
        m["structures.find_special_elements_s"] = (
            self_s("structures.find_special_elements"), "s")
        m["structures.s_ring_s"] = (self_s("structures.is_s_ring"), "s")
        m["structures.check_subset_field.calls"] = (
            calls("structures.check_subset_field"), "count")
        m["structures.check_subset_field_s"] = (
            self_s("structures.check_subset_field"), "s")
        m["structures.subset_field.useful_ratio"] = (ratio(
            c.get("subset_field_ok", 0),
            calls("structures.check_subset_field")), "ratio")
        m["structures.s_semigroup_s"] = (self_s(
            "structures.is_s_semigroup", "structures.thm_unit_square_witness"),
            "s")
        m["structures.maximal_subgroups_s"] = (
            self_s("structures.maximal_subgroups"), "s")
        m["quotients.is_ideal.calls"] = (calls(q + "is_ideal"), "count")
        m["quotients.is_ideal_s"] = (self_s(q + "is_ideal"), "s")
        m["quotients.generate_ideal.calls"] = (calls(q + "generate_ideal"),
                                               "count")
        m["quotients.generate_ideal_s"] = (self_s(q + "generate_ideal"), "s")
        m["quotients.generate_ideal.useful_ratio"] = (ratio(
            len(self._distinct.get("generate_ideal", ())),
            calls(q + "generate_ideal")), "ratio")
        m["quotients.ideals_found"] = (c.get("ideals_found", 0), "count")
        m["quotients.enumerate_ideals_s"] = (self_s(
            q + "enumerate_ideals", q + "maximal_minimal_ideals"), "s")
        m["quotients.quotient_build_s"] = (self_s(
            q + "rees_quotient", q + "standard_quotient", qs + "__init__",
            qs + "structure"), "s")
        m["quotients.class_table_s"] = (self_s(qs + "class_table"), "s")
        m["quotients.diagnostics_s"] = (self_s(
            qs + "diagnostics", qs + "well_defined"), "s")
        m["quotients.semifield_verdict_s"] = (self_s(q + "semifield_verdict"),
                                              "s")
        m["quotients.quotient_analysis_s"] = (self_s(q + "quotient_analysis"),
                                              "s")
        m["suites.cases"] = (sum(c.get(f"suite_cases.{k}", 0)
                                 for k in SUITE_KINDS.values()), "count")
        for kind in SUITE_KINDS.values():
            m[f"suites.{kind}.cases_per_s"] = (ratio(
                c.get(f"suite_cases.{kind}", 0),
                c.get(f"suite_wall.{kind}", 0.0)), "cases/s")
        m["suites.cpu_per_wall"] = (ratio(
            sum(c.get(f"suite_cpu.{k}", 0.0) for k in SUITE_KINDS.values()),
            sum(c.get(f"suite_wall.{k}", 0.0) for k in SUITE_KINDS.values())),
            "ratio")
        for layer in ARITHMETIC_LAYERS:
            names = layer_names(layer, _is_arith_op)
            m[f"{layer}.ops"] = (calls(*names), "count")
            m[f"{layer}.ops_s"] = (self_s(*names), "s")
        m["fuzzy.grid_structure_s"] = (self_s("fuzzy.grid_structure"), "s")
        m["fuzzy.semigroup_report_s"] = (self_s(
            "fuzzy.fuzzy_semigroup_report",
            "fuzzy.product_associative_componentwise"), "s")
        other = 0.0
        for name, (_, _, total) in t.items():
            if name.startswith("verify.claim["):
                cid = name[len("verify.claim["):-1]
                if cid not in NAMED_CLAIMS:
                    other += total
        for cid in NAMED_CLAIMS:
            m[f"verify.claim_s.{cid}"] = (t[f"verify.claim[{cid}]"][2], "s")
        m["verify.claim_s.other"] = (other, "s")
        for layer, secs in sorted(self.layer_self().items()):
            if layer in LAYERS:
                m[f"{layer}.self_s"] = (secs, "s")
        return m

    def write_spans(self, path):
        """Write the function table and every kept span as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"functions": self.names,
                                 "dropped_spans": self.dropped_spans,
                                 "fields": ["id", "function", "start", "end",
                                            "parent", "request"]}) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def _is_arith_op(name):
    parts = name.split(".")
    if parts[0] == "scalars":
        return len(parts) == 3 and parts[2] in DOMAIN_OPS
    if len(parts) == 3:
        return parts[2] in ARITH_DUNDERS or parts[2] in (
            "hadamard", "scale", "recip")
    return parts[1] in ("iv_min", "iv_max", "iv_scalar_mul", "mat_add",
                        "mat_sub", "mat_hadamard", "mat_mul", "poly_add",
                        "poly_mul")


# ----------------------------------------------------------------------
# counters taken at the boundary of specific functions: (before, after)

def _table_before(tr, args, kwargs):
    s = args[0]
    op = args[1] if len(args) > 1 else kwargs["op"]
    return op in s._tables


def _table_after(tr, hit, args, kwargs, result, own):
    if hit:
        tr.count("table_hits")
    else:
        tr.count("table_builds")
        tr.count("table_build_s", own)


def _assoc_after(tr, _, args, kwargs, result, own):
    s = args[0]
    op = args[1] if len(args) > 1 else kwargs["op"]
    tr.distinct("associative", (tr.request, id(s), s.name, s.n, op))
    if result[0] is not None:
        tr.count("cubic_triples", s.n ** 3)


def _distrib_after(tr, _, args, kwargs, result, own):
    s = args[0]
    tr.distinct("distributive", (tr.request, id(s), s.name, s.n))
    if result[0] is not None:
        tr.count("cubic_triples", 2 * s.n ** 3)


def _subset_field_after(tr, _, args, kwargs, result, own):
    if result[0]:
        tr.count("subset_field_ok")


def _generate_after(tr, _, args, kwargs, result, own):
    tr.distinct("generate_ideal", (tr.request, tuple(result)))


def _enumerate_after(tr, _, args, kwargs, result, own):
    tr.count("ideals_found", len(result))


CARRIER_CONSTRUCTORS = ("carriers.build_carrier",
                        "carriers.interval_structure",
                        "carriers.matrix_structure",
                        "carriers.poly_structure", "fuzzy.grid_structure")


def _carrier_after(tr, _, args, kwargs, result, own):
    """Elements of each carrier built, counted at the outermost constructor
    (build_carrier calls interval_structure, for one)."""
    constructors = tr.constructor_fids
    if not any(frame[2] in constructors for frame in tr._main.stack):
        tr.count("carrier_elements", result.n)


def _none_before(tr, args, kwargs):
    return None


def _cpu_now():
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def _suite_hook(kind):
    """Cases, wall time and process CPU time (threads and children
    included) of one suite call."""
    def before(tr, args, kwargs):
        return time.perf_counter(), _cpu_now()

    def after(tr, start, args, kwargs, result, own):
        wall0, cpu0 = start
        cases = (sum(r["cases"] for r in result["domains"])
                 if "domains" in result else result["cases"])
        tr.count(f"suite_cases.{kind}", cases)
        tr.count(f"suite_wall.{kind}", time.perf_counter() - wall0)
        tr.count(f"suite_cpu.{kind}", _cpu_now() - cpu0)

    return before, after


_HOOKS = {
    "structures.FiniteStructure.table": (_table_before, _table_after),
    "structures.FiniteStructure.associative": (_none_before, _assoc_after),
    "structures.FiniteStructure.distributive": (_none_before, _distrib_after),
    "structures.check_subset_field": (_none_before, _subset_field_after),
    "quotients.generate_ideal": (_none_before, _generate_after),
    "quotients.enumerate_ideals": (_none_before, _enumerate_after),
}
_HOOKS.update(dict.fromkeys(CARRIER_CONSTRUCTORS,
                            (_none_before, _carrier_after)))
