"""Request pools and seeded request streams for the natint benchmark.

A pool is a list of slots.  A slot groups variants that do the same
amount of work (the same carrier in another flavor, another shape of the
same size, another random subset of the same size) and records the
properties the workload is meant to vary.

A run is a fixed number of rounds (ROUNDS).  Each round sends one
variant of every slot, in a seeded order, and no variant is drawn twice
in a run: requests are drawn without replacement, so a cache that lives
across calls sees no repeated request, while every round carries the
same mix of work.  Each slot then has one request per round (oracle
slots a fixed number), and throughput can use each slot's median time
over the rounds.

This module imports nothing from natint: building a stream is part of the
measured set-up and must not hide an import.
"""

import random

WORKLOADS = ("analyze", "ideals", "oracle", "book")

# Rounds per run.  A round takes 3-10 s on a 2-core Xeon VM at the commit
# that introduced the benchmark, so a run measures 14-30 s.  Each slot's
# median over the rounds needs at least three rounds; more would overrun
# the time the benchmark's runs may take together on that host in its
# slow phase, which takes up to 1.5x as long as its fast one.
ROUNDS = {"analyze": 3, "ideals": 3, "oracle": 4, "book": 4}

FLAVORS = ("c", "o", "oc", "co")

# Fixed seed for the random subsets in the pools: the pools, and the
# reference digests recorded from them, never change with the run seed.
POOL_SEED = 20111070

# verify-book seeds a book run may draw; references exist for each.
BOOK_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7)


class Slot:
    """Interchangeable requests of one kind and cost.

    `variants` are CLI argv lists, or (suite, kwargs) pairs for the
    oracle; `props` holds the properties shared by every variant.
    """

    __slots__ = ("name", "variants", "props")

    def __init__(self, name, variants, **props):
        self.name = name
        self.variants = list(variants)
        self.props = props


def _n(dom, flavor, punctured=False):
    return f"N({dom},{flavor})" + ("\\0" if punctured else "")


BRACKETS = {"c": "[]", "o": "()", "oc": "(]", "co": "[)"}


def _iv(a, b, flavor):
    left, right = BRACKETS[flavor]
    return f"{left}{a},{b}{right}"


def _random_sub(rng, size, ambient, lo, hi, flavor=None):
    pairs = set()
    while len(pairs) < size:
        pairs.add((rng.randint(lo, hi), rng.randint(lo, hi)))
    body = ",".join(f"[{a},{b}]" for a, b in sorted(pairs))
    amb = f"N({ambient})" if flavor is None else f"N({ambient},{flavor})"
    return f"Sub{{{body}}} of {amb}"


def _subs(rng, count, size, ambient, lo, hi, flavored):
    return [_random_sub(rng, size, ambient, lo, hi,
                        FLAVORS[i % len(FLAVORS)] if flavored else None)
            for i in range(count)]


def analyze_pool():
    """`analyze` specs (and a minority of `table` requests).

    Properties: `order` (carrier size), `product` (the carrier is
    D x D-shaped: N, N\\0, Mat, Poly), `table` (numpy fast path or the
    Python pair loop).  Whether a proper subfield exists is read from the
    recorded reference output, not declared here.
    """
    rng = random.Random(POOL_SEED)
    slots = []

    def add(name, specs, order, product, table, cmd="analyze", ops=None):
        if ops:
            variants = [[cmd, s, op] for s in specs for op in ops]
        else:
            variants = [[cmd, s] for s in specs]
        slots.append(Slot(name, variants, order=order, product=product,
                          table=table, command=cmd))

    for k in (4, 5, 6, 7, 8, 9, 10, 11, 12):
        add(f"N(Zn:{k})", [_n(f"Zn:{k}", f) for f in FLAVORS],
            k * k, True, "numpy")
    for p in (5, 7, 11, 13, 17):
        add(f"N(Zn:{p})\\0", [_n(f"Zn:{p}", f, True) for f in FLAVORS],
            (p - 1) ** 2, True, "numpy")
    for k, dsize in ((4, 4), (6, 6), (8, 8)):
        add(f"N(ZnI:{k})", [_n(f"ZnI:{k}", f) for f in FLAVORS],
            dsize * dsize, True, "python")
    for k in (2, 3):
        add(f"N(Zn+I:{k})", [_n(f"Zn+I:{k}", f) for f in FLAVORS],
            k ** 4, True, "python")
    # Mat and Poly carriers of order 256 (5-7 s each) are left out: one
    # would be half a round.  Order-256 Python table builds come from
    # Fuzzy(prod,1/15) instead.
    for m in (2, 3):
        add(f"Mat[{m ** 4}](N(Zn:{m}))",
            [f"Mat({r},{c},N(Zn:{m},{f}))" for r, c in ((1, 2), (2, 1))
             for f in FLAVORS], m ** 4, True, "python")
    for m, cyc in ((2, 2), (3, 2), (2, 3)):
        add(f"Poly(N(Zn:{m}),cyc={cyc})",
            [f"Poly(N(Zn:{m},{f}),cyc={cyc})" for f in FLAVORS],
            (m * m) ** cyc, True, "python")
    # Fuzzy grids come one per step, so neighbouring steps stand in as
    # variants of about the same size.
    for steps in ((3, 4), (8, 9), (14, 15)):
        add(f"Fuzzy(min|max,1/{steps[0]}..{steps[-1]})",
            [f"Fuzzy({op},step=1/{t})" for op in ("min", "max")
             for t in steps], (steps[-1] + 1) ** 2, False, "numpy")
    for steps in ((8, 9, 10, 11), (12, 13, 14, 15)):
        add(f"Fuzzy(prod,1/{steps[0]}..{steps[-1]})",
            [f"Fuzzy(prod,step=1/{t})" for t in steps],
            (steps[-1] + 1) ** 2, False, "python")
    for size in (16, 32, 64, 100):
        add(f"Sub[{size}] of N(Z)", _subs(rng, 4, size, "Z", -6, 6, False),
            size, False, "python")
    for size in (16, 32, 48):
        add(f"Sub[{size}] of N(Zn:7)",
            _subs(rng, 4, size, "Zn:7", 0, 6, True), size, False, "numpy")

    for k in (12, 16):
        add(f"table N(Zn:{k})", [_n(f"Zn:{k}", f) for f in FLAVORS],
            k * k, True, "numpy", cmd="table", ops=("add", "mul"))
    add("table Poly(N(Zn:2),cyc=3)",
        [f"Poly(N(Zn:2,{f}),cyc=3)" for f in FLAVORS], 64, True, "python",
        cmd="table", ops=("add", "mul"))
    add("table Mat[81](N(Zn:3))",
        [f"Mat({r},{c},N(Zn:3,{f}))" for r, c in ((1, 2), (2, 1))
         for f in FLAVORS], 81, True, "python", cmd="table",
        ops=("add", "mul"))
    add("table Fuzzy(min|max,1/15)",
        [f"Fuzzy({op},step=1/{t})" for op in ("min", "max")
         for t in (14, 15)], 256, False, "numpy", cmd="table", ops=("mul",))
    add("table Sub[32] of N(Z)", _subs(rng, 4, 32, "Z", -6, 6, False), 32,
        False, "python", cmd="table", ops=("add", "mul"))
    return slots


def ideals_pool():
    """`ideal` enumeration and validation, and `quotient` requests."""
    rng = random.Random(POOL_SEED + 1)
    slots = []

    def add(name, variants):
        slots.append(Slot(name, variants))

    for k in (6, 8, 10, 12, 14, 15):
        add(f"ideal N(Zn:{k})",
            [["ideal", _n(f"Zn:{k}", f)] for f in FLAVORS])
    add("ideal N(ZnI:4)", [["ideal", _n("ZnI:4", f)] for f in FLAVORS])
    add("ideal N(Zn+I:3)", [["ideal", _n("Zn+I:3", f)] for f in FLAVORS])
    add("ideal Mat[16](N(Zn:2))",
        [["ideal", f"Mat({r},{c},N(Zn:2,{f}))"] for r, c in ((1, 2), (2, 1))
         for f in FLAVORS])

    for k in (12, 20, 30, 40):
        add(f"ideal N(Zn:{k}) line",
            [["ideal", _n(f"Zn:{k}", f), side] for f in FLAVORS
             for side in ("col-zero", "row-zero")])
    for k, divisors in ((12, (2, 3, 4, 6)), (30, (2, 3, 5, 6))):
        add(f"ideal N(Zn:{k}) diag",
            [["ideal", _n(f"Zn:{k}", f), f"diag-multiples:{d}"]
             for f in FLAVORS for d in divisors])
    for gens in (1, 2):
        variants = []
        for f in FLAVORS:
            for _ in range(2):
                elems = ",".join(_iv(rng.randrange(12), rng.randrange(12), f)
                                 for _ in range(gens))
                variants.append(["ideal", _n("Zn:12", f), f"gen{{{elems}}}"])
        add(f"ideal N(Zn:12) gen{gens}", variants)
    # Refused verdicts (exit 4): a line ideal of a punctured carrier is
    # empty, and a random subset of N(Zn:7) has no additive group.
    for p in (7, 11):
        add(f"ideal N(Zn:{p})\\0 line",
            [["ideal", _n(f"Zn:{p}", f, True), side] for f in FLAVORS
             for side in ("col-zero", "row-zero")])
    add("ideal Sub[16] of N(Zn:7)",
        [["ideal", s, "col-zero"]
         for s in _subs(rng, 4, 16, "Zn:7", 0, 6, True)])

    # The one large Rees quotient: N(Zn:53) by a line ideal has 2757
    # classes, above both the cubic scan cap and the element-report cap.
    add("quotient N(Zn:53) rees",
        [["quotient", _n("Zn:53", f), side, "--kind", "rees"]
         for f in FLAVORS for side in ("col-zero", "row-zero")])
    add("quotient N(Zn:53) standard",
        [["quotient", _n("Zn:53", f), side, "--kind", "standard"]
         for f in FLAVORS for side in ("col-zero", "row-zero")])
    for k in (12, 14, 16):
        add(f"quotient N(Zn:{k}) rees",
            [["quotient", _n(f"Zn:{k}", f), side, "--kind", "rees"]
             for f in FLAVORS for side in ("col-zero", "row-zero")])
    for k in (12, 24):
        add(f"quotient N(Zn:{k}) standard",
            [["quotient", _n(f"Zn:{k}", f), side, "--kind", "standard"]
             for f in FLAVORS for side in ("col-zero", "row-zero")])
    for kind in ("rees", "standard"):
        add(f"quotient N(Zn:12) diag {kind}",
            [["quotient", _n("Zn:12", f), f"diag-multiples:{d}", "--kind",
              kind] for f in FLAVORS for d in (2, 3, 4, 6)])
    # Rees quotients by a generated ideal are left out: their cost swings
    # 25x with the drawn generator, too much for the slot's median.
    variants = []
    for f in FLAVORS:
        for _ in range(2):
            g = f"gen{{{_iv(rng.randrange(12), rng.randrange(12), f)}}}"
            variants.append(["quotient", _n("Zn:12", f), g, "--kind",
                             "standard"])
    add("quotient N(Zn:12) gen standard", variants)
    add("quotient Mat[81](N(Zn:3)) rees",
        [["quotient", f"Mat({r},{c},N(Zn:3,{f}))", "col-zero", "--kind",
          "rees"] for r, c in ((1, 2), (2, 1)) for f in FLAVORS])
    return slots


def oracle_pool():
    """Suite calls.  Each slot is called `calls` times per round, each
    time with a fresh drawn seed; the seeds make the requests distinct."""
    slots = []

    def add(name, fn, calls, kwargs_options):
        variants = [(fn, kw) for kw in kwargs_options]
        slots.append(Slot(name, variants, calls=calls))

    # Case counts are set so that every call costs 0.1-0.2 s: with no
    # outlier group, the median and the tail fall where latencies are
    # dense, and stay put from seed to seed.
    for dom, cases, calls in (("Z", 2000, 3), ("Q", 1000, 2),
                              ("Zn:12", 8000, 3), ("ZnI:7", 8000, 3),
                              ("Zn+I:5", 4000, 3), ("F01", 1000, 2)):
        add(f"decomposition {dom}", "decomposition_suite", calls,
            [{"cases": cases, "domains": [dom]}])
    add("modmap", "modmap_suite", 3,
        [{"n": n, "pairs": 4000} for n in (6, 12, 30)])
    add("matmul", "matmul_decompose_suite", 2, [{"cases": 250}])
    add("poly", "poly_decompose_suite", 2, [{"cases": 500}])
    add("poly cyclic", "poly_decompose_suite", 2,
        [{"cases": 500, "cyclic": c} for c in (2, 3, 4)])
    add("strict", "strictness_suite", 3, [{"cases": 20000}])
    return slots


def book_pool(claim_ids):
    return [Slot(cid, [["verify-book", "--only", cid, "--seed", str(s)]
                       for s in BOOK_SEEDS]) for cid in claim_ids]


def pool(workload, claim_ids=()):
    if workload == "analyze":
        return analyze_pool()
    if workload == "ideals":
        return ideals_pool()
    if workload == "oracle":
        return oracle_pool()
    if workload == "book":
        return book_pool(claim_ids)
    raise ValueError(f"unknown workload {workload!r}")


class Request:
    """One request of a stream: a CLI argv, or a suite call."""

    __slots__ = ("slot", "argv", "suite", "kwargs", "props")

    def __init__(self, slot, argv=None, suite=None, kwargs=None):
        self.slot = slot.name
        self.argv = argv
        self.suite = suite
        self.kwargs = kwargs
        self.props = slot.props

    @property
    def key(self):
        if self.argv is not None:
            return "\x1f".join(self.argv)
        args = ",".join(f"{k}={self.kwargs[k]}" for k in sorted(self.kwargs))
        return f"{self.suite}({args})"


def stream(workload, seed, claim_ids=()):
    """The rounds of one run: lists of requests, in the order sent."""
    rng = random.Random(f"{workload}:{seed}")
    slots = pool(workload, claim_ids)
    rounds = ROUNDS[workload]
    if workload == "book":
        # Catalogue order; each round runs under its own drawn seed.
        return [[Request(slot, argv=slot.variants[s]) for slot in slots]
                for s in rng.sample(range(len(BOOK_SEEDS)), rounds)]
    if workload == "oracle":
        calls = sum(slot.props["calls"] for slot in slots)
        seeds = rng.sample(range(1, 1 << 30), calls * rounds)
        out = []
        for _ in range(rounds):
            reqs = []
            for slot in slots:
                for _ in range(slot.props["calls"]):
                    fn, kw = rng.choice(slot.variants)
                    reqs.append(Request(slot, suite=fn,
                                        kwargs=dict(kw, seed=seeds.pop())))
            rng.shuffle(reqs)
            out.append(reqs)
        return out
    drawn = [rng.sample(slot.variants, rounds) for slot in slots]
    out = []
    for r in range(rounds):
        reqs = [Request(slot, argv=d[r]) for slot, d in zip(slots, drawn)]
        rng.shuffle(reqs)
        out.append(reqs)
    return out


def all_requests(workload, claim_ids=()):
    """Every request a run of this workload can draw (for references)."""
    return [Request(slot, argv=v) for slot in pool(workload, claim_ids)
            for v in slot.variants]
