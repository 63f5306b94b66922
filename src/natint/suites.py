"""Seeded randomized suites for the arithmetic laws that hold on
infinite carriers and cannot be checked by enumeration.

Every suite is deterministic in (seed, case count): cases are split
into fixed chunks, each chunk gets its own Random seeded from the suite
seed and the chunk index, and the chunks run in order, so failures come
in chunk order.  Every draw, here and in the domains' random_scalar,
goes through one helper, scalars._rand_below, which gives
Random.randrange's stream without its argument checks.  Each suite
still accepts `workers`, which changes nothing and is passed no further:
the cases are pure Python, and threads only took turns on the
interpreter lock.  The suites keep the parameter because the benchmark
harness (perfbench/run.py) calls them with it.

Each law is checked one way.  A suite over several domains
(decomposition, matmul and poly) runs one chunked pass per domain
through _by_domain, each case a function of that domain alone.  The
mod-n map draws one stream per modulus: a case draws x and y, checks
add, sub and mul, and only when all three pass draws the kernel
multipliers.  Its image side N(Zn) is finite, so for moduli up to
MODMAP_BATCHED the cases are first checked in one batched pass over
the draws, which are the same for every modulus as long as every case
passes; only when some case fails is each modulus run again on its own
stream, case by case, to write its failures.  The map itself reads each
residue of x and y through Zn's coercion (Mod(n).coerce), and the
kernel check reduces each multiple of n through it, so a fault of the
coercion fails the ops, the kernel-only check or the kernel check.  On
a 2-core VM (Python 3.11.7), modmap_suite(11, 10000) takes 0.06 s
(0.09 s case by case) and decomposition_suite(10000) 1.8 s, best of 7
and of 3 runs.
"""

import operator
import random
from array import array

import numpy as np

from .errors import FuzzyRangeOverflow
from .intervals import Flavor, NaturalInterval, interval, iv_max, iv_min
from .scalars import Mod, Z, _rand_below, parse_domain

CHUNK = 1000


def run_chunked(total, case_fn, seed=0, chunk=CHUNK):
    """case_fn(rng, case_index) -> None on pass, a failure dict otherwise;
    the chunks run in order."""
    out = []
    for ci in range((total + chunk - 1) // chunk):
        rng = random.Random(seed * 1000003 + ci)
        for k in range(ci * chunk, min(total, (ci + 1) * chunk)):
            bad = case_fn(rng, k)
            if bad is not None:
                out.append(bad)
    return out


def _report(name, total, seed, failures, extra=None):
    out = {"suite": name, "cases": total, "seed": seed,
           "failures": len(failures), "ok": not failures}
    if failures:
        out["first_failures"] = failures[:5]
    if extra:
        out.update(extra)
    return out


def _rand_iv(d, rng, flavor=Flavor.CLOSED):
    # random_scalar returns canonical values, so nothing is re-coerced
    return NaturalInterval(d, d.random_scalar(rng), d.random_scalar(rng),
                           flavor)


DECOMPOSITION_DOMAINS = ("Z", "Q", "Zn:12", "ZnI:7", "Zn+I:5", "F01")


def _by_domain(name, domains, cases, seed, check, extra):
    """The report of suite `name` over each domain spec of domains, in
    order: check(d) gives domain d's case function, extra(d) the fields
    its report adds after its domain."""
    reports = []
    for spec in domains:
        d = parse_domain(spec)
        failures = run_chunked(cases, check(d), seed=seed)
        reports.append(_report(name, cases, seed, failures,
                               {"domain": d.spec, **extra(d)}))
    return {"suite": name, "seed": seed,
            "ok": all(r["ok"] for r in reports), "domains": reports}


def _ops(d):
    """The ops decomposition_suite lists for domain d."""
    if d.kind == "FuzzyUnit":
        return ["mul", "min", "max", "add"]
    return (["add", "sub", "mul", "div", "min", "max"] if d.ordered
            else ["add", "sub", "mul", "div"])


def _decomposition_case(d):
    """The case function of decomposition_suite over domain d."""
    sub = "sub" in _ops(d)  # F01 has none

    def case(rng, k):
        x = _rand_iv(d, rng)
        y = _rand_iv(d, rng)

        def mismatch(op, got, want):
            # None on a side: an F01 sum that overflows [0, 1]
            return {"domain": d.spec, "op": op, "x": str(x), "y": str(y),
                    "case": k, "got": "overflow" if got is None else str(got),
                    "expected": "overflow" if want is None
                    else str(interval(d, *want))}

        try:
            want = (d.add(x.lo, y.lo), d.add(x.hi, y.hi))
        except FuzzyRangeOverflow:
            want = None
        try:
            got = x + y
        except FuzzyRangeOverflow:
            got = None
        if (None if got is None else (got.lo, got.hi)) != want:
            return mismatch("add", got, want)
        if sub:
            got = x - y
            want = (d.sub(x.lo, y.lo), d.sub(x.hi, y.hi))
            if (got.lo, got.hi) != want:
                return mismatch("sub", got, want)
        got = x * y
        want = (d.mul(x.lo, y.lo), d.mul(x.hi, y.hi))
        if (got.lo, got.hi) != want:
            return mismatch("mul", got, want)
        if d.inv(y.lo) is not None and d.inv(y.hi) is not None:
            got = x / y
            want = (d.div(x.lo, y.lo), d.div(x.hi, y.hi))
            if (got.lo, got.hi) != want:
                return mismatch("div", got, want)
        if d.ordered:
            got = iv_min(x, y)
            # as builtin min and max: the first operand on a tie
            want = (y.lo if d.lt(y.lo, x.lo) else x.lo,
                    y.hi if d.lt(y.hi, x.hi) else x.hi)
            if (got.lo, got.hi) != want:
                return mismatch("min", got, want)
            got = iv_max(x, y)
            want = (y.lo if d.lt(x.lo, y.lo) else x.lo,
                    y.hi if d.lt(x.hi, y.hi) else x.hi)
            if (got.lo, got.hi) != want:
                return mismatch("max", got, want)
        return None

    return case


def decomposition_suite(cases=100000, seed=0, workers=1,
                        domains=DECOMPOSITION_DOMAINS):
    """Interval arithmetic is the product structure Domain x Domain.

    For each sampled pair and every operation the domain supports
    (add, sub, mul, div, min, max), the endpoints of the interval result
    must equal the scalar results on the endpoints — and where addition
    is partial (F01) the interval must overflow exactly when a component
    does.
    """
    return _by_domain("decomposition", domains, cases, seed,
                      _decomposition_case, lambda d: {"ops": _ops(d)})


_MODMAP_OPS = (("add", operator.add), ("sub", operator.sub),
               ("mul", operator.mul))
# the largest modulus _modmap_batched takes: N(Z64) has 4096 elements
MODMAP_BATCHED = 64


def modmap_suite(n, pairs=10000, seed=0, workers=1):
    """The componentwise mod-n map N(Z) -> N(Zn) preserves add, sub and
    mul, and its kernel is N(nZ): multiples of n map to zero and nothing
    sampled outside nZ x nZ does.  The one-modulus case of
    modmap_suites."""
    return modmap_suites((n,), pairs, seed)[0]


def modmap_suites(moduli, pairs=10000, seed=0):
    """modmap_suite(n, pairs, seed) for each n of moduli, from one
    batched pass over the drawn cases while every case passes
    (_modmap_failures)."""
    return [_report("modmap", pairs, seed, fails,
                    {"modulus": n, "kernel": f"N({n}Z)"})
            for n, fails in zip(moduli, _modmap_failures(moduli, pairs,
                                                         seed))]


def _modmap_failures(moduli, pairs, seed):
    """The failure list of modmap_suite for each modulus of moduli: the
    batched pass's empty lists when every case passes, else each
    modulus's own case loop (_modmap_cases), which writes its failures."""
    fails = _modmap_batched(moduli, pairs, seed)
    if fails is None:
        return [_modmap_cases(n, pairs, seed) for n in moduli]
    return fails


def _modmap_batched(moduli, pairs, seed):
    """An empty list for each modulus of moduli when every case of
    _modmap_cases passes, else None; None too when a modulus is above
    MODMAP_BATCHED, whose N(Zn) is too large to intern.

    Each case draws x and y, takes their Z-side results and draws the
    kernel multipliers, as a passing case of _modmap_cases does for any
    modulus, and keeps the endpoints in one flat buffer (32-bit: the Z-side
    endpoints are at most 2500 in size).  _modmap_passes checks them."""
    if any(n > MODMAP_BATCHED for n in moduli):
        return None
    buf = array("i")

    def case(rng, k):
        x, y = _rand_iv(Z, rng), _rand_iv(Z, rng)
        s, d, p = x + y, x - y, x * y  # in the order of _MODMAP_OPS
        kernel = (_rand_below(rng, 61) - 30, _rand_below(rng, 61) - 30)
        buf.extend((x.lo, x.hi, y.lo, y.hi, s.lo, s.hi, d.lo, d.hi, p.lo,
                    p.hi) + kernel)

    run_chunked(pairs, case, seed=seed)
    drawn = np.frombuffer(buf, dtype=np.intc).reshape(pairs, 12)
    if all(_modmap_passes(n, drawn) for n in moduli):
        return [[] for _ in moduli]
    return None


def _modmap_passes(n, drawn):
    """Whether every case of drawn (_modmap_batched's buffer, a row of
    endpoints a case) passes modulus n.  N(Zn) has n^2 elements, interned
    at index lo * n + hi, so each op runs once per distinct pair of
    operand indices (interval ops are pure functions of their operands),
    and each image is checked with __eq__ against the element at its own
    endpoints, so a wrong flavor, domain or residue fails.  The image
    indices, gathered back to every case, are compared with the ambient
    residues in one array compare."""
    dn = Mod(n)
    zero = NaturalInterval(dn, 0, 0)
    elems = [NaturalInterval(dn, lo, hi)
             for lo in range(n) for hi in range(n)]
    # each kernel endpoint n * k, reduced by Zn's own coercion
    if any(interval(dn, n * k, n * k) != zero
           for k in np.unique(drawn[:, 10:]).tolist()):
        return False
    # the indices of x, y, x + y, x - y and x * y, taken in place: one
    # buffer the size of drawn's first ten columns is the peak; x's and
    # y's residues are mapped through Zn's coercion, as phi maps them
    ends = drawn[:, :10] % n
    nonzero = ends[:, :2].any(axis=1)
    phi = np.array([dn.coerce(r) for r in range(n)])
    if phi.min() < 0 or phi.max() >= n:
        return False
    ends[:, :4] = phi[ends[:, :4]]
    codes = ends[:, 0::2]
    codes *= n
    codes += ends[:, 1::2]
    if any(elems[i] == zero for i in np.unique(codes[nonzero, 0]).tolist()):
        return False
    pair, inv = np.unique(codes[:, 0] * n * n + codes[:, 1],
                          return_inverse=True)
    images = array("i")
    for i, j in zip(*(a.tolist() for a in np.divmod(pair, n * n))):
        for _, f in _MODMAP_OPS:
            img = f(elems[i], elems[j])
            lo, hi = img.lo, img.hi
            if not (0 <= lo < n and 0 <= hi < n
                    and img == elems[lo * n + hi]):
                return False
            images.append(lo * n + hi)
    images = np.frombuffer(images, dtype=np.intc).reshape(len(pair), 3)
    return bool((images[inv] == codes[:, 2:5]).all())


def _modmap_cases(n, pairs, seed):
    """The failure list of modmap_suite(n, pairs, seed), case by case.  A
    case draws x and y and checks add, sub and mul in that order; only
    when all three pass does it draw the kernel multipliers, so a case
    that fails an op draws no more.  phi(x) and phi(y) read x's and y's
    residues through Zn's coercion, and the kernel check reduces the
    kernel element through it, so every check but the ambient side of
    the ops asks the coercion."""
    dn = Mod(n)
    zero = NaturalInterval(dn, 0, 0)

    def case(rng, k):
        x, y = _rand_iv(Z, rng), _rand_iv(Z, rng)
        px = interval(dn, x.lo % n, x.hi % n)
        py = interval(dn, y.lo % n, y.hi % n)
        for op, f in _MODMAP_OPS:
            z = f(x, y)
            amb = NaturalInterval(dn, z.lo % n, z.hi % n)
            img = f(px, py)
            if amb != img:
                return {"op": op, "x": str(x), "y": str(y), "case": k,
                        "phi(x op y)": str(amb), "phi(x) op phi(y)": str(img)}
        kern = NaturalInterval(Z, n * (_rand_below(rng, 61) - 30),
                               n * (_rand_below(rng, 61) - 30))
        if interval(dn, kern.lo, kern.hi) != zero:
            return {"op": "kernel", "x": str(kern), "case": k,
                    "expected": "[0,0]"}
        if (x.lo % n, x.hi % n) != (0, 0) and px == zero:
            return {"op": "kernel-only", "x": str(x), "case": k}
        return None

    return run_chunked(pairs, case, seed=seed)


def _scalar_matmul(d, a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = d.zero
            for k in range(inner):
                acc = d.add(acc, d.mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def matmul_decompose_suite(cases=1000, seed=0, workers=1,
                           domains=("Zn:7", "Q"), size=3):
    """Interval matrix products decompose into two scalar matrix
    products: lo(AB) = lo(A)lo(B) and hi(AB) = hi(A)hi(B)."""
    from .matrices import IntervalMatrix

    def check(d):
        def case(rng, k):
            ents_a = [_rand_iv(d, rng) for _ in range(size * size)]
            ents_b = [_rand_iv(d, rng) for _ in range(size * size)]
            a = IntervalMatrix(size, size, ents_a, d, Flavor.CLOSED)
            b = IntervalMatrix(size, size, ents_b, d, Flavor.CLOSED)
            lo, hi = (a @ b).decompose()
            alo, ahi = a.decompose()
            blo, bhi = b.decompose()
            if lo != _scalar_matmul(d, alo, blo):
                return {"domain": d.spec, "case": k, "side": "lo",
                        "a": str(a), "b": str(b)}
            if hi != _scalar_matmul(d, ahi, bhi):
                return {"domain": d.spec, "case": k, "side": "hi",
                        "a": str(a), "b": str(b)}
            return None
        return case

    return _by_domain("matmul-decompose", domains, cases, seed, check,
                      lambda d: {"shape": [size, size]})


def _scalar_polymul(d, a, b, cyclic):
    if not a or not b:
        return ()
    width = len(a) + len(b) - 1
    if cyclic is not None:
        width = min(width, cyclic)
    out = [d.zero] * width
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            k = i + j
            if cyclic is not None:
                k %= cyclic
            out[k] = d.add(out[k], d.mul(ai, bj))
    while out and out[-1] == d.zero:
        out.pop()
    return tuple(out)


def poly_decompose_suite(cases=1000, seed=0, workers=1,
                         domains=("Zn:6", "Q"), cyclic=None, max_terms=5):
    """Interval polynomial products decompose into two scalar polynomial
    convolutions (with the same exponent folding when cyclic)."""
    from .polys import IntervalPoly

    def check(d):
        def case(rng, k):
            na = _rand_below(rng, max_terms) + 1
            nb = _rand_below(rng, max_terms) + 1
            p = IntervalPoly(d, Flavor.CLOSED,
                             [_rand_iv(d, rng) for _ in range(na)], cyclic)
            q = IntervalPoly(d, Flavor.CLOSED,
                             [_rand_iv(d, rng) for _ in range(nb)], cyclic)
            lo, hi = (p * q).decompose()
            plo, phi_ = p.decompose()
            qlo, qhi = q.decompose()
            if lo != _scalar_polymul(d, plo, qlo, cyclic):
                return {"domain": d.spec, "case": k, "side": "lo",
                        "p": str(p), "q": str(q)}
            if hi != _scalar_polymul(d, phi_, qhi, cyclic):
                return {"domain": d.spec, "case": k, "side": "hi",
                        "p": str(p), "q": str(q)}
            return None
        return case

    return _by_domain("poly-decompose", domains, cases, seed, check,
                      lambda d: {"cyclic": cyclic})


def strictness_suite(cases=20000, seed=0, workers=1):
    """Over nonnegative integers no two nonzero intervals sum to zero,
    so N(Z>=0) is a strict semiring."""
    from .scalars import NONNEG

    d = NONNEG
    z = interval(d, 0, 0)

    def case(rng, k):
        if k % 13 == 0:
            x = z
        else:
            x = _rand_iv(d, rng)
        y = _rand_iv(d, rng)
        s = x + y
        if s == z and not (x == z and y == z):
            return {"x": str(x), "y": str(y), "case": k, "sum": str(s)}
        return None

    failures = run_chunked(cases, case, seed=seed)
    return _report("strict-semiring", cases, seed, failures,
                   {"domain": d.spec})
