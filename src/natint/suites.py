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

The mod-n map's image side N(Zn) is finite, so for moduli up to
MODMAP_BATCHED modmap_suite checks its cases in one batched pass that
runs each image op once per distinct operand pair, and runs them case
by case only when some case fails, to write its failures.  On a 2-core
VM (Python 3.11.7), modmap_suite(11, 10000) takes 0.06 s (0.09 s case by
case) and decomposition_suite(10000) 1.8 s, best of 7 and of 3 runs.
"""

import operator
import random
from array import array
from fractions import Fraction

import numpy as np

from .errors import FuzzyRangeOverflow
from .intervals import Flavor, NaturalInterval, interval, iv_max, iv_min
from .scalars import Mod, Q, Z, _rand_below, parse_domain

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


def decomposition_suite(cases=100000, seed=0, workers=1,
                        domains=DECOMPOSITION_DOMAINS):
    """Interval arithmetic is the product structure Domain x Domain.

    For each sampled pair and every operation the domain supports
    (add, sub, mul, div, min, max), the endpoints of the interval result
    must equal the scalar results on the endpoints — and where addition
    is partial (F01) the interval must overflow exactly when a component
    does.
    """
    reports = []
    for spec in domains:
        d = parse_domain(spec)
        fuzzy = (d.kind == "FuzzyUnit")

        def case(rng, k, d=d, fuzzy=fuzzy):
            x = _rand_iv(d, rng)
            y = _rand_iv(d, rng)

            def mismatch(op, got, lo, hi):
                return {"domain": d.spec, "op": op, "x": str(x), "y": str(y),
                        "case": k, "got": str(got),
                        "expected": str(interval(d, lo, hi))}

            if fuzzy:
                try:
                    lo = d.add(x.lo, y.lo)
                    hi = d.add(x.hi, y.hi)
                    want = (lo, hi)
                except FuzzyRangeOverflow:
                    want = None
                try:
                    got = x + y
                except FuzzyRangeOverflow:
                    got = None
                if want is None or got is None:
                    if want is not None or got is not None:
                        return {"domain": d.spec, "op": "add", "x": str(x),
                                "y": str(y), "case": k,
                                "got": "overflow" if got is None else str(got),
                                "expected": "overflow" if want is None
                                else str(interval(d, *want))}
                elif (got.lo, got.hi) != want:
                    return mismatch("add", got, *want)
            else:
                got = x + y
                if (got.lo, got.hi) != (d.add(x.lo, y.lo), d.add(x.hi, y.hi)):
                    return mismatch("add", got, d.add(x.lo, y.lo),
                                    d.add(x.hi, y.hi))
                got = x - y
                if (got.lo, got.hi) != (d.sub(x.lo, y.lo), d.sub(x.hi, y.hi)):
                    return mismatch("sub", got, d.sub(x.lo, y.lo),
                                    d.sub(x.hi, y.hi))
            got = x * y
            if (got.lo, got.hi) != (d.mul(x.lo, y.lo), d.mul(x.hi, y.hi)):
                return mismatch("mul", got, d.mul(x.lo, y.lo),
                                d.mul(x.hi, y.hi))
            if d.inv(y.lo) is not None and d.inv(y.hi) is not None:
                got = x / y
                want = (d.div(x.lo, y.lo), d.div(x.hi, y.hi))
                if (got.lo, got.hi) != want:
                    return mismatch("div", got, *want)
            if d.ordered:
                got = iv_min(x, y)
                # as builtin min and max: the first operand on a tie
                want = (y.lo if d.lt(y.lo, x.lo) else x.lo,
                        y.hi if d.lt(y.hi, x.hi) else x.hi)
                if (got.lo, got.hi) != want:
                    return mismatch("min", got, *want)
                got = iv_max(x, y)
                want = (y.lo if d.lt(x.lo, y.lo) else x.lo,
                        y.hi if d.lt(x.hi, y.hi) else x.hi)
                if (got.lo, got.hi) != want:
                    return mismatch("max", got, *want)
            return None

        failures = run_chunked(cases, case, seed=seed)
        ops = (["mul", "min", "max", "add"] if fuzzy else
               (["add", "sub", "mul", "div", "min", "max"] if d.ordered
                else ["add", "sub", "mul", "div"]))
        reports.append(_report("decomposition", cases, seed, failures,
                               {"domain": d.spec, "ops": ops}))
    return {"suite": "decomposition", "seed": seed,
            "ok": all(r["ok"] for r in reports),
            "domains": reports}


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
    """modmap_suite(n, pairs, seed) for each n of moduli, from one pass
    over the drawn cases (_modmap_failures)."""
    return [_report("modmap", pairs, seed, fails,
                    {"modulus": n, "kernel": f"N({n}Z)"})
            for n, fails in zip(moduli, _modmap_failures(moduli, pairs,
                                                         seed))]


def _modmap_failures(moduli, pairs, seed):
    """The failure list of modmap_suite for each modulus of moduli: the
    batched pass's empty lists when every case passes, else the lists
    of the case loop (_modmap_cases), which writes each failure."""
    fails = _modmap_batched(moduli, pairs, seed)
    return _modmap_cases(moduli, pairs, seed) if fails is None else fails


def _modmap_batched(moduli, pairs, seed):
    """An empty list for each modulus of moduli when every case of
    _modmap_cases passes, else None; None too when a modulus is above
    MODMAP_BATCHED, whose N(Zn) is too large to intern.

    Each case draws x and y, takes their Z-side results and draws the
    kernel multipliers, as _modmap_cases does where every modulus passes,
    and keeps the endpoints in one flat buffer (32-bit: the Z-side
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
    # the indices of x, y, x + y, x - y, x * y and the kernel element,
    # taken in place: one buffer the size of drawn is the peak
    ends = np.hstack([drawn[:, :10], n * drawn[:, 10:]])
    ends %= n
    codes = ends[:, 0::2]
    codes *= n
    codes += ends[:, 1::2]
    if any(elems[i] != zero for i in np.unique(codes[:, 5]).tolist()):
        return False
    if any(elems[i] == zero for i in np.unique(codes[:, 0]).tolist() if i):
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


def _modmap_cases(moduli, pairs, seed):
    """The failure list of modmap_suite for each modulus of moduli, case
    by case.  A case draws x and y and takes their Z-side sum, difference
    and product once; then each modulus checks them in modmap_suite's
    order, and the moduli that pass the ops share one draw of the kernel
    multipliers.  A modulus that fails an op draws none, so where another
    passes on the same case their streams part; such a modulus is run
    again on its own."""
    rings = [(n, Mod(n), NaturalInterval(Mod(n), 0, 0)) for n in moduli]
    names, fns = zip(*_MODMAP_OPS)
    failures = [[] for _ in moduli]
    parted = set()

    def case(rng, k):
        x, y = _rand_iv(Z, rng), _rand_iv(Z, rng)
        zs = (x + y, x - y, x * y)  # in the order of _MODMAP_OPS
        kernel, failed = None, ()
        for j, (n, dn, zero) in enumerate(rings):
            # residues mod n are already canonical in Zn
            px = NaturalInterval(dn, x.lo % n, x.hi % n)
            py = NaturalInterval(dn, y.lo % n, y.hi % n)
            for op, f, z in zip(names, fns, zs):
                amb = NaturalInterval(dn, z.lo % n, z.hi % n)
                img = f(px, py)
                if amb != img:
                    failures[j].append({
                        "op": op, "x": str(x), "y": str(y), "case": k,
                        "phi(x op y)": str(amb),
                        "phi(x) op phi(y)": str(img)})
                    failed += (j,)
                    break
            else:
                if kernel is None:
                    kernel = (_rand_below(rng, 61) - 30,
                              _rand_below(rng, 61) - 30)
                kern = NaturalInterval(Z, n * kernel[0], n * kernel[1])
                if NaturalInterval(dn, kern.lo % n, kern.hi % n) != zero:
                    failures[j].append({"op": "kernel", "x": str(kern),
                                        "case": k, "expected": "[0,0]"})
                elif (x.lo % n, x.hi % n) != (0, 0) and px == zero:
                    failures[j].append({"op": "kernel-only", "x": str(x),
                                        "case": k})
        if kernel is not None:
            parted.update(failed)

    run_chunked(pairs, case, seed=seed)
    for j in parted:
        failures[j] = _modmap_cases((moduli[j],), pairs, seed)[0]
    return failures


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

    reports = []
    for spec in domains:
        d = parse_domain(spec)

        def case(rng, k, d=d):
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

        failures = run_chunked(cases, case, seed=seed)
        reports.append(_report("matmul-decompose", cases, seed, failures,
                               {"domain": d.spec, "shape": [size, size]}))
    return {"suite": "matmul-decompose", "seed": seed,
            "ok": all(r["ok"] for r in reports), "domains": reports}


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

    reports = []
    for spec in domains:
        d = parse_domain(spec)

        def case(rng, k, d=d):
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

        failures = run_chunked(cases, case, seed=seed)
        reports.append(_report("poly-decompose", cases, seed, failures,
                               {"domain": d.spec, "cyclic": cyclic}))
    return {"suite": "poly-decompose", "seed": seed,
            "ok": all(r["ok"] for r in reports), "domains": reports}


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
