"""Ideals and quotient constructions over finite carriers.

A quotient (QuotientStructure) is a FiniteStructure, a view of its
ambient (structures): class c is the element labeled as below, standing
for the ambient element reps[c], and class_of maps every ambient element
to its class.  Its tables, verdicts and element facts are the view's
own, so a quotient is analyzed as any structure is.  Two quotient kinds
are supported:

standard
    True additive cosets x + I.  Requires the subset to be a genuine
    ideal; the number of classes is |S| / |I|.

rees
    The ideal collapses to a single zero class and every element outside
    it is its own class, giving |S| - |I| + 1 classes.  Multiplication
    of classes is the ambient product read through the collapse.  Class
    *addition* is not well defined in general; the diagnostics report
    what actually holds instead of assuming it.

The ideal class is labeled with the ideal's name (default "I"); standard
cosets are labeled "<rep>+<name>" and rees classes keep their ambient
element label, so a rees quotient refuses a name that is also the label
of an element outside the ideal.

An operation that is well defined on the classes is a congruence, and
the classes inherit its associativity and distributivity from the
ambient (structures: FiniteStructure._known asks _congruent).  For a
quotient by an ideal that passed is_ideal, the congruence lemma decides
well_defined without comparing any products:

- rees mul always, because the ideal absorbs products on both sides;
- standard add when the ambient's addition is proven associative and
  commutative, since the cosets of a subgroup of an abelian group add;
- standard mul when, moreover, the ambient is proven distributive.

Every other case compares the ambient's products class by class.

A Rees quotient by an ideal I that passed is_ideal, and that reads off
its ambient (a smaller one searches its built class table), reads two
more facts off I and never reads a band of the ambient for them:

- the coset lemma: every class has an additive inverse when class 0 is
  the additive identity and the ambient's addition is proven
  associative, so that each ambient r has exactly one inverse -r.  For
  r outside I, -r is outside I too, since I is closed under negation
  and -(-r) = r, and r + (-r) = 0 lies in I, which is class 0.  Class 0
  is its own inverse, as I is closed under addition.
- the product lemma: on a full product with I = P x Q (_factor_ideals),
  a∘b lies in I exactly when a1∘b1 lies in P and a2∘b2 in Q.  Let B1 be
  the parts b1 with a1∘b1 in P, and B2 those b2 with a2∘b2 in Q.  The b
  with a∘b in I are then B1 x B2, and (B1 ∩ P) x (B2 ∩ Q) of them lie in
  I, so a outside I has a partner outside I exactly when
  |B1| |B2| > |B1 ∩ P| |B2 ∩ Q|.  The classes other than 0 keep ambient
  order, so the first such a and its least partner outside I, found
  through the grid of the parts, are the first pair of classes other
  than 0 whose product is class 0 (structures._first_zero_pair).  That
  costs O(n + m^2) on parts of m elements, not n^2.

Ideals of a product are read off its factors.  In a full product R x S
(N(D) is D x D, and so are the matrices and polynomials over it) whose
factors are closed, each with a multiplicative identity 1 and an
additive zero 0 that absorbs mul, every ideal K is I x J for ideals I of
R and J of S: (1,0)(x,y) = (x,0) and (0,1)(x,y) = (0,y), so K holds
pi_lo K x {0} and {0} x pi_hi K, and hence their sum pi_lo K x pi_hi K.
So enumerate_ideals lists the products of the factors' ideals, and
generate_ideal returns <pi_lo G> x <pi_hi G>, closing on the factors'
elements instead of the carrier's.  The factors' addition must be
associative too, so that the sum of two ideals found is additively
closed, as the closure engine assumes.  Every other carrier, including
a full product whose factor has no unity, runs one closure per element.

The quotients read the ambient in blocks (FiniteStructure._bands), which
a product carrier gathers from its part tables, so no table of such a
carrier is built:

- the standard class of x is keyed by the least carrier index in x + I,
  the minimum of x's row of the ambient's add block over the ideal's
  columns, and the classes are ordered by that key;
- the class tables of both kinds, and the rows that well_defined
  compares, are blocks too; a quotient of more classes than one band
  holds gathers the rows it predicts the same way, in bands, and builds
  no class table (_compare_products);
- is_ideal's scans read their blocks band by band.  Each of them, and
  the comparison, stops at the first band with a hit (_first_hit); the
  closure and both absorption scans ask for the first product that
  leaves the subset (structures._first_leak).

is_ideal reads a subset P x Q off the factors on any full product whose
factors' additive inverses are unique, with or without a unity: P x Q is
then an ideal exactly when P and Q are ideals of the factors, since each
ideal condition holds pair by pair, the inverse of (a, b) being the pair
of the inverses of a and b.  A subset that fails, or is no product,
falls through to the scans of the carrier's blocks, so its verdict keeps
its first witness in carrier order.  The negation scan takes each
member's first right inverse in the add table as its negative.
"""

import numpy as np

from .errors import NotAnIdeal, ParseError, TooLarge
from .intervals import NaturalInterval, split_top_level
from .structures import (
    FiniteStructure,
    _first_hit,
    _first_leak,
    _first_true,
    _first_zero_pair,
    _once,
    _proven,
    _relabel,
    _zero_index,
    axiom_report,
    find_special_elements,
    is_strict_semiring,
)

# Most ideals an enumeration may find before it is refused.
IDEAL_CAP = 4096
# Most members an ideal summary lists; a larger ideal lists a sample.
SUMMARY_MEMBERS = 60
# Largest quotient whose report lists the special elements of its classes.
CLASS_REPORT_CAP = 1024


class Ideal:
    """A subset of a carrier, held as sorted element indices."""

    __slots__ = ("ambient", "indices", "name")

    def __init__(self, ambient, indices, name="I"):
        idx = sorted({int(i) for i in indices})
        if not idx:
            raise NotAnIdeal("an ideal cannot be empty")
        if idx[0] < 0 or idx[-1] >= ambient.n:
            raise NotAnIdeal("element index out of range")
        self.ambient = ambient
        self.indices = idx
        self.name = name or "I"

    @property
    def order(self):
        return len(self.indices)

    def members(self):
        return self.ambient.labels(self.indices)

    def mask(self):
        m = np.zeros(self.ambient.n, dtype=bool)
        m[self.indices] = True
        return m

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ambient is other.ambient and self.indices == other.indices

    def __hash__(self):
        return hash((id(self.ambient), tuple(self.indices)))

    def __repr__(self):
        return f"<ideal {self.name}: {self.order} of {self.ambient.n}>"


def is_ideal(s, indices):
    """Exhaustively check that the index subset is a two-sided ideal.

    Returns (ok, info); on failure info carries the reason and the first
    witness in carrier order.  A product subset that passes on the
    factors (_factor_ideals) is an ideal without a table of s being
    built; any other subset is scanned.
    """
    n = s.n
    idx = np.array(sorted({int(i) for i in indices}), dtype=np.int64)
    if idx.size == 0:
        return False, {"reason": "empty subset"}
    if idx[0] < 0 or idx[-1] >= n:
        return False, {"reason": "element index out of range"}
    if _factor_ideals(s, idx) is not None:
        return True, {"order": int(idx.size)}
    z = s.identity_index("add")
    if z is None:
        return False, {"reason": "ambient has no additive identity"}
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    if not mask[z]:
        return False, {"reason": "does not contain zero"}
    if not s.inverses("add")[0]:
        return False, {"reason": "ambient addition is not a group"}
    # each member's negative is its first right inverse
    hit = _first_hit((lo, ~mask[(band == z).argmax(axis=1)])
                     for lo, band in s._bands("add", idx))
    if hit is not None:
        return False, {"reason": "not closed under negation",
                       "witness": s.label(int(idx[hit[0]]))}
    every = np.arange(n)
    for reason, op, rows, cols in (
            ("not closed under addition", "add", idx, idx),
            ("not absorbing on the left", "mul", every, idx),
            ("not absorbing on the right", "mul", idx, every)):
        leak = _first_leak(s, op, rows, cols, idx)
        if leak is not None:
            return False, {"reason": reason, "witness": s.labels(leak)}
    return True, {"order": int(idx.size)}


def generate_ideal(s, generator_indices):
    """Smallest two-sided ideal containing the generators.

    Fixpoint closure under negation, addition within the set, and
    products with the whole carrier; each new member is expanded once.
    Results are marked in a mask with one slot appended for -1, so a
    product leaving the carrier shows in that slot.
    """
    if not s.inverses("add")[0]:
        raise NotAnIdeal("ambient addition is not a group")
    n = s.n
    start = [int(g) for g in generator_indices]
    if any(g < 0 or g >= n for g in start):
        raise NotAnIdeal("generator index out of range")
    split = _ideal_factors(s)
    if split is not None:
        f_lo, f_hi, c = split
        return _product(c.grid, generate_ideal(f_lo, c.lo[start]),
                        generate_ideal(f_hi, c.hi[start])).tolist()
    z = s.identity_index("add")
    neg = s.neg_index()
    t = s.table("mul")
    ta = s.table("add")
    mask = np.zeros(n, dtype=bool)
    mask[z] = True
    mask[start] = True
    mask[neg[start]] = True
    frontier = np.flatnonzero(mask)
    while frontier.size:
        hit = np.zeros(n + 1, dtype=bool)
        hit[t.take(frontier, axis=1)] = True
        hit[t.take(frontier, axis=0)] = True
        members = np.flatnonzero(mask)
        hit[ta.take(members, axis=0).take(frontier, axis=1)] = True
        hit[neg[frontier]] = True
        if hit[n]:
            raise NotAnIdeal("generation left the carrier "
                             "(an operation is not closed)")
        fresh = hit[:n] & ~mask
        mask |= fresh
        frontier = np.flatnonzero(fresh)
    return np.flatnonzero(mask).tolist()


def parse_ideal_spec(s, text):
    """Build the subset named by an ideal spec.  No validation is done
    here — run is_ideal (or construct a quotient) to check it.

    Grammar:
        gen{e1,e2,...}       ideal generated by the listed elements
        col-zero             intervals [0,b]; matrices with column 0 zero
        row-zero             intervals [a,0]; matrices with row 0 zero
        diag-multiples:<k>   ideal generated by the degenerate [k,k]
    """
    t = text.strip()
    d = s.domain
    if t.startswith("gen{"):
        if not t.endswith("}"):
            raise ParseError("unterminated gen{...}", text=text,
                             expected=["}"])
        if s.parse_element is None:
            raise ParseError(
                f"carrier {s.name!r} has no element syntax for gen{{...}}",
                text=text)
        gens = []
        for part in split_top_level(t[4:-1]):
            part = part.strip()
            if not part:
                continue
            e = s.parse_element(part)
            if e not in s.index:
                raise ParseError(f"{part!r} is not in the carrier", text=text)
            gens.append(s.index[e])
        if not gens:
            raise ParseError("gen{...} needs at least one generator",
                             text=text)
        return Ideal(s, generate_ideal(s, gens), name=t)
    if t in ("col-zero", "row-zero"):
        lo_side = (t == "col-zero")
        if s.kind == "interval":
            idx = [i for i, e in enumerate(s.elements)
                   if (e.lo if lo_side else e.hi) == d.zero]
        elif s.kind == "matrix":  # column 0 or row 0 of row-major entries
            idx = [i for i, m in enumerate(s.elements) if all(
                e.lo == d.zero == e.hi for e in
                (m.entries[::m.cols] if lo_side else m.entries[:m.cols]))]
        else:
            raise ParseError(
                f"{t} is defined for interval and matrix carriers, "
                f"not {s.kind}", text=text)
        return Ideal(s, idx, name=t)
    if t.startswith("diag-multiples:"):
        if s.kind != "interval":
            raise ParseError("diag-multiples needs an interval carrier",
                             text=text)
        k = d.parse_scalar(t[len("diag-multiples:"):])
        g = NaturalInterval(d, k, k, s.flavor)
        if g not in s.index:
            raise ParseError(f"[{k},{k}] is not in the carrier", text=text)
        return Ideal(s, generate_ideal(s, [s.index[g]]), name=t)
    raise ParseError(
        f"unknown ideal spec {text!r}", text=text,
        expected=["gen{...}", "col-zero", "row-zero", "diag-multiples:<k>"])


def _sum_of_sets(ta, a_idx, b_idx):
    """{x+y : x in A, y in B} as sorted indices, or None if it leaves the
    carrier.  For ideals of a ring with commutative addition this is the
    join A + B."""
    hit = np.zeros(len(ta) + 1, dtype=bool)
    hit[ta.take(a_idx, axis=0).take(b_idx, axis=1)] = True
    if hit[-1]:
        return None
    return np.flatnonzero(hit[:-1])


@_once
def _ideal_factors(s):
    """(lo factor, hi factor, coords) when s is a full product whose
    ideals are products of its factors' (module docstring): the factors
    are s._factors(), the one structure per part list that every reader
    of s shares, so the lo and hi factor are one when the part lists
    agree.  coords says where each element sits among the parts
    (structures._Coords), and coords.grid[a, b] is the element with parts
    (a, b).  None for any other carrier.  s's own tables are not built."""
    factors = s._factors()
    if factors is None or not all(map(_meets_ideal_lemma, factors)):
        return None
    return factors[0], factors[-1], s._coords()


def _factor_ideals(s, idx):
    """(P, Q), sorted part-index arrays, when the sorted index array idx
    is P x Q for ideals P of the lo factor and Q of the hi factor of a
    full product whose factors' additive inverses are unique (module
    docstring).  Such a product is an ideal.  None for any other subset,
    which is_ideal scans for its first witness."""
    factors = s._factors()
    if factors is None or not all(map(_unique_negatives, factors)):
        return None
    c = s._coords()
    p, q = np.unique(c.lo[idx]), np.unique(c.hi[idx])
    if (p.size * q.size != idx.size or not is_ideal(factors[0], p)[0]
            or not is_ideal(factors[-1], q)[0]):
        return None
    return p, q


@_once
def _unique_negatives(f):
    """Does every element of f have exactly one additive inverse?"""
    z = f.identity_index("add")
    return z is not None and bool(
        ((f.table("add") == z).sum(axis=1) == 1).all())


def _meets_ideal_lemma(f):
    """Does the factor f meet the premises of the factored-ideal lemma:
    both ops closed, associative addition, a multiplicative identity and
    an additive zero that absorbs mul?"""
    if not (f.closed("add")[0] and f.closed("mul")[0]):
        return False
    z = f.identity_index("add")
    if (z is None or f.absorbing_index("mul") != z
            or f.identity_index("mul") is None):
        return False
    try:
        return f.associative("add")[0]
    except TooLarge:
        return False


def _product(grid, lo_ideal, hi_ideal):
    """The carrier indices of lo_ideal x hi_ideal, sorted."""
    return np.sort(grid[np.ix_(lo_ideal, hi_ideal)], axis=None)


def enumerate_ideals(s):
    """All two-sided ideals, found as principal closures plus joins, or,
    on a full product with unity, as products of its factors' ideals.

    Requires commutative group addition (so that the sum of two ideals
    is again an ideal).  Deterministic: results sorted by (order,
    membership).
    """
    if not s.inverses("add")[0]:
        raise NotAnIdeal("ambient addition is not a group")
    if not s.commutative("add")[0]:
        raise NotAnIdeal("ambient addition is not commutative")
    split = _ideal_factors(s)
    if split is not None:
        f_lo, f_hi, c = split
        lows = enumerate_ideals(f_lo)
        highs = lows if f_hi is f_lo else enumerate_ideals(f_hi)
        if len(lows) * len(highs) > IDEAL_CAP:
            raise TooLarge(f"more than {IDEAL_CAP} ideals")
        found = [_product(c.grid, i.indices, j.indices)
                 for i in lows for j in highs]
        found.sort(key=lambda idx: (len(idx), idx.tolist()))
        return [Ideal(s, idx) for idx in found]
    ta = s.table("add")
    found = {}  # each ideal found, as a frozenset -> its sorted indices

    def note(idx):
        """Record the ideal with sorted indices idx; its key if new."""
        if idx is None:
            return None
        fs = frozenset(idx.tolist())
        if fs in found:
            return None
        found[fs] = idx
        if len(found) > IDEAL_CAP:
            raise TooLarge(f"more than {IDEAL_CAP} ideals")
        return fs

    for i in range(s.n):
        note(np.array(generate_ideal(s, [i]), dtype=np.int64))
    frontier = list(found)
    while frontier:
        fresh = []
        for fa, ia in list(found.items()):
            for fb in frontier:
                if fa != fb:
                    fs = note(_sum_of_sets(ta, ia, found[fb]))
                    if fs is not None:
                        fresh.append(fs)
        frontier = fresh
    ordered = sorted(found.values(), key=lambda idx: (len(idx), idx.tolist()))
    return [Ideal(s, idx) for idx in ordered]


def maximal_minimal_ideals(s):
    """Minimal nonzero and maximal proper ideals, with totals.  Both keep
    the order of enumerate_ideals: by order, then by members."""
    ideals = enumerate_ideals(s)
    z = s.identity_index("add")
    proper = [(i, frozenset(i.indices)) for i in ideals if i.order < s.n]
    nontrivial = [(i, f) for i, f in proper if i.indices != [z]]
    return {
        "total": len(ideals),
        "proper_nonzero": len(nontrivial),
        "minimal": [i for i, f in nontrivial
                    if not any(g < f for _, g in nontrivial)],
        "maximal": [i for i, f in proper if not any(f < g for _, g in proper)],
    }


def ideal_summary(ideal):
    out = {"name": ideal.name, "order": ideal.order}
    if ideal.order <= SUMMARY_MEMBERS:
        out["members"] = ideal.members()
    else:
        out["members_sample"] = ideal.ambient.labels(
            ideal.indices[:SUMMARY_MEMBERS])
    return out


# ----------------------------------------------------------------------


class QuotientStructure(FiniteStructure):
    """The classes of a carrier modulo an ideal, as a view of the carrier.

    Class c stands for the ambient element reps[c], and an ambient element
    x lies in class class_of[x]; the ideal's class is always 0.  The
    elements are the class labels, and the tables and verdicts are those
    of any view (structures): a class table is gathered off the ambient
    when first asked for, and a quotient of more classes than one band
    holds reads its facts off the ambient without one.  An op inherits
    the ambient's proven laws only when it is well defined on the classes
    (_congruent).  `_is_ideal` is set by rees_quotient and
    standard_quotient, which run is_ideal first; only then do the
    congruence lemma and the two Rees lemmas apply (module docstring).
    By the Rees lemmas, a Rees quotient that reads off its ambient has
    every additive inverse when class 0 is its additive identity and the
    ambient's addition is proven associative (inverses), and reads its
    first zero pair of mul for class 0 off the factors' tables when its
    ideal is P x Q on a full product (_zero_pair).
    """

    def __init__(self, ambient, ideal, kind):
        if kind not in ("standard", "rees"):
            raise ValueError(f"unknown quotient kind {kind!r}")
        self.ambient = ambient
        self.ideal = ideal
        self._is_ideal = False
        n = ambient.n
        if kind == "rees":
            outside = np.flatnonzero(~ideal.mask())
            self.reps = [ideal.indices[0]] + outside.tolist()
            self.class_of = np.zeros(n, dtype=np.int32)
            self.class_of[outside] = np.arange(1, outside.size + 1)
        else:
            cosets = ambient._block("add", np.arange(n), ideal.indices)
            if (cosets < 0).any():
                raise NotAnIdeal("addition leaves the carrier")
            rep = cosets.min(axis=1)
            uniq = np.unique(rep)
            if len(uniq) * ideal.order != n:
                raise NotAnIdeal(
                    "cosets do not partition the carrier evenly — the "
                    "subset is not an additive subgroup")
            zero_rep = int(rep[ambient.identity_index("add")])
            order = [zero_rep] + [int(r) for r in uniq if r != zero_rep]
            class_of_rep = np.empty(n, dtype=np.int32)
            class_of_rep[order] = np.arange(len(order))
            self.class_of = class_of_rep[rep]
            self.reps = order
        kept = ambient.labels(self.reps[1:])
        if kind == "standard":
            kept = [f"{rep}+{ideal.name}" for rep in kept]
        if ideal.name in kept:
            raise ParseError(
                f"ideal name {ideal.name!r} is also the label of a class the "
                f"quotient keeps; give the ideal another name=")
        super().__init__(
            [ideal.name] + kept, mul=self._on_labels("mul"),
            add=self._on_labels("add") if ambient.has_op("add") else None,
            name=f"{ambient.name}/{ideal.name}[{kind}]", kind=kind,
            view=(ambient, np.asarray(self.reps), self.class_of))

    def _on_labels(self, op):
        """op on class labels, read off the class table."""
        def fn(x, y):
            k = int(self.table(op)[self.index[x], self.index[y]])
            return self.elements[k] if k >= 0 else None

        return fn

    def _congruent(self, op):
        return self.well_defined(op)[0]

    def _rees_lemma(self, op):
        """Is this the Rees quotient by an ideal that passed is_ideal, the
        premise of both Rees lemmas (module docstring), and does it read
        op off its ambient (_reads_ambient)?  A smaller quotient builds
        its class table, and searching that costs less than the other
        premises."""
        return (self._is_ideal and self.kind == "rees"
                and self._reads_ambient(op))

    @_once
    def inverses(self, op):
        """FiniteStructure.inverses, but by the Rees coset lemma (module
        docstring) every class has an additive inverse, with no band
        read, when class 0 is the additive identity and the ambient's
        addition is proven associative."""
        if (op == "add" and self._rees_lemma(op)
                and self.identity_index("add") == 0
                and _proven(self.ambient, "associative", "add")):
            return True, None
        return super().inverses(op)

    def _zero_pair(self, op, z):
        """The first pair of classes other than z = 0 whose product is
        class 0, by the Rees product lemma (module docstring), when the
        ideal is P x Q on a full product (_factor_ideals); no band is
        read.  Else (False, None), and _first_zero_pair searches."""
        if not (op == "mul" and z == 0 and self._rees_lemma(op)):
            return False, None
        s = self.ambient
        split = _factor_ideals(s, np.asarray(self.ideal.indices))
        if split is None:
            return False, None
        p, q = split
        factors, c = s._factors(), s._coords()
        # row x of a factor's mask holds the parts y with x∘y in its ideal
        masks = []
        for f, part in ((factors[0], p), (factors[-1], q)):
            keep = np.zeros(f.n + 1, dtype=bool)
            keep[part] = True
            masks.append(keep[f.table("mul")])  # -1 reads the last slot
        lo_mask, hi_mask = masks
        # a∘b lies in I for the b in B1 x B2, of which (B1 ∩ P) x (B2 ∩ Q)
        # lie in I themselves; class order is ambient order outside I
        outside = ~self.ideal.mask()
        pairs = lo_mask.sum(axis=1)[c.lo] * hi_mask.sum(axis=1)[c.hi]
        inner = (lo_mask[:, p].sum(axis=1)[c.lo]
                 * hi_mask[:, q].sum(axis=1)[c.hi])
        first = _first_true(outside & (pairs > inner))
        if first is None:
            return True, None
        a = first[0]
        partners = c.grid[np.ix_(np.flatnonzero(lo_mask[c.lo[a]]),
                                 np.flatnonzero(hi_mask[c.hi[a]]))]
        b = partners[outside[partners]].min()
        return True, (int(self.class_of[a]), int(self.class_of[b]))

    @_once
    def well_defined(self, op):
        """Does the class of x∘y depend only on the classes of x and y?

        Decided by the congruence lemma where its premises hold (module
        docstring), otherwise by comparing products (_compare_products);
        returns (ok, witness).
        """
        if self._is_ideal:
            s = self.ambient
            if self.kind == "rees":
                lemma = op == "mul"
            else:
                lemma = (_proven(s, "associative", "add")
                         and _proven(s, "commutative", "add")
                         and (op == "add"
                              or _proven(s, "distributive", "add", "mul")))
            if lemma:
                return True, None
        return self._compare_products(op)

    def _compare_products(self, op):
        """Compares the true class of every ambient product against the
        representative-based class table, in the ambient's bands of rows
        (FiniteStructure._bands), so the scan stops at the band of the
        first mismatch.  Each band's prediction is the block of the class
        table for the classes of its rows and of every column, which a
        quotient above one band reads off the ambient (_block) and a
        smaller one off its built table.  So no table of the ambient's
        size is built for a product ambient, and no class table for a
        large quotient."""
        cls, s = self.class_of, self.ambient
        hit = _first_hit(
            (lo, actual != self._block(op, cls[lo:lo + len(actual)], cls))
            for lo, actual in s._bands(op, relabel=cls))
        if hit is None:
            return True, None
        x, y = hit
        got = int(_relabel(s._pairs(op, x, y), cls))
        want = int(self._pairs(op, cls[x], cls[y]))
        return False, {
            "x": s.label(x), "y": s.label(y),
            "class_of_result": self.label(got) if got >= 0 else None,
            "class_from_reps": self.label(want) if want >= 0 else None,
        }

    def diagnostics(self):
        out = {}
        for op in ("add", "mul"):
            if not self.has_op(op):
                continue
            ok, wit = self.well_defined(op)
            out[f"well_defined_{op}"] = ok
            if wit:
                out[f"well_defined_{op}_witness"] = wit
        if self.has_op("add"):
            try:
                assoc, wit = self.associative("add")
            except TooLarge:
                assoc, wit = None, None
                out["associative_add_note"] = "skipped: too many classes"
            out["associative_add"] = assoc
            if assoc is False:
                out["associative_add_witness"] = self.labels(wit)
        return out


def standard_quotient(s, ideal):
    return _ideal_quotient(s, ideal, "standard")


def rees_quotient(s, ideal):
    return _ideal_quotient(s, ideal, "rees")


def _ideal_quotient(s, ideal, kind):
    ok, info = is_ideal(s, ideal.indices)
    if not ok:
        raise NotAnIdeal(f"{ideal.name}: {info['reason']}")
    q = QuotientStructure(s, ideal, kind)
    q._is_ideal = True
    return q


def semifield_verdict(cls):
    """Commutative, unital, strict, zero-divisor-free — all computed."""
    out = {}
    comm, cw = cls.commutative("mul")
    out["commutative"] = comm
    if not comm:
        out["commutative_counterexample"] = cls.labels(cw)
    e = cls.identity_index("mul")
    out["identity"] = cls.label(e) if e is not None else None
    z = _zero_index(cls)
    if z is not None:
        hit = _first_zero_pair(cls, "mul", z)
        out["has_zero_divisors"] = hit is not None
        if hit is not None:
            out["zero_divisor_witness"] = cls.labels(hit)
    else:
        out["has_zero_divisors"] = None
    if cls.has_op("add"):
        strict, sw = is_strict_semiring(cls)
        out["strict_addition"] = strict
        if sw:
            out["strict_counterexample"] = list(sw)
    reasons = []
    if not out["commutative"]:
        reasons.append("multiplication is not commutative")
    if out["identity"] is None:
        reasons.append("no multiplicative identity")
    if out.get("has_zero_divisors"):
        reasons.append("zero divisors exist")
    if out.get("strict_addition") is False:
        reasons.append("addition is not strict")
    out["verdict"] = "semifield" if not reasons else "; ".join(reasons)
    return out


def quotient_analysis(q):
    """Full serializable report for a quotient."""
    out = {
        "schema": "natint/1",
        "kind": q.kind,
        "ambient": q.ambient.name,
        "ambient_order": q.ambient.n,
        "ideal": ideal_summary(q.ideal),
        "classes": q.n,
        "diagnostics": q.diagnostics(),
        "axioms": {"mul": axiom_report(q, "mul")},
    }
    if q.has_op("add"):
        out["axioms"]["add"] = axiom_report(q, "add")
        out["characteristic"] = q.characteristic()
    out["semifield"] = semifield_verdict(q)
    if q.n <= CLASS_REPORT_CAP:
        specials = find_special_elements(q, with_orders=True)
        out["elements"] = specials
        out["power_return"] = [
            {"class": ent["x"], "k": ent["return_exponent"]}
            for ent in specials.get("element_orders", [])]
    else:
        out["elements_note"] = (
            f"per-class element report skipped above {CLASS_REPORT_CAP} "
            "classes")
    return out
