"""Finite algebraic structures and exhaustive axiom analysis.

A FiniteStructure is an ordered carrier of hashable elements together
with one or two binary operations (mul, and optionally add).  Cayley
tables are integer index tables built lazily; an entry of -1 marks a
product that falls outside the carrier (non-closure).  All axiom checks
are exhaustive and vectorized over the tables, and every negative
verdict carries the first counterexample in carrier order.  The cubic
scans walk blocks of rows in order and stop at the first block with a
hit, so that hit is the first counterexample.  The first block is one
row and each next one doubles, up to about _BLOCK_ENTRIES triples, so a
witness in row r costs O(r n^2) work and memory stays bounded.  A
verdict is computed once per structure, because its tables never change
once built.

Element facts are read from one remembered orbit per element and op
(FiniteStructure.orbit): the powers x, x∘x, (x∘x)∘x, ... up to the first
repeat or the first power outside the carrier.  A nilpotency index, an
identity order, a return exponent and an additive span are each a
position in, or the end of, that walk.  The idempotents and the maximal
subgroups are likewise found once per structure.

The S-ring search (is_s_ring) tries the additive spans of e * g, for an
idempotent e and an element g, and nothing else.  That is exhaustive
over the subfields holding the additive zero, by the prime-field lemma:
the prime field of such a subfield F is the span of its identity 1_F,
an idempotent with 1_F * 1_F = 1_F, so the search reaches it
(_s_ring_spans).

Units are one remembered map too (FiniteStructure.units): each element's
first two-sided inverse for the identity of mul, or -1 (_inverse_map).
The unit list, the field verdict and the maximal subgroups read it, or
_inverse_of on a corner of the table.  Zero divisors and
S-zero-divisors read one mask of the products of two nonzero elements
that give zero (_zero_products), built fresh for each reader and never
remembered: it is n x n bools, 7.6 MB on a 2757-class quotient.  The
first such pair, which the strict and semifield checks ask for, is read
band by band and stops at the first band with one (_first_zero_pair).
The unit map, the negation map (neg_index, the same search for the
identity of add) and inverses(op) share one search (_inverse_bands): each
element's first right inverse, kept when it is two-sided, since every
two-sided inverse is a right inverse, and searched on only where it is
not.  inverses(op) stops at the band of the first element without an
inverse; one that reads every band keeps the map, so the search runs
once per structure and op.

A full product carrier (N(D) is D x D, and so are N(D)\\0, the matrices,
the polynomials and the fuzzy grids) reads each fact off its factors,
the structures on its lo and hi part tables, where that is exact: its
pairs and triples are exactly the pairs of the factors' (_by_factors).

- It is closed, associative, distributive, and has inverses for its
  identity, exactly when both factors do; it is commutative when both
  factors are (an unclosed factor may fail where the product passes).
- Its identity and its absorbing element are the pairs of the factors',
  and it has none when a factor has none.
- Its idempotents are the pairs (e, f) of the factors' idempotents, and
  the maximal subgroup at (e, f) is H_e x H_f: (x, y) has an inverse in
  the corner of (e, f) exactly when x has one in the corner of e and y
  in the corner of f (maximal_subgroups).
- When its lo and hi parts are one factor D whose addition is a group
  (N(D) is D x D), it has a proper subfield exactly when the span of
  e * g, for an idempotent e and an element g of D, is a field in D;
  is_s_ring runs its search on D and maps the spans onto the diagonal
  [p, p].  A subfield of D x D projects injectively into one factor,
  since a projection keeps + and * and a field has no ideal but 0 and
  itself, and the prime field of its image is the span of an
  idempotent of D (_s_ring_spans).

Such a verdict is exhaustive over the factors.  When a factor fails,
the carrier's own table is scanned, which yields the first
counterexample in carrier order.  The factors need only the part
tables, which are built before, and without, the carrier's n x n table.
Over a finite domain (Zn, ZnI, Zn+I) a part is a row of scalar codes,
and a part table is composed on the domain's add and mul code tables,
in bands of rows of parts (_coded_part_table): entrywise, row by column
for a matrix and mod the cycle for a polynomial.  Only a carrier over
another domain (the fuzzy grids, subsets of N(Z) and N(Q)) evaluates
its op once per pair of parts (_part_table).

Every block of a table (a quotient's class tables and the rows it
compares, a subset's table, a product carrier's n x n table) is read by
one reader, in bands of rows that stay in cache (_bands).  A product
carrier whose table is not built gathers the block from its part
tables: each part's row of results is gathered once over the block's
columns, then one part code and one lookup per entry (_factored_bands).

A subset and a quotient are both views of an ambient structure
(FiniteStructure's `view`): element i stands for the ambient element
reps[i], and entry (i, j) is the element class_of[reps[i] ∘ reps[j]].
A subset's reps are its carrier indices and its class_of their
relabeling, -1 for a product off the subset (restrict).  A quotient is
itself such a view (quotients.QuotientStructure, a FiniteStructure):
its reps are one representative per class, its class_of the class map
and its elements the class labels.
A view's table is gathered only when a fact needs all of it.  Until
then a view whose table would not fit in one band reads what it needs
off the ambient (_reads_ambient); a smaller one builds its table, which
costs about one band.  Its identity and absorbing searches read the
diagonal, the first row and column, and the row and column of each
candidate.  Its characteristic walks one column.  Its unit map and
inverses verdict are searched in the ambient's bands (_inverse_bands),
one band buffer at a time, and so are its first zero pairs
(_first_zero_pair) and a quotient's well-definedness (quotients).  Its
closure needs no read at all when every ambient element has a class
and the ambient is proven closed (closed).  So the 2757-class Rees
quotient of N(Z53) gets every verdict of its report without its two
30 MB class tables.  Its additive inverses and its first zero pair of
mul are read off its ideal, with no band of the ambient
(quotients.QuotientStructure).

A view inherits these laws, and commutativity, from its ambient.  A
subset closed under an operation is associative (distributive) when
its ambient is, and so is a quotient by a congruence, an equivalence
that the operations respect, because the class map is then a
homomorphism onto it.  A view's entries are read off the ambient's
entries for its representatives, so its table is commutative when the
ambient's is, congruence or not (_known).  A law counts as proven on
the ambient only when the ambient's memo already holds a passing
verdict or its factors pass (_proven); the ambient itself is never
scanned for it.  A passing inherited verdict is (True, None), as a
scan's would be.  When the ambient fails, or is not known to pass, the
view's own table is scanned for the first counterexample.  The closure
check and the cubic-scan cap run first, so a refusal stays a refusal.
"""

import functools

import numpy as np

from .errors import MissingTable, NotIntervalCarrier, TooLarge
from .intervals import NaturalInterval
from .scalars import ModDomain

# Hard cap for building a table one element pair at a time in Python.
PY_TABLE_CAP = 2048
# Largest carrier any table is built for: its int32 table takes 400 MB,
# and a factored build peaks at about twice that.
TABLE_CAP = 10 ** 4
# Above this carrier size the n^3 scans (associativity, distributivity)
# are refused rather than silently taking minutes.
CUBIC_SCAN_CAP = 700
# Most triples scanned per block in the n^3 checks, whose blocks of rows
# of the outer index grow from one row up to this size.
_BLOCK_ENTRIES = 1 << 22
# Largest carrier whose analysis lists the orders of every element.
ORDERS_CAP = 512
# Entries per band when a block of a table is read (FiniteStructure._bands);
# a band of part codes stays in cache between their sum and their lookup.
_BAND_ENTRIES = 1 << 16
# Largest packed code of a part (_coded_part_table).
_INT64_MAX = np.iinfo(np.int64).max


def _once(method):
    """Remember a fact on its structure, keyed by method and arguments.

    It also takes a module function whose first argument is the
    structure.  The memo is a per-instance dict, so it dies with its
    structure.
    """
    @functools.wraps(method)
    def wrapper(self, *args):
        key = (method.__name__,) + args
        if key not in self._memo:
            self._memo[key] = method(self, *args)
        return self._memo[key]
    return wrapper


class FiniteStructure:
    """Ordered carrier with lazy Cayley tables.

    mul/add are element-level callables; they may produce values outside
    the carrier (recorded as -1 in the tables).  `diag`, when given, marks
    a product carrier: every element decomposes into a lo and a hi part
    that mul and add act on independently, and diag(p) is the element
    with both parts p.  Such a carrier computes its part tables first
    (_parts): on its domain's code tables when `lower` (a
    carriers.Lowering) gives its ops on coded parts and the domain has
    code tables, else one evaluation per pair of parts.  They decide its
    associativity and distributivity, and its ideals and quotients
    (quotients), and every block of its table, its n x n table too, is
    gathered from them (_bands).  `tables` seeds the cache directly.
    `view`, when given, is (ambient, reps, class_of): this structure is a
    subset (restrict) or a quotient (quotients.QuotientStructure) of the
    structure ambient, and inherits its proven laws (_known).  Element i
    stands for the ambient element reps[i], and an ambient product p is
    element class_of[p] (-1 for none).  A view's tables are read off the
    ambient's (_block) when first asked for.  Until then a view larger
    than one band reads its blocks and entries off the ambient's without
    building them (_reads_ambient): its identity and absorbing element,
    characteristic, units and inverses, first zero pairs and, for a
    quotient, the rows that well_defined compares.  Its closure is proven
    on the ambient when every ambient element has a class (closed).
    """

    def __init__(self, elements, mul=None, add=None, *, name="",
                 kind="generic", domain=None, flavor=None,
                 parse_element=None, diag=None, lower=None, tables=None,
                 view=None):
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("carrier contains duplicate elements")
        self.mul_fn = mul
        self.add_fn = add
        self.name = name
        self.kind = kind
        self.domain = domain
        self.flavor = flavor
        self.parse_element = parse_element
        self.diag = diag
        self.lower = lower
        self.view = view
        self._tables = dict(tables) if tables else {}
        self._memo = {}

    @property
    def n(self):
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"<structure {self.name or self.kind}: {self.n} elements>"

    def _labels(self):
        """str of every element, formatted once per structure."""
        labels = self._memo.get("labels")
        if labels is None:
            labels = self._memo["labels"] = list(map(str, self.elements))
        return labels

    def label(self, i):
        return self._labels()[i]

    def labels(self, indices):
        labels = self._labels()
        return [labels[i] for i in indices]

    def op_fn(self, op):
        fn = self.mul_fn if op == "mul" else self.add_fn
        if fn is None:
            raise MissingTable(f"structure {self.name!r} has no {op} operation")
        return fn

    def has_op(self, op):
        return (self.mul_fn if op == "mul" else self.add_fn) is not None

    def apply(self, op, x, y):
        """Raw operation on elements; the result may leave the carrier."""
        return self.op_fn(op)(x, y)

    def table(self, op):
        t = self._tables.get(op)
        if t is not None:
            return t
        self.op_fn(op)  # raise MissingTable early
        gathered = self.diag is not None or self.view is not None
        _refuse_table(self.n, op, TABLE_CAP if gathered else PY_TABLE_CAP)
        if self.view is not None:
            ambient, reps, class_of = self.view
            t = ambient._block(op, reps, reps, class_of)
        elif self.diag is not None:
            every = np.arange(self.n)
            t = self._block(op, every, every)
        else:
            t = self._build_table(op)
        self._tables[op] = t
        return t

    @_once
    def _coords(self):
        """Where the elements of a product carrier (diag given) sit among
        its parts (_Coords)."""
        return _Coords(self.elements)

    @_once
    def _parts(self, op):
        """The part tables of op on a product carrier: (lo, hi), or (lo,)
        when the two part lists agree.  In a part table, the part count
        marks a result outside the parts.  A carrier whose parts have
        codes (_part_codes) composes them on its domain's code tables
        (_coded_part_table); any other evaluates op once per pair of
        parts (_part_table).  Refused above TABLE_CAP elements, as the
        carrier's own table is."""
        fn = self.op_fn(op)
        _refuse_table(self.n, op, TABLE_CAP)
        coded = self._part_codes()
        if coded is None:
            return tuple(_part_table(parts, fn, self.diag)
                         for parts in _part_lists(self._coords()))
        tables, codes = coded
        compose = functools.partial(self.lower.ops[op], tables)
        return tuple(_coded_part_table(k, compose, self.domain.size)
                     for k in codes)

    @_once
    def _part_codes(self):
        """(tables, codes) when the carrier lowers its ops (`lower`, a
        carriers.Lowering) onto the code tables of its domain: tables
        are the domain's code tables and the code of its zero, and codes
        holds, for each part list of _parts, one row of lower.width
        scalar codes per part.  None without a lowering, without code
        tables, and when a part's codes, packed base |D|, would not fit
        in an int64."""
        lower, domain = self.lower, self.domain
        tables = None if lower is None else domain.code_tables()
        if tables is None or domain.size ** lower.width > _INT64_MAX:
            return None
        code = {x: i for i, x in enumerate(domain.elements())}
        tables["zero"] = code[domain.zero]
        return tables, [np.array([[code[x] for x in lower.entries(p)]
                                  for p in parts], dtype=np.intp)
                        for parts in _part_lists(self._coords())]

    @_once
    def _factors(self, *ops):
        """The factors of a full product carrier, one whose every pair of a
        lo and a hi part is an element: structures on part indices holding
        the part tables of ops, one per distinct part list (lo and hi, or
        one when they agree), with -1 for a part result outside the
        parts.  None for any other carrier, and for one whose part tables
        are refused.  No table of the carrier itself is built."""
        if self.diag is None or self.n > TABLE_CAP:
            return None
        parts = [self._parts(op) for op in ops]
        if self._coords().grid is None:
            return None
        return [FiniteStructure(range(len(side[0])), tables={
                    op: np.where(t < len(t), t, -1).astype(np.int32)
                    for op, t in zip(ops, side)})
                for side in zip(*parts)]

    def _block(self, op, rows, cols, relabel=None):
        """The entries rows x cols of op's table, as _bands reads them,
        in one int32 array."""
        out = np.empty((len(rows), len(cols)), dtype=np.int32)
        for _ in self._bands(op, rows, cols, relabel, out):
            pass
        return out

    def _reads_ambient(self, op):
        """Are op's entries read off the ambient's?  A view's are while its
        table is not built, unless the table would fit in one band of
        _BAND_ENTRIES entries: building it then costs about one band, less
        than the reads it saves."""
        return (self.view is not None and op not in self._tables
                and self.n * self.n > _BAND_ENTRIES)

    def _bands(self, op, rows=None, cols=None, relabel=None, out=None):
        """(start, band) for each band of rows of the block rows x cols of
        op's table (all rows, all columns when None), in order, each
        product p read as relabel[p] (as p when relabel is None), and -1
        (a product outside the carrier) as -1.  A band holds about
        _BAND_ENTRIES entries and is written into out[start:] when out is
        given; else it may be the next band's buffer or a slice of the
        table, so a reader neither keeps nor writes it.  A view that reads
        off its ambient (_reads_ambient) reads the block off the
        ambient's, and a product carrier whose table is not built off its
        part tables (_factored_bands), so no n x n table is built for
        either; any other structure reads its table (_table_bands)."""
        if self._reads_ambient(op):
            ambient, reps, class_of = self.view
            if relabel is not None:
                class_of = _relabel(class_of, relabel)
            return ambient._bands(
                op, reps if rows is None else reps[rows],
                reps if cols is None else reps[cols], class_of, out)
        if op not in self._tables and self.diag is not None:
            return _factored_bands(self._parts(op), self._coords(), rows,
                                   cols, relabel, out)
        return _table_bands(self.table(op), rows, cols, relabel, out)

    def _pairs(self, op, rows, cols):
        """The entries (rows[k], cols[k]) of op's table, for indices or
        index arrays that broadcast together.  When the table is not
        built, a view reads them off its ambient's entries
        (_reads_ambient), and a product carrier looks up the code of each
        pair of part results in `where`, as _factored_bands does for a
        block."""
        t = self._tables.get(op)
        if self._reads_ambient(op):
            ambient, reps, class_of = self.view
            return _relabel(ambient._pairs(op, reps[rows], reps[cols]),
                            class_of)
        if t is None and self.diag is not None:
            c, parts = self._coords(), self._parts(op)
            code = parts[0][c.lo[rows], c.lo[cols]] * (len(parts[-1]) + 1)
            code += parts[-1][c.hi[rows], c.hi[cols]]
            return c.where[code]
        return self.table(op)[rows, cols]

    def _by_factors(self, law, *ops):
        """Does law (closed, commutative, associative, inverses or
        distributive) hold for ops on both factors of a full product
        (_factors), and so here?  No table of this structure is built; a
        factor too large to scan proves nothing."""
        factors = self._factors(*ops)
        args = () if law == "distributive" else ops
        try:
            return factors is not None and all(
                getattr(f, law)(*args)[0] is True for f in factors)
        except TooLarge:
            return False

    def _pair(self, fact, op):
        """The element whose parts are fact(op) of the lo and of the hi
        factor of a full product, or None when a factor has none."""
        factors = self._factors(op)
        lo, hi = (getattr(f, fact)(op) for f in (factors[0], factors[-1]))
        return None if lo is None or hi is None else int(
            self._coords().grid[lo, hi])

    def _known(self, law, *ops):
        """Does law hold on the factors (_by_factors), or on the ambient of
        a view?  Only proven ambient verdicts count.  Commutativity holds
        on any view of a commutative ambient, as its entries are read off
        the ambient's for its representatives; any other law only for ops
        well defined here (_congruent)."""
        return self._by_factors(law, *ops) or (
            self.view is not None and _proven(self.view[0], law, *ops)
            and (law == "commutative"
                 or all(self._congruent(op) for op in ops)))

    def _congruent(self, op):
        """Is op well defined on the elements of this view?  Yes, unless
        the view is a quotient (QuotientStructure), whose classes may
        split a product: it asks well_defined."""
        return True

    def _zero_pair(self, op, z):
        """(True, pair) when a lemma gives _first_zero_pair's answer
        without reading a band, else (False, None).  Only a Rees quotient
        has such a lemma (quotients.QuotientStructure)."""
        return False, None

    def restrict(self, indices):
        """The substructure on the given carrier indices, in that order: a
        view of this structure whose class_of relabels them, so a product
        that leaves the subset is -1.  No table is read until a fact needs
        one, and it inherits this structure's proven laws."""
        rows = np.asarray(indices, dtype=np.intp)
        relabel = np.full(self.n, -1, dtype=np.int32)
        relabel[rows] = np.arange(len(rows))
        return FiniteStructure(
            [self.elements[i] for i in rows], mul=self.mul_fn,
            add=self.add_fn, kind=self.kind, domain=self.domain,
            flavor=self.flavor, view=(self, rows, relabel))

    def _build_table(self, op):
        f = self.op_fn(op)
        idx = self.index
        n = self.n
        t = np.empty((n, n), dtype=np.int32)
        for i, x in enumerate(self.elements):
            row = t[i]
            for j, y in enumerate(self.elements):
                row[j] = idx.get(f(x, y), -1)
        return t

    # ------------------------------------------------------------------
    # axiom checks (exhaustive, first counterexample in carrier order)

    @_once
    def closed(self, op):
        """Is every product an element?  A full product is closed when its
        factors are (_by_factors).  A view whose class_of gives every
        ambient element a class is closed when its ambient is proven
        closed (_proven), since an entry is -1 only where the ambient's
        product is, and no table is read.  Else the table is scanned, as
        it is for a subset, whose class_of has -1."""
        if self._by_factors("closed", op) or (
                self.view is not None and (self.view[2] >= 0).all()
                and _proven(self.view[0], "closed", op)):
            return True, None
        wit = _first_true(self.table(op) < 0)
        return wit is None, wit

    @_once
    def commutative(self, op):
        """x∘y = y∘x.  A view passes when its ambient is proven to, whether
        or not op is a congruence, and a product when its factors do
        (_known).  Else each band of rows (_bands) is compared with the
        matching block of columns, and the first mismatch in C order is
        the witness."""
        if self._known("commutative", op):
            return True, None
        every = np.arange(self.n)
        for lo, band in self._bands(op):
            cols = self._block(op, every, every[lo:lo + len(band)])
            hit = _first_true(band != cols.T)
            if hit is not None:
                return False, (lo + hit[0], hit[1])
        return True, None

    @_once
    def associative(self, op):
        """(x∘y)∘z = x∘(y∘z) over all triples; requires a closed op.  A
        substructure passes when its ambient is proven to, and a full
        product carrier when its factors do; otherwise the carrier's
        triples are scanned for the first witness."""
        ok, wit = self.closed(op)
        if not ok:
            return None, wit
        _refuse_cubic_scan(self.n, "associativity")
        if self._known("associative", op):
            return True, None
        wit = _assoc_witness(self.table(op))
        return (wit is None), wit

    @_once
    def identity_index(self, op):
        """The identity of op, or None (_two_sided)."""
        return self._two_sided(op, absorbing=False)

    @_once
    def absorbing_index(self, op):
        """The absorbing element of op, or None (_two_sided)."""
        return self._two_sided(op, absorbing=True)

    def _two_sided(self, op, absorbing):
        """The first element e with e∘x = x∘e = x for every x (the
        identity), or = e (the absorbing element), or None; a full
        product's is the pair of its factors'.  e∘e = e and the entries
        of e with element 0 leave few candidates, and each is checked
        against its row and its column, all read as pairs (_pairs), so a
        view that reads off its ambient builds no table."""
        if self._factors(op):
            return self._pair(
                "absorbing_index" if absorbing else "identity_index", op)
        n = self.n
        if not n:
            return None
        ar = np.arange(n)
        diag, col0, row0 = (self._pairs(op, ar, ar), self._pairs(op, ar, 0),
                            self._pairs(op, 0, ar))
        edge = ar if absorbing else 0
        cand = np.flatnonzero((diag == ar) & (col0 == edge) & (row0 == edge))
        row = self._pairs(op, cand[:, None], ar)
        col = self._pairs(op, ar, cand[:, None])
        want = cand[:, None] if absorbing else ar
        ok = ((row == want) & (col == want)).all(axis=1)
        return int(cand[ok][0]) if ok.any() else None

    @_once
    def inverses(self, op):
        """Does every element have a two-sided inverse for the identity?
        The search stops at the band of the first element without one
        (_inverse_bands).  One that reads every band keeps the map it
        built, which neg_index and units then return (_inverse_map)."""
        e = self.identity_index(op)
        if e is None:
            return None, None
        if self._by_factors("inverses", op):
            return True, None
        inv = np.empty(self.n, dtype=np.intp)
        for lo, band in _inverse_bands(self, op, e):
            if (band < 0).any():
                return False, lo + int(np.argmin(band))
            inv[lo:lo + len(band)] = band
        self._memo["inverse_map", op] = inv
        return True, None

    @_once
    def distributive(self):
        """x(y+z) = xy+xz and (y+z)x = yx+zx over all triples.  A
        substructure passes when its ambient is proven to, and a full
        product carrier when its factors do; otherwise the carrier's
        triples are scanned for the first witness."""
        for op in ("add", "mul"):
            ok, wit = self.closed(op)
            if not ok:
                return None, None
        _refuse_cubic_scan(self.n, "distributivity")
        if self._known("distributive", "add", "mul"):
            return True, None
        m = self.table("mul")
        a = self.table("add")
        left = _left_distrib_witness(m, a)
        if left is not None:
            return False, ("left",) + left
        right = _left_distrib_witness(m.T, a)
        if right is not None:
            x, y, z = right
            return False, ("right", y, z, x)
        return True, None

    # ------------------------------------------------------------------

    @_once
    def neg_index(self):
        """Map i -> i's first two-sided additive inverse (read-only), or
        None when an element has none: the search units() runs
        (_inverse_map).  The addition of every carrier (N(D), matrices,
        polynomials, their subsets and quotients) is commutative, so this
        is each element's first right inverse too."""
        z = self.identity_index("add")
        if z is None:
            return None
        neg = _inverse_map(self, "add", z)
        if (neg < 0).any():
            return None
        neg.flags.writeable = False
        return neg

    @_once
    def orbit(self, op, i):
        """The powers of element i under op, i, i∘i, (i∘i)∘i, ..., up to
        the first repeat, and how the walk ended: the power that repeats,
        or -1 when a power left the carrier.  So i^k is powers[k-1], and
        an end other than -1 is i^(len(powers)+1)."""
        t = self.table(op)
        powers, seen = [i], {i}
        p = int(t[i, i])
        while p >= 0 and p not in seen:
            powers.append(p)
            seen.add(p)
            p = int(t[p, i])
        return tuple(powers), p

    @_once
    def units(self):
        """Map i -> i's first two-sided inverse under mul, or -1 for a
        non-unit (_inverse_of); read-only.  None when mul has no identity."""
        one = self.identity_index("mul")
        if one is None:
            return None
        inv = _inverse_map(self, "mul", one)
        inv.flags.writeable = False
        return inv

    @_once
    def idempotents(self):
        """Indices of the elements with e∘e = e under mul, in carrier
        order."""
        t = self.table("mul")
        return tuple(np.flatnonzero(np.diagonal(t) == np.arange(self.n))
                     .tolist())

    @_once
    def characteristic(self):
        """Least k >= 1 with k-fold sum of the identity zero; 0 if none.
        The walk reads one column of the add table (_pairs)."""
        one = self.identity_index("mul")
        zero = self.identity_index("add")
        if one is None or zero is None:
            return None
        plus_one = self._pairs("add", np.arange(self.n),
                               np.full(self.n, one))
        acc = one
        for k in range(1, self.n + 1):
            if acc == zero:
                return k
            acc = int(plus_one[acc])
        return 0


def _proven(s, law, *ops):
    """Is law ("closed", "associative", "commutative" or "distributive")
    known to hold on s for ops, without a scan of s?  True only when s's
    memo holds a passing verdict, or when s is a full product whose
    factors pass (m^3 work on m-element factors).  s itself is never
    scanned."""
    done = s._memo.get((law,) + (() if law == "distributive" else ops))
    if done is not None:
        return done[0] is True
    return s._by_factors(law, *ops)


@_once
def _unique_negatives(f):
    """Does every element of f have exactly one additive inverse?"""
    z = f.identity_index("add")
    return z is not None and bool(
        ((f.table("add") == z).sum(axis=1) == 1).all())


class _Coords:
    """Where the elements of a product carrier sit among its parts.

    Each element decomposes into a lo and a hi part that its operations
    never mix (N(D) is D x D, and so are its matrices and polynomials).
    lo_parts and hi_parts number the distinct parts in order of first
    appearance (hi_parts is lo_parts when the two lists agree); lo[i] and
    hi[i] are the part indices of element i.  A pair of parts (a, b) is
    coded a * (m_hi + 1) + b, so the part count m marks a part result
    outside the parts; where[code] is the element with those parts, or
    -1.  grid[a, b] is the element with parts (a, b) when every pair is
    an element (a full product), else None.  The codes are int32, which
    holds for carriers of up to TABLE_CAP elements.
    """

    __slots__ = ("lo_parts", "hi_parts", "lo", "hi", "where", "grid")

    def __init__(self, elements):
        lo_parts, hi_parts = {}, {}
        lo, hi = [], []
        for e in elements:
            lo_part, hi_part = e.decompose()
            lo.append(lo_parts.setdefault(_hashable(lo_part), len(lo_parts)))
            hi.append(hi_parts.setdefault(_hashable(hi_part), len(hi_parts)))
        if list(hi_parts) == list(lo_parts):
            hi_parts = lo_parts
        self.lo_parts, self.hi_parts = lo_parts, hi_parts
        n, m_lo, m_hi = len(lo), len(lo_parts), len(hi_parts)
        self.lo = np.array(lo, dtype=np.intp)
        self.hi = np.array(hi, dtype=np.intp)
        where = np.full((m_lo + 1, m_hi + 1), -1, dtype=np.int32)
        where[self.lo, self.hi] = np.arange(n, dtype=np.int32)
        self.where = where.ravel()
        self.grid = where[:m_lo, :m_hi] if n == m_lo * m_hi else None


def _part_lists(coords):
    """The distinct part lists of _Coords coords, as _parts lists their
    tables: (lo_parts, hi_parts), or (lo_parts,) when the two agree."""
    if coords.hi_parts is coords.lo_parts:
        return (coords.lo_parts,)
    return coords.lo_parts, coords.hi_parts


def _factored_bands(parts, coords, rows=None, cols=None, relabel=None,
                    out=None):
    """FiniteStructure._bands of a product carrier, gathered from the part
    tables of one op (FiniteStructure._parts); coords is the carrier's
    _Coords.  An entry is -1 where a part result is no part of the
    carrier, or where the op returned None (a fuzzy sum leaving [0, 1]).
    Without out, each band overwrites one buffer.

    Rows that share a part share that part's row of results, so each lo
    part's row is gathered once over cols, pre-scaled to its share of
    the code, and so is each hi part's.  A band's codes are its rows of
    the two gathers summed, looked up in `where` relabeled straight into
    it."""
    lo, hi = coords.lo, coords.hi
    lo_of, hi_of = (lo, hi) if rows is None else (lo[rows], hi[rows])
    lo_cols, hi_cols = (lo, hi) if cols is None else (lo[cols], hi[cols])
    lo_rows = parts[0].take(lo_cols, axis=1)
    lo_rows *= len(parts[-1]) + 1
    hi_rows = parts[-1].take(hi_cols, axis=1)
    where = coords.where
    if relabel is not None:
        where = _relabel(where, relabel)
    band = max(1, _BAND_ENTRIES // max(1, len(lo_cols)))
    buf = None if out is not None else np.empty(
        (min(band, len(lo_of)), len(lo_cols)), dtype=np.int32)
    for start in range(0, len(lo_of), band):
        stop = start + band
        codes = lo_rows.take(lo_of[start:stop], axis=0)
        codes += hi_rows.take(hi_of[start:stop], axis=0)
        dest = out[start:stop] if buf is None else buf[:len(codes)]
        where.take(codes, out=dest)
        yield start, dest


def _table_bands(t, rows=None, cols=None, relabel=None, out=None):
    """FiniteStructure._bands of a built table t.  Without rows a band is
    a slice of t and without cols no column is taken, so reading all of t
    copies nothing unless it is relabeled or written into out."""
    band = max(1, _BAND_ENTRIES // max(1, len(t if cols is None else cols)))
    for start in range(0, len(t if rows is None else rows), band):
        stop = start + band
        block = t[start:stop] if rows is None else t.take(rows[start:stop],
                                                           axis=0)
        if cols is not None:
            block = block.take(cols, axis=1)
        dest = None if out is None else out[start:stop]
        if relabel is not None:
            block = _relabel(block, relabel, dest)
        elif dest is not None:
            dest[...] = block
        yield start, block


def _part_table(parts, fn, diag):
    """fn on the diagonal elements of parts, as part indices; a result
    that is no part, or None, is len(parts), whose codes index -1.  One
    evaluation per pair of parts: it serves the carriers whose parts
    have no codes (FiniteStructure._part_codes), and it is the twin that
    _coded_part_table is tested against."""
    m = len(parts)
    table = np.full((m, m), m, dtype=np.int32)
    diags = [diag(p) for p in parts]
    for i, x in enumerate(diags):
        row = table[i]
        for j, y in enumerate(diags):
            r = fn(x, y)
            if r is not None:
                row[j] = parts.get(_hashable(r.decompose()[0]), m)
    return table


def _coded_part_table(codes, compose, radix):
    """_part_table from the parts' scalar codes (one row of k codes per
    part, FiniteStructure._part_codes) and compose(a, b), the k codes of
    the op on each pair of a row of a and a row of b.  Each result's
    codes are packed base radix into one int64 and found among the
    parts' packed codes by a binary search; one that is no part is the
    part count, as in _part_table.  Rows are composed in bands of about
    _BAND_ENTRIES pairs, so about _BAND_ENTRIES * k codes are held at
    once besides the m x m table."""
    m, k = codes.shape
    weights = radix ** np.arange(k - 1, -1, -1, dtype=np.int64)
    keys = codes @ weights
    order = np.argsort(keys)
    # a search past the last part reads the sentinels: no key, part m
    ordered = np.append(keys[order], -1)
    order = np.append(order, m).astype(np.int32)
    table = np.empty((m, m), dtype=np.int32)
    band = max(1, _BAND_ENTRIES // m)
    for start in range(0, m, band):
        packed = compose(codes[start:start + band], codes) @ weights
        at = np.searchsorted(ordered[:-1], packed)
        found = order.take(at)
        found[ordered.take(at) != packed] = m
        table[start:start + band] = found
    return table


def _hashable(part):
    """A part as a dict key: matrix parts are nested lists."""
    return tuple(map(_hashable, part)) if isinstance(part, list) else part


def _relabel(table, relabel, out=None):
    """Each product p in table replaced by relabel[p], written into out
    when given; -1 (a product outside the carrier) stays -1, read from
    the slot appended for it."""
    return np.append(relabel, -1).astype(np.int32, copy=False).take(
        table, out=out)


def _inverse_of(t, e):
    """_inverse_map on a caller's table t, such as a corner of a larger
    one whose entries are compared with e as they stand."""
    return _inverse_map(FiniteStructure(range(len(t)), tables={"mul": t}),
                        "mul", e)


def _inverse_map(s, op, e):
    """Entry i: the first j in carrier order with i∘j == j∘i == e under
    op, or -1 when there is none (_inverse_bands).  The map that
    s.inverses(op) kept, when its search read every band, is returned
    without a second search: every caller passes op's identity as e,
    save _inverse_of, whose structure is new."""
    inv = s._memo.get(("inverse_map", op))
    if inv is not None:
        return inv
    inv = np.empty(s.n, dtype=np.intp)
    for lo, band in _inverse_bands(s, op, e):
        inv[lo:lo + len(band)] = band
    return inv


def _inverse_bands(s, op, e):
    """(lo, inv) for each band of rows of op's table from lo, in order
    (FiniteStructure._bands): inv[k] is the first two-sided inverse of
    row lo + k for the identity e, or -1.  Each row's first right inverse
    (i∘j == e) is taken first.  Every two-sided inverse is a right
    inverse, so where that one is two-sided it is the first, and a row
    without one has none; only the rows whose first right inverse is
    one-sided are searched on, against their columns.  A view that reads
    off its ambient (_reads_ambient) is searched without building its
    table."""
    for lo, band in s._bands(op):
        right = band == e
        inv = right.argmax(axis=1)
        rows = np.arange(lo, lo + len(inv))
        found = right[rows - lo, inv]
        one_sided = found & (s._pairs(op, inv, rows) != e)
        inv[~found] = -1
        if one_sided.any():
            on = np.flatnonzero(one_sided)
            cols = s._block(op, np.arange(s.n), rows[on])
            both = right[on] & (cols == e).T
            inv[on] = np.where(both.any(axis=1), both.argmax(axis=1), -1)
        yield lo, inv


def _zero_products(t, z):
    """A fresh mask of the products i∘j == z with i != z and j != z; never
    remembered, as an n x n mask must not outlive its caller.  Only the
    readers of the whole mask build it: find_special_elements, with
    _s_zero_divisors, and the zero-pair count of book claim ex-3.34.  A
    first zero pair is read in bands (_first_zero_pair)."""
    m = (t == z)
    m[z, :] = False
    m[:, z] = False
    return m


def _first_zero_pair(s, op, z):
    """The first (i, j) in C order with i∘j == z under op, i != z and
    j != z, or None.  op's table is read in bands (FiniteStructure._bands)
    and the search stops at the first band with a hit, so a view that
    reads off its ambient builds no table.  Where a lemma gives the pair
    (FiniteStructure._zero_pair), no band is read."""
    known, pair = s._zero_pair(op, z)
    if known:
        return pair
    for lo, band in s._bands(op):
        m = band == z
        m[:, z] = False
        if lo <= z < lo + len(m):
            m[z - lo] = False
        hit = _first_true(m)
        if hit is not None:
            return lo + hit[0], hit[1]
    return None


def _first_true(mask):
    """Index tuple of the first True entry of mask in C order, or None.

    argmax over a flat bool array stops at the first True, so a hit
    early in the array costs a short scan and no list of all hits.
    """
    flat = mask.ravel()
    if not flat.size:
        return None
    k = int(flat.argmax())
    if not flat[k]:
        return None
    return tuple(int(i) for i in np.unravel_index(k, mask.shape))


def _refuse_table(n, op, cap):
    if n > cap:
        raise TooLarge(f"{n}x{n} {op} table exceeds the build cap ({cap})")


def _refuse_cubic_scan(n, law):
    if n > CUBIC_SCAN_CAP:
        raise TooLarge(f"{law} scan over {n}^3 triples refused "
                       f"(cap {CUBIC_SCAN_CAP})")


def _row_blocks(n):
    """Ranges [lo, hi) of rows covering range(n) in order: one row first,
    then each block twice the last, up to about _BLOCK_ENTRIES triples of
    an n x n table.  A scan that stops at its first block with a hit thus
    pays for about twice the rows up to its witness, and memory stays
    bounded."""
    cap = max(1, _BLOCK_ENTRIES // max(1, n * n))
    lo, size = 0, 1
    while lo < n:
        yield lo, min(n, lo + size)
        lo += size
        size = min(2 * size, cap)


def _assoc_witness(t):
    """The first (x, y, z) in C order with (xy)z != x(yz), or None.  Rows
    of x are scanned in order, in blocks that start at one row and double
    up to about _BLOCK_ENTRIES triples (_row_blocks), so the first block
    with a hit holds the first witness, and a witness in row r costs
    O(r n^2) work."""
    for lo, hi in _row_blocks(t.shape[0]):
        rows = t[lo:hi]
        hit = _first_true(t[rows, :] != rows[:, t])
        if hit is not None:
            a, b, c = hit
            return (lo + a, b, c)
    return None


def _left_distrib_witness(m, a):
    """The first (x, y, z) in C order with x(y+z) != xy+xz, or None,
    scanned in growing blocks of rows of x as _assoc_witness is."""
    for lo, hi in _row_blocks(m.shape[0]):
        rows = m[lo:hi]
        hit = _first_true(rows[:, a] != a[rows[:, :, None], rows[:, None, :]])
        if hit is not None:
            x, y, z = hit
            return (lo + x, y, z)
    return None


# ----------------------------------------------------------------------
# reports

def axiom_report(s, op):
    """Serializable exhaustive report for one operation."""
    rep = {"op": op}
    closed, cw = s.closed(op)
    rep["closed"] = closed
    if not closed:
        x, y = cw
        rep["closed_counterexample"] = [s.label(x), s.label(y)]
        rep["associative"] = None
    else:
        try:
            assoc, aw = s.associative(op)
        except TooLarge:
            assoc, aw = None, None
            rep["associative_note"] = "skipped: carrier too large"
        rep["associative"] = assoc
        if assoc is False:
            rep["associative_counterexample"] = s.labels(aw)
    comm, pw = s.commutative(op)
    rep["commutative"] = comm
    if not comm:
        rep["commutative_counterexample"] = s.labels(pw)
    e = s.identity_index(op)
    rep["identity"] = s.label(e) if e is not None else None
    inv, miss = s.inverses(op)
    rep["inverses_all"] = inv
    if inv is False:
        rep["inverses_counterexample"] = s.label(miss)
    z = s.absorbing_index(op)
    rep["absorbing"] = s.label(z) if z is not None else None
    return rep


def _group_verdict(s, op="mul"):
    """(ok, info): is s a group under op?  info holds the identity, or
    the reason and, where there is one, the first witness.  A "not
    closed" witness names the product that leaves s, or None when s holds
    op's table but no op to evaluate (the factors of a product)."""
    if s.n == 0:
        return False, {"reason": "empty"}
    closed, cw = s.closed(op)
    if not closed:
        x, y = (s.elements[i] for i in cw)
        out = str(s.apply(op, x, y)) if s.has_op(op) else None
        return False, {"reason": "not closed",
                       "witness": (*s.labels(cw), out)}
    assoc, aw = s.associative(op)
    if not assoc:
        return False, {"reason": "not associative",
                       "witness": tuple(s.labels(aw))}
    e = s.identity_index(op)
    if e is None:
        return False, {"reason": "no identity"}
    inv, miss = s.inverses(op)
    if not inv:
        return False, {"reason": "missing inverse", "witness": s.label(miss)}
    return True, {"identity": s.label(e)}


def _ring_verdict(s):
    """(ok, info): is s a ring under (add, mul)?  info holds the additive
    identity, or the reason and, where there is one, the first witness."""
    ok, info = _group_verdict(s, "add")
    if not ok:
        info["reason"] = "additive: " + info["reason"]
        return False, info
    if not s.commutative("add")[0]:
        return False, {"reason": "addition not commutative"}
    closed, cw = s.closed("mul")
    if not closed:
        return False, {"reason": "product leaves the subset",
                       "witness": tuple(s.labels(cw))}
    if not s.associative("mul")[0]:
        return False, {"reason": "multiplication not associative"}
    dist, dw = s.distributive()
    if not dist:
        return False, {"reason": "not distributive",
                       "witness": tuple(s.labels(dw[1:]))}
    return True, info


def _field_verdict(s):
    """(ok, info): is s a field under (add, mul)?  info holds the zero and
    identity, or the reason and, where there is one, the first witness."""
    ok, info = _ring_verdict(s)
    if not ok:
        return False, info
    if s.n < 2:
        return False, {"reason": "needs at least two elements"}
    comm, pw = s.commutative("mul")
    if not comm:
        return False, {"reason": "multiplication not commutative",
                       "witness": tuple(s.labels(pw))}
    one = s.identity_index("mul")
    if one is None:
        return False, {"reason": "no multiplicative identity"}
    zero = s.identity_index("add")
    # mul is commutative here, so one-sided and two-sided inverses agree
    have = s.units() >= 0
    have[zero] = True
    if not have.all():
        return False, {"reason": "missing multiplicative inverse",
                       "witness": s.label(int(np.argmin(have)))}
    return True, {"zero": s.label(zero), "identity": s.label(one)}


def is_group(s, op="mul"):
    return _group_verdict(s, op)[0]


def is_ring(s):
    return (s.has_op("add") and s.has_op("mul")
            and _ring_verdict(s)[0])


def is_field(s):
    return (s.has_op("add") and s.has_op("mul")
            and _field_verdict(s)[0])


def classify(s):
    """Human-readable classification tags for the carrier."""
    tags = []
    for op, noun in (("add", "additive"), ("mul", "multiplicative")):
        if not s.has_op(op):
            continue
        closed, _ = s.closed(op)
        if not closed:
            tags.append(f"{noun} operation not closed")
            continue
        assoc, _ = s.associative(op)
        if not assoc:
            tags.append(f"{noun} operation not associative")
            continue
        word = "semigroup"
        if s.identity_index(op) is not None:
            word = "monoid"
            inv, _ = s.inverses(op)
            if inv:
                word = "group"
        comm, _ = s.commutative(op)
        if comm:
            word = ("abelian " if word == "group" else "commutative ") + word
        tags.append(f"{noun} {word}")
    if s.has_op("add") and s.has_op("mul") and is_ring(s):
        name = "ring"
        comm, _ = s.commutative("mul")
        if comm:
            name = "commutative " + name
        if s.identity_index("mul") is not None:
            name += " with unity"
        tags.append(name)
        if is_field(s):
            tags.append("field")
    return tags


# ----------------------------------------------------------------------
# special elements

def _zero_index(s):
    """The zero used by divisor/nilpotent searches."""
    if s.has_op("add"):
        z = s.identity_index("add")
        if z is not None:
            return z
    if s.has_op("mul"):
        return s.absorbing_index("mul")
    return None


def find_special_elements(s, with_orders=True):
    """Zero divisors, idempotents, nilpotents, units, orders, characteristic.

    Conventions: zero divisors and nilpotents exclude zero itself;
    a nilpotency index is the least k with x^k = 0.
    """
    n = s.n
    z = _zero_index(s)
    rep = {}

    if z is None:
        rep["zero"] = None
        rep["zero_divisors"] = []
        rep["s_zero_divisors"] = []
        rep["nilpotents"] = []
    else:
        rep["zero"] = s.label(z)
        m = _zero_products(s.table("mul"), z)
        # i's witness is the first True of row i or of column i, else n
        first = np.minimum(*(np.where(m.any(axis=a), m.argmax(axis=a), n)
                             for a in (1, 0)))
        rep["zero_divisors"] = [{"x": s.label(i), "witness": s.label(j)}
                                for i, j in enumerate(first.tolist()) if j < n]
        rep["s_zero_divisors"] = _s_zero_divisors(s, m)
        nil = []
        for i in range(n):
            powers, _ = s.orbit("mul", i)
            if i != z and z in powers:
                nil.append({"x": s.label(i), "index": powers.index(z) + 1})
        rep["nilpotents"] = nil

    rep["idempotents"] = s.labels(s.idempotents())

    one = s.identity_index("mul")
    rep["one"] = s.label(one) if one is not None else None
    inv = s.units()
    rep["units"] = [] if inv is None else [
        {"x": s.label(i), "inverse": s.label(j)}
        for i, j in enumerate(inv.tolist()) if j >= 0]

    rep["characteristic"] = s.characteristic() if s.has_op("add") else None
    if with_orders:
        rep["element_orders"] = _element_orders(s, one, z)
    return rep


def _s_zero_divisors(s, m):
    """Witnessed quadruples: x,y nonzero, xy=0, and a,b outside {0,x,y}
    with xa=0, yb=0 but ab != 0, read off mul's _zero_products mask m.
    Pairs reported once with x <= y, each with its first a and then its
    first b in carrier order.

    One packed search per x, with no BLAS.  The rows of m are packed once
    into 64-bit words, and their complement gives the rows of ~m.  For x,
    the candidates a are ann(x) without x, and each y >= x of ann(x) has
    the word row B_y: row y of m with columns x and y cleared.
    (a, y) has a witness b exactly when ~m[a] & B_y has a set bit; a = y
    never has one, as ~m[y] & m[y] is empty.  The OR of the candidates'
    rows drops every y without a witness at once.  The other ys find
    their first a in blocks of candidates, each about _BAND_ENTRIES words
    against the ys still open, and nearly all of them in the first block.
    Their first b is the lowest set bit of ~m[a] & B_y.
    """
    labels = s._labels()
    n = s.n
    clear = ~(np.uint64(1) << (np.arange(n) & 63).astype(np.uint64))
    zero_rows = _packed_rows(m)
    # the padding bits of ~m's words are set, and every B_y's are clear
    notm = ~zero_rows
    zero_rows[np.arange(n), np.arange(n) >> 6] &= clear
    words = notm.shape[1]
    xs, cols = np.nonzero(m)
    ends = np.cumsum(np.bincount(xs, minlength=n)).tolist()
    out = []
    for x, start, end in zip(range(n), [0] + ends, ends):
        ann = cols[start:end]
        k = int(ann.searchsorted(x))
        if k == len(ann):
            continue
        ys = ann[k:]
        cand = notm.take(ann, axis=0)
        if ann[k] == x:
            cand[k] = 0
        b = zero_rows.take(ys, axis=0)
        b[:, x >> 6] &= clear[x]
        # y has a witness exactly when some a's row of ~m meets B_y
        hit = np.flatnonzero((b & np.bitwise_or.reduce(cand)).any(axis=1))
        if not hit.size:
            continue
        ys, b = ys[hit], b[hit]
        first = np.empty(len(ys), np.intp)
        todo = np.arange(len(ys))
        lo = 0
        while todo.size:
            step = max(1, _BAND_ENTRIES // (len(todo) * words))
            valid = (cand[lo:lo + step, None] & b[None, todo]).any(axis=2)
            found = valid.any(axis=0)
            first[todo[found]] = lo + valid.argmax(axis=0)[found]
            todo = todo[~found]
            lo += step
        a = ann[first]
        w = (notm[a] & b).astype("<u8", copy=False).view(np.uint8)
        bit = np.unpackbits(w, axis=1, bitorder="little").argmax(axis=1)
        out.extend({"x": labels[x], "y": labels[y], "a": labels[ai],
                    "b": labels[bi]}
                   for y, ai, bi in zip(ys.tolist(), a.tolist(),
                                        bit.tolist()))
    return out


def _packed_rows(mask):
    """The rows of a bool mask packed into 64-bit words: column c is bit
    c % 64 of word c // 64, and the bits past the last column are 0."""
    k, n = mask.shape
    out = np.zeros((k, -(-n // 64) * 8), np.uint8)
    out[:, :-(-n // 8)] = np.packbits(mask, axis=1, bitorder="little")
    return out.view("<u8")


def _element_orders(s, one, zero):
    """Two notions per element, labeled: order relative to the identity
    (least k with x^k = 1, when it exists) and the return exponent
    (least k > 1 with x^k = x, when it exists)."""
    add = s.table("add") if s.has_op("add") else None
    out = []
    for i in range(s.n):
        powers, end = s.orbit("mul", i)
        entry = {"x": s.label(i),
                 "identity_order": (powers.index(one) + 1 if one in powers
                                    else None),
                 "return_exponent": len(powers) + 1 if end == i else None}
        if add is not None:
            z = s.identity_index("add")
            q, m = i, 1
            while q != z and m <= s.n:
                q = int(add[q, i])
                m += 1
            entry["additive_order"] = m if q == z else None
        out.append(entry)
    return out


# ----------------------------------------------------------------------
# subset verification (element-level; no carrier enumeration needed)

def check_subset_group(elems, mul):
    """Exhaustively verify that elems forms a group under mul."""
    if len(set(elems)) != len(elems):
        return False, {"reason": "duplicate elements"}
    return _group_verdict(FiniteStructure(elems, mul=mul))


def check_subset_field(elems, add, mul):
    """Exhaustively verify that elems forms a field under (add, mul)."""
    if len(set(elems)) != len(elems):
        return False, {"reason": "additive: duplicate elements"}
    return _field_verdict(FiniteStructure(elems, mul=mul, add=add))


# ----------------------------------------------------------------------
# substructures and S-structure searches (subsets richer than their ambient)

def inherited_substructure(s):
    """The degenerate diagonal {[a,a]} with the ambient operations, a
    view of s (FiniteStructure.restrict)."""
    if s.kind != "interval":
        raise NotIntervalCarrier(
            f"inherited substructure needs an interval carrier, got {s.kind}")
    sub = s.restrict([i for i, e in enumerate(s.elements) if e.is_degenerate])
    sub.name, sub.parse_element = f"inherited({s.name})", s.parse_element
    return sub


@_once
def _subgroups(s):
    """{e: H_e} for each multiplicative idempotent e of s, in carrier
    order: H_e holds, ascending, the units of the local monoid
    {x : ex = xe = x} with identity e, searched in that corner of s's
    mul table (_inverse_of)."""
    t = s.table("mul")
    ar = np.arange(s.n)
    out = {}
    for e in s.idempotents():
        corner = np.flatnonzero((t[e] == ar) & (t[:, e] == ar))
        out[e] = corner[_inverse_of(t[np.ix_(corner, corner)], e) >= 0]
    return out


@_once
def maximal_subgroups(s):
    """For each multiplicative idempotent e: the group of invertible
    elements of the local monoid {x : ex = xe = x} with identity e.
    Found once per structure; every caller gets the same list.  On a
    full product (_factors) the idempotents are the pairs (e, f) of the
    factors' idempotents, and the group at (e, f) is H_e x H_f, since
    (x, y) has an inverse in the corner of (e, f) exactly when x has one
    in the corner of e and y in the corner of f; so only the factors'
    corners are searched (_subgroups), and no table of s is built."""
    factors = s._factors("mul")
    if factors is None:
        groups = _subgroups(s)
    else:
        lo, hi = _subgroups(factors[0]), _subgroups(factors[-1])
        grid = s._coords().grid
        pairs = sorted((grid[a, b].item(), a, b) for a in lo for b in hi)
        groups = {e: np.sort(grid[lo[a][:, None], hi[b]], axis=None).tolist()
                  for e, a, b in pairs}
    return [{"idempotent": s.label(e), "order": len(members),
             "members": s.labels(members)}
            for e, members in groups.items()]


def thm_unit_square_witness(s):
    """The canonical {1, [1,n-1], [n-1,1], [n-1,n-1]} subset for interval
    carriers over Z_n, when it lies inside the carrier and is proper."""
    if s.kind != "interval" or not isinstance(s.domain, ModDomain):
        return None
    d = s.domain
    nmod = d.n
    if nmod < 3:
        return None
    u = (nmod - 1) % nmod
    f = s.flavor
    cand = [NaturalInterval(d, 1, 1, f), NaturalInterval(d, 1, u, f),
            NaturalInterval(d, u, 1, f), NaturalInterval(d, u, u, f)]
    if len(set(cand)) != 4 or any(c not in s.index for c in cand):
        return None
    if len(cand) >= s.n:
        return None
    ok, info = check_subset_group(cand, s.mul_fn)
    if not ok:
        return None
    return {"members": s.labels(sorted(s.index[c] for c in cand)),
            "identity": info["identity"]}


def is_s_semigroup(s):
    """True iff a proper subset with >= 2 elements is a group under mul.

    The canonical unit-square witness is tried first (it needs no Cayley
    table, so it works on carriers too large to tabulate); the general
    search walks maximal subgroups at every idempotent.
    """
    w = thm_unit_square_witness(s)
    if w is not None:
        return True, w
    for grp in maximal_subgroups(s):
        if 2 <= grp["order"] < s.n:
            return True, {"members": grp["members"],
                          "identity": grp["idempotent"]}
    return False, None


def _additive_span(s, i):
    """Indices of the cyclic additive span of element i (contains zero),
    or None when a multiple of i leaves the carrier."""
    z = s.identity_index("add")
    if z is None:
        return None
    powers, end = s.orbit("add", i)
    return None if end < 0 else frozenset(powers) | {z}


def is_s_ring(s):
    """True iff some proper subset is a field under the induced operations.

    The candidates are the additive spans of e*g, for a multiplicative
    idempotent e and a carrier element g, and the first that is a proper
    field is the witness.  Each span holds the additive identity z, and
    the prime field of every proper subfield holding z is a candidate
    (_s_ring_spans), so a False verdict means that no proper subset
    holding z is a field.  When the addition is a group, every subfield
    holds z, its one additive idempotent.
    """
    if not (s.has_op("add") and s.has_op("mul")):
        return False, None
    seen = set()
    for span in _s_ring_spans(s):
        if span is None or span in seen:
            continue
        seen.add(span)
        if not 2 <= len(span) < s.n:
            continue
        members = sorted(span)
        ok, info = _field_verdict(s.restrict(members))
        if ok:
            return True, {"members": s.labels(members),
                          "identity": info["identity"],
                          "order": len(members), "member_indices": members}
    return False, None


def _s_ring_spans(s):
    """The candidate spans of is_s_ring in search order, as frozensets of
    carrier indices, None for one that leaves the carrier: the additive
    spans of e*g (_additive_span), first for the diagonal idempotents e
    and the diagonal elements g of an interval carrier, then for every
    idempotent e and every element g.

    The search is exhaustive.  Let F be a proper subfield holding the
    additive identity z.  As z + x = x for x in F, z is F's zero, so the
    prime field of F, the multiples of 1_F, is _additive_span(s, 1_F):
    at least two elements, since 1_F != z, and proper, since it lies in
    F.  1_F is an idempotent and 1_F * 1_F = 1_F, so the second phase
    reaches that span at (e, g) = (1_F, 1_F) unless an earlier
    candidate is a field.  So no other candidate, such as the span of
    any element or the sum of two spans, can decide the verdict.

    On a full interval product whose lo and hi parts are one factor f
    with an additive group (_diagonal_factor), the search runs on f, and
    its spans are mapped onto the diagonal [p, p].  f is not an interval
    carrier, so that is the e*g phase over f's idempotents and parts,
    and no span leaves f.  No other span can hit there.  A subfield F of
    D x D projects into each factor by a map pi that keeps + and *, so
    pi(0_F) is 0_D, the one additive idempotent of a group.  If
    pi(x) = 0_D for some x != 0_F, then every w = x(w/x) has
    pi(w) = 0_D pi(w/x) = pi(0_F (w/x)) = 0_D; as F has at least two
    elements, one projection is injective.  Its image is a subfield of
    D, and the prime field of that image is the additive span of its
    identity e, an idempotent of D, whose diagonal copy is the span of
    [e, e] * [e, e]: a proper subfield, which this search tries."""
    read = _diagonal_factor(s)
    if read is not None:
        f, diagonal = read
        for span in _s_ring_spans(f):
            yield frozenset(diagonal[sorted(span)].tolist())
        return
    t = s.table("mul")
    if s.identity_index("add") is None:
        return
    n = s.n
    idem = s.idempotents()

    def diag(i):
        e = s.elements[i]
        return isinstance(e, NaturalInterval) and e.is_degenerate

    phases = []
    if s.kind == "interval":
        phases.append(([e for e in idem if diag(e)],
                       [i for i in range(n) if diag(i)]))
    phases.append((idem, range(n)))
    for es, gs in phases:
        for e in es:
            row = t[e]
            for g in gs:
                prod = int(row[g])
                if prod >= 0:
                    yield _additive_span(s, prod)


def _diagonal_factor(s):
    """(f, diagonal) when is_s_ring reads s off one factor f: s is a full
    interval product whose lo and hi parts agree (N(D) is D x D), its
    diagonal elements diagonal[p] = [p, p] lie in part order, and f's add
    is a group.  None for any other structure."""
    if s.kind != "interval":
        return None
    factors = s._factors("add", "mul")
    if factors is None or len(factors) != 1:
        return None
    f, diagonal = factors[0], np.diagonal(s._coords().grid)
    if not ((np.diff(diagonal) > 0).all() and is_group(f, "add")):
        return None
    return f, diagonal


def is_strict_semiring(s):
    """No two nonzero elements sum to the additive identity."""
    z = s.identity_index("add")
    if z is None:
        return None, None
    bad = _first_zero_pair(s, "add", z)
    if bad is not None:
        return False, tuple(s.labels(bad))
    return True, None


# ----------------------------------------------------------------------

def analyze_structure(s):
    """Full deterministic report: axioms, elements, substructures."""
    report = {
        "schema": "natint/1",
        "spec": s.name,
        "order": s.n,
        "axioms": {},
        "elements": {},
        "substructures": {},
        "witnesses": {},
    }
    if s.has_op("add"):
        report["axioms"]["add"] = axiom_report(s, "add")
    if s.has_op("mul"):
        report["axioms"]["mul"] = axiom_report(s, "mul")
    if s.has_op("add") and s.has_op("mul"):
        try:
            dist, dw = s.distributive()
        except TooLarge:
            dist, dw = None, None
        report["axioms"]["distributive"] = dist
        if dist is False:
            side, x, y, z = dw
            report["axioms"]["distributive_counterexample"] = {
                "side": side, "triple": s.labels((x, y, z))}
    report["classification"] = classify(s)
    if s.has_op("mul"):
        report["elements"] = find_special_elements(
            s, with_orders=s.n <= ORDERS_CAP)
        found, wit = is_s_semigroup(s)
        report["substructures"]["s_semigroup"] = found
        if wit:
            report["witnesses"]["s_semigroup"] = wit
        report["substructures"]["maximal_subgroups"] = maximal_subgroups(s)
    if s.kind == "interval":
        inh = inherited_substructure(s)
        report["substructures"]["inherited"] = {
            "order": inh.n,
            "members": s.labels(s.index[e] for e in inh.elements)}
    if s.has_op("add") and s.has_op("mul"):
        found, wit = is_s_ring(s)
        report["substructures"]["s_ring"] = found
        if wit:
            report["witnesses"]["s_ring"] = wit
        strict, sw = is_strict_semiring(s)
        report["substructures"]["strict_semiring"] = strict
        if sw:
            report["witnesses"]["strict_counterexample"] = list(sw)
    return report
