"""Matrices of natural intervals.

Addition, subtraction and the Hadamard product are entrywise, through
one helper (IntervalMatrix._entrywise); mat_mul is the usual
row-by-column product.  An entry over another domain or of another
flavor is refused by the check polynomials use too
(intervals._check_entries).  Every operation commutes with splitting a
matrix into its lo-part and hi-part scalar matrices, which is the oracle
the test suite leans on.  Dimension of a span is the rank of that split
(2 coordinates per interval entry) over the scalar field, Q or Zn:p,
found by row reduction in the field's own inv, mul and sub.
"""

import csv
import io
import operator

from .errors import (
    DomainMismatch,
    NotAField,
    ParseError,
    ShapeMismatch,
)
from .intervals import (
    Flavor,
    NaturalInterval,
    _check_entries,
    parse_interval,
    split_top_level,
    zero_interval,
)
from .scalars import ModDomain, RatDomain, parse_domain


class IntervalMatrix:
    __slots__ = ("rows", "cols", "entries", "domain", "flavor", "_hash")

    def __init__(self, rows, cols, entries, domain=None, flavor=None):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ShapeMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, "
                f"got {len(entries)}")
        if domain is None:
            domain = entries[0].domain
        if flavor is None:
            flavor = entries[0].flavor
        _check_entries(entries, domain, flavor, "an entry", "a matrix")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self.domain = domain
        self.flavor = flavor
        self._hash = None

    @classmethod
    def from_rows(cls, rows_of_entries):
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0])
        if any(len(r) != cols for r in rows_of_entries):
            raise ShapeMismatch("ragged rows")
        flat = [e for row in rows_of_entries for e in row]
        return cls(rows, cols, flat)

    @classmethod
    def zeros(cls, rows, cols, domain, flavor=Flavor.CLOSED):
        z = zero_interval(domain, flavor)
        return cls(rows, cols, [z] * (rows * cols), domain, flavor)

    @classmethod
    def identity(cls, n, domain, flavor=Flavor.CLOSED):
        z = zero_interval(domain, flavor)
        one = NaturalInterval(domain, domain.one, domain.one, flavor)
        ent = [one if i == j else z for i in range(n) for j in range(n)]
        return cls(n, n, ent, domain, flavor)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def _same_shape(self, other):
        if not isinstance(other, IntervalMatrix):
            raise TypeError(f"expected a matrix, got {other!r}")
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")

    def _entrywise(self, other, op):
        self._same_shape(other)
        return IntervalMatrix(self.rows, self.cols,
                              map(op, self.entries, other.entries))

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __neg__(self):
        return IntervalMatrix(self.rows, self.cols,
                              [-a for a in self.entries])

    def hadamard(self, other):
        return self._entrywise(other, operator.mul)

    def __matmul__(self, other):
        if not isinstance(other, IntervalMatrix):
            raise TypeError(f"expected a matrix, got {other!r}")
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.shape} by {other.shape}")
        ent = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = self.entry(i, 0) * other.entry(0, j)
                for k in range(1, self.cols):
                    acc = acc + self.entry(i, k) * other.entry(k, j)
                ent.append(acc)
        return IntervalMatrix(self.rows, other.cols, ent)

    def scale(self, c):
        return IntervalMatrix(self.rows, self.cols,
                              [e.scale(c) for e in self.entries])

    def decompose(self):
        """(lo scalar matrix, hi scalar matrix) as nested lists."""
        lo = [[self.entry(i, j).lo for j in range(self.cols)]
              for i in range(self.rows)]
        hi = [[self.entry(i, j).hi for j in range(self.cols)]
              for i in range(self.rows)]
        return lo, hi

    def __eq__(self, other):
        return (isinstance(other, IntervalMatrix)
                and self.shape == other.shape
                and self.entries == other.entries)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self.entries))
            self._hash = h
        return h

    def __str__(self):
        return ";".join(
            ",".join(str(e) for e in self.row(i)) for i in range(self.rows))

    def __repr__(self):
        return f"<{self.rows}x{self.cols} {self} : {self.domain.spec}>"


def mat_add(a, b):
    return a + b


def mat_sub(a, b):
    return a - b


def mat_hadamard(a, b):
    return a.hadamard(b)


def mat_mul(a, b):
    return a @ b


def mat_decompose(a):
    return a.decompose()


def mat_recompose(lo, hi, domain, flavor=Flavor.CLOSED):
    rows = len(lo)
    cols = len(lo[0]) if rows else 0
    if len(hi) != rows or any(len(r) != cols for r in lo) or \
            any(len(r) != cols for r in hi):
        raise ShapeMismatch("lo and hi parts disagree in shape")
    ent = [NaturalInterval(domain, lo[i][j], hi[i][j], flavor)
           for i in range(rows) for j in range(cols)]
    return IntervalMatrix(rows, cols, ent, domain, flavor)


def parse_matrix(text, domain, default_flavor=Flavor.CLOSED):
    """Rows separated by ';', entries by top-level ','."""
    rows = []
    for row_text in text.strip().split(";"):
        parts = split_top_level(row_text)
        row = [parse_interval(p.strip(), domain, default_flavor)
               for p in parts]
        rows.append(row)
    return IntervalMatrix.from_rows(rows)


CSV_MAGIC = "natint-matrix v1"


def matrix_to_csv(mat):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow([CSV_MAGIC, f"domain={mat.domain.spec}",
                f"flavor={mat.flavor.code}"])
    for i in range(mat.rows):
        w.writerow([str(e) for e in mat.row(i)])
    return buf.getvalue()


def matrix_from_csv(text):
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty matrix CSV") from None
    if len(header) != 3 or header[0].strip() != CSV_MAGIC:
        raise ParseError(f"bad matrix CSV header {header!r}",
                         expected=[CSV_MAGIC])
    dom_part, flav_part = header[1].strip(), header[2].strip()
    if not dom_part.startswith("domain=") or not flav_part.startswith("flavor="):
        raise ParseError(f"bad matrix CSV header {header!r}",
                         expected=["domain=<spec>", "flavor=<code>"])
    domain = parse_domain(dom_part[len("domain="):])
    flavor = Flavor.from_code(flav_part[len("flavor="):])
    rows = []
    for cells in reader:
        if not cells:
            continue
        rows.append([parse_interval(c.strip(), domain, flavor)
                     for c in cells])
    if not rows:
        raise ParseError("matrix CSV has a header but no rows")
    return IntervalMatrix.from_rows(rows)


# ----------------------------------------------------------------------
# span and dimension over a scalar field

def _check_field(field):
    """Refuse a domain that is not Q or Zn:p for a prime p."""
    if isinstance(field, ModDomain):
        n = field.n
        for d in range(2, int(n ** 0.5) + 1):
            if n % d == 0:
                raise NotAField(f"Zn:{n} is not a field ({d} divides {n})")
    elif not isinstance(field, RatDomain):
        raise NotAField(f"{field.spec} is not a supported field")


def _rank(rows, field):
    """Row-reduction rank of rows of scalars, in the field's own ops."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    zero = field.zero
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows))
                      if rows[r][col] != zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(v, inv) for v in rows[rank]]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != rank and f != zero:
                rows[r] = [field.sub(a, field.mul(f, b))
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def decomposed_coordinates(vec):
    """Flatten an interval matrix/vector to (lo, hi) scalar pairs."""
    out = []
    for e in vec.entries:
        out.append(e.lo)
        out.append(e.hi)
    return out


def span_dimension(vectors, field):
    """Independence/span verdicts for interval vectors over a field.

    Each interval coordinate contributes two scalar coordinates (lo and
    hi); dimension is the rank of that coordinate matrix over the field.
    """
    _check_field(field)
    if not vectors:
        return {"vectors": 0, "coordinates": 0, "dimension": 0,
                "independent": True, "spans": False,
                "ambient_dimension": 0, "field": field.spec}
    shape = vectors[0].shape
    for v in vectors:
        if v.shape != shape:
            raise ShapeMismatch("span vectors must share one shape")
        if v.domain != vectors[0].domain:
            raise DomainMismatch("span vectors must share one domain")
    coords = [decomposed_coordinates(v) for v in vectors]
    domain = vectors[0].domain
    if domain != field:  # e.g. Z's scalars, coerced into Q
        refused = DomainMismatch(
            f"vectors over {domain.spec} do not embed in {field.spec}")
        # reading Zn:m's residues in Zn:p keeps + and * only when p | m
        if isinstance(domain, ModDomain) and not (
                isinstance(field, ModDomain) and domain.n % field.n == 0):
            raise refused
        try:
            coords = [[field.coerce(c) for c in row] for row in coords]
        except TypeError:
            raise refused from None
    k = shape[0] * shape[1]
    rank = _rank(coords, field)
    return {
        "field": field.spec,
        "vectors": len(vectors),
        "coordinates": k,
        "ambient_dimension": 2 * k,
        "dimension": rank,
        "independent": rank == len(vectors),
        "spans": rank == 2 * k,
    }
