"""Matrices of natural intervals.

Addition and the Hadamard product are entrywise; mat_mul is the usual
row-by-column product.  Every operation commutes with splitting a matrix
into its lo-part and hi-part scalar matrices, which is the oracle the
test suite leans on.  Dimension of a span is the rank of that split
(2 coordinates per interval entry) over the scalar field.
"""

import csv
import io
from fractions import Fraction

from .errors import (
    DomainMismatch,
    FlavorMismatch,
    NotAField,
    ParseError,
    ShapeMismatch,
)
from .intervals import (
    Flavor,
    NaturalInterval,
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
        for e in entries:
            if e.domain != domain:
                raise DomainMismatch(
                    f"cannot put an entry over {e.domain.spec} in a matrix "
                    f"over {domain.spec}")
            if e.flavor is not flavor:
                raise FlavorMismatch(
                    f"cannot put an entry of flavor {e.flavor.code} in a "
                    f"matrix of flavor {flavor.code}")
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

    def __add__(self, other):
        self._same_shape(other)
        ent = [a + b for a, b in zip(self.entries, other.entries)]
        return IntervalMatrix(self.rows, self.cols, ent)

    def __sub__(self, other):
        self._same_shape(other)
        ent = [a - b for a, b in zip(self.entries, other.entries)]
        return IntervalMatrix(self.rows, self.cols, ent)

    def __neg__(self):
        return IntervalMatrix(self.rows, self.cols,
                              [-a for a in self.entries])

    def hadamard(self, other):
        self._same_shape(other)
        ent = [a * b for a, b in zip(self.entries, other.entries)]
        return IntervalMatrix(self.rows, self.cols, ent)

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

def _field_ops(field):
    if isinstance(field, RatDomain):
        return None
    if isinstance(field, ModDomain):
        n = field.n
        for d in range(2, int(n ** 0.5) + 1):
            if n % d == 0:
                raise NotAField(f"Zn:{n} is not a field ({d} divides {n})")
        return n
    raise NotAField(f"{field.spec} is not a supported field")


def _rank(rows, modulus):
    """Row-reduction rank; exact Fractions when modulus is None."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    width = len(rows[0])
    rank = 0
    for col in range(width):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank][col]
        inv = pow(head, -1, modulus) if modulus else Fraction(1) / head
        if modulus:
            rows[rank] = [(v * inv) % modulus for v in rows[rank]]
        else:
            rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                if modulus:
                    rows[r] = [(a - f * b) % modulus
                               for a, b in zip(rows[r], rows[rank])]
                else:
                    rows[r] = [a - f * b
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
    modulus = _field_ops(field)
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
    if modulus:
        coords = [[int(c) % modulus for c in row] for row in coords]
    else:
        coords = [[Fraction(c) for c in row] for row in coords]
    k = shape[0] * shape[1]
    rank = _rank(coords, modulus)
    return {
        "field": field.spec,
        "vectors": len(vectors),
        "coordinates": k,
        "ambient_dimension": 2 * k,
        "dimension": rank,
        "independent": rank == len(vectors),
        "spans": rank == 2 * k,
    }
