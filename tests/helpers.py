"""Shared test helpers: random polynomials, fibered point sets, the
generators of a squared vanishing ideal, and references to compare the
kernels against: an unpruned Buchberger completion for `buchberger`, a
term-by-term substitution loop for the packed `poly._images`, schoolbook
powering mod a univariate modulus for the packed
`univariate._pow_linear`, the dual-functional loop on plain lists and
dicts for the packed `fat_point_basis`, and a slot-by-slot byte-string
codec for `packed.pack` and `packed.unpack`."""

from heapq import heappop, heappush

from lexgb import GroebnerBasis, Monomial, PointSet, Polynomial
from lexgb.field import PrimeField
from lexgb.instances import _checked_shape, _step_down
from lexgb.poly import constant
from lexgb.univariate import _rem


def random_monomial(rng, max_deg=3):
    return Monomial(rng.randint(0, max_deg), rng.randint(0, max_deg), rng.randint(0, max_deg))


def random_poly(field, rng, max_deg=3, max_terms=6, nonzero=False):
    low = 1 if nonzero else 0
    terms = []
    for _ in range(rng.randint(low, max_terms)):
        terms.append((random_monomial(rng, max_deg), field(rng.randrange(field.p))))
    p = Polynomial(field, terms)
    while nonzero and p.is_zero():
        terms = [(random_monomial(rng, max_deg), field(1 + rng.randrange(field.p - 1)))]
        p = Polynomial(field, terms)
    return p


# x-fibers of a point set; each fiber lists how many points share each of
# its (x, y) pairs, so a 2 is an (x, y) pair carrying two z values
FIBERED_PATTERNS = (
    ((1, 1), (1,)),
    ((1, 1, 1), (1, 1)),
    ((1, 1), (1, 1), (1,)),
    ((1, 1, 1, 1), (1,)),
    ((2,), (1,)),
    ((2, 1), (1, 1)),
    ((3,), (1, 1)),
    ((1, 2, 3), (1,)),
)


def fibered_points(pattern, rng, prime=101) -> PointSet:
    xs = rng.sample(range(prime), len(pattern))
    pts = []
    for x, fiber in zip(xs, pattern):
        for y, count in zip(rng.sample(range(prime), len(fiber)), fiber):
            pts.extend((x, y, z) for z in rng.sample(range(prime), count))
    return PointSet(prime, tuple(pts))


def squared_products(V) -> list:
    """Every product V[i] * V[j] with i <= j: generators of the square of the
    ideal that the elements of V generate."""
    return [V[i] * V[j] for i in range(len(V)) for j in range(i, len(V))]


def reference_buchberger(generators) -> GroebnerBasis:
    """Buchberger completion with no pair criterion but the coprime-head one:
    every other pair of heads is queued and its S-polynomial reduced.  It
    builds S-polynomials by `term_mul` and subtraction, not by `s_polynomial`,
    and shares no pair logic with `buchberger`, which must agree with it."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    field = gens[0].field
    unit = GroebnerBasis((constant(field, 1),), unit_ideal=True)

    basis = []
    pairs = []  # heap of (lcm of the heads, i, j)

    def admit(p):
        head = p.lm()
        for k, g in enumerate(basis):
            if not head.is_coprime(g.lm()):
                heappush(pairs, (head.lcm(g.lm()), k, len(basis)))
        basis.append(p.monic())

    for g in gens:
        if g.is_constant():
            return unit
        admit(g)

    while pairs:
        lcm, i, j = heappop(pairs)
        f, g = basis[i], basis[j]  # monic, so the heads cancel as they are
        s = f.term_mul(lcm // f.lm(), 1) - g.term_mul(lcm // g.lm(), 1)
        _, r = s.divide(basis)
        if r.is_zero():
            continue
        if r.is_constant():
            return unit
        admit(r)

    # minimal: drop heads divisible by an earlier kept head; then reduce
    # each tail against the others
    order = sorted(range(len(basis)), key=lambda i: (basis[i].lm(), i))
    kept = []
    for i in order:
        if not any(h.lm().divides(basis[i].lm()) for h in kept):
            kept.append(basis[i])
    for i in range(len(kept)):
        kept[i] = kept[i].divide(kept[:i] + kept[i + 1 :])[1]
    return GroebnerBasis(tuple(kept))


def reference_substitute(f, axis: int, value) -> Polynomial:
    """f with the variable of the axis (0=x, 1=y) set to value, one term at
    a time with a table of the value's reduced powers."""
    p = f.field.p
    k = 2 - axis  # a Monomial stores its exponents as (c, b, a)
    powers = [1]
    for _ in range(max([m[k] for m, _ in f.terms], default=0)):
        powers.append(powers[-1] * value % p)
    acc = {}
    for m, c in f.terms:
        key = m[:k] + (0,) + m[k + 1 :]
        acc[key] = acc.get(key, 0) + c * powers[m[k]]
    return Polynomial._collect(f.field, acc)


def reference_mulmod(a: list, b: list, m: list, p: int) -> list:
    """a * b mod m on coefficient lists, lowest degree first, by schoolbook
    multiplication."""
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] += ca * cb
    return _rem(prod, m, p)


def reference_powmod(base: list, e: int, m: list, p: int) -> list:
    """base^e mod m, by repeated squaring with `reference_mulmod`."""
    out = [1]
    base = _rem(base, m, p)
    while e:
        if e & 1:
            out = reference_mulmod(out, base, m, p)
        e >>= 1
        if e:
            base = reference_mulmod(base, base, m, p)
    return out


def reference_fat_point_basis(points: PointSet, shapes) -> tuple:
    """The elements of the fat-point basis by the dual-functional loop of
    `fat_point_basis` on lists and dicts: each row is a reduced functional
    vector plus its combination over the standard monomials as a dict."""
    field = PrimeField(points.prime)
    mod, inv = field.p, field.inv
    shapes = [_checked_shape(shape) for shape in shapes]
    index = {}
    for i, shape in enumerate(shapes):
        for d in shape:
            index[i, d] = len(index)
    columns, shifts = [], []
    for k in (2, 1, 0):
        columns.append([points.points[i][k] % mod for i, _ in index])
        shifts.append([(j, index[i, _step_down(d, k)]) for (i, d), j in index.items() if d[k]])

    rows, basis, heads = [], [], []

    def covered(t) -> bool:
        return any(Monomial.divides(h, t) for h in heads)

    candidates = [(0, 0, 0)]
    evals = {(0, 0, 0): [0 if any(d) else 1 for _, d in index]}
    while candidates:
        m = heappop(candidates)
        values = evals.pop(m)
        if covered(m):
            continue
        vec, comb = values, {m: 1}
        for pivot, rvec, rcomb in rows:
            factor = vec[pivot]
            if not factor:
                continue
            vec = [(v - factor * r) % mod for v, r in zip(vec, rvec)]
            for mon, coeff in rcomb.items():
                comb[mon] = comb.get(mon, 0) - factor * coeff
        pivot = next((i for i, v in enumerate(vec) if v), None)
        if pivot is None:
            basis.append(Polynomial._collect(field, comb))
            heads.append(m)
            continue
        scale = inv(vec[pivot])
        rows.append((pivot, [v * scale % mod for v in vec], {k: c * scale % mod for k, c in comb.items()}))
        for axis, column in enumerate(columns):
            child = m[:axis] + (m[axis] + 1,) + m[axis + 1 :]
            if child not in evals and not covered(child):
                child_values = [v * x % mod for v, x in zip(values, column)]
                for j, source in shifts[axis]:
                    child_values[j] = (child_values[j] + values[source]) % mod
                evals[child] = child_values
                heappush(candidates, child)
    return tuple(basis)


def reference_pack(values, nb: int) -> int:
    """The packed vector of non-negative ints below 2^(8 nb), nb bytes a
    slot, built one slot's bytes at a time."""
    return int.from_bytes(b"".join([v.to_bytes(nb, "little") for v in values]), "little")


def reference_unpack(x: int, nb: int, n: int, p: int) -> list:
    """The residues mod p of the n slots of x, nb bytes a slot, read one
    slot's bytes at a time."""
    size = n * nb
    data = x.to_bytes(size, "little")
    return [int.from_bytes(data[i : i + nb], "little") % p for i in range(0, size, nb)]
