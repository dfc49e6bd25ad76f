"""Shared test helpers: random polynomials, fibered point sets, the
generators of a squared vanishing ideal, and an unpruned Buchberger
completion to compare `buchberger` against."""

from heapq import heappop, heappush

from lexgb import GroebnerBasis, Monomial, PointSet, Polynomial
from lexgb.poly import constant


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


def reference_buchberger(generators, radical=False) -> GroebnerBasis:
    """Buchberger completion with no pair criterion but the coprime-head one:
    every other pair of heads is queued and its S-polynomial reduced.  It
    builds S-polynomials by `term_mul` and subtraction, not by `s_polynomial`,
    and shares no pair logic with `buchberger`, which must agree with it."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    field = gens[0].field
    unit = GroebnerBasis((constant(field, 1),), radical=radical, unit_ideal=True)

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
    return GroebnerBasis(tuple(kept), radical=radical)
