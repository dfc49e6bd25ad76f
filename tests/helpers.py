"""Shared random generators for the tests: polynomials and fibered point sets."""

from lexgb import Monomial, PointSet, Polynomial


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
