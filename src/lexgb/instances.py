"""Zero-dimensional instance generators: fat-point ideals and probe ideals.

Ideals of fat points come from one dual-functional elimination loop
(Marinari, Möller and Mora, AAECC 4, 1993), walked along the lex staircase
one (y, z) block at a time: a point P with a down-closed shape D_P of
exponent triples contributes one functional per d in D_P, the Taylor
coefficient at P for d, and the basis is that of the polynomials all the
functionals annihilate.  Each such basis has two built-in oracles: every
element has a zero Taylor coefficient at every (P, d), and the quotient
dimension equals the sum of the |D_P|.  Vanishing ideals of point sets are
the plain shape {0} at every point and radical by construction;
`vanishing_basis` builds that basis from the x-fibers by interpolation
instead (`lazard`), and the loop is the reference its tests compare against.
The two non-radical recipes provide instances without the radicality
guarantee: squared vanishing ideals, which are the first-order shape
{0, e_x, e_y, e_z} at every point, and random triangular systems, whose
drawn elements are already their reduced basis.  No builder runs a
Buchberger completion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .field import DEFAULT_PRIME, PrimeField
from .groebner import GroebnerBasis
from .lazard import lazard_basis
from .packed import lowest_slot, pack, residuer, unpack
from .poly import Monomial, Polynomial, _mono


@dataclass(frozen=True)
class PointSet:
    """Distinct points of F_p^3, reduced mod p on construction, with the
    seed that produced them.  Construction raises ValueError unless the
    modulus is prime and the reduced points are distinct; no points at all
    is a legal set."""

    prime: int
    points: tuple[tuple[int, int, int], ...]
    seed: int | None = None

    def __post_init__(self):
        p = PrimeField(self.prime).p
        points = tuple([(x % p, y % p, z % p) for x, y, z in self.points])
        if len(set(points)) != len(points):
            raise ValueError("points must be distinct")
        object.__setattr__(self, "points", points)

    def __len__(self):
        return len(self.points)

    def to_dict(self) -> dict:
        return {"p": self.prime, "points": [list(pt) for pt in self.points], "seed": self.seed}


def pointset_from_dict(data: dict) -> PointSet:
    if "points" not in data or "p" not in data:
        raise ValueError("point set object must have 'p' and 'points'")
    if not isinstance(data["points"], list):
        raise ValueError("'points' must be a list")
    for pt in data["points"]:
        if not isinstance(pt, list) or len(pt) != 3 or not all(type(v) is int for v in pt):
            raise ValueError(f"point must be three integer coordinates, got {pt!r}")
    return PointSet(data["p"], data["points"], data.get("seed"))


def random_points(n: int, seed: int, prime: int = DEFAULT_PRIME) -> PointSet:
    """n distinct uniform points of F_p^3, reproducible from the seed."""
    PrimeField(prime)  # validates the modulus
    if not 1 <= n <= prime**3:
        raise ValueError(f"point count {n} outside [1, {prime**3}]")
    rng = random.Random(seed)
    pts: list[tuple[int, int, int]] = []
    seen = set()
    while len(pts) < n:
        pt = (rng.randrange(prime), rng.randrange(prime), rng.randrange(prime))
        if pt not in seen:
            seen.add(pt)
            pts.append(pt)
    return PointSet(prime, tuple(pts), seed)


PLAIN_POINT = ((0, 0, 0),)
FIRST_ORDER = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def _step_down(d: tuple, k: int) -> tuple:
    """d - e_k, for the index k of a shape triple (0=x, 1=y, 2=z)."""
    return d[:k] + (d[k] - 1,) + d[k + 1 :]


def _checked_shape(shape) -> tuple:
    """The triples of a shape, sorted and distinct; raises ValueError unless
    it is a nonempty, down-closed set of non-negative integer triples."""
    if not isinstance(shape, (tuple, list, set, frozenset)):
        raise ValueError(f"a shape must be a collection of exponent triples, got {shape!r}")
    triples = set()
    for d in shape:
        if (
            not isinstance(d, (tuple, list))
            or len(d) != 3
            or not all(type(e) is int and e >= 0 for e in d)
        ):
            raise ValueError(f"shape entry must be three non-negative integers, got {d!r}")
        triples.add(tuple(d))
    if not triples:
        raise ValueError("empty shape")
    for d in triples:
        for k in range(3):
            if d[k] and _step_down(d, k) not in triples:
                raise ValueError(f"shape is not down-closed: it holds {d} but not {_step_down(d, k)}")
    return tuple(sorted(triples))


def fat_point_basis(points: PointSet, shapes) -> GroebnerBasis:
    """Reduced basis of the polynomials whose Taylor coefficients vanish at
    each point P for every exponent triple (d_x, d_y, d_z) in its shape D_P.

    The shapes are down-closed, so each one's functionals f -> (P, d)(f),
    the coefficient of (x - P_x)^d_x (y - P_y)^d_y (z - P_z)^d_z in f
    (Hasse derivatives, valid in every characteristic), cut out an ideal
    primary to P of colength |D_P|; the basis is that of their intersection
    (Marinari, Möller and Mora, AAECC 4, 1993, after Möller and
    Buchberger, EUROCAM 1982).  With D_P = {0} everywhere it is the
    vanishing ideal of the points, the only case flagged radical.

    Dual-functional elimination: monomials are visited in ascending lex
    order; a monomial whose vector of functional values is dependent on
    those of the standard monomials found so far yields a basis element
    (the dependency certificate), an independent one is standard.  Each
    basis element is monic with all tail monomials standard, so the output
    is the unique reduced basis.  The vector of x_k * t comes from t's by
    the product rule: (P, d)(x_k f) = P_k (P, d)(f) + (P, d - e_k)(f), the
    second term only where d_k > 0.

    The visit takes the (y, z) blocks m = y^b z^c in ascending order, and
    x^0 m, x^1 m, ... inside each.  The staircase is down-closed, so it
    holds x^i m exactly for i below a run a_m <= a_(m/y), a_(m/z) (the lex
    game of Cerlienco and Mureddu, Discrete Math. 139, 1995), and a head
    of an earlier block divides x^i m exactly when i reaches the bound
    min(a_(m/y), a_(m/z)) over the parents m has, 0 for one never reached.
    A block stops at its first dependent monomial or at that bound, so the
    walk reduces exactly the standard and the minimal nonstandard
    monomials, ascending, against the same rows as a heap of children that
    skips those an earlier head divides; each block yields at most one
    element, so the basis comes out sorted.

    A row is one packed vector (see `packed`): the n functional values,
    then the combination over the standard monomials, slot n + j holding
    the j-th standard monomial's coefficient, every slot an exact residue.
    A candidate stays packed from its parent's vector to its row; only an
    element's tail is unpacked.  A step of the product rule is one masked
    multiply-add per nonzero coordinate value and one shifted mask per
    distance from d - e_k to d, on slots below 2p with at most one d - e_k
    per entry, so it is below 2p(p - 1) + 2p before `halve` takes it back
    below 2p.  A candidate starts as such slots and a 1 in the slot its
    monomial would take, and each of at most n rows adds (p - c) < p times
    residues, so it reduces to below n p^2 + 2p.  Its residues
    (`packed.residuer`) are 0 in the low n slots exactly when it is
    dependent; else its lowest nonzero one is the pivot, and the row is the
    residues of it times the pivot's inverse, a product below p^2.  So
    max(n, 2) p^2 + 2p bounds every slot of the 2n + 1 a candidate can take
    (the step's 2p^2 + 2p at n = 1).
    """
    if not points.points:
        raise ValueError("empty point set")
    # callers pass one shape object for many points: check each object once
    # (the list keeps every object alive, so no id is reused)
    shapes = list(shapes)
    checked = {}
    for shape in shapes:
        if id(shape) not in checked:
            checked[id(shape)] = _checked_shape(shape)
    shapes = [checked[id(shape)] for shape in shapes]
    if len(shapes) != len(points.points):
        raise ValueError(f"{len(shapes)} shapes for {len(points.points)} points")
    field = PrimeField(points.prime)
    p = points.prime

    # one functional (P, d) per entry; index[(i, d)] is the entry of point i
    index = {}
    for i, shape in enumerate(shapes):
        for d in shape:
            index[i, d] = len(index)
    n = len(index)
    # slots up to the docstring's bound, and the product rule per axis, in
    # the order (c, b, a) of the stored exponents: a (value, mask of its
    # entries) per nonzero coordinate and a (shift, mask of the sources)
    # per distance from d - e_k to d
    nb, halve, residues = residuer(p, max(n, 2) * p * p + 2 * p, 2 * n + 1)
    w = 8 * nb
    mask = (1 << w) - 1
    scales, shifts = [], []
    for k in (2, 1, 0):
        by_value, by_shift = {}, {}
        for (i, d), j in index.items():
            v = points.points[i][k]
            by_value[v] = by_value.get(v, 0) | mask << j * w
            if d[k]:
                source = index[i, _step_down(d, k)]
                shift = (j - source) * w
                by_shift[shift] = by_shift.get(shift, 0) | mask << source * w
        scales.append([(v, m) for v, m in by_value.items() if v])
        shifts.append(list(by_shift.items()))

    def step(x, axis):
        out = 0
        for v, m in scales[axis]:
            out += v * (x & m)
        for shift, m in shifts[axis]:
            out += (x & m) << shift
        return halve(out)

    values_mask = (1 << n * w) - 1
    rows: list[tuple[int, int]] = []  # (bit offset of the pivot slot, row)
    standard: list[Monomial] = []  # one per row, ascending
    basis: list[Polynomial] = []
    # (c, b) -> a_m for every block reached; the staircase has n monomials,
    # so b, c and a_m stay within n, and n + 1 bounds nothing
    runs = {}
    below = pack([0 if any(d) else 1 for _, d in index], nb)  # the vector of x^0 y^0 z^c
    for c in range(n + 1):
        for b in range(n + 1):
            bound = min(runs.get((c - 1, b), 0) if c else n + 1, runs.get((c, b - 1), 0) if b else n + 1)
            if not bound:
                break
            # x^0 m from a parent's x^0 vector: along y, or along z at b = 0
            seed = values = step(seed, 1) if b else step(below, 0) if c else below
            if not b:
                below = seed
            runs[c, b] = bound
            for a in range(bound):
                if a:
                    values = step(values, 2)
                r = len(rows)
                acc = values | 1 << (n + r) * w
                for offset, row in rows:
                    k = (acc >> offset & mask) % p
                    if k:
                        acc += (p - k) * row
                acc = residues(acc)
                if not acc & values_mask:
                    # the head, then the standard monomials descending
                    vec = unpack(acc >> n * w, nb, r + 1, p)
                    tail = [(s, k) for s, k in zip(reversed(standard), reversed(vec[:-1])) if k]
                    basis.append(Polynomial._make(field, ((_mono((c, b, a)), 1), *tail)))
                    runs[c, b] = a
                    break
                offset = lowest_slot(acc & values_mask, nb) * w
                rows.append((offset, residues(acc * pow(acc >> offset & mask, p - 2, p))))
                standard.append(_mono((c, b, a)))

    radical = all(shape == PLAIN_POINT for shape in shapes)
    return GroebnerBasis(tuple(basis), radical=radical)


def vanishing_basis(points: PointSet, field=None) -> GroebnerBasis:
    """Reduced basis of the ideal of polynomials vanishing on the points,
    built from their x-fibers (`lazard.lazard_basis`): the fat-point basis
    with the plain shape {0} at every point.  The basis is over the point
    set's own field; `field` may name that field or be None, and anything
    else raises ValueError, as does an empty set (`PointSet` has already
    checked the modulus and that the points are distinct)."""
    if field is not None and field != PrimeField(points.prime):
        raise ValueError(f"the points lie in F_{points.prime}, not in {field!r}")
    if not points.points:
        raise ValueError("empty point set")
    return GroebnerBasis(lazard_basis(points.points, PrimeField(points.prime)), radical=True)


VANISHING_POINTS = "vanishing-points"
SQUARED_VANISHING = "squared-vanishing"
RANDOM_TRIANGULAR = "random-triangular"
KINDS = (VANISHING_POINTS, SQUARED_VANISHING, RANDOM_TRIANGULAR)


@dataclass(frozen=True)
class InstanceRecipe:
    """Replayable description of a generated instance."""

    kind: str
    prime: int
    seed: int
    n_points: int | None = None
    degrees: tuple[int, int, int] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown instance kind {self.kind!r}")
        if self.kind in (VANISHING_POINTS, SQUARED_VANISHING):
            if self.n_points is None:
                raise ValueError(f"{self.kind} needs a point count")
            if self.n_points < 1:
                raise ValueError(f"{self.kind} needs a positive point count, got {self.n_points}")
        if self.kind == RANDOM_TRIANGULAR:
            if self.degrees is None or len(self.degrees) != 3 or min(self.degrees) < 1:
                raise ValueError("random-triangular needs three positive degrees")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "p": self.prime,
            "seed": self.seed,
            "n_points": self.n_points,
            "degrees": list(self.degrees) if self.degrees else None,
        }


def recipe_from_dict(data: dict) -> InstanceRecipe:
    if "kind" not in data:
        raise ValueError("recipe object must have a 'kind'")
    prime, seed = data.get("p", DEFAULT_PRIME), data.get("seed", 0)
    n_points, degrees = data.get("n_points"), data.get("degrees")
    for key, value in (("p", prime), ("seed", seed)):
        if type(value) is not int:
            raise ValueError(f"recipe field {key!r} must be an integer, got {value!r}")
    if n_points is not None and type(n_points) is not int:
        raise ValueError(f"recipe field 'n_points' must be an integer, got {n_points!r}")
    if degrees is not None and (
        not isinstance(degrees, list) or not all(type(d) is int for d in degrees)
    ):
        raise ValueError(f"recipe field 'degrees' must be a list of integers, got {degrees!r}")
    return InstanceRecipe(
        kind=data["kind"],
        prime=prime,
        seed=seed,
        n_points=n_points,
        degrees=tuple(degrees) if degrees else None,
    )


@dataclass(frozen=True)
class Instance:
    recipe: InstanceRecipe
    basis: GroebnerBasis
    points: PointSet | None


def random_triangular_basis(degrees, seed: int, prime: int = DEFAULT_PRIME) -> GroebnerBasis:
    """Reduced basis of a random triangular system, as drawn.

    The elements are f1 = x^d1 + (terms x^i), f2 = y^d2 + (terms x^i y^j)
    and f3 = z^d3 + (terms x^i y^j z^k), i < d1, j < d2, k < d3, with dense
    random coefficients.  The heads x^d1, y^d2, z^d3 are pairwise coprime,
    so the elements form a Groebner basis (Buchberger's product criterion)
    of a zero-dimensional ideal of colength d1 d2 d3, and no head divides a
    tail monomial, so that basis is already reduced.
    """
    d1, d2, d3 = degrees
    if min(degrees) < 1:
        raise ValueError(f"triangular degrees must be positive, got {tuple(degrees)}")
    field = PrimeField(prime)
    rng = random.Random(seed)
    elements = []
    # heads and tail boxes as stored exponent tuples (c, b, a); the box is
    # walked ascending, so z is outermost and x innermost
    for head, box in (((0, 0, d1), (1, 1, d1)), ((0, d2, 0), (1, d2, d1)), ((d3, 0, 0), (d3, d2, d1))):
        terms = {head: 1}
        for m in product(*map(range, box)):
            terms[m] = rng.randrange(prime)
        elements.append(Polynomial._collect(field, terms))
    return GroebnerBasis(tuple(elements))


def squared_vanishing_basis(points: PointSet) -> GroebnerBasis:
    """Reduced basis of the square of a vanishing ideal (never radical for
    a proper ideal: the quotient grows strictly beyond the point count).

    I(S)^2 is the intersection of the squares of the points' maximal ideals,
    so it is the fat-point basis with the first-order shape {0, e_x, e_y,
    e_z} at every point: f lies in it when f and its three first partials
    vanish on S."""
    return fat_point_basis(points, [FIRST_ORDER] * len(points.points))


def build_instance(recipe: InstanceRecipe) -> Instance:
    """Materialize a recipe into a basis plus generating data."""
    if recipe.kind == VANISHING_POINTS:
        pts = random_points(recipe.n_points, recipe.seed, recipe.prime)
        return Instance(recipe, vanishing_basis(pts), pts)
    if recipe.kind == SQUARED_VANISHING:
        pts = random_points(recipe.n_points, recipe.seed, recipe.prime)
        return Instance(recipe, squared_vanishing_basis(pts), pts)
    return Instance(recipe, random_triangular_basis(recipe.degrees, recipe.seed, recipe.prime), None)
