"""Zero-dimensional instance generators: vanishing ideals and probe ideals.

Vanishing ideals of finite point sets are radical by construction and come
with two built-in oracles: every basis element evaluates to zero on every
point, and the quotient dimension equals the number of points.  The two
non-radical recipes (squared vanishing ideals, random triangular systems)
provide instances without the radicality guarantee.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .field import PrimeField
from .groebner import GroebnerBasis, buchberger
from .poly import MONOMIAL_ONE, Monomial, Polynomial


@dataclass(frozen=True)
class PointSet:
    """Distinct points of F_p^3 with the seed that produced them."""

    prime: int
    points: tuple[tuple[int, int, int], ...]
    seed: int | None = None

    def __len__(self):
        return len(self.points)

    def to_dict(self) -> dict:
        return {"p": self.prime, "points": [list(pt) for pt in self.points], "seed": self.seed}


def pointset_from_dict(data: dict) -> PointSet:
    if "points" not in data or "p" not in data:
        raise ValueError("point set object must have 'p' and 'points'")
    p = data["p"]
    PrimeField(p)  # validates the modulus
    if not isinstance(data["points"], list):
        raise ValueError("'points' must be a list")
    pts = []
    for pt in data["points"]:
        if not isinstance(pt, list) or len(pt) != 3 or not all(type(v) is int for v in pt):
            raise ValueError(f"point must be three integer coordinates, got {pt!r}")
        pts.append(tuple(v % p for v in pt))
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
    return PointSet(p, tuple(pts), data.get("seed"))


def random_points(n: int, seed: int, prime: int = 101) -> PointSet:
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


def vanishing_basis(points: PointSet, field=None) -> GroebnerBasis:
    """Reduced basis of the ideal of polynomials vanishing on the points.

    Standard evaluation-matrix elimination: monomials are visited in
    ascending lex order; a monomial whose evaluation vector is dependent
    on those of the standard monomials found so far yields a basis
    element (the dependency certificate), an independent one is standard.
    Each basis element is monic with all tail monomials standard, so the
    output is the unique reduced basis.
    """
    if field is None:
        field = PrimeField(points.prime)
    if not points.points:
        raise ValueError("empty point set")
    if len(set(points.points)) != len(points.points):
        raise ValueError("points must be distinct")
    pts = [tuple(field(v) for v in pt) for pt in points.points]
    npts = len(pts)
    zero = field.zero

    # rows: (pivot index, reduced evaluation vector, combination over standard monomials)
    rows: list[tuple[int, list, dict]] = []
    basis: list[Polynomial] = []
    heads: list[Monomial] = []
    candidates: list[Monomial] = [MONOMIAL_ONE]

    while candidates:
        candidates.sort(key=Monomial.lex_key)
        m = candidates.pop(0)
        if any(h.divides(m) for h in heads):
            continue
        vec = [px**m.a * py**m.b * pz**m.c for px, py, pz in pts]
        comb = {m: field.one}
        for pivot, rvec, rcomb in rows:
            if vec[pivot] == zero:
                continue
            factor = vec[pivot] / rvec[pivot]
            vec = [v - factor * r for v, r in zip(vec, rvec)]
            for mon, coeff in rcomb.items():
                comb[mon] = comb.get(mon, zero) - factor * coeff
        if all(v == zero for v in vec):
            basis.append(Polynomial(field, comb.items()))
            heads.append(m)
        else:
            pivot = next(i for i in range(npts) if vec[i] != zero)
            rows.append((pivot, vec, comb))
            for step in (Monomial(1, 0, 0), Monomial(0, 1, 0), Monomial(0, 0, 1)):
                child = m * step
                if child not in candidates and not any(h.divides(child) for h in heads):
                    candidates.append(child)

    basis.sort(key=lambda g: g.lm().lex_key())
    return GroebnerBasis(tuple(basis), radical=True)


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
        if self.kind in (VANISHING_POINTS, SQUARED_VANISHING) and not self.n_points:
            raise ValueError(f"{self.kind} needs a point count")
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
    prime, seed = data.get("p", 101), data.get("seed", 0)
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


def _random_kx(field, rng, max_deg: int) -> list[tuple[Monomial, object]]:
    return [(Monomial(i, 0, 0), field(rng.randrange(field.p))) for i in range(max_deg)]


def random_triangular_basis(degrees, seed: int, prime: int = 101) -> GroebnerBasis:
    """Reduced basis of a random triangular system.

    The generators are f1 in k[x], f2 monic of the given degree in y, f3
    monic in z, with dense random lower-order terms.  The heads x^d1,
    y^d2, z^d3 are pairwise coprime, so the system is zero-dimensional;
    a degenerate draw (unit ideal) is retried on a shifted seed.
    """
    d1, d2, d3 = degrees
    field = PrimeField(prime)
    for attempt in range(10):
        rng = random.Random(seed + attempt)
        f1 = Polynomial(field, [(Monomial(d1, 0, 0), field.one)] + _random_kx(field, rng, d1))
        t2 = [(Monomial(0, d2, 0), field.one)]
        for j in range(d2):
            for i in range(d1):
                t2.append((Monomial(i, j, 0), field(rng.randrange(prime))))
        f2 = Polynomial(field, t2)
        t3 = [(Monomial(0, 0, d3), field.one)]
        for k in range(d3):
            for j in range(d2):
                for i in range(d1):
                    t3.append((Monomial(i, j, k), field(rng.randrange(prime))))
        f3 = Polynomial(field, t3)
        G = buchberger([f1, f2, f3], radical=False)
        if not G.unit_ideal:
            return G
    raise RuntimeError(f"no nondegenerate triangular draw in 10 attempts from seed {seed}")


def squared_vanishing_basis(points: PointSet, field=None) -> GroebnerBasis:
    """Reduced basis of the square of a vanishing ideal (never radical for
    a proper ideal: the quotient grows strictly beyond the point count)."""
    V = vanishing_basis(points, field)
    gens = []
    for i in range(len(V)):
        for j in range(i, len(V)):
            gens.append(V[i] * V[j])
    return buchberger(gens, radical=False)


def build_instance(recipe: InstanceRecipe) -> Instance:
    """Materialize a recipe into a basis plus generating data."""
    if recipe.kind == VANISHING_POINTS:
        pts = random_points(recipe.n_points, recipe.seed, recipe.prime)
        return Instance(recipe, vanishing_basis(pts), pts)
    if recipe.kind == SQUARED_VANISHING:
        pts = random_points(recipe.n_points, recipe.seed, recipe.prime)
        return Instance(recipe, squared_vanishing_basis(pts), pts)
    return Instance(recipe, random_triangular_basis(recipe.degrees, recipe.seed, recipe.prime), None)
