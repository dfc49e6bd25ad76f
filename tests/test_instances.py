"""Point sets, vanishing ideals, and the non-radical instance recipes."""

import random
from itertools import product

import pytest

from lexgb.field import PrimeField
from lexgb.groebner import buchberger, is_groebner_basis, normal_form, quotient_dimension
from lexgb.instances import (
    RANDOM_TRIANGULAR,
    SQUARED_VANISHING,
    VANISHING_POINTS,
    InstanceRecipe,
    PointSet,
    build_instance,
    pointset_from_dict,
    random_points,
    random_triangular_basis,
    recipe_from_dict,
    squared_vanishing_basis,
    vanishing_basis,
)
from lexgb.poly import Monomial, parse_polynomial

F101 = PrimeField(101)


def P(text, field=F101):
    return parse_polynomial(field, text)


def test_pointset_dict_round_trip():
    ps = PointSet(101, ((0, 0, 0), (1, 0, 0), (1, 0, 1)), seed=9)
    d = ps.to_dict()
    assert d == {"p": 101, "points": [[0, 0, 0], [1, 0, 0], [1, 0, 1]], "seed": 9}
    assert pointset_from_dict(d) == ps


def test_pointset_reduces_its_coordinates():
    # so points equal mod p are duplicates (see test_lazard's one-path test)
    assert PointSet(7, ((8, -1, 13), (1, 2, 3))).points == ((1, 6, 6), (1, 2, 3))
    assert PointSet(7, ((8, 2, 3),)) == PointSet(7, ((1, 2, 3),))


def test_pointset_checks_itself():
    # the one place a point set's modulus and distinctness are checked
    with pytest.raises(ValueError, match="points must be distinct"):
        PointSet(7, ((1, 2, 3), (8, 2, 3)))
    with pytest.raises(ValueError, match="modulus must be prime"):
        PointSet(8, ((1, 2, 3),))
    assert PointSet(7, ()).points == ()


def test_pointset_from_dict_reduces_mod_p():
    ps = pointset_from_dict({"p": 7, "points": [[8, -1, 14]]})
    assert ps.points == ((1, 6, 0),)


def test_pointset_from_dict_validation():
    with pytest.raises(ValueError):
        pointset_from_dict({"p": 7})
    with pytest.raises(ValueError):
        pointset_from_dict({"p": 7, "points": [[1, 2]]})
    with pytest.raises(ValueError):
        pointset_from_dict({"p": 7, "points": [[1, 2, 3], [8, 2, 3]]})


def test_random_points_reproducible_and_distinct():
    a = random_points(50, seed=4)
    b = random_points(50, seed=4)
    assert a == b
    assert len(set(a.points)) == 50
    assert all(0 <= v < 101 for pt in a.points for v in pt)
    assert random_points(50, seed=5) != a


def test_random_points_validation():
    with pytest.raises(ValueError):
        random_points(0, seed=1)
    with pytest.raises(ValueError):
        random_points(2**3 + 1, seed=1, prime=2)
    with pytest.raises(ValueError):
        random_points(3, seed=1, prime=10)


def test_random_points_exhausts_small_field():
    ps = random_points(8, seed=0, prime=2)
    assert sorted(ps.points) == [
        (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
    ]


def test_vanishing_basis_worked_example():
    ps = PointSet(101, ((0, 0, 0), (1, 0, 0), (1, 0, 1)))
    G = vanishing_basis(ps)
    assert G.elements == (
        P("x^2 + 100*x"),
        P("y"),
        P("x*z + 100*z"),
        P("z^2 + 100*z"),
    )
    assert G.radical
    assert not G.unit_ideal
    assert quotient_dimension(G) == 3


def test_vanishing_basis_single_point():
    G = vanishing_basis(PointSet(101, ((3, 5, 7),)))
    assert G.elements == (P("x + 98"), P("y + 96"), P("z + 94"))


def test_vanishing_basis_full_line_small_field():
    F5 = PrimeField(5)
    ps = PointSet(5, tuple((t, 0, 0) for t in range(5)))
    G = vanishing_basis(ps)
    assert G.elements == (
        P("x^5 + 4*x", F5),
        P("y", F5),
        P("z", F5),
    )


def test_vanishing_basis_rejects_bad_input():
    with pytest.raises(ValueError):
        vanishing_basis(PointSet(101, ()))
    with pytest.raises(ValueError):
        vanishing_basis(PointSet(101, ((1, 2, 3), (1, 2, 3))))


def test_vanishing_basis_oracles_random():
    """Evaluation-zero and dimension-count hold on random point sets."""
    rng = random.Random(83)
    for trial in range(25):
        n = rng.randrange(1, 9)
        ps = random_points(n, seed=1000 + trial)
        G = vanishing_basis(ps)
        assert G.radical
        assert is_groebner_basis(G)
        for g in G.elements:
            for pt in ps.points:
                assert not g.evaluate(pt)
        assert quotient_dimension(G) == n


def test_squared_vanishing_origin():
    G = squared_vanishing_basis(PointSet(101, ((0, 0, 0),)))
    assert [g.text() for g in G.elements] == ["x^2", "x*y", "y^2", "x*z", "y*z", "z^2"]
    assert not G.radical
    assert quotient_dimension(G) == 4


def test_squared_vanishing_grows_quotient():
    rng = random.Random(89)
    for trial in range(6):
        n = rng.randrange(1, 4)
        ps = random_points(n, seed=2000 + trial)
        G = squared_vanishing_basis(ps)
        assert not G.radical
        assert is_groebner_basis(G)
        assert quotient_dimension(G) > n
        # the squared ideal still vanishes on the points
        for g in G.elements:
            for pt in ps.points:
                assert not g.evaluate(pt)


def test_random_triangular_shape():
    G = random_triangular_basis((3, 2, 2), seed=5)
    assert len(G) == 3
    assert [g.lm() for g in G.elements] == [
        Monomial(3, 0, 0),
        Monomial(0, 2, 0),
        Monomial(0, 0, 2),
    ]
    assert quotient_dimension(G) == 12
    assert is_groebner_basis(G)
    assert random_triangular_basis((3, 2, 2), seed=5).elements == G.elements
    assert random_triangular_basis((3, 2, 2), seed=6).elements != G.elements


def test_random_triangular_degree_one():
    G = random_triangular_basis((1, 1, 1), seed=0)
    assert quotient_dimension(G) == 1
    with pytest.raises(ValueError):
        random_triangular_basis((2, 0, 1), seed=0)


@pytest.mark.parametrize("degrees", list(product((1, 2, 3), repeat=3)))
@pytest.mark.parametrize("p", [2, 3, 7, 101, 1009])
def test_random_triangular_basis_is_reduced_as_drawn(p, degrees):
    T = random_triangular_basis(degrees, 0, p)
    assert T == buchberger(T.elements)
    assert not T.unit_ideal
    d1, d2, d3 = degrees
    assert quotient_dimension(T) == d1 * d2 * d3


def test_recipe_validation():
    with pytest.raises(ValueError):
        InstanceRecipe(kind="mystery", prime=101, seed=0)
    with pytest.raises(ValueError):
        InstanceRecipe(kind=VANISHING_POINTS, prime=101, seed=0)
    with pytest.raises(ValueError):
        InstanceRecipe(kind=RANDOM_TRIANGULAR, prime=101, seed=0, degrees=(1, 2))
    with pytest.raises(ValueError):
        InstanceRecipe(kind=RANDOM_TRIANGULAR, prime=101, seed=0, degrees=(0, 2, 2))


def test_recipe_dict_round_trip():
    r = InstanceRecipe(kind=SQUARED_VANISHING, prime=101, seed=12, n_points=4)
    assert recipe_from_dict(r.to_dict()) == r
    t = InstanceRecipe(kind=RANDOM_TRIANGULAR, prime=101, seed=3, degrees=(2, 2, 3))
    assert recipe_from_dict(t.to_dict()) == t
    with pytest.raises(ValueError):
        recipe_from_dict({"p": 101})


def test_build_instance_dispatch():
    inst = build_instance(InstanceRecipe(VANISHING_POINTS, 101, seed=1, n_points=3))
    assert inst.basis.radical
    assert inst.points is not None and len(inst.points) == 3
    assert quotient_dimension(inst.basis) == 3

    inst = build_instance(InstanceRecipe(SQUARED_VANISHING, 101, seed=1, n_points=2))
    assert not inst.basis.radical
    assert inst.points is not None and len(inst.points) == 2

    inst = build_instance(InstanceRecipe(RANDOM_TRIANGULAR, 101, seed=1, degrees=(2, 2, 2)))
    assert not inst.basis.radical
    assert inst.points is None
    assert quotient_dimension(inst.basis) == 8
