"""Output checks that share no code with lexgb.

A basis is read through its public serialization (`Polynomial.to_dict`)
into plain integer terms (a, b, c, coefficient), and every test below uses
only Python integers modulo p.  Each function returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations


def basis_terms(basis) -> list[list[tuple[int, int, int, int]]]:
    """Plain (a, b, c, coefficient) terms of each element, in basis order."""
    out = []
    for g in basis:
        out.append([(t["e"][0], t["e"][1], t["e"][2], int(t["c"])) for t in g.to_dict()["terms"]])
    return out


def _head(terms):
    # lex with x < y < z: compare z, then y, then x
    return max(terms, key=lambda t: (t[2], t[1], t[0]))


def _divides(m, n) -> bool:
    return m[0] <= n[0] and m[1] <= n[1] and m[2] <= n[2]


def _value(terms, pt, p) -> int:
    x, y, z = pt
    return sum(c * pow(x, a, p) * pow(y, b, p) * pow(z, e, p) for a, b, e, c in terms) % p


def _partial(terms, axis):
    out = []
    for t in terms:
        if t[axis]:
            e = list(t[:3])
            e[axis] -= 1
            out.append((e[0], e[1], e[2], t[3] * t[axis]))
    return out


def _shape_problems(polys, p, quotient_dim) -> list[str]:
    """Monic, reduced and zero-dimensional with the given number of
    standard monomials, all read off the terms alone."""
    problems = []
    if not polys or any(not terms for terms in polys):
        return ["empty basis or zero element"]
    if any(c % p == 0 for terms in polys for *_, c in terms):
        problems.append("zero coefficient stored")
    heads = [_head(terms)[:3] for terms in polys]
    for i, terms in enumerate(polys):
        if _head(terms)[3] % p != 1:
            problems.append(f"element {i + 1} is not monic")
        for j, h in enumerate(heads):
            if j != i and _divides(h, heads[i]):
                problems.append(f"head {j + 1} divides head {i + 1}")
        for t in terms:
            if t[:3] != heads[i] and any(_divides(h, t[:3]) for h in heads):
                problems.append(f"tail of element {i + 1} is reducible")
                break
    bounds = []
    for axis in range(3):
        pure = [h[axis] for h in heads if all(h[k] == 0 for k in range(3) if k != axis)]
        if not pure:
            return problems + [f"no pure power of variable {axis} among the heads"]
        bounds.append(min(pure))
    dx, dy, dz = bounds
    standard = sum(
        1
        for a in range(dx)
        for b in range(dy)
        for c in range(dz)
        if not any(_divides(h, (a, b, c)) for h in heads)
    )
    if standard != quotient_dim:
        problems.append(f"{standard} standard monomials, expected {quotient_dim}")
    return problems


def vanishing_problems(polys, points, p) -> list[str]:
    """Problems with `polys` as the reduced lex basis of the ideal of `points`.

    Every element vanishes on every point, so the basis spans a subideal J
    of I(points).  Its heads leave exactly len(points) standard monomials,
    which bounds dim k[x,y,z]/J from above by len(points), while J inside
    I(points) bounds it from below.  Hence J = I(points), the heads span
    its leading-term ideal, and with monic, reduced elements the basis is
    the reduced one.
    """
    problems = _shape_problems(polys, p, len(points))
    for i, terms in enumerate(polys):
        for pt in points:
            if _value(terms, pt, p):
                problems.append(f"element {i + 1} is nonzero at {pt}")
                break
    return problems


def squared_problems(polys, points, p) -> list[str]:
    """Problems with `polys` as the reduced lex basis of I(points)^2.

    Vanishing to order two at every point (value and the three first
    partials zero) puts each element in the intersection of the squared
    maximal ideals, which is I(points)^2 for distinct rational points; that
    ideal has colength 4 * len(points), so the standard-monomial count
    closes the argument as in `vanishing_problems`.
    """
    problems = _shape_problems(polys, p, 4 * len(points))
    for i, terms in enumerate(polys):
        for f in (terms, _partial(terms, 0), _partial(terms, 1), _partial(terms, 2)):
            bad = [pt for pt in points if _value(f, pt, p)]
            if bad:
                problems.append(f"element {i + 1} does not vanish to order two at {bad[0]}")
                break
    return problems
