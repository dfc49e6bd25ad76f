"""Specialization of x (and y): image bases, degree preservation, solving.

The roots of univariate eliminants come from `univariate`, which finds
them without a pass over every residue of F_p.
"""

from __future__ import annotations

from typing import NamedTuple

from .groebner import GroebnerBasis, is_groebner_basis, normal_form, structure_facts
from .poly import MONOMIAL_ONE, Monomial, Polynomial, _images
from .univariate import _dense_length, _has_root, _horner, _quo, _roots, _trim


class NonSplitError(RuntimeError):
    """A univariate eliminant has an irreducible factor of degree > 1."""

    def __init__(self, poly: Polynomial, cofactor_degree: int):
        self.poly = poly
        self.cofactor_degree = cofactor_degree
        super().__init__(
            f"{poly.text()} does not split: a degree-{cofactor_degree} factor has no roots"
        )


def _dense(f: Polynomial) -> list:
    """The coefficient list of f, a nonzero polynomial over F_p in one
    variable, the one its head is a power of; raises ValueError otherwise."""
    if f.is_zero():
        raise ValueError("the zero polynomial has every point as a root")
    c, b, a = f.lm()  # a Monomial stores its exponents as (c, b, a)
    k = 2 if a else 1 if b else 0
    # a mixed head raises first; past a pure power no term has a higher one
    out = [0] * _dense_length(a or b or c)
    for m, coefficient in f.terms:
        e = m[k]
        if sum(m) != e:
            raise ValueError(f"{f.text()} is not univariate in {'zyx'[k]}")
        out[e] = coefficient
    return out


def roots_univariate(f: Polynomial) -> list:
    """All roots of f in F_p, ascending; f must be a nonzero polynomial in
    one variable, whichever its head names (see `_dense`)."""
    return _roots(_dense(f), f.field.p)


def split_roots(f: Polynomial):
    """Roots of a univariate polynomial (see `roots_univariate`) plus the
    degree of its root-free part, 0 exactly when f is a product of linear
    factors over F_p."""
    roots = roots_univariate(f)
    return roots, _cofactor_degree(_dense(f), roots, f.field.p)


def _cofactor_degree(f: list, roots: list, p: int) -> int:
    """The degree of a nonzero dense f (see `univariate`) with the linear
    factors of all its roots divided out, with multiplicity."""
    if len(roots) == len(f) - 1:
        # deg f distinct roots: f is their linear factors times a constant
        return 0
    for r in roots:
        linear = [-r % p, 1]
        while _horner(f, r, p) == 0:
            f = _quo(f, linear, p)
    return len(f) - 1


def _common_roots(polys: list, p: int):
    """The common roots in F_p of dense univariate polys (see `univariate`):
    the roots of the eliminant, the first shortest nonzero poly, at which
    every other poly vanishes; a nonzero constant has none.  Returns (roots,
    index of the eliminant, cofactor degree of the eliminant)."""
    eliminant = min(filter(None, polys), key=len)
    roots = _roots(eliminant, p)
    others = [f for f in polys if f and f is not eliminant]
    common = tuple(r for r in roots if not any(_horner(f, r, p) for f in others))
    return common, polys.index(eliminant), _cofactor_degree(eliminant, roots, p)


def _slice(image: Polynomial, beta: int, p: int) -> list:
    """image(beta, z) as a dense z-list (see `univariate`), for an image in
    k[y, z]: slot c sums k * beta^b over its terms k * y^b * z^c."""
    if not image.terms:
        return []
    out = [0] * _dense_length(image.terms[0][0][0])
    for (c, b, _), k in image.terms:
        out[c] += k * pow(beta, b, p)
    return _trim([c % p for c in out])


class _Fiber(NamedTuple):
    alpha: int
    images: tuple  # g(alpha, y, z) for every element g, in basis order
    betas: tuple  # the common roots of the prefix images, ascending
    eliminant: Polynomial  # the prefix image whose roots the betas are
    stuck: int  # cofactor degree of the eliminant


class _FiberView(NamedTuple):
    skipped: str | None  # why the fibers cannot be walked, else None
    stuck: int  # cofactor degree of g_1
    fibers: tuple[_Fiber, ...]  # one per root alpha of g_1, ascending


def _fiber_view(G: GroebnerBasis) -> _FiberView:
    """The fibers of G, walked down to the points once per basis and kept
    on it (see `GroebnerBasis`): x = alpha at each root of g_1, then y =
    beta at each common root of the images of the elimination prefix
    g_1..g_ell2, whose last has a pure power of y as head and so a nonzero
    image.  `solve_system` reads this view, and so do the fiber checks on
    every basis whose heads do not settle them (see `_pure_power_heads`),
    with one `_images` pass over every element.  The view holds no
    (alpha, beta) slice: `solve_system` and `gianni_kalkbrener` read them
    off the alpha-images (`_slice`).  It needs a zero-dimensional basis over F_p
    with every element in its band (see `structure_facts`), so that the
    prefix images lie in k[y] and the slices in k[z]; on any other basis,
    `skipped` says why.

    The roots of any lc_x(g_i) are the alphas at which it vanishes, because
    on a minimal lex Groebner basis every irreducible factor of
    u = lc_x(g_i) divides g_1.  Proof: let i > 1 and lm(g_i) = x^a * m with
    m a monomial in y and z, m != 1, so a < deg g_1.  Write u = h * u',
    where u' is the product of the factors of u coprime to g_1.  Take v
    with v * u' = 1 mod g_1 and w with v * u = h + w * g_1.  Then
    f = v * g_i - w * m * g_1 lies in the ideal and has head
    x^(deg h) * m, which some lm(g_j) divides.  If u' were not constant,
    that head would properly divide lm(g_i), against minimality.
    """
    return G._memoized(_walk_fibers)


def _walk_fibers(G: GroebnerBasis) -> _FiberView:
    facts = structure_facts(G)
    if not facts.zero_dim:
        return _FiberView(f"not zero-dimensional: {facts.missing}", 0, ())
    if facts.band_violations:
        return _FiberView(f"elements outside their bands: {list(facts.band_violations)}", 0, ())
    roots, stuck = split_roots(G.elements[0])
    zero = Polynomial(G.field)
    fibers = []
    for alpha, rest in zip(roots, _images(G.elements[1:], 0, roots)):
        # g_1 vanishes at each of its roots, so its image is zero unsubstituted
        images = (zero,) + rest
        prefix = [_dense(img) if img else [] for img in images[: facts.ell2]]
        betas, j, beta_stuck = _common_roots(prefix, G.field.p)
        fibers.append(_Fiber(alpha, images, betas, images[j], beta_stuck))
    return _FiberView(None, stuck, tuple(fibers))


def _pure_power_heads(G: GroebnerBasis) -> bool:
    """Whether G has three elements and is zero-dimensional (see
    `structure_facts`): then g_1 in k[x] is headed x^a, g_2 y^b and g_3 z^c
    with b, c >= 1, and the prefix is g_1, g_2.  The three fiber checks
    then need no fiber view: their statements hold with no content.

    Proof.  If a = 0, g_1 is a nonzero constant with no root, so there is
    no fiber, and the view gives what the checks return here.  Let a >= 1.
    The order compares (y, z) parts before x, so no term of g_2 or g_3 is
    the (y, z) part of its head times a power of x: lc_x(g_2) and
    lc_x(g_3) are nonzero constants.  At every root alpha of g_1 the images
    of g_2 and g_3 therefore keep the heads y^b and z^c (see
    `_lc_x_vanishes`), so `specialization_image` finds no image that loses
    its head, and the heads y^b and z^c are coprime, so
    `is_groebner_basis` skips the only pair of the images.  At every
    (alpha, beta) the image of g_3 keeps z^c, with a nonzero constant
    coefficient, so `gianni_kalkbrener` finds no degree drop.  In
    `fiber_membership` only i = 1 can qualify, since lc_x(g_2) is a unit;
    it qualifies at every root alpha of g_1, whose image there is zero,
    and g_2's head has no z, so its image is its own lc_xy and leaves no
    remainder.  That check therefore returns no witness when g_1 has a root
    in F_p, and its note that none qualifies otherwise.
    """
    return len(G.elements) == 3 and structure_facts(G).zero_dim


def _lc_x_vanishes(g: Polynomial, image: Polynomial) -> bool:
    """Whether lc_x(g) vanishes at the alpha where image = g(alpha, y, z).

    Holds for any nonzero g.  The order compares (y, z) parts before x, so
    the terms of g whose (y, z) part equals lm(g)'s sum to
    lc_x(g) * lm_yz(g), and every other term has a lower (y, z) part.
    Setting x = alpha maps each (y, z) part's terms to one term, so the
    image has head lm_yz(g) with coefficient lc_x(g)(alpha) when that value
    is nonzero, and is zero or has a lower head when it is zero.
    """
    return image.is_zero() or image.lm() != g.lm_yz()


def check_specialization_image(G: GroebnerBasis) -> list[dict] | str:
    """At every root alpha of g_1, each remaining element either vanishes or
    keeps a nonvanishing leading x-coefficient, read off its image (see
    `_lc_x_vanishes`), and the nonzero images satisfy the S-pair criterion
    in k[y, z].  Like the other fiber checks, it assumes a basis that passes
    basis_integrity, as `verify_all` guarantees, and reads no image when the
    heads are x^a, y^b, z^c (see `_pure_power_heads`)."""
    if _pure_power_heads(G):
        return []
    view = _fiber_view(G)
    if view.skipped:
        return view.skipped
    witnesses = []
    for fiber in view.fibers:
        alpha, images = fiber.alpha, []
        for idx, (g, img) in enumerate(zip(G.elements[1:], fiber.images[1:]), start=1):
            if img.is_zero():
                continue
            if _lc_x_vanishes(g, img):
                reason = "nonzero image though the leading x-coefficient vanishes"
                witnesses.append({"alpha": alpha, "i": idx + 1, "image": img.text(), "reason": reason})
                continue
            images.append(img)
        if images and not is_groebner_basis(images):
            witnesses.append(
                {"alpha": alpha, "reason": "specialized set fails the S-pair criterion"}
            )
    return witnesses


def check_gianni_kalkbrener(G: GroebnerBasis) -> list[dict] | str:
    """At every solution (alpha, beta) of the elimination prefix, each element
    past the prefix keeps its z degree after specialization (or vanishes).
    Assumes a basis that passes basis_integrity.  Each degree is read off
    the slice at beta of the element's alpha-image (`_slice`); a zero slice
    has no degree to lose.  Heads x^a, y^b, z^c settle it with no image
    (see `_pure_power_heads`)."""
    if _pure_power_heads(G):
        return []
    view = _fiber_view(G)
    if view.skipped:
        return view.skipped
    p = G.field.p
    ell2 = structure_facts(G).ell2
    degrees = [g.lm().c for g in G.elements[ell2:]]
    witnesses = []
    for fiber in view.fibers:
        images = fiber.images[ell2:]
        for beta in fiber.betas:
            for j, (img, c) in enumerate(zip(images, degrees)):
                d = len(_slice(img, beta, p)) - 1
                if d >= 0 and d != c:
                    witnesses.append(
                        {
                            "alpha": fiber.alpha,
                            "beta": beta,
                            "i": ell2 + 1 + j,
                            "image_z_degree": d,
                            "head_z_degree": c,
                        }
                    )
    return witnesses


_NONE_QUALIFIES = "no non-unit leading x-coefficient with the successor nonvanishing"


def check_fiber_membership(G: GroebnerBasis) -> list[dict] | str:
    """Where lc_x(g_i) is not a unit and alpha is one of its roots missed by
    lc_x(g_{i+1}): g_i vanishes at x = alpha and g_{i+1} lies in the ideal
    generated by x - alpha and lc_xy(g_{i+1}) at x = alpha.  Assumes a basis
    that passes basis_integrity: the roots of lc_x(g_i) are then read off
    the roots of g_1 (see `_fiber_view`), and whether one of them is a root
    is read off the image there (see `_lc_x_vanishes`).  Heads x^a, y^b,
    z^c leave only whether g_1 has a root (see `_pure_power_heads`)."""
    if _pure_power_heads(G):
        return [] if _has_root(_dense(G.elements[0]), G.field.p) else _NONE_QUALIFIES
    view = _fiber_view(G)
    if view.skipped:
        return view.skipped
    elems = G.elements
    witnesses = []
    qualified = False
    for i in range(len(elems) - 1):
        if not elems[i].lm().a:  # lc_x(g_i) is a unit
            continue
        for fiber in view.fibers:
            alpha, images = fiber.alpha, fiber.images
            succ = images[i + 1]
            if not _lc_x_vanishes(elems[i], images[i]) or _lc_x_vanishes(elems[i + 1], succ):
                continue
            qualified = True
            if not images[i].is_zero():
                reason = "element does not vanish on its fiber"
                witnesses.append({"i": i + 1, "alpha": alpha, "reason": reason})
            if not elems[i + 1].lm().c:  # the image keeps the head, so it lies in k[y]
                continue  # and is its own lc_xy
            # the image keeps the head of g_{i+1}, so its top z block is
            # lc_xy(g_{i+1}) at x = alpha.  The heads x and y^k are coprime,
            # so x - alpha and that block form a Groebner basis, and since
            # g_{i+1} = image mod x - alpha, reducing the image by the block
            # gives the normal form of g_{i+1} modulo the pair
            fiber_gen = succ.lc_xy()
            r = normal_form(succ, [fiber_gen])
            if not r.is_zero():
                linear = Polynomial(G.field, [(Monomial(1, 0, 0), 1), (MONOMIAL_ONE, -alpha)])
                modulo = [linear.text(), fiber_gen.text()]
                witnesses.append({"i": i + 2, "alpha": alpha, "normal_form": r.text(), "modulo": modulo})
    return witnesses if qualified else _NONE_QUALIFIES


def solve_system(G: GroebnerBasis) -> tuple[tuple[int, int, int], ...]:
    """All F_p solutions of a zero-dimensional system, by back-substitution.

    Roots of g_1 give the x values.  At each, the betas come from the
    elimination prefix; each (alpha, beta) slice, dense z-lists read off
    the alpha-images, is solved for z, and a solution must satisfy every
    element of the slice.  Raises NonSplitError
    when an eliminant has an irreducible factor of degree > 1 (solutions
    would then live in an extension field), and ValueError when the
    unit_ideal flag disagrees with the elements.
    """
    unit = any(g.is_constant() and not g.is_zero() for g in G.elements)
    if unit != G.unit_ideal:
        raise ValueError("the unit_ideal flag disagrees with the elements")
    if unit:
        return ()
    view = _fiber_view(G)
    if view.skipped:
        raise ValueError(view.skipped)
    if view.stuck:
        raise NonSplitError(G.elements[0], view.stuck)

    p = G.field.p
    ell2 = structure_facts(G).ell2
    solutions = []
    for fiber in view.fibers:
        if fiber.stuck:
            raise NonSplitError(fiber.eliminant, fiber.stuck)
        past = fiber.images[ell2:]
        for beta in fiber.betas:
            # the pure power of z heading g_n keeps a nonzero slice
            slices = [_slice(img, beta, p) for img in past]
            gammas, j, stuck = _common_roots(slices, p)
            if stuck:
                eliminant = [(Monomial(0, 0, c), k) for c, k in enumerate(slices[j])]
                raise NonSplitError(Polynomial(G.field, eliminant), stuck)
            solutions.extend((fiber.alpha, beta, gamma) for gamma in gammas)
    solutions.sort()
    return tuple(solutions)
