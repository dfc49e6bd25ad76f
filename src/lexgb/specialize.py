"""Specialization of x (and y): image bases, degree preservation, solving.

Roots in F_p come from gcd(f, x^p - x), split by equal-degree
factorization (Cantor-Zassenhaus), so finding them costs a polynomial in
log p and deg f rather than a pass over every residue.  The rational mode
has no such root finder, so these operations require prime-field
coefficients.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from typing import NamedTuple

from .field import PrimeField
from .groebner import GroebnerBasis, is_groebner_basis, normal_form, structure_facts
from .poly import MONOMIAL_ONE, Monomial, Polynomial
from .report import CheckReport, SKIPPED, gated_report


class NonSplitError(RuntimeError):
    """A univariate eliminant has an irreducible factor of degree > 1."""

    def __init__(self, poly: Polynomial, cofactor_degree: int):
        self.poly = poly
        self.cofactor_degree = cofactor_degree
        super().__init__(
            f"{poly.text()} does not split: a degree-{cofactor_degree} factor has no roots"
        )


# -- dense univariate arithmetic over F_p -------------------------------------
# Coefficient lists of plain ints in [0, p), lowest degree first, with no
# trailing zeros; [] is the zero polynomial.


def _trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _rem(f: list, g: list, p: int) -> list:
    """f mod g for a nonzero g; the entries of f need not be reduced mod p."""
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], p - 2, p)
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i] % p * inv % p
        if c:
            shift = i - dg
            for j in range(dg):
                f[shift + j] -= c * g[j]
    return _trim([c % p for c in f[:dg]])


def _quo(f: list, g: list, p: int) -> list:
    """The exact quotient f / g for a monic g that divides f."""
    f = list(f)
    dg = len(g) - 1
    q = [0] * (len(f) - dg)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = f[i + dg]
        if c:
            for j in range(dg + 1):
                f[i + j] = (f[i + j] - c * g[j]) % p
    return q


def _mulmod(a: list, b: list, m: list, p: int) -> list:
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] += ca * cb
    return _rem(prod, m, p)


def _powmod(base: list, e: int, m: list, p: int) -> list:
    """base^e mod m, by repeated squaring."""
    out = [1]
    base = _rem(base, m, p)
    while e:
        if e & 1:
            out = _mulmod(out, base, m, p)
        e >>= 1
        if e:
            base = _mulmod(base, base, m, p)
    return out


def _sub_xpow(f: list, e: int, p: int) -> list:
    """f - x^e."""
    f = f + [0] * (e + 1 - len(f))
    f[e] = (f[e] - 1) % p
    return _trim(f)


def _monic_gcd(a: list, b: list, p: int) -> list:
    while b:
        a, b = b, _rem(a, b, p)
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _split(g: list, p: int, out: list, first_shift: int = 1) -> None:
    """Append the roots of g, a monic product of distinct linear factors.

    gcd(g, (x + a)^((p-1)/2) - 1) keeps the roots r with r + a a nonzero
    square.  For two distinct roots about half of all shifts a separate
    them, so few shifts are tried.  A shift that fails on g fails on its
    factors too, so they go on from the shift after the one that split g.
    """
    if len(g) == 2:
        out.append(-g[0] % p)
    elif len(g) > 2:
        if p == 2:
            # g divides x^2 - x, so here g = x(x + 1); (p - 1)/2 = 0 leaves
            # nothing to split with below
            out.extend((0, 1))
            return
        for a in count(first_shift):
            h = _monic_gcd(g, _sub_xpow(_powmod([a % p, 1], (p - 1) // 2, g, p), 0, p), p)
            if 1 < len(h) < len(g):
                _split(h, p, out, a + 1)
                _split(_quo(g, h, p), p, out, a + 1)
                return


def _roots(f: list, p: int) -> list:
    """The distinct roots of a nonzero f in F_p, ascending."""
    if len(f) < 2:
        return []
    if len(f) == 2:
        return [-f[0] * pow(f[1], p - 2, p) % p]
    # gcd(f, x^p - x) is the product of the distinct linear factors of f;
    # when f divides x^p - x the remainder x^p mod f - x is zero
    g = _monic_gcd(f, _sub_xpow(_powmod([0, 1], p, f, p), 1, p), p)
    out: list = []
    _split(g, p, out)
    return sorted(out)


def _horner(f: list, v: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * v + c) % p
    return acc


def _coefficients(f: Polynomial) -> list:
    """The coefficient list of f in k[x] over F_p."""
    out = [0] * (f.max_degrees()[0] + 1)
    for m, c in f.terms:
        out[m.a] = c
    return _trim(out)


def roots_univariate(f: Polynomial) -> list:
    """All roots of f in F_p, ascending; f must be a nonzero element of k[x]."""
    if not isinstance(f.field, PrimeField):
        raise ValueError("root finding needs prime-field coefficients")
    if f.is_zero():
        raise ValueError("the zero polynomial has every point as a root")
    if not f.in_kx():
        raise ValueError(f"{f.text()} is not univariate in x")
    return _roots(_coefficients(f), f.field.p)


def _as_kx(h: Polynomial, axis: int) -> Polynomial:
    """Rewrite a polynomial univariate in the given axis (0=x, 1=y, 2=z) into k[x]."""
    k = 2 - axis  # a Monomial stores its exponents as (c, b, a)
    if any(sum(m) != m[k] for m, _ in h.terms):
        raise ValueError(f"{h.text()} is not univariate in axis {axis}")
    return Polynomial(h.field, [(Monomial(m[k], 0, 0), c) for m, c in h.terms])


def split_roots(f: Polynomial, axis: int = 0):
    """Roots of a univariate polynomial plus the degree of its root-free part.

    The cofactor degree is 0 exactly when f is a product of linear factors
    over F_p (counted with multiplicity).
    """
    g = _as_kx(f, axis)
    roots = roots_univariate(g)
    p = g.field.p
    cofactor = _coefficients(g)
    for r in roots:
        linear = [-r % p, 1]
        while _horner(cofactor, r, p) == 0:
            cofactor = _quo(cofactor, linear, p)
    return roots, len(cofactor) - 1


def _fiber_betas(prefix_images):
    """The betas at which every image of the elimination prefix vanishes.

    The prefix images are those of g_1..g_ell2 at one root alpha, and are
    evaluated at (y, z) = (beta, 0).  The betas are the roots of the
    nonzero image with the smallest head, filtered by the others.  The head
    of g_ell2 is a pure power of y, so its image is never zero and the
    smallest head has no z.  Returns (betas, eliminant, cofactor degree
    of the eliminant).
    """
    images = [h for h in prefix_images if not h.is_zero()]
    eliminant = min(images, key=Polynomial.lm)
    roots, stuck = split_roots(eliminant, axis=1)
    others = [h for h in images if h is not eliminant]
    betas = tuple(b for b in roots if not any(h.evaluate((0, b, 0)) for h in others))
    return betas, eliminant, stuck


class _Fiber(NamedTuple):
    alpha: int
    images: tuple  # g(alpha, y, z) for every element g, in basis order
    betas: tuple
    eliminant: Polynomial  # the prefix image whose roots the betas are
    stuck: int  # cofactor degree of the eliminant


class _FiberView(NamedTuple):
    skipped: str | None  # why the fibers cannot be walked, else None
    stuck: int  # cofactor degree of g_1
    fibers: tuple[_Fiber, ...]  # one per root alpha of g_1, ascending


@lru_cache(maxsize=1)
def _fiber_view(G: GroebnerBasis) -> _FiberView:
    """The fibers of G over the roots of g_1, built once per basis.

    The fiber checks and `solve_system` all read this view, so `verify_all`
    finds the roots of g_1 and substitutes each alpha into the basis once.
    It needs a zero-dimensional basis over F_p; on any other, `skipped`
    says why.

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
    if not isinstance(G.field, PrimeField):
        return _FiberView("requires prime-field coefficients", 0, ())
    facts = structure_facts(G)
    if not facts.zero_dim:
        return _FiberView(f"not zero-dimensional: {facts.missing}", 0, ())
    roots, stuck = split_roots(G.elements[0])
    fibers = []
    for alpha in roots:
        images = tuple(g.substitute_x(alpha) for g in G.elements)
        fibers.append(_Fiber(alpha, images, *_fiber_betas(images[: facts.ell2])))
    return _FiberView(None, stuck, tuple(fibers))


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


def check_specialization_image(G: GroebnerBasis) -> CheckReport:
    """At every root alpha of g_1, each remaining element either vanishes or
    keeps a nonvanishing leading x-coefficient, read off its image (see
    `_lc_x_vanishes`), and the nonzero images satisfy the S-pair criterion
    in k[y, z].  Like the other fiber checks, it assumes a basis that passes
    basis_integrity, as `verify_all` guarantees."""
    name = "specialization_image"
    view = _fiber_view(G)
    if view.skipped:
        return CheckReport(name, SKIPPED, [], view.skipped)
    witnesses = []
    for alpha, all_images, *_ in view.fibers:
        images = []
        for idx, (g, img) in enumerate(zip(G.elements[1:], all_images[1:]), start=1):
            if img.is_zero():
                continue
            if _lc_x_vanishes(g, img):
                witnesses.append(
                    {
                        "alpha": alpha,
                        "i": idx + 1,
                        "image": img.text(),
                        "reason": "nonzero image though the leading x-coefficient vanishes",
                    }
                )
                continue
            images.append(img)
        if images and not is_groebner_basis(images):
            witnesses.append(
                {"alpha": alpha, "reason": "specialized set fails the S-pair criterion"}
            )
    return gated_report(name, G.radical, witnesses)


def check_gianni_kalkbrener(G: GroebnerBasis) -> CheckReport:
    """At every solution (alpha, beta) of the elimination prefix, each element
    with z in its head keeps its z degree after specialization (or vanishes).
    Assumes a basis that passes basis_integrity."""
    name = "gianni_kalkbrener"
    view = _fiber_view(G)
    if view.skipped:
        return CheckReport(name, SKIPPED, [], view.skipped)
    witnesses = []
    for alpha, images, betas, *_ in view.fibers:
        for beta in betas:
            for idx, g in enumerate(G.elements):
                if g.lm().c == 0:
                    continue
                img = images[idx].substitute_y(beta)
                if img.is_zero():
                    continue
                if img.lm().c != g.lm().c:
                    witnesses.append(
                        {
                            "alpha": alpha,
                            "beta": beta,
                            "i": idx + 1,
                            "image_z_degree": img.lm().c,
                            "head_z_degree": g.lm().c,
                        }
                    )
    return gated_report(name, G.radical, witnesses)


def check_fiber_membership(G: GroebnerBasis) -> CheckReport:
    """Where lc_x(g_i) is not a unit and alpha is one of its roots missed by
    lc_x(g_{i+1}): g_i vanishes at x = alpha and g_{i+1} lies in the ideal
    generated by x - alpha and lc_xy(g_{i+1}) at x = alpha.  Assumes a basis
    that passes basis_integrity: the roots of lc_x(g_i) are then read off
    the roots of g_1 (see `_fiber_view`), and whether one of them is a root
    is read off the image there (see `_lc_x_vanishes`)."""
    name = "fiber_membership"
    view = _fiber_view(G)
    if view.skipped:
        return CheckReport(name, SKIPPED, [], view.skipped)
    elems = G.elements
    witnesses = []
    qualified = False
    for i in range(len(elems) - 1):
        if not elems[i].lm().a:  # lc_x(g_i) is a unit
            continue
        for alpha, images, *_ in view.fibers:
            succ = images[i + 1]
            if not _lc_x_vanishes(elems[i], images[i]) or _lc_x_vanishes(elems[i + 1], succ):
                continue
            qualified = True
            if not images[i].is_zero():
                witnesses.append(
                    {
                        "i": i + 1,
                        "alpha": alpha,
                        "reason": "element does not vanish on its fiber",
                    }
                )
            # the image keeps the head of g_{i+1}, so its top z block is
            # lc_xy(g_{i+1}) at x = alpha.  The heads x and y^k are coprime,
            # so x - alpha and that block form a Groebner basis, and since
            # g_{i+1} = image mod x - alpha, reducing the image by the block
            # gives the normal form of g_{i+1} modulo the pair
            fiber_gen = succ.lc_xy()
            r = normal_form(succ, [fiber_gen])
            if not r.is_zero():
                linear = Polynomial(G.field, [(Monomial(1, 0, 0), 1), (MONOMIAL_ONE, -alpha)])
                witnesses.append(
                    {
                        "i": i + 2,
                        "alpha": alpha,
                        "normal_form": r.text(),
                        "modulo": [linear.text(), fiber_gen.text()],
                    }
                )
    if not qualified:
        return CheckReport(
            name, SKIPPED, [], "no non-unit leading x-coefficient with the successor nonvanishing"
        )
    return gated_report(name, G.radical, witnesses)


def solve_system(G: GroebnerBasis) -> tuple[tuple[int, int, int], ...]:
    """All F_p solutions of a zero-dimensional system, by back-substitution.

    Roots of g_1 give the x values.  At each, the betas come from the
    elimination prefix; each (alpha, beta) slice is solved for z, and a
    solution must satisfy every specialized element.  Raises NonSplitError
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

    solutions = []
    for alpha, images, betas, eliminant, stuck in view.fibers:
        if stuck:
            raise NonSplitError(eliminant, stuck)
        slice_yz = [h for h in images if not h.is_zero()]
        for beta in betas:
            slice_z = [h for h in (g.substitute_y(beta) for g in slice_yz) if not h.is_zero()]
            # the monic pure z power always survives, so the slice is nonempty;
            # a nonzero constant means beta misses some element at alpha
            if any(h.is_constant() for h in slice_z):
                continue
            eliminant = min(slice_z, key=Polynomial.lm)
            gammas, stuck = split_roots(eliminant, axis=2)
            if stuck:
                raise NonSplitError(eliminant, stuck)
            for gamma in gammas:
                if not any(h.evaluate((0, 0, gamma)) for h in slice_z):
                    solutions.append((alpha, beta, gamma))
    solutions.sort()
    return tuple(solutions)
