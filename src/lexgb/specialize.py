"""Specialization of x (and y): image bases, degree preservation, solving.

Roots in F_p come from gcd(f, x^p - x), split by equal-degree
factorization (Cantor-Zassenhaus), so finding them costs a polynomial in
log p and deg f rather than a pass over every residue.  The rational mode
has no such root finder, so these operations require prime-field
coefficients.
"""

from __future__ import annotations

from itertools import count

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
        out[m.a] = int(c)
    return _trim(out)


def roots_univariate(f: Polynomial) -> list:
    """All roots of f in F_p, ascending; f must be a nonzero element of k[x]."""
    if not isinstance(f.field, PrimeField):
        raise ValueError("root finding needs prime-field coefficients")
    if f.is_zero():
        raise ValueError("the zero polynomial has every point as a root")
    if not f.in_kx():
        raise ValueError(f"{f.text()} is not univariate in x")
    field = f.field
    return [field(r) for r in _roots(_coefficients(f), field.p)]


def _as_kx(h: Polynomial, axis: int) -> Polynomial:
    """Rewrite a polynomial univariate in the given axis (0=x, 1=y, 2=z) into k[x]."""
    terms = []
    for m, c in h.terms:
        e = (m.a, m.b, m.c)
        for other in range(3):
            if other != axis and e[other] != 0:
                raise ValueError(f"{h.text()} is not univariate in axis {axis}")
        terms.append((Monomial(e[axis], 0, 0), c))
    return Polynomial(h.field, terms)


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
        linear = [-int(r) % p, 1]
        while _horner(cofactor, int(r), p) == 0:
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
    eliminant = min(images, key=lambda h: h.lm().lex_key())
    roots, stuck = split_roots(eliminant, axis=1)
    zero = eliminant.field.zero
    others = [h for h in images if h is not eliminant]
    betas = [b for b in roots if all(h.evaluate((zero, b, zero)) == zero for h in others)]
    return betas, eliminant, stuck


def _fiber_facts(name: str, G: GroebnerBasis):
    """(structure facts, None) when the fiber check `name` can run on G, else
    (None, the skipped report): it needs a zero-dimensional basis over F_p."""
    if not isinstance(G.field, PrimeField):
        return None, CheckReport(name, SKIPPED, [], "requires prime-field coefficients")
    facts = structure_facts(G)
    if not facts.zero_dim:
        return None, CheckReport(name, SKIPPED, [], f"not zero-dimensional: {facts.missing}")
    return facts, None


def check_specialization_image(G: GroebnerBasis) -> CheckReport:
    """At every root alpha of g_1, each remaining element either vanishes or
    keeps a nonvanishing leading x-coefficient; nonzero images have leading
    term lc_x(alpha) * lm_yz, and together they still satisfy the S-pair
    criterion in k[y, z]."""
    name = "specialization_image"
    _, skipped = _fiber_facts(name, G)
    if skipped:
        return skipped
    zero = G.field.zero
    witnesses = []
    for alpha in roots_univariate(G.elements[0]):
        images = []
        for idx, g in enumerate(G.elements[1:], start=1):
            img = g.substitute_x(alpha)
            if img.is_zero():
                continue
            lc_at = g.lc_x().evaluate((alpha, zero, zero))
            if lc_at == zero:
                witnesses.append(
                    {
                        "alpha": int(alpha),
                        "i": idx + 1,
                        "image": img.text(),
                        "reason": "nonzero image though the leading x-coefficient vanishes",
                    }
                )
                continue
            if img.lm() != g.lm_yz() or img.lc() != lc_at:
                witnesses.append(
                    {
                        "alpha": int(alpha),
                        "i": idx + 1,
                        "image_head": img.lt().text(),
                        "expected_head": f"{int(lc_at)}*{g.lm_yz().text()}",
                        "reason": "leading term of the image was not preserved",
                    }
                )
            images.append(img)
        if images and not is_groebner_basis(images):
            witnesses.append(
                {"alpha": int(alpha), "reason": "specialized set fails the S-pair criterion"}
            )
    return gated_report(name, G.radical, witnesses)


def check_gianni_kalkbrener(G: GroebnerBasis) -> CheckReport:
    """At every solution (alpha, beta) of the elimination prefix, each element
    with z in its head keeps its z degree after specialization (or vanishes)."""
    name = "gianni_kalkbrener"
    facts, skipped = _fiber_facts(name, G)
    if skipped:
        return skipped
    witnesses = []
    for alpha in roots_univariate(G.elements[0]):
        images = [g.substitute_x(alpha) for g in G.elements]
        betas, _, _ = _fiber_betas(images[: facts.ell2])
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
                            "alpha": int(alpha),
                            "beta": int(beta),
                            "i": idx + 1,
                            "image_z_degree": img.lm().c,
                            "head_z_degree": g.lm().c,
                        }
                    )
    return gated_report(name, G.radical, witnesses)


def check_fiber_membership(G: GroebnerBasis) -> CheckReport:
    """Where lc_x(g_i) is not a unit and alpha is one of its roots missed by
    lc_x(g_{i+1}): g_i vanishes at x = alpha and g_{i+1} lies in the ideal
    generated by x - alpha and lc_xy(g_{i+1}) at x = alpha."""
    name = "fiber_membership"
    _, skipped = _fiber_facts(name, G)
    if skipped:
        return skipped
    field = G.field
    zero = field.zero
    elems = G.elements
    witnesses = []
    qualified = False
    for i in range(len(elems) - 1):
        lcx = elems[i].lc_x()
        if lcx.is_constant():
            continue
        for alpha in roots_univariate(lcx):
            if elems[i + 1].lc_x().evaluate((alpha, zero, zero)) == zero:
                continue
            qualified = True
            if not elems[i].substitute_x(alpha).is_zero():
                witnesses.append(
                    {
                        "i": i + 1,
                        "alpha": int(alpha),
                        "reason": "element does not vanish on its fiber",
                    }
                )
            linear = Polynomial(field, [(Monomial(1, 0, 0), field.one), (MONOMIAL_ONE, -alpha)])
            fiber_gen = elems[i + 1].lc_xy().substitute_x(alpha)
            # the heads x and y^k are coprime, so the pair is already a
            # Groebner basis and the remainder is the normal form
            r = normal_form(elems[i + 1], [linear, fiber_gen])
            if not r.is_zero():
                witnesses.append(
                    {
                        "i": i + 2,
                        "alpha": int(alpha),
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
    would then live in an extension field).
    """
    if G.unit_ideal:
        return ()
    if not isinstance(G.field, PrimeField):
        raise ValueError("solving needs prime-field coefficients")
    facts = structure_facts(G)
    if not facts.zero_dim:
        raise ValueError(f"not zero-dimensional: {facts.missing}")
    zero = G.field.zero

    roots, stuck = split_roots(G.elements[0], axis=0)
    if stuck:
        raise NonSplitError(G.elements[0], stuck)

    solutions = []
    for alpha in roots:
        images = [g.substitute_x(alpha) for g in G.elements]
        betas, eliminant, stuck = _fiber_betas(images[: facts.ell2])
        if stuck:
            raise NonSplitError(eliminant, stuck)
        slice_yz = [h for h in images if not h.is_zero()]
        for beta in betas:
            slice_z = [h for h in (g.substitute_y(beta) for g in slice_yz) if not h.is_zero()]
            # the monic pure z power always survives, so the slice is nonempty;
            # a nonzero constant means beta misses some element at alpha
            if any(h.is_constant() for h in slice_z):
                continue
            eliminant = min(slice_z, key=lambda h: h.lm().lex_key())
            gammas, stuck = split_roots(eliminant, axis=2)
            if stuck:
                raise NonSplitError(eliminant, stuck)
            for gamma in gammas:
                if all(h.evaluate((zero, zero, gamma)) == zero for h in slice_z):
                    solutions.append((int(alpha), int(beta), int(gamma)))
    solutions.sort()
    return tuple(solutions)
