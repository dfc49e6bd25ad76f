"""Buchberger completion and staircase structure of lex Groebner bases."""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Monomial, Polynomial, constant


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced, monic basis sorted ascending by leading monomial.

    `radical` is provenance: true only when the ideal is radical by
    construction (vanishing ideal of a point set).  The unit ideal is
    flagged rather than given staircase structure.
    """

    elements: tuple[Polynomial, ...]
    radical: bool = False
    unit_ideal: bool = False

    @property
    def field(self):
        return self.elements[0].field

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def to_dict(self, text: bool = False) -> dict:
        facts = None
        if not self.unit_ideal:
            facts = structure_facts(self)
        polys = []
        for g in self.elements:
            d = g.to_dict()
            if text:
                d["text"] = g.text()
            polys.append(d)
        return {
            "p": self.field.size,
            "basis": polys,
            "ell2": facts.ell2 if facts is not None else None,
            "zero_dim": facts.zero_dim if facts is not None else False,
            "radical": self.radical,
            "unit_ideal": self.unit_ideal,
        }


def basis_from_dict(field, data: dict) -> GroebnerBasis:
    """Load a basis file; element order is kept exactly as stored."""
    from .poly import poly_from_dict

    if not isinstance(data.get("basis"), list) or not data["basis"]:
        raise ValueError("basis object must have a nonempty 'basis' list")
    elems = tuple(poly_from_dict(field, d) for d in data["basis"])
    return GroebnerBasis(
        elems,
        radical=bool(data.get("radical", False)),
        unit_ideal=bool(data.get("unit_ideal", False)),
    )


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """lcm(lm f, lm g)/lt(f) * f - lcm(lm f, lm g)/lt(g) * g."""
    lcm = f.lm().lcm(g.lm())
    one = f.field.one
    return f.term_mul(lcm // f.lm(), one / f.lc()) - g.term_mul(lcm // g.lm(), one / g.lc())


def normal_form(p: Polynomial, basis) -> Polynomial:
    """Remainder of p on division by the basis; zero iff p is in the ideal."""
    _, r = p.divide(basis)
    return r


def is_groebner_basis(basis) -> bool:
    """Buchberger criterion: every S-polynomial reduces to zero."""
    elems = list(basis)
    for g in elems:
        if g.is_zero():
            raise ValueError("zero polynomial in candidate basis")
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if elems[i].lm().is_coprime(elems[j].lm()):
                continue
            _, r = s_polynomial(elems[i], elems[j]).divide(elems)
            if not r.is_zero():
                return False
    return True


def buchberger(generators, radical: bool = False) -> GroebnerBasis:
    """Reduced lex Groebner basis of the ideal the generators span.

    Completion uses the normal selection strategy (smallest head lcm
    first) and skips pairs with coprime heads.  The result is ordered
    ascending by leading monomial, minimal, monic and tail-reduced, so
    it is the unique reduced basis of the ideal.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    field = gens[0].field
    unit = GroebnerBasis((constant(field, 1),), radical=radical, unit_ideal=True)

    basis: list[Polynomial] = []
    pairs: list[tuple[int, int]] = []

    def admit(p: Polynomial):
        basis.append(p.monic())
        n = len(basis) - 1
        for k in range(n):
            pairs.append((k, n))

    for g in gens:
        if g.is_constant():
            return unit
        admit(g)

    while pairs:
        best = min(
            pairs,
            key=lambda ij: (basis[ij[0]].lm().lcm(basis[ij[1]].lm()).lex_key(), ij),
        )
        pairs.remove(best)
        i, j = best
        if basis[i].lm().is_coprime(basis[j].lm()):
            continue
        _, r = s_polynomial(basis[i], basis[j]).divide(basis)
        if r.is_zero():
            continue
        if r.is_constant():
            return unit
        admit(r)

    # minimal generators: drop heads divisible by an earlier kept head
    order = sorted(range(len(basis)), key=lambda i: (basis[i].lm().lex_key(), i))
    kept: list[Polynomial] = []
    for i in order:
        if not any(h.lm().divides(basis[i].lm()) for h in kept):
            kept.append(basis[i])

    # tail reduction to the unique reduced basis
    changed = True
    while changed:
        changed = False
        for i in range(len(kept)):
            others = kept[:i] + kept[i + 1 :]
            _, r = kept[i].divide(others)
            r = r.monic()
            if r != kept[i]:
                kept[i] = r
                changed = True

    return GroebnerBasis(tuple(kept), radical=radical)


@dataclass(frozen=True)
class StructureFacts:
    """Staircase shape of a zero-dimensional lex basis.

    ell2 is the 1-based index of the element whose leading monomial is a
    pure power of y; elements before it generate the elimination ideal in
    k[x, y].  pure_z_degree is the z exponent of the final element's head.
    """

    zero_dim: bool
    ell2: int | None
    pure_z_degree: int | None
    missing: str | None
    band_violations: tuple[int, ...]


def structure_facts(G: GroebnerBasis) -> StructureFacts:
    if G.unit_ideal:
        raise ValueError("unit ideal has no staircase structure")
    elems = G.elements
    missing = None
    if not elems[0].in_kx():
        missing = "first element does not lie in k[x]"
    ell2 = None
    for i, g in enumerate(elems, start=1):
        m = g.lm()
        if m.a == 0 and m.c == 0 and m.b > 0:
            ell2 = i
            break
    if missing is None and ell2 is None:
        missing = "no leading monomial is a pure power of y"
    last = elems[-1].lm()
    pure_z = last.a == 0 and last.b == 0 and last.c > 0
    if missing is None and not pure_z:
        missing = "last leading monomial is not a pure power of z"
    if missing is not None:
        return StructureFacts(False, None, None, missing, ())

    violations = []
    for i, g in enumerate(elems, start=1):
        if 1 < i < ell2:
            if not g.in_kxy() or g.in_kx():
                violations.append(i)
        elif i > ell2:
            if g.lm().c == 0:
                violations.append(i)
    return StructureFacts(True, ell2, last.c, None, tuple(violations))


def elimination_basis(G: GroebnerBasis) -> GroebnerBasis:
    """The prefix generating the elimination ideal in k[x, y], self-checked."""
    facts = structure_facts(G)
    if not facts.zero_dim:
        raise ValueError(f"not zero-dimensional: {facts.missing}")
    prefix = G.elements[: facts.ell2]
    if not is_groebner_basis(prefix):
        raise RuntimeError("elimination prefix failed the S-pair criterion")
    return GroebnerBasis(prefix, radical=G.radical)


def standard_monomials(G: GroebnerBasis) -> list[Monomial]:
    """Monomials outside the leading-term ideal, ascending; finite iff zero-dim."""
    facts = structure_facts(G)
    if not facts.zero_dim:
        raise ValueError(f"not zero-dimensional: {facts.missing}")
    heads = [g.lm() for g in G.elements]
    dx = G.elements[0].lm().a
    dy = G.elements[facts.ell2 - 1].lm().b
    dz = facts.pure_z_degree
    out = []
    for c in range(dz):
        for b in range(dy):
            for a in range(dx):
                m = Monomial(a, b, c)
                if not any(h.divides(m) for h in heads):
                    out.append(m)
    out.sort(key=Monomial.lex_key)
    return out


def quotient_dimension(G: GroebnerBasis) -> int:
    """Dimension of k[x, y, z]/I as a vector space (the number of standard monomials)."""
    if G.unit_ideal:
        return 0
    return len(standard_monomials(G))
