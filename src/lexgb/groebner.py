"""Buchberger completion and staircase structure of lex Groebner bases."""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from heapq import heappop, heappush

from .poly import MONOMIAL_ONE, Monomial, Polynomial, _negated, _prepare, _reduce, constant, poly_from_dict


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced, monic basis sorted ascending by leading monomial.

    `radical` is provenance: true only when the ideal is radical by
    construction (vanishing ideal of a point set).  `unit_ideal` is read
    off the elements; the unit ideal has no staircase structure.  What is
    worked out from a basis once (its structure facts, its fiber view) is
    kept on it by `_memoized`, in a memo outside `==`, `hash` and `repr`
    that `dataclasses.replace` starts afresh.
    """

    elements: tuple[Polynomial, ...]
    radical: bool = False
    _memo: dict = dataclass_field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def field(self):
        return self.elements[0].field

    @property
    def unit_ideal(self) -> bool:
        """Whether some element is a nonzero constant: its head is the monomial 1."""
        return any(g.terms and g.terms[0][0] == MONOMIAL_ONE for g in self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def _memoized(self, compute):
        """compute(self), worked out at the first ask and kept on this basis."""
        if compute not in self._memo:
            self._memo[compute] = compute(self)
        return self._memo[compute]

    def to_dict(self, text: bool = False) -> dict:
        facts = None if self.unit_ideal else structure_facts(self)
        polys = [dict(g.to_dict(), text=g.text()) if text else g.to_dict() for g in self.elements]
        return {
            "p": self.field.p,
            "basis": polys,
            "ell2": facts.ell2 if facts is not None else None,
            "zero_dim": facts.zero_dim if facts is not None else False,
            "radical": self.radical,
            "unit_ideal": self.unit_ideal,
        }


def basis_from_dict(field, data: dict) -> GroebnerBasis:
    """Load a basis file; element order is kept exactly as stored.  A stored
    'unit_ideal' is optional, and must agree with the elements."""
    if not isinstance(data.get("basis"), list) or not data["basis"]:
        raise ValueError("basis object must have a nonempty 'basis' list")
    elems = tuple(poly_from_dict(field, d) for d in data["basis"])
    flags = {key: data.get(key, False) for key in ("radical", "unit_ideal")}
    for key, value in flags.items():
        if not isinstance(value, bool):
            raise ValueError(f"'{key}' must be true or false, got {value!r}")
    G = GroebnerBasis(elems, flags["radical"])
    if data.get("unit_ideal", G.unit_ideal) != G.unit_ideal:
        some = "one" if G.unit_ideal else "none"
        raise ValueError(f"'unit_ideal' must agree with the elements, {some} of which is a nonzero constant")
    return G


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """lcm(lm f, lm g)/lt(f) * f - lcm(lm f, lm g)/lt(g) * g: `_s_work` of the
    two, its terms read back in order by `poly._reduce` with no divisors."""
    f._same_field(g)
    f.lm(), g.lm()  # ZeroPolynomialError on a zero input
    p = f.field.p
    return Polynomial._make(f.field, tuple(_reduce(_s_work(*_prepare(f, (f, g)), p), (), p)))


def normal_form(p: Polynomial, basis) -> Polynomial:
    """Remainder of p on division by the basis; zero iff p is in the ideal."""
    rem = _reduce(_negated(p.terms), _prepare(p, basis), p.field.p)
    return Polynomial._make(p.field, tuple(rem))


def _s_work(f, g, p: int) -> dict:
    """The S-polynomial of two prepared divisors (see `poly._prepare`) as a work
    dict for `poly._reduce`, from their tails alone.  The exponents are
    negated, so the lcm of the heads is their componentwise minimum."""
    (f0, f1, f2), finv, ftail = f
    (g0, g1, g2), ginv, gtail = g
    l0, l1, l2 = min(f0, g0), min(f1, g1), min(f2, g2)
    acc: dict[tuple, int] = {}
    get = acc.get
    for (h0, h1, h2), c, tail in (((f0, f1, f2), finv, ftail), ((g0, g1, g2), -ginv, gtail)):
        s0, s1, s2 = l0 - h0, l1 - h1, l2 - h2
        for (t0, t1, t2), k in tail:
            m = (t0 + s0, t1 + s1, t2 + s2)
            acc[m] = get(m, 0) + c * k
    return {m: r for m, c in acc.items() if (r := c % p)}


def is_groebner_basis(basis) -> bool:
    """Buchberger criterion: every S-polynomial reduces to zero.

    Every pair with non-coprime heads is reduced, with none of the pair
    criteria `buchberger` prunes by: the `basis_integrity` check verifies
    the bases `buchberger` builds through this test, so it must not rely
    on the pruning it verifies.  The elements are prepared as divisors at
    the first such pair, so pairwise coprime heads never prepare them.
    """
    elems = list(basis)
    for g in elems:
        if g.is_zero():
            raise ValueError("zero polynomial in candidate basis")
    heads = [g.lm() for g in elems]
    prepared = None
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if heads[i].is_coprime(heads[j]):
                continue
            if prepared is None:
                prepared, p = _prepare(elems[0], elems), elems[0].field.p
            if _reduce(_s_work(prepared[i], prepared[j], p), prepared, p):
                return False
    return True


def buchberger(generators) -> GroebnerBasis:
    """Reduced lex Groebner basis of the ideal the generators span.

    Completion uses the normal selection strategy (smallest head lcm
    first, ties to the smallest (i, j)) from a heap keyed once per pair.
    Pairs are pruned by Gebauer and Möller's criteria ("On an installation
    of Buchberger's algorithm", JSC 6, 1988) as each element h is
    admitted as element t:

    - B: a queued pair (i, j) is dropped when lm(h) divides its lcm L and
      neither (i, t) nor (j, t) has lcm L;
    - M: a new pair (k, t) is dropped when another new pair's lcm
      properly divides its lcm;
    - F: of the new pairs sharing one lcm, one is kept, and none when one
      of them has coprime heads; coprime pairs are then dropped too
      (Buchberger's product criterion).

    Dropped pairs leave the heap lazily: they are skipped when popped.
    The result is ordered ascending by leading monomial, minimal, monic
    and tail-reduced, so it is the unique reduced basis of the ideal.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    field = gens[0].field
    unit = GroebnerBasis((constant(field, 1),))

    basis: list[Polynomial] = []
    prepared: list = []  # basis[i] as a divisor (see `poly._prepare`)
    pairs: list[tuple] = []  # heap of (lcm of the heads, i, j)
    queued: dict[tuple[int, int], Monomial] = {}  # live pairs and their lcms

    def admit(p: Polynomial):
        head = p.lm()
        t = len(basis)
        lcms = [head.lcm(g.lm()) for g in basis]
        # criterion B on the queued pairs
        for (i, j), lcm in list(queued.items()):
            if head.divides(lcm) and lcms[i] != lcm and lcms[j] != lcm:
                del queued[i, j]
        # criterion M, then F: the lcms no other new lcm properly divides,
        # each once, and those a coprime pair shares not at all
        fresh: dict[Monomial, int] = {}
        for k, lcm in enumerate(lcms):
            if lcm in fresh or any(m != lcm and m.divides(lcm) for m in lcms):
                continue
            fresh[lcm] = k
        for k, g in enumerate(basis):
            if head.is_coprime(g.lm()):
                fresh.pop(lcms[k], None)
        for lcm, k in fresh.items():
            queued[k, t] = lcm
            heappush(pairs, (lcm, k, t))
        p = p.monic()
        basis.append(p)
        prepared.extend(_prepare(p, (p,)))

    for g in gens:  # prepared divisors carry no field to compare
        gens[0]._same_field(g)
    for g in gens:
        if g.is_constant():
            return unit
        admit(g)

    while pairs:
        _, i, j = heappop(pairs)
        if queued.pop((i, j), None) is None:
            continue
        rem = _reduce(_s_work(prepared[i], prepared[j], field.p), prepared, field.p)
        if not rem:
            continue
        if rem[0][0] == MONOMIAL_ONE:  # the lowest monomial leads: a nonzero constant
            return unit
        admit(Polynomial._make(field, tuple(rem)))

    # minimal generators: drop heads divisible by an earlier kept head
    order = sorted(range(len(basis)), key=lambda i: (basis[i].lm(), i))
    kept: list[Polynomial] = []
    for i in order:
        if not any(h.lm().divides(basis[i].lm()) for h in kept):
            kept.append(basis[i])

    # tail reduction to the unique reduced basis: no kept head divides
    # another, so reducing an element keeps its head and its leading
    # coefficient 1, and a reduced tail stays reduced because the heads it
    # was reduced against never change; one pass therefore suffices
    for i in range(len(kept)):
        kept[i] = normal_form(kept[i], kept[:i] + kept[i + 1 :])

    return GroebnerBasis(tuple(kept))


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
    """The staircase shape of G, worked out once and kept on it; the unit ideal has none."""
    return G._memoized(_structure_facts)


def zero_dim_facts(G: GroebnerBasis) -> StructureFacts:
    """The structure facts of G, which every reader of the staircase needs
    zero-dimensional: inside `verify_all` the `structure` gate makes sure
    of it, and on any other path a basis without the shape raises here."""
    facts = structure_facts(G)
    if not facts.zero_dim:
        raise ValueError(f"not zero-dimensional: {facts.missing}")
    return facts


def _structure_facts(G: GroebnerBasis) -> StructureFacts:
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
    """The prefix g_1..g_ell2 of G, the elements in k[x, y].

    For lex with z > y > x the elements of a Groebner basis of I that lie
    in k[x, y] form a Groebner basis of the elimination ideal, the part of
    I in k[x, y] (the elimination theorem), so the prefix needs no S-pair
    test of its own.  It is taken on trust that G is a Groebner basis:
    `verify_all` reaches `lazard_2d` only after `basis_integrity` has
    checked that."""
    return GroebnerBasis(G.elements[: zero_dim_facts(G).ell2], radical=G.radical)


def standard_monomials(G: GroebnerBasis) -> list[Monomial]:
    """Monomials outside the leading-term ideal, ascending; finite iff zero-dim."""
    facts = zero_dim_facts(G)
    heads = [g.lm() for g in G.elements]
    dx = G.elements[0].lm().a
    dy = G.elements[facts.ell2 - 1].lm().b
    dz = facts.pure_z_degree
    out = []
    for c in range(dz):  # z outermost, so the monomials come out ascending
        for b in range(dy):
            for a in range(dx):
                m = Monomial(a, b, c)
                if not any(h.divides(m) for h in heads):
                    out.append(m)
    return out


def quotient_dimension(G: GroebnerBasis) -> int:
    """Dimension of k[x, y, z]/I as a vector space (the number of standard monomials)."""
    return 0 if G.unit_ideal else len(standard_monomials(G))
