"""Shared test helpers: random polynomials, fibered and box point sets,
the generators of a squared vanishing ideal, the lex game's staircase of
a point set for `standard_monomials`, and references to compare the
kernels against: an unpruned Buchberger completion for `buchberger`, a
term-by-term substitution loop for the packed `poly._images`, schoolbook
powering mod a univariate modulus for the packed
`univariate._pow_linear`, the dual-functional loop as a heap walk on
plain lists and dicts for the packed block walk of `fat_point_basis`, a
random down-closed shape for it, a slot-by-slot byte-string
codec for `packed.pack` and `packed.unpack`, and the checks that divide,
complete or substitute on every element, for the checks that first read
the heads (`REFERENCE_CHECKS`), and S-polynomials built by `term_mul`
and subtraction and reduced by a division loop of their own, for
`s_polynomial` and `is_groebner_basis`."""

from collections import Counter
from heapq import heapify, heappop, heappush

from lexgb import GroebnerBasis, Monomial, PointSet, Polynomial
from lexgb.checks import _componentwise, _every_pair, _same_z
from lexgb.field import PrimeField
from lexgb.groebner import buchberger, elimination_basis, is_groebner_basis, normal_form, structure_facts
from lexgb.instances import _checked_shape, _step_down
from lexgb.poly import MONOMIAL_ONE, constant
from lexgb.specialize import _fiber_view, _lc_x_vanishes
from lexgb.univariate import _rem


# the point set of the oldest FOUND line in CHANGES.md: its staircases at
# x = 41 and x = 19 are {1, z, z^2} and {1, y}, so they are not nested, and
# its vanishing basis refutes four of the radical-gated statements
FOUND_SET = PointSet(
    101,
    ((19, 6, 8), (19, 83, 72), (41, 83, 11), (41, 83, 70), (41, 83, 80))
    + ((50, 9, 7), (50, 83, 46), (50, 83, 64)),
)


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


def random_pattern(rng) -> tuple:
    """1-3 x-values, 1-3 y-values on each, 1-3 z-values on each (x, y)."""
    return tuple(
        tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(1, 3))
    )


def box_points(rng, most=20, prime=101) -> PointSet:
    """1 to `most` distinct points of a q x q x q box, q in {3, 5, 7}."""
    q = rng.choice((3, 5, 7))
    box = [(x, y, z) for x in range(q) for y in range(q) for z in range(q)]
    return PointSet(prime, tuple(rng.sample(box, rng.randint(1, min(most, len(box))))))


def random_shape(rng, size):
    """A down-closed shape of up to `size` exponent triples."""
    shape = {(0, 0, 0)}
    for _ in range(size - 1):
        d = list(rng.choice(sorted(shape)))
        d[rng.randrange(3)] += 1
        d = tuple(d)
        if all(not d[k] or d[:k] + (d[k] - 1,) + d[k + 1 :] in shape for k in range(3)):
            shape.add(d)
    return tuple(sorted(shape))


def lex_game_staircase(points: PointSet) -> list:
    """The lex staircase of I(S), ascending, counted from the points alone
    (Cerlienco and Mureddu, Discrete Math. 139, 1995; the "lex game" of
    Felszeghy, Ráth and Rónyai, JSC 41, 2006).  With m(a, b) the number of
    points over (a, b), x^i y^j z^k is standard exactly when
    i < #{a : j < #{b : m(a, b) > k}}.  No linear algebra, and no code
    shared with the basis builders."""
    p = points.prime
    over = Counter((x % p, y % p) for x, y, _ in {tuple(v % p for v in pt) for pt in points.points})
    out = []
    for k in range(max(over.values())):
        per_x = Counter(a for (a, _), m in over.items() if m > k)
        for j in range(max(per_x.values())):
            out += [Monomial(i, j, k) for i in range(sum(1 for c in per_x.values() if c > j))]
    return sorted(out)


def squared_products(V) -> list:
    """Every product V[i] * V[j] with i <= j: generators of the square of the
    ideal that the elements of V generate."""
    return [V[i] * V[j] for i in range(len(V)) for j in range(i, len(V))]


def reference_buchberger(generators) -> GroebnerBasis:
    """Buchberger completion with no pair criterion but the coprime-head one:
    every other pair of heads is queued and its S-polynomial reduced.  It
    builds S-polynomials by `reference_s_polynomial` and reduces them by
    `reference_remainder`, and shares no pair logic with `buchberger`, which
    must agree with it."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    field = gens[0].field
    unit = GroebnerBasis((constant(field, 1),), unit_ideal=True)

    basis = []
    pairs = []  # heap of (lcm of the heads, i, j)

    def admit(p):
        head = p.lm()
        for k, g in enumerate(basis):
            if not head.is_coprime(g.lm()):
                heappush(pairs, (head.lcm(g.lm()), k, len(basis)))
        basis.append(p.monic())

    for g in gens:
        if g.is_constant():
            return unit
        admit(g)

    while pairs:
        _, i, j = heappop(pairs)
        r = reference_remainder(reference_s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero():
            continue
        if r.is_constant():
            return unit
        admit(r)

    # minimal: drop heads divisible by an earlier kept head; then reduce
    # each tail against the others
    order = sorted(range(len(basis)), key=lambda i: (basis[i].lm(), i))
    kept = []
    for i in order:
        if not any(h.lm().divides(basis[i].lm()) for h in kept):
            kept.append(basis[i])
    for i in range(len(kept)):
        kept[i] = reference_remainder(kept[i], kept[:i] + kept[i + 1 :])
    return GroebnerBasis(tuple(kept))


def reference_s_polynomial(f, g) -> Polynomial:
    """lcm(lm f, lm g)/lt(f) * f - lcm(lm f, lm g)/lt(g) * g, each side one
    `term_mul`, then one subtraction: no code shared with `groebner._s_work`,
    `poly._prepare` or `poly._reduce`."""
    lcm, inv = f.lm().lcm(g.lm()), f.field.inv
    return f.term_mul(lcm // f.lm(), inv(f.lc())) - g.term_mul(lcm // g.lm(), inv(g.lc()))


def reference_remainder(f, divisors) -> Polynomial:
    """The remainder of f on division by the divisors, the lowest-index
    divisor whose head divides the leading term reducing it.  A dict of
    the terms left and a heap of their negated exponents give the leading
    term; each step scales the divisor's tail by the term over its leading
    term: no code shared with `poly._prepare` or `poly._reduce`."""
    field = f.field
    p = field.p
    work = dict(f.terms)
    heap = [(tuple(-e for e in m), m) for m in work]
    heapify(heap)
    rem = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
        d = next((d for d in divisors if d.lm().divides(m)), None)
        if d is None:
            rem[m] = c
            continue
        q, factor = m // d.lm(), c * field.inv(d.lc()) % p
        for t, k in d.terms[1:]:
            t = t * q
            if t not in work:
                work[t] = 0
                heappush(heap, (tuple(-e for e in t), t))
            work[t] = (work[t] - factor * k) % p
    return Polynomial._collect(field, rem)


def reference_is_groebner_basis(elems) -> bool:
    """Buchberger's criterion over every pair of non-coprime heads, with each
    S-polynomial built by `reference_s_polynomial` and reduced by
    `reference_remainder`, as in `reference_buchberger`.  The elements need
    not be monic."""
    for i, f in enumerate(elems):
        for g in elems[i + 1 :]:
            if f.lm().is_coprime(g.lm()):
                continue
            if not reference_remainder(reference_s_polynomial(f, g), elems).is_zero():
                return False
    return True


def reference_substitute(f, axis: int, value) -> Polynomial:
    """f with the variable of the axis (0=x, 1=y) set to value, one term at
    a time with a table of the value's reduced powers."""
    p = f.field.p
    k = 2 - axis  # a Monomial stores its exponents as (c, b, a)
    powers = [1]
    for _ in range(max([m[k] for m, _ in f.terms], default=0)):
        powers.append(powers[-1] * value % p)
    acc = {}
    for m, c in f.terms:
        key = m[:k] + (0,) + m[k + 1 :]
        acc[key] = acc.get(key, 0) + c * powers[m[k]]
    return Polynomial._collect(f.field, acc)


def reference_mulmod(a: list, b: list, m: list, p: int) -> list:
    """a * b mod m on coefficient lists, lowest degree first, by schoolbook
    multiplication."""
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] += ca * cb
    return _rem(prod, m, p)


def reference_powmod(base: list, e: int, m: list, p: int) -> list:
    """base^e mod m, by repeated squaring with `reference_mulmod`."""
    out = [1]
    base = _rem(base, m, p)
    while e:
        if e & 1:
            out = reference_mulmod(out, base, m, p)
        e >>= 1
        if e:
            base = reference_mulmod(base, base, m, p)
    return out


def reference_fat_point_basis(points: PointSet, shapes) -> tuple:
    """The elements of the fat-point basis by the dual-functional loop as a
    heap walk on lists and dicts: it pops every child of a standard
    monomial from a heap of monomials, smallest first, skips those an
    earlier head divides, and keeps each row as a reduced functional vector
    plus its combination over the standard monomials as a dict.  It is
    kept as an oracle that walks differently from `fat_point_basis`, which
    takes the staircase one (y, z) block at a time."""
    field = PrimeField(points.prime)
    mod, inv = field.p, field.inv
    shapes = [_checked_shape(shape) for shape in shapes]
    index = {}
    for i, shape in enumerate(shapes):
        for d in shape:
            index[i, d] = len(index)
    columns, shifts = [], []
    for k in (2, 1, 0):
        columns.append([points.points[i][k] % mod for i, _ in index])
        shifts.append([(j, index[i, _step_down(d, k)]) for (i, d), j in index.items() if d[k]])

    rows, basis, heads = [], [], []

    def covered(t) -> bool:
        return any(Monomial.divides(h, t) for h in heads)

    candidates = [(0, 0, 0)]
    evals = {(0, 0, 0): [0 if any(d) else 1 for _, d in index]}
    while candidates:
        m = heappop(candidates)
        values = evals.pop(m)
        if covered(m):
            continue
        vec, comb = values, {m: 1}
        for pivot, rvec, rcomb in rows:
            factor = vec[pivot]
            if not factor:
                continue
            vec = [(v - factor * r) % mod for v, r in zip(vec, rvec)]
            for mon, coeff in rcomb.items():
                comb[mon] = comb.get(mon, 0) - factor * coeff
        pivot = next((i for i, v in enumerate(vec) if v), None)
        if pivot is None:
            basis.append(Polynomial._collect(field, comb))
            heads.append(m)
            continue
        scale = inv(vec[pivot])
        rows.append((pivot, [v * scale % mod for v in vec], {k: c * scale % mod for k, c in comb.items()}))
        for axis, column in enumerate(columns):
            child = m[:axis] + (m[axis] + 1,) + m[axis + 1 :]
            if child not in evals and not covered(child):
                child_values = [v * x % mod for v, x in zip(values, column)]
                for j, source in shifts[axis]:
                    child_values[j] = (child_values[j] + values[source]) % mod
                evals[child] = child_values
                heappush(candidates, child)
    return tuple(basis)


def reference_pack(values, nb: int) -> int:
    """The packed vector of non-negative ints below 2^(8 nb), nb bytes a
    slot, built one slot's bytes at a time."""
    return int.from_bytes(b"".join([v.to_bytes(nb, "little") for v in values]), "little")


def reference_unpack(x: int, nb: int, n: int, p: int) -> list:
    """The residues mod p of the n slots of x, nb bytes a slot, read one
    slot's bytes at a time."""
    size = n * nb
    data = x.to_bytes(size, "little")
    return [int.from_bytes(data[i : i + nb], "little") % p for i in range(0, size, nb)]


def _reference_chain(elems, related) -> list:
    """The pairs j < i with related heads where lc_x(g_i) does not divide
    lc_x(g_j): one division per related pair."""
    heads = [g.lm() for g in elems]
    lcs = [g.lc_x() for g in elems]
    return [
        {"i": i + 1, "j": j + 1, "divisor": lcs[i].text(), "dividend": lcs[j].text()}
        for i in range(len(elems))
        for j in range(i)
        if related(heads[i], heads[j]) and not lcs[j].divide([lcs[i]])[1].is_zero()
    ]


def _reference_content(elems, part, first: int = 1) -> list:
    """Per g_i from `first` on, the highest k[x] block of part(g_i) that
    lc_x(g_i) does not divide: one division per element."""
    witnesses = []
    for i in range(first, len(elems)):
        p = part(elems[i])
        _, r = p.divide([elems[i].lc_x()])
        if not r.is_zero():
            yz = r.lm_yz()
            block = [(Monomial(m.a, 0, 0), c) for m, c in p.terms if m.b == yz.b and m.c == yz.c]
            witnesses.append({"i": i + 1, "block": yz.text(), "coefficient": Polynomial(p.field, block).text()})
    return witnesses


def reference_lazard_2d(G2) -> list:
    elems = G2.elements
    content = [
        {**w, "reason": "leading x-coefficient does not divide the element"}
        for w in _reference_content(elems, lambda g: g, first=0)
    ]
    return sorted(_reference_chain(elems, _every_pair) + content, key=lambda w: w["i"])


def reference_membership_lc_xy(G):
    """Completes (lc_xy(g_i), g_1) and reduces g_i for every g_i past the
    elimination prefix."""
    facts = structure_facts(G)
    if not facts.zero_dim:
        return f"not zero-dimensional: {facts.missing}"
    elems = G.elements
    witnesses = []
    for i in range(facts.ell2, len(elems)):
        r = normal_form(elems[i], buchberger([elems[i].lc_xy(), elems[0]]))
        if not r.is_zero():
            witnesses.append(
                {"i": i + 1, "normal_form": r.text(), "modulo": [elems[i].lc_xy().text(), elems[0].text()]}
            )
    return witnesses


def reference_specialization_image(G):
    """Builds the fiber view of every basis and runs the S-pair criterion on
    the images at each alpha that keep their heads."""
    view = _fiber_view(G)
    if view.skipped:
        return view.skipped
    witnesses = []
    for fiber in view.fibers:
        kept = []
        for idx, (g, img) in enumerate(zip(G.elements[1:], fiber.images[1:]), start=2):
            if img.is_zero():
                continue
            if _lc_x_vanishes(g, img):
                reason = "nonzero image though the leading x-coefficient vanishes"
                witnesses.append({"alpha": fiber.alpha, "i": idx, "image": img.text(), "reason": reason})
            else:
                kept.append(img)
        if kept and not is_groebner_basis(kept):
            witnesses.append({"alpha": fiber.alpha, "reason": "specialized set fails the S-pair criterion"})
    return witnesses


def reference_gianni_kalkbrener(G):
    """Builds every (alpha, beta) slice and reads its z degree."""
    view = _fiber_view(G)
    if view.skipped:
        return view.skipped
    ell2 = structure_facts(G).ell2
    witnesses = []
    for fiber in view.fibers:
        for beta in fiber.betas:
            for idx, g in enumerate(G.elements[ell2:], start=ell2 + 1):
                img = reference_substitute(fiber.images[idx - 1], 1, beta)
                if not img.is_zero() and img.lm().c != g.lm().c:
                    witnesses.append(
                        {
                            "alpha": fiber.alpha,
                            "beta": beta,
                            "i": idx,
                            "image_z_degree": img.lm().c,
                            "head_z_degree": g.lm().c,
                        }
                    )
    return witnesses


def reference_fiber_membership(G):
    """Reduces every qualifying alpha-image of g_{i+1} by its top z block."""
    view = _fiber_view(G)
    if view.skipped:
        return view.skipped
    elems = G.elements
    witnesses = []
    qualified = False
    for i in range(len(elems) - 1):
        if not elems[i].lm().a:
            continue
        for fiber in view.fibers:
            alpha, images = fiber.alpha, fiber.images
            succ = images[i + 1]
            if not _lc_x_vanishes(elems[i], images[i]) or _lc_x_vanishes(elems[i + 1], succ):
                continue
            qualified = True
            if not images[i].is_zero():
                witnesses.append({"i": i + 1, "alpha": alpha, "reason": "element does not vanish on its fiber"})
            fiber_gen = succ.lc_xy()
            r = normal_form(succ, [fiber_gen])
            if not r.is_zero():
                linear = Polynomial(G.field, [(Monomial(1, 0, 0), 1), (MONOMIAL_ONE, -alpha)])
                witnesses.append(
                    {"i": i + 2, "alpha": alpha, "normal_form": r.text(), "modulo": [linear.text(), fiber_gen.text()]}
                )
    if not qualified:
        return "no non-unit leading x-coefficient with the successor nonvanishing"
    return witnesses


# check name -> reference run on a basis, returning the witnesses or the
# note of a skip as the runner of `checks._RUNNERS` does
REFERENCE_CHECKS = {
    "lazard_2d": lambda G: reference_lazard_2d(elimination_basis(G)),
    "lc_chain_same_zdeg": lambda G: _reference_chain(G.elements, _same_z),
    "lc_chain_componentwise": lambda G: _reference_chain(G.elements, _componentwise),
    "lc_x_divides_lc_xy": lambda G: _reference_content(G.elements, lambda g: g.lc_xy()),
    "lc_x_divides_poly": lambda G: _reference_content(G.elements, lambda g: g),
    "membership_lc_xy": reference_membership_lc_xy,
    "specialization_image": reference_specialization_image,
    "gianni_kalkbrener": reference_gianni_kalkbrener,
    "fiber_membership": reference_fiber_membership,
}
