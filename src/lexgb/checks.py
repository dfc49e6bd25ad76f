"""Structural checks on zero-dimensional lex bases.

Each check verifies one divisibility or membership statement about the
basis and returns a witnessed verdict.  Checks whose statement needs the
ideal to be radical run in observed mode when the basis lacks the
radical-by-construction flag.  Indices in witnesses are 1-based, matching
the ascending order of the basis.

Most checks state one of two things over different index sets: that
lc_x(g_i) divides lc_x(g_j) over some pairs j < i (`_chain_witnesses`),
or that lc_x(g_i) divides every k[x] block of some part of g_i
(`_content_witnesses`).  The report order and the dispatch of every check
past the two gatekeepers live in the one runner table `_RUNNERS`.
"""

from __future__ import annotations

from .groebner import (
    GroebnerBasis,
    buchberger,
    elimination_basis,
    is_groebner_basis,
    normal_form,
    structure_facts,
)
from .poly import content_divide, divides_univariate
from .report import FAIL, PASS, SKIPPED, CheckReport, gated_report
from . import specialize


def check_basis_integrity(G: GroebnerBasis) -> CheckReport:
    """Sorted, minimal, monic, tail-reduced, and closed under S-pair reduction."""
    name = "basis_integrity"
    witnesses = []
    if G.unit_ideal:
        if len(G.elements) != 1 or not G.elements[0].is_constant():
            witnesses.append({"reason": "unit flag on a non-unit basis"})
        return CheckReport(name, FAIL if witnesses else PASS, witnesses)
    elems = G.elements
    for g in elems:
        if g.is_zero():
            witnesses.append({"reason": "zero element"})
            return CheckReport(name, FAIL, witnesses)
    heads = [g.lm() for g in elems]
    for i in range(1, len(elems)):
        if not heads[i - 1] < heads[i]:
            witnesses.append({"i": i + 1, "reason": "leading monomials not strictly ascending"})
    for i, g in enumerate(elems):
        if g.lc() != G.field.one:
            witnesses.append({"i": i + 1, "reason": "not monic"})
        for j, h in enumerate(heads):
            if j != i and h.divides(heads[i]):
                witnesses.append({"i": i + 1, "j": j + 1, "reason": "head divisible by another head"})
        for m, _ in g.terms[1:]:
            if any(h.divides(m) for h in heads):
                witnesses.append({"i": i + 1, "monomial": m.text(), "reason": "tail monomial reducible"})
                break
    if not witnesses and not is_groebner_basis(elems):
        witnesses.append({"reason": "an S-polynomial does not reduce to zero"})
    return CheckReport(name, FAIL if witnesses else PASS, witnesses)


def check_structure(G: GroebnerBasis) -> CheckReport:
    """Zero-dimensionality shape: pure powers of x, y, z head the staircase
    and the elements between and after them sit in the expected bands."""
    name = "structure"
    facts = structure_facts(G)
    if not facts.zero_dim:
        return CheckReport(name, FAIL, [{"reason": facts.missing}])
    witnesses = [
        {"i": i, "reason": "element outside its band"} for i in facts.band_violations
    ]
    notes = f"ell2={facts.ell2}, pure_z_degree={facts.pure_z_degree}"
    return CheckReport(name, FAIL if witnesses else PASS, witnesses, notes)


def _every_pair(hi, hj) -> bool:
    return True


def _same_z(hi, hj) -> bool:
    return hi.c == hj.c


def _componentwise(hi, hj) -> bool:
    return hj.b <= hi.b and hj.c <= hi.c


def _chain_witnesses(elems, related) -> list[dict]:
    """The pairs j < i whose heads satisfy related(lm g_i, lm g_j) but where
    lc_x(g_i) does not divide lc_x(g_j), ordered by i and then j."""
    heads = [g.lm() for g in elems]
    lcs = [g.lc_x() for g in elems]
    return [
        {"i": i + 1, "j": j + 1, "divisor": lcs[i].text(), "dividend": lcs[j].text()}
        for i in range(len(elems))
        for j in range(i)
        if related(heads[i], heads[j]) and not divides_univariate(lcs[i], lcs[j])[0]
    ]


def _content_witnesses(elems, part, first: int = 1) -> list[dict]:
    """For each g_i from index `first` on, the highest k[x] block of part(g_i)
    that lc_x(g_i) does not divide."""
    witnesses = []
    for i in range(first, len(elems)):
        q, bad = content_divide(part(elems[i]), elems[i].lc_x())
        if q is None:
            witnesses.append({"i": i + 1, "block": bad[0].text(), "coefficient": bad[1].text()})
    return witnesses


def check_lazard_2d(G2: GroebnerBasis) -> CheckReport:
    """Bivariate chain: in k[x, y] the leading x-coefficients divide backwards
    along the basis and each one divides its own element (Lazard's theorem)."""
    elems = G2.elements
    content = [
        {**w, "reason": "leading x-coefficient does not divide the element"}
        for w in _content_witnesses(elems, lambda g: g, first=0)
    ]
    # a stable sort by i puts each element's own witness after its chain pairs
    witnesses = sorted(_chain_witnesses(elems, _every_pair) + content, key=lambda w: w["i"])
    return CheckReport("lazard_2d", FAIL if witnesses else PASS, witnesses)


def check_lc_chain_same_zdeg(G: GroebnerBasis) -> CheckReport:
    """For j <= i with equal z exponent in the heads, lc_x(g_i) divides lc_x(g_j)."""
    witnesses = _chain_witnesses(G.elements, _same_z)
    return CheckReport("lc_chain_same_zdeg", FAIL if witnesses else PASS, witnesses)


def check_lc_chain_componentwise(G: GroebnerBasis) -> CheckReport:
    """For j < i with both head exponents in y and z no larger than g_i's,
    lc_x(g_i) divides lc_x(g_j)."""
    witnesses = _chain_witnesses(G.elements, _componentwise)
    return CheckReport("lc_chain_componentwise", FAIL if witnesses else PASS, witnesses)


def check_lc_x_divides_lc_xy(G: GroebnerBasis) -> CheckReport:
    """The leading coefficient in k[x] divides the one in k[x, y], blockwise."""
    witnesses = _content_witnesses(G.elements, lambda g: g.lc_xy())
    return CheckReport("lc_x_divides_lc_xy", FAIL if witnesses else PASS, witnesses)


def check_lc_x_divides_poly(G: GroebnerBasis) -> CheckReport:
    """Radical instances: lc_x(g_i) divides every k[x] coefficient of g_i."""
    return gated_report("lc_x_divides_poly", G.radical, _content_witnesses(G.elements, lambda g: g))


def check_membership_lc_xy(G: GroebnerBasis) -> CheckReport:
    """Radical instances: past the elimination prefix, each g_i lies in the
    ideal generated by its k[x, y] leading coefficient together with g_1."""
    name = "membership_lc_xy"
    facts = structure_facts(G)
    elems = G.elements
    witnesses = []
    for i in range(facts.ell2, len(elems)):
        H = buchberger([elems[i].lc_xy(), elems[0]])
        r = normal_form(elems[i], H)
        if not r.is_zero():
            witnesses.append(
                {"i": i + 1, "normal_form": r.text(), "modulo": [elems[i].lc_xy().text(), elems[0].text()]}
            )
    return gated_report(name, G.radical, witnesses)


# The non-gatekeeper checks in report order.  Each runner looks its check up
# when it is called, so a wrapper set on the module attribute (as
# bench/tracer.py does) sees the call.
_RUNNERS = {
    "lazard_2d": lambda G: check_lazard_2d(elimination_basis(G)),
    "lc_chain_same_zdeg": lambda G: check_lc_chain_same_zdeg(G),
    "lc_chain_componentwise": lambda G: check_lc_chain_componentwise(G),
    "lc_x_divides_lc_xy": lambda G: check_lc_x_divides_lc_xy(G),
    "lc_x_divides_poly": lambda G: check_lc_x_divides_poly(G),
    "membership_lc_xy": lambda G: check_membership_lc_xy(G),
    "specialization_image": lambda G: specialize.check_specialization_image(G),
    "gianni_kalkbrener": lambda G: specialize.check_gianni_kalkbrener(G),
    "fiber_membership": lambda G: specialize.check_fiber_membership(G),
}

CHECK_ORDER = ("basis_integrity", "structure", *_RUNNERS)


def verify_all(G: GroebnerBasis, checks=None) -> list[CheckReport]:
    """Run every check in fixed order and return their reports.

    basis_integrity and structure act as gatekeepers: when either fails
    the remaining checks are reported as skipped.  `checks` optionally
    restricts which non-gatekeeper checks run.
    """
    if checks is not None:
        unknown = set(checks) - set(CHECK_ORDER)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")

    reports = [check_basis_integrity(G)]
    gate_open = reports[0].verdict == PASS
    if not gate_open:
        reports.append(CheckReport("structure", SKIPPED, [], "gatekeeper check failed"))
    elif G.unit_ideal:
        reports.append(CheckReport("structure", SKIPPED, [], "unit ideal"))
        gate_open = False
    else:
        structure = check_structure(G)
        reports.append(structure)
        gate_open = structure.verdict == PASS

    for name, run in _RUNNERS.items():
        if checks is not None and name not in checks:
            continue
        reports.append(run(G) if gate_open else CheckReport(name, SKIPPED, [], "gatekeeper check failed"))
    return reports


def all_ok(reports) -> bool:
    return all(r.ok for r in reports)
