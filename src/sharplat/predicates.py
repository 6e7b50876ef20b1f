"""Element- and lattice-level property checks, the four-way sharpness
report, and the audit harness that re-checks each finite-scale claim of
the underlying theory on a concrete lattice.

All quantifiers are evaluated by exhaustive scan over the carrier, and
every negative answer carries the least witness in canonical order
(lexicographic for tuples), so reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import ElementId, FiniteMultLattice
from .errors import ClaimFalsified, InternalEquivalenceViolation


# -- element-level scans ----------------------------------------------


def prime_witness(L: FiniteMultLattice, p: ElementId) -> tuple | None:
    """None if p is prime; otherwise the least (x, y) with xy <= p but
    neither factor below p.  The top element is never prime (not proper)
    and gets the witness ()."""
    if p == L.top:
        return ()
    for x in L.elements():
        for y in L.elements():
            if L.le(L.mul(x, y), p) and not L.le(x, p) and not L.le(y, p):
                return (x, y)
    return None


def prime_elements(L: FiniteMultLattice) -> tuple[ElementId, ...]:
    return tuple(p for p in L.elements() if prime_witness(L, p) is None)


def maximal_elements(L: FiniteMultLattice) -> tuple[ElementId, ...]:
    """Elements maximal in L - {top}."""
    top = L.top
    out = []
    for p in L.elements():
        if p == top:
            continue
        if all(x == p or x == top or not L.le(p, x) for x in L.elements()):
            out.append(p)
    return tuple(out)


def _maximal_witness(L, x):
    if x == L.top:
        return ()
    for y in L.elements():
        if y != x and y != L.top and L.le(x, y):
            return (y,)
    return None


def _cancellative_witness(L, x):
    for y in L.elements():
        for z in range(y + 1, L.size):
            if L.mul(x, y) == L.mul(x, z):
                return (y, z)
    return None


def _meet_principal_witness(L, x):
    """y ^ zx == ((y:x) ^ z) x for all y, z."""
    for y in L.elements():
        for z in L.elements():
            if L.meet(y, L.mul(z, x)) != L.mul(L.meet(L.residual(y, x), z), x):
                return (y, z)
    return None


def _weak_meet_principal_witness(L, x):
    """(y:x) x == x ^ y for all y."""
    for y in L.elements():
        if L.mul(L.residual(y, x), x) != L.meet(x, y):
            return (y,)
    return None


def _join_principal_witness(L, x):
    """y v (z:x) == ((yx v z) : x) for all y, z."""
    for y in L.elements():
        for z in L.elements():
            if L.join(y, L.residual(z, x)) != L.residual(L.join(L.mul(y, x), z), x):
                return (y, z)
    return None


def _weak_join_principal_witness(L, x):
    """(xy:x) == y v (0:x) for all y (the quantifier runs over y; this
    is the z = 0 specialization of join-principality)."""
    zero_res = L.residual(0, x)
    for y in L.elements():
        if L.residual(L.mul(x, y), x) != L.join(y, zero_res):
            return (y,)
    return None


@dataclass(frozen=True)
class ElementProfile:
    """Per-element property booleans; false answers carry the least
    witness tuple under ``witnesses[check_name]``."""

    element: ElementId
    name: str
    is_prime: bool
    is_maximal: bool
    is_cancellative: bool
    is_meet_principal: bool
    is_weak_meet_principal: bool
    is_join_principal: bool
    is_weak_join_principal: bool
    is_principal: bool
    witnesses: dict = field(compare=False)

    def to_dict(self) -> dict:
        return {
            "element": self.element,
            "name": self.name,
            "is_prime": self.is_prime,
            "is_maximal": self.is_maximal,
            "is_cancellative": self.is_cancellative,
            "is_meet_principal": self.is_meet_principal,
            "is_weak_meet_principal": self.is_weak_meet_principal,
            "is_join_principal": self.is_join_principal,
            "is_weak_join_principal": self.is_weak_join_principal,
            "is_principal": self.is_principal,
            "witnesses": {k: list(v) for k, v in sorted(self.witnesses.items())},
        }


def element_profile(L: FiniteMultLattice, x: ElementId) -> ElementProfile:
    """All element predicates for x, each by exhaustive scan."""
    checks = {
        "is_prime": prime_witness(L, x),
        "is_maximal": _maximal_witness(L, x),
        "is_cancellative": _cancellative_witness(L, x),
        "is_meet_principal": _meet_principal_witness(L, x),
        "is_weak_meet_principal": _weak_meet_principal_witness(L, x),
        "is_join_principal": _join_principal_witness(L, x),
        "is_weak_join_principal": _weak_join_principal_witness(L, x),
    }
    witnesses = {k: w for k, w in checks.items() if w is not None}
    return ElementProfile(
        element=x,
        name=L.names[x],
        is_prime=checks["is_prime"] is None,
        is_maximal=checks["is_maximal"] is None,
        is_cancellative=checks["is_cancellative"] is None,
        is_meet_principal=checks["is_meet_principal"] is None,
        is_weak_meet_principal=checks["is_weak_meet_principal"] is None,
        is_join_principal=checks["is_join_principal"] is None,
        is_weak_join_principal=checks["is_weak_join_principal"] is None,
        is_principal=checks["is_meet_principal"] is None
        and checks["is_join_principal"] is None,
        witnesses=witnesses,
    )


def principal_elements(L: FiniteMultLattice) -> tuple[ElementId, ...]:
    return tuple(
        x
        for x in L.elements()
        if _meet_principal_witness(L, x) is None
        and _join_principal_witness(L, x) is None
    )


def join_principal_elements(L: FiniteMultLattice) -> tuple[ElementId, ...]:
    return tuple(x for x in L.elements() if _join_principal_witness(L, x) is None)


def is_sharp(L: FiniteMultLattice) -> bool:
    """Single-route sharpness test via the residual identity
    a == (a:(a:b)) (a:b); the four-way report lives in
    :func:`sharpness_report`."""
    return _residual_identity_counterexample(L) is None


def _residual_identity_counterexample(L) -> tuple | None:
    for a in L.elements():
        for b in L.elements():
            ab = L.residual(a, b)
            if L.mul(L.residual(a, ab), ab) != a:
                return (a, b)
    return None


# -- lattice-level profile --------------------------------------------


@dataclass(frozen=True)
class LatticeProfile:
    is_local: bool
    max_elements: tuple[ElementId, ...]
    is_domain: bool
    is_totally_ordered: bool
    is_principally_generated: bool
    is_prufer: bool
    is_dedekind: bool
    is_pseudo_dedekind: bool
    is_h_local: bool
    dimension: int

    def to_dict(self) -> dict:
        return {
            "is_local": self.is_local,
            "max_elements": list(self.max_elements),
            "is_domain": self.is_domain,
            "is_totally_ordered": self.is_totally_ordered,
            "is_principally_generated": self.is_principally_generated,
            "is_prufer": self.is_prufer,
            "is_dedekind": self.is_dedekind,
            "is_pseudo_dedekind": self.is_pseudo_dedekind,
            "is_h_local": self.is_h_local,
            "dimension": self.dimension,
        }


def lattice_profile(L: FiniteMultLattice) -> LatticeProfile:
    """Lattice-class flags.  Finiteness notes: every element is compact,
    so Prufer (compacts principal) coincides with Dedekind (everything
    principal) and the finite-character half of h-locality is automatic;
    the h-local flag tests only that each nonzero prime sits below a
    unique maximal element."""
    maximals = maximal_elements(L)
    primes = prime_elements(L)
    principals = set(principal_elements(L))
    all_principal = len(principals) == L.size
    pg = all(
        L.join_of(p for p in principals if L.le(p, x)) == x for x in L.elements()
    )
    nonzero_primes = [p for p in primes if p != 0]
    h_local = all(
        sum(1 for m in maximals if L.le(p, m)) == 1 for p in nonzero_primes
    )
    return LatticeProfile(
        is_local=len(maximals) == 1,
        max_elements=maximals,
        is_domain=0 in primes,
        is_totally_ordered=L.poset.is_chain(),
        is_principally_generated=pg,
        is_prufer=all_principal,
        is_dedekind=all_principal,
        is_pseudo_dedekind=_pseudo_dedekind_witness(L, principals) is None,
        is_h_local=h_local,
        dimension=_dimension(L, nonzero_primes),
    )


def _dimension(L, nonzero_primes) -> int:
    """Length (element count) of the longest chain of nonzero primes."""
    height = {}
    best = 0
    for p in nonzero_primes:  # ascending ids = topological
        height[p] = 1 + max(
            (height[q] for q in height if q != p and L.le(q, p)), default=0
        )
        best = max(best, height[p])
    return best


def pseudo_dedekind_witness(L: FiniteMultLattice) -> tuple | None:
    """None when (x:a) is principal for every principal x and every a;
    otherwise the least offending (x, a)."""
    return _pseudo_dedekind_witness(L, set(principal_elements(L)))


def _pseudo_dedekind_witness(L, principals: set) -> tuple | None:
    for x in sorted(principals):
        for a in L.elements():
            if L.residual(x, a) not in principals:
                return (x, a)
    return None


def is_pseudo_dedekind(L: FiniteMultLattice) -> tuple[bool, tuple | None]:
    w = pseudo_dedekind_witness(L)
    return w is None, w


# -- the four-way sharpness report ------------------------------------


@dataclass(frozen=True)
class SharpnessReport:
    """Results of the four equivalent sharpness checks.

    ``counterexample`` is the least (a, b) failing the residual identity
    when the lattice is not sharp.  ``factorization_witnesses`` maps
    each (a1, a2, b) with a1 a2 <= b to the least factorization
    (b1, b2) of b with a_i <= b_i; it is populated only when the
    definitional check passes.
    """

    by_definition: bool
    by_residual_identity: bool
    by_divides: bool
    by_restricted_divides: bool
    counterexample: tuple | None
    factorization_witnesses: dict = field(compare=False)

    @property
    def is_sharp(self) -> bool:
        return self.by_definition

    def to_dict(self, include_witnesses: bool = False) -> dict:
        out = {
            "by_definition": self.by_definition,
            "by_residual_identity": self.by_residual_identity,
            "by_divides": self.by_divides,
            "by_restricted_divides": self.by_restricted_divides,
            "is_sharp": self.is_sharp,
            "counterexample": list(self.counterexample)
            if self.counterexample is not None
            else None,
        }
        if include_witnesses:
            out["factorization_witnesses"] = [
                [list(k), list(v)]
                for k, v in sorted(self.factorization_witnesses.items())
            ]
        return out


def _definition_check(L) -> tuple[bool, dict]:
    """Search a factorization b = b1 b2 with a_i <= b_i for every
    a1 a2 <= b, by full scan."""
    witnesses = {}
    for a1 in L.elements():
        for a2 in L.elements():
            prod = L.mul(a1, a2)
            for b in L.elements():
                if not L.le(prod, b):
                    continue
                found = None
                for b1 in L.elements():
                    if found is not None:
                        break
                    if not L.le(a1, b1):
                        continue
                    for b2 in L.elements():
                        if L.mul(b1, b2) == b and L.le(a2, b2):
                            found = (b1, b2)
                            break
                if found is None:
                    return False, {}
                witnesses[(a1, a2, b)] = found
    return True, witnesses


def sharpness_report(L: FiniteMultLattice) -> SharpnessReport:
    """Run the four sharpness characterizations independently and check
    that they agree; disagreement is an implementation bug, reported as
    InternalEquivalenceViolation rather than a result."""
    by_def, witnesses = _definition_check(L)

    ce = _residual_identity_counterexample(L)
    by_residual = ce is None

    by_div = True
    for a in L.elements():
        for b in L.elements():
            if L.divides(L.residual(a, b), a) is None:
                by_div = False
                break
        if not by_div:
            break

    by_restricted = True
    for a in L.elements():
        for b in L.elements():
            if not (0 != a and L.lt(a, b) and b != L.top):
                continue
            if prime_witness(L, a) is None:
                continue
            if L.divides(L.residual(a, b), a) is None:
                by_restricted = False
                break
        if not by_restricted:
            break

    answers = (by_def, by_residual, by_div, by_restricted)
    if len(set(answers)) != 1:
        raise InternalEquivalenceViolation(
            "sharpness checks disagree: "
            f"definition={by_def} residual_identity={by_residual} "
            f"divides={by_div} restricted_divides={by_restricted}",
            witness=ce,
        )
    return SharpnessReport(
        by_definition=by_def,
        by_residual_identity=by_residual,
        by_divides=by_div,
        by_restricted_divides=by_restricted,
        counterexample=ce,
        factorization_witnesses=witnesses,
    )


# -- principal monoid -------------------------------------------------


@dataclass(frozen=True)
class PrincipalMonoidReport:
    """The set P of principal elements, plus the GCD-monoid law
    x ^ y == y (x:y) checked over nonzero pairs from P whenever the
    lattice is a pseudo-Dedekind domain."""

    principals: tuple[ElementId, ...]
    law_checked: bool
    law_holds: bool | None
    witness: tuple | None

    def to_dict(self) -> dict:
        return {
            "principals": list(self.principals),
            "law_checked": self.law_checked,
            "law_holds": self.law_holds,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def principal_monoid(L: FiniteMultLattice) -> PrincipalMonoidReport:
    principals = principal_elements(L)
    is_domain = prime_witness(L, 0) is None
    if not (is_domain and _pseudo_dedekind_witness(L, set(principals)) is None):
        return PrincipalMonoidReport(principals, False, None, None)
    holds, witness = _lcm_law(L, principals)
    return PrincipalMonoidReport(principals, True, holds, witness)


def _lcm_law(L, principals) -> tuple[bool, tuple | None]:
    for x in principals:
        for y in principals:
            if x == 0 or y == 0:
                continue
            if L.meet(x, y) != L.mul(y, L.residual(x, y)):
                return False, (x, y)
    return True, None


# -- audit harness ----------------------------------------------------


@dataclass(frozen=True)
class ClaimRecord:
    """One audited claim.

    ``applicable`` reflects the structural hypotheses (domain,
    principally generated, local, ...).  Property antecedents such as
    sharpness fold into the conclusion as an implication; when the
    antecedent never fires the record is verified with ``vacuous``
    set.  A falsified record means the conclusion failed on an
    instance that satisfies every hypothesis.
    """

    claim: str
    applicable: bool
    status: str  # "verified" | "not_applicable" | "falsified"
    vacuous: bool
    witness: tuple | None

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "applicable": self.applicable,
            "status": self.status,
            "vacuous": self.vacuous,
            "witness": list(self.witness) if self.witness is not None else None,
        }


@dataclass(frozen=True)
class TheoremAudit:
    records: tuple[ClaimRecord, ...]

    def record(self, claim: str) -> ClaimRecord:
        for r in self.records:
            if r.claim == claim:
                return r
        raise KeyError(claim)

    @property
    def falsified(self) -> tuple[ClaimRecord, ...]:
        return tuple(r for r in self.records if r.status == "falsified")

    def to_dict(self) -> dict:
        return {"claims": [r.to_dict() for r in self.records]}


def _not_applicable(claim):
    return ClaimRecord(claim, False, "not_applicable", False, None)


def _verified(claim, vacuous=False):
    return ClaimRecord(claim, True, "verified", vacuous, None)


def _falsified(claim, witness):
    return ClaimRecord(claim, True, "falsified", False, witness)


def theorem_audit(L: FiniteMultLattice, raise_on_falsified: bool = True) -> TheoremAudit:
    """Check every finite-scale claim on L.

    Claims gated on structural hypotheses that L does not meet are
    reported not_applicable, never verified.  A falsified claim on a
    valid lattice indicates a bug somewhere in this package, so by
    default it raises ClaimFalsified.
    """
    from . import constructions  # deferred: constructions uses the prime check

    profile = lattice_profile(L)
    sharp = is_sharp(L)
    principals = set(principal_elements(L))
    jp = join_principal_elements(L)
    maximals = profile.max_elements
    records = []

    # no element strictly between a maximal and its square (sharp case)
    witness = None
    if sharp:
        for m in maximals:
            m2 = L.mul(m, m)
            for x in L.elements():
                if L.lt(m2, x) and L.lt(x, m):
                    witness = (m, x)
                    break
            if witness:
                break
    records.append(
        _falsified("maximal_square_gap", witness)
        if witness
        else _verified("maximal_square_gap", vacuous=not sharp or not maximals)
    )

    # in a sharp lattice, proper elements with only trivial divisors are prime
    witness = None
    if sharp:
        for p in L.elements():
            if p == L.top:
                continue
            divisors = {d for d in L.elements() if L.divides(d, p) is not None}
            if divisors <= {p, L.top} and prime_witness(L, p) is not None:
                witness = (p,)
                break
    records.append(
        _falsified("trivial_divisors_prime", witness)
        if witness
        else _verified("trivial_divisors_prime", vacuous=not sharp)
    )

    # a chain whose consecutive squares dominate their predecessors is sharp
    if not profile.is_totally_ordered or L.size < 4:
        records.append(_not_applicable("chain_square_condition_sharp"))
    else:
        condition = all(
            L.le(i, L.mul(i + 1, i + 1)) for i in range(1, L.size - 2)
        )
        if not condition:
            records.append(_verified("chain_square_condition_sharp", vacuous=True))
        elif sharp:
            records.append(_verified("chain_square_condition_sharp"))
        else:
            records.append(_falsified("chain_square_condition_sharp", None))

    # join-principal pairs whose cross-residuals join to x v y are comaximal
    witness = None
    if sharp:
        for x in jp:
            for y in jp:
                if L.join(L.residual(x, y), L.residual(y, x)) == L.join(x, y):
                    if L.join(x, y) != L.top:
                        witness = (x, y)
                        break
            if witness:
                break
    records.append(
        _falsified("join_principal_comaximal", witness)
        if witness
        else _verified("join_principal_comaximal", vacuous=not sharp)
    )

    # in a local sharp lattice, any join-principal representation of the
    # maximal element contains it
    if not profile.is_local:
        records.append(_not_applicable("local_join_representation"))
    else:
        # a nonempty subset of jp omitting m joins to m iff the elements
        # of jp strictly below m do
        m = maximals[0]
        below = tuple(x for x in jp if L.lt(x, m))
        witness = None
        if sharp and below and L.join_of(below) == m:
            witness = below
        records.append(
            _falsified("local_join_representation", witness)
            if witness
            else _verified("local_join_representation", vacuous=not sharp)
        )

    # localization at any prime preserves sharpness
    witness = None
    if sharp:
        for p in prime_elements(L):
            if not is_sharp(constructions.localize(L, p).lattice):
                witness = (p,)
                break
    records.append(
        _falsified("localization_preserves_sharp", witness)
        if witness
        else _verified("localization_preserves_sharp", vacuous=not sharp)
    )

    # principally generated (hence weak Noetherian): sharp iff all principal
    if not profile.is_principally_generated:
        records.append(_not_applicable("sharp_iff_all_principal"))
    else:
        all_principal = len(principals) == L.size
        if sharp == all_principal:
            records.append(_verified("sharp_iff_all_principal"))
        elif sharp:
            bad = min(x for x in L.elements() if x not in principals)
            records.append(_falsified("sharp_iff_all_principal", (bad,)))
        else:
            records.append(
                _falsified(
                    "sharp_iff_all_principal",
                    _residual_identity_counterexample(L),
                )
            )

    # section-3 setting: principally generated domains
    pg_domain = profile.is_domain and profile.is_principally_generated

    if not pg_domain:
        records.append(_not_applicable("sharp_implies_pseudo_dedekind"))
    elif not sharp:
        records.append(_verified("sharp_implies_pseudo_dedekind", vacuous=True))
    else:
        w = _pseudo_dedekind_witness(L, principals)
        records.append(
            _verified("sharp_implies_pseudo_dedekind")
            if w is None
            else _falsified("sharp_implies_pseudo_dedekind", w)
        )

    if not pg_domain:
        records.append(_not_applicable("sharp_implies_prufer"))
    elif not sharp:
        records.append(_verified("sharp_implies_prufer", vacuous=True))
    elif len(principals) == L.size:
        records.append(_verified("sharp_implies_prufer"))
    else:
        bad = min(x for x in L.elements() if x not in principals)
        records.append(_falsified("sharp_implies_prufer", (bad,)))

    # pseudo-Dedekind domains: principal elements form a GCD monoid,
    # with LCM given by x ^ y == y (x:y)
    if not pg_domain:
        records.append(_not_applicable("principal_lcm_law"))
    elif not profile.is_pseudo_dedekind:
        records.append(_verified("principal_lcm_law", vacuous=True))
    else:
        holds, w = _lcm_law(L, sorted(principals))
        records.append(
            _verified("principal_lcm_law")
            if holds
            else _falsified("principal_lcm_law", w)
        )

    # h-local domains: residuals localize, (a:b)_m == (a_m : b_m)
    if not (pg_domain and profile.is_h_local):
        records.append(_not_applicable("residual_localization"))
    else:
        witness = None
        for m in maximals:
            loc = constructions.localize(L, m)
            Lm, proj = loc.lattice, loc.projection
            for a in L.elements():
                if a == 0:
                    continue
                for b in L.elements():
                    if b == 0:
                        continue
                    lhs = proj[L.residual(a, b)]
                    rhs = Lm.residual(proj[a], proj[b])
                    if lhs != rhs:
                        witness = (a, b, m)
                        break
                if witness:
                    break
            if witness:
                break
        records.append(
            _falsified("residual_localization", witness)
            if witness
            else _verified("residual_localization")
        )

    # nontrivial sharp domains have prime dimension at most one
    if not (pg_domain and L.size > 2):
        records.append(_not_applicable("sharp_dimension_at_most_one"))
    elif not sharp:
        records.append(_verified("sharp_dimension_at_most_one", vacuous=True))
    elif profile.dimension <= 1:
        records.append(_verified("sharp_dimension_at_most_one"))
    else:
        records.append(
            _falsified("sharp_dimension_at_most_one", (profile.dimension,))
        )

    audit = TheoremAudit(tuple(records))
    if raise_on_falsified and audit.falsified:
        bad = audit.falsified[0]
        raise ClaimFalsified(bad.claim, bad.witness)
    return audit
