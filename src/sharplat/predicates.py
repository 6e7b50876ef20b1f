"""Element- and lattice-level property checks, the four-way sharpness
report, and the audit harness that re-checks each finite-scale claim of
the underlying theory on a concrete lattice.

Quantifiers are evaluated over the whole carrier by reading the
lattice's ``mult``, ``leq``, ``joins``/``meets`` and ``residuals``
tables row by row; the definitional sharpness route works on bitmask
sets instead, checked against a full factorization scan in the tests'
oracles.  Every negative answer carries the least witness in
canonical order (lexicographic for tuples), so reports are
reproducible.

``_analyse`` builds the lattice profile, and what the principal
monoid and the audit read besides it, from the maximal, prime,
join-principal and principal elements.  Called alone,
:func:`lattice_profile` and :func:`theorem_audit` find those sets with
one scan each (``_scan``).  :func:`report`, the document ``sharplat
report`` prints, runs every element check once and reads the sets off
the results, so one report analyses its lattice once; the standalone
functions are its oracles.  ``_claim`` is the one place a
``ClaimRecord`` is made, from a claim's structural hypotheses, its
property antecedent and a witness search ``find()``.  Like every check
here, ``find()`` returns None when the conclusion holds, else its least
witness; a conclusion that names no element returns ``()``, as
:func:`prime_witness` does for the top.

Every record renders by one rule, ``_Record.to_dict``: the keys are
the fields in declaration order, ``_LISTS`` names the tuple fields (to
lists), and records keep no ``__slots__``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

from .core import ElementId, FiniteMultLattice, _check_element
from .errors import ClaimFalsified, InternalEquivalenceViolation


# -- element-level scans ----------------------------------------------


def prime_witness(L: FiniteMultLattice, p: ElementId) -> tuple | None:
    """None if p is prime; otherwise the least (x, y) with xy <= p but
    neither factor below p.  The top element is never prime (not proper)
    and gets the witness ()."""
    _check_element(L, p)
    if p == L.top:
        return ()
    leq = L.leq
    for x, row in enumerate(L.mult):
        if leq[x][p]:
            continue
        for y, xy in enumerate(row):
            if leq[xy][p] and not leq[y][p]:
                return (x, y)
    return None


def _prime_by_residuals(L, p) -> bool:
    """Whether a proper p is prime, read from the residual table: xy <= p
    exactly when y <= (p:x), so p is prime iff (p:x) <= p for every x
    not below p.  The sharpness report's primality test, independent of
    :func:`prime_witness`."""
    leq = L.leq
    return all(leq[px][p] for px, x_row in zip(L.residuals[p], leq) if not x_row[p])


def prime_elements(L: FiniteMultLattice) -> tuple[ElementId, ...]:
    return tuple(p for p in L.elements() if prime_witness(L, p) is None)


def maximal_elements(L: FiniteMultLattice) -> tuple[ElementId, ...]:
    """Elements maximal in L - {top}: the lower covers of the top."""
    return L.poset.lower_covers[L.top]


def _maximal_witness(L, x):
    """() for the top, else None if x is maximal or the least (y,) with x < y < top."""
    if x == L.top:
        return ()
    above = L.poset.up[x] & ~(1 << x | 1 << L.top)
    return ((above & -above).bit_length() - 1,) if above else None


def _cancellative_witness(L, x):
    row = L.mult[x]
    for y, xy in enumerate(row):
        if xy in row[y + 1:]:
            return (y, row.index(xy, y + 1))
    return None


def _meet_principal_witness(L, x, _z=None):
    """y ^ zx == ((y:x) ^ z) x for all y and z, or at z = ``_z`` only (witness (y,))."""
    mx = L.mult[x]  # zx == xz
    meets, residuals = L.meets, L.residuals
    zs = range(L.size) if _z is None else (_z,)
    for y, my in enumerate(meets):
        mr = meets[residuals[y][x]]
        for z in zs:
            if my[mx[z]] != mx[mr[z]]:
                return (y, z) if _z is None else (y,)
    return None


def _join_principal_witness(L, x, _z=None):
    """y v (z:x) == ((yx v z) : x) for all y and z, or at z = ``_z`` only (witness (y,))."""
    mx = L.mult[x]
    rx = [row[x] for row in L.residuals]  # (z:x) for every z
    joins = L.joins
    zs = range(L.size) if _z is None else (_z,)
    for y, jy in enumerate(joins):
        jyx = joins[mx[y]]
        for z in zs:
            if jy[rx[z]] != rx[jyx[z]]:
                return (y, z) if _z is None else (y,)
    return None


class _Record:
    """``to_dict`` copies ``__dict__``, which a frozen dataclass with no
    ``__slots__`` fills in field declaration order, the document's key
    order; a field named in ``_LISTS`` turns from a tuple into a list,
    and None stays None."""

    _LISTS = ()

    def to_dict(self) -> dict:
        out = self.__dict__.copy()
        for name in self._LISTS:
            if out[name] is not None:
                out[name] = list(out[name])
        return out


@dataclass(frozen=True)
class ElementProfile(_Record):
    """Per-element property booleans; false answers carry the least
    witness tuple under ``witnesses[check_name]``, read-only, in key order."""

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
    witnesses: MappingProxyType = field(compare=False)

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["witnesses"] = {k: list(v) for k, v in self.witnesses.items()}
        return out


def element_profile(L: FiniteMultLattice, x: ElementId) -> ElementProfile:
    """All element predicates for x, each by exhaustive scan."""
    _check_element(L, x)
    return _element_profile(L, x, _element_checks(L, x))


def _element_checks(L, x) -> dict:
    """The least witness against each element predicate for x, or None
    where it holds.  Weak meet-principality, (y:x) x == x ^ y for all y,
    is the z = top row of the meet scan; weak join-principality,
    (xy:x) == y v (0:x) for all y, is the z = 0 row of the join scan."""
    return {  # in key order, which is the order of ``witnesses``
        "is_cancellative": _cancellative_witness(L, x),
        "is_join_principal": _join_principal_witness(L, x),
        "is_maximal": _maximal_witness(L, x),
        "is_meet_principal": _meet_principal_witness(L, x),
        "is_prime": prime_witness(L, x),
        "is_weak_join_principal": _join_principal_witness(L, x, 0),
        "is_weak_meet_principal": _meet_principal_witness(L, x, L.top),
    }


def _element_profile(L, x, checks) -> ElementProfile:
    flags = {k: w is None for k, w in checks.items()}
    return ElementProfile(
        element=x,
        name=L.names[x],
        **flags,
        is_principal=flags["is_meet_principal"] and flags["is_join_principal"],
        witnesses=MappingProxyType({k: w for k, w in checks.items() if w is not None}),
    )


def _is_principal(L, x) -> bool:
    return (
        _meet_principal_witness(L, x) is None
        and _join_principal_witness(L, x) is None
    )


def principal_elements(L: FiniteMultLattice) -> tuple[ElementId, ...]:
    return tuple(x for x in L.elements() if _is_principal(L, x))


def join_principal_elements(L: FiniteMultLattice) -> tuple[ElementId, ...]:
    return tuple(x for x in L.elements() if _join_principal_witness(L, x) is None)


def is_sharp(L: FiniteMultLattice) -> bool:
    """Single-route sharpness test via the residual identity
    a == (a:(a:b)) (a:b); the four-way report lives in
    :func:`sharpness_report`."""
    return _residual_identity_counterexample(L) is None


def _residual_identity_counterexample(L) -> tuple | None:
    mult = L.mult
    for a, ra in enumerate(L.residuals):
        for b, ab in enumerate(ra):  # ab = (a:b)
            if mult[ra[ab]][ab] != a:
                return (a, b)
    return None


# -- lattice-level profile --------------------------------------------


@dataclass(frozen=True)
class LatticeProfile(_Record):
    _LISTS = ("max_elements",)

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


class _Analysis(NamedTuple):
    """The lattice profile and what the principal monoid and the audit
    read besides it; element tuples are ascending."""

    profile: LatticeProfile
    primes: tuple[ElementId, ...]
    join_principals: tuple[ElementId, ...]
    principals: tuple[ElementId, ...]
    pd_witness: tuple | None


def _scan(L) -> _Analysis:
    """One scan each for the maximal, prime, join-principal and (among
    those) meet-principal elements; what :func:`lattice_profile` and
    :func:`theorem_audit` read when called alone."""
    jp = join_principal_elements(L)
    principals = tuple(x for x in jp if _meet_principal_witness(L, x) is None)
    return _analyse(L, maximal_elements(L), prime_elements(L), jp, principals)


def _analyse(L, maximals, primes, jp, principals) -> _Analysis:
    """The analysis built from the maximal, prime, join-principal and
    principal elements of L."""
    ids = range(L.size)
    pd_witness = _pseudo_dedekind_witness(L, principals)
    all_principal = len(principals) == L.size
    pg = all(L.join_of(p for p in principals if L.le(p, x)) == x for x in ids)
    nonzero_primes = [p for p in primes if p != 0]
    h_local = all(sum(L.le(p, m) for m in maximals) == 1 for p in nonzero_primes)
    profile = LatticeProfile(
        is_local=len(maximals) == 1,
        max_elements=maximals,
        is_domain=0 in primes,
        is_totally_ordered=L.poset.is_chain(),
        is_principally_generated=pg,
        is_prufer=all_principal,
        is_dedekind=all_principal,
        is_pseudo_dedekind=pd_witness is None,
        is_h_local=h_local,
        dimension=_dimension(L, nonzero_primes),
    )
    return _Analysis(profile, primes, jp, principals, pd_witness)


def lattice_profile(L: FiniteMultLattice) -> LatticeProfile:
    """Lattice-class flags.  Finiteness notes: every element is compact,
    so Prufer (compacts principal) coincides with Dedekind (everything
    principal) and the finite-character half of h-locality is automatic;
    the h-local flag tests only that each nonzero prime sits below a
    unique maximal element."""
    return _scan(L).profile


def _dimension(L, nonzero_primes) -> int:
    """Length (element count) of the longest chain of nonzero primes."""
    height = {}
    for p in nonzero_primes:  # ascending ids = topological
        height[p] = 1 + max((h for q, h in height.items() if L.le(q, p)), default=0)
    return max(height.values(), default=0)


def _pseudo_dedekind_witness(L, principals) -> tuple | None:
    members = set(principals)
    for x in principals:  # ascending
        for a in L.elements():
            if L.residual(x, a) not in members:
                return (x, a)
    return None


def is_pseudo_dedekind(L: FiniteMultLattice) -> tuple[bool, tuple | None]:
    """(True, None) when (x:a) is principal for every principal x and
    every a; otherwise (False, the least offending (x, a))."""
    w = _pseudo_dedekind_witness(L, principal_elements(L))
    return w is None, w


# -- the four-way sharpness report ------------------------------------


@dataclass(frozen=True)
class SharpnessReport(_Record):
    """Results of the four equivalent sharpness checks; ``counterexample``
    is the least (a, b) failing the residual identity, or None if sharp;
    the document puts ``is_sharp`` just before it."""

    _LISTS = ("counterexample",)

    by_definition: bool
    by_residual_identity: bool
    by_divides: bool
    by_restricted_divides: bool
    counterexample: tuple | None

    @property
    def is_sharp(self) -> bool:
        return self.by_definition

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["is_sharp"] = self.is_sharp
        out["counterexample"] = out.pop("counterexample")
        return out


def _sharp_by_definition(L) -> bool:
    """The definition as a table check: for every b and every a1 a2 <= b
    there are b1 >= a1 and b2 >= a2 with b1 b2 = b, that is, up[a1 a2]
    lies inside U(a1, a2) = {b1 b2 : b1 >= a1, b2 >= a2} for every pair.
    A pair above (a1, a2) is it or lies above a cover in one coordinate,
    so U(a1, a2) is {a1 a2} with U(c, a2) and U(a1, d) for c covering
    a1 and d covering a2: a bitmask recurrence from the top id down over
    the symmetric half a1 <= a2, in O(n^2 * covers).  Reads ``mult`` and
    the poset, never the residual table the other three routes read."""
    n = L.size
    mult, poset = L.mult, L.poset
    up, upper = poset.up, poset.upper_covers
    reach = [[0] * n for _ in range(n)]
    for a1 in reversed(range(n)):
        row, covers1 = mult[a1], upper[a1]
        for a2 in reversed(range(a1, n)):
            u = 1 << row[a2]
            for c in covers1:
                u |= reach[c][a2]
            for d in upper[a2]:
                u |= reach[a1][d]
            if up[row[a2]] & ~u:
                return False
            reach[a1][a2] = reach[a2][a1] = u
    return True


def _sharp_by_divides(L) -> bool:
    """(a:b) divides a for all a, b."""
    mult = L.mult
    return all(a in mult[x] for a, ra in enumerate(L.residuals) for x in ra)


def _sharp_by_restricted_divides(L) -> bool:
    """(a:b) divides a for all nonprime a != 0 and a < b < top."""
    mult, res, leq, top = L.mult, L.residuals, L.leq, L.top
    for a in range(1, top):
        for b in range(a + 1, top):
            if leq[a][b] and a not in mult[res[a][b]]:
                if not _prime_by_residuals(L, a):
                    return False
                break
    return True


def sharpness_report(L: FiniteMultLattice) -> SharpnessReport:
    """Run the four sharpness characterizations independently and check
    that they agree; disagreement is an implementation bug, reported as
    InternalEquivalenceViolation rather than a result."""
    by_def = _sharp_by_definition(L)
    ce = _residual_identity_counterexample(L)
    by_residual = ce is None
    by_div = _sharp_by_divides(L)
    by_restricted = _sharp_by_restricted_divides(L)
    answers = (by_def, by_residual, by_div, by_restricted)
    if len(set(answers)) != 1:
        raise InternalEquivalenceViolation(
            "sharpness checks disagree: "
            f"definition={by_def} residual_identity={by_residual} "
            f"divides={by_div} restricted_divides={by_restricted}",
            witness=ce,
        )
    return SharpnessReport(*answers, counterexample=ce)


# -- principal monoid -------------------------------------------------


@dataclass(frozen=True)
class PrincipalMonoidReport(_Record):
    """The set P of principal elements, plus the GCD-monoid law
    x ^ y == y (x:y) checked over nonzero pairs from P whenever the
    lattice is a pseudo-Dedekind domain."""

    _LISTS = ("principals", "witness")

    principals: tuple[ElementId, ...]
    law_checked: bool
    law_holds: bool | None
    witness: tuple | None


def principal_monoid(L: FiniteMultLattice) -> PrincipalMonoidReport:
    principals = principal_elements(L)
    pd_domain = (
        prime_witness(L, 0) is None
        and _pseudo_dedekind_witness(L, principals) is None
    )
    return _principal_monoid(L, principals, pd_domain)


def _principal_monoid(L, principals, pd_domain) -> PrincipalMonoidReport:
    """The report for the principal elements of L; ``pd_domain`` says
    whether L is a pseudo-Dedekind domain."""
    if not pd_domain:
        return PrincipalMonoidReport(principals, False, None, None)
    witness = _lcm_law(L, principals)
    return PrincipalMonoidReport(principals, True, witness is None, witness)


def _lcm_law(L, principals) -> tuple | None:
    """The least nonzero principal (x, y) with x ^ y != y (x:y), or None."""
    nonzero = [x for x in principals if x != 0]
    return next(((x, y) for x in nonzero for y in nonzero
                 if L.meet(x, y) != L.mul(y, L.residual(x, y))), None)


# -- audit harness ----------------------------------------------------


@dataclass(frozen=True)
class ClaimRecord(_Record):
    """One audited claim.

    ``applicable`` reflects the structural hypotheses (domain,
    principally generated, local, ...).  Property antecedents such as
    sharpness fold into the conclusion as an implication; when the
    antecedent never fires the record is verified with ``vacuous``
    set.  A falsified record means the conclusion failed on an
    instance that satisfies every hypothesis; its ``witness`` is the
    least one, or () when the conclusion names no element.
    """

    _LISTS = ("witness",)

    claim: str
    applicable: bool
    status: str  # "verified" | "not_applicable" | "falsified"
    vacuous: bool
    witness: tuple | None


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


def _claim(claim, applicable, antecedent, find):
    """The one place a ClaimRecord is made; ``find()`` runs only on an
    applicable claim whose antecedent holds."""
    if not applicable:
        return ClaimRecord(claim, False, "not_applicable", False, None)
    if not antecedent:
        return ClaimRecord(claim, True, "verified", True, None)
    witness = find()
    status = "verified" if witness is None else "falsified"
    return ClaimRecord(claim, True, status, False, witness)


def theorem_audit(L: FiniteMultLattice) -> TheoremAudit:
    """Check every finite-scale claim on L.

    Claims gated on structural hypotheses that L does not meet are
    reported not_applicable, never verified.  A falsified claim on a
    valid lattice indicates a bug somewhere in this package, so it
    raises ClaimFalsified.
    """
    return _audit(L, _scan(L))


def _audit(L, analysis: _Analysis) -> TheoremAudit:
    from . import constructions  # deferred: constructions uses the prime check

    profile, primes, jp, principals, pd_witness = analysis
    sharp = is_sharp(L)
    maximals, ids, top = profile.max_elements, range(L.size), L.top

    def least_non_principal():
        return next(((x,) for x in ids if x not in principals), None)

    def sharp_iff_all_principal():
        if sharp == profile.is_dedekind:
            return None
        if sharp:
            return least_non_principal()
        # () when the residual table disagrees with ``is_sharp``
        return _residual_identity_counterexample(L) or ()

    def residual_localization():
        for m in maximals:
            loc = constructions._localized(L, m)  # maximal, hence prime
            Lm, proj = loc.lattice, loc.projection
            for a in ids[1:]:
                for b in ids[1:]:
                    if proj[L.residual(a, b)] != Lm.residual(proj[a], proj[b]):
                        return (a, b, m)
        return None

    def local_join_representation():
        # a nonempty subset of jp omitting m joins to m iff the elements
        # of jp strictly below m do
        below = tuple(x for x in jp if L.lt(x, maximals[0]))
        return below if below and L.join_of(below) == maximals[0] else None

    # section-3 setting: principally generated domains
    pg_domain = profile.is_domain and profile.is_principally_generated
    records = (
        # no element strictly between a maximal and its square (sharp case)
        _claim("maximal_square_gap", True, sharp and maximals, lambda: next((
            (m, x) for m in maximals for x in ids
            if L.lt(L.mul(m, m), x) and L.lt(x, m)
        ), None)),
        # in a sharp lattice, proper elements with only trivial divisors
        # are prime
        _claim("trivial_divisors_prime", True, sharp, lambda: next((
            (p,) for p in range(top)  # the proper elements
            if {d for d in ids if L.divides(d, p) is not None} <= {p, top}
            and p not in primes
        ), None)),
        # a chain whose consecutive squares dominate their predecessors
        # is sharp
        _claim("chain_square_condition_sharp",
               profile.is_totally_ordered and L.size >= 4,
               all(L.le(i, L.mul(i + 1, i + 1)) for i in range(1, L.size - 2)),
               lambda: None if sharp else ()),
        # join-principal pairs whose cross-residuals join to x v y are
        # comaximal
        _claim("join_principal_comaximal", True, sharp, lambda: next((
            (x, y) for x in jp for y in jp
            if L.join(L.residual(x, y), L.residual(y, x)) == L.join(x, y) != top
        ), None)),
        # in a local sharp lattice, any join-principal representation of
        # the maximal element contains it
        _claim("local_join_representation", profile.is_local, sharp,
               local_join_representation),
        # localization at any prime preserves sharpness
        _claim("localization_preserves_sharp", True, sharp, lambda: next((
            (p,) for p in primes if not is_sharp(constructions._localized(L, p).lattice)
        ), None)),
        # principally generated (hence weak Noetherian): sharp iff all
        # principal
        _claim("sharp_iff_all_principal", profile.is_principally_generated, True,
               sharp_iff_all_principal),
        _claim("sharp_implies_pseudo_dedekind", pg_domain, sharp,
               lambda: pd_witness),
        _claim("sharp_implies_prufer", pg_domain, sharp, least_non_principal),
        # pseudo-Dedekind domains: principal elements form a GCD monoid,
        # with LCM given by x ^ y == y (x:y)
        _claim("principal_lcm_law", pg_domain, profile.is_pseudo_dedekind,
               lambda: _lcm_law(L, principals)),
        # h-local domains: residuals localize, (a:b)_m == (a_m : b_m)
        _claim("residual_localization", pg_domain and profile.is_h_local, True,
               residual_localization),
        # nontrivial sharp domains have prime dimension at most one
        _claim("sharp_dimension_at_most_one", pg_domain and L.size > 2, sharp,
               lambda: (profile.dimension,) if profile.dimension > 1 else None),
    )

    audit = TheoremAudit(records)
    if audit.falsified:
        bad = audit.falsified[0]
        raise ClaimFalsified(bad.claim, bad.witness)
    return audit


# -- the report document ----------------------------------------------

REPORT_SECTIONS = ("profile", "sharp", "audit")


def report(L: FiniteMultLattice, sections=REPORT_SECTIONS) -> dict:
    """The document ``sharplat report`` prints: the element names, then
    for each of ``sections`` (a subset of :data:`REPORT_SECTIONS`) its
    keys.  "profile" gives the lattice profile, every element profile
    and the principal monoid, "sharp" the sharpness report with the
    counterexample's names, and "audit" the theorem audit.

    The carrier is analysed once: with "profile", the element checks
    run once per element and the profile, the principal monoid and the
    audit read their results; with "audit" alone, the audit's own scan
    runs.  Each section equals what :func:`lattice_profile`,
    :func:`element_profile`, :func:`principal_monoid`,
    :func:`sharpness_report` and :func:`theorem_audit` return on L."""
    out: dict = {"elements": list(L.names)}
    if "profile" in sections:
        checks = [_element_checks(L, x) for x in L.elements()]

        def passing(*keys):
            return tuple(
                x for x, c in enumerate(checks) if all(c[k] is None for k in keys)
            )

        analysis = _analyse(
            L,
            passing("is_maximal"),
            passing("is_prime"),
            passing("is_join_principal"),
            passing("is_join_principal", "is_meet_principal"),
        )
        profile = analysis.profile
        out["profile"] = profile.to_dict()
        out["element_profiles"] = [
            _element_profile(L, x, c).to_dict() for x, c in enumerate(checks)
        ]
        out["principal_monoid"] = _principal_monoid(
            L, analysis.principals, profile.is_domain and profile.is_pseudo_dedekind
        ).to_dict()
    elif "audit" in sections:
        analysis = _scan(L)
    if "sharp" in sections:
        sharpness = sharpness_report(L)
        section = sharpness.to_dict()
        if sharpness.counterexample is not None:
            section["counterexample_names"] = [
                L.names[i] for i in sharpness.counterexample
            ]
        out["sharpness"] = section
    if "audit" in sections:
        out["audit"] = _audit(L, analysis).to_dict()
    return out
