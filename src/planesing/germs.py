"""Recognition of corank-one singular points of plane-to-plane maps.

A smooth map f = (P, Q) from the (u1, u2)-plane to the (x1, x2)-plane
is singular where its Jacobian determinant -- the discriminant
``lambda = P_u1 Q_u2 - P_u2 Q_u1`` -- vanishes.  At a corank-one
singular point p there is a null direction field eta along which df
annihilates tangent vectors, and the whole local classification of the
stable and codimension-one unstable singularities reads off finitely
many derivatives of lambda:

* fold            eta lambda (p) != 0
* cusp            d lambda (p) != 0, eta lambda = 0, eta eta lambda != 0
* swallowtail     d lambda (p) != 0, eta lambda = eta eta lambda = 0,
                  eta eta eta lambda != 0
* lips            d lambda (p) = 0, det Hess lambda (p) > 0
* beaks           d lambda (p) = 0, det Hess lambda (p) < 0,
                  eta eta lambda != 0

Everything that falls through the table is reported as Degenerate, and
any quantity whose magnitude lands in the no-man's-land between the
zero and nonzero thresholds makes the verdict Unrecognized rather than
a guess.  The decision trail (values, normalized magnitudes, and the
three-way call for each test) is recorded on the report so a verdict
can be re-derived from the report alone.

Maps are given by exact polynomial components, so every jet here is an
exact truncation; the tolerance policy exists for inputs that arrive
through rounded arithmetic (conjugation, Newton-located base points).
A germ recentres its two components at its base point once, to order
7, and keeps one record of df there: its four order-6 jets, each
component's scale, their values with each row divided by that scale,
and the rank of that matrix.  Every local quantity comes from it:
rank_df is its rank, null_field's row choice reads its matrix, eta is
one row of the jets, and lambda is their determinant.  The rank comes
from the matrix's two singular values in closed form (_singular_values),
and conjugate_by_diffeos judges the linear part of each coordinate
change by the same closed form, so no LAPACK routine runs here.

classify and conjugate_by_diffeos run on the raw coefficient tables of
these jets, with the table kernel of the jets module.  Each quantity
they name (the Jacobian, the discriminant jet, the Hessian of lambda,
the det Hess lambda jet, each eta^k lambda jet, the conjugated germ) is
checked finite once, and an overflow anywhere in its computation is
reported under that name (poly.naming_overflow).  The only Jet2s classify
makes are the four order-6 Jacobian jets of the df record, built once per
germ, and the lambda jet it reports.  discriminant, null_field and
eta_derivatives wrap the same table helpers in Jet2s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .jets import Jet2, JetOrderExhausted, _common_base2, _compose, _det, _partial, _product
from .poly import InvalidSpec, Poly2, _overflow_raises_later, as_point, finite, is_number
from .poly import naming_overflow, order_cut

__all__ = [
    "ToleranceConfig",
    "PlaneMapGerm",
    "NullField",
    "ClassificationReport",
    "CorankTwoError",
    "NotADiffeomorphism",
    "IMMERSION",
    "FOLD",
    "CUSP",
    "LIPS",
    "BEAKS",
    "SWALLOWTAIL",
    "CORANK_TWO",
    "DEGENERATE",
    "UNRECOGNIZED",
    "discriminant",
    "rank_df",
    "null_field",
    "eta_derivatives",
    "classify",
    "conjugate_by_diffeos",
    "builtin_germ",
    "BUILTIN_GERMS",
]

# Class labels.  Definite classes get CLI exit code 0; the last two
# signal "outside the recognized set" / "tolerance could not decide".
IMMERSION = "Immersion"
FOLD = "Fold"
CUSP = "Cusp"
LIPS = "Lips"
BEAKS = "Beaks"
SWALLOWTAIL = "Swallowtail"
CORANK_TWO = "CorankTwo"
DEGENERATE = "Degenerate"
UNRECOGNIZED = "Unrecognized"

DEFINITE_CLASSES = frozenset({IMMERSION, FOLD, CUSP, LIPS, BEAKS, SWALLOWTAIL, CORANK_TWO})


class CorankTwoError(ValueError):
    """The Jacobian vanishes entirely at the point; no null field exists."""


class NotADiffeomorphism(ValueError):
    """A change of coordinates fails its base-point or invertibility check."""


#: singular-value ratio below which the Jacobian loses a rank
RANK_THRESHOLD = 1e-8
#: absolute residual bound of the Newton loops
NEWTON_RESIDUAL = 1e-10
#: iteration cap of the Newton loops
NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class ToleranceConfig:
    """The one numerical setting of the zero tests.

    zero_rel:  |value| <= zero_rel * scale counts as zero, and
               |value| >= 10 * zero_rel * scale counts as nonzero;
               the band between is reported, not decided.

    A zero_rel outside (0, 1) raises InvalidSpec.  as_dict also records
    the fixed bounds RANK_THRESHOLD, NEWTON_RESIDUAL and NEWTON_MAX_ITER,
    so a report names every bound that shaped it.
    """

    zero_rel: float = 1e-7

    def __post_init__(self):
        if not (is_number(self.zero_rel) and 0 < self.zero_rel < 1):
            raise InvalidSpec(f"zero_rel must lie in (0, 1), got {self.zero_rel!r}")
        object.__setattr__(self, "zero_rel", float(self.zero_rel))

    def as_dict(self) -> dict:
        return {
            "zero_rel": self.zero_rel,
            "rank_threshold": RANK_THRESHOLD,
            "newton_residual": NEWTON_RESIDUAL,
            "newton_max_iter": NEWTON_MAX_ITER,
        }


DEFAULT_TOLERANCES = ToleranceConfig()

ZERO = "zero"
NONZERO = "nonzero"
UNCERTAIN = "uncertain"


def _decide(value: float, scale: float, zero_rel: float) -> dict:
    """Three-way zero test of ``value`` against ``zero_rel * scale``.

    Returns the margin record: the value, its normalized magnitude and
    the decision.  A zero scale means the quantity is identically zero
    at the working order, so the value is zero by construction.
    """
    if scale <= 0.0:
        decision, m = ZERO, 0.0
    else:
        m = abs(value) / scale
        decision = ZERO if m <= zero_rel else NONZERO if m >= 10.0 * zero_rel else UNCERTAIN
    return {"value": value, "normalized": m, "decision": decision}


def _taylor(polys, base, order: int) -> np.ndarray:
    """The Taylor tables of polys at base through order, stacked; InvalidSpec
    if one is not finite."""
    return finite(np.array([q.recentered_coeffs(base, order) for q in polys]))


def _poly_pair(pair, what: str, kind: type = Poly2) -> tuple:
    """pair as a tuple of two polynomials of kind, Poly2 or Poly1;
    InvalidSpec if it is anything else."""
    try:
        a, b = pair
    except (TypeError, ValueError):  # not a pair
        a = b = None
    if not isinstance(a, kind) or not isinstance(b, kind):
        raise InvalidSpec(f"{what} needs two {'two' if kind is Poly2 else 'one'}-variable polynomials")
    return a, b


class PlaneMapGerm:
    """A polynomial map of the plane, studied as a germ at a base point.

    Components are exact two-variable polynomials (Poly2); anything else,
    a JSON spec included, raises InvalidSpec, and poly_from_spec turns a
    spec into one.  The base point, two reals as is_number judges them
    (else InvalidSpec), just marks where jets are taken.
    Target constants are irrelevant to every derived quantity (they drop
    out of the Jacobian), so germs are not translated in the target.
    Each component keeps the partials it derives (Poly2.partial), so the
    Jacobian polynomials are derived once; the germ keeps the
    discriminant polynomial P_u1 Q_u2 - P_u2 Q_u1 and the record of df
    at the base point, each built on first use.
    """

    __slots__ = ("components", "base_point", "_lam_poly", "_local")

    def __init__(self, components, base_point=(0.0, 0.0)):
        self.components = _poly_pair(components, "germ")
        self.base_point = as_point(base_point, "base point")
        self._lam_poly = self._local = None

    @classmethod
    def from_jets(cls, jet1: Jet2, jet2: Jet2) -> "PlaneMapGerm":
        """Promote a pair of jets at a common base to a polynomial germ."""
        if jet1.base_point != jet2.base_point:
            raise ValueError("component jets must share a base point")
        p = jet1.base_point
        return cls(tuple(Poly2._of(j.coeffs).shift((-p[0], -p[1])) for j in (jet1, jet2)), p)

    def rebase(self, new_base) -> "PlaneMapGerm":
        return PlaneMapGerm(self.components, new_base)

    def value_at(self, u=None):
        u = self.base_point if u is None else u
        return (self.components[0](u), self.components[1](u))

    def jacobian(self) -> tuple[tuple[Poly2, Poly2], tuple[Poly2, Poly2]]:
        """((P_u1, P_u2), (Q_u1, Q_u2)): the partials each component keeps."""
        return tuple((c.partial(1), c.partial(2)) for c in self.components)

    def _local_jacobian(self) -> "_LocalJacobian":
        """The record of df at the base point, built on first use from the
        components recentred to order 7; InvalidSpec if that overflows.
        The rank is read off the closed-form singular values of the scaled
        matrix, whose entries are at most 1 in magnitude."""
        if self._local is None:
            with naming_overflow("the Jacobian", f"at {self.base_point}"):
                comps = _taylor(self.components, self.base_point, 7)
                # [component, axis]: the order-6 table of its partial along that axis
                tables = finite(np.stack([_partial(comps, 1), _partial(comps, 2)], axis=1))
            scales = tuple(float(np.abs(c).ravel()[1:].max(initial=0.0)) for c in comps)
            # a row whose scale is 0 is zero, and stays so
            scaled = tables[:, :, 0, 0] / [[s or 1.0] for s in scales]
            scaled.setflags(write=False)
            s1, s2 = _singular_values(scaled)
            rank = 0 if s1 <= RANK_THRESHOLD else 1 if s2 <= RANK_THRESHOLD * s1 else 2
            jets = tuple(tuple(Jet2._of(self.base_point, t, 6) for t in row) for row in tables)
            self._local = _LocalJacobian(jets, scales, scaled, rank)
        return self._local

    def jacobian_jets(self) -> tuple[tuple[Jet2, Jet2], tuple[Jet2, Jet2]]:
        """((P_u1, P_u2), (Q_u1, Q_u2)) as order-6 jets at the base point (cached)."""
        return self._local_jacobian().jets

    def discriminant_poly(self) -> Poly2:
        """Jacobian determinant as an exact global polynomial,
        P_u1 Q_u2 - P_u2 Q_u1 (cached)."""
        if self._lam_poly is None:
            (Pu, Pv), (Qu, Qv) = self.jacobian()
            self._lam_poly = Pu * Qv - Pv * Qu
        return self._lam_poly

    def component_scales(self) -> tuple[float, float]:
        """Magnitude scale of each row of df: the largest non-constant
        Taylor coefficient of P, and of Q, at the base point, through
        order 7 (cached)."""
        return self._local_jacobian().scales

    def __repr__(self):
        return f"PlaneMapGerm({self.components[0]!r}, {self.components[1]!r}, base={self.base_point!r})"


def _singular_values(m) -> tuple[float, float]:
    """The singular values s1 >= s2 of the 2x2 matrix m = [[a, b], [c, d]],
    in closed form: s1 = (hypot(a+d, c-b) + hypot(a-d, c+b)) / 2, the
    larger semi-axis of the image of the unit circle, and
    s2 = |ad - bc| / s1, or 0 when s1 is 0."""
    (a, b), (c, d) = m.tolist()
    s1 = 0.5 * (math.hypot(a + d, c - b) + math.hypot(a - d, c + b))
    return s1, (abs(a * d - b * c) / s1 if s1 else 0.0)


class _LocalJacobian(NamedTuple):
    """df at a germ's base point: the order-6 jets ((P_u1, P_u2), (Q_u1, Q_u2)),
    each component's scale, the jets' values with each row divided by its
    scale (which scaling P or Q alone leaves as they are), and the rank of
    that scaled matrix, from its two singular values (_singular_values)."""

    jets: tuple[tuple[Jet2, Jet2], tuple[Jet2, Jet2]]
    scales: tuple[float, float]
    scaled: np.ndarray
    rank: int


@dataclass(frozen=True)
class NullField:
    """Vector field spanning ker(df) along the singular set near p.

    eta holds order-5 jets of the field components at the germ's base
    point (classify forms eta^3 lambda from them).  The field is built
    from one row of the Jacobian: with f = (P, Q),

        first-row   eta = ( P_u2, -P_u1),  df(eta) = (0, -lambda)
        second-row  eta = (-Q_u2,  Q_u1),  df(eta) = (-lambda, 0)

    so eta is a genuine null direction exactly on the singular set and
    extends it smoothly off the set.  Either nonzero row spans the same
    kernel at p, so the class does not depend on the choice; null_field
    takes the better conditioned row, and provenance records which.
    """

    eta: tuple[Jet2, Jet2]
    provenance: str

    def values_at_base(self) -> tuple[float, float]:
        return (self.eta[0].value, self.eta[1].value)


def _lambda_table(f: PlaneMapGerm) -> np.ndarray:
    """Order-6 table of the Jacobian determinant, from the germ's Jacobian jets;
    InvalidSpec if it overflows."""
    (Pu, Pv), (Qu, Qv) = ((d.coeffs for d in row) for row in f.jacobian_jets())
    with naming_overflow("the discriminant jet", f"at {f.base_point}"):
        return finite(_det(Pu, Pv, Qu, Qv, 6))


def discriminant(f: PlaneMapGerm) -> Jet2:
    """Order-3 jet of the Jacobian determinant at the germ's base point."""
    return Jet2._of(f.base_point, order_cut(_lambda_table(f), 3), 3)


def rank_df(f: PlaneMapGerm) -> int:
    """Numerical rank of df: 0 when the larger singular value of the
    scaled Jacobian is at most RANK_THRESHOLD, 1 when the smaller one is
    at most RANK_THRESHOLD times the larger, and 2 otherwise; the germ
    finds both singular values once, in closed form (_singular_values),
    and decides it then."""
    return f._local_jacobian().rank


def null_field(f: PlaneMapGerm) -> NullField:
    """Canonical null direction field of a germ whose df does not vanish.

    Built from the row of the scaled Jacobian (the matrix rank_df reads)
    whose largest entry is larger, the first row on a tie.  Raises
    CorankTwoError exactly where rank_df is 0, so the two tests share
    one bound and classify, which asks only at rank 1, never meets it.
    """
    local = f._local_jacobian()
    if local.rank == 0:
        raise CorankTwoError(f"Jacobian vanishes at {f.base_point}; null direction undefined")
    eta, provenance = _null_row(local)
    return NullField(eta=tuple(Jet2._of(f.base_point, t, 5) for t in eta), provenance=provenance)


def _null_row(local: _LocalJacobian) -> tuple[tuple[np.ndarray, np.ndarray], str]:
    """Order-5 tables of null_field's eta, and the row it comes from."""
    (Pu, Pv), (Qu, Qv) = ((d.coeffs for d in row) for row in local.jets)
    row_max = np.abs(local.scaled).max(axis=1)
    if row_max[0] >= row_max[1]:
        return (order_cut(Pv, 5), order_cut(-Pu, 5)), "first-row"
    return (order_cut(-Qv, 5), order_cut(Qu, 5)), "second-row"


def _eta_chain(lam: np.ndarray, eta) -> list[np.ndarray]:
    """Tables of the first three iterated eta-derivatives of lambda, from
    the tables of lambda and of eta's two components; each is checked
    finite once (InvalidSpec if it is not).

    Each derivative along the field is eta1 g_u1 + eta2 g_u2.  Starting
    from an order-n table of lambda, the k-th iterate is an order n-k
    table; its value at the base point is exact whenever the inputs are
    exact truncations, because forming the value of an iterated
    first-order derivative only consumes coefficients the truncations
    retained.
    """
    out, g = [], lam
    with _overflow_raises_later():
        for m in range(lam.shape[0] - 2, lam.shape[0] - 5, -1):  # each iterate one order lower
            # eta's tables may already be of order m: they are cut only to a lower one
            e = [t if t.shape[0] == m + 1 else order_cut(t, m) for t in eta]
            g = finite(_product(e[0], _partial(g, 1), m) + _product(e[1], _partial(g, 2), m))
            out.append(g)
    return out


def eta_derivatives(lam: Jet2, eta: tuple[Jet2, Jet2]) -> tuple[float, float, float]:
    """Values at the base point of eta lambda, eta^2 lambda, eta^3 lambda.

    Requires lam to carry at least three orders (each application of
    the field costs one), and each eta jet at least one order less.
    """
    eta = [e.truncate(lam.order - 1) for e in (eta[0], eta[1])]
    for e in eta:
        _common_base2(e, lam)
    if lam.order < 3:
        raise JetOrderExhausted("cannot differentiate an order-0 jet")
    return tuple(float(g[0, 0]) for g in _eta_chain(lam.coeffs, [e.coeffs for e in eta]))


@dataclass
class ClassificationReport:
    """Full decision trail for one germ at one point.

    margins maps each tested quantity to its raw value, its magnitude
    normalized by the quantity's scale, and the three-way decision the
    tolerance policy produced.  A report with class Unrecognized always
    has at least one 'uncertain' entry.
    """

    singularity_class: str
    base_point: tuple[float, float]
    rank: int
    lambda_jet: Jet2
    d_lambda: tuple[float, float]
    hess_lambda: tuple[tuple[float, float], tuple[float, float]]
    det_hess_lambda: float
    eta_at_p: tuple[float, float] | None = None
    eta_provenance: str | None = None
    eta_lambda: float | None = None
    eta2_lambda: float | None = None
    eta3_lambda: float | None = None
    margins: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    note: str = ""

    @property
    def is_definite(self) -> bool:
        return self.singularity_class in DEFINITE_CLASSES

    def to_dict(self) -> dict:
        return {
            "class": self.singularity_class,
            "base_point": list(self.base_point),
            "rank_df": self.rank,
            "lambda_jet": {
                "base_point": list(self.lambda_jet.base_point),
                "order": self.lambda_jet.order,
                "coeffs": [list(row) for row in self.lambda_jet.coeffs],
            },
            "d_lambda": list(self.d_lambda),
            "hess_lambda": [list(r) for r in self.hess_lambda],
            "det_hess": self.det_hess_lambda,
            "eta_at_p": None if self.eta_at_p is None else list(self.eta_at_p),
            "eta_provenance": self.eta_provenance,
            "eta_lambda": self.eta_lambda,
            "eta2_lambda": self.eta2_lambda,
            "eta3_lambda": self.eta3_lambda,
            "margins": self.margins,
            "tolerances_used": self.tolerances,
            "note": self.note,
        }


#: what the note of an Unrecognized report calls each tested quantity
_QUANTITY_NAMES = {
    "lambda": "discriminant value",
    "d_lambda": "d lambda",
    "det_hess_lambda": "det Hess lambda",
    "eta_lambda": "eta lambda",
    "eta2_lambda": "eta^2 lambda",
    "eta3_lambda": "eta^3 lambda",
}


class _Undecided(Exception):
    """The verdict needs a quantity whose margin decision is uncertain."""


def _verdict(rank: int, margins: dict, det_hess: float) -> tuple[str, str]:
    """(class, note) from the criteria table, read in the paper's order.

    Raises _Undecided, with the quantity's name, at the first quantity
    the walk needs but the tolerance could not decide.
    """

    def nonzero(name: str) -> bool:
        decision = margins[name]["decision"]
        if decision == UNCERTAIN:
            raise _Undecided(name)
        return decision == NONZERO

    if rank == 2:
        return IMMERSION, "Jacobian has full rank at the base point"
    if rank == 0:
        return CORANK_TWO, "Jacobian vanishes at the base point; outside corank-one scope"
    if nonzero("lambda"):
        # Numerically rank-deficient Jacobian but a solidly nonzero
        # determinant: the point is regular at the working tolerance.
        return IMMERSION, "discriminant is nonzero at the base point"
    if nonzero("eta_lambda"):
        return FOLD, ""
    if nonzero("d_lambda"):
        # Non-degenerate singular point with a tangent null direction.
        if nonzero("eta2_lambda"):
            return CUSP, ""
        if nonzero("eta3_lambda"):
            return SWALLOWTAIL, ""
        return DEGENERATE, (
            "null-direction derivatives of the discriminant vanish through order three"
        )
    # Degenerate singular point: the discriminant has a critical point.
    if not nonzero("det_hess_lambda"):
        return DEGENERATE, "discriminant Hessian is singular at a critical point"
    if det_hess > 0.0:
        return LIPS, ""
    if nonzero("eta2_lambda"):
        return BEAKS, ""
    return DEGENERATE, "indefinite discriminant Hessian but eta^2 lambda vanishes"


def classify(f: PlaneMapGerm, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> ClassificationReport:
    """Classify the germ of f at its base point.

    Walks the recognition tree in order fold, cusp, swallowtail, lips,
    beaks; everything the table does not cover is Degenerate, and any
    test whose magnitude falls between the zero and nonzero thresholds
    stops the walk with Unrecognized.  All tested quantities and their
    margins are recorded regardless of the verdict.
    """
    rank = rank_df(f)
    # A deeper jet of the same discriminant feeds the derived
    # quantities, so each of them still carries a populated jet of its
    # own whose coefficient scale is the right yardstick for its value.
    lam_deep = _lambda_table(f)
    lam = Jet2._of(f.base_point, order_cut(lam_deep, 3), 3)
    scale_lam = lam.max_abs_coeff()

    # the second partials h11, h12 and h22 of lambda; a first partial that
    # overflows leaves a non-finite entry in one of them
    with naming_overflow("the Hessian of lambda", f"at {f.base_point}"):
        h = finite(np.array([_partial(_partial(lam_deep, i), j) for i, j in ((1, 1), (1, 2), (2, 2))]))
    with naming_overflow("the det Hess lambda jet", f"at {f.base_point}"):
        det_hess_table = finite(_det(h[0], h[1], h[1], h[2], 4))

    d_lam = (lam.deriv(1, 0), lam.deriv(0, 1))
    hess = ((lam.deriv(2, 0), lam.deriv(1, 1)), (lam.deriv(1, 1), lam.deriv(0, 2)))
    det_hess = float(det_hess_table[0, 0])

    zr = tol.zero_rel
    margins = {
        "lambda": _decide(lam.value, scale_lam, zr),
        "d_lambda": _decide(max(abs(d_lam[0]), abs(d_lam[1])), scale_lam, zr),
        "det_hess_lambda": _decide(det_hess, float(np.abs(det_hess_table).max()), zr),
    }

    report = ClassificationReport(
        singularity_class=UNRECOGNIZED,
        base_point=f.base_point,
        rank=rank,
        lambda_jet=lam,
        d_lambda=d_lam,
        hess_lambda=hess,
        det_hess_lambda=det_hess,
        margins=margins,
        tolerances=tol.as_dict(),
    )

    if rank == 1 and margins["lambda"]["decision"] == ZERO:
        # a corank-one singular point: the walk reads the null field
        eta, report.eta_provenance = _null_row(f._local_jacobian())
        with naming_overflow("the eta^k lambda jet", f"at {f.base_point}"):
            chain = _eta_chain(lam_deep, eta)
        report.eta_at_p = (float(eta[0][0, 0]), float(eta[1][0, 0]))
        report.eta_lambda, report.eta2_lambda, report.eta3_lambda = (float(g[0, 0]) for g in chain)
        # Each iterated derivative is judged against the coefficient scale
        # of its own jet.  The tested value is that jet's constant term, so
        # this asks whether the value stands out from the local behavior of
        # the same quantity; products of input scales overshoot badly after
        # coordinate changes and would drown genuinely nonzero invariants.
        for name, g in zip(("eta_lambda", "eta2_lambda", "eta3_lambda"), chain):
            margins[name] = _decide(float(g[0, 0]), float(np.abs(g).max()), zr)

    try:
        report.singularity_class, report.note = _verdict(rank, margins, det_hess)
    except _Undecided as stop:
        name = _QUANTITY_NAMES[stop.args[0]]
        report.note = f"{name} sits between the zero and nonzero thresholds"
    return report


#: Jet order of conjugate_by_diffeos.  Order 4 retains everything the
#: recognition tree reads, since every tested quantity lives in the
#: 3-jet of the discriminant.
CONJUGATE_ORDER = 4


def conjugate_by_diffeos(f: PlaneMapGerm, source, target) -> PlaneMapGerm:
    """The germ target o f o source, truncated at jet order CONJUGATE_ORDER.

    source is a pair of Poly2s fixing the germ's base point; target is
    one fixing the origin of the translated target plane (the germ's
    value is subtracted before target applies, so classification data
    is unaffected).  Both must have invertible linear parts L at their
    base points, else NotADiffeomorphism: L is singular when
    |det L| <= 1e-8 max|L|^2, judged on L / max|L| so that no scale of L
    overflows or underflows the test.  A component that is not a Poly2
    raises InvalidSpec, and so does a conjugate that overflows, as "the
    conjugated germ overflows at <base point>".
    """
    p = f.base_point
    s = _taylor(_poly_pair(source, "source"), p, CONJUGATE_ORDER)
    t = _taylor(_poly_pair(target, "target"), (0.0, 0.0), CONJUGATE_ORDER)
    sv, tv = (tuple(x[:, 0, 0].tolist()) for x in (s, t))
    if math.hypot(sv[0] - p[0], sv[1] - p[1]) > 1e-9 * (1.0 + math.hypot(*p)):
        raise NotADiffeomorphism(f"source map sends base point {p} to {sv}")
    if math.hypot(*tv) > 1e-9:
        raise NotADiffeomorphism(f"target map sends the origin to {tv}")
    for name, tables in (("source", s), ("target", t)):
        L = tables[:, (1, 0), (0, 1)]  # row k: the first partials of component k
        m = float(np.abs(L).max())
        # |det L| <= 1e-8 max|L|^2 on L / max|L|, whose entries are at most 1:
        # there the product of the singular values is |det| and cannot overflow
        if m == 0.0 or math.prod(_singular_values(L / m)) <= 1e-8:
            raise NotADiffeomorphism(f"{name} map has a singular linear part")

    with naming_overflow("the conjugated germ", f"at {p}"):
        # _compose drops the constant terms of its inner tables, which
        # recentres the middle germ at the origin of the target's plane
        mid = finite(_compose(_taylor(f.components, p, CONJUGATE_ORDER), s, CONJUGATE_ORDER))
        out = finite(_compose(t, mid, CONJUGATE_ORDER))
        return PlaneMapGerm.from_jets(*(Jet2._of(p, c, CONJUGATE_ORDER) for c in out))


#: The normal forms of the recognized classes, as {(i, j): c} dicts of
#: their components in the coordinates u and v.
_NORMAL_FORMS = {
    "immersion": ({(1, 0): 1.0}, {(0, 1): 1.0}),
    "fold": ({(1, 0): 1.0}, {(0, 2): 1.0}),
    "cusp": ({(1, 0): 1.0}, {(0, 3): 1.0, (1, 1): 1.0}),
    "lips": ({(1, 0): 1.0}, {(0, 3): 1.0, (2, 1): 1.0}),
    "beaks": ({(1, 0): 1.0}, {(0, 3): 1.0, (2, 1): -1.0}),
    "swallowtail": ({(1, 0): 1.0}, {(1, 1): 1.0, (0, 4): 1.0}),
}

BUILTIN_GERMS = tuple(_NORMAL_FORMS)


def builtin_germ(name: str) -> PlaneMapGerm:
    """Normal forms of the recognized classes, as germs at the origin."""
    try:
        form = _NORMAL_FORMS[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin germ {name!r}; choose from {sorted(_NORMAL_FORMS)}"
        ) from None
    return PlaneMapGerm((Poly2(form[0]), Poly2(form[1])), (0.0, 0.0))
