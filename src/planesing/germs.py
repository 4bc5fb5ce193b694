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
7, and keeps the four order-6 jets of df and each component's scale.
Every local quantity comes from them: rank_df and the row choice of
null_field read one matrix, their values with each row divided by its
component's scale; eta is one row of the jets, and lambda is their
determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jets import Jet2, _compose_each, det2x2, poly_to_jet
from .poly import InvalidSpec, Poly2, poly_from_spec

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


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy for every zero test in the package.

    zero_rel:        |value| <= zero_rel * scale counts as zero, and
                     |value| >= 10 * zero_rel * scale counts as nonzero;
                     the band between is reported, not decided.
    rank_threshold:  singular-value ratio below which the Jacobian
                     loses a rank.
    newton_residual: absolute nonlinear-solver residual bound.
    newton_max_iter: iteration cap for all Newton loops.
    """

    zero_rel: float = 1e-7
    rank_threshold: float = 1e-8
    newton_residual: float = 1e-10
    newton_max_iter: int = 50

    def __post_init__(self):
        if not (self.zero_rel > 0 and self.rank_threshold > 0 and self.newton_residual > 0):
            raise ValueError("tolerances must be positive")
        if not (self.zero_rel < 1 and self.rank_threshold < 1):
            raise ValueError("relative tolerances must be below 1")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be at least 1")

    def as_dict(self) -> dict:
        return {
            "zero_rel": self.zero_rel,
            "rank_threshold": self.rank_threshold,
            "newton_residual": self.newton_residual,
            "newton_max_iter": self.newton_max_iter,
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


class PlaneMapGerm:
    """A polynomial map of the plane, studied as a germ at a base point.

    Components are exact two-variable polynomials; the base point just
    marks where jets are taken.  Target constants are irrelevant to
    every derived quantity (they drop out of the Jacobian), so germs
    are not translated in the target.  The Jacobian and discriminant
    polynomials are derived once, on first use, and kept, and so are
    the jets of the Jacobian at the base point.
    """

    __slots__ = (
        "components",
        "base_point",
        "_lam_poly",
        "_jacobian",
        "_jacobian_jets",
        "_component_scales",
    )

    def __init__(self, components, base_point=(0.0, 0.0)):
        comp1, comp2 = components
        if not isinstance(comp1, Poly2):
            comp1 = poly_from_spec(comp1)
        if not isinstance(comp2, Poly2):
            comp2 = poly_from_spec(comp2)
        if not isinstance(comp1, Poly2) or not isinstance(comp2, Poly2):
            raise TypeError("germ components must be two-variable polynomials")
        self.components = (comp1, comp2)
        self.base_point = (float(base_point[0]), float(base_point[1]))
        self._lam_poly = None
        self._jacobian = None
        self._jacobian_jets = None
        self._component_scales = None

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
        """((P_u1, P_u2), (Q_u1, Q_u2)) as exact global polynomials (cached)."""
        if self._jacobian is None:
            self._jacobian = tuple((c.partial(1), c.partial(2)) for c in self.components)
        return self._jacobian

    def jacobian_jets(self) -> tuple[tuple[Jet2, Jet2], tuple[Jet2, Jet2]]:
        """((P_u1, P_u2), (Q_u1, Q_u2)) as order-6 jets at the base point (cached).

        Each component is recentred once, to order 7, which also gives
        component_scales; InvalidSpec, naming the base point, if that
        overflows.
        """
        if self._jacobian_jets is None:
            try:
                jets = [poly_to_jet(c, self.base_point, 7) for c in self.components]
                self._jacobian_jets = tuple((j.partial(1), j.partial(2)) for j in jets)
            except InvalidSpec as exc:
                raise InvalidSpec(f"the Jacobian overflows at {self.base_point}") from exc
            self._component_scales = tuple(
                float(np.abs(j.coeffs).ravel()[1:].max(initial=0.0)) for j in jets
            )
        return self._jacobian_jets

    def discriminant_poly(self) -> Poly2:
        """Jacobian determinant as an exact global polynomial (cached)."""
        if self._lam_poly is None:
            (Pu, Pv), (Qu, Qv) = self.jacobian()
            self._lam_poly = Pu * Qv - Pv * Qu
        return self._lam_poly

    def component_scales(self) -> tuple[float, float]:
        """Magnitude scale of each row of df: the largest non-constant
        Taylor coefficient of P, and of Q, at the base point, through
        order 7 (cached)."""
        self.jacobian_jets()
        return self._component_scales

    def __repr__(self):
        return f"PlaneMapGerm({self.components[0]!r}, {self.components[1]!r}, base={self.base_point!r})"


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


def _lambda_jet(f: PlaneMapGerm) -> Jet2:
    """Order-6 jet of the Jacobian determinant, from the germ's Jacobian jets."""
    (Pu, Pv), (Qu, Qv) = f.jacobian_jets()
    return det2x2(Pu, Pv, Qu, Qv)


def discriminant(f: PlaneMapGerm) -> Jet2:
    """Order-3 jet of the Jacobian determinant at the germ's base point."""
    return _lambda_jet(f).truncate(3)


def _scaled_jacobian(f: PlaneMapGerm) -> np.ndarray:
    """df at the base point, each row divided by its component's scale.

    A row whose scale is 0 is zero, and stays so.  Scaling P or Q leaves
    the matrix as it is, to rounding, and no entry exceeds 1 in
    magnitude, since the first-order Taylor coefficients are part of
    each scale.
    """
    J = np.array([[d.value for d in row] for row in f.jacobian_jets()])
    for row, scale in zip(J, f.component_scales()):
        if scale > 0.0:
            row /= scale
    return J


def rank_df(f: PlaneMapGerm, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Numerical rank of df: 0 when the largest singular value of the
    scaled Jacobian is at most rank_threshold, 1 when the smaller one is
    at most rank_threshold times the larger, and 2 otherwise."""
    s = np.linalg.svd(_scaled_jacobian(f), compute_uv=False)
    if s[0] <= tol.rank_threshold:
        return 0
    if s[1] <= tol.rank_threshold * s[0]:
        return 1
    return 2


def null_field(f: PlaneMapGerm, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> NullField:
    """Canonical null direction field of a germ whose df does not vanish.

    Built from the row of the scaled Jacobian (the matrix rank_df reads)
    whose largest entry is larger, the first row on a tie.  Raises
    CorankTwoError exactly where rank_df is 0, so the two tests share
    one bound and classify, which asks only at rank 1, never meets it.
    """
    if rank_df(f, tol) == 0:
        raise CorankTwoError(f"Jacobian vanishes at {f.base_point}; null direction undefined")
    (Pu, Pv), (Qu, Qv) = f.jacobian_jets()
    row_max = np.abs(_scaled_jacobian(f)).max(axis=1)
    if row_max[0] >= row_max[1]:
        eta, provenance = (Pv, -Pu), "first-row"
    else:
        eta, provenance = (-Qv, Qu), "second-row"
    return NullField(eta=(eta[0].truncate(5), eta[1].truncate(5)), provenance=provenance)


def _eta_derivative_jets(lam: Jet2, eta: tuple[Jet2, Jet2]) -> list[Jet2]:
    """Jets of the first three iterated eta-derivatives of lambda.

    Each derivative along the field is eta1 g_u1 + eta2 g_u2.  Starting
    from an order-n jet of lambda, the k-th iterate is an order n-k jet;
    its value at the base point is exact whenever the inputs are exact
    truncations, because forming the value of an iterated first-order
    derivative only consumes coefficients the truncations retained.
    """
    out = []
    g = lam
    for _ in range(3):
        m = g.order - 1
        g = eta[0].truncate(m) * g.partial(1) + eta[1].truncate(m) * g.partial(2)
        out.append(g)
    return out


def eta_derivatives(lam: Jet2, eta: tuple[Jet2, Jet2]) -> tuple[float, float, float]:
    """Values at the base point of eta lambda, eta^2 lambda, eta^3 lambda.

    Requires lam to carry at least three orders (each application of
    the field costs one).
    """
    jets = _eta_derivative_jets(lam, eta)
    return (jets[0].value, jets[1].value, jets[2].value)


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
    rank = rank_df(f, tol)
    # A deeper jet of the same discriminant feeds the derived
    # quantities, so each of them still carries a populated jet of its
    # own whose coefficient scale is the right yardstick for its value.
    lam_deep = _lambda_jet(f)
    lam = lam_deep.truncate(3)
    scale_lam = lam.max_abs_coeff()

    lam1, lam2 = lam_deep.partial(1), lam_deep.partial(2)
    h11, h12, h22 = lam1.partial(1), lam1.partial(2), lam2.partial(2)
    det_hess_jet = h11 * h22 - h12 * h12

    d_lam = (lam.deriv(1, 0), lam.deriv(0, 1))
    hess = (
        (lam.deriv(2, 0), lam.deriv(1, 1)),
        (lam.deriv(1, 1), lam.deriv(0, 2)),
    )
    det_hess = det_hess_jet.value

    zr = tol.zero_rel
    margins = {
        "lambda": _decide(lam.value, scale_lam, zr),
        "d_lambda": _decide(max(abs(d_lam[0]), abs(d_lam[1])), scale_lam, zr),
        "det_hess_lambda": _decide(det_hess, det_hess_jet.max_abs_coeff(), zr),
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
        nf = null_field(f, tol)
        jets = _eta_derivative_jets(lam_deep, nf.eta)
        report.eta_at_p = nf.values_at_base()
        report.eta_provenance = nf.provenance
        report.eta_lambda, report.eta2_lambda, report.eta3_lambda = (j.value for j in jets)
        # Each iterated derivative is judged against the coefficient scale
        # of its own jet.  The tested value is that jet's constant term, so
        # this asks whether the value stands out from the local behavior of
        # the same quantity; products of input scales overshoot badly after
        # coordinate changes and would drown genuinely nonzero invariants.
        for name, jet in zip(("eta_lambda", "eta2_lambda", "eta3_lambda"), jets):
            margins[name] = _decide(jet.value, jet.max_abs_coeff(), zr)

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

    source is a polynomial map fixing the germ's base point; target is
    one fixing the origin of the translated target plane (the germ's
    value is subtracted before target applies, so classification data
    is unaffected).  Both must have invertible linear parts at their
    base points.
    """
    p = f.base_point
    s1, s2 = (c if isinstance(c, Poly2) else poly_from_spec(c) for c in source)
    t1, t2 = (c if isinstance(c, Poly2) else poly_from_spec(c) for c in target)

    s_jets = tuple(poly_to_jet(s, p, CONJUGATE_ORDER) for s in (s1, s2))
    t_jets = tuple(poly_to_jet(t, (0.0, 0.0), CONJUGATE_ORDER) for t in (t1, t2))
    sv = (s_jets[0].value, s_jets[1].value)
    if math.hypot(sv[0] - p[0], sv[1] - p[1]) > 1e-9 * (1.0 + math.hypot(*p)):
        raise NotADiffeomorphism(f"source map sends base point {p} to {sv}")
    tv = (t_jets[0].value, t_jets[1].value)
    if math.hypot(*tv) > 1e-9:
        raise NotADiffeomorphism(f"target map sends the origin to {tv}")
    for name, jets in (("source", s_jets), ("target", t_jets)):
        L = np.array([[j.deriv(1, 0), j.deriv(0, 1)] for j in jets])
        if abs(np.linalg.det(L)) <= 1e-8 * np.max(np.abs(L)) ** 2:
            raise NotADiffeomorphism(f"{name} map has a singular linear part")

    mid = _compose_each([poly_to_jet(c, p, CONJUGATE_ORDER) for c in f.components], *s_jets)
    mid = [m - m.value for m in mid]
    return PlaneMapGerm.from_jets(*_compose_each(t_jets, *mid))


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
