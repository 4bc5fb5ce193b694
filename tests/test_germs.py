"""Recognition of the normal-form catalog and its coordinate invariance."""

import numpy as np
import pytest

from planesing.germs import (
    BEAKS,
    BUILTIN_GERMS,
    CORANK_TWO,
    CUSP,
    DEGENERATE,
    FOLD,
    IMMERSION,
    LIPS,
    SWALLOWTAIL,
    UNRECOGNIZED,
    ClassificationReport,
    CorankTwoError,
    NotADiffeomorphism,
    PlaneMapGerm,
    ToleranceConfig,
    builtin_germ,
    classify,
    conjugate_by_diffeos,
    discriminant,
    eta_derivatives,
    null_field,
    rank_df,
)
from planesing.jets import Jet2, compose_map, poly_to_jet
from planesing.parsing import parse_map
from planesing.poly import Poly2, _binomial
from planesing.serialize import canonical_json
from test_locus import _pool_conjugate

CATALOG = {
    "immersion": IMMERSION,
    "fold": FOLD,
    "cusp": CUSP,
    "lips": LIPS,
    "beaks": BEAKS,
    "swallowtail": SWALLOWTAIL,
}


@pytest.mark.parametrize("name,expected", sorted(CATALOG.items()))
def test_normal_form_catalog(name, expected):
    report = classify(builtin_germ(name))
    assert report.singularity_class == expected


def test_builtin_names_are_stable():
    assert set(BUILTIN_GERMS) == set(CATALOG)


def test_builtin_germ_tables_are_the_literal_products():
    u, v = Poly2.variable(1), Poly2.variable(2)
    literal = {
        "immersion": (u, v),
        "fold": (u, v * v),
        "cusp": (u, v * v * v + u * v),
        "lips": (u, v * v * v + u * u * v),
        "beaks": (u, v * v * v - u * u * v),
        "swallowtail": (u, u * v + v * v * v * v),
    }
    assert tuple(literal) == BUILTIN_GERMS
    for name, comps in literal.items():
        germ = builtin_germ(name)
        assert germ.base_point == (0.0, 0.0)
        for got, want in zip(germ.components, comps):
            assert got.table.tobytes() == want.table.tobytes()
            assert got.table.shape == want.table.shape


def test_unknown_builtin_germ_lists_the_names():
    with pytest.raises(KeyError) as info:
        builtin_germ("folds")
    assert info.value.args == (
        "unknown builtin germ 'folds'; choose from "
        "['beaks', 'cusp', 'fold', 'immersion', 'lips', 'swallowtail']",
    )


def test_discriminant_of_lips_form():
    lam = discriminant(builtin_germ("lips"))
    assert lam.coeffs[0, 2] == pytest.approx(3.0)
    assert lam.coeffs[2, 0] == pytest.approx(1.0)
    assert lam.value == 0.0


def test_discriminant_of_swallowtail_form():
    lam = discriminant(builtin_germ("swallowtail"))
    assert lam.coeffs[1, 0] == pytest.approx(1.0)
    assert lam.coeffs[0, 3] == pytest.approx(4.0)


def test_discriminant_of_identity():
    g = PlaneMapGerm((Poly2.variable(1), Poly2.variable(2)), (0.0, 0.0))
    lam = discriminant(g)
    assert lam.value == pytest.approx(1.0)


def test_rank_examples():
    ident = PlaneMapGerm((Poly2.variable(1), Poly2.variable(2)), (0.0, 0.0))
    assert rank_df(ident) == 2
    assert rank_df(builtin_germ("fold")) == 1
    squares = PlaneMapGerm(
        (Poly2({(2, 0): 1.0}), Poly2({(0, 2): 1.0})), (0.0, 0.0)
    )
    assert rank_df(squares) == 0
    # a unit row next to a 1e8 row is not a zero row: each row is
    # measured against its own component
    for expr in ("(u, 1e8*(v^3+u*v))", "(1e-9*u, v^3+u*v)"):
        assert rank_df(PlaneMapGerm(parse_map(expr))) == 1
    assert rank_df(PlaneMapGerm(parse_map("(u, 1e-9*v)"))) == 2


def test_null_field_on_lips_and_beaks():
    for name in ("lips", "beaks"):
        nf = null_field(builtin_germ(name))
        assert nf.provenance == "first-row"
        v = nf.values_at_base()
        assert v[0] == 0.0 and abs(v[1]) == 1.0


def test_null_field_second_row_fallback():
    # first component v^2 has vanishing gradient at 0, second is v
    g = PlaneMapGerm((Poly2({(0, 2): 1.0}), Poly2({(0, 1): 1.0})), (0.0, 0.0))
    nf = null_field(g)
    assert nf.provenance == "second-row"
    assert nf.values_at_base() == pytest.approx((-1.0, 0.0))


def test_null_field_kernel_orthogonal_to_gradient_row():
    # f = (v, u): grad P = (0, 1), so eta(p) = (1, 0)
    g = PlaneMapGerm((Poly2.variable(2), Poly2.variable(1)), (0.0, 0.0))
    assert null_field(g).values_at_base() == pytest.approx((1.0, 0.0))


def test_null_field_corank_two_rejected():
    squares = PlaneMapGerm(
        (Poly2({(2, 0): 1.0}), Poly2({(0, 2): 1.0})), (0.0, 0.0)
    )
    with pytest.raises(CorankTwoError):
        null_field(squares)


@pytest.mark.parametrize("name", sorted(set(CATALOG) - {"immersion"}))
def test_df_eta_is_discriminant_column(name):
    # df(eta) must equal (0, -lambda) or (-lambda, 0) identically as jets
    g = builtin_germ(name)
    nf = null_field(g)
    eta = (nf.eta[0].truncate(3), nf.eta[1].truncate(3))
    lam = discriminant(g)
    jac = [poly_to_jet(c, g.base_point, 4) for c in g.components]
    rows = [
        jac[0].partial(1) * eta[0] + jac[0].partial(2) * eta[1],
        jac[1].partial(1) * eta[0] + jac[1].partial(2) * eta[1],
    ]
    if nf.provenance == "first-row":
        zero_row, lam_row = rows
    else:
        lam_row, zero_row = rows
    scale = max(lam.max_abs_coeff(), 1.0)
    assert zero_row.max_abs_coeff() <= 1e-10 * scale
    assert np.allclose(lam_row.coeffs, -lam.coeffs, rtol=0, atol=1e-10 * scale)


def test_eta_derivative_chain_swallowtail_direction():
    # lambda = 4v^3 + u with field (0, 1): derivatives (0, 0, 24)
    lam = poly_to_jet(Poly2({(0, 3): 4.0, (1, 0): 1.0}), (0.0, 0.0), 3)
    eta = (
        poly_to_jet(Poly2.constant(0.0), (0.0, 0.0), 3),
        poly_to_jet(Poly2.constant(1.0), (0.0, 0.0), 3),
    )
    assert eta_derivatives(lam, eta) == pytest.approx((0.0, 0.0, 24.0))


def test_eta_derivative_chain_beaks_direction():
    lam = poly_to_jet(Poly2({(0, 2): 3.0, (2, 0): -1.0}), (0.0, 0.0), 3)
    eta = (
        poly_to_jet(Poly2.constant(0.0), (0.0, 0.0), 3),
        poly_to_jet(Poly2.constant(1.0), (0.0, 0.0), 3),
    )
    assert eta_derivatives(lam, eta) == pytest.approx((0.0, 6.0, 0.0))


def test_report_records_decision_trail():
    report = classify(builtin_germ("cusp"))
    assert report.rank == 1
    assert report.d_lambda == pytest.approx((1.0, 0.0))
    assert report.eta_lambda == pytest.approx(0.0)
    assert abs(report.eta2_lambda) == pytest.approx(6.0)
    assert report.margins["eta2_lambda"]["decision"] == "nonzero"
    d = report.to_dict()
    assert d["class"] == CUSP
    assert d["rank_df"] == 1
    assert set(d["margins"]) >= {"lambda", "d_lambda", "eta_lambda"}


def test_margins_clear_threshold_on_catalog():
    # every decision the tree used must sit well away from the gray zone
    tol = ToleranceConfig()
    for name in CATALOG:
        report = classify(builtin_germ(name))
        for entry in report.margins.values():
            if entry["decision"] == "nonzero":
                assert entry["normalized"] >= 10 * tol.zero_rel
            elif entry["decision"] == "zero":
                assert entry["normalized"] <= tol.zero_rel


def test_lips_implies_solid_eta2():
    report = classify(builtin_germ("lips"))
    assert report.singularity_class == LIPS
    assert abs(report.eta2_lambda) > 0.0
    assert report.margins["eta2_lambda"]["decision"] == "nonzero"


def test_swapped_source_coordinates_preserve_class():
    swaps = {
        "fold": (Poly2.variable(2), Poly2({(2, 0): 1.0})),
        "cusp": (Poly2.variable(2), Poly2({(3, 0): 1.0, (1, 1): 1.0})),
        "lips": (Poly2.variable(2), Poly2({(3, 0): 1.0, (1, 2): 1.0})),
        "beaks": (Poly2.variable(2), Poly2({(3, 0): 1.0, (1, 2): -1.0})),
        "swallowtail": (Poly2.variable(2), Poly2({(1, 1): 1.0, (4, 0): 1.0})),
    }
    for name, comps in swaps.items():
        g = PlaneMapGerm(comps, (0.0, 0.0))
        assert classify(g).singularity_class == CATALOG[name], name


def test_off_catalog_germs_stay_degenerate():
    trio = [
        Poly2({(0, 3): 1.0, (3, 1): 1.0}),          # v^3 + u^3 v
        Poly2({(1, 1): 1.0, (0, 5): 1.0, (0, 7): 1.0}),  # uv + v^5 + v^7
        Poly2({(1, 2): 1.0, (0, 4): 1.0, (0, 5): 1.0}),  # uv^2 + v^4 + v^5
    ]
    for q in trio:
        g = PlaneMapGerm((Poly2.variable(1), q), (0.0, 0.0))
        cls = classify(g).singularity_class
        assert cls in (DEGENERATE, UNRECOGNIZED)


def test_regular_point_reports_immersion_with_note():
    g = builtin_germ("fold").rebase((0.0, 0.5))  # off the fold line
    report = classify(g)
    assert report.singularity_class == IMMERSION
    assert report.note


def test_identity_conjugation_is_noop():
    ident = (Poly2.variable(1), Poly2.variable(2))
    g = builtin_germ("lips")
    h = conjugate_by_diffeos(g, ident, ident)
    assert classify(h).singularity_class == LIPS


def test_rotation_conjugation_of_fold():
    c, s = np.cos(0.7), np.sin(0.7)
    rot = (
        Poly2({(1, 0): c, (0, 1): -s}),
        Poly2({(1, 0): s, (0, 1): c}),
    )
    ident = (Poly2.variable(1), Poly2.variable(2))
    h = conjugate_by_diffeos(builtin_germ("fold"), rot, ident)
    assert classify(h).singularity_class == FOLD


def random_origin_diffeo(rng):
    """Degree-3 polynomial map fixing 0, det of linear part in [0.5, 2]."""
    while True:
        L = rng.uniform(-1.0, 1.0, (2, 2))
        if 0.5 <= np.linalg.det(L) <= 2.0:
            break
    comps = []
    for row in range(2):
        terms = {(1, 0): L[row, 0], (0, 1): L[row, 1]}
        for i in range(4):
            for j in range(4 - i):
                if i + j >= 2:
                    terms[(i, j)] = rng.uniform(-0.5, 0.5)
        comps.append(Poly2(terms))
    return (comps[0], comps[1])


def test_random_conjugation_suite(rng):
    # a slice of the full invariance run (the acceptance test does 200)
    for _ in range(20):
        src = random_origin_diffeo(rng)
        tgt = random_origin_diffeo(rng)
        for name, expected in CATALOG.items():
            h = conjugate_by_diffeos(builtin_germ(name), src, tgt)
            assert classify(h).singularity_class == expected, name


def _binomial_shifted_table(self, base):
    """Poly2's shift as the two binomial products, even for a zero shift."""
    t = self.table
    with np.errstate(over="ignore", invalid="ignore"):
        return _binomial(float(base[0]), t.shape[0]) @ t @ _binomial(float(base[1]), t.shape[1]).T


def _conjugate_reference(f, source, target):
    """conjugate_by_diffeos with one compose_map call per component."""
    p, order = f.base_point, 4
    s_jets = [poly_to_jet(s, p, order) for s in source]
    t_jets = [poly_to_jet(t, (0.0, 0.0), order) for t in target]
    mid = [compose_map(poly_to_jet(c, p, order), *s_jets) for c in f.components]
    mid = [m - m.value for m in mid]
    return PlaneMapGerm.from_jets(*(compose_map(t, *mid) for t in t_jets))


def _conjugation_bytes(germs, conjugate):
    out = []
    for f, source, target in germs:
        g = conjugate(f, source, target)
        out.append([(c.table.shape, c.table.tobytes()) for c in g.components])
        out += [canonical_json(classify(g, ToleranceConfig(zero_rel=zr)).to_dict())
                for zr in (1e-7, 1e-3)]
    return out


def test_conjugation_matches_the_per_component_reference_bytes(rng, monkeypatch):
    p = (0.375, -0.625)
    cases = []
    for _ in range(10):
        source, target = random_origin_diffeo(rng), random_origin_diffeo(rng)
        # the same changes moved to p: u -> p + s(u - p)
        moved = tuple(s.shift((-p[0], -p[1])) + c for s, c in zip(source, p))
        for name in CATALOG:
            form = builtin_germ(name)
            cases.append((form, source, target))
            at_p = tuple(c.shift((-p[0], -p[1])) for c in form.components)
            cases.append((PlaneMapGerm(at_p, p), moved, target))
    got = _conjugation_bytes(cases, conjugate_by_diffeos)
    monkeypatch.setattr(Poly2, "_shifted_table", _binomial_shifted_table)
    assert got == _conjugation_bytes(cases, _conjugate_reference)


def test_degenerate_linear_part_rejected():
    bad = (
        Poly2({(1, 0): 1.0, (0, 1): 1.0}),
        Poly2({(1, 0): 1.0, (0, 1): 1.0}),
    )
    ident = (Poly2.variable(1), Poly2.variable(2))
    with pytest.raises(NotADiffeomorphism):
        conjugate_by_diffeos(builtin_germ("fold"), bad, ident)
    with pytest.raises(NotADiffeomorphism):
        conjugate_by_diffeos(builtin_germ("fold"), ident, tuple(c * 1e-5 for c in bad))


def test_small_invertible_linear_parts_are_diffeomorphisms():
    # the singular-linear-part test is relative to the size of the part
    small = (Poly2({(1, 0): 1e-5}), Poly2({(0, 1): 1e-5}))
    ident = (Poly2.variable(1), Poly2.variable(2))
    for source, target in ((small, ident), (ident, small), (small, small)):
        h = conjugate_by_diffeos(builtin_germ("cusp"), source, target)
        assert classify(h).singularity_class == CUSP


def test_source_diffeo_must_fix_base_point():
    shift = (
        Poly2({(1, 0): 1.0, (0, 0): 0.3}),
        Poly2({(0, 1): 1.0}),
    )
    ident = (Poly2.variable(1), Poly2.variable(2))
    with pytest.raises(NotADiffeomorphism):
        conjugate_by_diffeos(builtin_germ("fold"), shift, ident)


def test_classification_is_translation_invariant():
    # same local behavior at a nonzero base point, nonzero target value
    comps = (
        Poly2.variable(1),
        Poly2({(0, 2): 1.0}),  # (u, v^2) singular along v=0 only
    )
    g = PlaneMapGerm(comps, (1.3, 0.0))
    report = classify(g)
    assert report.singularity_class == FOLD
    assert report.base_point == pytest.approx((1.3, 0.0))


@pytest.mark.parametrize("shift", [1e3, 1e6, 1e8])
def test_translated_fold_is_a_fold(shift):
    # df is measured at the base point, where the fold's Jacobian is
    # [[1, 0], [0, 0]], not by the global coefficients, which grow with
    # the translation
    g = PlaneMapGerm(parse_map(f"(u - {shift!r}, (v - {shift!r})^2)"), (shift, shift))
    assert max(g.component_scales()) == 1.0
    report = classify(g)
    assert (report.singularity_class, report.rank) == (FOLD, 1)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(zero_rel=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(zero_rel=2.0)
    with pytest.raises(ValueError):
        ToleranceConfig(newton_max_iter=0)


def test_gray_zone_reports_unrecognized():
    # eta-lambda normalizes to ~1.7e-7, strictly between zero_rel (1e-7)
    # and the 10x nonzero bar: the tree must refuse to guess
    g = PlaneMapGerm(
        (Poly2.variable(1), Poly2({(0, 2): 5e-7, (0, 3): 1.0})),
        (0.0, 0.0),
    )
    report = classify(g)
    assert report.singularity_class == UNRECOGNIZED
    assert report.margins["eta_lambda"]["decision"] == "uncertain"
    assert report.note


@pytest.mark.parametrize(
    "expr,zero_rel,expected,note",
    [
        # each row of df is measured against its own component's scale
        ("(u, 1e-9*v)", 1e-7, IMMERSION, "Jacobian has full rank at the base point"),
        ("(u, 1e-9*v + u^2)", 1e-7, IMMERSION, "discriminant is nonzero at the base point"),
        (
            "(u, 0.5*u*v^2)",
            1e-7,
            DEGENERATE,
            "indefinite discriminant Hessian but eta^2 lambda vanishes",
        ),
        (
            "(u, 1e-8*v + v^2)",
            1e-9,
            UNRECOGNIZED,
            "discriminant value sits between the zero and nonzero thresholds",
        ),
    ],
)
def test_rare_verdicts_carry_their_notes(expr, zero_rel, expected, note):
    report = classify(PlaneMapGerm(parse_map(expr)), ToleranceConfig(zero_rel=zero_rel))
    assert (report.singularity_class, report.note) == (expected, note)


@pytest.mark.parametrize("name", list(BUILTIN_GERMS))
def test_scaling_one_component_keeps_the_class(name):
    P, Q = builtin_germ(name).components
    want = classify(builtin_germ(name)).singularity_class
    for e in (6, 8, 9, 12, 40):
        for k in (10.0**e, 10.0**-e):
            for f in (PlaneMapGerm((P * k, Q)), PlaneMapGerm((P, Q * k))):
                assert classify(f).singularity_class == want, (e, k, f)


def _classify_reference(f, tol):
    # the if/else tree that classify's walk replaced, step for step
    def margin(value, scale):
        if scale <= 0.0:
            decision, m = "zero", 0.0
        else:
            m = abs(value) / scale
            if m <= tol.zero_rel:
                decision = "zero"
            elif m >= 10.0 * tol.zero_rel:
                decision = "nonzero"
            else:
                decision = "uncertain"
        return decision, {"value": value, "normalized": m, "decision": decision}

    rank = rank_df(f, tol)
    lam_deep = _pair_lambda(f)
    lam = lam_deep.truncate(3)
    lam1, lam2 = lam_deep.partial(1), lam_deep.partial(2)
    h11, h12, h22 = lam1.partial(1), lam1.partial(2), lam2.partial(2)
    det_hess_jet = h11 * h22 - h12 * h12
    d_lam = (lam.deriv(1, 0), lam.deriv(0, 1))
    hess = ((lam.deriv(2, 0), lam.deriv(1, 1)), (lam.deriv(1, 1), lam.deriv(0, 2)))
    det_hess = det_hess_jet.value
    margins = {}
    dec_lam, margins["lambda"] = margin(lam.value, lam.max_abs_coeff())
    dec_dlam, margins["d_lambda"] = margin(max(abs(d_lam[0]), abs(d_lam[1])), lam.max_abs_coeff())
    dec_hess, margins["det_hess_lambda"] = margin(det_hess, det_hess_jet.max_abs_coeff())
    report = ClassificationReport(
        UNRECOGNIZED, f.base_point, rank, lam, d_lam, hess, det_hess,
        margins=margins, tolerances=tol.as_dict(),
    )

    def verdict(cls, note=""):
        report.singularity_class, report.note = cls, note
        return report

    def between(name):
        return verdict(UNRECOGNIZED, f"{name} sits between the zero and nonzero thresholds")

    if rank == 2:
        return verdict(IMMERSION, "Jacobian has full rank at the base point")
    if rank == 0:
        return verdict(CORANK_TWO, "Jacobian vanishes at the base point; outside corank-one scope")
    if dec_lam == "nonzero":
        return verdict(IMMERSION, "discriminant is nonzero at the base point")
    if dec_lam == "uncertain":
        return between("discriminant value")
    nf = null_field(f, tol)
    jets, g = [], lam_deep
    for _ in range(3):
        m = g.order - 1
        g = nf.eta[0].truncate(m) * g.partial(1) + nf.eta[1].truncate(m) * g.partial(2)
        jets.append(g)
    d1, d2, d3 = jets
    report.eta_at_p = nf.values_at_base()
    report.eta_provenance = nf.provenance
    report.eta_lambda, report.eta2_lambda, report.eta3_lambda = d1.value, d2.value, d3.value
    dec_e1, margins["eta_lambda"] = margin(d1.value, d1.max_abs_coeff())
    dec_e2, margins["eta2_lambda"] = margin(d2.value, d2.max_abs_coeff())
    dec_e3, margins["eta3_lambda"] = margin(d3.value, d3.max_abs_coeff())
    if dec_e1 == "nonzero":
        return verdict(FOLD)
    if dec_e1 == "uncertain":
        return between("eta lambda")
    if dec_dlam == "nonzero":
        if dec_e2 == "nonzero":
            return verdict(CUSP)
        if dec_e2 == "uncertain":
            return between("eta^2 lambda")
        if dec_e3 == "nonzero":
            return verdict(SWALLOWTAIL)
        if dec_e3 == "uncertain":
            return between("eta^3 lambda")
        return verdict(
            DEGENERATE, "null-direction derivatives of the discriminant vanish through order three"
        )
    if dec_dlam == "uncertain":
        return between("d lambda")
    if dec_hess == "nonzero" and det_hess > 0.0:
        return verdict(LIPS)
    if dec_hess == "nonzero" and det_hess < 0.0:
        if dec_e2 == "nonzero":
            return verdict(BEAKS)
        if dec_e2 == "uncertain":
            return between("eta^2 lambda")
        return verdict(DEGENERATE, "indefinite discriminant Hessian but eta^2 lambda vanishes")
    if dec_hess == "zero":
        return verdict(DEGENERATE, "discriminant Hessian is singular at a critical point")
    return between("det Hess lambda")


@pytest.mark.parametrize("zero_rel", [1e-7, 1e-3, 1e-2, 1e-10, 1e-13, 0.05])
def test_walk_matches_the_reference_tree(zero_rel):
    tol = ToleranceConfig(zero_rel=zero_rel)
    germs = [builtin_germ(name) for name in CATALOG]
    germs += list(_conjugated_germs(np.random.default_rng(2455), 20))
    germs += [g.rebase(pt) for g in germs[:6] for pt in ((0.25, 0.0), (0.0, 0.5), (1e-9, 0.0))]
    germs += [PlaneMapGerm(parse_map(m)) for m in ("(u^2, v^2)", "(u, 0.5*u*v^2)", "(u, 1e-9*v)")]
    for g in germs:
        assert classify(g, tol).to_dict() == _classify_reference(g, tol).to_dict()


# Reference ports of the dict-based forms that the table reads replaced;
# the new code must give the same bits.


def _from_jets_reference(jet1, jet2):
    p = jet1.base_point
    polys = []
    for jet in (jet1, jet2):
        local = Poly2(
            {
                (i, j): jet.coeffs[i, j]
                for i in range(jet.order + 1)
                for j in range(jet.order + 1 - i)
                if jet.coeffs[i, j] != 0.0
            }
        )
        polys.append(local.shift((-p[0], -p[1])))
    return PlaneMapGerm((polys[0], polys[1]), p)


def _derivative_scale_reference(f):
    # the Taylor coefficients at the base point through order 7, read one by one
    s = 0.0
    for comp in f.components:
        for (i, j), c in np.ndenumerate(comp.recentered_coeffs(f.base_point, 7)):
            if i + j >= 1:
                s = max(s, abs(float(c)))
    return s


def _random_jet(rng, order, base):
    table = rng.uniform(-3.0, 3.0, (order + 1, order + 1)) * 10.0 ** rng.integers(-8, 9)
    table[rng.random(table.shape) < 0.3] = 0.0
    table[rng.random(table.shape) < 0.1] = -0.0
    return Jet2(base, table, order)


def _conjugated_germs(rng, n):
    for _ in range(n):
        src, tgt = random_origin_diffeo(rng), random_origin_diffeo(rng)
        for name in CATALOG:
            yield conjugate_by_diffeos(builtin_germ(name), src, tgt)


def _same_germ(g, h):
    assert g.base_point == h.base_point
    for a, b in zip(g.components, h.components):
        assert a.table.shape == b.table.shape
        assert np.array_equal(a.table, b.table)


def test_from_jets_matches_dict_rebuild(rng):
    for order in range(1, 7):
        for _ in range(10):
            base = tuple(rng.uniform(-1.0, 1.0, 2))
            j1, j2 = _random_jet(rng, order, base), _random_jet(rng, order, base)
            _same_germ(PlaneMapGerm.from_jets(j1, j2), _from_jets_reference(j1, j2))
    for g in _conjugated_germs(rng, 5):
        base = tuple(rng.uniform(-0.5, 0.5, 2))
        jets = [poly_to_jet(c, base, 4) for c in g.components]
        _same_germ(PlaneMapGerm.from_jets(*jets), _from_jets_reference(*jets))


def test_table_reads_match_dict_reads(rng):
    germs = list(_conjugated_germs(rng, 10))
    for order in range(1, 7):
        for _ in range(5):
            base = tuple(rng.uniform(-1.0, 1.0, 2))
            germs.append(
                PlaneMapGerm.from_jets(_random_jet(rng, order, base), _random_jet(rng, order, base))
            )
    germs += [builtin_germ(name) for name in CATALOG]
    germs.append(PlaneMapGerm((Poly2.constant(2.0), Poly2())))
    for g in germs:
        assert max(g.component_scales()) == _derivative_scale_reference(g)


def _first_row_reference(f, u):
    # each row of df at u over its own component's scale, read from the
    # Taylor coefficients one by one; the larger row, the first on a tie
    row_max = []
    for comp in f.components:
        c = comp.recentered_coeffs(u, 7)
        scale = max(abs(float(c[i, j])) for (i, j) in np.ndindex(c.shape) if i + j >= 1)
        row = max(abs(float(c[1, 0])), abs(float(c[0, 1])))
        row_max.append(row / scale if scale > 0.0 else row)
    return row_max[0] >= row_max[1]


def test_row_rule_at_points_matches_its_reference(rng):
    u, v = Poly2.variable(1), Poly2.variable(2)
    germs = [
        PlaneMapGerm((u * u + v * v, v)),  # first row vanishes at the origin only
        PlaneMapGerm((v * v, v)),  # first row vanishes on the line v = 0
        PlaneMapGerm((v * v * v + u * v, u)),
    ]
    germs += [builtin_germ(name) for name in CATALOG]
    germs += list(_conjugated_germs(rng, 3))
    xs = np.concatenate([[0.0, 0.0, 0.5, -0.25, 1e-12], rng.uniform(-1.0, 1.0, 40)])
    ys = np.concatenate([[0.0, 1e-300, 0.0, 0.0, 0.0], rng.uniform(-1.0, 1.0, 40)])
    for g in germs:
        for pt in zip(xs, ys):
            want = "first-row" if _first_row_reference(g, pt) else "second-row"
            assert null_field(g.rebase(pt)).provenance == want
    assert null_field(germs[0]).provenance == "second-row"
    assert null_field(germs[1].rebase((0.7, 0.0))).provenance == "second-row"
    assert null_field(germs[1].rebase((0.0, 0.7))).provenance == "first-row"


def test_jacobian_jets_are_built_once_per_germ(rng, monkeypatch):
    g = builtin_germ("cusp").rebase((0.5, -0.25))
    jets = g.jacobian_jets()
    assert g.jacobian_jets() is jets
    assert {(d.order, d.base_point) for row in jets for d in row} == {(6, g.base_point)}
    # a new base point needs new jets
    h = g.rebase((0.0, 0.0))
    assert h.jacobian_jets() is not jets
    assert [[d.value for d in row] for row in h.jacobian_jets()] == [[1.0, 0.0], [0.0, 0.0]]
    # the values are df at the base point, to rounding
    germs = [g] + [c.rebase(tuple(rng.uniform(-1.0, 1.0, 2))) for c in _conjugated_germs(rng, 5)]
    for f in germs:
        got = [[d.value for d in row] for row in f.jacobian_jets()]
        want = [[d(f.base_point) for d in row] for row in f.jacobian()]
        assert np.allclose(got, want, rtol=0.0, atol=1e-14 * max(f.component_scales()))
    # and they are all that rank_df, null_field and classify read
    def global_polynomial(self):
        raise AssertionError("a global polynomial was built")

    monkeypatch.setattr(PlaneMapGerm, "jacobian", global_polynomial)
    monkeypatch.setattr(PlaneMapGerm, "discriminant_poly", global_polynomial)
    for f in germs + [builtin_germ(name) for name in CATALOG]:
        if classify(f).rank == 1:
            null_field(f)


def _pair_lambda(f):
    (Pu, Pv), (Qu, Qv) = f.jacobian_jets()
    return Pu * Qv - Pv * Qu


def _lambda_oracle(f):
    # the route classify took before the Jacobian jets: the global
    # discriminant polynomial, recentred to order 6
    return poly_to_jet(f.discriminant_poly(), f.base_point, 6)


def test_lambda_jet_matches_the_global_discriminant_bit_for_bit():
    for name in CATALOG:
        for pt in ((0.0, 0.0), (0.5, -0.25), (-0.75, 0.125), (0.0625, 1.5)):
            f = builtin_germ(name).rebase(pt)
            got = classify(f).lambda_jet
            want = _lambda_oracle(f)
            assert got.coeffs.tobytes() == want.truncate(3).coeffs.tobytes(), (name, pt)
            assert _pair_lambda(f).coeffs.tobytes() == want.coeffs.tobytes(), (name, pt)


def test_lambda_jet_matches_the_global_discriminant_on_conjugates(rng):
    for g in _conjugated_germs(rng, 50):
        f = g.rebase(tuple(rng.uniform(-0.5, 0.5, 2)))
        want = _lambda_oracle(f)
        err = np.abs(_pair_lambda(f).coeffs - want.coeffs).max()
        assert err <= 1e-13 * want.max_abs_coeff()


#: Jacobian [[6e-9, 6e-9], [6e-9, 6e-9]]: its singular value 1.2e-8 is
#: above rank_threshold = 1e-8 while every entry is below it
SMALL_ROWS = "(6e-9*u+6e-9*v+u^2, 6e-9*u+6e-9*v+v^2)"


def test_small_rows_of_a_rank_one_jacobian_give_a_report():
    report = classify(PlaneMapGerm(parse_map(SMALL_ROWS)))
    assert report.rank == 1
    assert report.eta_provenance == "first-row"
    assert (report.singularity_class, report.note) == (
        DEGENERATE,
        "indefinite discriminant Hessian but eta^2 lambda vanishes",
    )


@pytest.mark.parametrize(
    "expr,rank,provenance",
    [
        ("(u^2, v^2)", 0, None),
        (SMALL_ROWS.replace("6e-9", "2.4e-9"), 0, None),
        # every entry is below rank_threshold: the larger scaled row, the first on a tie
        (SMALL_ROWS, 1, "first-row"),
        ("(2e-9*u+2e-9*v+u^2, 9e-9*u+9e-9*v+v^2)", 1, "second-row"),
    ],
)
def test_null_field_raises_exactly_where_rank_df_is_zero(expr, rank, provenance):
    g = PlaneMapGerm(parse_map(expr))
    assert rank_df(g) == rank
    if rank == 0:
        with pytest.raises(CorankTwoError):
            null_field(g)
    else:
        assert null_field(g).provenance == provenance


#: Pool entries (POOL_EXCLUDED in bench/workloads.py) on which a null
#: field built from a poorly conditioned first row misclassified at
#: least one conjugated normal form: a row rule that kept the first row
#: whenever its largest entry cleared rank_threshold times the larger
#: component scale.
FIRST_ROW_RULE_MISSES = (
    1, 186, 242, 254, 593, 628, 761, 1497,
    2116, 2125, 2131, 2298, 2365, 2686, 2713, 2794,
    2845, 2901, 2926, 3080, 3113, 3242, 3628,
)


def _scale_component(g, component, factor):
    comps = list(g.components)
    comps[component] = comps[component] * factor
    return PlaneMapGerm(tuple(comps), g.base_point)


def _assert_own_class(g, name):
    report = classify(g)
    assert report.singularity_class == CATALOG[name]
    if name == "swallowtail":
        assert report.margins["eta3_lambda"]["normalized"] >= 1e-4


@pytest.mark.parametrize("entry", FIRST_ROW_RULE_MISSES)
def test_pool_conjugates_keep_their_class(entry):
    for name in CATALOG:
        _assert_own_class(_pool_conjugate(name, entry), name)


@pytest.mark.parametrize("component", [0, 1])
@pytest.mark.parametrize("k", [3, -3, 6, -6, 9, -9, 12, -12])
def test_scaling_one_component_keeps_the_pool_swallowtail(component, k):
    # scaling P or Q leaves the scaled Jacobian, so the row choice, as it is
    g = _pool_conjugate("swallowtail", 1)
    _assert_own_class(_scale_component(g, component, 10.0**k), "swallowtail")


def test_pool_conjugates_with_one_component_scaled_keep_their_class():
    for entry in range(24):
        for name in CATALOG:
            g = _pool_conjugate(name, entry)
            for component in (0, 1):
                _assert_own_class(_scale_component(g, component, 1e9), name)


def test_eta_derivatives_match_an_exact_sympy_oracle():
    # eta lambda, eta^2 lambda and eta^3 lambda of the first-row field
    # (P_v, -P_u), derived in exact rationals, against classify's report
    # on normal forms in dyadic affine-plus-quadratic coordinates at
    # dyadic base points; the germs' float coefficients are exact
    sp = pytest.importorskip("sympy")
    u, v = sp.symbols("u v")
    forms = {
        "fold": v**2,
        "cusp": v**3 + u * v,
        "lips": v**3 + u**2 * v,
        "beaks": v**3 - u**2 * v,
        "swallowtail": v**4 + u * v,
    }
    rng = np.random.default_rng(17)

    def dyadic(bound, den):
        return sp.Rational(int(rng.integers(-bound * den, bound * den + 1)), den)

    for name, q in forms.items():
        for _ in range(4):
            p = (dyadic(1, 8), dyadic(1, 8))
            a11, a12, a21, a22 = (dyadic(1, 4) for _ in range(4))
            if a11 * a22 - a12 * a21 == 0:
                a11, a22 = a11 + 1, a22 + 1
            X, Y = u - p[0], v - p[1]
            x = a11 * X + a12 * Y + dyadic(1, 4) * X**2
            y = a21 * X + a22 * Y
            P = sp.expand(x)
            Q = sp.expand(q.subs({u: x, v: y}, simultaneous=True) + dyadic(1, 2) * x)
            comps = []
            for e in (P, Q):
                terms = sp.Poly(e, u, v).terms()
                assert all(sp.Rational(float(c)) == c for _, c in terms)
                comps.append(Poly2({m: float(c) for m, c in terms}))
            report = classify(PlaneMapGerm(tuple(comps), (float(p[0]), float(p[1]))))
            assert report.eta_provenance == "first-row", name

            g = P.diff(u) * Q.diff(v) - P.diff(v) * Q.diff(u)
            got = (report.eta_lambda, report.eta2_lambda, report.eta3_lambda)
            for value in got:
                g = sp.expand(P.diff(v) * g.diff(u) - P.diff(u) * g.diff(v))
                want = g.subs({u: p[0], v: p[1]})
                assert abs(sp.Rational(value) - want) <= sp.Rational(1, 10**12) * (1 + abs(want))
