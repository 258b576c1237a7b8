import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ggkdv import spectral
from ggkdv.core import Parameters
from ggkdv.errors import ConstraintViolation, NonConvergence, NumericalError
from ggkdv.spectral import (
    CASE_TAGS,
    CaseTag,
    RootSet,
    Verdict,
    build_P,
    degree_certificate,
    lambert_solve,
    q_coefficients,
    r0_eigencheck,
    roots_P,
    ucp_certificate,
    ucp_sweep,
)

PARAMS = Parameters(a=0.0, b=1.0, c=1.0, r=1.0)


def random_valid_params(rng):
    while True:  # draw, then build only what passes
        a, b = rng.uniform(-1.2, 1.2), rng.uniform(0.2, 2.5)
        c, r = rng.uniform(0.2, 2.5), rng.uniform(-2.0, 2.0)
        if 1 - a**2 * b > 0.05:
            return Parameters(a=a, b=b, c=c, r=r)


def test_q_coefficients_example():
    q = q_coefficients([1.0], PARAMS)[0]
    np.testing.assert_allclose(q, [1, 0, -1, -2, 0, 1, 1], atol=1e-15)


def test_p_zero_factorization():
    # at p = 0:  P(xi) = xi^4 ((1 - a^2 b) xi^2 - r) / (1 - a^2 b)
    params = Parameters(a=0.5, b=1.0, c=2.0, r=0.7)
    gap = 1 - params.a**2 * params.b
    poly = build_P([0.0], params)
    expected = np.array([1.0, 0, -params.r / gap, 0, 0, 0, 0], dtype=complex)
    np.testing.assert_allclose(poly.coeffs[0], expected, atol=1e-15)


def test_build_p_is_monic_and_patterned():
    rng = np.random.default_rng(0)
    for _ in range(20):
        params = random_valid_params(rng)
        p = complex(rng.standard_normal(), rng.standard_normal())
        coeffs = build_P([p], params).coeffs[0]
        assert coeffs[0] == 1.0
        assert coeffs[1] == 0.0  # no degree-5 term
        assert coeffs[4] == 0.0  # no degree-2 term
        q = q_coefficients([p], params)[0]
        assert q[0] == pytest.approx(1 - params.a**2 * params.b)


def test_invalid_params_rejected():
    with pytest.raises(ConstraintViolation):
        build_P([1.0], Parameters(a=2.0, b=1.0, c=1.0, r=0.0))


def test_planted_roots_recovered():
    planted = np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0])
    coeffs = np.poly(planted).astype(complex)
    poly = build_P([1.0], PARAMS)
    poly.coeffs = coeffs[None, :]  # monic with known roots
    roots = roots_P(poly).roots[0]
    got = np.sort_complex(roots)
    np.testing.assert_allclose(got, np.sort_complex(planted.astype(complex)),
                               atol=1e-10)
    assert abs(np.sum(roots)) < 1e-10


def test_vieta_relations_on_reference_polynomial():
    rs = roots_P(build_P([1.0], PARAMS))
    # e1 = 0 and product of roots = c p^2 / (1 - a^2 b) = 1
    assert abs(np.sum(rs.roots[0])) < 1e-10
    assert np.prod(rs.roots[0]) == pytest.approx(1.0, rel=1e-8)
    assert np.max(rs.girard_residuals[0]) < 1e-8


def test_vieta_relations_random_sweep():
    rng = np.random.default_rng(42)
    for _ in range(100):
        params = random_valid_params(rng)
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(p) < 0.1:
            p += 0.5
        rs = roots_P(build_P([p], params))
        assert np.max(rs.girard_residuals[0]) <= 1e-8
        assert np.max(rs.residuals[0]) <= 1e-8 * max(
            1.0, np.max(np.abs(build_P([p], params).coeffs[0]))
        )


def test_lambert_identity_seed():
    assert lambert_solve(np.e, 0) == pytest.approx(1.0, abs=1e-12)


def test_lambert_imaginary_case():
    # (i pi / 2) e^{i pi / 2} = -pi/2
    z = lambert_solve(-np.pi / 2, 0)
    assert z == pytest.approx(1j * np.pi / 2, abs=1e-10)


def test_lambert_zero_alpha_rejected():
    with pytest.raises(ValueError):
        lambert_solve(0.0, 0)


def test_lambert_residuals_and_branch_separation():
    rng = np.random.default_rng(3)
    for _ in range(60):
        alpha = np.exp(rng.uniform(np.log(0.1), np.log(10.0)))
        alpha = alpha * np.exp(2j * np.pi * rng.uniform())
        sols = {}
        for k in range(-3, 4):
            z = lambert_solve(alpha, k)
            assert abs(z * np.exp(z) - alpha) <= 1e-10 * max(1.0, abs(alpha))
            sols[k] = z
        values = list(sols.values())
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                assert abs(values[i] - values[j]) > 1e-6
        # branches are ordered by imaginary part
        ims = [sols[k].imag for k in range(-3, 4)]
        assert all(i1 > i0 for i0, i1 in zip(ims, ims[1:]))


def test_lambert_sweep_returns_every_branch():
    # 3,000 draws of criterion 8's domain, each on branches -3..3
    rng = np.random.default_rng(3)
    for _ in range(3000):
        alpha = np.exp(rng.uniform(np.log(0.1), np.log(10.0)))
        alpha = alpha * np.exp(2j * np.pi * rng.uniform())
        for k in range(-3, 4):
            z = lambert_solve(alpha, k)
            assert abs(z * np.exp(z) - alpha) <= 1e-10 * max(1.0, abs(alpha))
            branch = (z + np.log(z) - np.log(alpha)) / (2j * np.pi)
            assert abs(branch - k) <= 1e-9, (alpha, k, z)


@pytest.mark.parametrize("alpha", [-0.6876548243908573 - 0.2841318774905037j,
                                   0.22224728597654164 - 0.9847296353531793j])
def test_lambert_principal_branch_near_the_cut(alpha):
    z = lambert_solve(alpha, 0)
    assert abs(z * np.exp(z) - alpha) <= 1e-10 * max(1.0, abs(alpha))


def test_lambert_branch_point_raises():
    # lambertw gives NaN within about 1e-16 of the branch point -1/e
    with pytest.raises(NonConvergence):
        lambert_solve(-np.exp(-1), 0)


@pytest.mark.parametrize("alpha", [1.7e308 + 1.7e308j, -1.5e308 - 1.5e308j])
def test_lambert_alpha_whose_modulus_overflows_raises(alpha):
    # |alpha| is past the largest double though both parts are finite
    with pytest.raises(NonConvergence, match="e\\+308"):
        lambert_solve(alpha, 0)


def test_ucp_case4_zero_p():
    v = ucp_certificate(1.0, 0.0, Parameters(a=0.2, b=1.0, c=1.0, r=1.0))
    assert v.case_tag is CaseTag.ZERO
    assert v.verdict is Verdict.OBSTRUCTION_CONFIRMED


def test_ucp_complex_example():
    params = Parameters(a=0.2, b=1.0, c=1.0, r=1.0)
    v = ucp_certificate(1.0, 1 + 1j, params)
    assert v.case_tag is CaseTag.COMPLEX
    assert v.dispersion > 0
    assert v.verdict is Verdict.OBSTRUCTION_CONFIRMED
    sweep = spectral._certify([1.0], [1 + 1j], params, 1e-6)
    assert sweep.roots.shape == (1, 6) and np.isfinite(sweep.roots).all()


def test_ucp_real_p_conjugate_closure():
    rng = np.random.default_rng(8)
    for _ in range(20):
        params = random_valid_params(rng)
        p = rng.uniform(0.3, 3.0) * (1 if rng.uniform() < 0.5 else -1)
        sweep = spectral._certify([rng.uniform(0.3, 5.0)], [p], params, 1e-6)
        assert sweep.verdict(0).case_tag is CaseTag.REAL
        # the roots of a real polynomial come in conjugate pairs
        roots = sweep.roots[0]
        assert np.max(np.min(np.abs(roots[:, None] - np.conj(roots)[None, :]),
                             axis=1)) < 1e-8


def test_ucp_imaginary_p():
    v = ucp_certificate(2.0, 0.8j, Parameters(a=0.3, b=1.0, c=1.5, r=0.9))
    assert v.case_tag is CaseTag.IMAGINARY
    assert v.verdict is Verdict.OBSTRUCTION_CONFIRMED


def test_ucp_sweep_all_confirmed():
    sweep = ucp_sweep(80, Parameters(a=0.2, b=1.0, c=1.0, r=1.0), seed=7)
    assert len(sweep) == 80
    assert sweep.confirmed.all() and not sweep.multiple.any()
    verdicts = [sweep.verdict(k) for k in range(len(sweep))]
    assert all(v.verdict is Verdict.OBSTRUCTION_CONFIRMED for v in verdicts)
    tags = {v.case_tag for v in verdicts}
    assert tags == {CASE_TAGS[c] for c in sweep.case_tag}
    assert CaseTag.ZERO in tags and CaseTag.REAL in tags
    assert CaseTag.IMAGINARY in tags and CaseTag.COMPLEX in tags


def test_degree_certificates():
    rep = degree_certificate("ANOTHER2")
    assert rep.numerator_degrees == (5, 5)
    assert rep.denominator_degree == 6
    assert rep.independent

    rep = degree_certificate("ANOTHER3")
    assert rep.numerator_degrees == (3, 3)
    assert rep.independent

    for cid in ("THREE_V", "THREE_VI"):
        rep = degree_certificate(cid)
        assert rep.numerator_degrees == (5, 5)
        assert max(rep.numerator_degrees) < rep.denominator_degree
        assert rep.independent

    with pytest.raises(ValueError):
        degree_certificate("NOPE")


def test_degree_certificate_deterministic():
    assert degree_certificate("THREE_V") == degree_certificate("THREE_V")


def test_r0_eigencheck_s_zero():
    # basis {1, x, x^2}: rows phi(0)=c0, phi'(0)=c1, phi''(0)=2 c2 already
    # have rank 3, so sigma_min > 0 for any L
    rep = r0_eigencheck([2.0], [0.0])
    assert rep.sigma_min[0] > 1e-2
    assert rep.certified[0]


def test_r0_eigencheck_s_one():
    rep = r0_eigencheck([1.0], [1.0])
    assert rep.sigma_min[0] > 1e-8
    assert rep.certified[0]
    assert r0_eigencheck([1.0], [2.0]).certified[0]


def test_r0_eigencheck_infinite_s_raises():
    # CPython's complex power raises OverflowError on an infinite s
    with pytest.raises(NumericalError, match="not finite"):
        r0_eigencheck(np.array([1.0]), np.array([complex(np.inf, 0)]))


def test_r0_eigencheck_scaling_invariance():
    # row normalization makes sigma_min insensitive to basis rescaling,
    # realized here as invariance under conjugating s around the circle
    rep1 = r0_eigencheck([1.5], [2.0 + 1.0j])
    rep2 = r0_eigencheck([1.5], [2.0 - 1.0j])
    assert rep1.sigma_min[0] == pytest.approx(rep2.sigma_min[0], rel=1e-10)


def r0_grid():
    """The 324 points (L, s) of L in {0.5, 1, pi, 5} and s on the 9 x 9 grid
    of [-10, 10]^2, as the arrays (L, re s, im s, s)."""
    L, re, im = (a.ravel() for a in np.meshgrid(
        [0.5, 1.0, np.pi, 5.0], np.linspace(-10, 10, 9), np.linspace(-10, 10, 9),
        indexing="ij"))
    s = np.empty(L.size, dtype=complex)
    s.real, s.imag = re, im
    return L, re, im, s


def test_r0_eigencheck_sweep():
    L, _, _, s = r0_grid()
    assert L.size == 324
    assert np.min(r0_eigencheck(L, s).sigma_min) > 1e-8


def certify_planted(monkeypatch, roots):
    """The one-draw record of L = 1, p = 0.7 + 0.2i with ``roots`` as the
    roots of P: the certificate reads them from the module's roots_P."""
    def planted(poly):
        return RootSet(roots=np.array([roots], dtype=complex),
                       residuals=np.zeros((1, 6)), girard_residuals=np.zeros((1, 6)))

    monkeypatch.setattr(spectral, "roots_P", planted)
    return spectral._certify([1.0], [0.7 + 0.2j], PARAMS, 1e-6)


def test_multiple_roots_inconclusive(monkeypatch):
    sweep = certify_planted(monkeypatch,
                            [1.0, 1.0 + 5e-9, -2.0, -0.5, 0.25 + 1j, 0.25 - 1j])
    assert sweep.multiple[0] and not sweep.confirmed[0]
    assert sweep.dispersion[0] == 0.0
    v = sweep.verdict(0)
    assert v.verdict is Verdict.INCONCLUSIVE and v.dispersion == 0.0
    assert sweep.min_separation[0] <= 1e-8


def test_spread_past_the_double_range_is_infinite(monkeypatch):
    # finite w_1 = -b^2 e^b and w_2 ~ (b^2 - pi^2) e^b near 1.5e308: their
    # difference overflows, which confirms the row with no numpy warning
    b = 696.5
    sweep = certify_planted(monkeypatch, [-1j * b, np.pi - 1j * b, 1.0, 2.0, 3.0, 4.0])
    assert np.isfinite(sweep.w).all() and sweep.w_scale[0] > 1e308
    assert sweep.dispersion[0] == np.inf and sweep.confirmed[0]


def test_near_double_root_instance_flagged_or_dispersed():
    # parameters tuned close to a double root of P; whichever side of the
    # multiplicity threshold the rounding lands on, the verdict must be an
    # explicit INCONCLUSIVE (flagged) or a confirmed positive dispersion
    params = Parameters(a=0.3, b=1.0, c=1.2, r=1.1)
    sweep = spectral._certify([1.0], [0.3766703343468792], params, 1e-6)
    v = sweep.verdict(0)
    if v.verdict is Verdict.INCONCLUSIVE:
        assert sweep.multiple[0]
    else:
        assert v.dispersion > 0


def test_reports_serialize_to_json():
    # the sweep verdicts and the r = 0 check reach JSON as the run.json
    # summaries of the ucp-sweep and r0-check runners; a DegreeReport holds
    # only plain fields, so dataclasses.asdict serializes it
    import dataclasses
    import json

    from ggkdv import scenario

    def run(text):
        summary, arts = scenario._RUNNERS[text.split()[1]](
            scenario.parse_scenario_text(text))
        return json.loads(json.dumps(summary, sort_keys=True)), arts

    blob, arts = run("command: ucp-sweep\nseed: 3\n"
                     "params: {a: 0.2, b: 1.0, c: 1.0, r: 1.0}\nucp: {samples: 6}\n")
    assert blob == {"samples": 6, "inconclusive": 0, "confirmed": 6}
    rows = "".join(arts["ucp.csv"]).strip().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["OBSTRUCTION_CONFIRMED"] * 6

    rep = json.loads(json.dumps(dataclasses.asdict(degree_certificate("ANOTHER2"))))
    assert rep["numerator_degrees"] == [5, 5]

    eig, _ = run("command: r0-check\n"
                 "r0: {re: [1, 1, 1], im: [0, 0, 1], lengths: [2.0]}\n")
    assert eig["certified"] is True and eig["points"] == 1


# -- per-point oracle ----------------------------------------------------------
# The scalar bodies that ucp_sweep, roots_P and r0_eigencheck ran one point at
# a time before they became stacked array code.  The stacked kernels must
# reproduce them bit for bit (girard residuals aside, whose symmetric
# functions are now expanded by a recurrence instead of np.poly).


def _oracle_classify(p, tol=1e-12):
    ap = abs(p)
    if ap < 1e-14:
        return CaseTag.ZERO
    if abs(p.imag) <= tol * ap:
        return CaseTag.REAL
    if abs(p.real) <= tol * ap:
        return CaseTag.IMAGINARY
    return CaseTag.COMPLEX


def _oracle_P(p, params):
    a, b, c, r = params.a, params.b, params.c, params.r
    q = np.array([1.0 - a**2 * b, 0.0, -r, -(c + 1.0) * p, 0.0, p * r, c * p**2],
                 dtype=complex)
    signs = np.array([1, -1, 1, -1, 1, -1, 1], dtype=complex)
    coeffs = signs * q / q[0].real
    coeffs[0] = 1.0
    return coeffs


def _oracle_roots(coeffs):
    """(roots, girard residuals) as the per-point roots_P computed them."""
    roots = np.roots(coeffs)
    dcoeffs = np.polyder(coeffs)
    for _ in range(3):
        val = np.polyval(coeffs, roots)
        der = np.polyval(dcoeffs, roots)
        safe = np.abs(der) > 0
        step = np.zeros_like(roots)
        step[safe] = val[safe] / der[safe]
        roots = roots - step
    poly = np.poly(roots)
    e_roots = np.array([(-1) ** k * poly[k] for k in range(1, 7)])
    e_coeffs = np.array([(-1) ** k * coeffs[k] for k in range(1, 7)])
    girard = np.abs(e_roots - e_coeffs) / np.maximum(1.0, np.abs(e_coeffs))
    return roots, girard


def _oracle_from_roots(L, p, roots, tol=1e-6):
    """(case_tag, dispersion, verdict, detail) of the verdict on one root set."""
    tag = _oracle_classify(p)
    detail = {"roots": roots}
    min_sep = min(abs(x - y) for x, y in itertools.combinations(roots, 2))
    scale = max(1.0, float(np.max(np.abs(roots))))
    if min_sep < 1e-8 * scale:
        detail["multiplicity"] = True
        detail["min_separation"] = min_sep
        return tag, 0.0, Verdict.INCONCLUSIVE, detail
    w = roots**2 * np.exp(1j * L * roots)
    detail["w"] = w
    wmax = detail["w_scale"] = float(np.max(np.abs(w)))
    dispersion = max(abs(x - y) for x, y in itertools.combinations(w, 2))
    verdict = (Verdict.OBSTRUCTION_CONFIRMED if dispersion > tol * wmax
               else Verdict.INCONCLUSIVE)
    return tag, float(dispersion), verdict, detail


def _oracle_draws(nsamples, seed, L_range, p_radius):
    """The (L, p) draws of the per-draw ucp_sweep, one rng.uniform at a time."""
    rng = np.random.default_rng(seed)
    for i in range(nsamples):
        L = float(rng.uniform(*L_range))
        kind = i % 8
        radius = float(np.exp(rng.uniform(np.log(p_radius[0]),
                                          np.log(p_radius[1]))))
        if kind == 5:
            p = radius * (1.0 if rng.uniform() < 0.5 else -1.0)
        elif kind == 6:
            p = 1j * radius * (1.0 if rng.uniform() < 0.5 else -1.0)
        elif kind == 7:
            p = 0.0
        else:
            p = radius * np.exp(2j * np.pi * rng.uniform())
        yield L, complex(p)


def _oracle_sweep(nsamples, params, seed, L_range, p_radius):
    """The per-draw ucp_sweep: one certificate per (L, p) draw."""
    out = []
    for L, p in _oracle_draws(nsamples, seed, L_range, p_radius):
        if _oracle_classify(p) is CaseTag.ZERO:
            out.append((L, p, CaseTag.ZERO, float("inf"),
                        Verdict.OBSTRUCTION_CONFIRMED, {}, None))
            continue
        roots, girard = _oracle_roots(_oracle_P(p, params))
        out.append((L, p, *_oracle_from_roots(L, p, roots), girard))
    return out


def _oracle_first_non_finite_w(nsamples, params, seed, L_range, p_radius):
    """The first draw (L, p), p nonzero, whose w_j = xi_j^2 e^{i L xi_j} are
    not all finite, or None."""
    for L, p in _oracle_draws(nsamples, seed, L_range, p_radius):
        if _oracle_classify(p) is not CaseTag.ZERO:
            roots, _ = _oracle_roots(_oracle_P(p, params))
            if not np.isfinite(roots**2 * np.exp(1j * L * roots)).all():
                return L, p
    return None


def _oracle_r0(L, s):
    s = complex(s)
    if abs(s) < 1e-14:
        A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0],
                      [0.0, 1.0, 2.0 * L], [0.0, 0.0, 2.0]], dtype=complex)
    else:
        mus = s ** (1.0 / 3.0) * np.exp(2j * np.pi * np.arange(3) / 3.0)
        eL = np.exp(mus * L)
        A = np.stack([np.ones(3, dtype=complex), mus, mus**2, mus * eL, mus**2 * eL])
    norms = np.max(np.abs(A), axis=1)
    norms[norms == 0] = 1.0
    return float(np.linalg.svd(A / norms[:, None], compute_uv=False)[-1])


def _bits(x):
    return np.asarray(x).tobytes()


NEAR_DOUBLE = Parameters(a=0.3, b=1.0, c=1.2, r=1.1)
PARAMS_A = Parameters(a=0.2, b=1.0, c=1.0, r=1.0)


@pytest.mark.parametrize("seed", [0, 5, 19])
@pytest.mark.parametrize(
    "params, L_range, p_radius",
    [(PARAMS_A, (0.05, 10.0), (0.3, 3.0)),
     # every real draw lands on the near-double root: the multiplicity branch
     (NEAR_DOUBLE, (0.05, 10.0), (0.3766703343468792, 0.3766703343468792)),
     # e^{iL xi} overflows: the sweep raises, naming the first draw whose w
     # is not finite, without a numpy warning
     (PARAMS_A, (300.0, 3000.0), (0.3, 3.0))],
    ids=["reference", "near-double-root", "overflowing-w"],
)
def test_ucp_sweep_matches_per_draw_oracle(seed, params, L_range, p_radius):
    with np.errstate(over="ignore", invalid="ignore"):
        overflow = _oracle_first_non_finite_w(160, params, seed, L_range, p_radius)
    assert (overflow is None) == (L_range[1] <= 10.0)
    if overflow is not None:
        L, p = overflow
        with pytest.raises(NumericalError,
                           match=re.escape(f"not finite at L = {L!r}, p = {p!r}")):
            ucp_sweep(160, params, seed=seed, L_range=L_range, p_radius=p_radius)
        return
    got = ucp_sweep(160, params, seed=seed, L_range=L_range, p_radius=p_radius)
    want = _oracle_sweep(160, params, seed, L_range, p_radius)
    verdicts = [got.verdict(k) for k in range(len(got))]
    assert len(got) == len(want)
    for k, (v, (L, p, tag, dispersion, verdict, detail, girard)) in enumerate(
            zip(verdicts, want)):
        assert _bits(v.L) == _bits(L) and _bits(v.p) == _bits(p)
        assert _bits(got.L[k]) == _bits(L) and _bits(got.p[k]) == _bits(p)
        assert v.case_tag is tag and CASE_TAGS[got.case_tag[k]] is tag
        assert v.verdict is verdict
        assert got.confirmed[k] == (verdict is Verdict.OBSTRUCTION_CONFIRMED)
        assert got.multiple[k] == ("multiplicity" in detail)
        assert _bits(v.dispersion) == _bits(dispersion)
        assert _bits(got.dispersion[k]) == _bits(dispersion)
        for key in ("roots", "w", "w_scale", "min_separation"):
            if key in detail:
                assert _bits(getattr(got, key)[k]) == _bits(detail[key]), key
        if girard is not None:
            assert np.max(got.girard_residuals[k]) <= 1e-8
            assert np.max(girard) <= 1e-8
        else:
            assert np.isnan(got.roots[k]).all()
            assert np.isnan(got.girard_residuals[k]).all()
    if params is NEAR_DOUBLE:
        assert got.multiple.any()


_RANGES = st.tuples(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6)).map(sorted)


@settings(max_examples=200, deadline=None)
@given(nsamples=st.integers(1, 50), seed=st.integers(0, 2**64 - 1),
       L_range=_RANGES, p_radius=_RANGES)
@example(nsamples=8, seed=0, L_range=[0.05, 10.0], p_radius=[0.3, 3.0])
@example(nsamples=48, seed=3, L_range=[2.0, 2.0], p_radius=[0.5, 0.5])
@example(nsamples=13, seed=1, L_range=[0.05, 10.0], p_radius=[0.3, 3.0])
def test_block_draw_is_the_per_draw_stream(nsamples, seed, L_range, p_radius):
    L, p = spectral._ucp_draws(nsamples, seed, L_range, p_radius)
    want = list(_oracle_draws(nsamples, seed, L_range, p_radius))
    assert _bits(L) == _bits([Lk for Lk, _ in want])
    assert _bits(p) == _bits(np.array([pk for _, pk in want], dtype=complex))


@pytest.mark.parametrize("nsamples", [1, 7, 8, 9, 13, 24, 50])
def test_ucp_sweep_certifies_the_block_draw(nsamples):
    sweep = ucp_sweep(nsamples, PARAMS_A, seed=nsamples)
    L, p = spectral._ucp_draws(nsamples, nsamples, (0.05, 10.0), (0.3, 3.0))
    assert len(sweep) == nsamples
    assert _bits(sweep.L) == _bits(L) and _bits(sweep.p) == _bits(p)


@pytest.mark.parametrize("L_range, p_radius", [
    ((5.0, 1.0), (0.3, 3.0)), ((0.05, 10.0), (3.0, 0.3)),
    ((0.05, np.inf), (0.3, 3.0)), ((0.05, 10.0), (0.0, 3.0)),
], ids=["L-reversed", "p-reversed", "L-infinite", "p-zero"])
def test_block_draw_rejects_what_rng_uniform_rejects(L_range, p_radius):
    with np.errstate(divide="ignore"):
        with pytest.raises((ValueError, OverflowError)) as want:
            list(_oracle_draws(3, 0, L_range, p_radius))
        with pytest.raises(want.type):
            ucp_sweep(3, PARAMS_A, L_range=L_range, p_radius=p_radius)


def test_ucp_sweep_of_no_draws_is_empty():
    sweep = ucp_sweep(0, PARAMS_A, seed=4)
    assert len(sweep) == 0
    assert sweep.L.shape == sweep.dispersion.shape == (0,)
    assert sweep.roots.shape == sweep.w.shape == (0, 6)


def test_ucp_certificate_of_zero_p_needs_no_roots(monkeypatch):
    def no_roots(poly):
        raise AssertionError("roots_P called for p = 0")

    monkeypatch.setattr(spectral, "roots_P", no_roots)
    v = ucp_certificate(2.5, 0.0, PARAMS_A)
    assert v.case_tag is CaseTag.ZERO and v.verdict is Verdict.OBSTRUCTION_CONFIRMED
    assert v.dispersion == float("inf") and v.L == 2.5 and v.p == 0j


def test_single_point_kernels_match_oracle():
    rng = np.random.default_rng(4)
    for _ in range(40):
        params = random_valid_params(rng)
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        L = float(rng.uniform(0.1, 8.0))
        poly = build_P([p], params)
        assert _bits(poly.coeffs) == _bits(_oracle_P(p, params))
        roots, _ = _oracle_roots(poly.coeffs[0])
        assert _bits(roots_P(poly).roots) == _bits(roots)
        v = ucp_certificate(L, p, params)
        tag, dispersion, verdict, _ = _oracle_from_roots(L, p, roots)
        assert (v.case_tag, v.verdict) == (tag, verdict)
        assert _bits(v.dispersion) == _bits(dispersion)


def test_r0_grid_matches_scalar_oracle():
    L, _, _, s = r0_grid()
    assert np.any(s == 0)
    rep = r0_eigencheck(L, s)
    want = np.array([_oracle_r0(Lk, sk) for Lk, sk in zip(L.tolist(), s.tolist())])
    assert _bits(rep.sigma_min) == _bits(want)
    assert np.array_equal(rep.certified, want > 1e-8)
    for k in (0, int(np.argmin(np.abs(s))), L.size - 1):
        one = r0_eigencheck(L[[k]], s[[k]])
        assert one.sigma_min.shape == one.certified.shape == (1,)
        assert _bits(one.sigma_min) == _bits(want[[k]])
        assert one.certified[0] == (want[k] > 1e-8)


def test_r0_eigencheck_blocks_are_stacked_calls(monkeypatch):
    # points are assembled and decomposed R0_BLOCK at a time; each block is
    # the same per-point stacked SVD as a call on that block alone, or as
    # one block of every point
    rng = np.random.default_rng(31)
    n = spectral.R0_BLOCK + 900
    L = rng.uniform(0.5, 5.0, n)
    s = rng.uniform(-10, 10, n) + 1j * rng.uniform(-10, 10, n)
    s[[5, spectral.R0_BLOCK + 7]] = 0.0
    rep = r0_eigencheck(L, s)
    blocks = [r0_eigencheck(L[k:k + spectral.R0_BLOCK], s[k:k + spectral.R0_BLOCK])
              for k in (0, spectral.R0_BLOCK)]
    assert _bits(rep.sigma_min) == _bits(np.concatenate([b.sigma_min for b in blocks]))
    assert rep.sigma_min.shape == rep.certified.shape == (n,)
    with monkeypatch.context() as m:
        m.setattr(spectral, "R0_BLOCK", n)
        assert _bits(r0_eigencheck(L, s).sigma_min) == _bits(rep.sigma_min)
    # a non-finite point of the second block is named by its own (L, s)
    k = spectral.R0_BLOCK + 123
    s[k] = complex(np.inf, 0)
    with pytest.raises(NumericalError) as err:
        r0_eigencheck(L, s)
    assert str(err.value) == (f"r0 boundary matrix is not finite at L = {float(L[k])!r}, "
                              f"s = {complex(s[k])!r}")
