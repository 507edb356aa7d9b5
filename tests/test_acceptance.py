"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
(plus per-check detail) and enforcing the stated tolerance and runtime
budget. Run with `pytest tests/test_acceptance.py -v -s` to see the report.
"""
import io
import math
import time
from dataclasses import replace

import numpy as np
import scipy.integrate as sint
import scipy.special as sp

import reference
from ris_secrecy import cli
from ris_secrecy.channels import one_minus_mgf_double_rayleigh, one_minus_mgf_triple_cascade
from ris_secrecy.montecarlo import McConfig, mc_points
from ris_secrecy.secrecy import Model, SopMode, SystemParams, asc_approx, secrecy_report, sop

SEED = 42  # documented default seed; every stochastic check below is reproducible


def _capacities(points) -> np.ndarray:
    """The (c_d, c_e) row of every point, as its secrecy report gives them."""
    return np.array([(rep.c_d, rep.c_e) for rep in secrecy_report(points)]).reshape(-1, 2)


def _asc_exact(params):
    c_d, c_e = _capacities([params])[0]
    return c_d - c_e


def _finish(num, desc, t0, budget, checks):
    elapsed = time.perf_counter() - t0
    ok = all(passed for passed, _ in checks)
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc} ({elapsed:.1f}s)")
    for passed, msg in checks:
        print(f"    [{'ok' if passed else 'VIOLATION'}] {msg}")
    assert ok, f"acceptance criterion {num} failed"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_1_special_function_identities():
    t0 = time.perf_counter()
    checks = []
    norm, _err = sint.quad(lambda g: g * sp.k0(g), 0.0, math.inf, epsabs=0.0, epsrel=1e-12)
    checks.append((abs(norm - 1.0) < 1e-9, f"int g K0(g) dg = {norm!r} with scipy K0 (target 1 +- 1e-9)"))
    m1 = 1.0 - one_minus_mgf_double_rayleigh(1.0)
    checks.append((abs(m1 - 1.0 / 3.0) < 1e-10, f"double-Rayleigh MGF at 1 = {m1!r} (target 1/3 +- 1e-10)"))
    _finish(1, "special-function identities", t0, 1.0, checks)


def test_criterion_2_mgf_three_way_equivalence(cell_gains):
    t0 = time.perf_counter()
    checks = []
    draws = {model: cell_gains(model, SEED + k, 1_000_000) for k, model in enumerate(Model)}

    for s in (0.5, 1.0, 5.0):
        for model, law, one_minus_mgf, oracle, epsrel in (
            (Model.V2V_RIS_AP, "double_rayleigh", one_minus_mgf_double_rayleigh, reference.mgf_double_quad, 1e-10),
            (Model.VANET_RIS_RELAY, "triple_cascade", one_minus_mgf_triple_cascade, reference.mgf_triple_dblquad,
             1e-9),
        ):
            # the MGF from the complement the capacity path uses; exact to 5e-16 here
            closed = 1.0 - one_minus_mgf(s)
            quad = oracle(s, epsrel)
            rel = abs(closed - quad) / quad
            checks.append((rel < 1e-6, f"{law} MGF({s}) vs quadrature rel {rel:.2e}"))
            x = np.exp(-s * draws[model])
            mc = x.mean()
            se = x.std(ddof=1) / math.sqrt(x.size)
            z = abs(closed - mc) / se
            checks.append((z < 4.0, f"{law} MGF({s}) vs MC z = {z:.2f}"))
    _finish(2, "MGF three-way equivalence", t0, 30.0, checks)


def test_criterion_3_moment_adjudication():
    t0 = time.perf_counter()
    params = SystemParams(model=Model.VANET_RIS_RELAY, n_cells=16, r_s=10.0)
    _mean_est, var_est = mc_points([params], McConfig(trials=1_000_000, seed=SEED))[0].gain_sum
    corrected = 16 * (8.0 - (math.pi / 2.0) ** 3)
    literal = 16 * (8.0 - (math.pi / 2.0) ** 1.5)
    rel_gap = abs(var_est.value - corrected) / corrected
    z_literal = abs(var_est.value - literal) / var_est.std_error
    checks = [
        (rel_gap < 0.02,
         f"MC var = {var_est.value:.4f} +- {var_est.std_error:.4f} vs corrected N(8-(pi/2)^3) = {corrected:.4f} "
         f"(rel gap {rel_gap:.3%})"),
        (z_literal > 10.0,
         f"paper-literal N(8-(pi/2)^1.5) = {literal:.4f} rejected at {z_literal:.0f} standard errors"),
    ]
    _finish(3, "triple-cascade variance adjudication", t0, 30.0, checks)


def test_criterion_4_asc_cross_validation():
    t0 = time.perf_counter()
    checks = []
    for model, r_s in ((Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)):
        for n in (16, 32):
            p = SystemParams(model=model, n_cells=n, r_s=r_s)
            analytic = _asc_exact(p)
            diff = mc_points([p], McConfig(trials=100_000, seed=SEED))[0].asc_diff
            z = abs(analytic - diff.value) / diff.std_error
            checks.append((z < 3.0,
                           f"{model.value} N={n}: asc_exact={analytic:.6f} mc={diff.value:.6f}"
                           f" +-{diff.std_error:.6f} (z={z:.2f})"))
    _finish(4, "ASC analytic vs Monte-Carlo", t0, 60.0, checks)


def test_criterion_5_jensen_ordering():
    t0 = time.perf_counter()
    checks = []
    worst = math.inf
    count = 0
    # grid floor keeps the smallest genuine Jensen gap (~3e-11 at the weakest
    # corner) an order of magnitude above the quadrature tolerance band
    for model, r_s in ((Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)):
        for p_s in (2.0, 8.0, 20.0, 60.0, 160.0):
            for r_e in (2.0, 4.0, 8.0, 16.0, 24.0):
                p = SystemParams(model=model, p_s=p_s, r_e=r_e, r_s=r_s)
                for r, capacity in zip((p.r_d, p.r_e), _capacities([p])[0]):
                    # Jensen: E[log2(1 + gamma)] <= log2(1 + E[gamma])
                    gap = float(reference.jensen_bound(p, r)) - capacity
                    worst = min(worst, gap)
                    count += 1
    checks.append((worst > 0.0, f"bound - capacity > 0 at all {count} link evaluations (min gap {worst:.3e})"))
    _finish(5, "Jensen ordering on the 5x5x2 grid", t0, 60.0, checks)


def _monotone(values, direction, slack=1e-9):
    if direction == "up":
        return all(b >= a - slack * max(1.0, abs(a)) for a, b in zip(values, values[1:]))
    return all(b <= a + slack * max(1.0, abs(a)) for a, b in zip(values, values[1:]))


def test_criterion_6_trend_suite():
    t0 = time.perf_counter()
    checks = []
    p_grid = list(np.linspace(1.0, 50.0, 8))
    re_grid = list(np.linspace(5.0, 20.0, 8))
    rs_grid = list(np.linspace(5.0, 20.0, 8))
    n_grid = [4, 8, 12, 16, 20, 24, 28, 32]
    cth_grid = list(np.linspace(0.5, 2.5, 8))
    for model, r_s in ((Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)):
        base = SystemParams(model=model, r_s=r_s)
        for fn, tag in ((_asc_exact, "asc_exact"), (asc_approx, "asc_approx")):
            vals = [fn(replace(base, p_s=v)) for v in p_grid]
            checks.append((_monotone(vals, "up"), f"{model.value} {tag} non-decreasing in p_s"))
            vals = [fn(replace(base, r_e=v)) for v in re_grid]
            checks.append((_monotone(vals, "up"), f"{model.value} {tag} non-decreasing in r_e"))
            vals = [fn(replace(base, n_cells=v)) for v in n_grid]
            checks.append((_monotone(vals, "up"), f"{model.value} {tag} non-decreasing in n_cells"))
    relay = SystemParams(model=Model.VANET_RIS_RELAY, r_s=10.0)
    for fn, tag in ((_asc_exact, "asc_exact"), (asc_approx, "asc_approx")):
        vals = [fn(replace(relay, r_s=v)) for v in rs_grid]
        checks.append((_monotone(vals, "down"), f"relay {tag} non-increasing in r_s"))
    v2v = SystemParams(model=Model.V2V_RIS_AP)
    hot_relay = replace(relay, p_s=1000.0)
    checks.append((_monotone([sop(replace(v2v, p_s=v)) for v in p_grid], "down"),
                   "v2v sop non-increasing in p_s"))
    checks.append((_monotone([sop(replace(hot_relay, p_s=v)) for v in np.linspace(100, 5000, 8)], "down"),
                   "relay sop non-increasing in p_s"))
    checks.append((_monotone([sop(replace(v2v, n_cells=v)) for v in n_grid], "down"),
                   "v2v sop non-increasing in n_cells"))
    checks.append((_monotone([sop(replace(v2v, c_th=c)) for c in cth_grid], "up"),
                   "v2v sop non-decreasing in c_th"))
    checks.append((_monotone([sop(replace(hot_relay, c_th=c)) for c in cth_grid], "up"),
                   "relay sop non-decreasing in c_th"))
    checks.append((_monotone([sop(replace(hot_relay, r_s=v)) for v in rs_grid], "up"),
                   "relay sop non-decreasing in r_s"))
    _finish(6, "figure trend suite", t0, 60.0, checks)


def test_criterion_7_sop_formula_vs_mc():
    t0 = time.perf_counter()
    checks = []
    cfg = McConfig(trials=100_000, seed=SEED)
    for n in (16, 32):
        for c_th in (1.0, 1.5):
            p = SystemParams(model=Model.V2V_RIS_AP, n_cells=n, c_th=c_th)
            gap = abs(sop(p) - mc_points([p], cfg)[0].sop.value)
            checks.append((gap < 0.02, f"v2v N={n} c_th={c_th}: |formula - mc| = {gap:.4f} (tol 0.02)"))
            q = SystemParams(model=Model.VANET_RIS_RELAY, n_cells=n, r_s=10.0, c_th=c_th)
            gap = abs(sop(q, SopMode.CORRECTED) - mc_points([q], cfg)[0].sop.value)
            checks.append((gap < 0.03, f"relay N={n} c_th={c_th} corrected: gap = {gap:.4f} (tol 0.03)"))
    # the paper_literal constants are reported, not asserted small: the gap is
    # the documented consequence of that constant set
    interior = SystemParams(model=Model.VANET_RIS_RELAY, p_s=1000.0, r_s=10.0)
    mc = mc_points([interior], cfg)[0].sop.value
    lit_gap = abs(sop(interior, SopMode.PAPER_LITERAL) - mc)
    corr_gap = abs(sop(interior, SopMode.CORRECTED) - mc)
    checks.append((True, f"relay p_s=1000 reported gaps: corrected {corr_gap:.4f},"
                         f" paper-literal {lit_gap:.4f} (documented, not asserted)"))
    _finish(7, "SOP formula vs Monte-Carlo", t0, 60.0, checks)


def test_criterion_8_determinism():
    t0 = time.perf_counter()
    checks = []
    p = SystemParams(model=Model.VANET_RIS_RELAY, r_s=10.0)
    cfg = McConfig(trials=50_000, seed=SEED)
    runs = [mc_points([p], cfg)[0] for _ in range(2)]
    checks.append(((runs[0].asc_diff, runs[0].asc_pos) == (runs[1].asc_diff, runs[1].asc_pos),
                   "mc_asc bit-identical across re-runs"))
    checks.append((runs[0].sop == runs[1].sop, "mc_sop bit-identical across re-runs"))

    doc = {
        "base": {"model": "v2v_ris_ap"},
        "sweep": {"param": "p_s", "start": 2.0, "stop": 20.0, "steps": 4},
        "mc": {"trials": 20_000, "seed": SEED},
        "outputs": ["asc_exact", "mc_asc", "mc_sop"],
    }
    run_cfg = cli.build_run_config(doc)
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        cli.run_sweep(run_cfg, buf)
        outputs.append(buf.getvalue())
    checks.append((outputs[0] == outputs[1], "sweep CSV byte-identical across re-runs"))
    _finish(8, "determinism", t0, None, checks)
