"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is pinned here, not deferred to calibration.
"""

import json

import numpy as np
import pytest

from holostark import (Drive, adiabatic_fidelity, connection_d, eigen_split,
                       eigenphase_distance, feasibility_report, half_spin_band,
                       hamiltonian, linear_stark_holonomy, make_spherical_triangle,
                       projectors, sampled_path, synthesize, wilson_loop, zee_holonomy)
from holostark.cli import main as cli_main
from holostark.stark import d_components
from holostark.synth import LoopModel

from util import random_su2, random_unit


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def acc_rng():
    return np.random.default_rng(777)


def test_criterion_01_feasibility_number(ge_b):
    rep = feasibility_report(1e6, ge_b, 2020.0, regime="quadratic")
    fixture_ok = abs(rep.gap_max_meV - 4.7775) <= 1e-9
    # within a factor of 3 of the reported order-10-meV scale
    factor_ok = 10.0 / 3.0 <= rep.gap_max_meV <= 30.0
    report(1, "Ge:B quadratic gap at 1e6 V/m", fixture_ok and factor_ok,
           f"max gap {rep.gap_max_meV:.6f} meV, fixture 4.7775")


def test_criterion_02_algebra_suite(spin, basis, acc_rng):
    worst = 0.0
    for a in range(5):
        for b in range(5):
            target = 2.0 * (a == b) * np.eye(4)
            worst = max(worst, np.abs(basis.gamma[a] @ basis.gamma[b]
                                      + basis.gamma[b] @ basis.gamma[a] - target).max())
    sx, sy, sz = spin.sx, spin.sy, spin.sz
    worst = max(worst, np.abs(sx @ sy - sy @ sx - 1j * sz).max())
    worst = max(worst, np.abs(sy @ sz - sz @ sy - 1j * sx).max())
    worst = max(worst, np.abs(sz @ sx - sx @ sz - 1j * sy).max())
    for a in range(5):
        for b in range(5):
            worst = max(worst, np.abs(basis.gammab[a, b] + basis.gammab[b, a]).max())
    for _ in range(100):
        n = random_unit(acc_rng, 5)
        ng = np.einsum("a,aij->ij", n, basis.gamma)
        worst = max(worst, np.abs(ng @ ng - np.eye(4)).max())
    report(2, "algebra suite <= 1e-12", worst <= 1e-12, f"worst defect {worst:.2e}")


def test_criterion_03_projector_connection_suite(acc_rng):
    worst_proj = worst_fd = worst_radial = worst_homog = 0.0
    for _ in range(100):
        d = np.concatenate([[acc_rng.normal()], acc_rng.normal(size=5)])
        pp, pm = projectors(d)
        worst_proj = max(worst_proj,
                         np.abs(pp @ pp - pp).max(),
                         np.abs(pp - pp.conj().T).max(),
                         np.abs(pp + pm - np.eye(4)).max(),
                         np.abs(pp @ pm).max(),
                         abs(np.trace(pp) - 2.0))
        aa = connection_d(d)
        h = 1e-5 * np.linalg.norm(d[1:])
        for a in range(5):
            step = np.zeros(6)
            step[1 + a] = h
            p_hi = projectors(d + step)[0]
            p_lo = projectors(d - step)[0]
            dp = (p_hi - p_lo) / (2 * h)
            p0 = projectors(d)[0]
            worst_fd = max(worst_fd, np.abs(dp @ p0 - p0 @ dp - aa[a]).max())
        worst_radial = max(worst_radial, np.abs(
            np.einsum("a,aij->ij", d[1:] / np.linalg.norm(d[1:]), aa)).max())
        lam = float(acc_rng.uniform(0.2, 5.0))
        scaled = connection_d(np.concatenate([d[:1], lam * d[1:]]))
        worst_homog = max(worst_homog, np.abs(scaled - aa / lam).max())
    ok = (worst_proj <= 1e-12 and worst_fd <= 1e-8
          and worst_radial <= 1e-12 and worst_homog <= 1e-10)
    report(3, "projector/connection suite", ok,
           f"proj {worst_proj:.1e}, fd {worst_fd:.1e}, radial {worst_radial:.1e}, "
           f"homog {worst_homog:.1e}")


def test_criterion_04_kramers_degeneracy(ge_b, acc_rng):
    worst = 0.0
    for regime, scale in (("linear", 1e5), ("quadratic", 1e6)):
        for _ in range(100):
            d = d_components(acc_rng.normal(size=3) * scale, ge_b, regime)
            w = np.linalg.eigvalsh(hamiltonian(d))
            worst = max(worst, w[1] - w[0], w[3] - w[2])
    report(4, "Kramers pairing <= 1e-10 meV", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_05_linear_direction_and_scale_invariance(ge_b, acc_rng):
    gaps = np.array([eigen_split(d_components(random_unit(acc_rng, 3) * 3e5, ge_b,
                                              "linear"))[2]
                     for _ in range(100)])
    rel_spread = (gaps.max() - gaps.min()) / gaps.mean()
    small = wilson_loop(make_spherical_triangle(0.8, 1.2, 1e5), "linear", ge_b,
                        steps=4000)
    large = wilson_loop(make_spherical_triangle(0.8, 1.2, 1e6), "linear", ge_b,
                        steps=4000)
    scale_diff = np.abs(small.full - large.full).max()
    ok = rel_spread <= 1e-12 and scale_diff <= 1e-9
    report(5, "linear-regime invariances", ok,
           f"gap spread {rel_spread:.1e}, x10 field diff {scale_diff:.1e}")


def test_criterion_06_linear_oracle_triangulation(ge_b, acc_rng):
    worst = 0.0
    for _ in range(20):
        theta = float(acc_rng.uniform(0.1, np.pi / 2))
        phi = float(acc_rng.uniform(-np.pi, np.pi))
        path = make_spherical_triangle(theta, phi, 1e6)
        oracle = linear_stark_holonomy(path, steps=20000)
        hol = wilson_loop(path, "linear", ge_b, steps=20000)
        worst = max(worst, eigenphase_distance(oracle, hol.block_plus))
    report(6, "linear-regime 2x2 oracle vs Wilson loop", worst <= 1e-6,
           f"20 triangles, worst eigenphase diff {worst:.2e}")


def test_criterion_07_spherical_quadratic_triangulation(ge_spherical, acc_rng):
    band = half_spin_band(ge_spherical)
    worst = 0.0
    for _ in range(20):
        theta = float(acc_rng.uniform(0.1, np.pi / 2))
        phi = float(acc_rng.uniform(-np.pi, np.pi))
        path = make_spherical_triangle(theta, phi, 1e6)
        hol = wilson_loop(path, "quadratic", ge_spherical, steps=20000)
        worst = max(worst, eigenphase_distance(zee_holonomy(theta, phi),
                                               hol.block(band)))
    report(7, "spherical-triangle closed form vs Wilson loop", worst <= 1e-6,
           f"20 loops on the {band} band, worst eigenphase diff {worst:.2e}")


def test_criterion_08_dynamics_arbitration(ge_spherical):
    path = make_spherical_triangle(np.pi / 2, np.pi / 2, 1e6)
    errors = []
    for total_time, steps in ((5e-11, 30000), (5e-10, 30000), (5e-9, 60000)):
        drive = Drive(path=path, total_time=total_time, time_steps=steps)
        out = adiabatic_fidelity(drive, "quadratic", ge_spherical, band="minus",
                                 wl_steps=20000)
        errors.append(1.0 - out.fidelity)
    r1 = errors[0] / errors[1]
    r2 = errors[1] / errors[2]
    ok = r1 >= 4.0 and r2 >= 4.0
    report(8, "adiabatic limit reproduces the Wilson loop", ok,
           f"1-F = {errors[0]:.2e} -> {errors[1]:.2e} -> {errors[2]:.2e}, "
           f"decade ratios {r1:.1f}, {r2:.1f}")


def test_criterion_09_integrator_properties(ge_spherical):
    path = make_spherical_triangle(0.9, 1.3, 1e6)
    fulls = {n: wilson_loop(path, "quadratic", ge_spherical, steps=n).full
             for n in (2000, 4000, 8000)}
    ratio = (np.abs(fulls[2000] - fulls[4000]).max()
             / np.abs(fulls[4000] - fulls[8000]).max())
    order_ok = 3.0 <= ratio <= 5.0

    fwd = wilson_loop(path, "quadratic", ge_spherical, steps=4000)
    bwd = wilson_loop(sampled_path(path.points(4000)[::-1]), "quadratic", ge_spherical,
                      steps=4000)
    reversal = np.abs(bwd.full - fwd.full.conj().T).max()

    p1 = make_spherical_triangle(0.7, 0.9, 1e6).points(3000)
    p2 = make_spherical_triangle(1.1, -0.6, 1e6).points(3000)
    u1 = wilson_loop(sampled_path(p1), "quadratic", ge_spherical, steps=100).full
    u2 = wilson_loop(sampled_path(p2), "quadratic", ge_spherical, steps=100).full
    u12 = wilson_loop(sampled_path(np.vstack([p1, p2[1:]])), "quadratic",
                      ge_spherical, steps=100).full
    composition = np.abs(u12 - u2 @ u1).max()

    uniform = path.points(30000)
    s = np.linspace(0.0, 1.0, 30001)
    warped_idx = (0.5 * (s + s**2)) * 30000
    lo = np.minimum(warped_idx.astype(int), 29999)
    w = (warped_idx - lo)[:, None]
    warped = (1 - w) * uniform[lo] + w * uniform[lo + 1]
    warped[-1] = uniform[-1]
    reparam = np.abs(
        wilson_loop(sampled_path(uniform), "quadratic", ge_spherical, steps=100).full
        - wilson_loop(sampled_path(warped), "quadratic", ge_spherical, steps=100).full
    ).max()

    ok = (order_ok and reversal <= 1e-8 and composition <= 1e-8
          and reparam <= 1e-8)
    report(9, "integrator properties", ok,
           f"order ratio {ratio:.2f}, reversal {reversal:.1e}, "
           f"composition {composition:.1e}, reparam {reparam:.1e}")


def test_criterion_10_synthesis(acc_rng):
    model = LoopModel("spherical_quadratic")
    worst_rt = 0.0
    for _ in range(5):
        theta = float(acc_rng.uniform(0.2, 1.4))
        phi = float(acc_rng.uniform(-2.8, 2.8))
        res = synthesize(zee_holonomy(theta, phi), model=model, max_loops=1,
                         tol=1e-6, seed=101)
        worst_rt = max(worst_rt, 1.0 - res.fidelity)
    roundtrip_ok = worst_rt <= 1e-6

    hits = 0
    for k in range(20):
        target = random_su2(acc_rng)
        res = synthesize(target, model=model, max_loops=3, tol=1e-3, seed=k)
        if res.fidelity >= 0.999:
            hits += 1
    coverage_ok = hits >= 19  # >= 95% of 20

    target = zee_holonomy(0.8, 1.9)
    r1 = synthesize(target, model=model, max_loops=2, tol=1e-6, seed=5)
    r2 = synthesize(target, model=model, max_loops=2, tol=1e-6, seed=5)
    deterministic = (r1.loops == r2.loops and r1.fidelity == r2.fidelity
                     and r1.evaluations == r2.evaluations
                     and np.array_equal(r1.achieved, r2.achieved))

    ok = roundtrip_ok and coverage_ok and deterministic
    report(10, "gate synthesis", ok,
           f"round-trip 1-F <= {worst_rt:.1e}, Haar coverage {hits}/20, "
           f"deterministic {deterministic}")


def test_criterion_11_cli_contract(tmp_path, capsys):
    octant = tmp_path / "octant.json"
    octant.write_text(json.dumps({"kind": "spherical_triangle", "theta": np.pi / 2,
                                  "phi": np.pi / 2, "magnitude_V_per_m": 1e6}))
    target = tmp_path / "target.json"
    u = zee_holonomy(0.9, 1.3)
    target.write_text(json.dumps(
        {"matrix": [[[z.real, z.imag] for z in row] for row in u]}))

    synth_argv = ["synth", "--target", str(target), "--max-loops", "1",
                  "--tol", "1e-6", "--seed", "42"]
    code0 = cli_main(synth_argv)
    rec1 = json.loads(capsys.readouterr().out)
    assert cli_main(synth_argv) == 0
    rec2 = json.loads(capsys.readouterr().out)
    rec1.pop("timestamp")
    rec2.pop("timestamp")
    reproducible = rec1 == rec2

    code2 = cli_main(["spectrum", "--material", "Ge", "--dopant", "B",
                      "--regime", "quadratic", "--field", "0,0,0"])
    capsys.readouterr()
    code3 = cli_main(["holonomy", "--path", str(octant), "--regime", "quadratic",
                      "--material", "Ge", "--dopant", "B", "--spherical",
                      "--steps", "200", "--defect-tol", "1e-12"])
    capsys.readouterr()

    ok = reproducible and code0 == 0 and code2 == 2 and code3 == 3
    report(11, "CLI reproducibility and exit codes", ok,
           f"bit-identical {reproducible}, exits {code0}/{code2}/{code3}")
