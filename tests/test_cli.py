import builtins
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holostark import (LoopModel, eigen_split, eigenphases, holonomy_fidelity,
                       loop_product, make_spherical_triangle, material_lookup,
                       wilson_loop, zee_holonomy)
from holostark import cli
from holostark.cli import main
from holostark.stark import d_components

from util import midpoint_loop


def _reject_constant(name):
    raise ValueError(f"record is not strict JSON: it carries {name}")


def run_cli(capsys, *argv):
    # strict JSON (RFC 8259): NaN and Infinity are not numbers there
    code = main(list(argv))
    out = capsys.readouterr().out
    record = (json.loads(out, parse_constant=_reject_constant)
              if out.strip().startswith("{") else None)
    return code, record


def write_octant(tmp_path, magnitude=1e6):
    return write_triangle(tmp_path, np.pi / 2, np.pi / 2, magnitude, "octant.json")


def write_triangle(tmp_path, theta, phi, magnitude=1e6, name="triangle.json"):
    # in the linear regime dhat = Ehat, so the octant's meridians and equator
    # are great circles of dhat, which the rotors transport exactly at any
    # step count; the arc at theta = 1.0 is not
    p = tmp_path / name
    p.write_text(json.dumps({"kind": "spherical_triangle", "theta": theta,
                             "phi": phi, "magnitude_V_per_m": magnitude}))
    return str(p)


def assert_scale_free_record(results, reference):
    """A holonomy record at another field strength is the reference record:
    the transport is homogeneous of degree 0 in E, so only the rounding of
    the path points differs (the convergence figures are differences of two
    runs, so relative), and the path echoes its own magnitude."""
    def leaves(r, key=""):
        if isinstance(r, dict):
            return [x for k, v in r.items() for x in leaves(v, f"{key}/{k}")]
        if isinstance(r, list):
            return [x for v in r for x in leaves(v, key)]
        return [(key, r)]

    got, want = leaves(results), leaves(reference)
    assert [k for k, _ in got] == [k for k, _ in want]
    for (key, a), (_, b) in zip(got, want):
        if key == "/path/magnitude_V_per_m" or not isinstance(b, float):
            assert key == "/path/magnitude_V_per_m" or a == b, key
        elif key.startswith("/convergence"):
            assert abs(a - b) <= 1e-9 * abs(b), key
        else:
            assert abs(a - b) <= 4e-15, key


GAAS_BE = dict(material="GaAs", dopant="Be", alpha=1.0, beta=-0.25,
               delta=-0.4, chi=2e-3, rbar_angstrom=50.0, ionization_meV=28.0)


class TestMaterials:
    def test_listing_contains_table_rows(self, capsys):
        code, rec = run_cli(capsys, "materials", "list")
        assert code == 0
        mats = {(m["material"], m["dopant"]): m for m in rec["results"]["materials"]}
        assert mats[("Ge", "B")]["chi"] == 0.0007
        assert mats[("Ge", "B")]["rbar_angstrom"] == 91.0
        assert mats[("Si", "Al")]["ionization_meV"] == 57.0

    def test_env_override_merges(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "user.json"
        f.write_text(json.dumps([GAAS_BE]))
        monkeypatch.setenv("STARK_MATERIALS_PATH", str(f))
        code, out = run_cli(capsys, "materials", "list")
        assert code == 0
        names = {(m["material"], m["dopant"]) for m in out["results"]["materials"]}
        assert ("GaAs", "Be") in names and ("Ge", "B") in names

    @pytest.mark.parametrize("table", [
        [5],
        [dict(GAAS_BE, alpha="a")],
        [dict(GAAS_BE, material=7)],
        [dict(GAAS_BE, chi=True)],
        [{k: v for k, v in GAAS_BE.items() if k != "delta"}],
        GAAS_BE,  # an object, not a list of records
        [dict(GAAS_BE, alpha=-1)],  # a constant out of MaterialParams' range
    ])
    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_malformed_table_exits_2(self, capsys, tmp_path, monkeypatch, table, via):
        f = tmp_path / "user.json"
        f.write_text(json.dumps(table))
        if via == "flag":
            code = main(["materials", "list", "--materials", str(f)])
        else:
            monkeypatch.setenv("STARK_MATERIALS_PATH", str(f))
            code = main(["spectrum", "--regime", "quadratic", "--field", "0,0,1e6"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {f}: ") and len(err.splitlines()) == 1


class TestSpectrum:
    def test_ge_quadratic_gap(self, capsys):
        code, rec = run_cli(capsys, "spectrum", "--material", "Ge", "--dopant", "B",
                            "--regime", "quadratic", "--field", "0,0,1e6")
        assert code == 0
        res = rec["results"]
        assert res["gap_meV"] == pytest.approx(4.7775, rel=1e-12)
        assert res["eps_minus_meV"] == pytest.approx(-10.35125, rel=1e-12)
        assert res["feasibility"]["flags"] == []

    def test_si_linear_gap(self, capsys):
        code, rec = run_cli(capsys, "spectrum", "--material", "Si", "--dopant", "B",
                            "--regime", "linear", "--field", "1e5,0,0")
        assert code == 0
        expected = 2 * (34.4e-10 * 1e5 * 1e3 * 1e-2)
        assert rec["results"]["gap_meV"] == pytest.approx(expected, rel=1e-12)

    def test_record_is_the_components_row(self, capsys):
        field = "3.1e5,-7.7e5,2.3e5"
        e = [float(x) for x in field.split(",")]
        for regime in ("linear", "quadratic"):
            code, rec = run_cli(capsys, "spectrum", "--material", "Si", "--dopant", "Ga",
                                "--regime", regime, "--field", field)
            assert code == 0
            res = rec["results"]
            d = d_components(e, material_lookup("Si", "Ga"), regime)
            assert res["d0_meV"] == d[0] and res["d_meV"] == d[1:].tolist()
            levels = (res["eps_minus_meV"], res["eps_plus_meV"], res["gap_meV"])
            assert levels == eigen_split(d)

    def test_subnormal_squares_keep_the_gap_exact(self, capsys):
        # d = (3.8e-161, 0, 5.1e-161) meV: its squares are subnormal, so |d|
        # comes from the power-of-two-scaled row
        code, rec = run_cli(capsys, "spectrum", "--regime", "linear",
                            "--field", "6e-153,0,8e-153")
        d = np.array(rec["results"]["d_meV"])
        assert code == 0
        assert rec["results"]["gap_meV"] == 2 * np.ldexp(np.linalg.norm(np.ldexp(d, 600)),
                                                         -600)

    def test_zero_field_exits_2(self, capsys):
        code, _ = run_cli(capsys, "spectrum", "--material", "Ge", "--dopant", "B",
                          "--regime", "quadratic", "--field", "0,0,0")
        assert code == 2

    def test_unknown_material_exits_2(self, capsys):
        code, _ = run_cli(capsys, "spectrum", "--material", "GaAs", "--dopant", "B",
                          "--regime", "quadratic", "--field", "0,0,1e6")
        assert code == 2

    def test_missing_flag_exits_2(self, capsys):
        code, _ = run_cli(capsys, "spectrum", "--material", "Ge", "--dopant", "B")
        assert code == 2

    def test_malformed_field_exits_2(self, capsys):
        code = main(["spectrum", "--material", "Ge", "--dopant", "B",
                     "--regime", "quadratic", "--field", "0,0,abc"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --field needs three finite")

    @pytest.mark.parametrize("field", ["nan,0,1e6", "0,inf,1e6"])
    def test_non_finite_field_exits_2(self, capsys, field):
        code = main(["spectrum", "--regime", "linear", "--field", field])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --field needs three finite")

    @pytest.mark.parametrize("freq", ["1e-320", "1e-300"])
    def test_unusable_rotation_freq_exits_2(self, capsys, freq):
        code = main(["spectrum", "--regime", "quadratic", "--field", "0,0,1e6",
                     "--rotation-freq", freq])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --rotation-freq") and err.count("\n") == 1


class TestHolonomy:
    def test_octant_spherical_eigenphases(self, capsys, tmp_path):
        path = write_octant(tmp_path)
        code, rec = run_cli(capsys, "holonomy", "--path", path, "--regime",
                            "quadratic", "--material", "Ge", "--dopant", "B",
                            "--spherical", "--steps", "2000",
                            "--defect-tol", "1e-3", "--band", "minus")
        assert code == 0
        res = rec["results"]
        zee_phases = np.sort(np.angle(np.linalg.eigvals(zee_holonomy(np.pi / 2, np.pi / 2))))
        assert np.allclose(res["eigenphases_minus"], zee_phases, atol=1e-5)
        assert res["unitarity_defect"] <= 1e-9
        assert res["converged"] is True

    def test_convergence_ratio_near_four(self, capsys, tmp_path):
        path = write_octant(tmp_path)
        code, rec = run_cli(capsys, "holonomy", "--path", path, "--regime",
                            "quadratic", "--material", "Ge", "--dopant", "B",
                            "--spherical", "--steps", "400", "--defect-tol", "1.0")
        assert code == 0
        assert 3.0 <= rec["results"]["convergence_ratio"] <= 5.0

    def test_non_closed_path_exits_2(self, capsys, tmp_path):
        f = tmp_path / "open.json"
        f.write_text(json.dumps({"kind": "sampled", "samples":
                                 [[0, 0, 1e6], [1e5, 0, 1e6], [0, 1e5, 1.2e6]]}))
        code, _ = run_cli(capsys, "holonomy", "--path", str(f), "--regime",
                          "quadratic", "--material", "Ge", "--dopant", "B")
        assert code == 2

    @pytest.mark.parametrize("desc, says", [
        pytest.param({"kind": "spherical_triangle", "theta": "abc", "phi": 1.0,
                      "magnitude_V_per_m": 1e6}, "error: ", id="desc0"),
        pytest.param({"kind": "sampled",
                      "samples": [[0, 0, 1e6], [{}, 0, 1e6], [0, 0, 1e6]]},
                     "error: ", id="desc1"),
        pytest.param({"kind": "sampled",
                      "samples": [[0, 0, 1e6], [10**400, 0, 1e6], [0, 0, 1e6]]},
                     "error: ", id="desc2"),
        pytest.param({"kind": "sampled",
                      "samples": [[0, 0, 1e6], [None, 0, 1e6], [0, 0, 1e6]]},
                     "error: sampled path description needs finite numbers for "
                     "'samples'\n", id="samples-not-echoed"),
        pytest.param({"kind": "spherical_triangle", "theta": 1.0,
                      "magnitude_V_per_m": 1e6},
                     "error: spherical_triangle path description needs a 'phi' key",
                     id="no-phi"),
        pytest.param({"kind": "latitude_loop", "magnitude_V_per_m": 1e6},
                     "error: latitude_loop path description needs a 'theta' key",
                     id="no-theta"),
        pytest.param({"kind": "latitude_loop", "theta": 1.0},
                     "error: latitude_loop path description needs a "
                     "'magnitude_V_per_m' key", id="no-magnitude"),
        pytest.param({"kind": "sampled"},
                     "error: sampled path description needs a 'samples' key",
                     id="no-samples"),
    ])
    def test_non_numeric_path_field_exits_2(self, capsys, tmp_path, desc, says):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(desc))
        code = main(["holonomy", "--path", str(f), "--regime", "quadratic"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(says) and len(err.splitlines()) == 1

    def test_coarse_steps_exit_3(self, capsys, tmp_path):
        path = write_octant(tmp_path)
        code, rec = run_cli(capsys, "holonomy", "--path", path, "--regime",
                            "quadratic", "--material", "Ge", "--dopant", "B",
                            "--spherical", "--steps", "200",
                            "--defect-tol", "1e-12")
        assert code == 3
        assert rec["results"]["converged"] is False

    @pytest.mark.parametrize("regime", ["quadratic", "linear"])
    def test_under_resolved_run_exits_3_with_its_record(self, capsys, tmp_path, regime):
        # at 400 steps the quadratic sampled loop's defect is 0.067, and its
        # block phases are reported.  Linear chords are great circles of
        # dhat = Ehat, which the rotors transport exactly, so the linear run
        # takes a triangle whose arc is not one
        f = tmp_path / "under.json"
        f.write_text(json.dumps({"kind": "sampled", "samples": [
            [0, 0, 1e6], [1e3, 0, -1e6], [1e6, 0, 0], [0, 0, 1e6]]}))
        path = str(f) if regime == "quadratic" else write_triangle(tmp_path, 1.0, 0.7)
        code, rec = run_cli(capsys, "holonomy", "--path", path, "--regime", regime,
                            "--steps", "400")
        res = rec["results"]
        assert code == 3 and res["converged"] is False
        for key in ("plus", "minus"):
            block = np.array(res[f"block_{key}"]).view(complex)[..., 0]
            assert res[f"eigenphases_{key}"] == eigenphases(block, tol=1.0).tolist()

    @pytest.mark.parametrize("regime", ["linear", "quadratic"])
    @pytest.mark.parametrize("steps", ["400", "403"], ids=["zero-on-a-point",
                                                          "zero-between-points"])
    def test_chord_through_zero_field_exits_2(self, capsys, tmp_path, regime, steps):
        # n = 400 splits the chord from E to -E into 134 substeps, so a point
        # falls on E = 0; n = 403 into 135, and E = 0 lies between two points
        f = tmp_path / "through_zero.json"
        f.write_text(json.dumps({"kind": "sampled", "samples": [
            [0, 0, 1e6], [0, 0, -1e6], [1e6, 0, 0], [0, 0, 1e6]]}))
        code = main(["holonomy", "--path", str(f), "--regime", regime, "--steps", steps])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: gap closes: |d| vanishes at a field point\n"

    def test_near_pi_step_exits_2(self, capsys, tmp_path):
        # linear: the first chord passes 5e-3 V/m from E = 0, an open gap; the
        # n/4 = 105 run splits it into 35 substeps, one of which turns dhat
        # by pi - 3.5e-7 rad: one error line, and no record with a NaN in it
        f = tmp_path / "near_pi.json"
        f.write_text(json.dumps({"kind": "sampled", "samples": [
            [1e6, 0, 0], [-1e6, 1e-2, 0], [0, 1e6, 0], [1e6, 0, 0]]}))
        code = main(["holonomy", "--path", str(f), "--regime", "linear", "--steps", "420"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: a step turns the band direction dhat by nearly pi, "
                              "from E along (1, 1.7")
        assert len(err.splitlines()) == 1 and "nan" not in err

    def test_linear_polyline_converges_at_roundoff(self, capsys, tmp_path):
        # linear chords are great circles of dhat = Ehat, transported exactly
        # at any step count: the defect is roundoff, far below --defect-tol
        f = tmp_path / "sampled.json"
        f.write_text(json.dumps({"kind": "sampled", "samples": [
            [0, 0, 1e6], [1e6, 0, 1e6], [0, 3e6, 2e6], [0, 0, 1e6]]}))
        code, rec = run_cli(capsys, "holonomy", "--path", str(f), "--regime", "linear",
                            "--steps", "2000")
        assert code == 0 and rec["results"]["converged"] is True
        assert rec["results"]["convergence_defect"] <= 5e-13

    def test_converged_run_needs_unitary_blocks(self, capsys, tmp_path, monkeypatch):
        # a loose --defect-tol calls a run converged: blocks not unitary to
        # 1e-3 must then fail the run instead of exiting 0.  Each rotor maps
        # one band projector exactly onto the next, so no loop leaks under
        # it; the midpoint scheme's transport of this loop (tests/util.py),
        # whose blocks at 400 steps are unitary only to about 4e-2, stands in
        # for a transport that leaks between the bands
        def leaky(path, regime, m, steps):
            hol = wilson_loop(path, regime, m, steps)
            full = midpoint_loop(path, regime, m, steps)
            fp, fm = hol.frame_plus, hol.frame_minus
            return dataclasses.replace(hol, full=full, block_plus=fp.conj().T @ full @ fp,
                                       block_minus=fm.conj().T @ full @ fm)

        monkeypatch.setattr(cli, "wilson_loop", leaky)
        f = tmp_path / "under.json"
        f.write_text(json.dumps({"kind": "sampled", "samples": [
            [0, 0, 1e6], [1e3, 0, -1e6], [1e6, 0, 0], [0, 0, 1e6]]}))
        code = main(["holonomy", "--path", str(f), "--regime", "quadratic",
                     "--steps", "400", "--defect-tol", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: the plus band block (the transport leaks between "
                              "the bands) is not unitary: defect ")

    def test_record_names_every_table_read(self, capsys, tmp_path, monkeypatch):
        # a table that changes Ge:B's beta changes the holonomy: the record
        # carries its bytes, in merge order after the built-ins
        argv = ["holonomy", "--path", write_octant(tmp_path), "--regime", "quadratic",
                "--steps", "400", "--defect-tol", "1"]
        _, plain = run_cli(capsys, *argv)
        env, flag = tmp_path / "env.json", tmp_path / "flag.json"
        env.write_text(json.dumps([dict(cli._material_dict(material_lookup("Ge", "B")),
                                        beta=-0.25)]))
        flag.write_text(json.dumps([GAAS_BE]))
        monkeypatch.setenv("STARK_MATERIALS_PATH", str(env))
        code, rec = run_cli(capsys, *argv)
        _, both = run_cli(capsys, *argv, "--materials", str(flag))
        assert code == 0 and "material_tables" not in plain["inputs"]
        assert rec["results"]["full"] != plain["results"]["full"]
        assert rec["results"]["full"] == both["results"]["full"]
        echo = [{"source": "STARK_MATERIALS_PATH", "raw": env.read_text(),
                 "sha256": hashlib.sha256(env.read_bytes()).hexdigest()}]
        assert rec["inputs"] == {"path_file": plain["inputs"]["path_file"],
                                 "material_tables": echo}
        assert both["inputs"]["material_tables"] == echo + [{
            "source": "--materials", "raw": flag.read_text(),
            "sha256": hashlib.sha256(flag.read_bytes()).hexdigest()}]

    @pytest.mark.parametrize("steps, code", [(200, 3), (20000, 0)])
    def test_sampled_octant_refines_with_steps(self, capsys, tmp_path, steps, code):
        # 40 samples: step doubling must refine the polyline, not rerun it
        samples = make_spherical_triangle(np.pi / 2, np.pi / 2, 1e6).points(39)
        f = tmp_path / "sampled.json"
        f.write_text(json.dumps({"kind": "sampled", "samples": samples.tolist()}))
        got, rec = run_cli(capsys, "holonomy", "--path", str(f), "--regime",
                           "quadratic", "--material", "Ge", "--dopant", "B",
                           "--spherical", "--steps", str(steps), "--band", "minus")
        assert got == code
        if code == 0:
            zee_phases = eigenphases(zee_holonomy(np.pi / 2, np.pi / 2))
            assert np.abs(np.array(rec["results"]["eigenphases_minus"])
                          - zee_phases).max() <= 1e-7

    def test_record_reproducible(self, capsys, tmp_path):
        path = write_octant(tmp_path)
        argv = ["holonomy", "--path", path, "--regime", "quadratic",
                "--material", "Ge", "--dopant", "B", "--spherical",
                "--steps", "400", "--defect-tol", "1.0"]
        _, rec1 = run_cli(capsys, *argv)
        _, rec2 = run_cli(capsys, *argv)
        rec1.pop("timestamp")
        rec2.pop("timestamp")
        assert rec1 == rec2

    @staticmethod
    def _octant_record(capsys, tmp_path, steps, tol="1e-3"):
        code, rec = run_cli(capsys, "holonomy", "--path", write_octant(tmp_path),
                            "--regime", "quadratic", "--material", "Ge",
                            "--dopant", "B", "--spherical", "--steps", str(steps),
                            "--defect-tol", tol)
        runs = {n: wilson_loop(make_spherical_triangle(np.pi / 2, np.pi / 2, 1e6),
                               "quadratic", material_lookup("Ge", "B").spherical(),
                               steps=n)
                for n in (steps // 4, steps // 2, steps, 2 * steps) if n >= 100}
        return code, rec["results"], runs

    @staticmethod
    def _defect(a, b):
        return float(np.abs(a.full - b.full).max())

    @pytest.mark.parametrize("steps", [400, 2000, 20000])
    def test_ladder_ends_at_steps(self, capsys, tmp_path, steps):
        code, res, runs = self._octant_record(capsys, tmp_path, steps)
        hol = runs[steps]
        assert code == 0
        assert res["steps"] == hol.steps
        assert res["full"] == cli._complex_matrix(hol.full)
        assert res["block_plus"] == cli._complex_matrix(hol.block_plus)
        assert res["block_minus"] == cli._complex_matrix(hol.block_minus)
        assert res["selected_block"] == cli._complex_matrix(hol.block_plus)
        for key, u in (("full", hol.full), ("plus", hol.block_plus),
                       ("minus", hol.block_minus)):
            assert res[f"eigenphases_{key}"] == eigenphases(u, tol=1e-3).tolist()
        assert res["convergence_defect"] == self._defect(runs[steps // 2], hol)
        assert res["convergence_defect_coarse"] == self._defect(runs[steps // 4],
                                                                runs[steps // 2])

    def test_short_ladder_below_four_min_steps(self, capsys, tmp_path):
        # --steps / 4 < 100: n is raised to 400, so the ladder is 100, 200,
        # 400 and reports the 400 run
        code, res, runs = self._octant_record(capsys, tmp_path, 200, tol="1.0")
        assert code == 0
        assert res["full"] == cli._complex_matrix(runs[400].full)
        assert res["convergence_defect"] == self._defect(runs[200], runs[400])
        assert res["convergence_defect_coarse"] == self._defect(runs[100], runs[200])
        assert res["convergence_ratio"] == (res["convergence_defect_coarse"]
                                            / res["convergence_defect"])

    def test_three_wilson_loops_per_call(self, capsys, tmp_path, monkeypatch):
        calls = []

        def spy(path, regime, m, steps):
            calls.append(steps)
            return wilson_loop(path, regime, m, steps=steps)

        monkeypatch.setattr(cli, "wilson_loop", spy)
        code, _ = run_cli(capsys, "holonomy", "--path", write_octant(tmp_path),
                          "--regime", "quadratic", "--spherical", "--steps", "20000")
        assert code == 0
        assert sorted(calls) == [5000, 10000, 20000]

    # stable ids: their last field once named the run the defect compared
    @pytest.mark.parametrize("steps, tol, code", [
        pytest.param(200, "1e-12", 3, id="200-1e-12-3-None"),
        pytest.param(400, "1e-12", 3, id="400-1e-12-3-None"),
        pytest.param(600, "1.0", 0, id="600-1.0-0-1200"),
        pytest.param(1200, "1e-5", 0, id="1200-1e-5-0-600")])
    def test_defect_never_compares_a_run_with_itself(self, capsys, tmp_path,
                                                     steps, tol, code):
        # 999 segments: n is raised to 4 * 999 at every --steps here, so the
        # runs split each segment into 1, 2 and 4 substeps, and both defects
        # compare runs of different step counts
        samples = make_spherical_triangle(np.pi / 2, np.pi / 2, 1e6).points(999)
        assert len(samples) == 1000
        f = tmp_path / "sampled.json"
        f.write_text(json.dumps({"kind": "sampled", "samples": samples.tolist()}))
        got, rec = run_cli(capsys, "holonomy", "--path", str(f), "--regime",
                           "quadratic", "--spherical", "--steps", str(steps),
                           "--defect-tol", tol)
        res = rec["results"]
        assert got == code
        assert res["converged"] is (code == 0)
        path = cli.path_from_dict(json.loads(f.read_text()))
        m = material_lookup("Ge", "B").spherical()
        coarse, mid, fine = (wilson_loop(path, "quadratic", m, steps=n)
                             for n in (999, 1998, 3996))
        assert (coarse.steps, mid.steps, fine.steps) == (999, 1998, 3996)
        assert res["steps"] == 3996
        assert res["full"] == cli._complex_matrix(fine.full)
        assert res["convergence_defect"] == self._defect(mid, fine) > 0
        assert res["convergence_defect_coarse"] == self._defect(coarse, mid) > 0
        assert res["convergence_ratio"] == (res["convergence_defect_coarse"]
                                            / res["convergence_defect"])

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(kind=st.sampled_from(["spherical_triangle", "latitude_loop", "sampled"]),
           theta=st.floats(0.05, 3.09), phi=st.floats(-6.3, 6.3),
           segments=st.integers(2, 1000), steps=st.integers(100, 5000))
    def test_ladder_step_counts_strictly_increase(self, tmp_path_factory, kind, theta,
                                                  phi, segments, steps):
        # n = max(--steps, 400, 4 * segments): the n/4 run asks for at least
        # 100 steps and one substep per sampled segment, and every run takes
        # more steps than the one below it
        if kind == "sampled":  # a circle at polar angle 1 in `segments` chords
            ph = np.linspace(0.0, 2 * np.pi, segments + 1)
            samples = np.stack([np.sin(1.0) * np.cos(ph), np.sin(1.0) * np.sin(ph),
                                np.full_like(ph, np.cos(1.0))], axis=1)
            samples[-1] = samples[0]
            desc = {"kind": kind, "samples": (1e6 * samples).tolist()}
        else:
            desc = {"kind": kind, "theta": theta, "phi": phi, "magnitude_V_per_m": 1e6}
            segments = 0
        f = tmp_path_factory.mktemp("ladder") / "path.json"
        f.write_text(json.dumps(desc))
        asked, runs = [], []

        def spy(path, regime, m, steps):
            asked.append(steps)
            runs.append(wilson_loop(path, regime, m, steps=steps))
            return runs[-1]

        with pytest.MonkeyPatch.context() as mp, redirect_stdout(io.StringIO()) as out:
            mp.setattr(cli, "wilson_loop", spy)
            code = main(["holonomy", "--path", str(f), "--regime", "linear",
                         "--steps", str(steps), "--defect-tol", "1.0"])
        res = json.loads(out.getvalue())["results"]
        n = max(steps, 400, 4 * segments)
        assert code == 0 and asked == [n, n // 2, n // 4]
        fine, mid, coarse = (run.steps for run in runs)
        assert coarse < mid < fine == res["steps"]
        assert coarse >= segments
        assert isinstance(res["convergence_defect_coarse"], float)
        assert isinstance(res["convergence_ratio"], float) or res["convergence_defect"] == 0

    @pytest.mark.parametrize("steps", ["50", "-1"])
    def test_steps_below_min_steps_exit_2(self, capsys, tmp_path, steps):
        code = main(["holonomy", "--path", write_octant(tmp_path), "--regime",
                     "quadratic", "--steps", steps])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: --steps: steps must be >= 100\n"


class TestVerifyAdiabatic:
    @pytest.mark.parametrize("wl_steps", ["50", "-1"])
    def test_wl_steps_below_min_steps_exit_2_before_the_drive(self, capsys, tmp_path,
                                                              monkeypatch, wl_steps):
        from holostark import dynamics
        monkeypatch.setattr(dynamics, "_drive_steps",
                            lambda *a: pytest.fail("the drive was evaluated"))
        code = main(["verify-adiabatic", "--regime", "quadratic", "--T", "1e-9",
                     "--path", write_octant(tmp_path), "--time-steps", "2000",
                     "--wl-steps", wl_steps])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: --wl-steps: steps must be >= 100\n"

    def test_low_fidelity_exits_3_with_its_record(self, capsys, tmp_path):
        # a 1e-13 s octant is far from adiabatic (fidelity 0.0042, leakage
        # only 0.0064); --fidelity-tol bounds 1 - F
        argv = ["verify-adiabatic", "--path", write_octant(tmp_path), "--regime",
                "quadratic", "--spherical", "--T", "1e-13"]
        code, rec = run_cli(capsys, *argv)
        res = rec["results"]
        assert code == 3 and res["converged"] is False and res["fidelity_tol"] == 1e-3
        assert res["fidelity"] < 0.01
        code, rec = run_cli(capsys, *argv, "--fidelity-tol", "1")
        assert code == 0 and rec["results"]["converged"] is True

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_fidelity_tol_must_be_finite_and_nonnegative(self, capsys, tmp_path, tol):
        code = main(["verify-adiabatic", "--path", write_octant(tmp_path), "--regime",
                     "quadratic", "--T", "1e-9", "--fidelity-tol", tol])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        says = f"error: --fidelity-tol must be a finite number >= 0, got {float(tol)}\n"
        assert err == says

    def test_static_path_gives_unit_fidelity(self, capsys, tmp_path):
        f = tmp_path / "static.json"
        f.write_text(json.dumps({"kind": "sampled", "samples":
                                 [[0, 0, 1e6], [0, 0, 1e6], [0, 0, 1e6]]}))
        code, rec = run_cli(capsys, "verify-adiabatic", "--path", str(f),
                            "--regime", "quadratic", "--material", "Ge",
                            "--dopant", "B", "--T", "1e-10",
                            "--time-steps", "100", "--wl-steps", "100")
        assert code == 0
        assert rec["results"]["fidelity"] >= 1.0 - 1e-9
        assert rec["results"]["band_leakage"] <= 1e-9

    @pytest.mark.parametrize("samples, propagated", [(None, 1000), (40, 1014)])
    def test_record_reports_propagated_steps(self, capsys, tmp_path, samples, propagated):
        # a triangle takes exactly the 1000 steps asked; 40 samples make 39
        # segments, each split into ceil(1000/39) = 26 substeps
        if samples is None:
            path = write_octant(tmp_path)
        else:
            pts = make_spherical_triangle(np.pi / 2, np.pi / 2, 1e6).points(samples - 1)
            path = str(tmp_path / "sampled.json")
            with open(path, "w") as fh:
                json.dump({"kind": "sampled", "samples": pts.tolist()}, fh)
        code, rec = run_cli(capsys, "verify-adiabatic", "--path", path,
                            "--regime", "quadratic", "--spherical", "--T", "1e-9",
                            "--time-steps", "1000", "--wl-steps", "200")
        assert code == 0
        assert rec["results"]["time_steps"] == propagated

    @pytest.mark.parametrize("total_time", ["1e300", "1e200", "1e120", "1e40"])
    def test_drive_overflowing_the_phase_exits_2(self, capsys, tmp_path, total_time):
        # from 1e200 s down, dt/hbar and every phase are finite, but the
        # summed phase is past 2^53 rad, where float64 keeps no angle
        code = main(["verify-adiabatic", "--path", write_octant(tmp_path),
                     "--regime", "quadratic", "--spherical", "--T", total_time,
                     "--time-steps", "2000", "--wl-steps", "400"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --T") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("sampled, flag, value", [
        (False, "--T", "0"), (False, "--T", "nan"), (False, "--T", "-1"),
        (False, "--time-steps", "5"),
        # 39 sampled segments need at least 390 steps
        (True, "--time-steps", "389")])
    def test_bad_drive_names_its_flag(self, capsys, tmp_path, sampled, flag, value):
        path = write_octant(tmp_path)
        if sampled:
            path = str(tmp_path / "sampled.json")
            pts = make_spherical_triangle(np.pi / 2, np.pi / 2, 1e6).points(39)
            with open(path, "w") as fh:
                json.dump({"kind": "sampled", "samples": pts.tolist()}, fh)
        drive = {"--T": "1e-9", "--time-steps": "2000", flag: value}
        code = main(["verify-adiabatic", "--path", path, "--regime", "quadratic",
                     "--spherical", "--wl-steps", "400"]
                    + [arg for item in drive.items() for arg in item])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag}: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("total_time, exit_code, calls", [("1e300", 2, 0),
                                                              ("1e-9", 0, 1)])
    def test_drive_checked_before_the_wilson_loop(self, capsys, tmp_path, monkeypatch,
                                                 total_time, exit_code, calls):
        from holostark import dynamics
        seen = []
        monkeypatch.setattr(dynamics, "wilson_loop", lambda *a, f=dynamics.wilson_loop,
                            **k: seen.append(1) or f(*a, **k))
        code = main(["verify-adiabatic", "--path", write_octant(tmp_path),
                     "--regime", "quadratic", "--spherical", "--T", total_time,
                     "--time-steps", "2000", "--wl-steps", "400"])
        capsys.readouterr()
        assert (code, len(seen)) == (exit_code, calls)


class TestSynth:
    def test_identity_target(self, capsys, tmp_path):
        f = tmp_path / "identity.json"
        f.write_text(json.dumps({"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
        code, rec = run_cli(capsys, "synth", "--target", str(f), "--max-loops",
                            "1", "--tol", "1e-6", "--seed", "0")
        assert code == 0
        assert rec["results"]["converged"] is True
        assert rec["results"]["fidelity"] >= 1.0 - 1e-9

    @pytest.mark.parametrize("model", ["linear", "numeric_quadratic"])
    def test_identity_target_other_models(self, capsys, tmp_path, model):
        f = tmp_path / "identity.json"
        f.write_text(json.dumps({"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
        code, rec = run_cli(capsys, "synth", "--target", str(f), "--model", model,
                            "--max-loops", "1", "--tol", "1e-6", "--seed", "0")
        res = rec["results"]
        assert code == 0 and res["converged"] is True and res["model"] == model
        loop_model = (LoopModel("linear") if model == "linear" else
                      LoopModel("numeric_quadratic", material_lookup("Ge", "B"), 1e6))
        achieved = loop_product(res["loops"], loop_model)
        assert holonomy_fidelity(achieved, np.eye(2)) >= 1.0 - 1e-6

    def test_round_trip_and_determinism(self, capsys, tmp_path):
        u = zee_holonomy(0.9, 1.3)
        f = tmp_path / "target.json"
        f.write_text(json.dumps({"matrix":
                                 [[[z.real, z.imag] for z in row] for row in u]}))
        argv = ["synth", "--target", str(f), "--max-loops", "1",
                "--tol", "1e-6", "--seed", "42"]
        code, rec1 = run_cli(capsys, *argv)
        assert code == 0
        assert rec1["results"]["fidelity"] >= 1.0 - 1e-6
        _, rec2 = run_cli(capsys, *argv)
        rec1.pop("timestamp")
        rec2.pop("timestamp")
        assert rec1 == rec2

    def test_missing_seed_exits_2(self, capsys, tmp_path):
        f = tmp_path / "identity.json"
        f.write_text(json.dumps({"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
        code, _ = run_cli(capsys, "synth", "--target", str(f))
        assert code == 2

    def test_negative_seed_exits_2(self, capsys, tmp_path):
        f = tmp_path / "identity.json"
        f.write_text(json.dumps({"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
        code = main(["synth", "--target", str(f), "--max-loops", "1", "--seed", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --seed") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("magnitude", ["0", "-1e6", "nan", "inf"])
    def test_unusable_magnitude_names_the_flag(self, capsys, tmp_path, magnitude):
        f = tmp_path / "identity.json"
        f.write_text(json.dumps({"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
        code = main(["synth", "--target", str(f), "--seed", "0", "--model",
                     "numeric_quadratic", f"--magnitude={magnitude}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("error: --magnitude: field magnitude must be positive, "
                       f"got {float(magnitude)}\n")

    def test_no_loops_names_the_flag(self, capsys, tmp_path):
        f = tmp_path / "identity.json"
        f.write_text(json.dumps({"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
        code = main(["synth", "--target", str(f), "--seed", "0", "--max-loops", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: --max-loops: max_loops must be >= 1, got 0\n"

    def test_malformed_matrix_exits_2(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"matrix": [[1, 0], [0, 1]]}))
        code = main(["synth", "--target", str(f), "--seed", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: target needs a 'matrix'")
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag, value", [
    ("--defect-tol", "nan"), ("--defect-tol", "-1"), ("--defect-tol", "inf"),
    ("--tol", "nan"), ("--tol", "-1e-6"),
])
def test_malformed_tolerance_exits_2(capsys, tmp_path, flag, value):
    if flag == "--defect-tol":
        argv = ["holonomy", "--regime", "quadratic", "--path", write_octant(tmp_path)]
    else:
        target = tmp_path / "identity.json"
        target.write_text(json.dumps({"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
        argv = ["synth", "--seed", "0", "--target", str(target)]
    code = main(argv + [f"{flag}={value}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {flag} must be") and len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--steps", "--time-steps", "--wl-steps"])
def test_step_count_too_large_to_allocate_exits_2(capsys, tmp_path, flag):
    # 10**15 steps need petabytes, more than any address space: the
    # allocation fails at once instead of swapping
    if flag == "--steps":
        argv = ["holonomy", "--regime", "quadratic", "--path", write_octant(tmp_path)]
    else:
        argv = ["verify-adiabatic", "--regime", "quadratic", "--T", "1e-9",
                "--path", write_octant(tmp_path), "--time-steps", "100",
                "--wl-steps", "100"]
    code = main(argv + [flag, str(10**15)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["spectrum", "--regime", "quadratic", "--field", "1e300,0,1e300"],
    ["spectrum", "--regime", "linear", "--field", "1e160,0,0"],
    ["holonomy", "--regime", "linear", "--steps", "200"],
    ["holonomy", "--regime", "quadratic", "--steps", "200"],
    ["verify-adiabatic", "--regime", "linear", "--T", "1e-9", "--time-steps", "100",
     "--wl-steps", "100"],
    ["verify-adiabatic", "--regime", "quadratic", "--T", "1e-9", "--time-steps", "100",
     "--wl-steps", "100"],
    ["holonomy", "--regime", "quadratic", "--steps", "200", "--path", "sampled"],
], ids=["spectrum-quadratic", "spectrum-linear", "holonomy-linear",
        "holonomy-quadratic", "adiabatic-linear", "adiabatic-quadratic",
        "holonomy-sampled"])
def test_field_overflowing_float64_exits_2(capsys, tmp_path, argv):
    # d or |d| overflows: reported as such, not as a gap closure, and
    # without numpy warnings (the suite turns those into errors).  The
    # transport is scale-free, so a 1e300 V/m loop is no overflow: holonomy
    # gives the 1e6 V/m record (the quadratic octant and the linear (1.0,
    # 0.7) triangle exit 3 from their defects at 200 steps, the 3-segment
    # sampled loop converges), and the linear drive
    # fails only on its summed phase past 2^53 rad, a fact of --T.  |E| is
    # the norm of the power-of-two-scaled field, so sampled norms beyond
    # float64 and the linear spectrum at 1e160 V/m are no overflow either
    def path(magnitude):
        if argv[-1] != "sampled":  # the linear octant is exact (write_triangle)
            if argv[2] == "quadratic":
                return write_octant(tmp_path, magnitude)
            return write_triangle(tmp_path, 1.0, 0.7, magnitude, f"t{magnitude}.json")
        f = tmp_path / f"sampled{magnitude}.json"
        f.write_text(json.dumps({"kind": "sampled", "samples": [
            [0, 0, magnitude], [magnitude / 10, 0, magnitude],
            [0, magnitude / 10, magnitude], [0, 0, magnitude]]}))
        return str(f)

    if argv[0] == "holonomy":
        code, record = run_cli(capsys, *argv[:5], "--path", path(1e300))
        ref_code, ref = run_cli(capsys, *argv[:5], "--path", path(1e6))
        assert code == ref_code == (0 if argv[-1] == "sampled" else 3)
        assert record["results"].pop("path") == json.loads(Path(path(1e300)).read_text())
        ref["results"].pop("path")
        assert_scale_free_record(record["results"], ref["results"])
        return
    if argv[:3] == ["spectrum", "--regime", "linear"]:
        code, record = run_cli(capsys, *argv)
        d = np.array(record["results"]["d_meV"])
        k = -int(np.floor(np.log2(np.abs(d).max())))
        scaled = np.ldexp(np.linalg.norm(np.ldexp(d, k)), -k)
        assert code == 0 and record["results"]["gap_meV"] == 2 * scaled
        return
    if argv[0] != "spectrum":
        argv = argv + ["--path", write_octant(tmp_path, magnitude=1e300)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    if argv[:3] == ["verify-adiabatic", "--regime", "linear"]:
        assert err == ("error: --T: a 1e-09 s drive sums its phase past 2^53 rad, "
                       "where float64 keeps no angle\n")
    else:
        assert err.startswith("error: field too strong for float64")


@pytest.mark.parametrize("kind", ["sampled-holonomy", "linear-spectrum"])
def test_field_norm_overflow_exits_2(capsys, tmp_path, kind):
    # every entry is finite, but |E| of (1.5e308, 1.5e308, 0) is not
    if kind == "linear-spectrum":
        argv = ["spectrum", "--regime", "linear", "--field", "1.5e308,1.5e308,0"]
    else:
        big, f = 1.5e308, tmp_path / "huge.json"
        f.write_text(json.dumps({"kind": "sampled", "samples": [
            [big, big, 0], [0, big, big], [big, 0, big], [big, big, 0]]}))
        argv = ["holonomy", "--path", str(f), "--regime", "quadratic"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: field too strong for float64: |E| overflows\n"


@pytest.mark.parametrize("argv", [
    ["holonomy", "--regime", "linear", "--steps", "400"],
    ["holonomy", "--regime", "quadratic", "--steps", "400"],
    ["verify-adiabatic", "--regime", "linear", "--T", "1e-9", "--time-steps", "2000",
     "--wl-steps", "400"],
    ["verify-adiabatic", "--regime", "quadratic", "--spherical", "--T", "1e-9",
     "--time-steps", "2000", "--wl-steps", "400"],
], ids=["holonomy-linear", "holonomy-quadratic", "adiabatic-linear",
        "adiabatic-quadratic"])
def test_chord_midpoints_near_float64_limit(capsys, tmp_path, argv):
    # every corner of a 1e308 V/m loop is finite, but the sum of two of them
    # is not: the chord midpoints must not overflow (the suite turns numpy
    # warnings into errors) nor be reported as a non-finite field.  The
    # transport is scale-free, so holonomy transports the loop (exit 3 from
    # its defect at 400 steps: in the linear regime a triangle whose arc is
    # not a great circle, see write_triangle)
    path = (write_triangle(tmp_path, 1.0, 0.7, 1e308)
            if argv[:3] == ["holonomy", "--regime", "linear"]
            else write_octant(tmp_path, magnitude=1e308))
    code = main(argv + ["--path", path])
    err = capsys.readouterr().err
    if argv[0] == "holonomy":
        assert code == 3
    else:
        assert code in (0, 2)
    if code == 2:
        assert len(err.splitlines()) == 1 and "must be finite" not in err


def test_runs_without_scipy(tmp_path):
    # scipy is a test-only oracle: the CLI, synth included, must neither
    # need nor load it
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"matrix": [[[v.real, v.imag] for v in row]
                                             for row in zee_holonomy(0.9, 1.3)]}))
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        "import holostark.cli\n"
        "code = holostark.cli.main(['synth', '--target', sys.argv[1], "
        "'--max-loops', '1', '--seed', '0'])\n"
        "loaded = [k for k, v in sys.modules.items() "
        "if k.split('.')[0] == 'scipy' and v is not None]\n"
        "sys.exit(f'scipy loaded: {loaded}' if loaded else code)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script, str(target)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["command"][1] == "synth"


@pytest.mark.parametrize("kind", ["path", "target", "materials", "env"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, monkeypatch, kind):
    # deep enough that the JSON parser itself runs out of recursion depth
    f = tmp_path / "deep.json"
    f.write_text("[" * 5000 + "]" * 5000)
    argv = {"path": ["holonomy", "--regime", "quadratic", "--path", str(f)],
            "target": ["synth", "--seed", "0", "--target", str(f)],
            "materials": ["materials", "list", "--materials", str(f)],
            "env": ["materials", "list"]}[kind]
    if kind == "env":
        monkeypatch.setenv("STARK_MATERIALS_PATH", str(f))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {f}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("content", [b"{", b"\xff\xfe{}"], ids=["syntax", "not-utf8"])
@pytest.mark.parametrize("kind", ["path", "target", "materials", "env"])
def test_unparsable_json_exits_2_naming_the_file(capsys, tmp_path, monkeypatch,
                                                 kind, content):
    f = tmp_path / "broken.json"
    f.write_bytes(content)
    argv = {"path": ["holonomy", "--regime", "quadratic", "--path", str(f)],
            "target": ["synth", "--seed", "0", "--target", str(f)],
            "materials": ["materials", "list", "--materials", str(f)],
            "env": ["materials", "list"]}[kind]
    if kind == "env":
        monkeypatch.setenv("STARK_MATERIALS_PATH", str(f))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {f}: ") and len(err.splitlines()) == 1


def test_output_file_written(capsys, tmp_path):
    out = tmp_path / "record.json"
    code, rec = run_cli(capsys, "spectrum", "--material", "Ge", "--dopant", "B",
                        "--regime", "quadratic", "--field", "0,0,1e6",
                        "--out", str(out))
    assert code == 0
    on_disk = json.loads(out.read_text())
    assert on_disk == rec


def _write_crlf_json(path, obj):
    # indented, with CRLF line ends: the echoed raw text must be these bytes,
    # not a re-serialization or a newline-translated reading of them
    path.write_bytes(json.dumps(obj, indent=1).replace("\n", "\r\n").encode("utf-8"))
    return str(path)


def _command(tmp_path, name):
    """argv for one run of each subcommand, and the input files it reads:
    {record key: file} for path and target files, [file] for tables."""
    table = _write_crlf_json(tmp_path / "table.json", [GAAS_BE])
    path = _write_crlf_json(tmp_path / "octant.json", {
        "kind": "spherical_triangle", "theta": np.pi / 2, "phi": np.pi / 2,
        "magnitude_V_per_m": 1e6})
    target = _write_crlf_json(tmp_path / "target.json", {
        "matrix": [[[v.real, v.imag] for v in row] for row in zee_holonomy(0.9, 1.3)]})
    return {
        "materials": (["materials", "list", "--materials", table], {}, [table]),
        "spectrum": (["spectrum", "--material", "GaAs", "--dopant", "Be", "--materials",
                      table, "--regime", "linear", "--field", "1e5,2e5,0"], {}, [table]),
        "holonomy": (["holonomy", "--path", path, "--regime", "quadratic", "--spherical",
                      "--steps", "400", "--defect-tol", "1.0"], {"path_file": path}, []),
        "verify-adiabatic": (["verify-adiabatic", "--path", path, "--regime",
                              "quadratic", "--spherical", "--T", "1e-9", "--time-steps",
                              "400", "--wl-steps", "200", "--fidelity-tol", "1.0"],
                             {"path_file": path}, []),
        "synth": (["synth", "--target", target, "--max-loops", "1", "--seed", "7"],
                  {"target_file": target}, []),
    }[name]


COMMANDS = ["materials", "spectrum", "holonomy", "verify-adiabatic", "synth"]


@pytest.mark.parametrize("name", COMMANDS)
def test_every_record_reproducible(capsys, tmp_path, name):
    argv, _, _ = _command(tmp_path, name)
    code1, rec1 = run_cli(capsys, *argv)
    code2, rec2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    rec1.pop("timestamp")
    rec2.pop("timestamp")
    assert rec1 == rec2
    assert rec1["command"] == ["holostark"] + argv
    assert rec1["seed"] == (7 if name == "synth" else None)


def test_holonomy_record_ignores_an_earlier_batched_synth(capsys, tmp_path):
    # a 16-loop search scores stacks of up to 528 loops a call in fresh
    # arrays, and the second ladder finds the thread's blocked_product
    # workspace as the first left it; each 5 000-step ladder has the bytes
    # of one made in a fresh process, timestamp aside
    h = 0.5 ** 0.5
    target = tmp_path / "hadamard.json"
    target.write_text(json.dumps({"matrix": [[[h, 0], [h, 0]], [[h, 0], [-h, 0]]]}))
    argv = ["holonomy", "--path", write_octant(tmp_path), "--regime", "quadratic",
            "--spherical", "--steps", "5000", "--defect-tol", "1.0"]
    src = str(Path(cli.__file__).resolve().parents[1])
    fresh = subprocess.run([sys.executable, "-m", "holostark.cli"] + argv,
                           env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                           text=True, timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    stamp = '  "timestamp": '
    want = [line for line in fresh.stdout.splitlines() if not line.startswith(stamp)]
    assert len(want) == len(fresh.stdout.splitlines()) - 1
    for _ in range(2):
        assert main(["synth", "--target", str(target), "--max-loops", "16", "--tol", "1e-3",
                     "--seed", "0"]) in (0, 3)
        capsys.readouterr()
        assert main(argv) == 0
        here = capsys.readouterr().out
        assert [line for line in here.splitlines() if not line.startswith(stamp)] == want


@pytest.mark.parametrize("name", COMMANDS)
def test_record_echoes_the_bytes_read_once(capsys, tmp_path, monkeypatch, name):
    argv, echoed, tables = _command(tmp_path, name)
    real_open, opened = builtins.open, []

    def spy(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    code, rec = run_cli(capsys, *argv)
    monkeypatch.undo()
    assert code == 0
    for f in list(echoed.values()) + tables:
        assert opened.count(f) == 1
    inputs = rec["inputs"]
    tables_read = inputs.get("material_tables", [])  # in merge order, with their source
    assert [t.pop("source") for t in tables_read] == ["--materials"] * len(tables)
    assert set(inputs) == set(echoed) | ({"material_tables"} if tables else set())
    pairs = [(inputs[key], f) for key, f in echoed.items()] + list(zip(tables_read, tables))
    for echo, f in pairs:
        raw = Path(f).read_bytes()
        assert b"\r\n" in raw
        assert echo == {"sha256": hashlib.sha256(raw).hexdigest(), "raw": raw.decode("utf-8")}


@pytest.mark.parametrize("argv, says", [
    (["holonomy", "--regime", "quadratic", "--path", "p.json", "--steps", "abc"],
     "error: argument --steps: invalid int value: 'abc'"),
    (["holonomy", "--path", "p.json", "--regime", "cubic"],
     "error: argument --regime: invalid choice: 'cubic'"),
    (["holonomy", "--regime", "quadratic"],
     "error: the following arguments are required: --path"),
    (["bogus"], "error: argument subcommand: invalid choice: 'bogus'"),
    (["--bogus", "1"], "error: "),
], ids=["bad-int", "bad-choice", "missing-flag", "unknown-subcommand", "unknown-flag"])
def test_malformed_command_line_is_one_line(capsys, argv, says):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(says) and len(err.splitlines()) == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["holonomy", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: holostark holonomy")


@pytest.mark.parametrize("regime, magnitude", [
    ("linear", 1e-148), ("linear", 1e-160), ("quadratic", 1e-73), ("quadratic", 1e-100)])
@pytest.mark.parametrize("command", ["holonomy", "verify-adiabatic", "spectrum"])
def test_field_too_weak_for_float64_exits_2(capsys, tmp_path, regime, magnitude, command):
    # every d component is a nonzero float64, though |d|^2 underflows (and
    # 0.5/|d|^2 overflows): the transport is scale-free, so holonomy gives
    # the 1e6 V/m record; spectrum reports |d| from the power-of-two-scaled
    # row, exact to rounding; verify-adiabatic runs its (far from adiabatic)
    # drive.  No NaN matrix, traceback or numpy warning
    def triangle(mag):
        f = tmp_path / f"weak{mag}.json"
        f.write_text(json.dumps({"kind": "spherical_triangle", "theta": 1.0, "phi": 0.7,
                                 "magnitude_V_per_m": mag}))
        return str(f)

    argv = {"holonomy": ["holonomy", "--steps", "400", "--path"],
            "verify-adiabatic": ["verify-adiabatic", "--T", "1e-9", "--time-steps", "200",
                                 "--wl-steps", "200", "--path"],
            "spectrum": ["spectrum", "--field"]}[command]
    arg = f"{magnitude},0,0" if command == "spectrum" else triangle(magnitude)
    code, record = run_cli(capsys, *argv, arg, "--regime", regime)
    if command == "holonomy":
        ref_code, ref = run_cli(capsys, *argv, triangle(1e6), "--regime", regime)
        assert code == ref_code
        assert_scale_free_record(record["results"], ref["results"])
    elif command == "spectrum":
        d = np.array(record["results"]["d_meV"])
        k = -int(np.floor(np.log2(np.abs(d).max())))
        scaled = np.ldexp(np.linalg.norm(np.ldexp(d, k)), -k)
        assert code == 0 and record["results"]["gap_meV"] == 2 * scaled
    else:  # far from adiabatic: 1 - F is above the default --fidelity-tol
        assert code == 3 and 0 <= record["results"]["fidelity"] <= 1 - 1e-3


def test_zero_field_is_a_gap_closure(capsys):
    code = main(["spectrum", "--regime", "quadratic", "--field", "0,0,0"])
    assert code == 2
    assert capsys.readouterr().err == "error: gap closes: |d| vanishes at a field point\n"
