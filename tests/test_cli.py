import json

import numpy as np
import pytest

from holostark import eigenphases, make_spherical_triangle, zee_holonomy
from holostark.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    record = json.loads(out) if out.strip().startswith("{") else None
    return code, record


def write_octant(tmp_path, magnitude=1e6):
    p = tmp_path / "octant.json"
    p.write_text(json.dumps({"kind": "spherical_triangle", "theta": np.pi / 2,
                             "phi": np.pi / 2, "magnitude_V_per_m": magnitude}))
    return str(p)


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

    @pytest.mark.parametrize("steps, code", [(200, 3), (20000, 0)])
    def test_sampled_octant_refines_with_steps(self, capsys, tmp_path, steps, code):
        # 40 samples: step doubling must refine the polyline, not rerun it
        samples = make_spherical_triangle(np.pi / 2, np.pi / 2, 1e6).points(40)
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


class TestVerifyAdiabatic:
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

    @pytest.mark.parametrize("samples, propagated", [(None, 999), (40, 1014)])
    def test_record_reports_propagated_steps(self, capsys, tmp_path, samples, propagated):
        # the triangle's arc-length allocation rounds 1000 to 999 segments;
        # 39 sampled segments split into ceil(1000/39) = 26 substeps each
        if samples is None:
            path = write_octant(tmp_path)
        else:
            pts = make_spherical_triangle(np.pi / 2, np.pi / 2, 1e6).points(samples)
            path = str(tmp_path / "sampled.json")
            with open(path, "w") as fh:
                json.dump({"kind": "sampled", "samples": pts.tolist()}, fh)
        code, rec = run_cli(capsys, "verify-adiabatic", "--path", path,
                            "--regime", "quadratic", "--spherical", "--T", "1e-9",
                            "--time-steps", "1000", "--wl-steps", "200")
        assert code == 0
        assert rec["results"]["time_steps"] == propagated


class TestSynth:
    def test_identity_target(self, capsys, tmp_path):
        f = tmp_path / "identity.json"
        f.write_text(json.dumps({"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
        code, rec = run_cli(capsys, "synth", "--target", str(f), "--max-loops",
                            "1", "--tol", "1e-6", "--seed", "0")
        assert code == 0
        assert rec["results"]["converged"] is True
        assert rec["results"]["fidelity"] >= 1.0 - 1e-9

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
], ids=["spectrum-quadratic", "spectrum-linear", "holonomy-linear",
        "holonomy-quadratic", "adiabatic-linear", "adiabatic-quadratic"])
def test_field_overflowing_float64_exits_2(capsys, tmp_path, argv):
    # d, |d| or |E| overflows: reported as such, not as a gap closure, and
    # without numpy warnings (the suite turns those into errors)
    if argv[0] != "spectrum":
        argv = argv + ["--path", write_octant(tmp_path, magnitude=1e300)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: field too strong for float64")
    assert len(err.splitlines()) == 1


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
