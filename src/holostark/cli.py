"""Command-line interface with reproducible structured output.

Subcommands: materials, spectrum, holonomy, verify-adiabatic, synth.  Every
run emits one JSON record (stdout, optionally a file) echoing the command,
input digests, seed and all numeric results; identical inputs and seed
reproduce all numeric fields bit-for-bit (floats are serialized in shortest
round-trip form; the timestamp is the only field that varies).

Exit codes: 0 success, 2 invalid input, 3 non-convergence.
"""

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .dynamics import Drive, adiabatic_fidelity
from .connection import gap_norms
from .errors import HolostarkError, InvalidInput, is_number_tree, load_json
from .holonomy import (eigenphases, half_spin_band, load_path, path_to_dict,
                       wilson_loop)
from .stark import (builtin_materials, d_components, d_vector, eigen_split,
                    feasibility_report, load_material_table, material_lookup)
from .synth import LoopModel, synthesize

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_CONVERGED = 3

MATERIALS_ENV = "STARK_MATERIALS_PATH"


def _complex_matrix(m):
    """Nested [re, im] pairs for JSON output."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _parse_complex_matrix(desc):
    """The 'matrix' of a target description: rows of [re, im] number pairs."""
    rows = desc.get("matrix") if isinstance(desc, dict) else None
    try:
        pairs = np.array(rows, dtype=float) if is_number_tree(rows) else None
    except ValueError:  # ragged rows
        pairs = None
    if pairs is None or pairs.ndim != 3 or pairs.shape[-1] != 2:
        raise InvalidInput("target needs a 'matrix' of rows of [re, im] number pairs")
    return pairs.view(complex)[..., 0]  # (re, im) pairs as complex128


def _file_record(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    return {"sha256": hashlib.sha256(raw).hexdigest(),
            "raw": raw.decode("utf-8")}


def _record(args, results, seed=None, inputs=None):
    return {
        "command": [args._prog] + args._argv,
        "tool_version": __version__,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "inputs": inputs or {},
        "results": results,
    }


def _emit(record, out=None):
    text = json.dumps(record, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _material_table(args):
    table = {}
    env_path = os.environ.get(MATERIALS_ENV)
    if env_path:
        table.update(load_material_table(env_path))
    if getattr(args, "materials", None):
        table.update(load_material_table(args.materials))
    return table


def _material(args):
    m = material_lookup(args.material, args.dopant, table=_material_table(args))
    if getattr(args, "spherical", False):
        m = m.spherical()
    return m


def _material_dict(m):
    return {"material": m.name, "dopant": m.dopant, "alpha": m.alpha,
            "beta": m.beta, "delta": m.delta, "chi": m.chi,
            "rbar_angstrom": m.rbar_angstrom, "ionization_meV": m.ionization_meV}


def _feasibility_dict(rep):
    return {"gap_min_meV": rep.gap_min_meV, "gap_max_meV": rep.gap_max_meV,
            "drive_quantum_meV": rep.drive_quantum_meV,
            "adiabaticity_ratio": rep.adiabaticity_ratio,
            "ionization_margin_meV": rep.ionization_margin_meV,
            "flags": rep.flags}


def cmd_materials(args):
    table = _material_table(args)
    entries = {(m.name, m.dopant): m for m in builtin_materials()}
    entries.update(table)
    listing = [_material_dict(entries[k]) for k in sorted(entries)]
    _emit(_record(args, {"materials": listing}), getattr(args, "out", None))
    return EXIT_OK


def cmd_spectrum(args):
    m = _material(args)
    try:
        e = np.array([float(x) for x in args.field.split(",")])
    except ValueError:
        e = None
    if e is None or e.shape != (3,) or not np.all(np.isfinite(e)):
        raise InvalidInput(f"--field needs three finite comma-separated components, "
                           f"got {args.field}")
    gap_norms(d_components(e, m, args.regime))  # zero gap or overflow: exit 2
    d = d_vector(e, m, args.regime)
    eps_minus, eps_plus, gap = eigen_split(d)
    with np.errstate(over="ignore"):  # feasibility_report rejects an infinite |E|
        e_mag = np.linalg.norm(e)
    rep = feasibility_report(e_mag, m, args.rotation_freq, regime=args.regime)
    results = {
        "material": _material_dict(m),
        "regime": args.regime,
        "field_V_per_m": e.tolist(),
        "d0_meV": d.d0,
        "d_meV": d.d.tolist(),
        "eps_minus_meV": eps_minus,
        "eps_plus_meV": eps_plus,
        "gap_meV": gap,
        "feasibility": _feasibility_dict(rep),
    }
    _emit(_record(args, results), getattr(args, "out", None))
    return EXIT_OK


def _holonomy_results(hol):
    # blocks of an under-converged run are unitary only to the integration
    # tolerance; report their phases anyway (exit code flags non-convergence)
    report_tol = 1e-3
    return {
        "full": _complex_matrix(hol.full),
        "block_plus": _complex_matrix(hol.block_plus),
        "block_minus": _complex_matrix(hol.block_minus),
        "eigenphases_full": eigenphases(hol.full, tol=report_tol).tolist(),
        "eigenphases_plus": eigenphases(hol.block_plus, tol=report_tol).tolist(),
        "eigenphases_minus": eigenphases(hol.block_minus, tol=report_tol).tolist(),
        "unitarity_defect": hol.unitarity_defect,
        "steps": hol.steps,
    }


def _check_tolerance(flag, tol):
    if not (np.isfinite(tol) and tol >= 0):
        raise InvalidInput(f"{flag} must be a finite number >= 0, got {tol}")


def cmd_holonomy(args):
    _check_tolerance("--defect-tol", args.defect_tol)
    m = _material(args)
    path = load_path(args.path)
    halved = wilson_loop(path, args.regime, m, steps=max(args.steps // 2, 100))
    hol = wilson_loop(path, args.regime, m, steps=args.steps)
    doubled = wilson_loop(path, args.regime, m, steps=2 * args.steps)
    defect_coarse = float(np.abs(halved.full - hol.full).max())
    defect = float(np.abs(hol.full - doubled.full).max())
    ratio = defect_coarse / defect if defect > 0 else float("inf")
    converged = defect <= args.defect_tol
    results = _holonomy_results(hol)
    results.update({
        "selected_band": args.band,
        "selected_block": _complex_matrix(hol.block(args.band)),
        "convergence_defect": defect,
        "convergence_defect_coarse": defect_coarse,
        "convergence_ratio": ratio,
        "converged": converged,
        "path": path_to_dict(path),
    })
    record = _record(args, results, inputs={"path_file": _file_record(args.path)})
    _emit(record, args.out)
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def cmd_verify_adiabatic(args):
    m = _material(args)
    path = load_path(args.path)
    drive = Drive(path=path, total_time=args.total_time, time_steps=args.time_steps)
    band = args.band or half_spin_band(m)
    out = adiabatic_fidelity(drive, args.regime, m, band=band,
                             wl_steps=args.wl_steps)
    results = {
        "band": band,
        "fidelity": out.fidelity,
        "band_leakage": out.band_leakage,
        "stripped_block": _complex_matrix(out.block),
        "wilson_block": _complex_matrix(out.reference_block),
        "total_time_s": args.total_time,
        "time_steps": out.time_steps,
        "path": path_to_dict(path),
    }
    record = _record(args, results, inputs={"path_file": _file_record(args.path)})
    _emit(record, args.out)
    return EXIT_OK


def _synth_model(args):
    if args.model == "spherical_quadratic":
        return LoopModel.spherical_quadratic()
    if args.model == "linear":
        return LoopModel.linear()
    m = _material(args)
    return LoopModel.numeric_quadratic(m, args.magnitude)


def cmd_synth(args):
    _check_tolerance("--tol", args.tol)
    target = _parse_complex_matrix(load_json(args.target))
    result = synthesize(target, model=_synth_model(args),
                        max_loops=args.max_loops, tol=args.tol, seed=args.seed)
    results = {
        "loops": [list(lp) for lp in result.loops],
        "achieved": _complex_matrix(result.achieved),
        "fidelity": result.fidelity,
        "evaluations": result.evaluations,
        "converged": result.converged,
        "model": args.model,
        "max_loops": args.max_loops,
        "tol": args.tol,
    }
    record = _record(args, results, seed=args.seed,
                     inputs={"target_file": _file_record(args.target)})
    _emit(record, args.out)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _add_material_args(p):
    p.add_argument("--material", default="Ge")
    p.add_argument("--dopant", default="B")
    p.add_argument("--materials", help="user material table (JSON), merged over "
                   f"the built-ins; ${MATERIALS_ENV} is read as well")
    p.add_argument("--spherical", action="store_true",
                   help="impose beta = delta/sqrt(3) (idealized isotropic model)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="holostark",
        description="Holonomies of acceptor-bound holes under rotated electric fields")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("materials", help="list material constants")
    psub = p.add_subparsers(dest="action", required=True)
    plist = psub.add_parser("list")
    plist.add_argument("--materials")
    plist.add_argument("--out")
    plist.set_defaults(func=cmd_materials)

    p = sub.add_parser("spectrum", help="d-vector, levels, gap, feasibility")
    _add_material_args(p)
    p.add_argument("--regime", choices=["linear", "quadratic"], required=True)
    p.add_argument("--field", required=True, help='"Ex,Ey,Ez" in V/m')
    p.add_argument("--rotation-freq", type=float, default=2020.0,
                   help="field rotation frequency in Hz for the feasibility block")
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("holonomy", help="Wilson loop over a path file")
    _add_material_args(p)
    p.add_argument("--path", required=True, help="path description (JSON)")
    p.add_argument("--regime", choices=["linear", "quadratic"], required=True)
    p.add_argument("--band", choices=["plus", "minus"], default="plus")
    p.add_argument("--steps", type=int, default=20000)
    p.add_argument("--defect-tol", type=float, default=1e-6,
                   help="exit 3 when the step-doubling defect stays above this")
    p.add_argument("--out")
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("verify-adiabatic",
                       help="Schrodinger propagation vs Wilson loop")
    _add_material_args(p)
    p.add_argument("--path", required=True)
    p.add_argument("--regime", choices=["linear", "quadratic"], required=True)
    p.add_argument("--band", choices=["plus", "minus"])
    p.add_argument("--T", dest="total_time", type=float, required=True,
                   help="drive duration in seconds")
    p.add_argument("--time-steps", type=int, default=20000)
    p.add_argument("--wl-steps", type=int, default=20000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_adiabatic)

    p = sub.add_parser("synth", help="loop-sequence synthesis of an SU(2) gate")
    _add_material_args(p)
    p.add_argument("--target", required=True,
                   help="JSON file with 2x2 entries as [re, im] pairs")
    p.add_argument("--model", choices=["spherical_quadratic", "linear",
                                       "numeric_quadratic"],
                   default="spherical_quadratic")
    p.add_argument("--magnitude", type=float, default=1e6,
                   help="|E| in V/m for the numeric model")
    p.add_argument("--max-loops", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    args._argv = argv
    args._prog = parser.prog
    try:
        return args.func(args)
    except (HolostarkError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:  # e.g. a step count too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
