"""Command-line interface with reproducible structured output.

Subcommands: materials, spectrum, holonomy, verify-adiabatic, synth.  Each
cmd_* returns (results, inputs, converged); main alone prints the one JSON
record (and writes it with --out), echoing the command, the sha256 and raw
text of the input bytes parsed, the seed and all numeric results.  Records
are strict JSON (RFC 8259): a figure without a value is null, never NaN or
Infinity.  Identical inputs and seed reproduce all numeric fields
bit-for-bit (floats in shortest round-trip form; only the timestamp varies).

Exit codes: 0 success, 2 invalid input, 3 non-convergence.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from functools import lru_cache

import numpy as np

from . import __version__
from ._linalg import scaled_norm
from .dynamics import Drive, adiabatic_fidelity
from .connection import gap_norms
from .errors import HolostarkError, InvalidInput, _ArgumentError, _parse_json, is_number_tree
from .holonomy import (DEFAULT_STEPS, MIN_STEPS, eigenphases, half_spin_band,
                       path_from_dict, path_to_dict, wilson_loop)
from .stark import (_MATERIAL_CONSTANTS, REGIMES, builtin_materials, d_components,
                    eigen_split, feasibility_report, material_lookup, material_table)
from .synth import LoopModel, synthesize

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_CONVERGED = 3

MATERIALS_ENV = "STARK_MATERIALS_PATH"

# the flag that sets each library argument an error can blame (_ArgumentError)
_FLAGS = {"rotation_freq": "--rotation-freq", "total_time": "--T", "wl_steps": "--wl-steps",
          "time_steps": "--time-steps", "magnitude": "--magnitude", "steps": "--steps",
          "max_loops": "--max-loops"}


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


def _read_input(path):
    """The parsed JSON of an input file (path, target or material table), and
    the record of the same bytes: their sha256 and raw text."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return _parse_json(path, raw), {"sha256": hashlib.sha256(raw).hexdigest(),
                                    "raw": raw.decode("utf-8")}


def _material_table(args):
    """The built-ins, overridden by $STARK_MATERIALS_PATH, then by --materials;
    each table read is echoed, in that order, in args.material_tables."""
    table = {(m.name, m.dopant): m for m in builtin_materials()}
    for source, path in ((MATERIALS_ENV, os.environ.get(MATERIALS_ENV)),
                         ("--materials", args.materials)):
        if path:
            records, echo = _read_input(path)
            table.update(material_table(records, path))
            args.material_tables.append({"source": source, **echo})
    return table


def _material(args):
    m = material_lookup(args.material, args.dopant, table=_material_table(args))
    return m.spherical() if args.spherical else m


def _material_dict(m):
    return {"material": m.name, "dopant": m.dopant,
            **{k: getattr(m, k) for k in _MATERIAL_CONSTANTS}}


def cmd_materials(args):
    table = _material_table(args)
    return {"materials": [_material_dict(table[k]) for k in sorted(table)]}, {}, True


def cmd_spectrum(args):
    m = _material(args)
    try:
        e = np.array([float(x) for x in args.field.split(",")])
    except ValueError:
        e = None
    if e is None or e.shape != (3,) or not np.all(np.isfinite(e)):
        raise InvalidInput(f"--field needs three finite comma-separated components, "
                           f"got {args.field}")
    d = d_components(e, m, args.regime)
    gap_norms(d)  # zero gap or overflow: exit 2
    eps_minus, eps_plus, gap = eigen_split(d)
    # feasibility_report rejects an |E| that overflows
    rep = feasibility_report(scaled_norm(e), m, args.rotation_freq, regime=args.regime)
    results = {
        "material": _material_dict(m),
        "regime": args.regime,
        "field_V_per_m": e.tolist(),
        "d0_meV": float(d[0]),
        "d_meV": d[1:].tolist(),
        "eps_minus_meV": eps_minus,
        "eps_plus_meV": eps_plus,
        "gap_meV": gap,
        "feasibility": {**dataclasses.asdict(rep), "flags": rep.flags},
    }
    return results, {}, True


def _check_tolerance(flag, tol):
    if not (np.isfinite(tol) and tol >= 0):
        raise InvalidInput(f"{flag} must be a finite number >= 0, got {tol}")


def _max_difference(a, b):
    return float(np.abs(a.full - b.full).max())


def cmd_holonomy(args):
    """Wilson loop with step-doubling convergence diagnostics.

    One refinement ladder: runs at n/4, n/2 and n, where n is --steps raised
    to 4 MIN_STEPS and to 4 steps per segment of a sampled path, so the
    three runs always take strictly more steps in turn.  The defect
    max|U_{n/2} - U_n| is about 3x the error of the reported U_n for a
    second-order scheme, and the run converges when it is within
    --defect-tol.  The coarse defect is max|U_{n/4} - U_{n/2}|, and the
    ratio defect_coarse / defect is null only when the defect is 0.
    """
    _check_tolerance("--defect-tol", args.defect_tol)
    m = _material(args)
    desc, path_file = _read_input(args.path)
    path = path_from_dict(desc)
    if args.steps < MIN_STEPS:
        raise _ArgumentError("steps", f"steps must be >= {MIN_STEPS}")
    segments = 0 if path.samples is None else len(path.samples) - 1
    n = max(args.steps, 4 * MIN_STEPS, 4 * segments)
    # the n run first, so that a step count too large to allocate fails at once
    hol = wilson_loop(path, args.regime, m, steps=n)
    mid = wilson_loop(path, args.regime, m, steps=n // 2)
    coarse = wilson_loop(path, args.regime, m, steps=n // 4)
    defect = _max_difference(mid, hol)
    defect_coarse = _max_difference(coarse, mid)
    ratio = defect_coarse / defect if defect > 0 else None
    converged = defect <= args.defect_tol
    # each rotor maps one band projector exactly onto the next, so the
    # blocks are unitary to roundoff at any step count: their phases are
    # reported as computed, next to the full matrix's unitarity_defect
    results = {
        "full": _complex_matrix(hol.full),
        "block_plus": _complex_matrix(hol.block_plus),
        "block_minus": _complex_matrix(hol.block_minus),
        "eigenphases_full": eigenphases(hol.full, tol=np.inf).tolist(),
        "eigenphases_plus": eigenphases(hol.block_plus, tol=np.inf).tolist(),
        "eigenphases_minus": eigenphases(hol.block_minus, tol=np.inf).tolist(),
        "unitarity_defect": hol.unitarity_defect,
        "steps": hol.steps,
        "selected_band": args.band,
        "selected_block": _complex_matrix(hol.block(args.band)),
        "convergence_defect": defect,
        "convergence_defect_coarse": defect_coarse,
        "convergence_ratio": ratio,
        "converged": converged,
        "path": path_to_dict(path),
    }
    return results, {"path_file": path_file}, converged


def cmd_verify_adiabatic(args):
    """Schrodinger propagation against the Wilson loop; the run converges
    when the infidelity 1 - F is within --fidelity-tol."""
    _check_tolerance("--fidelity-tol", args.fidelity_tol)
    m = _material(args)
    desc, path_file = _read_input(args.path)
    path = path_from_dict(desc)
    drive = Drive(path=path, total_time=args.total_time, time_steps=args.time_steps)
    band = args.band or half_spin_band(m)
    out = adiabatic_fidelity(drive, args.regime, m, band=band,
                             wl_steps=args.wl_steps)
    converged = 1.0 - out.fidelity <= args.fidelity_tol
    results = {
        "band": band,
        "fidelity": out.fidelity,
        "band_leakage": out.band_leakage,
        "stripped_block": _complex_matrix(out.block),
        "wilson_block": _complex_matrix(out.reference_block),
        "total_time_s": args.total_time,
        "time_steps": out.time_steps,
        "fidelity_tol": args.fidelity_tol,
        "converged": converged,
        "path": path_to_dict(path),
    }
    return results, {"path_file": path_file}, converged


def _synth_model(args):
    if args.model == "numeric_quadratic":  # the one model that takes a material
        return LoopModel(args.model, _material(args), args.magnitude)
    return LoopModel(args.model)


def cmd_synth(args):
    _check_tolerance("--tol", args.tol)
    if args.seed < 0:
        raise InvalidInput(f"--seed must be an integer >= 0, got {args.seed}")
    desc, target_file = _read_input(args.target)
    target = _parse_complex_matrix(desc)
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
    return results, {"target_file": target_file}, result.converged


def _add_material_args(p):
    p.add_argument("--material", default="Ge")
    p.add_argument("--dopant", default="B")
    p.add_argument("--materials", help="user material table (JSON), merged over "
                   f"the built-ins; ${MATERIALS_ENV} is read as well")
    p.add_argument("--spherical", action="store_true",
                   help="impose beta = delta/sqrt(3) (idealized isotropic model)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line is one line, exit 2
        raise InvalidInput(message)


@lru_cache(maxsize=1)
def build_parser():
    """The command-line parser, built once per process: parse_args leaves
    it unchanged, so every main call shares it."""
    parser = _Parser(
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
    p.add_argument("--regime", choices=REGIMES, required=True)
    p.add_argument("--field", required=True, help='"Ex,Ey,Ez" in V/m')
    p.add_argument("--rotation-freq", type=float, default=2020.0,
                   help="field rotation frequency in Hz for the feasibility block")
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("holonomy", help="Wilson loop over a path file")
    _add_material_args(p)
    p.add_argument("--path", required=True, help="path description (JSON)")
    p.add_argument("--regime", choices=REGIMES, required=True)
    p.add_argument("--band", choices=["plus", "minus"], default="plus")
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p.add_argument("--defect-tol", type=float, default=1e-6,
                   help="exit 3 when the step-doubling defect max|U(n/2) - "
                   "U(n)| stays above this, where n is --steps raised to "
                   f"{4 * MIN_STEPS} and to 4 steps per sampled segment")
    p.add_argument("--out")
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("verify-adiabatic",
                       help="Schrodinger propagation vs Wilson loop")
    _add_material_args(p)
    p.add_argument("--path", required=True)
    p.add_argument("--regime", choices=REGIMES, required=True)
    p.add_argument("--band", choices=["plus", "minus"])
    p.add_argument("--T", dest="total_time", type=float, required=True,
                   help="drive duration in seconds")
    p.add_argument("--time-steps", type=int, default=DEFAULT_STEPS)
    p.add_argument("--wl-steps", type=int, default=DEFAULT_STEPS)
    p.add_argument("--fidelity-tol", type=float, default=1e-3,
                   help="exit 3 when the infidelity 1 - F stays above this")
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
        args.material_tables = []
        results, inputs, converged = args.func(args)
        if args.material_tables:
            inputs["material_tables"] = args.material_tables
        record = {"command": [parser.prog] + argv, "tool_version": __version__,
                  "seed": getattr(args, "seed", None), "inputs": inputs,
                  "timestamp": datetime.now(timezone.utc).isoformat(), "results": results}
        text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        print(text)
        return EXIT_OK if converged else EXIT_NOT_CONVERGED
    except (HolostarkError, OSError, KeyError, ValueError) as exc:
        flag = _FLAGS.get(getattr(exc, "argument", None))
        print(f"error: {flag}: {exc}" if flag else f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:  # e.g. a step count too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
