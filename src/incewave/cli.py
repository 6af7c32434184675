"""Command-line front end: plot-ready spectra, wavefunction traces, physics
reports, momentum scans and verification summaries.

Subcommands: spectrum | wavefunction | physics | scan | verify.
Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 I/O error.

Every JSON output is {"manifest": ..., "data": ...}; CSV outputs carry their
manifest in a sidecar file <out>.manifest.json. Reruns with equal manifests
(same command, parameters and version) produce byte-identical data sections;
the only varying manifest field is the wall time. Numbers are serialized with
17 significant digits, keys in fixed order, CSV with header row, LF endings
and UTF-8.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import __version__
from .eigensolver import Tier, eigen_decompose, eigenvalues, nearest_eigenpair
from .errors import InvalidArgumentError
from .ince_matrix import Parity, build_matrix
from .physics import derive_config, momentum_spectrum
from .polynomials import evaluate, harmonic_strengths, polynomial_from_pair
from .verify import verification_report
from .wavefunction import polynomial_with_prefactor

# Bounds of wavefunction --points, each about 200 MB at its limit: one output
# row per point, and a (points, dim) complex phase matrix.
MAX_POINTS = 2**18
MAX_PHASES = 2**22

# ----------------------------------------------------------------------
# Deterministic serialization
# ----------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    return format(float(x), ".17g")


def _fmt_floats(items, sep: str) -> str:
    """_fmt_float of each plain float, joined by sep, in one formatting call."""
    return (sep.join(["%.17g"] * len(items)) % tuple(items)).replace("nan", "NaN")


def render_json(value, indent: int = 0) -> str:
    pad = " " * indent
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        import json as _json

        return _json.dumps(value, ensure_ascii=False)
    if isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if set(map(type, items)) <= {float}:
            return "[" + _fmt_floats(items, ", ") + "]"
        if all(not isinstance(v, (list, tuple, dict, np.ndarray)) for v in items):
            return "[" + ", ".join(render_json(v) for v in items) + "]"
        inner = ",\n".join(pad + "  " + render_json(v, indent + 2) for v in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        import json as _json

        inner = ",\n".join(
            pad + "  " + _json.dumps(str(k)) + ": " + render_json(v, indent + 2)
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv_lines(header: list[str], rows) -> str:
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, (float, np.floating)):
            return _fmt_float(float(v))
        return str(v)

    lines = [",".join(header)]
    for row in rows:
        plain = set(map(type, row)) <= {float}
        lines.append(_fmt_floats(row, ",") if plain else ",".join(map(cell, row)))
    return "\n".join(lines) + "\n"


def _manifest(command: str, parameters: dict, tier: str | None,
              output_paths: list[str], wall_time_s: float) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "artifact_version": __version__,
        "tier": tier,
        "output_paths": output_paths,
        "wall_time_s": wall_time_s,
    }


def _emit(out: str | None, fmt: str, command: str, parameters: dict, tier: str | None,
          data: dict, csv_header=None, csv_rows=None, started: float = 0.0):
    paths = [out] if out else []
    wall = time.monotonic() - started
    if fmt == "json":
        doc = {"manifest": _manifest(command, parameters, tier, paths, wall), "data": data}
        _write_text(out, render_json(doc) + "\n")
    else:
        _write_text(out, _csv_lines(csv_header, csv_rows))
        if out is not None:
            mpath = out + ".manifest.json"
            manifest = _manifest(command, parameters, tier, [out, mpath], wall)
            _write_text(mpath, render_json(manifest) + "\n")
    return 0


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    started = time.monotonic()
    m = build_matrix(Parity(args.parity), args.n, args.a)
    sol = eigen_decompose(m, Tier(args.tier))
    params = {"parity": args.parity, "n": args.n, "a": args.a, "tier": args.tier,
              "format": args.format}
    data = rows = None
    if args.format == "json":
        data = {"parity": args.parity, "n": args.n, "a": args.a, "tier": args.tier,
                "eigenvalues": sol.eigenvalues.tolist(),
                "eigenvectors": sol.eigenvectors.tolist()}
    else:
        rs = sol.row_indices.tolist()
        rows = [(k, eta, r, c)
                for k, (eta, vec) in enumerate(zip(sol.eigenvalues.tolist(),
                                                   sol.eigenvectors.tolist()), start=1)
                for r, c in zip(rs, vec)]
    return _emit(args.out, args.format, "spectrum", params, args.tier, data,
                 ["k", "eta", "r", "coeff"], rows, started)


def cmd_wavefunction(args) -> int:
    started = time.monotonic()
    m = build_matrix(Parity(args.parity), args.n, args.a)
    if not 0 <= args.points <= MAX_POINTS or args.points * m.dim > MAX_PHASES:
        raise InvalidArgumentError(
            f"--points {args.points} at dimension {m.dim}: from 0 to {MAX_POINTS} points and "
            f"{MAX_PHASES} points x dimension")
    pair = nearest_eigenpair(m, args.eta, Tier(args.tier))
    k = pair.k
    if abs(pair.eigenvalue - args.eta) > args.eta_tol:
        spectrum = eigenvalues(m, Tier(args.tier))
        candidates = [float(spectrum[i]) for i in np.argsort(np.abs(spectrum - args.eta))[:3]]
        sys.stderr.write(
            f"no eigenvalue within {args.eta_tol} of {args.eta}; nearest candidates: "
            + ", ".join(_fmt_float(c) for c in candidates) + "\n"
        )
        return 2
    p = polynomial_from_pair(m, pair)
    xis = np.linspace(args.xi_min, args.xi_max, args.points)
    vals = polynomial_with_prefactor(p, xis) if args.with_prefactor else evaluate(p, xis)
    params = {"parity": args.parity, "n": args.n, "a": args.a, "tier": args.tier,
              "eta": args.eta, "eta_tol": args.eta_tol, "xi_min": args.xi_min,
              "xi_max": args.xi_max, "points": args.points,
              "with_prefactor": args.with_prefactor, "format": args.format}
    # np.hypot, not np.abs: on complex arrays np.abs can differ from it in the last bit
    rows = list(zip(*(col.tolist() for col in
                      (xis, vals.real, vals.imag, np.hypot(vals.real, vals.imag)))))
    data = None
    if args.format == "json":
        data = {
            "parity": args.parity, "n": args.n, "a": args.a, "tier": args.tier,
            "eta": pair.eigenvalue, "k": k,
            "with_prefactor": bool(args.with_prefactor),
            "columns": ["xi", "re", "im", "abs"],
            "rows": [list(r) for r in rows],
        }
    _emit(args.out, args.format, "wavefunction", params, args.tier, data,
          ["xi", "re", "im", "abs"], rows, started)
    if args.strengths_out:
        strengths = harmonic_strengths(p)
        _emit(args.strengths_out, args.format, "wavefunction-strengths", params, args.tier,
              {"eta": float(p.eta), "k": k, "strengths": [[r, s] for r, s in strengths]},
              ["r", "strength"], strengths, started)
    return 0


def cmd_physics(args) -> int:
    started = time.monotonic()
    cfg = derive_config(args.photon_ev, plasma_energy_ev=args.plasma_ev,
                        electron_density_cm3=args.density_cm3,
                        intensity_wcm2=args.intensity_wcm2)

    def pct(x, y):
        base = max(abs(x), abs(y))
        return 0.0 if base == 0 else abs(x - y) / base * 100.0

    params = {"photon_ev": args.photon_ev, "plasma_ev": args.plasma_ev,
              "density_cm3": args.density_cm3, "intensity_wcm2": args.intensity_wcm2}
    data = {
        "inputs": {
            "photon_energy_ev": cfg.photon_energy_ev,
            "plasma_energy_ev": cfg.plasma_energy_ev,
            "electron_density_cm3": cfg.electron_density_cm3,
            "intensity_wcm2": cfg.intensity_wcm2,
        },
        "derived": {
            "n_m": cfg.n_m,
            "k0_cm": cfg.k0_cm,
            "kp_cm": cfg.kp_cm,
            "lambda_p_nm": cfg.lambda_p_nm,
            "kappa_scaled": cfg.kappa_scaled,
            "mass_shift_ratio": cfg.mass_shift_ratio,
        },
        "first_principles": {"mu0": cfg.mu0, "n_ph_cm3": cfg.n_ph_cm3, "a": cfg.a},
        "handbook": {"mu0": cfg.mu0_handbook, "n_ph_cm3": cfg.n_ph_handbook_cm3,
                     "a": cfg.a_handbook},
        "discrepancy_percent": {
            "mu0": pct(cfg.mu0, cfg.mu0_handbook),
            "n_ph": pct(cfg.n_ph_cm3, cfg.n_ph_handbook_cm3),
            "a": pct(cfg.a, cfg.a_handbook),
        },
    }
    return _emit(args.out, "json", "physics", params, None, data, started=started)


def cmd_scan(args) -> int:
    started = time.monotonic()
    ns = list(range(args.n_min, args.n_max + 1))
    if not ns:
        sys.stderr.write("empty scan grid\n")
        return 2
    parity = Parity(args.parity)
    if parity is Parity.EVEN and args.n_min < 1:
        sys.stderr.write("even family needs n >= 1\n")
        return 2
    rows = []
    for n in ns:
        for a in args.a:
            sol = eigen_decompose(build_matrix(parity, n, a), Tier(args.tier))
            for rec in momentum_spectrum(sol, args.pz, args.K):
                rows.append((n, float(a), rec.k, rec.eta, rec.gap, rec.p_xi_scaled))
    params = {"parity": args.parity, "n_min": args.n_min, "n_max": args.n_max,
              "a": list(args.a), "tier": args.tier, "pz": args.pz, "K": args.K,
              "format": args.format}
    data = {
        "parity": args.parity, "tier": args.tier, "pz": args.pz, "K": args.K,
        "columns": ["n", "a", "k", "eta", "gap", "p_xi_scaled"],
        "rows": [list(r) for r in rows],
    }
    return _emit(args.out, args.format, "scan", params, args.tier, data,
                 ["n", "a", "k", "eta", "gap", "p_xi_scaled"], rows, started)


def cmd_verify(args) -> int:
    started = time.monotonic()
    report = verification_report(Parity(args.parity), args.n, args.a,
                                 Tier(args.tier),
                                 corrupt_eta_label=args.corrupt_eta)
    params = {"parity": args.parity, "n": args.n, "a": args.a, "tier": args.tier}
    _emit(args.out, "json", "verify", params, args.tier, report, started=started)
    if not report["passed"]:
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        sys.stderr.write("verification failed: " + ", ".join(failing) + "\n")
        return 1
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def finite_float(s: str) -> float:
    """argparse type of every float option: NaN and +-inf are usage errors."""
    x = float(s)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {s!r}")
    return x


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="incewave",
        description="Spectral solver for polynomial wave states in an underdense medium",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, tier=True, fmt=True):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if tier:
            p.add_argument("--tier", choices=["double", "extended"], default="double")
        if fmt:
            p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--seedless", action="store_true",
                       help="reserved; no randomness is used anywhere")

    def problem(p):
        p.add_argument("--parity", choices=["even", "odd"], required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--a", type=finite_float, required=True)

    p = sub.add_parser("spectrum", help="eigenvalues and coefficient vectors")
    problem(p)
    common(p)

    p = sub.add_parser("wavefunction", help="trace of one polynomial over a phase window")
    problem(p)
    p.add_argument("--eta", type=finite_float, required=True,
                   help="select the eigenvalue nearest this value")
    p.add_argument("--eta-tol", type=finite_float, default=0.5)
    p.add_argument("--xi-min", type=finite_float, default=-2 * np.pi)
    p.add_argument("--xi-max", type=finite_float, default=2 * np.pi)
    p.add_argument("--points", type=int, default=1024,
                   help=f"at most {MAX_POINTS}, and points x dimension at most {MAX_PHASES}")
    p.add_argument("--with-prefactor", action="store_true")
    p.add_argument("--strengths-out", default=None,
                   help="also write the harmonic strengths (r, D_r**2)")
    common(p)
    p.set_defaults(format="csv")

    p = sub.add_parser("physics", help="laboratory-to-model parameter report")
    p.add_argument("--photon-ev", type=finite_float, required=True)
    p.add_argument("--plasma-ev", type=finite_float, default=None)
    p.add_argument("--density-cm3", type=finite_float, default=None)
    p.add_argument("--intensity-wcm2", type=finite_float, default=0.0)
    common(p, tier=False, fmt=False)

    p = sub.add_parser("scan", help="eigenvalue/momentum table over an (n, a) grid")
    p.add_argument("--parity", choices=["even", "odd"], required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--a", type=finite_float, nargs="+", required=True)
    p.add_argument("--pz", type=finite_float, default=0.0, help="2 p_z / k_p")
    p.add_argument("--K", type=finite_float, default=0.0, help="2 kappa / k_p")
    common(p)

    p = sub.add_parser("verify", help="invariant suite for one configuration")
    problem(p)
    p.add_argument("--corrupt-eta", type=int, default=None, help=argparse.SUPPRESS)
    common(p, fmt=False)

    return ap


# main's parser, built on its first call and reused by every later one. The
# handler is looked up by name at each call, so a replaced cmd_* runs.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
