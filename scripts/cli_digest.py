#!/usr/bin/env python3
"""Print one SHA-256 per CLI output, for byte-identity checks across commits.

Each command runs in-process in a fresh scratch directory, with relative
output paths, so the manifests are comparable. Every output file, the
captured standard output and any standard error are hashed after dropping
the manifest's "wall_time_s" line, the one field that varies between reruns.
Run it at two commits and compare: equal output means equal bytes.

    PYTHONPATH=src python scripts/cli_digest.py
"""

import contextlib
import hashlib
import io
import os
import tempfile

from incewave.cli import main

README = [
    "spectrum --parity even --n 15 --a 12 --tier extended --out spec.json",
    "wavefunction --parity even --n 15 --a 12 --eta 718.09 --xi-min -6.2832 --xi-max 6.2832"
    " --points 1024 --with-prefactor --out wave.csv --strengths-out strengths.csv",
    "physics --photon-ev 1.563 --plasma-ev 1.0 --intensity-wcm2 1e8",
    "scan --parity even --n-min 1 --n-max 15 --a 0.5 1 12 --out scan.csv --format csv",
    "verify --parity even --n 15 --a 12 --tier extended",
]
SPECTRA = [
    f"spectrum --parity {parity} --n {n} --a {a} --tier extended --format {fmt} --out spec.{fmt}"
    for parity in ("even", "odd") for n in (15, 40, 100) for a in ("1e-6", "0.5", "12", "1e100")
    for fmt in ("json", "csv")
]
OTHERS = [
    "wavefunction --parity odd --n 40 --a 0.5 --eta 1000 --eta-tol 1e9 --tier extended"
    " --points 300 --format json --out wave.json --strengths-out strengths.json",
    "wavefunction --parity even --n 30 --a 12 --eta 0 --eta-tol 1e9 --points 256",
    "scan --parity odd --n-min 0 --n-max 12 --a 0.5 12 --tier extended --format json",
    "scan --parity odd --n-min 0 --n-max 12 --a 0.5 12 --format csv",
    "verify --parity odd --n 3 --a 1",
    *(f"wavefunction --parity odd --n 15 --a 0.5 --eta 100 --eta-tol 1e9 --tier extended"
      f" --points 64 --format {fmt} --strengths-out strengths.{fmt}" for fmt in ("csv", "json")),
]
# wavefunction picks one label: a singleton, both members of the 718.09 pair,
# the largest dimensions, the top of the a range, an eta midway between two
# labels (the extended midpoint of labels 14 and 15) and a selector failure
WAVES = [
    f"wavefunction {case} --tier {tier} --points 200"
    for tier in ("double", "extended") for case in (
        "--parity even --n 15 --a 12 --eta 355.49 --format json --out wave.json"
        " --strengths-out strengths.json",
        "--parity even --n 15 --a 12 --eta 718.0928584868 --out wave.csv",
        "--parity even --n 15 --a 12 --eta 718.0928584847 --out wave.csv",
        "--parity even --n 100 --a 12 --eta 10000 --eta-tol 1e9 --out wave.csv",
        "--parity odd --n 100 --a 0.5 --eta 5000 --eta-tol 1e9 --format json --out wave.json",
        "--parity odd --n 15 --a 1e100 --eta 0 --eta-tol 1e300 --out wave.csv",
        "--parity even --n 15 --a 12 --eta 347.27497850607585 --eta-tol 9 --out wave.csv",
        "--parity even --n 15 --a 12 --eta 100 --eta-tol 1e-3 --out wave.csv",
    )
]

# each cluster size the vector stage stacks: one cluster of 3 (even n=120), of
# 4 (odd n=150) and of 5 (even n=200) among pairs; and the --eta-tol failure
# where the full vector stage raises (at even n=40, a=100)
SIZES = [
    command
    for parity, n, a in (("even", 120, "1e-6"), ("odd", 150, "1e-9"), ("even", 200, "1e-9"))
    for command in (
        *(f"spectrum --parity {parity} --n {n} --a {a} --tier {tier} --format csv --out spec.csv"
          for tier in ("double", "extended")),
        f"verify --parity {parity} --n {n} --a {a}",
    )
] + ["wavefunction --parity even --n 40 --a 100 --eta 1e6 --eta-tol 1 --out wave.csv"]

# the exact oracle at dims 2 to 7: both parities, n = 1..3, a from 0 (no
# oracle) to the oracle_delta failures at a >= 1e5, which exit 1
ORACLE = [
    f"verify --parity {parity} --n {n} --a {a}"
    for parity in ("even", "odd") for n in (1, 2, 3)
    for a in ("0", "1e-12", "1e-3", "1", "1e5", "1e7")
]


def _digest(data: bytes) -> str:
    kept = [line for line in data.splitlines(keepends=True) if b'"wall_time_s":' not in line]
    return hashlib.sha256(b"".join(kept)).hexdigest()


def run(command: str, scratch: str) -> list[str]:
    os.chdir(scratch)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(command.split())
        except Exception as exc:  # an uncaught error is an outcome to compare too
            code = f"raises {type(exc).__name__}: {exc}"
    lines = [f"{_digest(out.getvalue().encode())}  exit {code} stdout  {command}"]
    if err.getvalue():
        lines.append(f"{_digest(err.getvalue().encode())}  stderr  {command}")
    for name in sorted(os.listdir(scratch)):
        with open(name, "rb") as fh:
            lines.append(f"{_digest(fh.read())}  {name}  {command}")
    return lines


if __name__ == "__main__":
    home = os.getcwd()
    try:
        for command in README + SPECTRA + OTHERS + WAVES + SIZES + ORACLE:
            with tempfile.TemporaryDirectory() as scratch:
                print("\n".join(run(command, scratch)))
    finally:
        os.chdir(home)
