"""Regenerate risk_reference.json, the stored MISE reference table.

Usage: python3 perfbench/build_refs.py

For every built-in density, kernel and lattice bandwidth the table stores
(B, C, error) with MISE(h, n) = B + (R(K)/h - C)/n; see refs.risk_parts.
The table takes a few minutes to build and does not import cfkde.
"""

import json
import os

import refs


def main():
    table = {"h_lattice": list(refs.H_LATTICE), "mixture": refs.MIXTURE, "cells": {}}
    for density in refs.DENSITIES:
        for kernel in refs.KERNELS:
            rows = [list(refs.risk_parts(density, kernel, h)) for h in refs.H_LATTICE]
            table["cells"]["%s/%s" % (density, kernel)] = rows
            print(density, kernel, flush=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "risk_reference.json")
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
