"""Solve the design workload's LPs with HiGHS, as an independent oracle.

Usage: python3 oracle.py LPS.npz

The file holds c<n>, aeq<n> and aub<n> for n = 0, 1, ...: minimize c.x
subject to aeq x = 1, aub x <= 0, x >= 0. Prints a JSON list with one
[status, optimum] pair per LP. Runs in its own process so that scipy's
solvers never load into the measured process.
"""

import json
import sys

import numpy as np
from scipy.optimize import linprog


def main(path: str) -> None:
    data = np.load(path)
    answers = []
    n = 0
    while f"c{n}" in data:
        c, a_eq, a_ub = data[f"c{n}"], data[f"aeq{n}"], data[f"aub{n}"]
        res = linprog(
            c,
            A_ub=a_ub,
            b_ub=np.zeros(a_ub.shape[0]),
            A_eq=a_eq,
            b_eq=np.ones(a_eq.shape[0]),
            bounds=(0, None),
            method="highs-ds",
        )
        answers.append(["optimal" if res.status == 0 else res.message, float(res.fun) if res.status == 0 else None])
        n += 1
    json.dump(answers, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1])
