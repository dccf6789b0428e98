"""Sweep mod-p betti growth over finite covers for the closed-form families.

For each requested family the script runs the cover chain (Z/k)^n for
k = 2..kmax, prints the exact ratio tables, and writes one CSV per family
and prime. The free, torus, and product families come with proved closed
forms, so their rows double as a regression check; anything else is
descriptive only (the reports say so).

    python3 scripts/growth_sweep.py --kmax 4 --primes 2,3 --out /tmp/growth
"""

import argparse
import os
import sys

from raag.fixtures import fixture
from raag.errors import CoverSpecError
from raag.growth import check_prime, growth_experiment
from raag.models import standard_spec

FAMILIES = {
    "free2": lambda: fixture("discrete", n=2),
    "free3": lambda: fixture("discrete", n=3),
    "torus": lambda: fixture("simplex", n=1),
    "square": lambda: fixture("cycle", n=4),
    "pentagon": lambda: fixture("cycle", n=5),
    "path": lambda: fixture("path", n=4),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", choices=sorted(FAMILIES), action="append",
                    default=None, help="repeatable; default: all families")
    ap.add_argument("--kmax", type=int, default=3,
                    help="largest modulus k for the (Z/k)^n chain (default 3)")
    ap.add_argument("--primes", default="2", metavar="P,P,...",
                    help="comma-separated coefficient primes (default 2)")
    ap.add_argument("--out", default=None, metavar="DIR",
                    help="directory for the per-family CSV files")
    ns = ap.parse_args()

    if ns.kmax < 2:
        ap.error("--kmax must be at least 2")
    try:
        primes = [int(p) for p in ns.primes.split(",") if p.strip()]
    except ValueError:
        ap.error(f"--primes must be a comma-separated integer list, got {ns.primes!r}")
    for p in primes:
        try:
            check_prime(p)
        except CoverSpecError as e:
            ap.error(f"--primes: {e}")
    names = ns.family or sorted(FAMILIES)
    if ns.out:
        os.makedirs(ns.out, exist_ok=True)

    for name in names:
        L = FAMILIES[name]()
        specs = [standard_spec(L, k) for k in range(2, ns.kmax + 1)]
        for p in primes:
            series = growth_experiment(L, specs, prime=p)
            print(series.render_report())
            print()
            if ns.out:
                path = os.path.join(ns.out, f"{name}_p{p}.csv")
                with open(path, "w") as fh:
                    fh.write(series.to_csv())
                print(f"wrote {path}")
                print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
