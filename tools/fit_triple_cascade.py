"""Rebuild the Chebyshev table of the triple-cascade 1 - MGF.

``ris_secrecy.channels.one_minus_mgf_triple_cascade`` evaluates
q(s) = 1 - E[exp(-s g)] of the triple-cascade gain g on [e^-7, e^23] from a
Chebyshev expansion of ln q in u = ln s, one per piece of width 2. This script
recomputes those coefficients from an mpmath reference of the conditioning
integral over the Rayleigh factor y,

    q(s) = int_0^inf y exp(-y^2/2) (1 - M_dbl(s y)) dy,

with M_dbl the double-Rayleigh MGF of ``tests/reference.py``, and prints the
table in the form ``channels.py`` holds it. With ``--check`` it compares
instead, and exits 1 when a coefficient differs from the committed one by more
than 1e-14 (a coefficient moves ln q, and so q relatively, by at most its own
change).
The package does not import this script.

    PYTHONPATH=src python tools/fit_triple_cascade.py           # print the table
    PYTHONPATH=src python tools/fit_triple_cascade.py --check   # compare it

It takes about a minute: one adaptive mpmath quadrature per Chebyshev node.
"""
import argparse
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

from ris_secrecy import channels

# the test suite's independent references, which import nothing from the package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference import mgf_double_mp  # noqa: E402

DPS = 30
# Chebyshev nodes per piece. The coefficients fall by about 10x per term, and
# a kept term k <= 19 picks up the aliases of terms 2*NODES - k >= 29, below 1e-20.
NODES = 24
# Trailing coefficients below this are dropped: each moves ln q, the relative
# error of q, by at most its own size.
TRIM = 1e-17
CHECK_TOL = 1e-14


def log_one_minus_mgf_triple(u):
    """ln q(e^u) from the conditioning integral, to about DPS digits."""
    s = mp.exp(u)
    with mp.workdps(DPS + max(0, int(-u / mp.log(10)))):
        # panels graded towards y = 0 where s*y runs from 0 through 1, and
        # whole ones over the Gaussian factor, which is below 1e-36 past 13
        cuts = [mp.mpf(0)]
        y = 1 / (2 * s)
        while y < 1:
            cuts.append(y)
            y *= 8
        cuts += [1, 2, 3, 4, 6, 8, 10, 13]
        # 1 - M_dbl at this precision, which exceeds the digits that cancel:
        # about -log10(s y) for small s y
        value = mp.quad(lambda y: y * mp.exp(-y * y / 2) * (1 - mgf_double_mp(s * y, mp.mp.dps)), cuts)
        return mp.log(value)


def fit():
    """The coefficient rows, one per piece, trailing terms below TRIM dropped."""
    lo, hi = channels._TRIPLE_LOG_S
    width = channels._TRIPLE_PIECE
    rows = []
    with mp.workdps(DPS):
        angles = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
        for piece in range(round((hi - lo) / width)):
            mid = lo + width * (piece + mp.mpf(1) / 2)
            values = [log_one_minus_mgf_triple(mid + width / 2 * mp.cos(a)) for a in angles]
            # discrete cosine transform at the first-kind Chebyshev points
            coeffs = [2 * mp.fsum(v * mp.cos(k * a) for v, a in zip(values, angles)) / NODES
                      for k in range(NODES)]
            coeffs[0] /= 2
            row = [float(c) for c in coeffs]
            while abs(row[-1]) < TRIM:
                row.pop()
            rows.append(tuple(row))
    return rows


def _padded(rows, width):
    return np.array([tuple(row) + (0.0,) * (width - len(row)) for row in rows])


def render(rows) -> str:
    """The table as the Python literal that channels.py holds."""
    lines = ["_TRIPLE_CHEB = ("]
    for row in rows:
        items = [repr(c) + "," for c in row]
        lines.append("    (")
        for start in range(0, len(items), 4):
            lines.append("        " + " ".join(items[start:start + 4]))
        lines.append("    ),")
    lines.append(")")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with the committed table and exit 1 past {CHECK_TOL}")
    args = parser.parse_args(argv)
    rows = fit()
    if not args.check:
        print(render(rows))
        return 0
    committed = channels._TRIPLE_CHEB
    if len(rows) != len(committed):
        print(f"the table has {len(committed)} pieces, the fit {len(rows)}", file=sys.stderr)
        return 1
    width = max(map(len, rows + list(committed)))
    new, old = _padded(rows, width), _padded(committed, width)
    worst = float(np.max(np.abs(new - old)))
    print(f"largest coefficient difference {worst:.3g} (tolerance {CHECK_TOL:g})")
    return 0 if worst <= CHECK_TOL else 1


if __name__ == "__main__":
    sys.exit(main())
