"""Derive the inverse normal CDF's coefficients and freeze its oracle table.

``insidermc.special`` evaluates Phi^{-1}(u) in three rational pieces, after
Wichura ("Algorithm AS 241: The percentage points of the normal
distribution", Appl. Stat. 37, 1988):

* central, U_LO <= u <= U_HI (0.05 to 0.95): x = 2q + q S(w),
  q = u - 0.5, w = W_EDGE - q^2, S = P/Q;
* first tail: |x| = r + h(r - R_LO), r = sqrt(-log min(u, 1 - u)), h = P/Q;
* second tail, r > R_EDGE: |x| = r + h(r - R_EDGE).

Each P/Q has a monic denominator.  The dominant terms 2q and r are exact in
the core, so the rational part adds only its own small rounding.  This
script fits each P/Q at 50 digits by iterated linearized least squares
(Loeb's iteration: solve for P - f Q weighted by the previous 1/Q, with
Lawson's reweighting toward the minimax error), rounds the coefficients to
doubles, and checks the rounded pieces against the 50-digit quantile.  It
also writes a dense oracle table of (u, Phi^{-1}(u)) for the tests.

Run from the repository root (mpmath is the only requirement)::

    python tools/fit_inverse_normal.py           # rewrite both files
    python tools/fit_inverse_normal.py --check   # recompute; exit 1 on any difference
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parents[1]
COEFFICIENTS = ROOT / "src" / "insidermc" / "_inverse_normal_coefficients.py"
ORACLE = ROOT / "tests" / "inverse_normal_oracle.txt"

mp.mp.dps = 50

# The pieces.  U_HI - 0.5 is the central half-width; 1 - U_HI is exact, so
# u and 1 - u always fall in the same piece.  R_EDGE lies past the stream
# uniforms' floor 2^-54 (r = 6.118) and past 1 - u >= 2^-53, so only the
# scalar contract's deep lower tail reaches the second tail piece.  R_HI
# covers the smallest subnormal, 5e-324 (r = 27.28).
U_HI = 0.95
U_LO = 1.0 - U_HI
Q_EDGE = 0.45
W_EDGE = Q_EDGE * Q_EDGE
R_LO = 1.7
R_EDGE = 6.25
R_HI = 27.5
# (numerator degree, denominator degree) of each piece.
DEGREES = {"CENTRAL": (8, 8), "TAIL": (8, 8), "FAR_TAIL": (8, 8)}
NODES = 140
# Every piece, its coefficients rounded to doubles, must stay within this
# relative error of the quantile, about half an ulp; most of it is that
# rounding.
FIT_BOUND = 1e-16


def quantile(u) -> mp.mpf:
    """Phi^{-1}(u) at 50 digits, by Newton's method on log Phi(x) - log p,
    p = min(u, 1 - u), the sign taken from u - 0.5."""
    u = mp.mpf(u)
    with mp.workdps(90):
        p = min(u, 1 - u)
        if p == mp.mpf(0.5):
            return mp.mpf(0)
        log_p = mp.log(p)
        x = -mp.sqrt(-2 * log_p) if p < 0.3 else (p - mp.mpf(0.5)) * mp.sqrt(2 * mp.pi)
        for _ in range(200):
            c = mp.ncdf(x)
            step = (mp.log(c) - log_p) * c / mp.npdf(x)
            x -= step
            if abs(step) <= mp.mpf(10) ** -65 * abs(x):
                break
        else:
            raise RuntimeError(f"quantile did not converge at u = {u}")
        x = x if u < 0.5 else -x
    return +x


def _horner(coefficients, t):
    acc = mp.mpf(0)
    for c in reversed(coefficients):
        acc = acc * t + c
    return acc


def _chebyshev_nodes(a, b, n):
    a, b = mp.mpf(a), mp.mpf(b)
    return [(a + b) / 2 + (b - a) / 2 * mp.cos(mp.pi * (2 * k + 1) / (2 * n)) for k in range(n)]


def fit_rational(ts, fs, ws, degrees, iterations=40):
    """P/Q ~ f on the nodes ts, minimizing max |w (P/Q - f)|; returns
    (P, Q) ascending, Q monic."""
    n, m = degrees
    size = len(ts)
    previous_q = [mp.mpf(1)] * size
    lawson = [mp.mpf(1)] * size
    best = None
    for iteration in range(iterations):
        a = mp.matrix(size, n + m + 1)
        b = mp.matrix(size, 1)
        for i, (t, f, w) in enumerate(zip(ts, fs, ws)):
            scale = w * mp.sqrt(lawson[i]) / previous_q[i]
            for j in range(n + 1):
                a[i, j] = scale * t**j
            for j in range(1, m + 1):
                a[i, n + j] = -scale * f * t**j
            b[i] = scale * f
        solution, _ = mp.qr_solve(a, b)
        p = [solution[j] for j in range(n + 1)]
        q = [mp.mpf(1)] + [solution[n + j] for j in range(1, m + 1)]
        errors = [w * (_horner(p, t) / _horner(q, t) - f) for t, f, w in zip(ts, fs, ws)]
        worst = max(abs(e) for e in errors)
        if best is None or worst < best[0]:
            best = (worst, p, q)
        previous_q = [_horner(q, t) for t in ts]
        if iteration >= 5:
            total = sum(lw * abs(e) for lw, e in zip(lawson, errors))
            lawson = [lw * abs(e) * size / total for lw, e in zip(lawson, errors)]
    _, p, q = best
    return [float(c / q[-1]) for c in p], [float(c / q[-1]) for c in q]


def _ratio(p, q, t):
    return _horner([mp.mpf(c) for c in p], t) / _horner([mp.mpf(c) for c in q], t)


def _central_target(w):
    """S(w) with x = 2q + q S, q = sqrt(W_EDGE - w), and the weight that
    makes S's error x's relative error."""
    q = mp.sqrt(W_EDGE - w)
    x = -quantile(mp.mpf(0.5) - q)
    s = x / q - 2
    return s, 1 / (2 + s)


def _tail_target(r):
    """h = |x| - r at u = exp(-r^2), and the weight 1/|x|."""
    x = -quantile(mp.exp(-r * r))
    return x - r, 1 / x


def fit_pieces():
    """Each piece's (P, Q) as rounded doubles, checked against the quantile."""
    pieces = {}
    specs = {
        "CENTRAL": (0.0, W_EDGE, 0.0, _central_target, W_EDGE - 0.25),
        "TAIL": (R_LO, R_EDGE, R_LO, _tail_target, R_HI),
        "FAR_TAIL": (R_EDGE, R_HI, R_EDGE, _tail_target, R_HI),
    }
    for name, (lo, hi, shift, target, reach) in specs.items():
        nodes = _chebyshev_nodes(lo, hi, NODES)
        values = [target(t) for t in nodes]
        # The central piece is fitted in w itself; the tails in r - shift.
        ts = [t - shift for t in nodes]
        p, q = fit_rational(ts, [f for f, _ in values], [w for _, w in values], DEGREES[name])
        checks = _chebyshev_nodes(lo, hi, 2 * NODES + 1)
        worst = max(abs(w * (_ratio(p, q, t - shift) - f))
                    for t, (f, w) in zip(checks, map(target, checks)))
        if not worst <= FIT_BOUND:
            raise RuntimeError(f"{name}: rounded fit error {mp.nstr(worst, 3)} > {FIT_BOUND}")
        # The core evaluates every piece past its own range: the central
        # piece on the tails' w down to W_EDGE - 0.25, the first tail on
        # the second's r.  Its denominator must stay away from 0 there.
        span = (min(lo, reach) - shift, max(hi, reach) - shift)
        grid = [mp.mpf(span[0]) + (span[1] - span[0]) * k / 4000 for k in range(4001)]
        if min(_horner([mp.mpf(c) for c in q], t) for t in grid) <= 0:
            raise RuntimeError(f"{name}: denominator reaches 0 on {span}")
        pieces[name] = (p, q)
    return pieces


def _split_ln2():
    """ln 2 = LN2_HI + LN2_LO with LN2_HI of 32 bits, so k * LN2_HI is
    exact for every exponent k of a double."""
    ln2 = mp.log(2)
    hi = float(mp.floor(ln2 * 2**32) / 2**32)
    return hi, float(ln2 - hi)


def render_coefficients(pieces) -> str:
    ln2_hi, ln2_lo = _split_ln2()
    lines = [
        '"""Constants of ``special``\'s inverse normal CDF.',
        "",
        "Written by tools/fit_inverse_normal.py, which documents each piece; do not",
        "edit by hand.  Coefficients are ascending, and each denominator is monic.",
        '"""',
        "",
        f"U_LO = {U_LO!r}",
        f"U_HI = {U_HI!r}",
        f"W_EDGE = {W_EDGE!r}",
        f"R_LO = {R_LO!r}",
        f"R_EDGE = {R_EDGE!r}",
        f"LN2_HI = {ln2_hi!r}",
        f"LN2_LO = {ln2_lo!r}",
        f"MINUS_LOG_THREE_QUARTERS = {float(-mp.log(mp.mpf(0.75)))!r}",
    ]
    for name, (p, q) in pieces.items():
        for part, coefficients in (("P", p), ("Q", q)):
            lines.append(f"{name}_{part} = (")
            lines += [f"    {c!r}," for c in coefficients]
            lines.append(")")
    return "\n".join(lines) + "\n"


def _doubles_around(u: float, count: int) -> list[float]:
    below, above = [u], [u]
    for _ in range(count):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 1.0))
    return below[:0:-1] + above


def oracle_points() -> list[tuple[str, float]]:
    """The table's (label, u): central points, both tails down to 1e-300,
    the +-64 doubles around each piece edge, and 0.5 with its neighbours."""
    points = [("central", U_LO + (U_HI - U_LO) * (k + 0.5) / 800) for k in range(800)]
    points += [("lower", 10.0 ** (-300 + (300 + math.log10(U_LO)) * k / 700)) for k in range(700)]
    # 1 - p is rounded, so the reference is taken at the double 1 - (1 - p).
    points += [("upper", 1.0 - 2.0 ** (-53 + (53 + math.log2(U_LO)) * k / 400)) for k in range(400)]
    points += [("edge-low", u) for u in _doubles_around(U_LO, 64)]
    points += [("edge-high", u) for u in _doubles_around(U_HI, 64)]
    far_edge = float(mp.exp(-mp.mpf(R_EDGE) ** 2))
    points += [("edge-far", u) for u in _doubles_around(far_edge, 64)]
    points += [("half", u) for u in _doubles_around(0.5, 16)]
    return points


def render_oracle() -> str:
    lines = [
        "# Phi^{-1}(u) at 50 digits (tools/fit_inverse_normal.py), rounded to 25",
        "# significant digits: label, u (an exact double), quantile.  Labels:",
        "# central, lower and upper tails down to 1e-300 and 1 - 2^-53, the",
        "# +-64 doubles around each piece edge (edge-low, edge-high, edge-far),",
        "# and 0.5 with its 16 neighbours on each side (half).",
    ]
    for label, u in oracle_points():
        lines.append(f"{label} {u!r} {mp.nstr(quantile(u), 25)}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="recompute both files and report any difference")
    args = parser.parse_args(argv)
    outputs = {COEFFICIENTS: render_coefficients(fit_pieces()), ORACLE: render_oracle()}
    stale = [path for path, text in outputs.items()
             if not path.exists() or path.read_text(encoding="utf-8") != text]
    if args.check:
        for path in stale:
            print(f"differs: {path.relative_to(ROOT)}", file=sys.stderr)
        return 1 if stale else 0
    for path in stale:
        path.write_text(outputs[path], encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
