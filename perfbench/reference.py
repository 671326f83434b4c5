"""mpmath references for the benchmark's inputs, computed in a child process.

Run as ``python3 perfbench/reference.py WORKLOAD SEED OUT.json``.  It
regenerates the inputs from the seed and writes one entry per input.  It runs
in its own process so that mpmath's import and caches stay out of the
benchmark process's peak RSS.  mpmath is the benchmark's oracle only; the
package itself never imports it.

mpmath 1.3.0 at 15 digits matches itself at 30 digits to ~5e-16 relative over
the zeta region map, far inside the 1e-6 verdict rule.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath
from mpmath import mp

mp.dps = 15


def _pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def case_reference(k: complex, r: float, theta: float) -> dict:
    """The closed form of the identity plus the two Hurwitz values behind it.

    value = 2^(k-1) k pi^k i^(k+1) (zeta(1-k, q1) - zeta(1-k, q3)),
    q1,3 = 1/4, 3/4 - i log(a) / (2 pi), log a = ln r + i theta.
    """
    km = mpmath.mpc(k.real, k.imag)
    log_a = mpmath.mpc(mpmath.log(r), theta)
    shift = -1j * log_a / (2 * mpmath.pi)
    q1 = 0.25 + shift
    q3 = 0.75 + shift
    if km == 0:
        return {"value": [0.0, 0.0], "hurwitz": []}
    s = 1 - km
    z1 = mpmath.zeta(s, q1)
    z3 = mpmath.zeta(s, q3)
    pref = (mpmath.mpf(2) ** (km - 1) * km * mpmath.pi ** km
            * mpmath.expj(mpmath.pi / 2 * (km + 1)))
    return {
        "value": _pair(pref * (z1 - z3)),
        "hurwitz": [[_pair(q1), _pair(z1)], [_pair(q3), _pair(z3)]],
    }


def zeta_reference(derivative: int, s: complex, q: complex) -> list[float]:
    return _pair(mpmath.zeta(mpmath.mpc(s.real, s.imag),
                             mpmath.mpc(q.real, q.imag), derivative))


def references(workload: str, items: list) -> list:
    if workload == "zeta":
        return [zeta_reference(p.derivative, p.s, p.q) for p in items]
    return [case_reference(complex(k), a.r, a.theta) for k, a in items]


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    refs = references(workload, workloads.inputs(workload, seed))
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps(refs), encoding="utf-8")
    tmp.replace(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
