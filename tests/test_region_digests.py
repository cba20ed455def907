"""Bit-exact digests of the region functions and of each real base's Parry data.

Each pin is the sha256 of one family of outputs written as float.hex(), so a
change of the last bit or of the sign of a zero moves it; a refusal enters
as its exception's name and text.  The pins were taken under Python 3.11,
before the region functions were made faster.  The families:

- v_threshold on N = 1..12, k = 1..9, at angles that need folding (negative
  and above pi/2) as well as inside [0, pi/4];
- G_region at theta = 0, at 1e-13, just below gamma2 and at a few ordinary
  angles, and gamma_constants();
- Vk_squares at k = 1, 2, 3 on about sixty bases: all four components of
  every center, or the refusal;
- for about fifty real bases, RealBase's c_digits, _one, i_b, K_b and
  iK_determined, and enumerate_admissible(n) for each n up to a few hundred
  blocks.

The module imports neither numpy nor pytest, so a bare interpreter runs it:

    PYTHONPATH=src python3 tests/test_region_digests.py
"""

from __future__ import annotations

import hashlib
import math
import random

from beta_arena.complexexp import ComplexBase, G_region, Vk_squares, gamma_constants, v_threshold
from beta_arena.numeric import metallic_mean
from beta_arena.realexp import RealBase

ANGLES = (-2.5, -0.3, 0.0, 1e-13, 0.05, 0.3, math.pi / 4, 1.2, 2.0, 3.5)
BLOCK_LIMIT = 300  # enumerate lengths until the count first passes this
MAX_LENGTH = 12

PINS = {
    "v_threshold":
        "da7980e55762ae5dbc3ce836266c26bd6bad78702684c946de7deb314c709721",
    "G_region":
        "7ec7b9ed911da65810f5e4057575dd567be119027c4f9952f5523144aa6ae933",
    "gamma_constants":
        "81f2e3638d80fedaadda0b0a8bf525209cac86fb79a4d1f29cd0f164aecb6d10",
    "Vk_squares":
        "96347f44b9f7e87a0dd3d5512cf4bd5bc206764f1c48b66a5f70ff0cfe3a8cd5",
    "RealBase":
        "78ff7eea06ea85c7930c1128b8c8ef4067ce9fa03cdaa8f9c2fc4585ef25d42a",
}


def _hex(x) -> str:
    """float.hex() of a float; the repr of an int (G_region's u_hi at theta = 0)."""
    return x.hex() if isinstance(x, float) else repr(x)


def _refusal(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def v_threshold_lines():
    for t in ANGLES:
        for N in range(1, 13):
            for k in range(1, 10):
                yield f"{N} {k} {t!r} {_hex(v_threshold(N, k, t))}"


def g_region_thetas():
    g2 = gamma_constants().gamma2
    return (0.0, 1e-13, -1e-13, g2 - 2e-15, g2 - 1e-12, g2 * (1.0 - 1e-6), g2,
            0.02, 0.1, -0.1, math.pi / 2 - 0.05, 1.0)


def g_region_lines():
    for t in g_region_thetas():
        yield f"{t!r}: " + " ".join(f"{g.N} {_hex(g.v_lo)} {_hex(g.u_hi)}" for g in G_region(t))


def gamma_lines():
    g = gamma_constants()
    yield f"{_hex(g.gamma1)} {_hex(g.gamma2)} {_hex(g.delta)}"


def tile_bases():
    """(r, theta) pairs: three places inside each of the first three size-N
    regions at five angles, seeded draws and three fixed bases; some refuse
    at k = 2 or 3, and some have no square digit set."""
    out = []
    for t in (0.0, 0.002, 0.05, -0.05, math.pi / 2 + 0.03):
        for reg in G_region(t)[:3]:
            span = reg.u_hi - reg.v_lo
            out += [(reg.v_lo + f * span, t) for f in (0.1, 0.9, 0.995)]
    rng = random.Random("region-digest:tiles")
    out += [(rng.uniform(1.5, 7.4), rng.uniform(-0.3, 0.3)) for _ in range(10)]
    out += [(2.9, 0.0), (4.5, 0.05), (4.95, 0.001)]
    return out


def vk_lines():
    for r, t in tile_bases():
        for k in (1, 2, 3):
            try:
                tiles = Vk_squares(ComplexBase(r, t), k)
            except ValueError as exc:
                yield f"{r!r} {t!r} {k} {_refusal(exc)}"
                continue
            yield f"{r!r} {t!r} {k} " + " ".join(
                ",".join(map(_hex, c.components)) for c in tiles)


def real_bases():
    rng = random.Random("region-digest:real")
    out = [metallic_mean(1), metallic_mean(2), metallic_mean(3), 1.5, 1.8, 2.0, 2.5, 3.0, 4.0,
           1.0 + 1e-9, 2.0 + 1e-13, 3.0 - 1e-10, 1.3247179572447460, 1.4655712318767680, 2e7]
    out += [rng.uniform(1.01, 6.0) for _ in range(36)]
    return out


def real_lines():
    for b in real_bases():
        try:
            base = RealBase(b)
        except ValueError as exc:
            yield f"{b!r} {_refusal(exc)}"
            continue
        yield (f"{b!r} {base.c_digits} {base._one} {base.i_b} {base.K_b} "
               f"{base.iK_determined}")
        for n in range(MAX_LENGTH + 1):
            try:
                blocks = base.enumerate_admissible(n)
            except ValueError as exc:
                yield f"{n} {_refusal(exc)}"
                break
            yield f"{n} {blocks}"
            if len(blocks) > BLOCK_LIMIT:
                break


FAMILIES = {"v_threshold": v_threshold_lines, "G_region": g_region_lines,
            "gamma_constants": gamma_lines, "Vk_squares": vk_lines, "RealBase": real_lines}


def region_digests():
    """family -> sha256 of its lines."""
    out = {}
    for name, lines in FAMILIES.items():
        h = hashlib.sha256()
        for line in lines():
            h.update(line.encode() + b"\n")
        out[name] = h.hexdigest()
    return out


def test_region_digests_match_the_pins():
    assert region_digests() == PINS


if __name__ == "__main__":
    import sys
    got = region_digests()
    bad = sorted(k for k in got.keys() | PINS.keys() if got.get(k) != PINS.get(k))
    for name in sorted(got):
        print(f"{'FAIL' if name in bad else 'ok  '} {name} {got[name]}")
    sys.exit(1 if bad else 0)
