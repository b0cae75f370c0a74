"""Deterministic splitmix64 PRNG with Box-Muller gaussians.

Identical seeds yield identical streams on every platform; nothing here
depends on numpy's RNG or on process state.

splitmix64 is counter-based: the k-th output after state s (k = 1, 2, ...)
is mix(s + k * GOLDEN mod 2**64), so `uniform_block` computes m outputs
at once in numpy uint64 arithmetic, bit-equal to m calls of `uniform`,
and leaves the state where those calls would.

Box-Muller takes its log, cos and sin from `math` (the platform libm),
one element at a time. numpy's vectorized float64 loops (SIMD on hosts
with AVX2/AVX-512) do not promise libm's last bit, and the bench's
datasets and initial weights, hence its reports, are pinned to libm's.
The other operations here (sqrt, *, +, int-to-float of 53-bit values)
are IEEE-exact in numpy and in Python alike.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def uniform(self) -> float:
        """Uniform in [0, 1): top 53 bits of the next output."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_block(self, m: int) -> np.ndarray:
        """The next m uniforms as a float64 array, bit-equal to m calls
        of `uniform`; the state advances by m outputs."""
        if m < 0:
            raise ValueError(f"need m >= 0, got {m}")
        z = np.arange(1, m + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)  # wraps mod 2**64
        z += np.uint64(self.state)
        self.state = (self.state + m * _GOLDEN) & _MASK
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        return z.astype(np.float64) * 2.0 ** -53

    def gaussians(self, n: int) -> list[float]:
        """n standard gaussians via Box-Muller on consecutive uniforms.

        Each pair of uniforms produces (cos, sin) outputs; an odd count
        discards the final sin value. No state is cached across calls.
        """
        return box_muller(self.uniform_block(2 * ((n + 1) // 2)))[:n].tolist()


def _libm(fn, a: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, a.ravel().tolist()), np.float64, a.size).reshape(a.shape)


def box_muller(u: np.ndarray) -> np.ndarray:
    """Gaussians from uniforms paired along the last axis (even length).

    The pair (u1, u2) at columns (2j, 2j+1) gives r*cos(t) at column 2j
    and r*sin(t) at 2j+1, with r = sqrt(-2 log u1), t = 2 pi u2, and
    u1 = 0 read as 2**-53.
    """
    # uniforms are multiples of 2**-53, so the max only lifts u1 = 0
    u1 = np.maximum(u[..., 0::2], 2.0 ** -53)
    theta = (2.0 * math.pi) * u[..., 1::2]
    r = np.sqrt(-2.0 * _libm(math.log, u1))
    out = np.empty(u.shape)
    out[..., 0::2] = r * _libm(math.cos, theta)
    out[..., 1::2] = r * _libm(math.sin, theta)
    return out


def derive_stream(seed: int, index: int) -> int:
    """Per-scenario stream seed: mix the base seed with a stream index."""
    rng = SplitMix64(seed)
    value = rng.next_u64()
    for _ in range(index + 1):
        value = rng.next_u64()
    return value
