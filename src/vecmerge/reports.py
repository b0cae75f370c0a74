"""Merge diagnostics: checkpoint diffs, TIES interference stats, geometry.

`diff_stats` and `interference_stats` return the JSON object that
`vecmerge diff --json` and `vecmerge interference` print: plain dicts,
lists and numbers, whose keys the CLI sorts when it prints them.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .dtypes import widen
from .tensor_store import _CHUNK, Checkpoint, read_chunk
from .ties import _check_trimmable, _union_shapes, elect_signs, trim
from .tv import LazyDelta, MergeError, TaskVector

MAX_ALL_PAIRS = 8  # above this, only adjacent pairs (quadratic blowup guard)


def _pairwise(arrays: list[np.ndarray], terms: Callable, ufunc=np.add) -> np.ndarray:
    """ufunc.reduce, bit for bit, of each array `terms(*chunks)` yields over the equal-length
    1-d `arrays`, split as numpy's pairwise sum splits (n2 = n // 2 - (n // 2) % 8) down
    to chunks of at most _CHUNK, each read into per-call scratch by `read_chunk`."""
    scratch = [np.empty(min(arrays[0].size, _CHUNK), a.dtype) for a in arrays]

    def total(start: int, size: int) -> np.ndarray:
        if size > _CHUNK:
            half = size // 2 - size // 2 % 8
            return ufunc(total(start, half), total(start + half, size - half))
        chunks = (read_chunk(a, start, s[:size]) for a, s in zip(arrays, scratch))
        return np.array([ufunc.reduce(t) for t in terms(*chunks)])

    sums = total(0, arrays[0].size)
    del total  # it refers to itself, a cycle that would keep the scratch until collected
    return sums


def _raveled(*arrays: np.ndarray | LazyDelta) -> list[np.ndarray | LazyDelta]:
    """Same-shape deltas as 1-d, in the element order numpy's elementwise
    operations take: their memory order where all share one, else C order,
    which is the order `read_chunk` reads a `LazyDelta` in."""
    layouts = {tuple(s / a.itemsize for s in a.strides) if isinstance(a, np.ndarray) else None
               for a in arrays}
    return [a.ravel("K" if len(layouts) == 1 else "C") for a in arrays]


def _rescale(arrays) -> float:
    """A power of two that brings every |entry| of `arrays` under 1, so sums stay finite."""
    top = max((float(_pairwise([d.ravel()], lambda c: (np.abs(c),), np.maximum)[0])
               for d in arrays if d.size), default=0.0)
    return 2.0 ** -math.frexp(top)[1] if math.isfinite(top) else 1.0


def _l2_norm(sq: float, entries: np.ndarray, squares: Callable[[float], float]) -> float:
    """sqrt(sq), or if it overflowed, sqrt(squares(s)) / s, s = `_rescale` of `entries`."""
    scale = 1.0 if math.isfinite(sq) else _rescale([entries])
    return math.sqrt(sq if scale == 1.0 else squares(scale)) / scale


def _tensor_diff(x: np.ndarray, y: np.ndarray, scale: float = 1.0) -> tuple[float, int, float]:
    """(sum of (d * scale)**2, count of x == y, max |d|), d = y - x widened by chunk."""
    wx, wy = np.empty(min(x.size, _CHUNK)), np.empty(min(x.size, _CHUNK))
    stats = [0, 0.0]

    def terms(cx: np.ndarray, cy: np.ndarray):
        u, d = widen(cx, wx[:cx.size]), widen(cy, wy[:cx.size])
        stats[0] += int(np.count_nonzero(u == d))
        d -= u
        stats[1] = np.maximum(stats[1], np.max(np.abs(d, out=u), initial=0.0))  # keeps a NaN
        d *= scale
        yield np.square(d, out=d)

    sq, = _pairwise([x, y], terms)
    return float(sq), stats[0], float(stats[1])


def diff_stats(a: Checkpoint, b: Checkpoint) -> dict:
    """Per-tensor and global delta statistics over the shared intersection.
    An L2 norm reads inf only where a delta itself is beyond float64."""
    shared = [n for n in a.names() if n in b and a[n].shape == b[n].shape]
    if not shared:
        raise MergeError("no shared tensors with matching shapes")
    per_tensor, sq_sum, max_abs, equal, total = {}, 0.0, 0.0, 0, 0
    with np.errstate(over="ignore", invalid="ignore"):  # sums rescaled; inf - inf is NaN
        for name in shared:
            x, y = _raveled(a[name].data, b[name].data)
            sq, n_eq, t_max = _tensor_diff(x, y)
            norm = _l2_norm(sq, np.array(t_max), lambda s: _tensor_diff(x, y, s)[0])
            per_tensor[name] = {"equal_fraction": n_eq / x.size if x.size else 1.0,
                                "l2_norm": norm, "max_abs": t_max}
            sq_sum, equal, total = sq_sum + sq, equal + n_eq, total + x.size
            max_abs = float(np.maximum(max_abs, t_max))  # a NaN is kept, as in l2_norm
        norms = np.array([t["l2_norm"] for t in per_tensor.values()])
        l2_norm = _l2_norm(sq_sum, norms, lambda s: np.add.reduce(np.square(norms * s)))
    return {
        "global": {"equal_fraction": equal / total if total else 1.0,
                   "l2_norm": l2_norm, "max_abs": max_abs},
        "only_in_a": [n for n in a.names() if n not in b],
        "only_in_b": [n for n in b.names() if n not in a],
        "per_tensor": per_tensor,
        "shape_mismatch": [n for n in a.names() if n in b and a[n].shape != b[n].shape],
    }


def _pairs(n: int) -> list[tuple[int, int]]:
    if n <= MAX_ALL_PAIRS:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, i + 1) for i in range(n - 1)]


def _mass(d: np.ndarray, scale: float) -> float:
    """sum |d|, each entry times `scale`, as np.sum(np.abs(d)) sums it."""
    magnitude = np.empty(min(d.size, _CHUNK))

    def terms(c: np.ndarray):
        m = np.abs(c, out=magnitude[:c.size])
        yield m if scale == 1.0 else np.multiply(m, scale, out=m)

    return float(_pairwise([d.ravel("K")], terms)[0])


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 1.0


def _signs(d: np.ndarray) -> np.ndarray:
    """sign(d) as int8, from two comparisons."""
    s = (d > 0.0).view(np.int8)
    s -= (d < 0.0).view(np.int8)
    return s


def interference_stats(tvs: list[TaskVector], density: float) -> dict:
    """Trim-mass and pairwise sign agreement after TIES trimming:
    `trimmed_mass` holds sum|kept| / sum|all| per vector, and
    `sign_agreement` maps "i-j" to the agreement of vectors i and j where
    both keep a nonzero entry (none for a single vector).

    Tensor by tensor, each vector's delta is trimmed into a buffer of the
    call's, one per vector, counted and dropped. A `LazyDelta` is read once
    into its buffer, and its mass summed there, before it is trimmed in
    place; a stored delta's is summed in its own memory order. If a
    vector's total mass overflows, its masses are summed again from the
    deltas, all rescaled by one power of two, which keeps their ratios."""
    if not tvs:
        raise MergeError("interference_stats requires at least one task vector")
    _check_trimmable(tvs, density)
    _union_shapes(tvs)
    largest = max((d.size for tv in tvs for d in tv.deltas.values()), default=0)
    buffers = list(np.empty((len(tvs), largest)))  # one allocation, as in ties_merge

    masses: list[dict[str, tuple[float, float]]] = [{} for _ in tvs]  # (kept, all) by name

    def trimmed(i: int, name: str, scale: float = 1.0) -> TaskVector:
        """Vector i's tensor `name` trimmed into buffer i, its masses times
        `scale` put in `masses`, from one read of the delta."""
        delta = tvs[i].deltas[name]
        if isinstance(delta, LazyDelta):
            delta = read_chunk(delta, 0, buffers[i][:delta.size]).reshape(delta.shape)
        whole = _mass(delta, scale)  # before the buffer is trimmed in place
        kept = trim(TaskVector({name: delta}), density, out=buffers[i])
        # at density 1 the delta is kept whole, in its own order
        masses[i][name] = (whole if density == 1.0 else _mass(kept.deltas[name], scale), whole)
        return kept

    agree = {f"{i}-{j}": (i, j, [0, 0]) for i, j in _pairs(len(tvs))}  # agreeing, joint
    per_tensor = {}
    with np.errstate(over="ignore"):  # an overflowing sum is rescaled
        for name in sorted({n for tv in tvs for n in tv.deltas}):
            held = {i: trimmed(i, name) for i, tv in enumerate(tvs) if name in tv.deltas}
            signs = elect_signs(list(held.values()), [1.0] * len(held))[name]
            sgn = {i: _signs(kept.deltas[name]) for i, kept in held.items()}
            agreement = {}
            for key, (i, j, counts) in agree.items():
                if i not in sgn or j not in sgn:
                    continue
                both = sgn[i] * sgn[j]  # +1 agree, -1 disagree, 0 unless both kept
                n_agree, n_joint = int(np.count_nonzero(both > 0)), int(np.count_nonzero(both))
                if n_joint:
                    agreement[key] = n_agree / n_joint
                counts[0] += n_agree
                counts[1] += n_joint
            per_tensor[name] = {"sign_agreement": agreement,
                                "zero_sign_count": int(np.count_nonzero(signs == 0))}
        for i, tv in enumerate(tvs):
            if not math.isfinite(sum(all_mass for _, all_mass in masses[i].values())):
                scale = _rescale(tv.deltas.values())
                for name in list(masses[i]):
                    trimmed(i, name, scale)
    for name, stats in per_tensor.items():
        stats["trimmed_mass"] = [_ratio(*m.get(name, (0.0, 0.0))) for m in masses]
    glob = {"sign_agreement": {key: _ratio(*counts) for key, (_, _, counts) in agree.items()},
            "trimmed_mass": [_ratio(*map(sum, zip(*m.values()))) if m else 1.0 for m in masses],
            "zero_sign_count": sum(t["zero_sign_count"] for t in per_tensor.values())}
    return {"density": density, "global": glob, "per_tensor": per_tensor}


def cosine(tv_a: TaskVector, tv_b: TaskVector) -> float:
    """Cosine similarity of the flattened concatenation over shared names,
    from sums as np.add.reduce makes them, not a BLAS dot product's, which
    depend on the CPU. Tensor by tensor, the two deltas are read a chunk
    at a time, `LazyDelta`s from their stored sides, at each pass."""
    shared = [n for n in tv_a.names() if n in tv_b.deltas]
    if not shared:
        raise MergeError("no shared tensors between task vectors")
    for n in shared:
        if tv_a.deltas[n].shape != tv_b.deltas[n].shape:
            raise MergeError(f"tensor {n!r}: shape conflict")

    def products(sa: float, sb: float) -> np.ndarray:  # [a.b, a.a, b.b], a * sa and b * sb
        def terms(ca: np.ndarray, cb: np.ndarray):
            u, v = ca * sa, cb * sb
            yield from (u * v, u * u, v * v)

        return sum((_pairwise(_raveled(tv_a.deltas[n], tv_b.deltas[n]), terms) for n in shared),
                   np.zeros(3))

    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sum is rescaled
        dot, na, nb = products(1.0, 1.0)
        if not math.isfinite(dot + na * nb):
            dot, na, nb = products(*(_rescale(tv.deltas[n] for n in shared) for tv in (tv_a, tv_b)))
    if na == 0.0 or nb == 0.0:
        raise MergeError("undefined cosine: zero vector")
    return float(np.clip(dot / math.sqrt(na * nb), -1.0, 1.0))
