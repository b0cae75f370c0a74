"""Merge diagnostics: checkpoint diffs, TIES interference stats, geometry.

`diff_stats` and `interference_stats` return the JSON object that
`vecmerge diff --json` and `vecmerge interference` print: plain dicts,
lists and numbers, whose keys the CLI sorts when it prints them.
"""

from __future__ import annotations

import math

import numpy as np

from .dtypes import widen
from .tensor_store import Checkpoint
from .ties import elect_signs, trim
from .tv import MergeError, TaskVector

MAX_ALL_PAIRS = 8  # above this, only adjacent pairs (quadratic blowup guard)


def diff_stats(a: Checkpoint, b: Checkpoint) -> dict:
    """Per-tensor and global delta statistics over the shared intersection."""
    shared = [n for n in a.names() if n in b and a[n].shape == b[n].shape]
    if not shared:
        raise MergeError("no shared tensors with matching shapes")
    per_tensor = {}
    sq_sum = 0.0
    max_abs = 0.0
    equal = 0
    total = 0
    for name in shared:
        va = widen(a[name].data)
        vb = widen(b[name].data)
        d = vb - va
        sq = float(np.sum(d * d))
        n_eq = int(np.count_nonzero(va == vb))
        t_max = float(np.max(np.abs(d))) if d.size else 0.0
        per_tensor[name] = {"equal_fraction": n_eq / d.size if d.size else 1.0,
                            "l2_norm": math.sqrt(sq), "max_abs": t_max}
        sq_sum += sq
        max_abs = max(max_abs, t_max)
        equal += n_eq
        total += d.size
    return {
        "global": {"equal_fraction": equal / total if total else 1.0,
                   "l2_norm": math.sqrt(sq_sum), "max_abs": max_abs},
        "only_in_a": [n for n in a.names() if n not in b],
        "only_in_b": [n for n in b.names() if n not in a],
        "per_tensor": per_tensor,
        "shape_mismatch": [n for n in a.names() if n in b and a[n].shape != b[n].shape],
    }


def _pairs(n: int) -> list[tuple[int, int]]:
    if n <= MAX_ALL_PAIRS:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, i + 1) for i in range(n - 1)]


def _abs_sum(d: np.ndarray, scratch: np.ndarray, scale: float = 1.0) -> float:
    """np.sum(np.abs(d) * scale), bit for bit: |d| goes into `scratch` in
    d's memory order, the order of np.abs's own output, so the pairwise
    sum adds the same terms in the same order."""
    magnitude = np.abs(d.ravel("K"), out=scratch[:d.size])
    if scale != 1.0:
        magnitude *= scale
    return float(np.add.reduce(magnitude))


def _rescale(arrays) -> float:
    """An exact power of two that brings the largest |entry| of `arrays`
    under 1, so sums of entries, and of their squares, stay finite."""
    top = max((float(np.max(np.abs(d))) for d in arrays if d.size), default=0.0)
    return 2.0 ** -math.frexp(top)[1] if math.isfinite(top) else 1.0


def _masses(tv: TaskVector, tr: TaskVector, names: list[str],
            scratch: np.ndarray) -> dict[str, tuple[float, float]]:
    """name -> (sum |kept|, sum |all|) of one vector, for each name it
    holds; all rescaled by one power of two if their total overflows,
    which leaves each ratio of two of them as it is."""
    def at(scale: float) -> dict[str, tuple[float, float]]:
        return {name: (_abs_sum(tr.deltas[name], scratch, scale),
                       _abs_sum(tv.deltas[name], scratch, scale))
                for name in names if name in tv.deltas}

    masses = at(1.0)
    if math.isfinite(sum(all_mass for _, all_mass in masses.values())):
        return masses
    return at(_rescale(tv.deltas.values()))


def _signs(d: np.ndarray) -> np.ndarray:
    """sign(d) as int8, from two comparisons."""
    s = (d > 0.0).view(np.int8)
    s -= (d < 0.0).view(np.int8)
    return s


def interference_stats(tvs: list[TaskVector], density: float) -> dict:
    """Trim-mass and pairwise sign agreement after TIES trimming.

    `trimmed_mass` holds sum|kept| / sum|all| per vector, and
    `sign_agreement` maps "i-j" to the agreement of vectors i and j,
    computed only at positions where both keep a nonzero entry. A single
    vector yields trim-mass only.
    """
    if not tvs:
        raise MergeError("interference_stats requires at least one task vector")
    trimmed = [trim(tv, density) for tv in tvs]
    signs = elect_signs(trimmed, [1.0] * len(trimmed))
    per_tensor = {}

    names = sorted({n for tv in tvs for n in tv.deltas})
    pair_idx = _pairs(len(tvs))
    glob_kept = [0.0] * len(tvs)
    glob_all = [0.0] * len(tvs)
    glob_agree = {f"{i}-{j}": [0, 0] for i, j in pair_idx}
    glob_zero = 0
    # |delta| of one tensor at a time, in scratch the call allocates once
    magnitude = np.empty(max((d.size for tv in tvs for d in tv.deltas.values()), default=0))
    with np.errstate(over="ignore"):  # an overflowing sum is rescaled
        masses = [_masses(tv, tr, names, magnitude) for tv, tr in zip(tvs, trimmed)]
    for name in names:
        mass = []
        for t in range(len(tvs)):
            kept_mass, all_mass = masses[t].get(name, (0.0, 0.0))
            glob_all[t] += all_mass
            glob_kept[t] += kept_mass
            mass.append(kept_mass / all_mass if all_mass else 1.0)
        agreement = {}
        sgn = [_signs(tr.deltas[name]) if name in tr.deltas else None for tr in trimmed]
        for i, j in pair_idx:
            key = f"{i}-{j}"
            if sgn[i] is None or sgn[j] is None:
                continue
            both = sgn[i] * sgn[j]  # +1 agree, -1 disagree, 0 unless both kept
            n_joint = int(np.count_nonzero(both))
            n_agree = int(np.count_nonzero(both > 0))
            if n_joint:
                agreement[key] = n_agree / n_joint
            glob_agree[key][0] += n_agree
            glob_agree[key][1] += n_joint
        zero_count = int(np.count_nonzero(signs[name] == 0))
        per_tensor[name] = {"sign_agreement": agreement, "trimmed_mass": mass,
                            "zero_sign_count": zero_count}
        glob_zero += zero_count

    return {
        "density": density,
        "global": {
            "sign_agreement": {key: (v[0] / v[1] if v[1] else 1.0)
                               for key, v in glob_agree.items()},
            "trimmed_mass": [k / a if a else 1.0 for k, a in zip(glob_kept, glob_all)],
            "zero_sign_count": glob_zero,
        },
        "per_tensor": per_tensor,
    }


def cosine(tv_a: TaskVector, tv_b: TaskVector) -> float:
    """Cosine similarity of the flattened concatenation over shared names."""
    shared = [n for n in tv_a.names() if n in tv_b.deltas]
    if not shared:
        raise MergeError("no shared tensors between task vectors")
    for n in shared:
        if tv_a.deltas[n].shape != tv_b.deltas[n].shape:
            raise MergeError(f"tensor {n!r}: shape conflict")
    pairs = [(tv_a.deltas[n].reshape(-1), tv_b.deltas[n].reshape(-1)) for n in shared]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sum is rescaled
        dot, na, nb = _dots(pairs, 1.0, 1.0)
        if not math.isfinite(dot + na * nb):
            dot, na, nb = _dots(pairs, _rescale(a for a, _ in pairs),
                                _rescale(b for _, b in pairs))
    if na == 0.0 or nb == 0.0:
        raise MergeError("undefined cosine: zero vector")
    return float(np.clip(dot / math.sqrt(na * nb), -1.0, 1.0))


def _dots(pairs: list[tuple[np.ndarray, np.ndarray]], sa: float,
          sb: float) -> tuple[float, float, float]:
    """(a.b, a.a, b.b) over the pairs, with a scaled by `sa` and b by `sb`."""
    dot = na = nb = 0.0
    for a, b in pairs:
        a, b = a if sa == 1.0 else a * sa, b if sb == 1.0 else b * sb
        dot += float(np.dot(a, b))
        na += float(np.dot(a, a))
        nb += float(np.dot(b, b))
    return dot, na, nb
