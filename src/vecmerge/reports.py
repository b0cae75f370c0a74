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
    for name in names:
        mass = []
        for t, (tv, tr) in enumerate(zip(tvs, trimmed)):
            if name in tv.deltas:
                all_mass = float(np.sum(np.abs(tv.deltas[name])))
                kept_mass = float(np.sum(np.abs(tr.deltas[name])))
                glob_all[t] += all_mass
                glob_kept[t] += kept_mass
            else:
                all_mass = kept_mass = 0.0
            mass.append(kept_mass / all_mass if all_mass else 1.0)
        agreement = {}
        sgn = [np.sign(tr.deltas[name]).astype(np.int8) if name in tr.deltas else None
               for tr in trimmed]
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
    dot = 0.0
    na = 0.0
    nb = 0.0
    for n in shared:
        a = tv_a.deltas[n].reshape(-1)
        b = tv_b.deltas[n].reshape(-1)
        dot += float(np.dot(a, b))
        na += float(np.dot(a, a))
        nb += float(np.dot(b, b))
    if na == 0.0 or nb == 0.0:
        raise MergeError("undefined cosine: zero vector")
    return float(np.clip(dot / math.sqrt(na * nb), -1.0, 1.0))
