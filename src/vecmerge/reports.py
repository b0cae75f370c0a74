"""Merge diagnostics: checkpoint diffs, TIES interference stats, geometry."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .tensor_store import Checkpoint
from .tv import MergeError, TaskVector

MAX_ALL_PAIRS = 8  # above this, only adjacent pairs (quadratic blowup guard)


@dataclass
class TensorDiff:
    l2_norm: float
    max_abs: float
    equal_fraction: float


@dataclass
class DiffReport:
    per_tensor: dict[str, TensorDiff] = field(default_factory=dict)
    only_in_a: list[str] = field(default_factory=list)
    only_in_b: list[str] = field(default_factory=list)
    shape_mismatch: list[str] = field(default_factory=list)
    l2_norm: float = 0.0
    max_abs: float = 0.0
    equal_fraction: float = 1.0

    def to_dict(self) -> dict:
        return {
            "global": {
                "equal_fraction": self.equal_fraction,
                "l2_norm": self.l2_norm,
                "max_abs": self.max_abs,
            },
            "only_in_a": self.only_in_a,
            "only_in_b": self.only_in_b,
            "per_tensor": {
                name: {"equal_fraction": t.equal_fraction, "l2_norm": t.l2_norm,
                       "max_abs": t.max_abs}
                for name, t in sorted(self.per_tensor.items())
            },
            "shape_mismatch": self.shape_mismatch,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@dataclass
class TensorInterference:
    trimmed_mass: list[float]          # per vector: sum|kept| / sum|all|
    sign_agreement: dict[str, float]   # "i-j" -> agreement over jointly-kept entries
    zero_sign_count: int


@dataclass
class InterferenceReport:
    density: float = 1.0
    per_tensor: dict[str, TensorInterference] = field(default_factory=dict)
    trimmed_mass: list[float] = field(default_factory=list)
    sign_agreement: dict[str, float] = field(default_factory=dict)
    zero_sign_count: int = 0

    def to_dict(self) -> dict:
        return {
            "density": self.density,
            "global": {
                "sign_agreement": dict(sorted(self.sign_agreement.items())),
                "trimmed_mass": self.trimmed_mass,
                "zero_sign_count": self.zero_sign_count,
            },
            "per_tensor": {
                name: {"sign_agreement": dict(sorted(t.sign_agreement.items())),
                       "trimmed_mass": t.trimmed_mass,
                       "zero_sign_count": t.zero_sign_count}
                for name, t in sorted(self.per_tensor.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def diff_stats(a: Checkpoint, b: Checkpoint) -> DiffReport:
    """Per-tensor and global delta statistics over the shared intersection."""
    shared = [n for n in a.names() if n in b and a[n].shape == b[n].shape]
    if not shared:
        raise MergeError("no shared tensors with matching shapes")
    report = DiffReport()
    report.only_in_a = [n for n in a.names() if n not in b]
    report.only_in_b = [n for n in b.names() if n not in a]
    report.shape_mismatch = [n for n in a.names() if n in b and a[n].shape != b[n].shape]

    sq_sum = 0.0
    max_abs = 0.0
    equal = 0
    total = 0
    for name in shared:
        va = a.values(name).astype(np.float64)
        vb = b.values(name).astype(np.float64)
        d = vb - va
        n_eq = int(np.count_nonzero(va == vb))
        t = TensorDiff(
            l2_norm=float(np.sqrt(np.sum(d * d))),
            max_abs=float(np.max(np.abs(d))) if d.size else 0.0,
            equal_fraction=n_eq / d.size if d.size else 1.0,
        )
        report.per_tensor[name] = t
        sq_sum += float(np.sum(d * d))
        max_abs = max(max_abs, t.max_abs)
        equal += n_eq
        total += d.size
    report.l2_norm = math.sqrt(sq_sum)
    report.max_abs = max_abs
    report.equal_fraction = equal / total if total else 1.0
    return report


def _pairs(n: int) -> list[tuple[int, int]]:
    if n <= MAX_ALL_PAIRS:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, i + 1) for i in range(n - 1)]


def interference_stats(tvs: list[TaskVector], density: float) -> InterferenceReport:
    """Trim-mass and pairwise sign agreement after TIES trimming.

    Agreement is computed only at positions where both vectors keep a
    nonzero entry. A single vector yields trim-mass only.
    """
    from .ties import elect_signs, trim

    if not tvs:
        raise MergeError("interference_stats requires at least one task vector")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    trimmed = [trim(tv, density) for tv in tvs]
    signs = elect_signs(trimmed, [1.0] * len(trimmed))
    report = InterferenceReport(density=density)

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
        zero_count = int(np.count_nonzero(signs.signs[name] == 0))
        report.per_tensor[name] = TensorInterference(mass, agreement, zero_count)
        glob_zero += zero_count

    report.trimmed_mass = [k / a if a else 1.0 for k, a in zip(glob_kept, glob_all)]
    report.sign_agreement = {key: (v[0] / v[1] if v[1] else 1.0)
                             for key, v in glob_agree.items()}
    report.zero_sign_count = glob_zero
    return report


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
