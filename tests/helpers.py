"""Shared test helpers: random checkpoint generation and naive references."""

import copy
import json
import math
from pathlib import Path

import numpy as np

from vecmerge import Checkpoint, Tensor
from vecmerge.dtypes import narrow

DTYPES = ["F64", "F32", "F16", "BF16"]


def blas_core_types() -> list[str]:
    """OpenBLAS kernel families to force with OPENBLAS_CORETYPE, SkylakeX
    only on a CPU that has AVX-512."""
    cores = ["Haswell", "Sandybridge", "Nehalem", "Katmai"]
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists() and "avx512f" in cpuinfo.read_text().split():
        cores.append("SkylakeX")
    return cores


def random_checkpoint(rng: np.random.Generator, n_tensors=None, max_numel=64,
                      dtypes=DTYPES) -> Checkpoint:
    """Checkpoint with random finite values exactly representable in the
    chosen storage dtype (so round-trips can be compared bit-exactly)."""
    n = n_tensors if n_tensors is not None else int(rng.integers(1, 6))
    ckpt = Checkpoint()
    for i in range(n):
        name = f"t{i:03d}"
        ndim = int(rng.integers(0, 3))
        shape = tuple(int(rng.integers(0, 5)) for _ in range(ndim))
        if math.prod(shape) > max_numel:
            shape = (max_numel,)
        dtype = dtypes[int(rng.integers(len(dtypes)))]
        values = rng.normal(0.0, 2.0, size=shape)
        ckpt.tensors[name] = Tensor(dtype, narrow(values, dtype))
    return ckpt


def reference_tv_merge_bits(base_values, dtype, weighted) -> bytes:
    """Archive data bytes of base + sum(w * delta): accumulated in float64
    over the whole tensor in vector order, every NaN made the positive
    quiet NaN, then rounded to nearest even at each narrowing step
    (F64 -> F32 -> BF16); a BF16 NaN keeps its high half with the quiet
    bit set."""
    acc = np.array(base_values, dtype=np.float64).reshape(-1)
    for delta, w in weighted:
        acc += np.asarray(delta, dtype=np.float64).reshape(-1) * w
    acc[np.isnan(acc)] = np.nan
    if dtype in ("F64", "F16"):
        return acc.astype({"F64": "<f8", "F16": "<f2"}[dtype]).tobytes()
    f32 = acc.astype("<f4")
    if dtype == "F32":
        return f32.tobytes()
    u = f32.view(np.uint32).astype(np.uint64)
    bits = (u + 0x7FFF + ((u >> 16) & 1)) >> 16
    bits = np.where(np.isnan(f32), (u >> 16) | 0x40, bits)
    return bits.astype("<u2").tobytes()


# --- independent naive TIES reference (per-element loops, no vectorization) ---

def naive_trim(values, density):
    flat = [float(v) for v in np.asarray(values).reshape(-1)]
    k = math.ceil(density * len(flat))
    order = sorted(range(len(flat)), key=lambda i: (-abs(flat[i]), i))
    keep = set(order[:k])
    return [flat[i] if i in keep else 0.0 for i in range(len(flat))]


def _sign(x):
    return (x > 0) - (x < 0)


def naive_ties_vector(vector_lists, weights, density):
    """Trim, elect, disjoint-merge over flat per-vector lists of equal
    length. Returns (merged list, elected sign list)."""
    trimmed = [naive_trim(v, density) for v in vector_lists]
    n = len(trimmed[0])
    merged = []
    gammas = []
    for p in range(n):
        total = 0.0
        for t in range(len(trimmed)):
            total += weights[t] * trimmed[t][p]
        gamma = _sign(total)
        gammas.append(gamma)
        if gamma == 0:
            merged.append(0.0)
            continue
        num = 0.0
        den = 0.0
        for t in range(len(trimmed)):
            if _sign(trimmed[t][p]) == gamma:
                num += weights[t] * trimmed[t][p]
                den += weights[t]
        merged.append(num / den if den else 0.0)
    return merged, gammas


# --- the TIES kernels as whole-tensor numpy: np.where selects, np.sign
# election, widen-then-subtract extraction; the kernels match them bit for bit ---

def reference_trim(tv, density):
    """Per tensor: |d| ranked by partition, ties at the threshold kept in
    index order, then np.where(keep, d, 0.0)."""
    from vecmerge import MergeError, TaskVector

    out = TaskVector(extras=dict(tv.extras), ignored=list(tv.ignored))
    for name, d in tv.deltas.items():
        flat = d.reshape(-1)
        n = flat.size
        mag = np.abs(flat)
        if n and not np.isfinite(mag.max()):
            raise MergeError(f"tensor {name!r}: non-finite delta cannot be trimmed")
        k = math.ceil(density * n)
        if k == n:
            out.deltas[name] = d
            continue
        threshold = np.partition(mag, n - k)[n - k]
        keep = mag > threshold
        room = k - int(np.count_nonzero(keep))
        keep[np.flatnonzero(mag == threshold)[:room]] = True
        out.deltas[name] = np.where(keep, flat, 0.0).reshape(d.shape)
    return out


def reference_elect_signs(trimmed, weights):
    """np.sign of the weighted total from 0.0 in vector order, a NaN
    total taken as 0."""
    shapes = {name: d.shape for tv in trimmed for name, d in tv.deltas.items()}
    signs = {}
    for name, shape in shapes.items():
        total = np.zeros(shape, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            for tv, w in zip(trimmed, weights):
                if name in tv.deltas:
                    total += float(w) * tv.deltas[name]
        signs[name] = np.sign(np.where(np.isnan(total), 0.0, total)).astype(np.int8)
    return signs


def reference_disjoint_merge(trimmed, weights, signs):
    """num and den from 0.0 in vector order through np.where and
    bool * weight, then num / den where den != 0, else +0.0."""
    from vecmerge import TaskVector

    shapes = {name: d.shape for tv in trimmed for name, d in tv.deltas.items()}
    out = TaskVector()
    for name, shape in shapes.items():
        gamma = signs[name]
        num = np.zeros(shape, dtype=np.float64)
        den = np.zeros(shape, dtype=np.float64)
        with np.errstate(over="ignore"):
            for tv, w in zip(trimmed, weights):
                if name in tv.deltas:
                    d = tv.deltas[name]
                    agree = d * gamma > 0
                    num += np.where(agree, float(w) * d, 0.0)
                    den += agree * float(w)
        out.deltas[name] = np.divide(num, den, out=np.zeros(shape, dtype=np.float64),
                                     where=den != 0)
    return out


def reference_extract(base, finetuned) -> dict:
    """widen(finetuned) - widen(base) per shared name and shape, every
    NaN made the positive quiet NaN."""
    from vecmerge.dtypes import widen

    out = {}
    for name in finetuned.names():
        if name in base and base[name].shape == finetuned[name].shape:
            with np.errstate(invalid="ignore"):  # inf - inf
                d = np.asarray(widen(finetuned[name].data) - widen(base[name].data))
            d[np.isnan(d)] = np.nan
            out[name] = d
    return out


def reference_mass_scales(tvs) -> list[float]:
    """Per vector, 1.0, or where the sum of its np.sum(np.abs(d)) masses
    overflows, the power of two 2**-e with 2**(e-1) <= max|d| < 2**e."""
    scales = []
    for tv in tvs:
        with np.errstate(over="ignore"):
            total = sum(float(np.sum(np.abs(tv.deltas[name]))) for name in sorted(tv.deltas))
        top = max((float(np.max(np.abs(d))) for d in tv.deltas.values() if d.size), default=0.0)
        scales.append(1.0 if math.isfinite(total) or not math.isfinite(top)
                      else 2.0 ** -math.frexp(top)[1])
    return scales


def reference_interference_stats(tvs, density) -> dict:
    """The interference report through the references above, with
    np.sum(np.abs(d) * scale) masses and np.sign signs."""
    trimmed = [reference_trim(tv, density) for tv in tvs]
    scales = reference_mass_scales(tvs)
    signs = reference_elect_signs(trimmed, [1.0] * len(trimmed))
    n = len(tvs)
    pairs = ([(i, j) for i in range(n) for j in range(i + 1, n)] if n <= 8
             else [(i, i + 1) for i in range(n - 1)])
    glob_kept, glob_all = [0.0] * n, [0.0] * n
    glob_agree = {f"{i}-{j}": [0, 0] for i, j in pairs}
    glob_zero = 0
    per_tensor = {}
    for name in sorted({name for tv in tvs for name in tv.deltas}):
        mass = []
        for t, (tv, tr) in enumerate(zip(tvs, trimmed)):
            all_mass = kept_mass = 0.0
            if name in tv.deltas:
                all_mass = float(np.sum(np.abs(tv.deltas[name]) * scales[t]))
                kept_mass = float(np.sum(np.abs(tr.deltas[name]) * scales[t]))
                glob_all[t] += all_mass
                glob_kept[t] += kept_mass
            mass.append(kept_mass / all_mass if all_mass else 1.0)
        sgn = [np.sign(tr.deltas[name]).astype(np.int8) if name in tr.deltas else None
               for tr in trimmed]
        agreement = {}
        for i, j in pairs:
            if sgn[i] is None or sgn[j] is None:
                continue
            both = sgn[i] * sgn[j]
            n_joint, n_agree = int(np.count_nonzero(both)), int(np.count_nonzero(both > 0))
            if n_joint:
                agreement[f"{i}-{j}"] = n_agree / n_joint
            glob_agree[f"{i}-{j}"][0] += n_agree
            glob_agree[f"{i}-{j}"][1] += n_joint
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


# --- naive toy-bench references: per-sample draws, allocating training step ---

def naive_gaussians(rng, n):
    """One Box-Muller pair at a time from `rng.uniform()`; an odd count
    drops the final sin."""
    out = []
    for _ in range((n + 1) // 2):
        u1 = rng.uniform()
        u2 = rng.uniform()
        if u1 == 0.0:
            u1 = 2.0 ** -53
        r = math.sqrt(-2.0 * math.log(u1))
        out.append(r * math.cos(2.0 * math.pi * u2))
        out.append(r * math.sin(2.0 * math.pi * u2))
    return out[:n]


def naive_gen_dataset(kind, n, d, c, seed):
    """(X, y) drawn one sample at a time: alpha (mixed only), then d
    gaussians per constituent."""
    from vecmerge.bench.data import ALPHA_HI, ALPHA_LO, CLASS_SCALE, NOISE_SIGMA
    from vecmerge.bench.rng import SplitMix64

    def draw(kind, label):
        mean = np.zeros(d)
        mean[label % d] = CLASS_SCALE if kind == "L1" else -CLASS_SCALE
        return mean + NOISE_SIGMA * np.array(naive_gaussians(rng, d))

    rng = SplitMix64(seed)
    X = np.empty((n, d))
    y = np.arange(n, dtype=np.int64) % c
    for i in range(n):
        label = int(y[i])
        if kind == "mixed":
            alpha = ALPHA_LO + (ALPHA_HI - ALPHA_LO) * rng.uniform()
            x1 = draw("L1", label)
            x2 = draw("L2", label)
            X[i] = alpha * x1 + (1.0 - alpha) * x2
        else:
            X[i] = draw(kind, label)
    return X, y


def naive_loss_and_grads(params, X, y):
    """Mean softmax cross-entropy and gradients, a fresh array per step."""
    w0, b0 = params["layer0.weight"], params["layer0.bias"]
    w1, b1 = params["layer1.weight"], params["layer1.bias"]
    n = len(y)
    z = X @ w0.T + b0
    hidden = np.maximum(z, 0.0)
    logits = hidden @ w1.T + b1
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        loss = float(-np.mean(np.log(probs[np.arange(n), y])))
    g = probs.copy()
    g[np.arange(n), y] -= 1.0
    g /= n
    d_hidden = g @ w1
    d_z = np.where(z > 0.0, d_hidden, 0.0)
    grads = {
        "layer0.bias": d_z.sum(axis=0),
        "layer0.weight": d_z.T @ X,
        "layer1.bias": g.sum(axis=0),
        "layer1.weight": g.T @ hidden,
    }
    return loss, grads


def naive_train(params, X, y, learning_rate, epochs):
    """Full-batch descent on a name -> array dict. Returns (params, None),
    or (None, epoch) at the first non-finite loss."""
    params = {name: np.array(v, dtype=np.float64) for name, v in params.items()}
    for epoch in range(epochs):
        loss, grads = naive_loss_and_grads(params, X, y)
        if not np.isfinite(loss):
            return None, epoch
        params = {name: params[name] - learning_rate * grads[name] for name in sorted(params)}
    return params, None


# --- the recipe validator before the hand-written pass: jsonschema plus post-checks ---

_REFERENCE_WEIGHT_SCHEMA = {
    "oneOf": [
        {"type": "number"},
        {
            "type": "object",
            "properties": {"grid": {"oneOf": [
                {"type": "array", "items": {"type": "number"}, "minItems": 1},
                {"const": "default"},
            ]}},
            "required": ["grid"],
            "additionalProperties": False,
        },
    ]
}

REFERENCE_RECIPE_SCHEMA = {
    "type": "object",
    "properties": {
        "base": {"type": "string"},
        "method": {"enum": ["tv", "ties"]},
        "vectors": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {"source": {"type": "string"},
                               "weight": _REFERENCE_WEIGHT_SCHEMA},
                "required": ["source", "weight"],
                "additionalProperties": False,
            },
        },
        "density": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "lambda": _REFERENCE_WEIGHT_SCHEMA,
        "mismatch": {"enum": ["error", "ignore", "copy_from_finetuned"]},
        "dtype": {"enum": ["keep", "F32", "F64", "F16", "BF16"]},
        "output": {"type": "string"},
    },
    "required": ["base", "method", "vectors", "output"],
    "additionalProperties": False,
}


def reference_schema_paths(doc) -> set[str]:
    """The `$` paths of every error jsonschema reports for `doc`."""
    import jsonschema

    validator = jsonschema.Draft202012Validator(REFERENCE_RECIPE_SCHEMA)
    return {err.json_path for err in validator.iter_errors(doc)}


def reference_parse_recipe(text: str):
    """parse_recipe as it was: jsonschema's first error by path, then the
    ties-only and non-finite-weight post-checks."""
    import jsonschema

    from vecmerge.recipes import MergeRecipe, RecipeError
    from vecmerge.ties import DEFAULT_DENSITY, DEFAULT_LAMBDA

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RecipeError(f"invalid JSON: {exc}") from exc
    validator = jsonschema.Draft202012Validator(REFERENCE_RECIPE_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: e.json_path)
    if errors:
        err = errors[0]
        raise RecipeError(f"schema violation at {err.json_path}: {err.message}")
    if doc["method"] != "ties" and ("density" in doc or "lambda" in doc):
        present = [k for k in ("density", "lambda") if k in doc]
        raise RecipeError(f"{'/'.join(present)} only valid with method \"ties\"")
    for i, vec in enumerate(doc["vectors"]):
        w = vec["weight"]
        if isinstance(w, (int, float)) and not (w == w and abs(w) != float("inf")):
            raise RecipeError(f"schema violation at $.vectors[{i}].weight: non-finite weight")
    return MergeRecipe(
        base=doc["base"],
        method=doc["method"],
        vectors=copy.deepcopy(doc["vectors"]),
        output=doc["output"],
        density=doc.get("density", DEFAULT_DENSITY),
        lam=doc.get("lambda", DEFAULT_LAMBDA),
        mismatch=doc.get("mismatch", "error"),
        dtype=doc.get("dtype", "keep"),
    )
