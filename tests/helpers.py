"""Shared test helpers: random checkpoint generation and naive references."""

import math

import numpy as np

from vecmerge import Checkpoint, Tensor
from vecmerge.dtypes import cast_values

DTYPES = ["F64", "F32", "F16", "BF16"]


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
        ckpt.tensors[name] = Tensor(dtype, cast_values(values, dtype))
    return ckpt


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
