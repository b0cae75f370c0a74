"""The three workloads: seeded inputs, the CLI operation, and its check.

Inputs are made from the workload seed with numpy's PCG64 streams and
written with the benchmark's own archive writer; references come from
`reference.py`. Paths handed to the program are relative to the
checkout root, which is the working directory of every operation, so
output bytes do not depend on where the checkout lives.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import archive
import reference

TV_KIND = {"vecmerge.kind": "task_vector"}


def _normal(seed: int, *stream: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, *stream]).standard_normal(n, dtype=np.float32)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    width = a.dtype.itemsize
    return (width == b.dtype.itemsize and a.size == b.size
            and np.array_equal(a.reshape(-1).view(f"u{width}"), b.reshape(-1).view(f"u{width}")))


def _archive_record(path: Path, specs, size: int) -> dict:
    return {"file": path.name, "mb": round(size / 2**20, 3), "tensors": len(specs),
            "params": sum(math.prod(shape) for _, shape in specs.values()),
            "dtypes": sorted({dtype for dtype, _ in specs.values()})}


def _check_tensors(out: archive.Archive, expected: dict[str, tuple[str, np.ndarray]]) -> str | None:
    """None if `out` holds exactly the expected tensors, bit for bit."""
    if out.names() != sorted(expected):
        return f"tensor names differ: {len(out.names())} in output, {len(expected)} expected"
    for name, (dtype, bits) in expected.items():
        if out.dtype(name) != dtype:
            return f"{name}: dtype {out.dtype(name)}, expected {dtype}"
        if not _same_bits(out.array(name), bits):
            return f"{name}: values differ from the reference"
    return None


class TiesSweep:
    """`vecmerge run --sweep`: TIES over 3 fine-tuned F32 checkpoints, 10 lambda points."""

    name = "ties_sweep"
    setup_imports = ("vecmerge.cli",)
    density = 0.2
    grid = [round(0.1 * i, 1) for i in range(1, 11)]  # the recipe's "default" grid
    n_sources = 3

    def _specs(self) -> dict:
        specs = {f"blocks.{i:02d}.matrix": ("F32", (400, 400)) for i in range(6)}
        specs.update({f"blocks.{i:02d}.bias": ("F32", (1024,)) for i in range(64)})
        return specs

    def generate(self, seed: int, root: Path, out_dir: Path) -> dict:
        specs = self._specs()
        names = sorted(specs)

        def base(name):
            return 0.05 * _normal(seed, 0, names.index(name), n=math.prod(specs[name][1]))

        files = [("base.safetensors", base)]
        for j in range(self.n_sources):
            def finetuned(name, j=j):
                n = math.prod(specs[name][1])
                return base(name) + np.float32(0.01) * _normal(seed, 1 + j, names.index(name), n=n)
            files.append((f"ft{j}.safetensors", finetuned))
        record = {"archives": [_archive_record(root / f, specs, archive.write(root / f, specs, fn))
                               for f, fn in files]}
        recipe = {
            "base": str(root / "base.safetensors"),
            "method": "ties",
            "vectors": [{"source": str(root / f"ft{j}.safetensors"), "weight": 1.0}
                        for j in range(self.n_sources)],
            "density": self.density,
            "lambda": {"grid": "default"},
            "output": str(out_dir / "merged.safetensors"),
        }
        (root / "recipe.json").write_text(json.dumps(recipe, indent=2))
        record.update(params=record["archives"][0]["params"], grid_size=len(self.grid),
                      method="ties", density=self.density, weights=[1.0] * self.n_sources)
        return record

    def argv(self, root: Path, out_dir: Path) -> list[str]:
        return ["run", "--recipe", str(root / "recipe.json"), "--sweep", "--threads", "1"]

    def reference(self, root: Path) -> dict:
        """lambda -> {name: (dtype, F32 values)}: cast(base + lambda * ties_delta)."""
        base = archive.Archive.open(root / "base.safetensors")
        sources = [archive.Archive.open(root / f"ft{j}.safetensors") for j in range(self.n_sources)]
        expected = {lam: {} for lam in self.grid}
        for name in base.names():
            b = base.array(name).astype(np.float64)
            deltas = [s.array(name).astype(np.float64) - b for s in sources]
            merged = reference.ties_delta(deltas, [1.0] * self.n_sources, self.density)
            for lam in self.grid:
                expected[lam][name] = ("F32", reference.cast_bits(b + merged * lam, "F32"))
        return expected

    def check(self, expected: dict, out_dir: Path) -> tuple[str | None, int]:
        """(failure or None, output params written)."""
        outputs = sorted(out_dir.glob("*.safetensors"))
        seen = set()
        params = 0
        for path in outputs:
            out = archive.Archive.open(path)
            lam = json.loads(out.metadata.get("vecmerge.recipe", "{}")).get("lambda")
            if lam not in expected or lam in seen:
                return f"{path.name}: unexpected or repeated lambda {lam!r}", params
            seen.add(lam)
            failure = _check_tensors(out, expected[lam])
            if failure:
                return f"{path.name}: {failure}", params
            params += sum(a.size for _, a in expected[lam].values())
        if len(seen) != len(expected):
            return f"{len(seen)} sweep outputs, expected {len(expected)}", params
        return None, params


class TvMergeLarge:
    """`vecmerge merge tv`: 3 stored F64 task vectors into a 25.6M-param BF16/F32 base."""

    name = "tv_merge_large"
    setup_imports = ("vecmerge.cli",)
    weight = "0.3"
    n_vectors = 3

    def _specs(self, dtype: str | None = None) -> dict:
        specs = {f"layers.{i:02d}.weight": (dtype or "BF16", (1024, 1024)) for i in range(24)}
        specs.update({f"layers.{i:02d}.norm{j}": (dtype or "F32", (4096,))
                      for i in range(24) for j in range(4)})
        return specs

    def generate(self, seed: int, root: Path, out_dir: Path) -> dict:
        specs = self._specs()
        names = sorted(specs)

        def base(name):
            z = _normal(seed, 0, names.index(name), n=math.prod(specs[name][1]))
            if specs[name][0] == "BF16":
                return reference.f32_to_bf16_bits(np.float32(0.02) * z)
            return np.float32(1.0) + np.float32(0.01) * z

        files = [("base.safetensors", specs, base, None)]
        vec_specs = self._specs("F64")
        for k in range(self.n_vectors):
            def tau(name, k=k):
                z = _normal(seed, 1 + k, names.index(name), n=math.prod(vec_specs[name][1]))
                return z.astype(np.float64) * 1e-3
            files.append((f"tau{k}.safetensors", vec_specs, tau,
                          {**TV_KIND, "vecmerge.origin": f"perfbench seed {seed} vector {k}"}))
        record = {"archives": [_archive_record(root / f, s, archive.write(root / f, s, fn, meta))
                               for f, s, fn, meta in files]}
        record.update(params=record["archives"][0]["params"], grid_size=1, method="tv",
                      weights=[float(self.weight)] * self.n_vectors)
        return record

    def argv(self, root: Path, out_dir: Path) -> list[str]:
        argv = ["merge", "tv", "--base", str(root / "base.safetensors")]
        for k in range(self.n_vectors):
            argv += ["--vector", str(root / f"tau{k}.safetensors"), "--weight", self.weight]
        return argv + ["--out", str(out_dir / "merged.safetensors"), "--threads", "2"]

    def reference(self, root: Path) -> dict:
        """{name: (dtype, bits)}: float64 base + sum_i w * tau_i in vector order, then one
        round-to-nearest-even cast per narrowing step."""
        base = archive.Archive.open(root / "base.safetensors", mmap=True)
        taus = [archive.Archive.open(root / f"tau{k}.safetensors", mmap=True)
                for k in range(self.n_vectors)]
        w = float(self.weight)
        expected = {}
        for name in base.names():
            dtype = base.dtype(name)
            raw = base.array(name)
            acc = reference.bf16_bits_to_f64(raw) if dtype == "BF16" else raw.astype(np.float64)
            for tau in taus:
                acc += tau.array(name) * w
            expected[name] = (dtype, reference.cast_bits(acc, dtype))
        return expected

    def check(self, expected: dict, out_dir: Path) -> tuple[str | None, int]:
        path = out_dir / "merged.safetensors"
        if not path.is_file():
            return "no output archive", 0
        failure = _check_tensors(archive.Archive.open(path, mmap=True), expected)
        return failure, 0 if failure else sum(bits.size for _, bits in expected.values())


class ToyBench:
    """`vecmerge bench --scenario all --seeds 5`; the program makes its own data."""

    name = "toy_bench"
    setup_imports = ("vecmerge.cli", "vecmerge.bench.scenarios")
    fixture = Path("tests") / "fixtures" / "bench_expected.json"

    def generate(self, seed: int, root: Path, out_dir: Path) -> dict:
        return {"seed_applies": False,
                "note": "the program makes its own data from seeds 0-4; the workload seed is unused",
                "seeds": 5, "scenarios": "all"}

    def argv(self, root: Path, out_dir: Path) -> list[str]:
        return ["bench", "--scenario", "all", "--seeds", "5", "--out", str(out_dir / "bench.json")]

    def reference(self, root: Path) -> dict:
        return json.loads(self.fixture.read_text())

    def check(self, expected: dict, out_dir: Path) -> tuple[str | None, int]:
        """Every scenario's per-seed and mean macro-F1 must equal the fixture exactly.

        Output params are the merged toy checkpoints the run makes in
        memory: seeds x merge scenarios x grid points x model params.
        """
        path = out_dir / "bench.json"
        if not path.is_file():
            return "no bench report", 0
        result = json.loads(path.read_text())
        if result.get("seeds") != expected["seeds"]:
            return f"seeds {result.get('seeds')}, expected {expected['seeds']}", 0
        merges = 0
        for name, want in expected.items():
            if name == "seeds":
                continue
            got = result["scenarios"].get(name, {})
            for key in ("per_seed_f1", "mean_f1"):
                if got.get(key) != want[key]:
                    return f"{name}.{key} differs from {self.fixture}", 0
            merges += sum(len(s["dev_f1"]) for s in got.get("selected", []))
        sizes = result["sizes"]
        d, h, c = sizes["input_dim"], sizes["hidden_dim"], sizes["class_count"]
        return None, merges * (h * d + h + c * h + c)


WORKLOADS = {w.name: w for w in (TiesSweep(), TvMergeLarge(), ToyBench())}
