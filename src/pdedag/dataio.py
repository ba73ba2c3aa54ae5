"""Dataset and checkpoint serialisation.

Dataset directories hold ``manifest.json`` plus one ``NNNNNN.meta.json`` /
``NNNNNN.bin`` pair per sample; the bin file is little-endian float32, the
n_x IC values followed by the n_t x n_x solution in t-major order. Every
manifest carries a ``format_version`` whose major a reader must not exceed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import SamplingConfig, SolverConfig, config_as_dict
from .datagen import PdeCoefficients, PdeSample

FORMAT_VERSION = "1.0"


class CorruptFile(ValueError):
    def __init__(self, path, detail: str, offset: int | None = None):
        self.path = str(path)
        self.offset = offset
        at = f" at offset {offset}" if offset is not None else ""
        super().__init__(f"{path}: {detail}{at}")


class VersionMismatch(ValueError):
    pass


def _check_version(found: str, path) -> None:
    try:
        major = int(str(found).split(".")[0])
    except (ValueError, AttributeError):
        raise VersionMismatch(f"{path}: unparseable format_version {found!r}") from None
    if major > int(FORMAT_VERSION.split(".")[0]):
        raise VersionMismatch(f"{path}: format_version {found} is newer than supported {FORMAT_VERSION}")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@dataclass
class DatasetBundle:
    samples: list[PdeSample]
    manifest: dict

    def __len__(self) -> int:
        return len(self.samples)


def _sample_bytes(sample: PdeSample) -> bytes:
    ic = np.ascontiguousarray(sample.ic, dtype="<f4")
    sol = np.ascontiguousarray(sample.solution, dtype="<f4")
    return ic.tobytes() + sol.tobytes()


def write_dataset(
    out_dir,
    samples: list[PdeSample],
    base_seed: int,
    draws: int,
    rejected: int,
    sampling: SamplingConfig | None = None,
    solver_cfg: SolverConfig | None = None,
) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, sample in enumerate(samples):
        blob = _sample_bytes(sample)
        stem = f"{i:06d}"
        (out / f"{stem}.bin").write_bytes(blob)
        meta = {
            "format_version": FORMAT_VERSION,
            "index": i,
            "draw_index": sample.draw_index,
            "seed": sample.seed,
            "coefficients": sample.coefficients.as_dict(),
            "rejections_before": sample.rejections_before,
            "n_t": sample.n_t,
            "n_x": sample.n_x,
            "bin_sha256": hashlib.sha256(blob).hexdigest(),
        }
        _write_json(out / f"{stem}.meta.json", meta)
    manifest = {
        "format_version": FORMAT_VERSION,
        "count": len(samples),
        "draws": draws,
        "accepted": len(samples),
        "rejected": rejected,
        "base_seed": base_seed,
        "sampling": config_as_dict(sampling) if sampling else None,
        "solver": config_as_dict(solver_cfg) if solver_cfg else None,
    }
    _write_json(out / "manifest.json", manifest)
    return out


def read_dataset(path, validate_checksums: bool = True) -> DatasetBundle:
    """Load a dataset directory; raises CorruptFile / VersionMismatch."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise CorruptFile(manifest_path, "missing manifest")
    manifest = json.loads(manifest_path.read_text())
    _check_version(manifest.get("format_version"), manifest_path)
    count = int(manifest["count"])
    found = len(list(root.glob("*.bin")))
    if found != count:
        raise VersionMismatch(f"{root}: manifest says {count} samples, directory has {found}")

    samples = []
    for i in range(count):
        stem = f"{i:06d}"
        meta_path = root / f"{stem}.meta.json"
        bin_path = root / f"{stem}.bin"
        if not meta_path.exists() or not bin_path.exists():
            raise CorruptFile(root / stem, "missing sample files")
        meta = json.loads(meta_path.read_text())
        _check_version(meta.get("format_version"), meta_path)
        n_t, n_x = int(meta["n_t"]), int(meta["n_x"])
        blob = bin_path.read_bytes()
        expected = 4 * (n_x + n_t * n_x)
        if len(blob) != expected:
            raise CorruptFile(bin_path, f"expected {expected} bytes, found {len(blob)}", offset=min(len(blob), expected))
        if validate_checksums and hashlib.sha256(blob).hexdigest() != meta["bin_sha256"]:
            raise CorruptFile(bin_path, "checksum mismatch")
        flat = np.frombuffer(blob, dtype="<f4")
        samples.append(
            PdeSample(
                seed=int(meta["seed"]),
                draw_index=int(meta["draw_index"]),
                coefficients=PdeCoefficients.from_dict(meta["coefficients"]),
                ic=flat[:n_x].copy(),
                solution=flat[n_x:].reshape(n_t, n_x).copy(),
                rejections_before=int(meta.get("rejections_before", 0)),
            )
        )
    return DatasetBundle(samples=samples, manifest=manifest)


# --- checkpoints ------------------------------------------------------------

def save_checkpoint(out_dir, params, model_cfg, opt_state: dict | None = None, extra: dict | None = None) -> Path:
    """Write manifest + flat little-endian float32 params (declared order)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    named = params.named_tensors()
    layout = [{"name": n, "shape": list(t.data.shape)} for n, t in named]
    manifest = {
        "format_version": FORMAT_VERSION,
        "model_config": config_as_dict(model_cfg),
        "param_layout": layout,
        "n_params": int(params.n_params()),
    }
    if extra:
        manifest.update(extra)
    _write_json(out / "manifest.json", manifest)
    flat = params.to_flat().astype("<f4")
    (out / "params.bin").write_bytes(flat.tobytes())
    if opt_state is not None:
        blob = np.concatenate([
            opt_state["m"].astype("<f4"),
            opt_state["v"].astype("<f4"),
        ]).tobytes()
        (out / "opt_state.bin").write_bytes(blob)
        _write_json(out / "opt_state.json", {
            "format_version": FORMAT_VERSION,
            "step": int(opt_state["step"]),
            "n_params": int(opt_state["m"].size),
        })
    return out


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise CorruptFile(path, "missing file") from None


def load_checkpoint(path):
    """Returns (ModelParams, ModelConfig, manifest, opt_state | None)."""
    from .config import ModelConfig
    from .model import init_model_params

    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise CorruptFile(manifest_path, "missing manifest")
    manifest = json.loads(manifest_path.read_text())
    _check_version(manifest.get("format_version"), manifest_path)
    cfg_dict = dict(manifest["model_config"])
    cfg = ModelConfig(**cfg_dict)
    params = init_model_params(cfg, seed=0)
    blob = _read_bytes(root / "params.bin")
    flat = np.frombuffer(blob, dtype="<f4")
    if flat.size != params.n_params():
        raise CorruptFile(root / "params.bin", f"expected {params.n_params()} values, found {flat.size}")
    names = [entry["name"] for entry in manifest["param_layout"]]
    expected_names = [n for n, _ in params.named_tensors()]
    if names != expected_names:
        raise VersionMismatch(f"{root}: parameter layout does not match this model")
    params.load_flat(flat.astype(np.float32))

    opt_state = None
    opt_json = root / "opt_state.json"
    if opt_json.exists():
        info = json.loads(opt_json.read_text())
        _check_version(info.get("format_version"), opt_json)
        raw = np.frombuffer(_read_bytes(root / "opt_state.bin"), dtype="<f4")
        n = int(info["n_params"])
        if raw.size != 2 * n:
            raise CorruptFile(root / "opt_state.bin", f"expected {2 * n} values, found {raw.size}")
        opt_state = {"m": raw[:n].astype(np.float32), "v": raw[n:].astype(np.float32), "step": int(info["step"])}
    return params, cfg, manifest, opt_state


def write_effective_config(out_dir, doc: dict) -> Path:
    """Echo the merged run configuration next to the outputs for provenance."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"format_version": FORMAT_VERSION}
    payload.update(doc)
    _write_json(out / "effective_config.json", payload)
    return out / "effective_config.json"
