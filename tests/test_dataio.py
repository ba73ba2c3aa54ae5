import json

import numpy as np
import pytest

from pdedag.config import SamplingConfig, SolverConfig
from pdedag.datagen import PdeCoefficients, PdeSample
from pdedag.dataio import (CorruptFile, VersionMismatch, load_checkpoint,
                           read_dataset, save_checkpoint, write_dataset,
                           write_effective_config)
from pdedag.model import init_model_params


def _samples(n=3, n_t=5, n_x=16):
    rng = np.random.default_rng(0)
    out = []
    for i in range(n):
        sol = rng.standard_normal((n_t, n_x)).astype(np.float32)
        out.append(PdeSample(
            seed=1000 + i, draw_index=i,
            coefficients=PdeCoefficients(c=rng.standard_normal((2, 4)), nu=0.1 * i),
            ic=sol[0].copy(), solution=sol, rejections_before=i,
        ))
    return out


def test_dataset_round_trip_bit_identical(tmp_path):
    samples = _samples(5)
    write_dataset(tmp_path, samples, base_seed=9, draws=7, rejected=2,
                  sampling=SamplingConfig(), solver_cfg=SolverConfig(n_x=16, n_t=5))
    bundle = read_dataset(tmp_path)
    assert len(bundle) == 5
    for orig, loaded in zip(samples, bundle.samples):
        assert np.array_equal(orig.ic, loaded.ic)
        assert np.array_equal(orig.solution, loaded.solution)
        assert np.array_equal(orig.coefficients.c, loaded.coefficients.c)
        assert orig.coefficients.nu == loaded.coefficients.nu
        assert orig.seed == loaded.seed
        assert orig.rejections_before == loaded.rejections_before


def test_truncated_bin_raises_corrupt(tmp_path):
    write_dataset(tmp_path, _samples(1), base_seed=0, draws=1, rejected=0)
    bin_path = tmp_path / "000000.bin"
    bin_path.write_bytes(bin_path.read_bytes()[:-8])
    with pytest.raises(CorruptFile):
        read_dataset(tmp_path)


def test_checksum_mismatch_raises_corrupt(tmp_path):
    write_dataset(tmp_path, _samples(1), base_seed=0, draws=1, rejected=0)
    bin_path = tmp_path / "000000.bin"
    blob = bytearray(bin_path.read_bytes())
    blob[4] ^= 0xFF
    bin_path.write_bytes(bytes(blob))
    with pytest.raises(CorruptFile, match="checksum"):
        read_dataset(tmp_path)


def test_manifest_count_mismatch_raises_version_class_error(tmp_path):
    write_dataset(tmp_path, _samples(2), base_seed=0, draws=2, rejected=0)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["count"] = 3
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(VersionMismatch):
        read_dataset(tmp_path)


def test_newer_major_version_refused(tmp_path):
    write_dataset(tmp_path, _samples(1), base_seed=0, draws=1, rejected=0)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["format_version"] = "2.0"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(VersionMismatch):
        read_dataset(tmp_path)


def test_checkpoint_round_trip(tmp_path, small_cfg):
    params = init_model_params(small_cfg, seed=4)
    flat_before = params.to_flat().copy()
    opt_state = {"m": np.random.default_rng(1).standard_normal(params.n_params()).astype(np.float32),
                 "v": np.abs(np.random.default_rng(2).standard_normal(params.n_params())).astype(np.float32),
                 "step": 42}
    save_checkpoint(tmp_path, params, small_cfg, opt_state=opt_state)
    loaded, cfg, manifest, loaded_opt = load_checkpoint(tmp_path)
    assert np.array_equal(loaded.to_flat(), flat_before)
    assert cfg == small_cfg
    assert manifest["n_params"] == params.n_params()
    assert loaded_opt["step"] == 42
    assert np.array_equal(loaded_opt["m"], opt_state["m"])
    assert np.array_equal(loaded_opt["v"], opt_state["v"])


def test_checkpoint_wrong_size_raises(tmp_path, small_cfg):
    params = init_model_params(small_cfg, seed=4)
    save_checkpoint(tmp_path, params, small_cfg)
    blob = (tmp_path / "params.bin").read_bytes()
    (tmp_path / "params.bin").write_bytes(blob[:-4])
    with pytest.raises(CorruptFile):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("name", ["params.bin", "opt_state.bin"])
def test_checkpoint_missing_payload_is_corrupt(tmp_path, small_cfg, name):
    params = init_model_params(small_cfg, seed=4)
    zeros = np.zeros(params.n_params(), dtype=np.float32)
    save_checkpoint(tmp_path, params, small_cfg, opt_state={"m": zeros, "v": zeros, "step": 1})
    (tmp_path / name).unlink()
    with pytest.raises(CorruptFile, match="missing file") as exc:
        load_checkpoint(tmp_path)
    assert exc.value.path == str(tmp_path / name)


def test_effective_config_written(tmp_path):
    path = write_effective_config(tmp_path, {"command": "gen", "config": {"count": 3}})
    doc = json.loads(path.read_text())
    assert doc["format_version"] == "1.0"
    assert doc["config"]["count"] == 3
