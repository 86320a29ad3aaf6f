"""Run configuration: one human-editable JSON document per run.

The document carries a schema_version field, the model and rate-spec
parameters, and per-command options.  Every run is reproducible from the
file alone plus the command-line seed override, so the effective document
(after overrides) is hashed and the hash recorded in the run manifest.
"""

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .model import (ConfigError, ModelParams, RateSpec, _fields, _integer, _model, _numbers,
                    spec_from_dict)
from .simulate import SimConfig

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version",
    "model",
    "rate",
    "grid_size",
    "sim",
    "ladder",
    "boundary_csv",
    "plot",
    "out_dir",
}
_SIM_KEYS = {"start_u", "start_pi", "dt", "horizon", "n_paths", "seed",
             "write_paths", "trajectory_path"}
_LADDER_KEYS = {"n_levels", "gamma"}
_PLOT_KEYS = {"boundary", "trajectory", "ladder"}


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run document plus its deterministic hash."""

    model: ModelParams
    rate: RateSpec
    grid_size: int
    sim: SimConfig
    write_paths: bool
    trajectory_path: int
    ladder_levels: Optional[int]
    ladder_gamma: Optional[tuple]
    boundary_csv: Optional[Path]
    plot_inputs: dict
    out_dir: Optional[Path]
    config_hash: str


def config_hash(doc: dict) -> str:
    """sha256 over the canonical (sorted-keys, no-whitespace) serialization."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _resolve(base: Path, value, key: str) -> Path:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key} must be a non-empty path string")
    p = Path(value)
    return p if p.is_absolute() else base / p


def load_config(path, seed: Optional[int] = None,
                grid: Optional[int] = None) -> RunConfig:
    """Read, validate, and hash a run document.

    seed and grid are command-line overrides; they are patched into the
    document before hashing so the manifest hash names the effective run.
    Relative paths inside the document resolve against its own directory.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _fields(doc, "config", _TOP_KEYS)
    if seed is not None:
        _fields(doc.setdefault("sim", {}), "sim", _SIM_KEYS)["seed"] = seed
    if grid is not None:
        doc["grid_size"] = grid

    if _integer(doc.get("schema_version"), "schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {doc['schema_version']!r}")
    model = _model(doc.get("model"))
    rate = spec_from_dict(doc.get("rate"))
    grid_size = _integer(doc.get("grid_size", 2001), "grid_size", 3)

    sim_doc = _fields(doc.get("sim", {}), "sim", _SIM_KEYS)
    write_paths = sim_doc.get("write_paths", False)
    if not isinstance(write_paths, bool):
        raise ConfigError("sim.write_paths must be a boolean")
    trajectory_path = _integer(sim_doc.get("trajectory_path", 0), "sim.trajectory_path", 0)
    sim_kwargs = {key: sim_doc[key] for key in sim_doc
                  if key not in ("write_paths", "trajectory_path")}
    try:
        sim = SimConfig(**sim_kwargs)
    except ConfigError as exc:
        raise ConfigError(f"bad sim parameters: {exc}") from exc
    if trajectory_path >= sim.n_paths:
        raise ConfigError(f"sim.trajectory_path {trajectory_path} names no path "
                          f"of a batch of sim.n_paths {sim.n_paths}")

    ladder_doc = _fields(doc.get("ladder", {}), "ladder", _LADDER_KEYS)
    if "n_levels" in ladder_doc and "gamma" in ladder_doc:
        raise ConfigError("ladder takes 'n_levels' or 'gamma', not both")
    ladder_levels = None
    ladder_gamma = None
    if "n_levels" in ladder_doc:
        ladder_levels = _integer(ladder_doc["n_levels"], "ladder.n_levels", 0)
    if "gamma" in ladder_doc:
        ladder_gamma = tuple(_numbers(ladder_doc["gamma"], "ladder.gamma"))

    base = path.resolve().parent
    boundary_csv = None
    if "boundary_csv" in doc:
        boundary_csv = _resolve(base, doc["boundary_csv"], "boundary_csv")

    plot_inputs = {key: _resolve(base, val, f"plot.{key}")
                   for key, val in _fields(doc.get("plot", {}), "plot", _PLOT_KEYS).items()}

    out_dir = None
    if "out_dir" in doc:
        out_dir = _resolve(base, doc["out_dir"], "out_dir")

    return RunConfig(
        model=model,
        rate=rate,
        grid_size=grid_size,
        sim=sim,
        write_paths=write_paths,
        trajectory_path=trajectory_path,
        ladder_levels=ladder_levels,
        ladder_gamma=ladder_gamma,
        boundary_csv=boundary_csv,
        plot_inputs=plot_inputs,
        out_dir=out_dir,
        config_hash=config_hash(doc),
    )
