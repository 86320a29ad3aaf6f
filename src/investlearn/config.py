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

from .model import ConfigError, ModelParams, RateSpec, _number, spec_from_dict
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


def _as_int(doc: dict, key: str, default: int, minimum: int) -> int:
    val = doc.get(key, default)
    if not isinstance(val, int) or isinstance(val, bool) or val < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {val!r}")
    return val


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
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")

    if seed is not None:
        doc.setdefault("sim", {})
        if not isinstance(doc["sim"], dict):
            raise ConfigError("'sim' must be an object")
        doc["sim"]["seed"] = seed
    if grid is not None:
        doc["grid_size"] = grid

    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    model_doc = doc.get("model")
    if not isinstance(model_doc, dict):
        raise ConfigError("config needs a 'model' object")
    if "r" not in model_doc:
        raise ConfigError("model needs a discount rate 'r'")
    if "k" in model_doc:
        extra = set(model_doc) - {"r", "k"}
        if extra:
            raise ConfigError(f"unknown model keys: {sorted(extra)}")
        model = ModelParams(r=_number(model_doc["r"], "model.r"),
                            k=_number(model_doc["k"], "model.k"))
    elif "mu0" in model_doc and "mu1" in model_doc:
        extra = set(model_doc) - {"r", "mu0", "mu1"}
        if extra:
            raise ConfigError(f"unknown model keys: {sorted(extra)}")
        model = ModelParams.from_drifts(
            mu0=_number(model_doc["mu0"], "model.mu0"),
            mu1=_number(model_doc["mu1"], "model.mu1"), r=_number(model_doc["r"], "model.r"))
    else:
        raise ConfigError("model needs 'k' or the drift pair 'mu0', 'mu1'")

    rate_doc = doc.get("rate")
    if not isinstance(rate_doc, dict):
        raise ConfigError("config needs a 'rate' object")
    rate = spec_from_dict(rate_doc)

    grid_size = _as_int(doc, "grid_size", 2001, 3)

    sim_doc = doc.get("sim", {})
    if not isinstance(sim_doc, dict):
        raise ConfigError("'sim' must be an object")
    unknown = set(sim_doc) - _SIM_KEYS
    if unknown:
        raise ConfigError(f"unknown sim keys: {sorted(unknown)}")
    write_paths = sim_doc.get("write_paths", False)
    if not isinstance(write_paths, bool):
        raise ConfigError("sim.write_paths must be a boolean")
    trajectory_path = sim_doc.get("trajectory_path", 0)
    if not isinstance(trajectory_path, int) or isinstance(trajectory_path, bool) \
            or trajectory_path < 0:
        raise ConfigError("sim.trajectory_path must be a nonnegative integer")
    sim_kwargs = {key: sim_doc[key] for key in sim_doc
                  if key not in ("write_paths", "trajectory_path")}
    try:
        sim = SimConfig(**sim_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sim parameters: {exc}") from exc
    if trajectory_path >= sim.n_paths:
        raise ConfigError(f"sim.trajectory_path {trajectory_path} names no path "
                          f"of a batch of sim.n_paths {sim.n_paths}")

    ladder_doc = doc.get("ladder", {})
    if not isinstance(ladder_doc, dict):
        raise ConfigError("'ladder' must be an object")
    unknown = set(ladder_doc) - _LADDER_KEYS
    if unknown:
        raise ConfigError(f"unknown ladder keys: {sorted(unknown)}")
    if "n_levels" in ladder_doc and "gamma" in ladder_doc:
        raise ConfigError("ladder takes 'n_levels' or 'gamma', not both")
    ladder_levels = None
    ladder_gamma = None
    if "n_levels" in ladder_doc:
        ladder_levels = ladder_doc["n_levels"]
        if not isinstance(ladder_levels, int) or isinstance(ladder_levels, bool) \
                or ladder_levels < 0:
            raise ConfigError("ladder.n_levels must be a nonnegative integer")
    if "gamma" in ladder_doc:
        vals = ladder_doc["gamma"]
        if not isinstance(vals, list) or not vals:
            raise ConfigError("ladder.gamma must be a non-empty list of numbers")
        ladder_gamma = tuple(_number(v, f"ladder.gamma[{i}]") for i, v in enumerate(vals))

    base = path.resolve().parent
    boundary_csv = None
    if "boundary_csv" in doc:
        boundary_csv = _resolve(base, doc["boundary_csv"], "boundary_csv")

    plot_doc = doc.get("plot", {})
    if not isinstance(plot_doc, dict):
        raise ConfigError("'plot' must be an object")
    unknown = set(plot_doc) - _PLOT_KEYS
    if unknown:
        raise ConfigError(f"unknown plot keys: {sorted(unknown)}")
    plot_inputs = {key: _resolve(base, val, f"plot.{key}")
                   for key, val in plot_doc.items()}

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
