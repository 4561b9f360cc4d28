"""On-disk surrogate model artifacts.

Models live as plain JSON files under ``<cache-root>/surrogate/`` —
``model-<content-hash>.json`` plus a one-line ``latest`` pointer file —
so the same ``repro cache info``/``clear`` tooling that manages run
records and pipeline artifacts can count and drop them, and a model can
be inspected with nothing but ``cat``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Optional, Union

from repro.api.store import remove_files, resolve_cache_root
from repro.errors import ConfigError
from repro.surrogate.model import SurrogateModel

#: Subdirectory of the cache root that holds model artifacts.
SURROGATE_DIR = "surrogate"

#: Pointer file naming the most recently saved model.
LATEST_POINTER = "latest"

_PREFIX = "model-"
_SUFFIX = ".json"

#: Glob matching every model artifact in the surrogate directory.
MODEL_GLOB = f"{_PREFIX}*{_SUFFIX}"


def surrogate_root(cache_root: Union[str, Path, None] = None) -> Path:
    """The surrogate artifact directory for a cache root (not created)."""
    return Path(resolve_cache_root(cache_root)) / SURROGATE_DIR


def model_path(model_id: str,
               cache_root: Union[str, Path, None] = None) -> Path:
    return surrogate_root(cache_root) / f"{_PREFIX}{model_id}{_SUFFIX}"


def save_model(model: SurrogateModel,
               cache_root: Union[str, Path, None] = None) -> Path:
    """Write a model artifact (content-hashed name) and repoint ``latest``.

    Saving the same model twice is idempotent — the content hash collides
    into the same file.
    """
    root = surrogate_root(cache_root)
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"{_PREFIX}{model.model_id}{_SUFFIX}"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(model.to_json(indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    pointer = root / LATEST_POINTER
    pointer_tmp = pointer.with_suffix(".tmp")
    pointer_tmp.write_text(model.model_id + "\n", encoding="utf-8")
    os.replace(pointer_tmp, pointer)
    return path


def list_model_ids(cache_root: Union[str, Path, None] = None) -> List[str]:
    """Model ids present on disk, sorted."""
    root = surrogate_root(cache_root)
    if not root.is_dir():
        return []
    return sorted(path.name[len(_PREFIX):-len(_SUFFIX)]
                  for path in root.glob(MODEL_GLOB))


def latest_model_id(
    cache_root: Union[str, Path, None] = None,
) -> Optional[str]:
    pointer = surrogate_root(cache_root) / LATEST_POINTER
    if pointer.is_file():
        model_id = pointer.read_text(encoding="utf-8").strip()
        if model_id and model_path(model_id, cache_root).is_file():
            return model_id
    ids = list_model_ids(cache_root)
    return ids[-1] if ids else None


def load_model(name: str = "latest",
               cache_root: Union[str, Path, None] = None) -> SurrogateModel:
    """Load a model by id, artifact path, or the ``latest`` pointer."""
    if name == "latest":
        model_id = latest_model_id(cache_root)
        if model_id is None:
            raise ConfigError(
                "no surrogate model artifacts found; train one with "
                "'repro surrogate train'"
            )
        path = model_path(model_id, cache_root)
    elif os.sep in name or name.endswith(_SUFFIX):
        path = Path(name)
    else:
        path = model_path(name, cache_root)
    if not path.is_file():
        raise ConfigError(f"surrogate model not found: {path}")
    model = SurrogateModel.from_json(path.read_text(encoding="utf-8"))
    model.check_schema()
    return model


def load_models(
    cache_root: Union[str, Path, None] = None,
) -> List[SurrogateModel]:
    """Every loadable model on disk (schema-mismatched ones are skipped)."""
    out: List[SurrogateModel] = []
    for model_id in list_model_ids(cache_root):
        try:
            out.append(load_model(model_id, cache_root))
        except ConfigError:
            continue
    return out


def clear_models(cache_root: Union[str, Path, None] = None) -> int:
    """Delete every model artifact (and the pointer); returns the count."""
    root = surrogate_root(cache_root)
    removed = remove_files(root, MODEL_GLOB)
    remove_files(root, LATEST_POINTER)
    try:
        root.rmdir()
    except OSError:
        pass
    return removed
