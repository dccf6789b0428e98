"""File-level JSON helpers shared by the CLI and tests.

The interchange format for complexes is the canonical facet list
{"name": str?, "vertices": int, "facets": [[int, ...], ...]}; witnesses are
{"supercomplex": <complex>, "embedding": [int, ...]}; vertex maps are plain
JSON lists with map[source] = target.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Tuple, Union

from .classify import EmbeddingWitness
from .errors import MalformedComplexError
from .simplicial import SimplicialComplex, complex_from_json_dict, complex_to_json_dict

PathLike = Union[str, Path]


def _read_json(path: PathLike) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise MalformedComplexError(f"cannot read {path}: {e}") from e
    try:
        return json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an integer past the int-to-str digit limit
        raise MalformedComplexError(f"{path} is not valid JSON: {e}") from e
    except RecursionError as e:
        raise MalformedComplexError(f"{path} nests JSON too deeply to read") from e


def load_complex(path: PathLike) -> SimplicialComplex:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise MalformedComplexError(f"{path}: complex JSON must be an object")
    return complex_from_json_dict(data)


def complex_json(x: SimplicialComplex) -> str:
    return json.dumps(complex_to_json_dict(x), indent=2, sort_keys=True)


def load_witness(path: PathLike) -> EmbeddingWitness:
    data = _read_json(path)
    if not isinstance(data, dict) or "supercomplex" not in data or "embedding" not in data:
        raise MalformedComplexError(
            f"{path}: witness JSON must have supercomplex and embedding keys")
    emb = data["embedding"]
    if not isinstance(emb, list) or any(type(v) is not int for v in emb):
        raise MalformedComplexError(f"{path}: embedding must be a list of integers")
    return EmbeddingWitness.from_json_dict(data)


def load_vertex_map(path: PathLike) -> Tuple[int, ...]:
    data = _read_json(path)
    if not isinstance(data, list) or any(type(v) is not int for v in data):
        raise MalformedComplexError(f"{path}: vertex map must be a JSON list of integers")
    return tuple(data)
