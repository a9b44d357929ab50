"""Checkpoint serialization: plain-text manifest plus one raw blob.

A checkpoint is a directory holding ``manifest.txt`` and ``params.bin``. The
manifest records run metadata and, per tensor, its name, shape, dtype, and
byte offset into the blob. The blob is the concatenation of all tensors in
manifest order, C order, each as little-endian IEEE-754 in its own precision:
float32 or float64. Saving and re-loading is bit-exact.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MANIFEST_FILE = "manifest.txt"
BLOB_FILE = "params.bin"
FORMAT_VERSION = 2
# manifest dtype name -> little-endian blob encoding
BLOB_DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}


class CheckpointError(RuntimeError):
    pass


@dataclass
class CheckpointManifest:
    version: int
    algo: str
    scenario: str
    agents: int
    episode: int
    entries: list[tuple[str, tuple[int, ...], str, int]]
    # the run's ``train.<key>`` architecture values, as written
    train: dict[str, str]


def _shape_str(shape: tuple[int, ...]) -> str:
    return "x".join(str(d) for d in shape) if shape else "scalar"


def _natural(text: str, lineno: int, line: str) -> int:
    """``text`` as a non-negative integer, or a CheckpointError naming the
    manifest line it came from."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise CheckpointError(
            f"manifest line {lineno}: '{text}' is not a non-negative integer: '{line}'")
    return value


def save_checkpoint(directory, named_tensors, *, algo: str, scenario: str,
                    agents: int, episode: int, train: dict | None = None) -> Path:
    """Write ``named_tensors`` (iterable of (name, tensor-or-array)) to ``directory``.

    ``train`` maps architecture keys to the values the header records as
    ``train.<key>``. Every name and dtype is checked before anything is
    written. The files go into a hidden sibling that replaces ``directory``, all
    fsync'd, so a killed process or an OS crash leaves the previous checkpoint or none.
    """
    entries = []
    chunks = []
    offset = 0
    for name, tensor in named_tensors:
        arr = np.asarray(getattr(tensor, "data", tensor))
        if arr.dtype.name not in BLOB_DTYPES:
            raise CheckpointError(
                f"checkpoint tensors are float32 or float64; '{name}' has dtype {arr.dtype}")
        if " " in name:
            raise CheckpointError(f"tensor name may not contain spaces: '{name}'")
        raw = np.ascontiguousarray(arr).astype(BLOB_DTYPES[arr.dtype.name],
                                              copy=False).tobytes()
        entries.append((name, arr.shape, arr.dtype.name, offset))
        chunks.append(raw)
        offset += len(raw)

    lines = [
        f"format-version {FORMAT_VERSION}",
        f"algo {algo}",
        f"scenario {scenario}",
        f"agents {agents}",
        f"episode {episode}",
    ]
    lines += [f"train.{key} {value}" for key, value in (train or {}).items()]
    for name, shape, dtype, off in entries:
        lines.append(f"tensor {name} {_shape_str(shape)} {dtype} {off}")
    directory = Path(directory)
    staging, retired = (directory.with_name(f".{directory.name}.{s}") for s in ("new", "old"))
    staging.mkdir(parents=True, exist_ok=True)   # a killed save may have left it
    (staging / MANIFEST_FILE).write_text("\n".join(lines) + "\n")
    (staging / BLOB_FILE).write_bytes(b"".join(chunks))
    shutil.rmtree(retired, ignore_errors=True)   # likewise
    for name in (MANIFEST_FILE, BLOB_FILE):      # on the disk before the renames
        with open(staging / name, "rb") as f:
            os.fsync(f.fileno())
    if directory.exists():
        directory.rename(retired)
    staging.rename(directory)
    parent = os.open(directory.parent, os.O_RDONLY)   # and the renames after them
    try:
        os.fsync(parent)
    finally:
        os.close(parent)
    shutil.rmtree(retired, ignore_errors=True)
    return directory


def load_checkpoint(directory) -> tuple[CheckpointManifest, dict[str, np.ndarray]]:
    directory = Path(directory)
    manifest_path = directory / MANIFEST_FILE
    blob_path = directory / BLOB_FILE
    if not manifest_path.exists() or not blob_path.exists():
        raise CheckpointError(f"no checkpoint at {directory}")

    header: dict[str, str] = {}
    numbers: dict[str, int] = {}
    entries: list[tuple[str, tuple[int, ...], str, int]] = []
    for lineno, line in enumerate(manifest_path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "tensor":
            if len(parts) != 5:
                raise CheckpointError(f"malformed tensor line {lineno}: '{line}'")
            dims = () if parts[2] == "scalar" else parts[2].split("x")
            shape = tuple(_natural(d, lineno, line) for d in dims)
            entries.append((parts[1], shape, parts[3], _natural(parts[4], lineno, line)))
        elif len(parts) == 2 and parts[0] in ("format-version", "agents", "episode"):
            numbers[parts[0]] = _natural(parts[1], lineno, line)
        elif len(parts) == 2:
            header[parts[0]] = parts[1]
        else:
            raise CheckpointError(f"malformed manifest line {lineno}: '{line}'")

    version = numbers.get("format-version", -1)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format version {version}")

    blob = blob_path.read_bytes()
    tensors: dict[str, np.ndarray] = {}
    for name, shape, dtype, off in entries:
        if dtype not in BLOB_DTYPES:
            raise CheckpointError(f"tensor '{name}' has unsupported dtype {dtype}")
        encoding = BLOB_DTYPES[dtype]
        count = int(np.prod(shape)) if shape else 1
        end = off + encoding.itemsize * count
        if end > len(blob):
            raise CheckpointError(
                f"tensor '{name}' extends past blob end ({end} > {len(blob)})")
        if name in tensors:
            raise CheckpointError(f"duplicate tensor name '{name}'")
        flat = np.frombuffer(blob, dtype=encoding, count=count, offset=off)
        tensors[name] = flat.reshape(shape).astype(dtype)

    manifest = CheckpointManifest(
        version=version,
        algo=header.get("algo", ""),
        scenario=header.get("scenario", ""),
        agents=numbers.get("agents", 0),
        episode=numbers.get("episode", 0),
        entries=entries,
        train={key[len("train."):]: value for key, value in header.items()
               if key.startswith("train.")},
    )
    return manifest, tensors


def restore_into(named_params, tensors: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into (name, parameter) pairs by name.

    Every name must be present with the parameter's shape and dtype: a
    different dtype would silently change the precision a restored network
    runs in.
    """
    for key, param in named_params:
        if key not in tensors:
            raise CheckpointError(f"checkpoint is missing tensor '{key}'")
        arr = tensors[key]
        if arr.shape != param.data.shape:
            raise CheckpointError(
                f"tensor '{key}' shape {arr.shape} does not match parameter "
                f"shape {param.data.shape}")
        if arr.dtype != param.data.dtype:
            raise ValueError(f"checkpoint tensor '{key}' is {arr.dtype.name}, the "
                             f"network's parameter is {param.data.dtype.name}")
        param.data[...] = arr
