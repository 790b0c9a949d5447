"""Hypersphere primitives: embedding tables, normalization, checkpoint and artifact IO.

Raw embeddings are stored unnormalized; losses normalize on the fly so
gradients flow through the normalization. Checkpoints store one table per
file: a fixed binary header followed by row-major little-endian float32
values, plus a JSON sidecar. Every JSON and CSV run artifact goes through
`write_json` and `write_csv`; this module imports nothing from the package.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MIN_ROW_NORM = 1e-12

_MAGIC = b"SPHR"
_VERSION = 1
_HEADER = struct.Struct("<4sIIII")
_ROLES = ("user", "item")


@dataclass(eq=False)
class EmbeddingTable:
    """Raw (unnormalized) embedding vectors, one row each; the shape is `values.shape`."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] < 2:
            raise ValueError(f"values must be rows x dim with dim >= 2, "
                             f"got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("embedding table contains non-finite entries")


def init_xavier(rows: int, dim: int, seed: int) -> EmbeddingTable:
    """Xavier-uniform initialization with fan_in = fan_out = dim.

    Entries are i.i.d. uniform on [-a, a] with a = sqrt(6 / (dim + dim));
    deterministic for a given seed.
    """
    if rows < 1:
        raise ValueError(f"rows must be >= 1, got {rows}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    bound = np.sqrt(6.0 / (dim + dim))
    values = np.random.default_rng(seed).uniform(-bound, bound, size=(rows, dim))
    return EmbeddingTable(values)


def normalize_with_norms(vectors: np.ndarray,
                         out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Return (unit rows, original norms); raises on any near-zero or non-finite row norm.

    The unit rows are written into `out` when given (an array of the rows' shape that
    does not overlap them), which also holds the squares the norms are summed from, so
    no other array of the rows' size is made. The norms have `np.linalg.norm`'s bits.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    out = np.empty_like(vectors) if out is None else out
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(np.multiply(vectors, vectors, out=out), axis=1))
    bad = np.flatnonzero(norms < MIN_ROW_NORM)
    if bad.size:
        raise ValueError(f"cannot normalize zero-norm row {int(bad[0])}")
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise ValueError(f"cannot normalize row {int(bad[0])}: its norm is non-finite "
                         "(a NaN or inf entry, or one whose square overflows float64)")
    return np.divide(vectors, norms[:, None], out=out), norms


def l2_normalize(vectors: np.ndarray) -> np.ndarray:
    """Divide each row by its L2 norm, mapping rows onto the unit sphere."""
    unit, _ = normalize_with_norms(vectors)
    return unit


def config_hash(config: dict) -> str:
    """Short stable hash of a JSON-serializable config dict."""
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def write_json(path, payload) -> None:
    """Write `payload` as UTF-8 JSON indented by 2, with a trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_csv(path, header, rows) -> str:
    """Write header and rows as lines of comma-joined `str` cells, None empty; return the text."""
    text = "".join(",".join("" if cell is None else str(cell) for cell in row) + "\n"
                   for row in [header, *rows])
    Path(path).write_text(text, encoding="utf-8")
    return text


def _table_file(table: EmbeddingTable, role: str) -> bytes:
    """One table's file: header (magic, version, rows, dim, role) + f32 rows.

    Raises ValueError if an entry lies beyond float32's range, where it would
    be stored as inf and the file could not be read back.
    """
    if role not in _ROLES:
        raise ValueError(f"role must be one of {_ROLES}, got {role!r}")
    with np.errstate(over="ignore"):
        values = table.values.astype("<f4")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"the {role} table has an entry beyond float32's range, "
                         "which a checkpoint cannot store")
    return _HEADER.pack(_MAGIC, _VERSION, *values.shape, _ROLES.index(role)) + values.tobytes()


def load_embedding_table(path) -> tuple[EmbeddingTable, str]:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated embedding file")
    magic, version, rows, dim, role_code = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: not an embedding checkpoint (bad magic)")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if role_code >= len(_ROLES):
        raise ValueError(f"{path}: unknown role code {role_code}")
    expected = _HEADER.size + rows * dim * 4
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(raw)}")
    values = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(rows, dim)
    try:
        table = EmbeddingTable(values.astype(np.float64))
    except ValueError as exc:  # a non-finite entry or a dim below 2
        raise ValueError(f"{path}: {exc}") from None
    return table, _ROLES[role_code]


def save_checkpoint(directory, user_table: EmbeddingTable, item_table: EmbeddingTable,
                    seed: int, config: dict) -> None:
    """Write user.emb + item.emb plus a JSON sidecar with seed and config hash.

    Both tables are checked (`_table_file`) before any file is written.
    """
    files = {"user.emb": _table_file(user_table, "user"),
             "item.emb": _table_file(item_table, "item")}
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, payload in files.items():
        (directory / name).write_bytes(payload)
    write_json(directory / "checkpoint.json",
               {"seed": seed, "config_hash": config_hash(config), "config": config})


def load_checkpoint(directory) -> tuple[EmbeddingTable, EmbeddingTable, dict]:
    """Read back save_checkpoint's (user, item, sidecar); reject an edited or partial sidecar."""
    directory = Path(directory)
    user_table, role = load_embedding_table(directory / "user.emb")
    if role != "user":
        raise ValueError(f"{directory}/user.emb has role {role!r}, expected 'user'")
    item_table, role = load_embedding_table(directory / "item.emb")
    if role != "item":
        raise ValueError(f"{directory}/item.emb has role {role!r}, expected 'item'")
    sidecar = json.loads((directory / "checkpoint.json").read_text(encoding="utf-8"))
    if not (isinstance(sidecar, dict) and isinstance(sidecar.get("config", {}), dict)):
        raise ValueError(f"{directory}/checkpoint.json and its config must be JSON objects")
    missing = [key for key in ("seed", "config_hash", "config") if key not in sidecar]
    if missing:
        raise ValueError(f"{directory}/checkpoint.json lacks {', '.join(missing)}")
    if config_hash(sidecar["config"]) != sidecar["config_hash"]:
        raise ValueError(f"{directory}/checkpoint.json: config does not match its config_hash")
    return user_table, item_table, sidecar
