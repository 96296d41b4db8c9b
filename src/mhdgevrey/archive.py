"""On-disk trajectory archives: binary checkpoints, CSV series, JSON manifest.

Checkpoint layout (little-endian): magic ``MHDG``, format version u32=1, then
N:u32, nu:f64, eta:f64, t:f64, coefficient count u64, then one record per
mode of the ball 0 < |n| <= N sorted lexicographically by (n1, n2, n3):
n1:i32, n2:i32, n3:i32 followed by 12 f64 (Re/Im of the 3 components of the
velocity coefficient, then of the magnetic one).  The records are the rows of
``SpectralField.coeffs`` in order; a file must hold every mode of the ball
exactly once to load.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ConfigError, TraceError
from .spectral import MhdState, SpectralField, geometry

MAGIC = b"MHDG"
VERSION = 1

_HEADER = struct.Struct("<4sIIdddQ")
_REC_DTYPE = np.dtype([("n", "<i4", (3,)), ("c", "<f8", (12,))])


def _is_number(x) -> bool:
    """A JSON number: an int or float, and not a boolean."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing; when the block
    ends without error it replaces ``path``, otherwise it is removed.  A
    reader, or a run that crashes, never sees ``path`` half written."""
    path = Path(path)
    tmp = path.with_name(".%s.tmp" % path.name)
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_json(path):
    """Parse a JSON file; a syntax error is a ConfigError naming the file,
    line and column."""
    with open(path) as f:
        text = f.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg)
        ) from exc


def checkpoint_save(state, path) -> None:
    modes = geometry(state.V.N).modes
    rec = np.empty(len(modes), dtype=_REC_DTYPE)
    rec["n"] = modes
    c = rec["c"].view(np.complex128)  # written in place: no copy of the state
    c[:, :3], c[:, 3:] = state.V.coeffs, state.B.coeffs
    with atomic_open(path, "wb") as f:
        f.write(
            _HEADER.pack(
                MAGIC, VERSION, state.V.N, state.nu, state.eta, state.t, len(modes)
            )
        )
        f.write(rec)


def checkpoint_load(path):
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise CheckpointError("unexpected end of checkpoint")
    magic, version, N, nu, eta, t, count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CheckpointError("bad magic %r" % magic)
    if version != VERSION:
        raise CheckpointError("unsupported checkpoint version %d" % version)
    if len(data) != _HEADER.size + count * _REC_DTYPE.itemsize:
        raise CheckpointError("checkpoint of %d bytes does not hold the %d records its "
                              "header announces" % (len(data), count))
    # A ball of radius N >= 1 holds at least N^3 modes: check before building it.
    if N < 1 or N**3 > count:
        raise CheckpointError("radius %d does not fit the %d records" % (N, count))
    rec = np.frombuffer(data, dtype=_REC_DTYPE, offset=_HEADER.size)
    if not np.array_equal(rec["n"], geometry(N).modes):
        raise CheckpointError("records must hold every mode of the ball once, in order")
    c = rec["c"].copy().view(np.complex128)  # (K, 6): V, then B
    try:
        V = SpectralField(N, c[:, :3]).validate()
        B = SpectralField(N, c[:, 3:]).validate()
    except Exception as exc:
        raise CheckpointError(str(exc)) from exc
    return MhdState(V=V, B=B, t=t, nu=nu, eta=eta)


class TraceArchive:
    """Directory holding a manifest, a CSV time series and checkpoints."""

    def __init__(self, root):
        self.root = Path(root)
        self._manifest = None  # the manifest as written, or as read by load
        self._columns = None
        self._csv_file = None
        self._writer = None
        self._last_t = None

    # -- writer side ---------------------------------------------------------

    @classmethod
    def create(cls, root, manifest: dict) -> "TraceArchive":
        arch = cls(root)
        arch.root.mkdir(parents=True, exist_ok=True)
        (arch.root / "checkpoints").mkdir(exist_ok=True)
        arch._write_manifest(manifest)
        arch._csv_file = open(arch.root / "series.csv", "w", newline="")
        arch._writer = csv.writer(arch._csv_file)
        return arch

    def append(self, row: dict) -> None:
        if self._writer is None:
            raise TraceError("archive not opened for writing")
        if self._columns is None:
            self._columns = list(row.keys())
            self._writer.writerow(self._columns)
        t = row["t"]
        if self._last_t is not None and not t > self._last_t:
            raise TraceError("sample times must increase strictly")
        self._last_t = t
        self._writer.writerow([repr(float(row[c])) for c in self._columns])
        self._csv_file.flush()

    def save_checkpoint(self, state, step: int) -> None:
        checkpoint_save(state, self.root / "checkpoints" / ("step_%08d.bin" % step))

    def update_manifest(self, extra: dict) -> None:
        man = self.manifest
        man.update(extra)
        self._write_manifest(man)

    def _write_manifest(self, man: dict) -> None:
        text = json.dumps(man, indent=1, sort_keys=True)
        with atomic_open(self.root / "manifest.json") as f:
            f.write(text)
        self._manifest = json.loads(text)

    def finalize(self) -> None:
        if self._csv_file is not None:
            self._csv_file.close()
            self._csv_file = None
            self._writer = None

    # -- reader side ---------------------------------------------------------

    @classmethod
    def load(cls, root) -> "TraceArchive":
        """The archive at ``root``.  Its manifest must name positive nu and
        eta, a finite number or null as delta and as sigma, and a finite t0
        if it has one."""
        arch = cls(root)
        path = arch.root / "manifest.json"
        if not path.exists():
            raise TraceError("no manifest in %s" % root)
        try:
            man = arch._manifest = read_json(path)
        except ConfigError as exc:
            raise TraceError(str(exc)) from exc
        cfg = man.get("config") if isinstance(man, dict) else None
        if not all(isinstance(cfg, dict) and _is_number(cfg.get(k)) and cfg[k] > 0
                   for k in ("nu", "eta")):
            raise TraceError("%s: not an object whose config holds positive numbers nu and eta"
                             % path)
        for key in ("delta", "sigma", "t0"):  # delta and sigma are null without their columns
            v = man.get(key, 0.0)
            if not (_is_number(v) and math.isfinite(v) or v is None and key != "t0"):
                raise TraceError("%s: %r must be a finite number%s, got %r"
                                 % (path, key, "" if key == "t0" else " or null", v))
        arch._read()
        return arch

    def _read(self):
        """Parse series.csv; TraceError if no row follows the header or a row
        is not one number per column, as a run killed mid-row leaves it."""
        path = self.root / "series.csv"
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        if len(rows) < 2:
            raise TraceError("%s holds no sample" % path)
        self._columns = rows[0]
        data = []
        for line, r in enumerate(rows[1:], start=2):
            if len(r) != len(self._columns):
                raise TraceError("%s line %d: %d fields where the header has %d"
                                 % (path, line, len(r), len(self._columns)))
            try:
                data.append([float(x) for x in r])
            except ValueError as exc:
                raise TraceError("%s line %d: %s" % (path, line, exc)) from exc
        self._data = np.array(data, dtype=float)

    @property
    def manifest(self) -> dict:
        """A copy of the manifest, as written or as read by ``load``."""
        return copy.deepcopy(self._manifest)

    @property
    def columns(self):
        return list(self._columns)

    def has_col(self, name: str) -> bool:
        return name in self._columns

    def col(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise TraceError("trace has no column %r" % name)
        return self._data[:, self._columns.index(name)]

    @property
    def times(self) -> np.ndarray:
        return self.col("t")

    def checkpoint_paths(self):
        d = self.root / "checkpoints"
        if not d.exists():
            return []
        return sorted(d.glob("step_*.bin"))

    def checkpoints(self):
        """Load every stored checkpoint, sorted by time."""
        states = [checkpoint_load(p) for p in self.checkpoint_paths()]
        states.sort(key=lambda s: s.t)
        return states
