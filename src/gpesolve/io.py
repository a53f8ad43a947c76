"""File formats and atomic output helpers.

Field dump format ("GPEF"): 4-byte magic, little-endian uint32 version,
then d, M, L stored as 8-byte floats, then the M^d complex values as
little-endian (real, imag) float64 pairs in row-major order.
"""

from __future__ import annotations

import csv
import io as _io
import os
import struct
import tempfile

import numpy as np

from .optim import IterationRecord
from .spectral import Grid, WaveField

MAGIC = b"GPEF"
VERSION = 1
HEADER_BYTES = 32  # magic, version, then d, M, L


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a temporary file and rename, so readers never see partials."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_field(path: str, phi: WaveField) -> None:
    g = phi.grid
    header = MAGIC + struct.pack("<I", VERSION) + struct.pack("<3d", float(g.d), float(g.M), g.L)
    flat = np.ascontiguousarray(phi.values, dtype=np.complex128).ravel()
    payload = flat.astype("<c16").tobytes()
    atomic_write_bytes(path, header + payload)


def load_field(path: str) -> WaveField:
    """Read a GPEF dump; a malformed file raises ValueError naming `path`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: not a GPEF field dump")
    if len(data) < HEADER_BYTES:
        raise ValueError(f"{path}: truncated header ({len(data)} of {HEADER_BYTES} bytes)")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported GPEF version {version}")
    d_f, m_f, box = struct.unpack_from("<3d", data, 8)
    payload = len(data) - HEADER_BYTES
    if payload % 16:
        raise ValueError(f"{path}: payload of {payload} bytes is not a multiple of 16")
    flat = np.frombuffer(data, dtype="<c16", offset=HEADER_BYTES)
    try:
        if not (d_f.is_integer() and m_f.is_integer()):
            raise ValueError(f"header gives d = {d_f!r}, M = {m_f!r}, not integers")
        d, m = int(d_f), int(m_f)
        if d not in (1, 2, 3) or flat.size != m**d:  # checked first: a corrupt M must not allocate
            raise ValueError(f"payload has {flat.size} values, header gives d = {d}, M = {m}")
        grid = Grid(d, box, m)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return WaveField(grid, flat.reshape(grid.shape).astype(np.complex128))


def records_csv_text(records: list[IterationRecord], inner_iters: bool = False) -> str:
    """Convergence-history CSV; wall_time is the last column so that the
    numeric payload of deterministic reruns compares bitwise without it."""
    buf = _io.StringIO()
    fields = list(IterationRecord.CSV_FIELDS)
    if inner_iters:
        fields.insert(-1, "inner_iters")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for rec in records:
        row = []
        for name in fields:
            value = getattr(rec, name)
            if isinstance(value, float):
                row.append(repr(value))
            else:
                row.append(int(value) if isinstance(value, bool) else value)
        writer.writerow(row)
    return buf.getvalue()


def write_records_csv(path: str, records: list[IterationRecord], inner_iters: bool = False) -> None:
    atomic_write_text(path, records_csv_text(records, inner_iters))


def write_density_csv(path: str, phi: WaveField) -> None:
    """One row per grid node: coordinates then |phi|^2, row-major order,
    each number as its repr.  The text is built in blocks, one per leading
    index, from the strings of the trailing coordinates formed once."""
    g = phi.grid
    xs = [repr(x) for x in g.x1.tolist()]
    tails = [""]  # the trailing coordinates of each row of a block, each ending in ","
    for _ in range(g.d - 1):
        tails = [t + x + "," for t in tails for x in xs]
    dens = (np.abs(phi.values.ravel()) ** 2).reshape(g.M, -1)
    blocks = [",".join(["x", "y", "z"][: g.d] + ["density"]).encode()]
    for x, row in zip(xs, dens):
        head = x + ","
        blocks.append("\n".join([head + t + repr(v) for t, v in zip(tails, row.tolist())]).encode())
    blocks.append(b"")
    atomic_write_bytes(path, b"\n".join(blocks))


def write_summary(path: str, summary: dict) -> None:
    lines = [f"{key} = {value}" for key, value in summary.items()]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_table_csv(path: str, rows: list[dict], fields: list[str]) -> None:
    buf = _io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())
