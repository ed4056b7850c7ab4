"""DVB — a delta-varint/RLE binary columnar blob codec.

A minimal bespoke encoding (magic ``DVB1``) exercising the two
workhorse lightweight compression schemes real columnar engines use:

- int64 columns: delta (vs previous value) -> zigzag -> LEB128 varint.
  Sorted-ish id/timestamp columns collapse to ~1 byte per row.
- string columns: sorted dictionary + run-length encoding (run codes
  and run lengths both varint).

Everything is vectorized numpy — the encoder touches each value a
bounded number of times (one pass per varint byte position, max 10),
the decoder reconstructs values with one ``np.add.at`` scatter; there
is no per-row Python in either direction. One blob per Ray block via
``sinks.write_table(format="dvb")`` / ``sources.read_table`` — the
same file-per-task sharded layout as the ORC/Avro/Arrow blob formats.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

_MAGIC = b"DVB1"
_TAG_INT64 = 0
_TAG_STR_RLE = 1


# --------------------------------------------------------------- varint

def varint_encode(u: np.ndarray) -> np.ndarray:
    """LEB128-encode a uint64 array -> uint8 payload (vectorized:
    one fill pass per byte position)."""
    u = np.ascontiguousarray(u, dtype=np.uint64)
    if u.size == 0:
        return np.zeros(0, np.uint8)
    nb = np.ones(u.size, np.int64)
    for k in range(1, 10):
        nb += u >= (np.uint64(1) << np.uint64(7 * k))
    ends = np.cumsum(nb)
    starts = ends - nb
    out = np.zeros(int(ends[-1]), np.uint8)
    for k in range(10):
        m = nb > k
        if not m.any():
            break
        vals = ((u[m] >> np.uint64(7 * k))
                & np.uint64(0x7F)).astype(np.uint8)
        cont = ((nb[m] > k + 1).astype(np.uint8)) << 7
        out[starts[m] + k] = vals | cont
    return out


def varint_decode(b: np.ndarray, n_values: int) -> np.ndarray:
    """Inverse of :func:`varint_encode` (vectorized scatter)."""
    b = np.ascontiguousarray(b, dtype=np.uint8)
    if n_values == 0:
        return np.zeros(0, np.uint64)
    is_end = (b & 0x80) == 0
    ends = np.flatnonzero(is_end)
    if ends.size != n_values:
        raise ValueError(
            f"varint payload holds {ends.size} values, "
            f"expected {n_values}")
    starts = np.empty(n_values, np.int64)
    starts[0], starts[1:] = 0, ends[:-1] + 1
    vid = np.zeros(b.size, np.int64)
    vid[1:] = np.cumsum(is_end)[:-1]
    pos = np.arange(b.size) - starts[vid]
    vals = np.zeros(n_values, np.uint64)
    contrib = (b & np.uint8(0x7F)).astype(np.uint64) \
        << (np.uint64(7) * pos.astype(np.uint64))
    np.add.at(vals, vid, contrib)      # disjoint 7-bit lanes
    return vals


def _zigzag(x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.int64)
    return ((x << np.int64(1)) ^ (x >> np.int64(63))).view(np.uint64)


def _unzigzag(u: np.ndarray) -> np.ndarray:
    u = np.ascontiguousarray(u, dtype=np.uint64)
    return ((u >> np.uint64(1))
            ^ (np.uint64(0) - (u & np.uint64(1)))).view(np.int64)


# ----------------------------------------------------------- column enc

def _encode_int64(arr: np.ndarray) -> bytes:
    delta = np.empty(arr.size, np.int64)
    if arr.size:
        delta[0], delta[1:] = arr[0], np.diff(arr)
    payload = varint_encode(_zigzag(delta)).tobytes()
    return struct.pack("<QQ", arr.size, len(payload)) + payload


def _decode_int64(buf: memoryview, off: int) -> tuple[np.ndarray, int]:
    n, plen = struct.unpack_from("<QQ", buf, off)
    off += 16
    u = varint_decode(np.frombuffer(buf, np.uint8, plen, off), n)
    return np.cumsum(_unzigzag(u)).astype(np.int64), off + plen


def _encode_str_rle(col: pa.ChunkedArray | pa.Array) -> bytes:
    vals = np.asarray(col, dtype=object)
    uniq, codes = np.unique(vals.astype(str), return_inverse=True)
    codes = codes.astype(np.int64)
    if codes.size:
        brk = np.empty(codes.size, dtype=bool)
        brk[0], brk[1:] = True, codes[1:] != codes[:-1]
        starts = np.flatnonzero(brk)
        run_codes = codes[starts]
        run_lens = np.diff(np.append(starts, codes.size))
    else:
        run_codes = run_lens = np.zeros(0, np.int64)
    dic = b"".join(struct.pack("<I", len(e)) + e
                   for e in (s.encode("utf-8") for s in uniq))
    pc_ = varint_encode(run_codes.astype(np.uint64)).tobytes()
    pl = varint_encode(run_lens.astype(np.uint64)).tobytes()
    return (struct.pack("<QIQ", codes.size, uniq.size, len(run_codes))
            + struct.pack("<QQQ", len(dic), len(pc_), len(pl))
            + dic + pc_ + pl)


def _decode_str_rle(buf: memoryview, off: int) -> tuple[pa.Array, int]:
    n, n_dict, n_runs = struct.unpack_from("<QIQ", buf, off)
    off += 20
    dlen, clen, llen = struct.unpack_from("<QQQ", buf, off)
    off += 24
    dic, p = [], off
    for _ in range(n_dict):
        (elen,) = struct.unpack_from("<I", buf, p)
        p += 4
        dic.append(bytes(buf[p:p + elen]).decode("utf-8"))
        p += elen
    off += dlen
    run_codes = varint_decode(
        np.frombuffer(buf, np.uint8, clen, off), n_runs).astype(np.int64)
    off += clen
    run_lens = varint_decode(
        np.frombuffer(buf, np.uint8, llen, off), n_runs).astype(np.int64)
    off += llen
    codes = np.repeat(run_codes, run_lens)
    if codes.size != n:
        raise ValueError("RLE run lengths disagree with row count")
    dic_arr = np.asarray(dic, dtype=object)
    return pa.array(dic_arr[codes] if codes.size else [],
                    pa.string()), off


# ------------------------------------------------------------ blob APIs

def encode_dvb(table: pa.Table) -> bytes:
    """Arrow table -> one DVB blob. int64 and string columns only, without
    nulls: the format has no validity bitmap, so a null column raises
    instead of being written as a made-up value."""
    parts = [_MAGIC, struct.pack("<I", table.num_columns)]
    for name in table.column_names:
        col = table[name]
        if col.null_count:
            raise ValueError(
                f"DVB cannot store nulls; column {name!r} has "
                f"{col.null_count} (fill or drop them before writing)")
        nb = name.encode("utf-8")
        if pa.types.is_int64(col.type):
            parts.append(struct.pack("<H", len(nb)) + nb
                         + bytes([_TAG_INT64]))
            parts.append(_encode_int64(
                np.asarray(col, dtype=np.int64)))
        elif pa.types.is_string(col.type) \
                or pa.types.is_large_string(col.type):
            parts.append(struct.pack("<H", len(nb)) + nb
                         + bytes([_TAG_STR_RLE]))
            parts.append(_encode_str_rle(col))
        else:
            raise TypeError(
                f"DVB supports int64 and string columns; {name!r} "
                f"is {col.type} (cast before writing)")
    return b"".join(parts)


def decode_dvb(buf) -> pa.Table:
    """One DVB blob -> Arrow table."""
    buf = memoryview(buf)
    if bytes(buf[:4]) != _MAGIC:
        raise ValueError("not a DVB blob")
    (n_cols,) = struct.unpack_from("<I", buf, 4)
    off = 8
    names, arrays = [], []
    for _ in range(n_cols):
        (nlen,) = struct.unpack_from("<H", buf, off)
        off += 2
        name = bytes(buf[off:off + nlen]).decode("utf-8")
        off += nlen
        tag = buf[off]
        off += 1
        if tag == _TAG_INT64:
            arr, off = _decode_int64(buf, off)
            arrays.append(pa.array(arr, pa.int64()))
        elif tag == _TAG_STR_RLE:
            a, off = _decode_str_rle(buf, off)
            arrays.append(a)
        else:
            raise ValueError(f"unknown DVB column tag {tag}")
        names.append(name)
    return pa.table(dict(zip(names, arrays)))
