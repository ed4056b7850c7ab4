"""DVB codec (sources/codec.py): varint/zigzag/RLE invariants."""
import numpy as np
import pyarrow as pa
import pytest

from tldr_ray.sources.codec import (decode_dvb, encode_dvb,
                                    varint_decode, varint_encode)


def test_varint_roundtrip_edge_values():
    u = np.array([0, 1, 127, 128, 2**14 - 1, 2**14, 2**32,
                  2**63, 2**64 - 1], dtype=np.uint64)
    assert (varint_decode(varint_encode(u), u.size) == u).all()


def test_varint_roundtrip_random():
    rng = np.random.default_rng(7)
    u = rng.integers(0, 2**63, 10_000).astype(np.uint64) \
        << rng.integers(0, 2, 10_000).astype(np.uint64)
    assert (varint_decode(varint_encode(u), u.size) == u).all()


def test_dvb_table_roundtrip_and_compression():
    n = 5_000
    ids = np.arange(n, dtype=np.int64) * 3 + 17      # sorted ints
    vals = np.random.default_rng(1).integers(
        -10**12, 10**12, n).astype(np.int64)
    cats = np.asarray(["alpha", "beta", "gamma"], dtype=object)[
        np.repeat(np.arange(3), [2000, 2000, 1000]) % 3]
    t = pa.table({"id": pa.array(ids), "v": pa.array(vals),
                  "cat": pa.array(cats, pa.string())})
    blob = encode_dvb(t)
    back = decode_dvb(blob)
    assert back.equals(t)
    # sorted id column should collapse to ~1 byte/row; the whole blob
    # must beat raw width for this mixed table
    raw = n * (8 + 8) + sum(len(s) for s in cats)
    assert len(blob) < raw


def test_dvb_empty_and_errors():
    t = pa.table({"a": pa.array([], pa.int64()),
                  "s": pa.array([], pa.string())})
    assert decode_dvb(encode_dvb(t)).equals(t)
    with pytest.raises(TypeError):
        encode_dvb(pa.table({"f": pa.array([1.5])}))
    with pytest.raises(ValueError):
        decode_dvb(b"NOPE" + b"\x00" * 16)


def test_dvb_empty_strings_and_runs():
    t = pa.table({"s": pa.array(["", "", "x", "x", "x", "", "y"],
                                pa.string())})
    assert decode_dvb(encode_dvb(t)).equals(t)


@pytest.mark.parametrize("col", [pa.array(["a", None, "b"], pa.string()),
                                 pa.array([1, None, 3], pa.int64())])
def test_dvb_refuses_nulls(col):
    # the format has no validity bitmap: a null must not come back as
    # the string 'None' or a made-up integer
    with pytest.raises(ValueError, match="nulls"):
        encode_dvb(pa.table({"c": col}))
