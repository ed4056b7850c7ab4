"""Multimodal column plumbing (images / audio / video as opaque binary).

Decode support is tiered:

- ``decoder="builtin"`` REALLY decodes the formats that need no external
  library: RIFF/WAVE PCM audio (stdlib ``wave``), binary PPM (P6) and
  uncompressed 24-bit BMP images (pure numpy header parsing). Features
  are computed from the decoded samples/pixels (FFT band energies,
  channel statistics, a nearest-neighbor-resized grayscale thumbnail).
  Unsupported mimes raise NotImplementedError — never a silent
  fallback.
- codec formats (JPEG/PNG/MP4...) need libraries NOT in this container,
  so they remain STUBS behind the ``decoder=`` hook: ``decoder=None``
  raises NotImplementedError at the decode call site (clearly marked),
  ``decoder="fake"`` derives deterministic pseudo features from the
  payload bytes so the Ray-side plumbing — schema, actor-pool
  signature, small-batch sizing, output layout — is testable for any
  mime.

Design points that survive to production unchanged:
- payloads stay ``binary`` columns in ``batch_format="pyarrow"`` end to
  end (nested/binary columns do not round-trip pandas safely);
- decode stages are ACTOR POOLS (model/codec loaded once per actor in
  ``__init__``) with SMALL ``batch_size`` — a batch times concurrency of
  decoded frames must fit the worker heap;
- outputs are fixed-width feature columns + typed metadata, never
  re-encoded blobs, so downstream stages shuffle numbers, not media.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),          # image | audio | video
        ("payload", pa.binary()),
        ("mime", pa.string()),
        ("width", pa.int32()),          # -1 when unknown
        ("height", pa.int32()),
        ("duration_ms", pa.int32()),
    ]
)


def _synth_wav(rng: np.random.Generator, ms: int, rate: int = 8000) -> bytes:
    """Tiny deterministic PCM16 WAV: sine + noise."""
    import io
    import wave

    t = np.arange(int(rate * ms / 1000)) / rate
    f = float(rng.integers(100, 1200))
    x = 0.6 * np.sin(2 * np.pi * f * t) + 0.1 * rng.standard_normal(t.size)
    pcm = (np.clip(x, -1, 1) * 32767).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(pcm.tobytes())
    return buf.getvalue()


def _synth_ppm(rng: np.random.Generator, w: int, h: int) -> bytes:
    img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    return b"P6\n%d %d\n255\n" % (w, h) + img.tobytes()


def synth_media_table(n: int, seed: int = 42, payload_bytes: int = 4096) -> pa.Table:
    """Deterministic media rows: REAL decodable payloads for audio (WAV
    PCM16) and image (binary PPM) so ``decoder='builtin'`` exercises an
    actual decode; video stays an opaque pseudo-payload (mp4 decode
    needs codecs absent here)."""
    rng = np.random.default_rng(seed)
    kinds = ["image", "audio", "video"]
    rows = {k.name: [] for k in MEDIA_SCHEMA}
    for i in range(n):
        kind = kinds[i % 3]
        rows["media_id"].append(i)
        rows["kind"].append(kind)
        if kind == "image":
            w, h = int(rng.integers(8, 48)), int(rng.integers(8, 48))
            rows["payload"].append(_synth_ppm(rng, w, h))
            rows["mime"].append("image/x-portable-pixmap")
            rows["width"].append(w)
            rows["height"].append(h)
            rows["duration_ms"].append(-1)
        elif kind == "audio":
            ms = int(rng.integers(50, 400))
            rows["payload"].append(_synth_wav(rng, ms))
            rows["mime"].append("audio/wav")
            rows["width"].append(-1)
            rows["height"].append(-1)
            rows["duration_ms"].append(ms)
        else:
            rows["payload"].append(rng.integers(0, 256, payload_bytes,
                                                dtype=np.uint8).tobytes())
            rows["mime"].append("video/mp4")
            rows["width"].append(int(rng.integers(64, 1920)))
            rows["height"].append(int(rng.integers(64, 1080)))
            rows["duration_ms"].append(int(rng.integers(500, 60000)))
    return pa.table(rows, schema=MEDIA_SCHEMA)


def _fake_features(payload: bytes, dim: int) -> np.ndarray:
    """Deterministic pseudo-embedding from payload bytes (stub decode)."""
    h = hashlib.blake2b(payload, digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(h, "little"))
    return rng.standard_normal(dim).astype(np.float32)


# -- real decoders for library-free formats --------------------------------

def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """RIFF/WAVE PCM -> (mono float32 samples in [-1, 1], sample_rate).
    Stdlib ``wave`` only; 8/16/32-bit PCM."""
    import io
    import wave

    with wave.open(io.BytesIO(payload), "rb") as w:
        n, ch, width, rate = (w.getnframes(), w.getnchannels(),
                              w.getsampwidth(), w.getframerate())
        raw = w.readframes(n)
    if width == 2:
        x = np.frombuffer(raw, dtype="<i2").astype(np.float32) / 32768.0
    elif width == 4:
        x = np.frombuffer(raw, dtype="<i4").astype(np.float32) / 2147483648.0
    elif width == 1:
        x = (np.frombuffer(raw, dtype=np.uint8).astype(np.float32)
             - 128.0) / 128.0
    else:
        raise NotImplementedError(f"unsupported PCM width {width}")
    if ch > 1:
        x = x[: (x.size // ch) * ch].reshape(-1, ch).mean(axis=1)
    return x, rate


def _parse_pnm_header(payload: bytes, magic: bytes,
                      nfields: int) -> tuple[list[int], int]:
    """Shared binary-PNM header scan: ``magic <ws> field...<single ws>
    data``; '#' comment lines skipped. Returns (fields, data_offset)."""
    if not payload.startswith(magic):
        raise NotImplementedError(
            f"expected {magic.decode()} PNM payload")
    pos, fields = len(magic), []
    while len(fields) < nfields:
        while pos < len(payload) and payload[pos : pos + 1].isspace():
            pos += 1
        if payload[pos : pos + 1] == b"#":          # comment line
            pos = payload.index(b"\n", pos) + 1
            continue
        start = pos
        while pos < len(payload) and not payload[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(payload[start:pos]))
    return fields, pos + 1                          # single whitespace


def decode_ppm(payload: bytes) -> np.ndarray:
    """Binary PPM (P6, maxval 255) -> (H, W, 3) uint8."""
    (w, h, maxval), pos = _parse_pnm_header(payload, b"P6", 3)
    if maxval != 255:
        raise NotImplementedError("PPM maxval != 255")
    data = np.frombuffer(payload, dtype=np.uint8, count=h * w * 3,
                         offset=pos)
    return data.reshape(h, w, 3)


def decode_pgm(payload: bytes) -> np.ndarray:
    """Binary PGM (P5, maxval 255) -> (H, W) uint8 grayscale."""
    (w, h, maxval), pos = _parse_pnm_header(payload, b"P5", 3)
    if maxval != 255:
        raise NotImplementedError("PGM maxval != 255")
    return np.frombuffer(payload, dtype=np.uint8, count=h * w,
                         offset=pos).reshape(h, w)


def decode_pbm(payload: bytes) -> np.ndarray:
    """Binary PBM (P4) -> (H, W) uint8 in {0, 255} (1 bit = black ->
    0; rows packed MSB-first, padded to whole bytes)."""
    (w, h), pos = _parse_pnm_header(payload, b"P4", 2)
    stride = (w + 7) // 8
    rows = np.frombuffer(payload, dtype=np.uint8, count=h * stride,
                         offset=pos).reshape(h, stride)
    bits = np.unpackbits(rows, axis=1)[:, :w]
    return np.where(bits == 1, 0, 255).astype(np.uint8)


def decode_bmp(payload: bytes) -> np.ndarray:
    """Uncompressed 24-bit BMP (BI_RGB) -> (H, W, 3) uint8 (RGB)."""
    if payload[:2] != b"BM":
        raise NotImplementedError("not a BMP payload")
    off = int.from_bytes(payload[10:14], "little")
    w = int.from_bytes(payload[18:22], "little", signed=True)
    h = int.from_bytes(payload[22:26], "little", signed=True)
    bpp = int.from_bytes(payload[28:30], "little")
    comp = int.from_bytes(payload[30:34], "little")
    if bpp != 24 or comp != 0:
        raise NotImplementedError("only uncompressed 24-bit BMP supported")
    flip = h > 0                       # positive height = bottom-up rows
    h = abs(h)
    stride = (w * 3 + 3) & ~3          # rows padded to 4 bytes
    rows = np.frombuffer(payload, dtype=np.uint8, count=h * stride,
                         offset=off).reshape(h, stride)
    img = rows[:, : w * 3].reshape(h, w, 3)[..., ::-1]    # BGR -> RGB
    return img[::-1] if flip else img


def image_resize_nn(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize via index gather (no image library)."""
    h, w = img.shape[:2]
    ri = np.minimum((np.arange(out_h) * h) // out_h, h - 1)
    ci = np.minimum((np.arange(out_w) * w) // out_w, w - 1)
    return img[ri[:, None], ci[None, :]]


def _audio_features(payload: bytes, dim: int) -> np.ndarray:
    x, rate = decode_wav(payload)
    out = np.zeros(dim, dtype=np.float32)
    if x.size == 0:
        return out
    stats = [x.size / rate, float(np.sqrt(np.mean(x * x))),
             float(np.abs(x).max()), float(x.mean()), float(x.std()),
             float(np.mean(np.abs(np.diff(np.signbit(x).astype(np.int8)))))]
    spec = np.abs(np.fft.rfft(x))
    n_bands = max(1, dim - len(stats))
    bands = [float(b.mean()) if b.size else 0.0
             for b in np.array_split(spec, n_bands)]
    vec = np.asarray(stats + bands, dtype=np.float32)[:dim]
    out[: vec.size] = vec
    return out


def _image_features(img: np.ndarray, dim: int) -> np.ndarray:
    h, w = img.shape[:2]
    f = img.astype(np.float32)
    stats = [float(h), float(w),
             *(float(v) for v in f.mean(axis=(0, 1))),
             *(float(v) for v in f.std(axis=(0, 1)))]
    gray = f.mean(axis=2)
    thumb = image_resize_nn(gray, 4, 4).reshape(-1) / 255.0
    vec = np.asarray(stats + thumb.tolist(), dtype=np.float32)[:dim]
    out = np.zeros(dim, dtype=np.float32)
    out[: vec.size] = vec
    return out


def builtin_decoder(payload: bytes, mime: str, dim: int = 64) -> np.ndarray:
    """Real decode for library-free formats; everything else raises."""
    if mime in ("audio/wav", "audio/x-wav"):
        return _audio_features(payload, dim)
    if mime == "image/x-portable-pixmap":
        return _image_features(decode_ppm(payload), dim)
    if mime == "image/x-portable-graymap":
        g = decode_pgm(payload)
        return _image_features(np.repeat(g[..., None], 3, axis=2), dim)
    if mime == "image/x-portable-bitmap":
        g = decode_pbm(payload)
        return _image_features(np.repeat(g[..., None], 3, axis=2), dim)
    if mime in ("image/bmp", "image/x-ms-bmp"):
        return _image_features(decode_bmp(payload), dim)
    raise NotImplementedError(
        f"builtin decoder has no codec for {mime!r} (JPEG/PNG/MP4 need "
        "libraries not present in this container); pass decoder=callable "
        "or decoder='fake'")


class MediaFeatureExtractor:
    """Actor-pool decode + feature-extract stage.

    STUB: a real deployment passes ``decoder=callable(payload, mime) ->
    np.ndarray``; the default raises NotImplementedError (decode libs
    absent in this environment), ``"fake"`` produces deterministic
    features so the pipeline shape is testable.
    """

    def __init__(self, dim: int = 64, decoder="fake"):
        self.dim = dim
        if decoder == "fake":
            self.decode = lambda payload, mime: _fake_features(payload, dim)
        elif decoder == "builtin":
            self.decode = lambda payload, mime: builtin_decoder(payload,
                                                               mime, dim)
        elif callable(decoder):
            self.decode = decoder
        else:
            def _missing(payload, mime):
                raise NotImplementedError(
                    "media decode requires an image/audio library not "
                    "present in this container; pass decoder=callable, "
                    "decoder='builtin' (wav/ppm/bmp) or decoder='fake'")
            self.decode = _missing

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = [self.decode(p, m) for p, m in
                 zip(batch["payload"].to_pylist(), batch["mime"].to_pylist())]
        return pa.table(
            {
                "media_id": batch["media_id"],
                "kind": batch["kind"],
                "feature": pa.array([f.tolist() for f in feats],
                                    pa.list_(pa.float32())),
            }
        )


def extract_media_features(ds, dim: int = 64, decoder="fake",
                           concurrency: int = 2, batch_size: int = 32):
    """Binary payloads -> fixed-width feature vectors (actor pool, small
    batches: payload_bytes x batch_size x concurrency bounds heap)."""
    class _Stage(MediaFeatureExtractor):
        def __init__(self):
            super().__init__(dim=dim, decoder=decoder)

    return ds.map_batches(_Stage, batch_format="pyarrow",
                          concurrency=concurrency, batch_size=batch_size)


class FrameSampler:
    """Video frame-sampling plumbing: emits (media_id, frame_idx, ts_ms)
    rows for every sampled frame; the pixel decode itself is the same
    stub hook as above."""

    def __init__(self, every_ms: int = 1000):
        self.every_ms = every_ms

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, fidx, ts = [], [], []
        for mid, kind, dur in zip(batch["media_id"].to_pylist(),
                                  batch["kind"].to_pylist(),
                                  batch["duration_ms"].to_pylist()):
            if kind != "video" or dur <= 0:
                continue
            times = list(range(0, dur, self.every_ms))
            ids.extend([mid] * len(times))
            fidx.extend(range(len(times)))
            ts.extend(times)
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "frame_idx": pa.array(fidx, pa.int32()),
                "ts_ms": pa.array(ts, pa.int32()),
            }
        )


def sample_frames(ds, every_ms: int = 1000, batch_size: int = 64):
    # stateless -> plain function (cheap elastic tasks, no actor pool)
    sampler = FrameSampler(every_ms=every_ms)
    return ds.map_batches(lambda b: sampler(b), batch_format="pyarrow",
                          batch_size=batch_size)


def decode_image(payload: bytes, mime: str) -> np.ndarray:
    """Raw (h, w, 3) uint8 decode for the library-free image formats;
    codec formats raise loudly (same contract as builtin_decoder)."""
    if mime == "image/x-portable-pixmap":
        return decode_ppm(payload)
    if mime == "image/x-portable-graymap":
        return np.repeat(decode_pgm(payload)[..., None], 3, axis=2)
    if mime == "image/x-portable-bitmap":
        return np.repeat(decode_pbm(payload)[..., None], 3, axis=2)
    if mime in ("image/bmp", "image/x-ms-bmp"):
        return decode_bmp(payload)
    raise NotImplementedError(
        f"no builtin raw decode for {mime!r} (JPEG/PNG need libraries "
        "not present in this container); pass a decoder callable")


def dhash64(img: np.ndarray) -> np.uint64:
    """Difference-hash perceptual signature: grayscale -> 8x9 NN
    thumbnail -> 64 adjacent-pixel brightness comparisons packed
    row-major into one uint64. Invariant to global brightness/contrast
    shifts (monotone per-pixel transforms preserve the comparisons)
    and robust to small local noise — the standard cheap image
    near-dup signature."""
    gray = img.astype(np.float32).mean(axis=2)
    t = image_resize_nn(gray, 8, 9)
    bits = (t[:, 1:] > t[:, :-1]).reshape(-1)
    return np.uint64(np.packbits(bits).view(">u8")[0])


class ImageDHasher:
    """Actor-pool stage: binary image payloads -> 64-bit dHash rows.
    Setup (decoder resolution) once per actor; per-payload decode in
    __call__ (decode is inherently per-payload — the batch loop is the
    honest shape here, payload bytes dominate the cost)."""

    def __init__(self, decoder=None):
        self.decode = decoder or decode_image

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = [int(dhash64(self.decode(p, m)))
                for p, m in zip(batch["payload"].to_pylist(),
                                batch["mime"].to_pylist())]
        return pa.table({
            "media_id": batch["media_id"].cast(pa.int64()),
            "phash": pa.array(np.asarray(sigs, dtype=np.uint64)
                              .view(np.int64))})


def image_dhash(ds, decoder=None, concurrency: int = 2,
                batch_size: int = 64):
    """(media_id, phash int64-viewed-uint64) for every image row."""
    class _Stage(ImageDHasher):
        def __init__(self):
            super().__init__(decoder=decoder)

    return ds.map_batches(_Stage, batch_format="pyarrow",
                          concurrency=concurrency, batch_size=batch_size)


def perturb_ppm(payload: bytes, seed: int, flips: int = 12) -> bytes:
    """Deterministically nudge a few pixels of a binary PPM (re-encode
    valid P6) — the planted near-duplicate generator for tests/demos."""
    img = decode_ppm(payload).copy()
    rng = np.random.default_rng(seed)
    h, w, _ = img.shape
    ys = rng.integers(0, h, flips)
    xs = rng.integers(0, w, flips)
    cs = rng.integers(0, 3, flips)
    delta = rng.integers(1, 8, flips).astype(np.int16)
    v = img[ys, xs, cs].astype(np.int16)
    img[ys, xs, cs] = np.clip(v + delta, 0, 255).astype(np.uint8)
    head = f"P6\n{w} {h}\n255\n".encode()
    return head + img.tobytes()


def audio_phash64(payload: bytes) -> np.uint64:
    """64-bit perceptual audio fingerprint (the dHash idea on the
    FREQUENCY axis): decode WAV, take the magnitude spectrum, pool it
    into 65 bands, bit i = band[i+1] > band[i]. Difference coding of
    the spectral envelope is invariant to amplitude scaling and robust
    to small additive noise (a tiny perturbation can't reorder bands
    that differ materially), while different tones/envelopes flip many
    bits — unlike time-slice energies, which are FLAT for steady tones
    and would hash to noise."""
    x, _ = decode_wav(payload)
    x = x.astype(np.float64)
    if x.size < 130:
        x = np.pad(x, (0, 130 - x.size))
    spec = np.abs(np.fft.rfft(x))
    n = spec.size - (spec.size % 65)
    bands = spec[:n].reshape(65, -1).mean(axis=1)
    bits = bands[1:] > bands[:-1]
    return np.uint64(np.packbits(bits).view(">u8")[0])


class AudioFingerprinter:
    """Actor-pool stage: WAV payloads -> 64-bit perceptual fingerprint
    rows (same shape as ImageDHasher; decode is per-payload)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = [int(audio_phash64(p))
                for p in batch["payload"].to_pylist()]
        return pa.table({
            "media_id": batch["media_id"].cast(pa.int64()),
            "phash": pa.array(np.asarray(sigs, dtype=np.uint64)
                              .view(np.int64))})


def audio_fingerprints(ds, concurrency: int = 2, batch_size: int = 64):
    """(media_id, phash int64-viewed-uint64) for every audio row."""
    return ds.map_batches(AudioFingerprinter, batch_format="pyarrow",
                          concurrency=concurrency,
                          batch_size=batch_size)


def perturb_wav(payload: bytes, seed: int, noise: float = 1e-3) -> bytes:
    """Deterministically add tiny sample noise to a PCM16 WAV
    (re-encode keeps the header) — the planted-near-dup generator for
    fingerprint tests."""
    import struct

    x, rate = decode_wav(payload)          # normalized float32
    rng = np.random.default_rng(seed)
    y = x.astype(np.float64) + rng.standard_normal(x.size) * noise
    y = (np.clip(y, -1.0, 1.0) * 32767).astype("<i2")
    data = y.tobytes()
    hdr = payload[:44]
    # patch the data-chunk + RIFF sizes for the (same-length) body
    return (hdr[:4] + struct.pack("<I", 36 + len(data)) + hdr[8:40]
            + struct.pack("<I", len(data)) + data)


# ----------------------------------------------------------------- video

_MJPG_MAGIC = b"MJPGv1\x00"


def synth_video_table(n_videos: int, seed: int = 42,
                      frames: int = 24, w: int = 24, h: int = 16,
                      scene_len: int = 8) -> pa.Table:
    """Deterministic synthetic 'videos': a length-prefixed
    concatenation of raw PPM frames under an ``MJPGv1`` header (the
    honest stand-in for a real container — frame EXTRACTION plumbing
    is real, codec parsing stays out of scope, same contract as the
    image/audio synth). Frames are constant within a scene and change
    at every ``scene_len`` boundary — planted scene cuts the
    keyframe detector must recover exactly."""
    import struct

    rng = np.random.default_rng(seed)
    rows = {"video_id": [], "payload": [], "mime": [],
            "n_frames": []}
    for vid in range(n_videos):
        parts = [_MJPG_MAGIC, struct.pack("<I", frames)]
        scene_img = None
        for f in range(frames):
            if f % scene_len == 0:
                scene_img = rng.integers(
                    0, 256, (h, w, 3)).astype(np.uint8)
            blob = (f"P6\n{w} {h}\n255\n".encode()
                    + scene_img.tobytes())
            parts.append(struct.pack("<I", len(blob)) + blob)
        rows["video_id"].append(vid)
        rows["payload"].append(b"".join(parts))
        rows["mime"].append("video/x-mjpg-synth")
        rows["n_frames"].append(frames)
    return pa.table({
        "video_id": pa.array(rows["video_id"], pa.int64()),
        "payload": pa.array(rows["payload"], pa.binary()),
        "mime": pa.array(rows["mime"], pa.string()),
        "n_frames": pa.array(rows["n_frames"], pa.int64())})


def decode_mjpg_frames(payload: bytes):
    """Parse the MJPGv1 container -> list of HxWx3 uint8 frames.
    Anything else raises NotImplementedError (real MP4/H.264 needs
    codec libraries not present in this container)."""
    import struct

    if not payload.startswith(_MJPG_MAGIC):
        raise NotImplementedError(
            "only the MJPGv1 synthetic container decodes here; real "
            "video codecs need libraries not present in this image")
    off = len(_MJPG_MAGIC)
    (n,) = struct.unpack_from("<I", payload, off)
    off += 4
    frames = []
    for _ in range(n):
        (ln,) = struct.unpack_from("<I", payload, off)
        off += 4
        frames.append(decode_ppm(payload[off:off + ln]))
        off += ln
    return frames


class VideoFrameSampler:
    """Actor-pool stage: video payloads -> one row per SAMPLED frame
    (stride subsampling — the decode-bound step a real pipeline
    shards over actors) with the frame's 64-bit dHash. Container
    parsing is set up once per actor; payload bytes dominate."""

    def __init__(self, stride: int = 1):
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        vids, idxs, sigs = [], [], []
        for vid, p in zip(batch["video_id"].to_pylist(),
                          batch["payload"].to_pylist()):
            frames = decode_mjpg_frames(p)
            for i in range(0, len(frames), self.stride):
                vids.append(vid)
                idxs.append(i)
                sigs.append(int(dhash64(frames[i])))
        return pa.table({
            "video_id": pa.array(vids, pa.int64()),
            "frame_idx": pa.array(idxs, pa.int64()),
            "dhash": pa.array(np.asarray(sigs, dtype=np.uint64)
                              .view(np.int64))})


def sample_video_frames(ds, stride: int = 1, concurrency: int = 2,
                        batch_size: int = 8):
    """(video_id, frame_idx, dhash) for every stride-th frame."""
    class _Stage(VideoFrameSampler):
        def __init__(self):
            super().__init__(stride=stride)

    return ds.map_batches(_Stage, batch_format="pyarrow",
                          concurrency=concurrency,
                          batch_size=batch_size)


def detect_scene_cuts(frame_ds, min_hamming: int = 8):
    """Scene-cut rows (video_id, frame_idx, hamming) wherever the
    dHash hamming distance to the PREVIOUS sampled frame exceeds the
    threshold — a coarse-partition sweep per video (sort by
    (video, frame), vectorized popcount on adjacent xors)."""
    import pandas as pd

    from tldr_ray.hashing import keyed_sweep

    def sweep(grp: pd.DataFrame) -> pd.DataFrame:
        if not len(grp):
            return pd.DataFrame({"video_id": [], "frame_idx": [],
                                 "hamming": []})
        g = grp.sort_values(["video_id", "frame_idx"],
                            kind="mergesort")
        v = g["video_id"].to_numpy(np.int64)
        f = g["frame_idx"].to_numpy(np.int64)
        h = g["dhash"].to_numpy(np.int64).view(np.uint64)
        same = np.empty(v.size, dtype=bool)
        same[0], same[1:] = False, v[1:] == v[:-1]
        x = np.zeros(v.size, np.uint64)
        x[1:] = h[1:] ^ h[:-1]
        ham = np.zeros(v.size, np.int64)
        m = x.view(np.uint8).reshape(-1, 8)
        ham = np.unpackbits(m, axis=1).sum(axis=1).astype(np.int64)
        keep = same & (ham >= min_hamming)
        return pd.DataFrame({"video_id": v[keep],
                             "frame_idx": f[keep],
                             "hamming": ham[keep]})

    return keyed_sweep(frame_ds, "video_id", sweep, 32)
