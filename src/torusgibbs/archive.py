"""Binary ensemble archives: a JSON header plus a contiguous little-endian
float64 payload (interleaved re/im, row-major over lattice indices), with a
SHA-256 checksum over the payload.  Round trips are bit exact."""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from .sampling import SampleEnsemble
from .spectral import Lattice

MAGIC = b"TGBS"
FORMAT_VERSION = 1


class ArchiveError(RuntimeError):
    pass


def write_ensemble(path: str, ensemble: SampleEnsemble):
    coefs = np.ascontiguousarray(ensemble.coefs, dtype=np.complex128)
    payload = coefs.view(np.float64)
    if payload.dtype.byteorder == ">" or (payload.dtype.byteorder == "="
                                          and not np.little_endian):
        payload = payload.astype("<f8")
    raw = payload.tobytes()
    header = {
        "format_version": FORMAT_VERSION,
        "dim": ensemble.lattice.dim,
        "n": ensemble.lattice.n,
        "oversample": ensemble.lattice.oversample,
        "count": int(coefs.shape[0]),
        "reality": bool(ensemble.reality),
        "zero_mode": bool(ensemble.zero_mode),
        "seed": ensemble.seed,
        "thinning": ensemble.thinning,
        "layout": "float64 little-endian, interleaved re/im, row-major over "
                  "centered lattice indices",
        "payload_sha256": hashlib.sha256(raw).hexdigest(),
        "meta": ensemble.meta,
    }
    hdr = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HI", FORMAT_VERSION, len(hdr)))
        fh.write(hdr)
        fh.write(raw)


def _parse_header(fh) -> dict:
    """Check the magic bytes and the format version of an open archive and
    parse its JSON header, leaving fh at the payload."""
    if fh.read(4) != MAGIC:
        raise ArchiveError("not a torusgibbs ensemble archive")
    version, hlen = struct.unpack("<HI", fh.read(6))
    if version != FORMAT_VERSION:
        raise ArchiveError(f"unsupported archive version {version}")
    return json.loads(fh.read(hlen).decode("utf-8"))


def read_header(path: str) -> dict:
    with open(path, "rb") as fh:
        return _parse_header(fh)


def read_ensemble(path: str) -> SampleEnsemble:
    with open(path, "rb") as fh:
        header = _parse_header(fh)
        raw = fh.read()
    if hashlib.sha256(raw).hexdigest() != header["payload_sha256"]:
        raise ArchiveError("payload checksum mismatch; refusing partial load")
    lat = Lattice(header["dim"], header["n"], header.get("oversample", 1))
    count = header["count"]
    shape = (count,) + lat.shape
    expected = int(np.prod(shape)) * 16
    if len(raw) != expected:
        raise ArchiveError(f"payload length {len(raw)} != expected {expected}")
    flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    coefs = flat.view(np.complex128).reshape(shape).copy()
    return SampleEnsemble(lat, coefs, header["reality"], header["zero_mode"],
                          seed=header.get("seed"), thinning=header.get("thinning", 1),
                          meta=header.get("meta", {}))
