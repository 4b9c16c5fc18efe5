"""Checked ``.npz`` files: one CRC32 over every member, recorded in a
``checksum`` member and verified on read.  Graph files
(:mod:`repro.graph.io`) and walk checkpoints
(:mod:`repro.core.snapshot`) are both this container; each wraps the
two exceptions below in its own typed error and wording.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np


class UnreadableNpz(Exception):
    """The file exists but is not a readable ``.npz``: torn, bit-flipped
    or not an archive at all (the message is the underlying reason)."""


class ChecksumError(Exception):
    """The members were read but the recorded checksum is absent or
    does not match them."""


def _payload_checksum(payload: dict[str, np.ndarray]) -> int:
    """CRC32 over key names and array bytes, in sorted-key order."""
    crc = 0
    for key in sorted(payload):
        crc = zlib.crc32(key.encode("utf-8"), crc)
        crc = zlib.crc32(np.ascontiguousarray(payload[key]).tobytes(), crc)
    return crc


def save_checked(path: str | os.PathLike, payload: dict, checksum_dtype) -> None:
    """Write ``payload`` plus its ``checksum`` member, compressed."""
    checksum = np.asarray([_payload_checksum(payload)], dtype=checksum_dtype)
    np.savez_compressed(path, **payload, checksum=checksum)


def read_members(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Every member of the file, in memory and not yet verified.

    Raises ``FileNotFoundError`` for a missing file and
    :class:`UnreadableNpz` for every flavour of damage, instead of
    leaking raw numpy / zip / zlib errors.
    """
    import zipfile  # 9 ms of stdlib that reading a text edge list never needs

    try:
        with np.load(path, allow_pickle=False) as data:
            return {key: data[key] for key in data.files}
    except (
        OSError,
        ValueError,
        EOFError,
        zipfile.BadZipFile,
        zlib.error,
        struct.error,
    ) as exc:
        if isinstance(exc, OSError) and not os.path.exists(path):
            raise FileNotFoundError(str(exc)) from exc
        raise UnreadableNpz(str(exc)) from exc


def verify_checksum(arrays: dict[str, np.ndarray]) -> None:
    """Check the ``checksum`` member against the others.  A file
    without one is refused: every writer has recorded it, so its
    absence is damage (or a hand-made file), not an old format."""
    if "checksum" not in arrays:
        raise ChecksumError("no checksum member")
    stored = int(arrays["checksum"][0])
    computed = _payload_checksum(
        {key: value for key, value in arrays.items() if key != "checksum"}
    )
    if stored != computed:
        raise ChecksumError(
            f"checksum mismatch (stored {stored}, computed {computed})"
        )
