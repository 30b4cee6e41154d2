"""Self-describing binary array files used to pass data between stages.

Layout (all multi-byte integers little-endian):

    magic   4 bytes  b"UQSG"
    version u16      1
    dtype   u8       0 = float32, 1 = uint8, 2 = int32
    rank    u8
    dims    rank * u32
    payload row-major array bytes

Write followed by read reproduces shape, dtype, and payload bit-exactly.
Also includes a binary PGM (P5) writer for 8-bit map visualization.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .arrays import pixel_blocks
from .errors import ArrayFormatError

MAGIC = b"UQSG"
FORMAT_VERSION = 1

_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("u1"), 2: np.dtype("<i4")}
_DTYPE_TO_CODE = {np.dtype("float32"): 0, np.dtype("uint8"): 1, np.dtype("int32"): 2}

_HEAD = struct.Struct("<4sHBB")


def write_array(path, array):
    """Write a float32, uint8 or int32 array to ``path`` from its own buffer."""
    arr = np.ascontiguousarray(array)
    code = _DTYPE_TO_CODE.get(arr.dtype)
    if code is None:
        raise ArrayFormatError(
            f"dtype {arr.dtype} not supported; use float32, uint8, or int32"
        )
    if arr.ndim == 0 or arr.ndim > 255:
        raise ArrayFormatError(f"rank {arr.ndim} outside supported range 1..255")
    header = _HEAD.pack(MAGIC, FORMAT_VERSION, code, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape)
    # a flat byte view; unlike memoryview.cast it takes shapes with a 0 too
    payload = arr.astype(_CODE_TO_DTYPE[code], copy=False).reshape(-1).view(np.uint8)
    with open(path, "wb") as f:
        f.write(header)
        f.write(dims)
        f.write(payload)


def read_array(path):
    """Read an array written by write_array, bit-exact, straight into its one copy."""
    shape, rows = read_rows(path, slice(None))
    return rows.reshape(shape)


def read_rows(path, pixels):
    """The shape of the array file at ``path`` and the rows of one pixel block.

    The array is taken as ``(c, n)``, its first axis by the rest flattened;
    ``pixels`` is a step-1 slice of n, clipped as numpy clips it, and the
    rows come back as ``(c, m)``. Header and size are checked as by
    ``read_array``. A block of all n pixels is one read; others are one
    seek and read per row.
    """
    with open(path, "rb") as f:
        dtype, shape = _read_header(f, path)
        n = math.prod(shape[1:])
        start, stop, _ = pixels.indices(n)
        rows = np.empty((shape[0], max(stop - start, 0)), dtype=dtype)
        offset = f.tell() + start * dtype.itemsize
        # the whole payload in one read, or one seek and read per row
        for k, row in enumerate([rows] if rows.shape[1] == n else rows):
            f.seek(offset + k * n * dtype.itemsize)
            if f.readinto(row.reshape(-1).view(np.uint8)) < row.nbytes:
                raise ArrayFormatError(f"{path}: file shrank while being read")
    # a no-op on little-endian hosts
    return shape, rows.astype(dtype.newbyteorder("="), copy=False)


def _read_header(f, path):
    """Check the header and the payload size of the open file; its (dtype, shape)."""
    raw = f.read(_HEAD.size)
    if len(raw) < _HEAD.size:
        raise ArrayFormatError(f"{path}: file shorter than the fixed header")
    magic, version, dtype_code, rank = _HEAD.unpack(raw)
    if magic != MAGIC:
        raise ArrayFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise ArrayFormatError(
            f"{path}: unsupported format version {version}, expected {FORMAT_VERSION}"
        )
    dtype = _CODE_TO_DTYPE.get(dtype_code)
    if dtype is None:
        raise ArrayFormatError(f"{path}: unknown dtype code {dtype_code}")
    if rank == 0:
        raise ArrayFormatError(f"{path}: rank 0 is not supported")
    dims_raw = f.read(4 * rank)
    if len(dims_raw) < 4 * rank:
        raise ArrayFormatError(f"{path}: file ends inside the dimension list")
    shape = struct.unpack(f"<{rank}I", dims_raw)
    nbytes = math.prod(shape) * dtype.itemsize
    # size the payload from the file before reading, so a header that
    # declares more than the file holds never drives an allocation
    size = os.fstat(f.fileno()).st_size - f.tell()
    if size < nbytes:
        raise ArrayFormatError(
            f"{path}: payload truncated, expected {nbytes} bytes, got {size}"
        )
    if size > nbytes:
        raise ArrayFormatError(f"{path}: trailing bytes after payload")
    return dtype, shape


def write_pgm(path, gray):
    """Write a 2D uint8 array as a binary PGM (P5) image."""
    img = np.asarray(gray)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ArrayFormatError(
            f"PGM writer needs a 2D uint8 array, got {img.shape} {img.dtype}"
        )
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(img).tobytes())


def entropy_to_gray(entropy_map, class_count):
    """Scale an entropy map in bits to uint8 [0, 255] by its log2(c) ceiling, block by block."""
    h = np.asarray(entropy_map)
    ceiling = float(np.log2(class_count))
    gray = np.empty(h.shape, dtype=np.uint8)
    h_flat, gray_flat = h.reshape(-1), gray.reshape(-1)
    for sl in pixel_blocks(h_flat.size):
        scaled = np.divide(h_flat[sl], ceiling, dtype=np.float64)
        scaled *= 255.0
        np.rint(scaled, out=scaled)
        gray_flat[sl] = np.clip(scaled, 0, 255, out=scaled)
        del scaled  # one block of scaled values at a time
    return gray
