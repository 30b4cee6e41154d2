"""Self-describing binary array files used to pass data between stages.

Layout (all multi-byte integers little-endian):

    magic   4 bytes  b"UQSG"
    version u16      1
    dtype   u8       0 = float32, 1 = uint8, 2 = int32
    rank    u8
    dims    rank * u32
    payload row-major array bytes

Write followed by read reproduces shape, dtype, and payload bit-exactly; an
array of either byte order is written little-endian and read back in native
order. ``ArrayFile`` opens a file once, reads or writes it by pixel block and
removes a file it created if its block or its close fails; ``read_array``,
``write_array`` and ``write_pgm``, a binary PGM (P5) writer, take the whole
array through it. A 3D map's PGM is one image of its slices top to bottom.
"""

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ArrayFormatError

MAGIC = b"UQSG"
FORMAT_VERSION = 1

_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("u1"), 2: np.dtype("<i4")}
_DTYPE_TO_CODE = {dtype.newbyteorder("="): code for code, dtype in _CODE_TO_DTYPE.items()}

_HEAD = struct.Struct("<4sHBB")


def write_array(path, array):
    """Write a float32, uint8 or int32 array to ``path`` from its own buffer."""
    arr = np.asarray(array)
    if arr.ndim == 0:
        raise ArrayFormatError(f"rank {arr.ndim} outside supported range 1..255")
    with ArrayFile(path, arr.shape, arr.dtype) as f:
        f.write(slice(None), arr.reshape(arr.shape[0], math.prod(arr.shape[1:])))


def read_array(path):
    """Read an array written by write_array, bit-exact, straight into its one copy."""
    with ArrayFile(path) as f:
        return f.rows(slice(None)).reshape(f.shape)


class ArrayFile:
    """One array file, opened once: ``ArrayFile(path)`` opens a file and checks its header
    and size; ``ArrayFile(path, shape, dtype)`` creates one (``header``, a PGM's, replaces its
    own) and removes it if its ``with`` block or its close fails. The array is ``(c, n)``, its
    first axis by the rest flattened; a pixel block is a step-1 slice of n, clipped as numpy is."""

    def __init__(self, path, shape=None, dtype=None, header=None):
        self.path, self._created = path, shape is not None
        if shape is None:
            self._f = open(path, "rb", buffering=0)  # no buffer holds bytes the file lost
            try:
                self._disk, self.shape = _read_header(self._f, path)
            except BaseException:
                self._f.close()
                raise
        else:  # the dtype is looked up in native byte order
            code = _DTYPE_TO_CODE.get(np.dtype(dtype).newbyteorder("="))
            if code is None:
                raise ArrayFormatError(
                    f"dtype {np.dtype(dtype)} not supported; use float32, uint8, or int32"
                )
            self._disk, self.shape = _CODE_TO_DTYPE[code], tuple(shape)
            header = header or struct.pack(f"<4sHBB{len(shape)}I", MAGIC, FORMAT_VERSION,
                                           code, len(shape), *shape)
            self._f = open(path, "w+b")
            self._f.write(header)
        self._payload = self._f.tell()
        self.dtype = self._disk.newbyteorder("=")
        self.n = math.prod(self.shape[1:])

    def __enter__(self):
        return self

    def __exit__(self, failed, *_):
        try:
            self._f.close()  # a full disk may first show at the last flush
        except BaseException:
            failed = True
            raise
        finally:
            if failed and self._created:
                Path(self.path).unlink(missing_ok=True)

    def rows(self, pixels, classes=slice(None)):
        """The ``(c, m)`` rows of one pixel block, or only those of ``classes``, a step-1 slice."""
        start, stop, _ = pixels.indices(self.n)
        first, last, _ = classes.indices(self.shape[0])
        rows = np.empty((max(last - first, 0), max(stop - start, 0)), dtype=self._disk)
        for offset, view in _row_views(rows, self.n, first * self.n + start):
            self._f.seek(self._payload + offset)
            while len(view):  # one raw read returns at most ~2 GiB
                got = self._f.readinto(view)
                if not got:
                    raise ArrayFormatError(f"{self.path}: file shrank while being read")
                view = view[got:]
        # a no-op on little-endian hosts
        return rows.astype(self.dtype, copy=False)

    def write(self, pixels, rows):
        """Write the ``(c, m)`` rows of one pixel block at their offsets: ``rows``
        reversed. One row is a block of the whole array flattened, as an entropy
        map is written; the blocks of ``pixel_blocks`` leave ``write_array``'s bytes."""
        n = self.n if len(rows) == self.shape[0] else math.prod(self.shape)
        start, stop, _ = pixels.indices(n)
        if rows.dtype.newbyteorder("=") != self.dtype:
            raise ArrayFormatError(f"dtype {rows.dtype} not supported by {self.dtype} {self.path}")
        if rows.ndim != 2 or len(rows) not in (self.shape[0], 1) or rows.shape[1] != stop - start:
            raise ArrayFormatError(f"rows of shape {rows.shape} are no block {pixels} "
                                   f"of {self.shape}")
        # little-endian on any host; a no-op on little-endian ones
        for offset, view in _row_views(rows.astype(self._disk, copy=False), n, start):
            self._f.seek(self._payload + offset)
            self._f.write(view)


def _row_views(rows, n, start):
    """The payload offset and a flat byte view of each row of a block at pixel
    ``start`` of n: one view of all rows when the block holds all n pixels."""
    for k, row in enumerate([rows] if rows.shape[1] == n else rows):
        # unlike memoryview.cast, a byte view takes shapes with a 0 too
        view = np.ascontiguousarray(row).reshape(-1).view(np.uint8)
        yield (k * n + start) * rows.itemsize, view


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
        raise ArrayFormatError(f"{path}: payload truncated, expected {nbytes} bytes, got {size}")
    if size > nbytes:
        raise ArrayFormatError(f"{path}: trailing bytes after payload")
    return dtype, shape


def write_pgm(path, gray):
    """Write a 2D or 3D uint8 array from its own buffer as one binary PGM (P5) image, which
    ``ArrayFile`` removes if it fails; a (D, H, W) array is a W x D*H image of its slices."""
    img = np.ascontiguousarray(gray)
    if img.ndim not in (2, 3) or img.dtype != np.uint8:
        raise ArrayFormatError(f"a PGM needs a 2D or 3D uint8 array, got {img.shape} {img.dtype}")
    header = f"P5\n{img.shape[-1]} {math.prod(img.shape[:-1])}\n255\n".encode("ascii")
    with ArrayFile(path, (1, img.size), np.uint8, header) as f:
        f.write(slice(None), img.reshape(1, img.size))


def entropy_to_gray(entropy_map, class_count):
    """Scale an entropy map in bits to uint8 [0, 255] by its log2(c) ceiling.

    Its float64 scratch is the size of the map: ``run`` passes one pixel block.
    """
    scaled = np.divide(entropy_map, float(np.log2(class_count)), dtype=np.float64)
    scaled *= 255.0
    np.rint(scaled, out=scaled)
    return np.clip(scaled, 0, 255, out=scaled).astype(np.uint8)
