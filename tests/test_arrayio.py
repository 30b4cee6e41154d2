import errno
import math
import re
import struct
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqseg.arrays
from uqseg.arrayio import (
    ArrayFile,
    _read_header,
    entropy_to_gray,
    read_array,
    write_array,
    write_pgm,
)
from uqseg.arrays import pixel_blocks
from uqseg.errors import ArrayFormatError


@pytest.mark.parametrize(
    "array",
    [
        np.random.default_rng(0).random((4, 8, 8)).astype(np.float32),
        np.arange(24, dtype=np.uint8).reshape(2, 3, 4),
        (np.arange(12, dtype=np.int32) - 6).reshape(3, 4),
        np.array([1.5], dtype=np.float32),
    ],
)
def test_round_trip_bit_exact(tmp_path, array):
    path = tmp_path / "a.uqsg"
    write_array(path, array)
    back = read_array(path)
    assert back.dtype == array.dtype
    assert back.shape == array.shape
    assert back.tobytes() == array.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.uint8, np.int32])
@pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0, 4)])
def test_zero_size_round_trip(tmp_path, shape, dtype):
    path = tmp_path / "empty.uqsg"
    write_array(path, np.zeros(shape, dtype=dtype))
    back = read_array(path)
    assert back.dtype == dtype
    assert back.shape == shape


def test_round_trip_preserves_float_bit_patterns(tmp_path):
    # exact payload bytes survive, including values that compare unequal
    raw = np.array([np.nan, -0.0, np.inf], dtype=np.float32)
    path = tmp_path / "bits.uqsg"
    write_array(path, raw)
    assert read_array(path).tobytes() == raw.tobytes()


def test_header_contents(tmp_path):
    path = tmp_path / "h.uqsg"
    write_array(path, np.zeros((5, 6), dtype=np.int32))
    with open(path, "rb") as f:
        header = _read_header(f, path)
    assert header == (np.dtype("<i4"), (5, 6))


def test_wrong_magic(tmp_path):
    path = tmp_path / "bad.uqsg"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(ArrayFormatError, match="bad magic b'NOPE', expected b'UQSG'"):
        read_array(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "short.uqsg"
    path.write_bytes(b"UQ")
    with pytest.raises(ArrayFormatError, match="file shorter than the fixed header"):
        read_array(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.uqsg"
    write_array(path, np.ones((4, 4), dtype=np.float32))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ArrayFormatError, match="payload truncated, expected 64 bytes, got 56"):
        read_array(path)


@pytest.mark.parametrize(
    "dims, payload",
    [
        ((2**30,), 8),  # a 20-byte file declaring 4 GiB of float32
        ((2**16,) * 4, 0),  # 2**64 values: wraps to 0 in int64 arithmetic
    ],
)
def test_oversized_header_fails_before_allocating(tmp_path, dims, payload):
    path = tmp_path / "huge.uqsg"
    header = struct.pack(f"<4sHBB{len(dims)}I", b"UQSG", 1, 0, len(dims), *dims)
    path.write_bytes(header + bytes(payload))
    tracemalloc.start()
    try:
        with pytest.raises(ArrayFormatError, match="payload truncated") as info:
            read_array(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    message = str(info.value)
    assert str(path) in message
    assert f"expected {4 * math.prod(dims)} bytes, got {payload}" in message


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "long.uqsg"
    write_array(path, np.ones(3, dtype=np.uint8))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ArrayFormatError):
        read_array(path)


def test_unsupported_dtype_on_write(tmp_path):
    with pytest.raises(ArrayFormatError, match="dtype float64 not supported"):
        write_array(tmp_path / "f64.uqsg", np.zeros(3))


def test_unknown_dtype_code_on_read(tmp_path):
    path = tmp_path / "code.uqsg"
    header = struct.pack("<4sHBB", b"UQSG", 1, 9, 1) + struct.pack("<I", 1)
    path.write_bytes(header + b"\x00")
    with pytest.raises(ArrayFormatError, match="unknown dtype code 9"):
        read_array(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "v2.uqsg"
    header = struct.pack("<4sHBB", b"UQSG", 2, 1, 1) + struct.pack("<I", 1)
    path.write_bytes(header + b"\x00")
    with pytest.raises(ArrayFormatError):
        read_array(path)


def test_little_endian_layout(tmp_path):
    path = tmp_path / "le.uqsg"
    write_array(path, np.array([[7]], dtype=np.int32))
    data = path.read_bytes()
    assert data[:4] == b"UQSG"
    version, dtype_code, rank = struct.unpack("<HBB", data[4:8])
    assert (version, dtype_code, rank) == (1, 2, 2)
    assert struct.unpack("<2I", data[8:16]) == (1, 1)
    assert struct.unpack("<i", data[16:20]) == (7,)


def test_pgm_writer(tmp_path):
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    path = tmp_path / "m.pgm"
    write_pgm(path, img)
    data = path.read_bytes()
    assert data.startswith(b"P5\n3 2\n255\n")
    assert data[-6:] == img.tobytes()
    with pytest.raises(ArrayFormatError):
        write_pgm(tmp_path / "bad.pgm", img.astype(np.int32))


def test_pgm_writer_stacks_the_slices_of_a_3d_array(tmp_path):
    vol = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    write_pgm(tmp_path / "v.pgm", vol[:, :, ::-1])  # a strided view is written in C order
    assert (tmp_path / "v.pgm").read_bytes() == (
        b"P5\n4 6\n255\n" + vol[0, :, ::-1].tobytes() + vol[1, :, ::-1].tobytes())
    with pytest.raises(ArrayFormatError):
        write_pgm(tmp_path / "bad.pgm", vol[None])


def test_entropy_to_gray_scaling():
    h = np.array([[0.0, 1.0], [2.0, 2.0]])
    gray = entropy_to_gray(h, class_count=4)  # ceiling log2(4) = 2 bits
    np.testing.assert_array_equal(gray, [[0, 128], [255, 255]])


@st.composite
def _row_blocks(draw):
    """An array of rank 3 or 4 and a block of its pixel axis: first, middle,
    ragged last or the whole axis."""
    dtype = draw(st.sampled_from([np.float32, np.uint8, np.int32]))
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=3, max_size=4)))
    n = math.prod(shape[1:])
    block = draw(st.integers(1, n))
    blocks = [slice(i, min(i + block, n)) for i in range(0, n, block)]
    pixels = draw(st.sampled_from([blocks[0], blocks[len(blocks) // 2], blocks[-1]]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    array = (rng.random(shape) * 100).astype(dtype)
    return array, pixels


def _read_rows(path, pixels):
    """The shape of the array file at ``path`` and the rows of one pixel block."""
    with ArrayFile(path) as f:
        return f.shape, f.rows(pixels)


@settings(max_examples=100, deadline=None)
@given(case=_row_blocks())
def test_read_rows_is_a_block_of_read_array(tmp_path_factory, case):
    """``ArrayFile.rows`` of one block is that block of ``read_array``."""
    array, pixels = case
    path = tmp_path_factory.mktemp("rows") / "a.uqsg"
    write_array(path, array)
    shape, rows = _read_rows(path, pixels)
    whole = read_array(path)
    expected = whole.reshape(whole.shape[0], -1)[:, pixels]
    assert shape == whole.shape
    assert rows.dtype == expected.dtype
    assert rows.shape == expected.shape
    assert rows.tobytes() == expected.tobytes()


def test_read_rows_of_a_one_block_file_is_the_whole_array(tmp_path):
    array = np.random.default_rng(3).random((3, 4, 5)).astype(np.float32)
    path = tmp_path / "a.uqsg"
    write_array(path, array)
    shape, rows = _read_rows(path, slice(0, 1 << 16))  # clipped to the 20 pixels
    assert shape == (3, 4, 5)
    assert rows.tobytes() == array.tobytes()
    assert rows.shape == (3, 20)


def test_one_open_file_reads_every_block(tmp_path):
    array = np.random.default_rng(5).random((3, 7, 9)).astype(np.float32)
    write_array(tmp_path / "a.uqsg", array)
    with ArrayFile(tmp_path / "a.uqsg") as f:
        assert (f.shape, f.dtype, f.n) == ((3, 7, 9), np.float32, 63)
        blocks = [f.rows(slice(i, i + 8)) for i in range(0, 63, 8)]
    assert np.concatenate(blocks, axis=1).tobytes() == array.reshape(3, 63).tobytes()


class _FullDiskOnClose:
    """An open file whose close closes it and then fails as a full disk would."""

    def __init__(self, f):
        self._real = f

    def __getattr__(self, name):
        return getattr(self._real, name)

    def close(self):
        self._real.close()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_created_file_is_removed_when_its_block_raises(tmp_path, error):
    path = tmp_path / "a.uqsg"
    with pytest.raises(error):
        with ArrayFile(path, (2, 4), np.float32) as f:
            f.write(slice(0, 2), np.zeros((2, 2), dtype=np.float32))
            raise error
    assert not path.exists()


def test_a_created_file_is_removed_when_its_close_raises(tmp_path):
    path = tmp_path / "a.uqsg"
    f = ArrayFile(path, (2, 4), np.float32)
    f._f = _FullDiskOnClose(f._f)
    with pytest.raises(OSError, match="No space left on device"):
        with f:
            f.write(slice(None), np.zeros((2, 4), dtype=np.float32))
    assert not path.exists()


def test_a_pgm_whose_write_fails_partway_is_removed(tmp_path):
    path = tmp_path / "h.pgm"

    def full_disk(self, pixels, rows):
        self._f.flush()
        assert path.read_bytes() == b"P5\n4 2\n255\n"  # the header is on disk
        raise OSError(errno.ENOSPC, "No space left on device")

    with patch.object(ArrayFile, "write", full_disk):
        with pytest.raises(OSError, match="No space left on device"):
            write_pgm(path, np.zeros((2, 4), dtype=np.uint8))
    assert not path.exists()


def test_a_file_opened_for_reading_is_never_removed(tmp_path):
    path = tmp_path / "a.uqsg"
    write_array(path, np.zeros((2, 4), dtype=np.float32))
    with pytest.raises(RuntimeError):
        with ArrayFile(path):
            raise RuntimeError
    f = ArrayFile(path)
    f._f = _FullDiskOnClose(f._f)
    with pytest.raises(OSError, match="No space left on device"):
        with f:
            raise RuntimeError
    assert read_array(path).tobytes() == np.zeros((2, 4), dtype=np.float32).tobytes()


def test_a_created_file_that_closes_is_kept(tmp_path):
    path = tmp_path / "a.uqsg"
    with ArrayFile(path, (2, 4), np.float32) as f:
        f.write(slice(None), np.ones((2, 4), dtype=np.float32))
    assert read_array(path).tobytes() == np.ones((2, 4), dtype=np.float32).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.uint8, np.int32])
@pytest.mark.parametrize("c", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("spatial", [(7, 9), (3, 5, 6), (1, 12)])
def test_write_rows_over_pixel_blocks_is_write_array(tmp_path, dtype, c, spatial):
    """``ArrayFile.write`` of blocks of 8 pixels, the last one ragged, as class rows
    and as one flat row."""
    array = (np.random.default_rng(c).random((c, *spatial)) * 100).astype(dtype)
    write_array(tmp_path / "whole.uqsg", array)
    flat = array.reshape(c, -1)
    with patch.object(uqseg.arrays, "BLOCK_PIXELS", 8):
        blocks = pixel_blocks(flat.shape[1])
        assert len(blocks) > 1 and blocks[-1].stop - blocks[-1].start < 8
        with ArrayFile(tmp_path / "rows.uqsg", array.shape, dtype) as f:
            for pixels in blocks:
                f.write(pixels, flat[:, pixels])
        line = array.reshape(1, -1)  # an entropy map is written as one row
        with ArrayFile(tmp_path / "line.uqsg", array.shape, dtype) as f:
            for pixels in pixel_blocks(line.shape[1]):
                f.write(pixels, line[:, pixels])
    whole = (tmp_path / "whole.uqsg").read_bytes()
    assert (tmp_path / "rows.uqsg").read_bytes() == whole
    assert (tmp_path / "line.uqsg").read_bytes() == whole


def test_write_rows_of_all_pixels_is_one_payload_write(tmp_path, monkeypatch):
    array = np.random.default_rng(4).random((3, 4, 5)).astype(np.float32)
    writes = []
    real_open = open

    class Counted:
        def __init__(self, f):
            self.f = f

        def close(self):
            return self.f.close()

        def tell(self):
            return self.f.tell()

        def seek(self, offset):
            return self.f.seek(offset)

        def write(self, data):
            writes.append(memoryview(data).nbytes)
            return self.f.write(data)

    monkeypatch.setattr("builtins.open", lambda *a, **k: Counted(real_open(*a, **k)))
    with ArrayFile(tmp_path / "a.uqsg", array.shape, array.dtype) as f:
        f.write(slice(0, 20), array.reshape(3, 20))
    monkeypatch.undo()
    assert writes == [8 + 12, array.nbytes]  # the header with its dims, the payload
    assert read_array(tmp_path / "a.uqsg").tobytes() == array.tobytes()


@pytest.mark.parametrize("rows, pixels, message", [
    (np.zeros((2, 5), np.float32), slice(0, 5), "rows of shape (2, 5)"),
    (np.zeros((3, 4), np.float32), slice(0, 5), "rows of shape (3, 4)"),
    (np.zeros((3, 5), np.float64), slice(0, 5), "dtype float64 not supported"),
    (np.zeros((3, 5), np.int32), slice(0, 5), "dtype int32 not supported by float32"),
    (np.zeros((3, 5), ">f4"), slice(0, 6), "rows of shape (3, 5) are no block"),
])
def test_write_rows_rejects_rows_that_are_no_block(tmp_path, rows, pixels, message):
    with ArrayFile(tmp_path / "a.uqsg", (3, 20), np.float32) as f:
        with pytest.raises(ArrayFormatError, match=re.escape(message)):
            f.write(pixels, rows)


@pytest.mark.parametrize("dtype", [">f4", ">i4"])
def test_big_endian_arrays_are_written_little_endian(tmp_path, dtype):
    a = (np.arange(-6, 6).reshape(3, 4) * 1.5).astype(dtype[1:])
    write_array(tmp_path / "native.uqsg", a)
    write_array(tmp_path / "swapped.uqsg", a.astype(dtype))
    assert (tmp_path / "swapped.uqsg").read_bytes() == (tmp_path / "native.uqsg").read_bytes()
    back = read_array(tmp_path / "swapped.uqsg")
    assert back.dtype == a.dtype and back.tobytes() == a.tobytes()


def _rejections(path):
    """The (type, text) of the errors read_array and ``ArrayFile`` raise on ``path``."""
    errors = []
    readers = (
        read_array, lambda p: _read_rows(p, slice(0, 2)), lambda p: _read_rows(p, slice(1, 2))
    )
    for read in readers:
        with pytest.raises(Exception) as info:
            read(path)
        errors.append((type(info.value), str(info.value)))
    return errors


@pytest.mark.parametrize("damage", ["truncated", "trailing", "short_header", "dims"])
def test_read_rows_rejects_as_read_array_does(tmp_path, damage):
    path = tmp_path / "bad.uqsg"
    write_array(path, np.ones((2, 3, 4), dtype=np.float32))
    data = path.read_bytes()
    damaged = {
        "truncated": data[:-4],
        "trailing": data + b"\x00",
        "short_header": data[:6],
        "dims": data[:14],
    }[damage]
    path.write_bytes(damaged)
    errors = _rejections(path)
    assert errors[0][0] is ArrayFormatError
    assert errors[1] == errors[0] and errors[2] == errors[0]
    assert str(path) in errors[0][1]


def test_read_rows_oversized_header_fails_before_allocating(tmp_path):
    path = tmp_path / "huge.uqsg"
    path.write_bytes(struct.pack("<4sHBB3I", b"UQSG", 1, 0, 3, 4, 2**15, 2**15) + bytes(8))
    tracemalloc.start()
    try:
        errors = _rejections(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    message = f"{path}: payload truncated, expected {2**34} bytes, got 8"
    assert errors == [(ArrayFormatError, message)] * 3


def test_a_small_file_that_shrinks_after_opening_is_caught(tmp_path):
    """No read buffer holds the payload taken in with the header: a file far smaller
    than any buffer that loses its last 4 bytes after the open fails its read."""
    path = tmp_path / "a.uqsg"
    write_array(path, np.ones((2, 8), dtype=np.float32))
    with ArrayFile(path) as f:
        with open(path, "r+b") as g:
            g.truncate(g.seek(0, 2) - 4)
        with pytest.raises(ArrayFormatError, match="a.uqsg: file shrank while being read"):
            f.rows(slice(None))


class _FewBytesPerRead:
    """An open file whose ``readinto`` fills at most ``cap`` bytes a call."""

    def __init__(self, f, cap):
        self._real, self._cap = f, cap

    def __getattr__(self, name):
        return getattr(self._real, name)

    def readinto(self, view):
        return self._real.readinto(memoryview(view)[: self._cap])


@pytest.mark.parametrize("pixels", [slice(None), slice(3, 11)])
def test_short_reads_are_repeated_until_the_rows_are_full(tmp_path, pixels):
    """One raw read may return fewer bytes than asked (at most ~2 GiB on Linux): the
    rows are read until they are full, so a whole-array view is never cut short."""
    array = np.random.default_rng(11).random((3, 4, 5)).astype(np.float32)
    write_array(tmp_path / "a.uqsg", array)
    with ArrayFile(tmp_path / "a.uqsg") as f:
        f._f = _FewBytesPerRead(f._f, 3)
        rows = f.rows(pixels)
    assert rows.tobytes() == array.reshape(3, 20)[:, pixels].tobytes()
    assert read_array(tmp_path / "a.uqsg").tobytes() == array.tobytes()
