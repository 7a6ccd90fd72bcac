import numpy as np

from ergolab import _bits


def reference_int(bits) -> int:
    """Bit i set when element i of the C-order flattening is 1."""
    return sum(int(b) << i for i, b in enumerate(np.asarray(bits).ravel()))


def test_pack_and_unpack_round_trip_at_every_bit_count():
    rng = np.random.default_rng(5)
    for count in (0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200):
        bits = rng.integers(0, 2, size=count, dtype=np.uint8)
        word = _bits.pack(bits)
        assert word == reference_int(bits), count
        assert word.bit_length() <= count
        rows = _bits.unpack([word], count)
        assert rows.dtype == np.uint8 and rows.shape == (1, count)
        assert rows[0].tobytes() == bits.tobytes(), count


def test_unpack_gives_one_row_per_word():
    rng = np.random.default_rng(6)
    for count in (3, 8, 13):
        bits = rng.integers(0, 2, size=(5, count), dtype=np.uint8)
        words = [_bits.pack(row) for row in bits]
        assert _bits.unpack(words, count).tobytes() == bits.tobytes()
    assert _bits.unpack([], 4).shape == (0, 4)
    assert _bits.unpack([0b1011, 0], 4).tolist() == [[1, 1, 0, 1], [0, 0, 0, 0]]


def test_pack_flattens_a_2d_input_in_c_order():
    bits = np.array([[1, 0, 0], [0, 1, 1]], dtype=np.uint8)
    assert _bits.pack(bits) == 0b110001 == reference_int(bits)
    # the transposed view holds the same bits in another order
    assert _bits.pack(bits.T) == reference_int(bits.T) == 0b101001
    assert _bits.pack(bits[::-1]) == 0b001110
    assert _bits.pack(bits.astype(bool)) == _bits.pack(bits)
    # unpacking the word as one row and reshaping restores the array
    assert (_bits.unpack([_bits.pack(bits)], 6).reshape(2, 3) == bits).all()


def test_a_big_endian_packing_disagrees():
    bits = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8)
    big = int.from_bytes(np.packbits(bits, bitorder="big").tobytes(), "big")
    assert _bits.pack(bits) == 0b1000000011 == reference_int(bits)
    assert big != _bits.pack(bits)
    assert _bits.unpack([big], 10).tolist() != [bits.tolist()]
