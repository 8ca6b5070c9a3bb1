"""The vectorized CSV formatter against the ``repr`` join it replaces, value by value."""
import numpy as np
import pytest

from silkin import csvtext

from oracles import repr_lines


def repr_text(*parts):
    """The repr join of the rows of ``parts``, side by side, as Python numbers."""
    columns = [np.asarray(p).reshape(len(p), -1) for p in parts]
    return repr_lines([sum((c[i].tolist() for c in columns), []) for i in range(len(columns[0]))])


def same_text(*parts):
    """``csvtext.lines`` of ``parts`` equals the repr join of their rows as Python numbers."""
    text, expected = csvtext.lines(*parts), repr_text(*parts)
    if text != expected:
        got, want = text.decode().split("\n"), expected.decode().split("\n")
        bad = next((g, w) for g, w in zip(got, want) if g != w)
        pytest.fail(f"first differing line: {bad[0]!r} != {bad[1]!r}")


def same_text_in_blocks(*parts):
    """:func:`same_text`, and the row blocks of ``csvtext.chunks`` joined equal the same repr join."""
    same_text(*parts)
    assert b"".join(csvtext.chunks(*parts)) == repr_text(*parts)


def with_neighbours(x):
    x = np.asarray(x, dtype=float)
    values = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    values = values[np.isfinite(values)]
    return np.concatenate([values, -values])


def test_random_bit_patterns():
    # 10^6 doubles spread evenly over every exponent, both signs, subnormals, inf and nan payloads
    bits = np.random.default_rng(20261018).integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64).reshape(-1, 8)
    for start in range(0, len(values), 25_000):
        same_text(values[start:start + 25_000])


def test_every_power_of_two_and_its_neighbours():
    same_text(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))).reshape(-1, 6))


def test_subnormals():
    tiny = np.arange(1, 4097, dtype=np.uint64).view(np.float64)
    largest = np.uint64(2 ** 52 - 1).reshape(1).view(np.float64)
    scattered = np.random.default_rng(7).integers(1, 2 ** 52, size=4096, dtype=np.uint64).view(np.float64)
    assert tiny[0] == 5e-324
    same_text(np.concatenate([tiny, -tiny, largest, scattered]))


def test_doubles_whose_rounding_interval_ends_are_exact_decimals():
    # integers and binary fractions near 2^53, and exact multiples of 10^15 .. 10^23: the value or
    # an end of its rounding interval ends in decimal zeros, where ties and excluded ends decide
    m = np.random.default_rng(11).integers(2 ** 52, 2 ** 53, size=2000).astype(float)
    binary = [np.ldexp(m, e) for e in range(-6, 9)]
    decimal = [np.arange(1.0, 1000.0) * 10.0 ** k for k in range(15, 24)]
    same_text(with_neighbours(np.concatenate(binary + decimal)).reshape(-1, 6))


def test_large_doubles_with_rounding_interval_ends_divisible_by_5_to_the_q():
    # every double m2 * 2^(e2 + 2) with q = 20 (e2 = 70..73) or q = 21 (e2 = 74..76) whose 4 m2, 4 m2 - 2
    # or 4 m2 + 2 is a multiple of 5^q: the only inputs of Ryū's large-value trailing-zero tests at those q
    lo, hi = 2 ** 52, 2 ** 53
    for q, e2s in ((20, range(70, 74)), (21, range(74, 77))):
        p = 5 ** q
        residues = (0, 2 * pow(4, -1, p) % p, -2 * pow(4, -1, p) % p)
        m2 = np.array([m for r in residues for m in range(lo + (r - lo) % p, hi, p)], dtype=float)
        assert len(m2) == (141 if q == 20 else 29)
        same_text(np.concatenate([np.ldexp(m2, e2 + 2) for e2 in e2s]))


def test_doubles_of_the_small_q_branch():
    # e2 = -4..-1, the doubles of [2^50, 2^54), where Ryū's q <= 1 marks every product exact: seeded odd and
    # even mantissas and the powers of two
    m2 = np.random.default_rng(19).integers(2 ** 52, 2 ** 53, size=20_000)
    m2 = np.concatenate([m2 | 1, m2 & ~1, [2 ** 52]]).astype(float)
    same_text(np.concatenate([np.ldexp(m2, e2 + 2) for e2 in range(-4, 0)]).reshape(-1, 4))


def test_zeros_infinities_and_nan():
    same_text(np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]]))


def test_switch_points_between_fixed_and_exponent_notation():
    switch = [1e-4, 1e-5, 1e15, 1e16, 9999999999999998.0, 0.00011, 1.5e16, 123456789012345680.0]
    same_text(with_neighbours(switch + [10.0 ** e for e in range(-30, 31)]))


def test_integers():
    ints = np.arange(-5000, 5001)
    extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 10 ** 18, 10 ** 19 - 1])
    same_text(ints.reshape(-1, 1))
    same_text(extremes)
    same_text(ints.astype(float), 2.0 ** np.arange(54)[ints % 54])
    same_text(np.arange(5), np.arange(5, 10), np.linspace(0.0, 1.0, 5), np.linspace(-1e300, 1e-300, 5))


def test_chunks_split_on_rows_into_blocks_of_bounded_size():
    columns = 7
    rows = 3 * (csvtext.BLOCK_VALUES // columns) + 5  # not a multiple of the block's row count
    x = np.random.default_rng(3).standard_normal((rows, columns)) * 10.0 ** np.arange(-3, 4)
    t = np.linspace(0.0, 1.0, rows)
    blocks = list(csvtext.chunks(t, x))
    assert len(blocks) == 4
    assert all(block.endswith(b"\n") and block.count(b"\n") <= csvtext.BLOCK_VALUES // 8 for block in blocks)
    assert b"".join(blocks) == csvtext.lines(t, x)
    same_text(t, x)
    assert list(csvtext.chunks(np.empty((0, 3)))) == []


def test_rows_that_are_all_positive_zero():
    zeros = np.zeros((5, 7))
    same_text_in_blocks(zeros)
    same_text_in_blocks(np.zeros(4))
    same_text_in_blocks(np.linspace(0.0, 1.0, 5), zeros)


def test_negative_zero_inside_and_at_the_end_of_a_zero_run():
    rows = np.zeros((4, 6))
    rows[:, 0] = 1.5
    rows[0, 3] = rows[1, 5] = rows[2, 1] = -0.0
    same_text_in_blocks(rows)
    same_text_in_blocks(np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]]))


def test_rows_of_one_block_with_different_zero_runs():
    # row r keeps r // 2 leading values: the block formats four columns and ends each row with a run of
    # five zeros, while the rows' own runs are 5 to 9 long
    values = np.random.default_rng(5).standard_normal((10, 9))
    values[np.arange(9) >= np.arange(10)[:, None] // 2] = 0.0
    same_text_in_blocks(values)
    same_text_in_blocks(values[::-1])


def test_a_zero_run_over_the_whole_last_part():
    zeros = np.zeros((3, 4))
    same_text_in_blocks(np.arange(3), zeros)
    same_text_in_blocks(np.array([[1, -20], [300, 0], [0, 5]]), zeros)
    same_text_in_blocks(np.array([2.5, -0.0, 1e-300]), zeros)
    same_text_in_blocks(np.arange(3), np.array([0.5, 0.0, 2.0]), zeros)


def test_one_column_and_one_dimensional_last_parts():
    same_text_in_blocks(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 3.0]]), np.array([0.0, 2.0, 0.0]))
    same_text_in_blocks(np.array([1.0, 0.0, -0.0]), np.array([[0.0], [4.0], [0.0]]))
    same_text_in_blocks(np.array([0.0, 7.0, 0.0]))
    same_text_in_blocks(np.array([[1.0, 2.0], [3.0, 0.0]]), np.zeros(2))


def test_an_integer_last_part_keeps_its_zeros_as_integers():
    same_text_in_blocks(np.array([0.0, 1.0]), np.array([[3, 0, 0], [0, 0, 0]]))


def test_nan_and_inf_next_to_a_zero_run():
    values = np.array([
        [1.0, np.nan, 0.0, 0.0],
        [np.inf, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -np.inf],
        [0.0, np.nan, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    same_text_in_blocks(values)
    same_text_in_blocks(values[:, ::-1])


def test_zero_runs_across_row_block_boundaries():
    # a front that recedes row by row, as a truncated cohort chain's mass does: each row block formats
    # up to its own last nonzero column and ends its rows with zero runs of a different length
    columns = 50
    rows = 3 * (csvtext.BLOCK_VALUES // (columns + 1)) + 5
    front = np.linspace(columns, 0, rows).astype(int)
    M = np.random.default_rng(9).random((rows, columns)) ** 40
    M[np.arange(columns) >= front[:, None]] = 0.0
    t = np.linspace(0.0, 2.0, rows)
    assert len(list(csvtext.chunks(t, M))) == 4
    same_text_in_blocks(t, M)
