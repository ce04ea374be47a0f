import numpy as np
import pytest

from wlanradar.frame import (
    CEF_LEN,
    DEFAULT_PREAMBLE,
    PREAMBLE_LEN,
    STF_LEN,
    FrameLayout,
    Preamble,
    assemble_cpi,
    assemble_frame,
)
from wlanradar.golay import GolayPair, generate_golay_pair, golay_pair_correlate, load_golay_pair


class TestStf:
    def test_length(self):
        assert len(DEFAULT_PREAMBLE.stf) == 2176 == STF_LEN

    def test_repetition(self):
        stf = DEFAULT_PREAMBLE.stf
        assert np.array_equal(stf[0:128], stf[128:256])
        for i in range(16):
            assert np.array_equal(stf[i * 128 : (i + 1) * 128], stf[:128])

    def test_final_block_is_complement(self):
        stf = DEFAULT_PREAMBLE.stf
        assert np.array_equal(stf[2048:2176], -stf[0:128])

    def test_symbols_pm1(self):
        assert set(np.unique(DEFAULT_PREAMBLE.stf)) <= {-1.0, 1.0}

    def test_lag128_autocorrelation_over_repeats(self):
        # 15 aligned repetitions inside the first 2048 samples
        stf = DEFAULT_PREAMBLE.stf
        val = np.dot(stf[128:2048], stf[0:1920])
        assert abs(val) == 15 * 128


class TestCef:
    def test_length(self):
        assert len(DEFAULT_PREAMBLE.cef) == 512 + 512 + 128 == CEF_LEN

    def test_structure(self):
        # Gu512 = [-b, -a, b, -a], Gv512 = [-b, a, -b, -a], Gv128 = -b, all
        # from the STF's 128 pair; the STF's trailing -a is Gu512's cyclic prefix
        a, b = generate_golay_pair(128).a, generate_golay_pair(128).b
        cef = DEFAULT_PREAMBLE.cef
        assert np.array_equal(cef, np.concatenate([-b, -a, b, -a, -b, a, -b, -a, -b]))
        assert np.array_equal(DEFAULT_PREAMBLE.cef_pair.a, cef[:512])
        assert np.array_equal(DEFAULT_PREAMBLE.cef_pair.b, cef[512:1024])
        assert np.array_equal(DEFAULT_PREAMBLE.stf[-128:], cef[384:512])

    def test_symbols_pm1(self):
        assert set(np.unique(DEFAULT_PREAMBLE.cef)) <= {-1.0, 1.0}

    def test_correlator_peak_at_cp_offset(self):
        # CEF preceded by its cyclic-prefix context (-a_128): peak lands at
        # lag l_CEF - N_CP = 128 from the record start
        a128 = generate_golay_pair(128).a.astype(float)
        rx = np.concatenate([-a128, DEFAULT_PREAMBLE.cef, np.zeros(64)]).astype(complex)
        g = golay_pair_correlate(rx, DEFAULT_PREAMBLE.cef_pair, (0, 256))
        assert np.argmax(np.abs(g)) == 256 - 128

    def test_cef_pair_is_periodic_complementary(self, pair128):
        # the cyclic autocorrelations of Gu512 and Gv512 sum to 1024 delta;
        # the aperiodic ones do not
        cef_pair = Preamble(pair128).cef_pair

        def cyclic(x):
            return np.array([np.dot(x, np.roll(x, -k)) for k in range(512)])

        expected = np.zeros(512)
        expected[0] = 1024
        assert np.array_equal(cyclic(cef_pair.a) + cyclic(cef_pair.b), expected)
        assert not cef_pair.is_complementary()


class TestLayout:
    def test_bookkeeping(self):
        layout = FrameLayout(k=12800, header_len=1024)
        assert STF_LEN + CEF_LEN == PREAMBLE_LEN == 3328
        assert len(assemble_frame(layout, seed=0)) == layout.k

    def test_too_small_k_rejected(self):
        with pytest.raises(ValueError):
            FrameLayout(k=3000, header_len=0)
        with pytest.raises(ValueError):
            FrameLayout(k=4000, header_len=1024)

    def test_cpi_validation(self):
        with pytest.raises(ValueError, match="at least one frame"):
            assemble_cpi(0, FrameLayout(k=6656), [0], 1, 0)


class TestAssembly:
    def test_preamble_only_frame(self):
        layout = FrameLayout(k=3328, header_len=0)
        frame = assemble_frame(layout, seed=0)
        assert len(frame) == 3328
        assert np.array_equal(frame, DEFAULT_PREAMBLE.symbols)

    def test_determinism(self):
        layout = FrameLayout(k=6656)
        f1 = assemble_frame(layout, seed=42)
        f2 = assemble_frame(layout, seed=42)
        assert np.array_equal(f1, f2)
        f3 = assemble_frame(layout, seed=43)
        assert not np.array_equal(f1, f3)

    def test_unit_symbol_energy_bpsk(self):
        frame = assemble_frame(FrameLayout(k=12800), seed=7)
        assert np.mean(np.abs(frame) ** 2) == 1.0


class TestPreamble:
    def test_arrays_read_only(self):
        for arr in (DEFAULT_PREAMBLE.stf, DEFAULT_PREAMBLE.cef, DEFAULT_PREAMBLE.symbols,
                    DEFAULT_PREAMBLE.blocks):
            with pytest.raises(ValueError):
                arr[0] = 5.0

    @pytest.mark.parametrize("loaded", [False, True], ids=["default", "loaded"])
    def test_blocks_rebuild_the_symbols(self, loaded, tmp_path):
        # block i is blocks[0, i] a + blocks[1, i] b, one weight of each
        # column +-1 and the other 0; the loaded pair is the default one
        # reversed and swapped, complementary too
        p = DEFAULT_PREAMBLE
        if loaded:
            pa, pb = tmp_path / "a128.txt", tmp_path / "b128.txt"
            pa.write_text("\n".join(str(int(v)) for v in p.pair128.b[::-1]))
            pb.write_text("\n".join(str(int(v)) for v in p.pair128.a[::-1]))
            p = Preamble(pair128=load_golay_pair(pa, pb))
            assert not np.array_equal(p.symbols, DEFAULT_PREAMBLE.symbols)
        assert p.blocks.shape == (2, PREAMBLE_LEN // 128)
        assert np.array_equal(np.sort(np.abs(p.blocks), axis=0), [[0] * 26, [1] * 26])
        rebuilt = np.concatenate([w[0] * p.pair128.a + w[1] * p.pair128.b for w in p.blocks.T])
        assert np.array_equal(rebuilt, p.symbols)

    def test_wrong_length_pair_rejected(self):
        for n in (256, 512):
            with pytest.raises(ValueError):
                Preamble(pair128=generate_golay_pair(n))

    def test_noncomplementary_pair_rejected(self):
        base = generate_golay_pair(128)
        bad_b = base.b.copy()
        bad_b[3] *= -1
        with pytest.raises(ValueError):
            Preamble(pair128=GolayPair(base.a, bad_b))

    def test_pairs_feed_stf_and_cef(self):
        p128 = generate_golay_pair(128)
        swapped = Preamble(pair128=GolayPair(p128.b, p128.a))
        assert np.array_equal(swapped.stf[:128], p128.b)
        assert np.array_equal(swapped.cef[:128], -p128.a)
        assert np.array_equal(swapped.cef[1024:], -p128.a)
        assert np.array_equal(swapped.cef_pair.b, swapped.cef[512:1024])
        frame = assemble_frame(FrameLayout(k=3328, header_len=0), seed=0,
                               preamble=swapped)
        assert np.array_equal(frame, swapped.symbols)


def _whole_cpi(m, layout, seed, preamble=DEFAULT_PREAMBLE):
    return assemble_cpi(m, layout, [0], m * layout.k, seed, preamble)[0]


class TestCpi:
    def test_m1_reduces_to_single_frame(self):
        cpi = _whole_cpi(1, FrameLayout(k=6656), seed=5)
        assert len(cpi) == 6656
        assert np.array_equal(cpi[:PREAMBLE_LEN], DEFAULT_PREAMBLE.symbols)

    def test_total_length(self):
        cpi = _whole_cpi(10, FrameLayout(k=12800), seed=1)
        assert len(cpi) == 128000

    def test_preambles_identical_payloads_differ(self):
        m = 4
        frames = _whole_cpi(m, FrameLayout(k=6656), seed=9).reshape(m, 6656)
        for i in range(m):
            assert np.array_equal(frames[i, :PREAMBLE_LEN], frames[0, :PREAMBLE_LEN])
        assert not np.array_equal(frames[0, PREAMBLE_LEN:], frames[1, PREAMBLE_LEN:])

    def test_numpy_integer_arguments(self):
        # a frame count or window length read from a numpy array gives the
        # windows the same Python ints give
        layout = FrameLayout(k=12800)
        want = assemble_cpi(10, layout, [100, 13000], 9000, 12345)
        for m, length in ((np.int64(10), 9000), (10, np.int64(9000))):
            got = assemble_cpi(m, layout, [100, 13000], length, 12345)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("custom", [False, True])
    def test_equals_one_draw_per_cpi(self, custom):
        # the M frames' header/payload symbols are one integers(0, 2) draw
        # laid out frame after frame (an odd count per frame here); this also
        # fails if a numpy release changes how integers(0, 2) reads PCG64
        p128 = generate_golay_pair(128)
        preamble = (Preamble(pair128=GolayPair(p128.b, p128.a)) if custom
                    else DEFAULT_PREAMBLE)
        layout = FrameLayout(k=4001, header_len=128)
        m, seed = 5, 21
        cpi = _whole_cpi(m, layout, seed, preamble)
        draw = np.random.default_rng(seed).integers(0, 2, m * (layout.k - PREAMBLE_LEN)) * 2 - 1
        ref = np.concatenate([np.concatenate([preamble.symbols, d])
                              for d in draw.reshape(m, -1)]).astype(float)
        assert cpi.shape == ref.shape and cpi.dtype == ref.dtype
        assert cpi.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("m, custom", [(1, False), (3, False), (4, True)])
    def test_windows_are_whole_cpi_slices(self, m, custom):
        # windows that start below 0 or run past M K, straddle one or several
        # frame boundaries, start at odd and even payload offsets, and overlap
        p128 = generate_golay_pair(128)
        preamble = (Preamble(pair128=GolayPair(p128.b, p128.a)) if custom
                    else DEFAULT_PREAMBLE)
        k = 3701   # an odd payload count per frame: pieces start at either half
        layout = FrameLayout(k=k, header_len=16)
        whole = _whole_cpi(m, layout, 33, preamble)
        padded = np.concatenate([np.zeros(2 * k), whole, np.zeros(2 * k)])
        p = PREAMBLE_LEN
        cases = [
            ([-50, p + 7, k + p + 10], 40),    # below 0; odd and even offsets
            ([p - 3, p - 1, p + 1, p + 3], 2), # preamble into payload; touching
            ([k - 5, 2 * k - 20], 60),         # across a frame boundary
            ([-k, k // 2], 2 * k + 1),         # across several, overlapping
            ([m * k - 30, m * k + 5], 61),     # past the end; all zero
            ([p + 101], 1),                    # one odd-offset symbol
            ([p + 2, p + 51, k - 7], 5),       # gaps within one frame
            ([2 * k - 9, p + 3, -4], 12),      # starts out of order
        ]
        for starts, length in cases:
            rows = assemble_cpi(m, layout, starts, length, 33, preamble)
            ref = np.array([padded[2 * k + lo : 2 * k + lo + length] for lo in starts])
            assert rows.shape == ref.shape and rows.dtype == ref.dtype
            assert rows.tobytes() == ref.tobytes(), (starts, length)
