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
from wlanradar.golay import GolayPair, generate_golay_pair, golay_pair_correlate


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
        cef = DEFAULT_PREAMBLE.cef
        pair = generate_golay_pair(512)
        b128 = generate_golay_pair(128).b
        assert np.array_equal(cef[:512], pair.a)
        assert np.array_equal(cef[512:1024], pair.b)
        assert np.array_equal(cef[1024:], -b128)

    def test_symbols_pm1(self):
        assert set(np.unique(DEFAULT_PREAMBLE.cef)) <= {-1.0, 1.0}

    def test_correlator_peak_at_cp_offset(self):
        # CEF preceded by its cyclic-prefix context (-a_128): peak lands at
        # lag l_CEF - N_CP = 128 from the record start
        a128 = generate_golay_pair(128).a.astype(float)
        rx = np.concatenate([-a128, DEFAULT_PREAMBLE.cef, np.zeros(64)]).astype(complex)
        pair = generate_golay_pair(512)
        g = golay_pair_correlate(rx, pair, (0, 256))
        assert np.argmax(np.abs(g)) == 256 - 128


class TestLayout:
    def test_bookkeeping(self):
        layout = FrameLayout(k=12800, header_len=1024)
        assert STF_LEN + CEF_LEN == PREAMBLE_LEN == 3328
        assert layout.payload_len == 12800 - 3328 - 1024
        assert PREAMBLE_LEN + layout.header_len + layout.payload_len == layout.k

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
        for arr in (DEFAULT_PREAMBLE.stf, DEFAULT_PREAMBLE.cef, DEFAULT_PREAMBLE.symbols):
            with pytest.raises(ValueError):
                arr[0] = 5.0

    def test_wrong_length_pair_rejected(self):
        with pytest.raises(ValueError):
            Preamble(pair512=generate_golay_pair(256))
        with pytest.raises(ValueError):
            Preamble(pair128=generate_golay_pair(512))

    def test_noncomplementary_pair_rejected(self):
        base = generate_golay_pair(512)
        bad_b = base.b.copy()
        bad_b[3] *= -1
        with pytest.raises(ValueError):
            Preamble(pair512=GolayPair(base.a, bad_b))

    def test_pairs_feed_stf_and_cef(self):
        p128, p512 = generate_golay_pair(128), generate_golay_pair(512)
        swapped = Preamble(pair128=GolayPair(p128.b, p128.a),
                           pair512=GolayPair(p512.b, p512.a))
        assert np.array_equal(swapped.stf[:128], p128.b)
        assert np.array_equal(swapped.cef[:512], p512.b)
        assert np.array_equal(swapped.cef[1024:], -p128.a)
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

    @pytest.mark.parametrize("custom", [False, True])
    def test_equals_spawned_frame_concatenation(self, custom):
        # frame f's payload is what assemble_frame draws from the generator
        # of child f; this also fails if a numpy release changes how
        # integers(0, 2) reads the PCG64 stream
        p512 = generate_golay_pair(512)
        preamble = (Preamble(pair512=GolayPair(p512.b, p512.a)) if custom
                    else DEFAULT_PREAMBLE)
        layout = FrameLayout(k=4000, header_len=128)
        m, seed = 5, 21
        cpi = _whole_cpi(m, layout, seed, preamble)
        ref = np.concatenate([
            assemble_frame(layout, np.random.default_rng(s), preamble)
            for s in np.random.SeedSequence(seed).spawn(m)
        ])
        assert cpi.shape == ref.shape and cpi.dtype == ref.dtype
        assert cpi.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("m, custom", [(1, False), (3, False), (4, True)])
    def test_windows_are_whole_cpi_slices(self, m, custom):
        # windows that start below 0 or run past M K, straddle one or several
        # frame boundaries, start at odd and even payload offsets, and overlap
        p128 = generate_golay_pair(128)
        preamble = (Preamble(pair128=GolayPair(p128.b, p128.a)) if custom
                    else DEFAULT_PREAMBLE)
        k = 3700
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
